"""Model-driven resource governor for the real-mmap backend.

Predicts each join's memory/disk footprint with the paper's analytical
model (:mod:`repro.governor.predict`), enforces budgets at runtime via a
per-process memory meter (:mod:`repro.governor.watchdog`) and disk
preflights (:mod:`repro.governor.budget`), classifies resource failures
(:mod:`repro.governor.errors`), and bounds concurrent admissions
(:mod:`repro.governor.governor`).

The package depends only on :mod:`repro.model` and the standard library,
so the storage and parallel layers can import it without cycles.
"""

from repro.governor.budget import disk_preflight, store_usage_bytes
from repro.governor.errors import (
    DISK_FULL_ERRNOS,
    AdmissionRejected,
    DiskExhausted,
    MemoryExhausted,
    ResourceExhausted,
    classify_os_error,
)
from repro.governor.governor import AdmissionTicket, ResourceGovernor
from repro.governor.predict import (
    FIT_MARGIN,
    MAX_BUCKETS,
    MIN_BATCH_RECORDS,
    MIN_IRUN,
    FootprintEstimate,
    JoinPlan,
    fit_plan,
    predict_footprint,
)
from repro.governor.watchdog import (
    MemoryMeter,
    NullMeter,
    activate_meter,
    active_meter,
    deactivate_meter,
    metering,
    rss_high_water_bytes,
)

__all__ = [
    "disk_preflight",
    "store_usage_bytes",
    "DISK_FULL_ERRNOS",
    "AdmissionRejected",
    "DiskExhausted",
    "MemoryExhausted",
    "ResourceExhausted",
    "classify_os_error",
    "AdmissionTicket",
    "ResourceGovernor",
    "FIT_MARGIN",
    "MAX_BUCKETS",
    "MIN_BATCH_RECORDS",
    "MIN_IRUN",
    "FootprintEstimate",
    "JoinPlan",
    "fit_plan",
    "predict_footprint",
    "MemoryMeter",
    "NullMeter",
    "activate_meter",
    "active_meter",
    "deactivate_meter",
    "metering",
    "rss_high_water_bytes",
]
