"""Real-mmap parallel join backend (multiprocessing over mapped files).

Algorithms are declarative pass plans (:mod:`repro.parallel.engine`)
executed by one generic engine; :mod:`repro.parallel.vectorized` holds
the per-partition stage kernels and :mod:`repro.parallel.runner` the
admission/governance facade.
"""

from repro.parallel.engine.stages import PassPlan, PassPlanError, plan_for
from repro.parallel.engine.task import PairResult
from repro.parallel.faults import (
    ALGORITHM_TASKS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedCrash,
    InjectedDiskFull,
    InjectedFault,
    InjectedHang,
    InjectedMemPressure,
    InjectedTornWrite,
    RetryPolicy,
)
from repro.parallel import vectorized  # noqa: F401  (registers the kernels)
from repro.parallel.runner import (
    ON_PRESSURE_MODES,
    REAL_ALGORITHMS,
    RealJoinError,
    RealJoinResult,
    run_real_join,
)

__all__ = [
    "ALGORITHM_TASKS",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedCrash",
    "InjectedDiskFull",
    "InjectedFault",
    "InjectedHang",
    "InjectedMemPressure",
    "InjectedTornWrite",
    "ON_PRESSURE_MODES",
    "PairResult",
    "PassPlan",
    "PassPlanError",
    "REAL_ALGORITHMS",
    "RealJoinError",
    "RealJoinResult",
    "RetryPolicy",
    "plan_for",
    "run_real_join",
]
