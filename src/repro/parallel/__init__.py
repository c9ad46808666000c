"""Real-mmap parallel join backend (multiprocessing over mapped files).

Algorithms are declarative pass plans, one entry each in the plan table
(:mod:`repro.parallel.engine.plans`); :mod:`repro.parallel.vectorized`
holds the per-partition stage kernels, and :mod:`repro.parallel.runner`
the one driver, :func:`run_real_join`, which admits a plan and runs it.
"""

from repro.parallel.engine.plans import plan_for
from repro.parallel.engine.stages import PassPlan, PassPlanError
from repro.parallel.engine.task import PairResult
from repro.parallel.faults import (
    ALGORITHM_TASKS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    InjectedMemPressure,
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
    "InjectedFault",
    "InjectedHang",
    "InjectedMemPressure",
    "ON_PRESSURE_MODES",
    "PairResult",
    "PassPlan",
    "PassPlanError",
    "REAL_ALGORITHMS",
    "RealJoinError",
    "RealJoinResult",
    "plan_for",
    "run_real_join",
]
