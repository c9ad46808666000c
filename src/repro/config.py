"""The repo's runtime knobs, registered in one place.

Every ``REPRO_*`` environment variable the code base consults is declared
here as a :class:`Knob`, so a new knob gets a name and a documented
default exactly once — instead of one ad-hoc ``os.environ.get`` per
module.  Precedence is: an explicit argument wins, else the default;
the environment only supplies process-wide settings that have no
argument to travel in (integrity, bench and test switches).  Per-run
state — kernel mode, budgets — never comes from here: it
travels to the workers inside each task.

This module is import-light on purpose — stdlib only — so the storage
layer, the engine, and the benches can all depend on it without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Knob:
    """One registered environment knob."""

    name: str
    env: str
    default: Optional[str]
    description: str


#: Every REPRO_* knob the code base consults, by short name.
KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            name="integrity",
            env="REPRO_INTEGRITY",
            default="on",
            description=(
                "segment payload checksums: 'off'/'0'/'none' disables "
                "writing and verifying (the bench baseline knob; env-"
                "based so forked pool workers inherit it); "
                "configure_integrity() is the in-process override"
            ),
        ),
        Knob(
            name="bench_full",
            env="REPRO_BENCH_FULL",
            default=None,
            description=(
                "set to 1 to run the full-paper-scale benchmark variants "
                "(102,400 objects) instead of the CI-scaled ones"
            ),
        ),
        Knob(
            name="bench_scale",
            env="REPRO_BENCH_SCALE",
            default=None,
            description="workload scale factor for the benchmark suites",
        ),
        Knob(
            name="smoke_out",
            env="REPRO_SMOKE_OUT",
            default=None,
            description="write the smoke benches' JSON report to this path",
        ),
        Knob(
            name="regen_golden",
            env="REPRO_REGEN_GOLDEN",
            default=None,
            description="set to 1 to regenerate golden test fixtures",
        ),
    )
}

#: Values that read as "disabled" for on/off knobs like integrity.
_OFF_VALUES = ("off", "0", "none", "false", "no")


def knob(name: str) -> Knob:
    """The registered knob, by short name (raises on typos)."""
    return KNOBS[name]


def env_value(name: str) -> Optional[str]:
    """The knob's raw environment value, stripped; None when unset/empty."""
    raw = os.environ.get(knob(name).env, "").strip()
    return raw or None


def env_flag(name: str) -> bool:
    """True when the knob is set to a truthy value (``1``, ``on``, ...)."""
    raw = env_value(name)
    return raw is not None and raw.lower() not in _OFF_VALUES


def env_enabled(name: str, default: bool = True) -> bool:
    """On/off knobs that *default on*: False only for explicit off values."""
    raw = env_value(name)
    if raw is None:
        return default
    return raw.lower() not in _OFF_VALUES


def env_float(name: str, default: float) -> float:
    """The knob as a float, falling back to ``default`` on unset/garbage."""
    raw = env_value(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return default
