"""Tenant policy: who may run joins, with what budgets, at what priority.

The daemon serves many tenants through one governor; this module is the
declarative side — a small JSON config file mapping tenant names to
their admission policy:

.. code-block:: json

    {
      "default": {"priority": 0, "mem_budget": "64M"},
      "tenants": {
        "interactive": {"priority": 10, "mem_budget": "256M",
                         "max_concurrent": 2},
        "batch": {"priority": 0, "mem_budget": "48M",
                   "on_pressure": "queue", "deadline_s": 30}
      },
      "strict": false
    }

``default`` is the policy applied to any tenant not listed (and the
base every listed tenant inherits from); ``strict: true`` rejects
unknown tenants instead.  Budgets accept raw byte counts or ``K``/``M``/
``G`` suffixed strings.  Field semantics match the runner parameters
they feed: ``mem_budget``/``disk_budget`` arm the resource governor per
request, ``on_pressure`` picks the pressure response (``degrade`` /
``queue`` / ``fail``), ``max_concurrent`` caps the tenant's concurrent
joins inside the shared governor, ``deadline_s`` bounds time spent in
the admission queue, and ``priority`` orders the queue (higher wins).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional

from repro.governor.budget import ON_PRESSURE_MODES, parse_size


class TenantError(ValueError):
    """A tenant config (or a request's tenant reference) is invalid."""


def parse_budget(value: object, field: str) -> Optional[int]:
    """``None`` | int bytes | ``"256K"``-style string → bytes or ``None``."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise TenantError(f"{field}: booleans are not byte counts")
    if isinstance(value, int):
        size = value
    elif isinstance(value, str):
        try:
            size = parse_size(value)
        except ValueError as error:
            raise TenantError(f"{field}: {error}") from None
    else:
        raise TenantError(
            f"{field}: expected bytes or a size string, got "
            f"{type(value).__name__}"
        )
    if size <= 0:
        raise TenantError(f"{field}: size must be positive: {value!r}")
    return size


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission policy, fully resolved."""

    name: str
    priority: int = 0
    mem_budget_bytes: Optional[int] = None
    disk_budget_bytes: Optional[int] = None
    max_concurrent: Optional[int] = None
    on_pressure: str = "degrade"
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.on_pressure not in ON_PRESSURE_MODES:
            raise TenantError(
                f"tenant {self.name!r}: unknown on_pressure "
                f"{self.on_pressure!r}; choices: {sorted(ON_PRESSURE_MODES)}"
            )
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise TenantError(
                f"tenant {self.name!r}: max_concurrent must be >= 1"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise TenantError(
                f"tenant {self.name!r}: deadline_s must be positive"
            )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "priority": self.priority,
            "mem_budget_bytes": self.mem_budget_bytes,
            "disk_budget_bytes": self.disk_budget_bytes,
            "max_concurrent": self.max_concurrent,
            "on_pressure": self.on_pressure,
            "deadline_s": self.deadline_s,
        }


_POLICY_FIELDS = frozenset(
    {
        "priority",
        "mem_budget",
        "disk_budget",
        "max_concurrent",
        "on_pressure",
        "deadline_s",
    }
)


def _build_policy(name: str, raw: Mapping, base: Mapping) -> TenantPolicy:
    unknown = set(raw) - _POLICY_FIELDS
    if unknown:
        raise TenantError(
            f"tenant {name!r}: unknown fields {sorted(unknown)}; "
            f"valid fields: {sorted(_POLICY_FIELDS)}"
        )
    merged = {**base, **raw}
    priority = merged.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise TenantError(f"tenant {name!r}: priority must be an integer")
    deadline = merged.get("deadline_s")
    if deadline is not None and not isinstance(deadline, (int, float)):
        raise TenantError(f"tenant {name!r}: deadline_s must be a number")
    max_concurrent = merged.get("max_concurrent")
    if max_concurrent is not None and (
        not isinstance(max_concurrent, int) or isinstance(max_concurrent, bool)
    ):
        raise TenantError(f"tenant {name!r}: max_concurrent must be an integer")
    return TenantPolicy(
        name=name,
        priority=priority,
        mem_budget_bytes=parse_budget(
            merged.get("mem_budget"), f"tenant {name!r}: mem_budget"
        ),
        disk_budget_bytes=parse_budget(
            merged.get("disk_budget"), f"tenant {name!r}: disk_budget"
        ),
        max_concurrent=max_concurrent,
        on_pressure=merged.get("on_pressure", "degrade"),
        deadline_s=float(deadline) if deadline is not None else None,
    )


class TenantConfig:
    """The resolved tenant policy table the daemon serves with."""

    def __init__(
        self,
        tenants: Dict[str, TenantPolicy],
        default: TenantPolicy,
        strict: bool = False,
    ) -> None:
        self.tenants = dict(tenants)
        self.default = default
        self.strict = strict

    @classmethod
    def parse(cls, raw: Mapping) -> "TenantConfig":
        if not isinstance(raw, Mapping):
            raise TenantError(
                f"tenant config must be an object, got {type(raw).__name__}"
            )
        unknown = set(raw) - {"default", "tenants", "strict"}
        if unknown:
            raise TenantError(
                f"unknown top-level fields {sorted(unknown)}; "
                "valid: default, tenants, strict"
            )
        base = raw.get("default", {})
        if not isinstance(base, Mapping):
            raise TenantError("'default' must be an object of policy fields")
        default = _build_policy("default", base, {})
        entries = raw.get("tenants", {})
        if not isinstance(entries, Mapping):
            raise TenantError("'tenants' must be an object of name -> policy")
        tenants = {}
        for name, fields in entries.items():
            if not isinstance(fields, Mapping):
                raise TenantError(f"tenant {name!r}: policy must be an object")
            tenants[name] = _build_policy(name, fields, base)
        strict = raw.get("strict", False)
        if not isinstance(strict, bool):
            raise TenantError("'strict' must be a boolean")
        return cls(tenants, default, strict)

    @classmethod
    def load(cls, path: str | Path) -> "TenantConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as error:
            raise TenantError(f"cannot read tenant config {path}: {error}")
        except json.JSONDecodeError as error:
            raise TenantError(f"tenant config {path} is not valid JSON: {error}")
        return cls.parse(raw)

    @classmethod
    def open_default(cls) -> "TenantConfig":
        """The permissive single-class config: everyone gets ``default``."""
        return cls({}, TenantPolicy(name="default"), strict=False)

    def resolve(self, name: Optional[str]) -> TenantPolicy:
        """The policy a request under ``name`` runs with.

        Unknown tenants fall back to the default policy (re-named so
        accounting stays per-tenant) unless the config is ``strict``.
        """
        if name is None:
            name = self.default.name
        if name in self.tenants:
            return self.tenants[name]
        if self.strict and name != self.default.name:
            raise TenantError(
                f"unknown tenant {name!r} and the tenant config is strict"
            )
        if name == self.default.name:
            return self.default
        return TenantPolicy(
            name=name,
            priority=self.default.priority,
            mem_budget_bytes=self.default.mem_budget_bytes,
            disk_budget_bytes=self.default.disk_budget_bytes,
            max_concurrent=self.default.max_concurrent,
            on_pressure=self.default.on_pressure,
            deadline_s=self.default.deadline_s,
        )

    def tenant_limits(self) -> Dict[str, int]:
        """Per-tenant concurrency caps for the governor constructor."""
        return {
            name: policy.max_concurrent
            for name, policy in self.tenants.items()
            if policy.max_concurrent is not None
        }
