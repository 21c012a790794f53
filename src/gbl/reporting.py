"""Deterministic report serialization.

Reports serialize to byte-identical JSON for identical (config, seed):
floats are printed with 17 significant digits, key order is insertion
order, and no timestamps enter the payload (wall time goes to stderr).
A result dataclass is its own report section: `dumps` writes its fields,
in field order, so a field added to a record reaches the report as is.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass

SCHEMA_VERSION = 1


def _format_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """JSON text with fixed float formatting and insertion-ordered keys.

    A dataclass instance is written as the dict of its fields, in field
    order; numpy arrays and scalars as their `tolist()`.
    """
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if is_dataclass(obj):
        return dumps({f.name: getattr(obj, f.name) for f in fields(obj)})
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)!r}")


@dataclass
class CheckRecord:
    """One verified claim: margin is how far inside the tolerance it landed."""
    name: str
    status: str              # PASS | FAIL
    margin: float
    tolerance: float
    claim: str


@dataclass
class Report:
    command: str
    config: dict
    version: str
    checks: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def add_margin(self, name: str, margin: float, tolerance: float, claim: str) -> None:
        """Record a check that passes when margin >= -tolerance."""
        margin, tolerance = float(margin), float(tolerance)
        status = "PASS" if margin >= -tolerance else "FAIL"
        self.checks.append(CheckRecord(name, status, margin, tolerance, claim))

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "FAIL")

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "tool": "gbl",
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "checks": self.checks,
            "summary": {"pass": len(self.checks) - self.failed, "fail": self.failed},
            "payload": self.payload,
        }

    def to_json(self) -> str:
        return dumps(self.to_dict()) + "\n"

    def to_csv(self) -> str:
        lines = ["name,status,margin,tolerance,claim"]
        for c in self.checks:
            claim = '"' + c.claim.replace('"', '""') + '"'
            lines.append(
                f"{c.name},{c.status},{format(c.margin, '.17g')},{format(c.tolerance, '.17g')},{claim}"
            )
        return "\n".join(lines) + "\n"
