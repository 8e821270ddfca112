"""Shared verdict type for exhaustive checks.

A Verdict either holds or carries a concrete witness of failure, so a
failing sweep always points at the smallest offending input it met.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any


class InternalCheckError(AssertionError):
    """A statement that is a theorem failed on concrete data.

    This never indicates bad input; it means the implementation (or the
    theorem) is wrong, so it is raised rather than reported.
    """


class CapacityError(ValueError):
    """An exhaustive search refused because its space exceeds a fixed cap.

    The input is well formed but too large to enumerate; nothing failed.
    """


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Any = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.holds

    @classmethod
    def ok(cls, reason: str = "") -> "Verdict":
        return cls(True, None, reason)

    @classmethod
    def fail(cls, witness: Any = None, reason: str = "") -> "Verdict":
        return cls(False, witness, reason)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"holds": self.holds}
        if self.reason:
            out["reason"] = self.reason
        if not self.holds:
            out["witness"] = jsonable(self.witness)
        return out


def jsonable(value: Any) -> Any:
    """Recursively convert witnesses/report payloads to JSON-safe values."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Verdict):
        return value.to_dict()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return repr(value)
