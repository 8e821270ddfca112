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
    theorem) is wrong, so it is raised rather than reported.  It is also how
    a stage given input its caller should have refused fails: stages do not
    re-check their preconditions, only their own output.
    """


class CapacityError(ValueError):
    """An exhaustive search refused because its space exceeds a fixed cap.

    The input is well formed but too large to enumerate; nothing failed.
    """


#: The most items (table entries, search leaves, composable triples) an
#: exhaustive search may build before it refuses with ``CapacityError``.
ENUMERATION_CAP = 10_000_000

#: The most lifting-table entries (p^m liftings of 2^n entries each, for p
#: positive and m null atoms) ``verify_theorem1`` takes on before it refuses
#: with ``CapacityError``: its pipeline costs about 0.25 s per lifting at 12
#: atoms, so 10+2 atoms (409,600 entries, 26 s) pass and 9+3 (2,985,984) do not.
THEOREM1_BUDGET = 1_000_000


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
    # exact scalars first: the ABC test isinstance(v, Fraction) is slow
    if value is None or type(value) in (bool, int, str):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Verdict):
        return value.to_dict()
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return repr(value)
