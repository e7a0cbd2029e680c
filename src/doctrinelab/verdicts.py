"""Three-valued verdicts and the error taxonomy shared by all checkers.

Every universally-quantified check returns a :class:`Verdict`:

* ``refuted`` -- a concrete counterexample was found; the payload contains
  enough ids to re-evaluate the violation from primitives.
* ``holds`` -- the statement was verified over the declared window; the
  verdict records the window descriptor so bounded confirmations are never
  silently over-claimed.
* ``not_applicable`` -- a hypothesis is missing (no meets, no adjoint, a
  witness pool truncated by the window, ...); the reason says which.
"""

from __future__ import annotations

from typing import Any, Mapping

HOLDS = "holds"
REFUTED = "refuted"
NOT_APPLICABLE = "not_applicable"


class DoctrineError(Exception):
    """Base class for structural errors (distinct from law violations)."""


class MalformedCategory(DoctrineError):
    """Missing composite, dangling id, non-functional table."""


class ShapeMismatch(DoctrineError):
    """Reindex map between the wrong fibers, arity errors."""


class StructureMissing(DoctrineError):
    """An operation was requested on a poset lacking the needed structure."""


class WindowExceeded(DoctrineError):
    """An object or arrow outside the declared window was demanded."""


class InvalidTopology(DoctrineError):
    """Open-set table not closed under union/intersection."""


class ParseError(DoctrineError):
    """Instance file rejected; carries a JSON-path style position."""

    def __init__(self, message: str, position: str = ""):
        self.position = position
        super().__init__(f"{position}: {message}" if position else message)


class Verdict:
    __slots__ = ("status", "window", "counterexample", "reason")

    def __init__(self, status: str, window: str | None = None,
                 counterexample: Mapping[str, Any] | None = None,
                 reason: str | None = None):
        self.status, self.window = status, window
        self.counterexample, self.reason = counterexample, reason

    def __repr__(self) -> str:
        return f"Verdict({self.to_json()!r})"

    @classmethod
    def holds(cls, window: str) -> "Verdict":
        return cls(HOLDS, window=window)

    @classmethod
    def refuted(cls, **payload: Any) -> "Verdict":
        return cls(REFUTED, counterexample=payload)

    @classmethod
    def not_applicable(cls, reason: str) -> "Verdict":
        return cls(NOT_APPLICABLE, reason=reason)

    def __bool__(self) -> bool:
        return self.status == HOLDS

    @property
    def is_refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def is_na(self) -> bool:
        return self.status == NOT_APPLICABLE

    def to_json(self) -> dict:
        out: dict[str, Any] = {"status": self.status}
        if self.window is not None:
            out["window"] = self.window
        if self.counterexample is not None:
            out["counterexample"] = _jsonable(self.counterexample)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _jsonable(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def combine(window: str, *verdicts: Verdict) -> Verdict:
    """The conjunction of several checks: first refutation or NA wins."""
    for v in verdicts:
        if v.is_refuted:
            return v
    for v in verdicts:
        if v.is_na:
            return v
    return Verdict.holds(window)
