"""Check reports: the uniform outcome record for every inequality check."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckReport", "best_constant", "require_tolerance", "GRID_TOLERANCE"]

# Default slack of the grid-function checks, for discretization error.
GRID_TOLERANCE = 0.05


def require_tolerance(tolerance) -> None:
    """Reject a tolerance that is not a finite real >= 0; a NaN or infinite one fails too."""
    if not (isinstance(tolerance, numbers.Real) and 0 <= tolerance < math.inf):
        raise ValueError(f"tolerance must be a finite real >= 0, not {tolerance!r}")


@dataclass
class CheckReport:
    """Outcome of one inequality check.

    ``worst_ratio`` is sup LHS/RHS over the checked points, and the pass flag
    is tied to it: pass iff worst_ratio <= constant_used * (1 + tolerance).
    A tolerance that is not a finite real >= 0 raises ValueError.
    Error outcomes carry a non-"ok" status and never pass.

    ``trace`` holds the per-t evidence of a traced check as an (m, 3) float64
    array of (t, lhs, rhs) rows, also in a report loaded from JSON.
    ``trace_text`` is the report writer's cache of the trace's JSON list
    text, paired with the trace it formats.
    """

    inequality_id: str
    params: dict
    worst_ratio: float
    worst_location: float | None
    constant_used: float
    tolerance: float
    passed: bool = field(init=False)
    status: str = "ok"
    function_id: str | None = None
    trace: np.ndarray | None = None
    trace_text: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_tolerance(self.tolerance)
        self.passed = self._evaluate()

    def _evaluate(self) -> bool:
        if self.status != "ok":
            return False
        if math.isnan(self.worst_ratio):
            return False
        return self.worst_ratio <= self.constant_used * (1.0 + self.tolerance)

    @classmethod
    def error(cls, inequality_id: str, status: str):
        """A failed-with-reason row; keeps suites running past bad inputs."""
        return cls(
            inequality_id, {}, worst_ratio=math.nan, worst_location=None,
            constant_used=math.nan, tolerance=0.0, status=status,
        )

    @classmethod
    def trivial_pass(cls, inequality_id: str, params: dict, constant: float, tolerance: float):
        """A zero-ratio row, for inputs (the zero function) on which both sides vanish."""
        return cls(
            inequality_id, params, worst_ratio=0.0, worst_location=None,
            constant_used=constant, tolerance=tolerance,
        )

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "function_id": self.function_id,
            "params": self.params,
            "worst_ratio": _nan_as_none(self.worst_ratio),
            "worst_location": self.worst_location,
            "constant_used": _nan_as_none(self.constant_used),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CheckReport":
        trace = None if doc.get("trace") is None else np.array(doc["trace"], dtype=float)
        if trace is not None and trace.shape[1:] != (3,) and trace.shape != (0,):
            raise ValueError("every trace row needs three values (t, lhs, rhs)")
        report = cls(
            inequality_id=doc["inequality_id"],
            params=dict(doc["params"]),
            worst_ratio=_none_as_nan(doc["worst_ratio"]),
            worst_location=doc["worst_location"],
            constant_used=_none_as_nan(doc["constant_used"]),
            tolerance=doc["tolerance"],
            status=doc.get("status", "ok"),
            function_id=doc.get("function_id"),
            trace=None if trace is None else trace.reshape(-1, 3),
        )
        if report.passed != doc["pass"]:
            raise ValueError("pass flag inconsistent with ratio/constant/tolerance")
        return report


def best_constant(reports) -> float:
    """Empirical best constant: the largest worst_ratio among rows with status "ok", 0 if none.

    Flagged and error rows are left out: their ratio is not a value of the inequality.
    """
    return max([0.0] + [r.worst_ratio for r in reports if r.status == "ok"])


def _none_as_nan(x):
    return math.nan if x is None else float(x)


def _nan_as_none(x):
    return None if isinstance(x, float) and math.isnan(x) else x
