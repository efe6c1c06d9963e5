"""Discrete gradient moduli and the rearranged-derivative comparison.

Two discrete estimators of the metric gradient magnitude are provided.

``metric_max`` takes, along each axis, the larger of the two one-sided
difference quotients and combines the axes in Euclidean norm.  The axis-wise
max alone converges to the l-infinity norm of the gradient (for a radial cone
in 2-d that under-counts the gradient integral by the factor 2*sqrt(2)/pi);
combining across axes recovers the full magnitude that the limsup over all
approach directions defines, which is what the checked constants assume.

``euclidean_central`` is the Euclidean norm of central differences.  On smooth
functions the two agree to O(h); they differ at kinks, where the one-sided
form is the faithful limsup.  Out-of-grid neighbors count as 0, consistent
with extending compactly supported functions by zero.

Every grid check is a functional of two rearrangements, f* and |grad f|*.
``PreparedFunction`` builds each of them (and the mass functions and the
gradient modulus behind them) at most once per function, so checkers that
share a function share one sort per rearrangement.  The cells off f's
support box (``support_box``) enter both only through their count, so every
kernel that reads f runs on that box alone.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import GridFunction, MassFunction, box_to_mass, lp_norm, require_finite_p, support_box
from .rearrangement import (
    StepProfile,
    _consecutive_integrals,
    decreasing_rearrangement,
    powered_profile,
)
from .report import GRID_TOLERANCE, CheckReport
from .isoperimetry import euclidean_profile

__all__ = [
    "GRADIENT_MODES",
    "PreparedFunction",
    "prepare",
    "metric_gradient_modulus",
    "polya_szego_lhs",
    "polya_szego_compare",
    "has_profile_jump",
]

GRADIENT_MODES = ("metric_max", "euclidean_central")

# A single profile drop above this share of the maximum level is a jump.
JUMP_THRESHOLD = 0.25


def _axis_magnitude(v: np.ndarray, axis: int, mode: str, out: np.ndarray, work: np.ndarray) -> None:
    """Write the undivided difference magnitude of ``v`` along ``axis`` into ``out``.

    ``metric_max``: the larger of |v(x) - v(x +- e)|, from one absolute
    difference array d = |v(x + e) - v(x)| and its two shifts.
    ``euclidean_central``: |v(x + e) - v(x - e)|.  An out-of-grid neighbour is 0.
    ``v`` and ``out`` are C-contiguous, so a step along ``axis`` is a step of
    ``s`` cells in the flat array; the flat formula is wrong only on the
    axis's two faces, which are then rewritten from the true neighbours.  d is
    written into the cell-sized ``work``.
    """
    s = math.prod(v.shape[axis + 1 :])
    flat, o = v.reshape(-1), out.reshape(-1)
    vm, om = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    if mode == "metric_max":
        d = np.subtract(flat[s:], flat[:-s], out=work[: flat.size - s])
        np.abs(d, out=d)
        np.maximum(d[s:], d[:-s], out=o[s:-s])
        np.maximum(np.abs(vm[1:2] - vm[:1]), np.abs(vm[:1]), out=om[:1])
        np.maximum(np.abs(vm[-1:]), np.abs(vm[-1:] - vm[-2:-1]), out=om[-1:])
    else:
        np.subtract(flat[2 * s :], flat[: -2 * s], out=o[s:-s])
        np.abs(o[s:-s], out=o[s:-s])
        np.abs(vm[1:2], out=om[:1])
        np.abs(vm[-2:-1], out=om[-1:])


def _modulus_values(v: np.ndarray, h: float, mode: str) -> np.ndarray:
    """The gradient modulus of the cell values ``v`` at spacing ``h``, as a fresh array."""
    v = np.ascontiguousarray(v)
    step = h if mode == "metric_max" else 2.0 * h
    # the first axis's squared component becomes the sum; later axes reuse one array
    modulus = np.empty_like(v)
    comp = np.empty_like(v) if v.ndim > 1 else None
    work = np.empty(v.size) if mode == "metric_max" else None
    with np.errstate(over="ignore"):  # an overflow reads inf, which ``_box_modulus`` reports
        for ax in range(v.ndim):
            buf = comp if ax else modulus
            _axis_magnitude(v, ax, mode, buf, work)
            buf /= step
            np.multiply(buf, buf, out=buf)
            if ax:
                modulus += buf
    return np.sqrt(modulus, out=modulus)


def _box_modulus(cells: np.ndarray, box, grid: GridFunction, mode: str) -> np.ndarray:
    """The gradient modulus of the box-shaped array ``cells``, as a fresh array of the box's shape.

    ``box`` is a support box (``support_box``) on ``grid`` of the function
    whose values on it are ``cells``, so the modulus off it is 0 and is not
    computed.  A modulus that a grid function could not hold, not finite
    (it overflowed) or not 0 on the grid's outer layer, raises ValueError.
    """
    require_gradient_mode(mode)
    modulus = _modulus_values(cells, grid.spacing, mode)
    if not np.all(np.isfinite(modulus)):
        raise ValueError("the gradient modulus overflows a float: malformed input")
    # the box reaches the grid's outer layer only where one of its slices starts at 0 or ends at the extent
    faces = [
        np.moveaxis(modulus, ax, 0)[end]
        for ax, (s, n) in enumerate(zip(box, grid.extents))
        for end, outer in ((0, s.start == 0), (-1, s.stop == n))
        if outer
    ]
    if any(np.any(face) for face in faces):
        raise ValueError(
            "gradient support touches the domain boundary; keep function "
            "support at least two cells inside"
        )
    return modulus


def require_gradient_mode(mode) -> None:
    """Reject a mode outside ``GRADIENT_MODES``; None too, which names f's own chain in ``PreparedFunction``."""
    if mode not in GRADIENT_MODES:
        raise ValueError(f"unknown gradient mode {mode!r}; expected one of {GRADIENT_MODES}")


def metric_gradient_modulus(f: GridFunction, mode: str = "metric_max") -> GridFunction:
    """Per-cell discrete gradient magnitude of a grid function.

    The kernel runs on f's support box (``support_box``) only; every other
    cell of the result is 0.
    """
    box = support_box(f.values)
    values = np.zeros(f.extents)
    values[box] = _box_modulus(f.values[box], box, f, mode)
    return GridFunction(f.spacing, values)


class PreparedFunction:
    """A grid function with its rearrangement artifacts, each built on first use.

    One chain serves f and its gradient modulus alike: ``mass(mode)`` is the
    distribution of |f| for ``mode`` None and of |grad f| in that gradient
    mode otherwise, ``profile(mode)`` its decreasing rearrangement,
    ``powered(p, mode)`` the profile's p-th power and ``norm(p, mode)`` the
    L^p norm.  Every artifact is built on first use, bit-identical to
    building it directly from ``grid`` over every cell; building one p's
    powered profile drops the other p's.  ``is_zero`` is the one
    zero-function test; ``grad``, ``norm`` and ``powered`` reject a
    nonzero f whose gradient, norm or power underflows to nothing.

    ``box`` is f's support box (``support_box``), found once, and every
    kernel that reads f runs on it alone.  ``grad(mode)`` is the modulus
    on the box, an array of its shape; off the box it is 0.  A mass build
    sorts the box's cells and counts the others into the zero atom.  The
    chain rule works on the box and O'Neil's product on the meet of two
    boxes.  Each kernel allocates the box-sized arrays it writes.
    """

    __slots__ = ("grid", "box", "_cache")

    def __init__(self, grid: GridFunction):
        self.grid = grid
        self.box = support_box(grid.values)
        self._cache = {}

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def mass(self, mode: str | None = None) -> MassFunction:
        def build():
            on_box = self.grid.values[self.box] if mode is None else self.grad(mode)
            return box_to_mass(on_box, self.grid.values.size, self.grid.cell_measure)

        return self._cached(("mass", mode), build)

    def profile(self, mode: str | None = None) -> StepProfile:
        return self._cached(("profile", mode), lambda: decreasing_rearrangement(self.mass(mode)))

    @property
    def is_zero(self) -> bool:
        return self.mass().max_value == 0

    def grad(self, mode: str = "metric_max") -> np.ndarray:
        return self._cached(("grad", mode), lambda: self._nonzero_grad(mode))

    def _nonzero_grad(self, mode: str) -> np.ndarray:
        g = _box_modulus(self.grid.values[self.box], self.box, self.grid, mode)
        if not np.any(g) and not self.is_zero:
            raise ValueError("nonzero function with zero gradient: malformed input")
        return g

    def norm(self, p: float, mode: str | None = None) -> float:
        """L^p norm of f, or of its gradient modulus in ``mode``; each is summed once."""
        norm = self._cached(("norm", p, mode), lambda: lp_norm(self.mass(mode), p))
        if norm == 0.0 and not self.is_zero:
            raise ValueError(f"nonzero function whose L^{p:g} norm underflows to 0: malformed input")
        if norm == math.inf:
            raise ValueError(f"function whose L^{p:g} norm overflows a float: malformed input")
        return norm

    def powered(self, p: float, mode: str | None = None) -> StepProfile:
        """``powered_profile(self.profile(mode), p)``, cached; building it drops every other p's."""
        key = ("powered", p, mode)
        if key not in self._cache:
            for other in [k for k in self._cache if k[0] == "powered" and k[1] != p]:
                del self._cache[other]
            self._cache[key] = powered_profile(self.profile(mode), p)
        return self._cache[key]

    def keep_profile_only(self) -> None:
        """Drop every cached artifact but f's profile, which is kept if it has been built."""
        key = ("profile", None)
        self._cache = {key: self._cache[key]} if key in self._cache else {}


def prepare(f) -> PreparedFunction:
    """``f`` itself if already prepared, else a fresh PreparedFunction of it."""
    return f if isinstance(f, PreparedFunction) else PreparedFunction(f)


def has_profile_jump(s: StepProfile) -> bool:
    """Detect a genuine jump in a rearrangement profile.

    Profiles of Lipschitz grid functions drop by O(h) between consecutive
    levels; a single drop exceeding ``JUMP_THRESHOLD`` of the maximum level
    marks an indicator-like discontinuity, for which the midpoint-interpolant
    derivative does not converge under grid refinement.
    """
    if s.max_level == 0:
        return False
    levels = s.levels
    # the drops between steps, then the last level's drop to 0
    drop = np.max(levels[:-1] - levels[1:]) if levels.size > 1 else 0.0
    return bool(max(drop, levels[-1]) > JUMP_THRESHOLD * s.max_level)


def polya_szego_lhs(
    s: StepProfile,
    n: int,
    p: float,
    weight: str = "isoperimetric",
) -> float:
    """Rearranged-derivative integral {int (w(t) (-f*)'(t))^p dt}^(1/p).

    The slope of a step profile is taken from the piecewise-linear interpolant
    through the breakpoint midpoints; outside the first/last midpoints the
    interpolant is flat, so pure plateaus contribute nothing.

    ``weight`` selects the radial weight w(t):

    * ``"isoperimetric"``: w(t) = c_n t^(1-1/n), the Euclidean profile, the
      normalization under which radially decreasing extremizers give equality
      with the gradient integral;
    * ``"bare_power"``: w(t) = t^(1-1/n), the same up to the constant c_n.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    require_finite_p(p)
    if weight == "isoperimetric":
        coeff = euclidean_profile(n).coefficient
    elif weight == "bare_power":
        coeff = 1.0
    else:
        raise ValueError(f"unknown weight {weight!r}")
    if s.levels.size < 2:
        return 0.0
    b, levels = s.breakpoints, s.levels
    # the steps of (coeff * slopes)**p * power_segment_integral(mids[:-1], mids[1:], beta) with
    # mids = (b[:-1] + b[1:]) / 2 and slopes = -diff(levels) / diff(mids), in three arrays
    mids = np.add(b[:-1], b[1:])
    mids /= 2.0
    terms = np.subtract(levels[1:], levels[:-1])
    np.negative(terms, out=terms)
    terms /= np.diff(mids)  # the slopes, >= 0 by monotonicity
    terms *= coeff
    terms **= p
    terms *= _consecutive_integrals(mids, (1.0 - 1.0 / n) * p + 1.0)
    return float(np.add.reduce(terms)) ** (1.0 / p)  # summed pairwise, not by a threaded BLAS dot


def polya_szego_compare(
    f: GridFunction | PreparedFunction,
    *,
    p: float = 1.0,
    gradient_mode: str = "metric_max",
    weight: str = "isoperimetric",
    tolerance: float = GRID_TOLERANCE,
) -> CheckReport:
    """Ratio of the rearranged-derivative integral to the gradient L^p norm.

    n is the dimension of f's grid.  Passes when the ratio stays below
    1 + tolerance.  Jumpy profiles (indicators) are reported with status
    "flagged:jump": for p > 1 their true rearranged-derivative integral is
    infinite and the interpolant value has no refinement limit.
    """
    require_finite_p(p)
    require_gradient_mode(gradient_mode)
    pf = prepare(f)
    grid = pf.grid
    n = grid.dim
    params = {
        "n": n,
        "p": p,
        "gradient_mode": gradient_mode,
        "weight": weight,
        "grid": grid.shape_label,
        "spacing": grid.spacing,
    }
    if pf.is_zero:
        # constant-zero input: ratio defined as 0
        return CheckReport.trivial_pass("polya_szego", params, 1.0, tolerance)
    rhs = pf.norm(p, gradient_mode)
    profile = pf.profile()
    lhs = polya_szego_lhs(profile, n, p, weight)
    params["jump_flag"] = has_profile_jump(profile)
    return CheckReport(
        inequality_id="polya_szego",
        params=params,
        worst_ratio=lhs / rhs,
        worst_location=None,
        constant_used=1.0,
        tolerance=tolerance,
        # non-convergent left side: the value is reported but must not pass
        status="flagged:jump" if params["jump_flag"] else "ok",
    )
