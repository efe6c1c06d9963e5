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
``PreparedFunction`` builds each of them (and the mass functions behind
them) at most once per function, so checkers that share a function share
one sort per rearrangement.  The cells off f's
support box (``support_box``) enter both only through their count, so every
kernel that reads f runs on that box alone.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import (
    BLOCK_CELLS,
    GridFunction,
    MassFunction,
    box_to_mass,
    lp_norm,
    require_finite_p,
    slabs,
    support_box,
)
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


def _axis_magnitude(v: np.ndarray, axis: int, mode: str, out: np.ndarray) -> None:
    """Write the undivided difference magnitude of ``v`` along ``axis`` into ``out``.

    ``metric_max``: the larger of |v(x) - v(x +- e)|: each cell's backward
    difference |v(x) - v(x - e)| is written into ``out`` and then maxed with
    the next cell's, in place.  ``euclidean_central``: |v(x + e) - v(x - e)|.
    An out-of-grid neighbour is 0.  ``v`` and ``out`` are C-contiguous, so a
    step along ``axis`` is a step of ``s`` cells in the flat array; the flat
    formula is wrong only on the axis's two faces, which are then rewritten
    from the true neighbours.
    """
    s = math.prod(v.shape[axis + 1 :])
    flat, o = v.reshape(-1), out.reshape(-1)
    first, second, before_last, last = _faces(axis)
    if mode == "metric_max":
        np.subtract(flat[s:], flat[:-s], out=o[s:])
        np.abs(o[s:], out=o[s:])
        # the read runs ahead of the write, so numpy needs no copy
        np.maximum(o[s:-s], o[2 * s :], out=o[s:-s])
        np.maximum(np.abs(v[second] - v[first]), np.abs(v[first]), out=out[first])
        np.maximum(np.abs(v[last]), np.abs(v[last] - v[before_last]), out=out[last])
    else:
        np.subtract(flat[2 * s :], flat[: -2 * s], out=o[s:-s])
        np.abs(o[s:-s], out=o[s:-s])
        np.abs(v[second], out=out[first])
        np.abs(v[before_last], out=out[last])


def _faces(axis: int) -> tuple:
    """Indices of the first, second, last but one and last layers along ``axis``, each kept as an axis of length 1."""
    lead = (slice(None),) * axis
    return tuple(lead + (layer,) for layer in (slice(0, 1), slice(1, 2), slice(-2, -1), slice(-1, None)))


def _slab_modulus(sub: np.ndarray, inner: slice, h: float, mode: str, out: np.ndarray) -> None:
    """Write the gradient modulus of the rows ``inner`` of ``sub`` at spacing ``h`` into ``out``.

    ``sub`` is a C-contiguous halo (``slabs``): a slab of rows and the row
    on each side of it that the whole array has, so the slab's cells have
    their true neighbours; the result is that of the whole array, bit for
    bit.  Axis 0 is differenced over the halo and every other axis over the
    slab alone, through one halo-sized component buffer; the squares are
    summed in ``out``, axis by axis, and rooted there.
    """
    step = h if mode == "metric_max" else 2.0 * h
    rows = sub[inner]
    buf = np.empty_like(sub)
    with np.errstate(over="ignore"):  # an overflow reads inf, which ``_checked_modulus`` reports
        _axis_magnitude(sub, 0, mode, buf)
        comp = buf[inner]
        comp /= step
        np.multiply(comp, comp, out=out)
        # later axes reuse the buffer, on the slab's rows only
        comp = buf.reshape(-1)[: rows.size].reshape(rows.shape)
        for ax in range(1, sub.ndim):
            _axis_magnitude(rows, ax, mode, comp)
            comp /= step
            np.multiply(comp, comp, out=comp)
            out += comp
    np.sqrt(out, out=out)


def _modulus_values(v: np.ndarray, h: float, mode: str) -> np.ndarray:
    """The gradient modulus of the cell values ``v`` at spacing ``h``, as a fresh array, slab by slab."""
    modulus = np.empty(v.shape)
    for slab, halo, inner in slabs(v.shape):
        _slab_modulus(np.ascontiguousarray(v[halo]), inner, h, mode, modulus[slab])
    return modulus


def _box_modulus(cells: np.ndarray, box, grid: GridFunction, mode: str) -> np.ndarray:
    """The gradient modulus of the box-shaped array ``cells``, as a fresh array of the box's shape.

    ``box`` is a support box (``support_box``) on ``grid`` of the function
    whose values on it are ``cells``, so the modulus off it is 0 and is not
    computed.  A modulus that a grid function could not hold raises
    ValueError (``_checked_modulus``).
    """
    require_gradient_mode(mode)
    return _checked_modulus(_modulus_values(cells, grid.spacing, mode), box, grid)


def _checked_modulus(modulus: np.ndarray, box, grid: GridFunction) -> np.ndarray:
    """``modulus``, a gradient modulus on the support box ``box`` of ``grid``, if a grid function could hold it.

    One that is not finite (it overflowed) or not 0 on the grid's outer
    layer raises ValueError.
    """
    if not math.isfinite(np.max(modulus)):
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
    building it directly from ``grid`` over every cell.  No power is
    cached: ``powered`` builds it afresh for the check that reads it, so
    the cache holds one copy of f* and one of |grad f|*.  ``is_zero`` is
    the one zero-function test; ``grad``, ``norm`` and ``powered`` reject a
    nonzero f whose gradient, norm or power underflows to nothing.

    ``box`` is f's support box (``support_box``), found once, and every
    kernel that reads f runs on it alone.  ``grad(mode)`` is the modulus
    on the box, an array of its shape; off the box it is 0.  A mass build
    sorts the box's cells and counts the others into the zero atom.  The
    gradient's mass build sorts the cached modulus where it lies and drops
    it from the cache; ``grad(mode)`` builds it anew if it is read later.
    The chain rule works on the box and O'Neil's product on the meet of two
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
            cells, cell_measure = self.grid.values.size, self.grid.cell_measure
            if mode is None:
                return box_to_mass(self.grid.values[self.box], cells, cell_measure)
            self.grad(mode)  # cached, if it is not yet
            # the modulus is >= +0, its own |.|: handed over to the build, which sorts it where it lies
            modulus = [self._cache.pop(("grad", mode)).reshape(-1)]
            return MassFunction(modulus, cell_measure, zeros=cells - modulus[0].size, _sort_in_place=True)

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
        """``powered_profile(self.profile(mode), p)``, built afresh on each call."""
        return powered_profile(self.profile(mode), p)

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
    beta = (1.0 - 1.0 / n) * p + 1.0
    # the steps of (coeff * slopes)**p * power_segment_integral(mids[:-1], mids[1:], beta) with
    # mids = (b[:-1] + b[1:]) / 2 and slopes = -diff(levels) / diff(mids), a block of terms at a time
    terms = np.subtract(levels[1:], levels[:-1])
    np.negative(terms, out=terms)
    for lo in range(0, terms.size, BLOCK_CELLS):
        block = terms[lo : lo + BLOCK_CELLS]
        mids = np.add(b[lo : lo + block.size + 1], b[lo + 1 : lo + block.size + 2])
        mids /= 2.0
        block /= np.diff(mids)  # the slopes, >= 0 by monotonicity
        block *= coeff
        block **= p
        block *= _consecutive_integrals(mids, beta)
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
