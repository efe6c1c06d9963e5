"""Numerical checkers for the symmetrization inequality family.

Each checker returns a CheckReport whose worst_ratio is sup LHS/RHS over the
checked points; "pass" compares that ratio against the inequality's constant
at the configured tolerance.  Scalar sweeps (the binomial-variant lemma, the
chain-rule footprint) run at relative tolerance 1e-10; grid-function checks
default to 5% slack for discretization error.  In fitted mode the recorded
constant is the observed ratio and the check never fails, it only reports.
"""

from __future__ import annotations

import inspect
import math
from functools import lru_cache, wraps

import numpy as np

from .measure import (
    BLOCK_CELLS,
    GridFunction,
    MassFunction,
    check_whole,
    declared_keys,
    require_finite_p,
    slabs,
    support_measure,
)
from .rearrangement import (
    StepProfile,
    _weak_sup,
    decreasing_rearrangement,
    dform_derivative,
    geometric_tgrid,
    maximal_average,
    oscillation_norm,
)
from .gradient import (
    PreparedFunction,
    _checked_modulus,
    _faces,
    _slab_modulus,
    polya_szego_compare,
    prepare,
    require_gradient_mode,
)
from .isoperimetry import ProfileHandle, euclidean_profile, phi_from_profile
from .report import GRID_TOLERANCE, CheckReport, best_constant

__all__ = [
    "check_s_phi_p",
    "check_oscillation_p",
    "check_derivative_p",
    "check_binomial_bounds",
    "check_chain_rule",
    "check_oneil",
    "check_nash",
    "check_nash_classical",
    "check_sobolev",
    "empirical_best_constant",
    "CHECKERS",
    "ARITY",
    "CODE_ONLY",
    "checker_kwargs",
    "entry_keys",
    "binomial_coefficient",
    "power_k",
    "oscillation_constant",
    "derivative_base_constant",
    "derivative_constant",
]

SCALAR_TOLERANCE = 1e-10

# The constant a p-check compares against: the paper's (analytic) or the observed ratio (fitted).
CONSTANT_MODES = ("analytic", "fitted")

# The (a, b) lattice of the scalar sweeps: [0, SWEEP_A_MAX]^2 at SWEEP_POINTS per axis.
SWEEP_A_MAX = 20.0
SWEEP_POINTS = 400

# Geometric pieces per t-grid interval in the derivative form's lower sum.
DERIVATIVE_REFINE = 16

# A step up of the derivative form's integrand from one refined point to the next,
# relative to the lower point, that counts as rounding, not as a rise: where every
# step is below it, the right-end sum exceeds the integral by at most this fraction.
INTEGRAND_RISE_SLACK = 1e-12

# Default t-grid floor, in cells.  Below a handful of cells the rearrangement
# has only one or two atoms and functions with a Lipschitz kink at their max
# show alignment-dependent oscillation spikes (up to ~2.5x the continuum
# value) that no grid refinement removes; eight cells is past every observed
# spike while staying three orders of magnitude below desk-scale supports.
TGRID_FLOOR_CELLS = 8
TGRID_POINTS_PER_DECADE = 64

# Every t-grid artifact depends on the grid shape (and phi) only, not on the
# function, so each is built once per span (t_min, t_max, points_per_decade)
# and shared read-only.  The caches are bounded: a run has one or two shapes,
# and an entry is a few hundred floats, or (points - 1) x refine if refined.
TGRID_CACHE_SIZE = 16


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=TGRID_CACHE_SIZE)
def _tgrid(span: tuple) -> np.ndarray:
    """``geometric_tgrid(t_min, t_max, points_per_decade)`` of the span, built once per span."""
    return _read_only(geometric_tgrid(*span))


@lru_cache(maxsize=TGRID_CACHE_SIZE)
def _phi_on_tgrid(span: tuple, phi: ProfileHandle) -> np.ndarray:
    """phi on the span's t-grid."""
    return _read_only(phi(_tgrid(span)))


@lru_cache(maxsize=TGRID_CACHE_SIZE)
def _refined_tgrid(span: tuple, phi: ProfileHandle, refine: int):
    """Each t-grid interval cut geometrically into ``refine`` pieces, one row per interval.

    Returns the right end s of every piece, phi(s)/s there, and the piece
    widths, each an (intervals, refine) array.
    """
    t = _tgrid(span)
    steps = np.arange(refine + 1)
    growth = (t[1:] / t[:-1]) ** (1.0 / refine)
    sub = t[:-1, None] * growth[:, None] ** steps[None, :]
    right = np.ascontiguousarray(sub[:, 1:])
    return (
        _read_only(right),
        _read_only(phi(right) / right),
        _read_only(np.diff(sub, axis=1)),
    )


def power_k(p: float) -> int:
    """The unique integer k with k < p <= k+1 (so integer p gives p-1)."""
    return int(math.ceil(p)) - 1


def oscillation_constant(p: float) -> float:
    """The oscillation form's constant 2^((k+1)/p - 1)."""
    return 2.0 ** ((power_k(p) + 1) / p - 1.0)


def derivative_base_constant(p: float) -> float:
    """The bare derivative-form constant 2^((k+1)/p), whose verdict is also recorded."""
    return 2.0 ** ((power_k(p) + 1) / p)


def derivative_constant(p: float) -> float:
    """The derivative-form constant the check asserts, p * 2^((k+1)/p)."""
    return p * derivative_base_constant(p)


def binomial_coefficient(p: float, j: int) -> float:
    """Generalized binomial coefficient via the falling factorial."""
    out = 1.0
    for i in range(j):
        out *= (p - i) / (i + 1)
    return out


def _ratio(lhs, rhs):
    """Elementwise LHS/RHS with 0/0 -> 0 and positive/0 -> inf."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    out = np.empty(np.broadcast(lhs, rhs).shape)
    out[...] = lhs
    return _ratio_in_place(out, rhs)


def _ratio_in_place(lhs: np.ndarray, rhs) -> np.ndarray:
    """``_ratio(lhs, rhs)`` written over the float array ``lhs``; rhs broadcasts to it."""
    pos = rhs > 0
    zero = (rhs == 0) & (lhs <= 0)
    np.divide(lhs, rhs, out=lhs, where=pos)
    np.copyto(lhs, np.inf, where=~pos)
    np.copyto(lhs, 0.0, where=zero)
    return lhs


def _check_span(f: GridFunction) -> tuple:
    """The t-grid span of a p-check on f: from the floor's measure to the domain measure."""
    return (TGRID_FLOOR_CELLS * f.cell_measure, f.domain_measure, TGRID_POINTS_PER_DECADE)


def _grid_params(f: GridFunction, p: float, constant_mode: str, gradient_mode: str) -> dict:
    """The params record of a p-check; a p without a k or an unknown constant or gradient mode raises."""
    require_finite_p(p)  # an infinite p has no k
    if constant_mode not in CONSTANT_MODES:
        raise ValueError(f"unknown constant_mode {constant_mode!r}")
    require_gradient_mode(gradient_mode)
    return {
        "p": p,
        "n": f.dim,
        "k": power_k(p),
        "constant_mode": constant_mode,
        "gradient_mode": gradient_mode,
        "grid": f.shape_label,
        "spacing": f.spacing,
    }


def _trace(t, lhs, rhs) -> np.ndarray:
    return np.column_stack((t, lhs, rhs))


def _phi_for(pf: PreparedFunction, phi: ProfileHandle | None) -> ProfileHandle:
    """The given phi, else that of R^n: n is the dimension of f's grid, not a setting."""
    return phi if phi is not None else phi_from_profile(euclidean_profile(pf.grid.dim))


def _finalize(report_id, doc, worst, location, constant, tolerance, trace=None, status="ok"):
    if doc["constant_mode"] == "fitted":
        doc["fitted_constant"] = worst
        constant = worst if worst > 0 else 1.0
    return CheckReport(
        inequality_id=report_id,
        params=doc,
        worst_ratio=worst,
        worst_location=location,
        constant_used=constant,
        tolerance=tolerance,
        trace=trace,
        status=status,
    )


# ---------------------------------------------------------------------------
# support-measure form: ||f||_p <= phi(||f||_0) || |grad f| ||_p
# ---------------------------------------------------------------------------


def check_s_phi_p(
    f: GridFunction | PreparedFunction,
    *,
    p: float = 1.0,
    phi: ProfileHandle | None = None,
    gradient_mode: str = "metric_max",
    tolerance: float = GRID_TOLERANCE,
    constant_mode: str = "analytic",
) -> CheckReport:
    """``phi`` None means that of R^n, n the dimension of f's grid (as in every phi check)."""
    pf = prepare(f)
    doc = _grid_params(pf.grid, p, constant_mode, gradient_mode)
    if pf.is_zero:
        return CheckReport.trivial_pass("s_phi_p", doc, 1.0, tolerance)
    norm_p, grad_norm = pf.norm(p), pf.norm(p, gradient_mode)
    supp = doc["support_measure"] = support_measure(pf.mass())
    ratio = norm_p / (_phi_for(pf, phi)(supp) * grad_norm)
    return _finalize("s_phi_p", doc, float(ratio), supp, 1.0, tolerance)


# ---------------------------------------------------------------------------
# oscillation form, p-powered rearrangements
# ---------------------------------------------------------------------------


def check_oscillation_p(
    f: GridFunction | PreparedFunction,
    *,
    p: float = 1.0,
    phi: ProfileHandle | None = None,
    gradient_mode: str = "metric_max",
    tolerance: float = GRID_TOLERANCE,
    constant_mode: str = "analytic",
    capture_trace: bool = False,
) -> CheckReport:
    pf = prepare(f)
    doc = _grid_params(pf.grid, p, constant_mode, gradient_mode)
    constant = oscillation_constant(p)
    doc["constant_formula"] = "2^((k+1)/p - 1)"
    if pf.is_zero:
        return CheckReport.trivial_pass("oscillation_p", doc, constant, tolerance)
    # f's power is read and dropped before |grad f|'s is built: one power is held at a time
    fp = pf.powered(p)
    span = _check_span(pf.grid)
    t = _tgrid(span)
    phi_t = _phi_on_tgrid(span, _phi_for(pf, phi))
    lhs = (maximal_average(fp, t) ** (1.0 / p) - fp.value(t) ** (1.0 / p)) / phi_t
    del fp
    rhs = maximal_average(pf.powered(p, gradient_mode), t) ** (1.0 / p)
    ratios = _ratio(lhs, rhs)
    j = int(np.argmax(ratios))
    trace = _trace(t, lhs, rhs) if capture_trace else None
    return _finalize(
        "oscillation_p", doc, float(ratios[j]), float(t[j]), constant, tolerance, trace
    )


# ---------------------------------------------------------------------------
# derivative form
# ---------------------------------------------------------------------------


def check_derivative_p(
    f: GridFunction | PreparedFunction,
    *,
    p: float = 1.0,
    phi: ProfileHandle | None = None,
    gradient_mode: str = "metric_max",
    tolerance: float = GRID_TOLERANCE,
    constant_mode: str = "analytic",
    form: str = "integrated",
    capture_trace: bool = False,
) -> CheckReport:
    """Derivative-form check, integrated over grid intervals by default.

    Pointwise differentiation of discrete data amplifies jump noise, so the
    default verifies, for every grid interval [a, b],

        F(a)^(1/p) - F(b)^(1/p) <= C * int_a^b phi(t)/t * G(t)^(1/p) dt

    with F, G the maximal averages of the p-powered rearrangements of f and
    its gradient modulus.  The right side is a right-end sum, a certified
    lower sum where the integrand phi(t)/t * G(t)^(1/p) is non-increasing,
    so passing is conservative.  That holds for a power-law phi of exponent
    <= 1; for any other phi (a table, a steeper power, a plain callable)
    the integrand is checked on the refined grid, and where it rises the
    row is "flagged:non_monotone_integrand", which never passes.  C
    defaults to p * 2^((k+1)/p); the verdict at the bare 2^((k+1)/p) is
    also recorded.
    """
    pf = prepare(f)
    doc = _grid_params(pf.grid, p, constant_mode, gradient_mode)
    if form not in ("integrated", "pointwise"):
        raise ValueError(f"unknown form {form!r}")
    doc["form"] = form
    constant = derivative_constant(p)
    base = doc["base_constant"] = derivative_base_constant(p)
    if pf.is_zero:
        return CheckReport.trivial_pass("derivative_p", doc, constant, tolerance)
    phi = _phi_for(pf, phi)
    # |grad f|'s power is read and dropped before f's is built: one power is held at a time
    gp = pf.powered(p, gradient_mode)
    span = _check_span(pf.grid)
    t = _tgrid(span)
    status = "ok"
    if form == "integrated":
        right, phi_over_t, widths = _refined_tgrid(span, phi, DERIVATIVE_REFINE)
        vals = phi_over_t * maximal_average(gp, right) ** (1.0 / p)
        del gp
        amplitude = maximal_average(pf.powered(p), t) ** (1.0 / p)
        lhs = amplitude[:-1] - amplitude[1:]
        # right-endpoint sums under-estimate the decreasing integrand
        rhs = np.sum(vals * widths, axis=1)
        locs = t[:-1]
        # phi(t)/t and G(t)^(1/p) are both non-increasing for a power law of exponent <= 1
        if not (isinstance(phi, ProfileHandle) and phi.kind == "power_law" and phi.exponent <= 1.0):
            integrand = vals.ravel()  # rows are consecutive intervals, so this runs in s
            if np.any(integrand[1:] > integrand[:-1] * (1.0 + INTEGRAND_RISE_SLACK)):
                status = "flagged:non_monotone_integrand"
    else:
        amplitude = maximal_average(gp, t) ** (1.0 / p)
        del gp
        lhs = dform_derivative(pf.profile(), p, t)
        rhs = _phi_on_tgrid(span, phi) / t * amplitude
        locs = t
    ratios = _ratio(lhs, rhs)
    j = int(np.argmax(ratios))
    worst = float(ratios[j])
    doc["pass_at_base_constant"] = bool(worst <= base * (1.0 + tolerance))
    trace = _trace(locs, lhs, rhs) if capture_trace else None
    return _finalize("derivative_p", doc, worst, float(locs[j]), constant, tolerance, trace, status)


# ---------------------------------------------------------------------------
# scalar sweeps: binomial-variant lemma and chain rule
# ---------------------------------------------------------------------------


def check_binomial_bounds(
    p: float,
    a_max: float = SWEEP_A_MAX,
    grid_points: int = SWEEP_POINTS,
    tolerance: float = SCALAR_TOLERANCE,
) -> CheckReport:
    """Brute-force sweep of the two binomial-variant bounds over a >= b >= 0.

    Part one:  (a-b)^p >= a^p - b^p - sum_{j=1..k} C(p,j) b^(p-j) (a-b)^j.
    Part two:  a^p + b^p + sum <= (c(p) a + b)^p with c(p) = 2^((k+1)/p - 1).

    Violations are measured relative to the scale of the sides, max(1, a^p):
    near a = b the small sides cancel in floating point and a raw LHS/RHS
    quotient would manufacture spurious violations at integer p, where part
    one is an exact identity.  The reported worst_ratio is 1 plus the worst
    signed relative violation, so passing at tolerance tau means no lattice
    point violates either bound by more than tau relative to scale.
    """
    if not 1 < p < math.inf:
        raise ValueError("the sweep needs a finite p > 1")
    if not 0 <= a_max < math.inf:
        raise ValueError("the sweep needs a finite a_max >= 0")
    grid_points = check_whole("binomial_bounds", "grid_points", grid_points, 1)
    k, c_p = power_k(p), oscillation_constant(p)
    axis = np.linspace(0.0, a_max, grid_points)
    # per part, the first worst (violation, a, b) of the lattice points with a >= b, row by row,
    # swept a block of rows at a time; a later block's maximum replaces it only if larger
    worst1 = worst2 = None
    slack1 = 0.0
    block = max(1, BLOCK_CELLS // grid_points)
    for start in range(0, grid_points, block):
        rows, cols = np.nonzero(axis[start : start + block, None] >= axis)
        a, b = axis[rows + start], axis[cols]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, as a ValueError
            d = a - b
            series = np.zeros_like(a)
            for j in range(1, k + 1):
                series += binomial_coefficient(p, j) * b ** (p - j) * d**j
            ap, bp = a**p, b**p
            lhs1 = ap - bp - series
            rhs1 = d**p
            lhs2 = ap + bp + series
            rhs2 = (c_p * a + b) ** p
            scale = np.maximum(1.0, ap)
            v1 = (lhs1 - rhs1) / scale
            v2 = (lhs2 - rhs2) / scale
            slack = float(np.max(np.abs(rhs1 - lhs1)))
        i1, i2 = int(np.argmax(v1)), int(np.argmax(v2))  # a NaN is the first maximum
        if not all(math.isfinite(x) for x in (v1[i1], v2[i2], slack)):
            raise ValueError(f"the binomial sweep overflows a float at p = {p:g}, a_max = {a_max:g}: malformed input")
        if worst1 is None or v1[i1] > worst1[0]:
            worst1 = (float(v1[i1]), float(a[i1]), float(b[i1]))
        if worst2 is None or v2[i2] > worst2[0]:
            worst2 = (float(v2[i2]), float(a[i2]), float(b[i2]))
        slack1 = max(slack1, slack)
    params_doc = {
        "p": p,
        "k": k,
        "c_p": c_p,
        "a_max": a_max,
        "grid_points": grid_points,
        "worst_violation_part1": worst1[0],
        "worst_violation_part2": worst2[0],
        "worst_ab_part1": list(worst1[1:]),
        "worst_ab_part2": list(worst2[1:]),
        "max_abs_slack_part1": slack1,
    }
    worst, loc = (worst1[0], worst1[1]) if worst1[0] >= worst2[0] else (worst2[0], worst2[1])
    return CheckReport(
        inequality_id="binomial_bounds",
        params=params_doc,
        worst_ratio=1.0 + worst,
        worst_location=loc,
        constant_used=1.0,
        tolerance=tolerance,
    )


def _local_stencil_max(values: np.ndarray) -> np.ndarray:
    """Each cell's max over itself and its axis neighbours, as a fresh array; an out-of-array neighbour is 0.

    Per axis, the neighbour at +1 comes first, then the one at -1.  As in
    the gradient's stencil, a neighbour is a flat shift of the C-ordered
    arrays, which reads a wrong cell only on the axis's faces: each face is
    kept before its shift and then maxed with its out-of-array neighbour
    instead.  Every operand is then a flat slice, so no ufunc copies one.
    """
    values = np.ascontiguousarray(values)  # the flat shifts read C-ordered cells
    out = values.copy()
    flat, o = values.reshape(-1), out.reshape(-1)
    for ax in range(values.ndim):
        s = math.prod(values.shape[ax + 1 :])
        first, _, _, last = _faces(ax)
        face = out[last].copy()
        np.maximum(o[:-s], flat[s:], out=o[:-s])
        np.maximum(face, 0.0, out=out[last])
        face = out[first].copy()
        np.maximum(o[s:], flat[:-s], out=o[s:])
        np.maximum(face, 0.0, out=out[first])
    return out


@lru_cache
def _scalar_chain_sweep(r: float) -> tuple[float, float, float]:
    """Worst |a^r - b^r| / (r (a^(r-1) + b^(r-1)) |a-b|) over the (a, b) lattice.

    Returns (worst ratio, a, b); it depends on r only, so it is computed once
    per r, not once per grid function.
    """
    axis = np.linspace(0.0, SWEEP_A_MAX, SWEEP_POINTS)
    a, b = axis[:, None], axis
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, as a ValueError
        scalar_lhs = np.abs(a**r - b**r)
        scalar_rhs = r * (a ** (r - 1.0) + b ** (r - 1.0)) * np.abs(a - b)
        scalar_ratios = _ratio_in_place(scalar_lhs, scalar_rhs)
    i, j = divmod(int(np.argmax(scalar_ratios)), SWEEP_POINTS)  # a NaN is the first maximum
    if not math.isfinite(scalar_ratios[i, j]):
        raise ValueError(f"the chain-rule sweep overflows a float at r = {r:g}: malformed input")
    return float(scalar_ratios[i, j]), float(axis[i]), float(axis[j])


def check_chain_rule(
    f: GridFunction | PreparedFunction,
    *,
    r: float = 2.0,
    gradient_mode: str = "metric_max",
    tolerance: float = SCALAR_TOLERANCE,
) -> CheckReport:
    """Discrete chain-rule bound |grad f^r| <= 2r fhat^(r-1) |grad f|.

    fhat is the stencil-local maximum of f: the one-sided quotient between two
    cells x, y obeys |f(x)^r - f(y)^r| <= 2r max(f(x), f(y))^(r-1) |f(x)-f(y)|
    by the scalar bound |a^r - b^r| <= r (a^(r-1) + b^(r-1)) |a-b|, which is
    also swept directly over the (a, b) lattice.
    """
    if not 1 < r < math.inf:
        raise ValueError("chain rule sweep needs a finite r > 1")
    pf = prepare(f)
    grid, box = pf.grid, pf.box
    # off f's support box both sides are 0, and so is every ratio; every neighbour off it is 0
    cells = grid.values[box]
    if np.min(cells) < 0:
        raise ValueError("chain rule check expects a nonnegative function")
    # |grad f^r|, from a fresh f^r on each slab's halo: f is never written.  An f^r past the
    # float range is named before the mode is checked, and the modulus after
    lhs = np.empty(cells.shape)
    for slab, halo, inner in slabs(cells.shape):
        with np.errstate(over="ignore"):  # an overflow is reported below, as a ValueError
            powered = cells[halo] ** r
        if not np.all(np.isfinite(powered)):
            raise ValueError(f"f to the power {r:g} overflows a float: malformed input")
        _slab_modulus(powered, inner, grid.spacing, gradient_mode, lhs[slab])
        del powered  # before the next slab's, and before |grad f| is built
    require_gradient_mode(gradient_mode)
    _checked_modulus(lhs, box, grid)
    grad = pf.grad(gradient_mode)
    # per slab, rhs = (2r * fhat^(r-1)) * |grad f|, built in place in that order, and the ratios
    # written over lhs; a later slab's maximum replaces the first one only if it is larger
    grid_worst, g_idx = -math.inf, 0
    row_cells = cells.size // cells.shape[0]
    for slab, halo, inner in slabs(cells.shape):
        rhs = _local_stencil_max(cells[halo])[inner]
        rhs **= r - 1.0
        rhs *= 2.0 * r
        rhs *= grad[slab]
        ratios = _ratio_in_place(lhs[slab], rhs)
        j = int(np.argmax(ratios))
        if ratios.flat[j] > grid_worst:
            grid_worst, g_idx = float(ratios.flat[j]), slab.start * row_cells + j
        del rhs  # before the next slab's
    # the first maximum's flat index on the whole grid, which is cell 0 if every ratio is 0
    if grid_worst == 0:
        g_idx = 0
    else:
        cell = [i + s.start for i, s in zip(np.unravel_index(g_idx, cells.shape), box)]
        g_idx = int(np.ravel_multi_index(cell, grid.extents))
    scalar_worst, scalar_a, scalar_b = _scalar_chain_sweep(r)

    params_doc = {
        "r": r,
        "gradient_mode": gradient_mode,
        "grid": grid.shape_label,
        "grid_worst_ratio": grid_worst,
        "scalar_worst_ratio": scalar_worst,
        "scalar_worst_ab": [scalar_a, scalar_b],
    }
    worst = max(grid_worst, scalar_worst)
    location = float(g_idx) if grid_worst >= scalar_worst else scalar_a
    return CheckReport(
        inequality_id="chain_rule",
        params=params_doc,
        worst_ratio=worst,
        worst_location=location,
        constant_used=1.0,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# product rearrangement bound
# ---------------------------------------------------------------------------


def _product_average(sf: StepProfile, sg: StepProfile, t: np.ndarray) -> np.ndarray:
    """(1/t) int_0^t f*(s) g*(s) ds at each t > 0, summed over the steps of the profile with fewer.

    With a that profile and B the other's prefix integral, the integral up to
    a's breakpoint t_k is sum_{i<k} a_i (B(t_{i+1}) - B(t_i)), and at t in
    a's step k the partial a_k (B(t) - B(t_k)) is added; a is 0 past its
    extent, so t is clamped there.  B is read at a's breakpoints and at t
    only: O(min(n, m) log max(n, m)) time for n and m steps.  As a is
    non-increasing, a_i B(t_{i+1}) is at most the integral up to t_{i+1},
    so the sum is off by a few (n + m) ulps of the integral at most, the
    order of a running sum over the n + m merged steps.

    a's breakpoints are read ``BLOCK_CELLS`` at a time, the running sum
    carried from block to block, so the memory is that of one block: a
    running sum is a sequential scan, so it is the whole array's bit for
    bit.  Each block's breakpoints are searched for among b's between the
    previous block's last index and the block's own last one.
    """
    a, b = (sf, sg) if sf.levels.size <= sg.levels.size else (sg, sf)
    t_in = np.minimum(t, a.total_measure)
    out = b.prefix_integral(t_in)  # rejects a negative t
    k = np.searchsorted(a.breakpoints, t_in, side="right")
    k -= 1
    np.minimum(k, a.levels.size - 1, out=k)
    # at each t: B at a's breakpoint t_k, and the integral up to t_k
    b_at_k, integral_at_k = np.empty(t.shape), np.empty(t.shape)
    last_b, running, found = 0.0, 0.0, 0
    for lo in range(0, a.breakpoints.size, BLOCK_CELLS):
        keys = a.breakpoints[lo : lo + BLOCK_CELLS]
        end = int(np.searchsorted(b.breakpoints, keys[-1], side="right"))
        window = np.searchsorted(b.breakpoints[found:end], keys, side="right")
        window += found
        found = end
        b_keys = b._prefix_at(keys, window)
        # [a_i (B(t_{i+1}) - B(t_i))...] over the block, B(t_0) = 0 and the sum up to t_0 carried in
        steps = np.empty(keys.size)
        steps[0] = b_keys[0] - last_b
        np.subtract(b_keys[1:], b_keys[:-1], out=steps[1:])
        if lo:
            steps *= a.levels[lo - 1 : lo - 1 + keys.size]
        else:
            steps[0] = 0.0
            steps[1:] *= a.levels[: keys.size - 1]
        steps[0] += running
        np.cumsum(steps, out=steps)
        here = (k >= lo) & (k < lo + keys.size)
        b_at_k[here] = b_keys[k[here] - lo]
        integral_at_k[here] = steps[k[here] - lo]
        last_b, running = b_keys[-1], steps[-1]
    out -= b_at_k
    out *= a.levels[k]
    out += integral_at_k
    out /= t
    return out


def check_oneil(
    f,
    g,
    masses=None,
    t_grid: np.ndarray | None = None,
    tolerance: float = SCALAR_TOLERANCE,
) -> CheckReport:
    """Product bound (fg)**(t) <= (1/t) int_0^t f*(s) g*(s) ds.

    f and g must live on the same cells: pass two grid functions (plain or
    prepared) on identical grids, or two flat value arrays with a shared
    ``masses`` array, or a scalar mass that every cell has.  The product is
    formed cellwise before any rearrangement; prepared functions contribute
    their cached profiles, so only the product is sorted.  For grid
    functions it is formed on the meet of their support boxes only: off it
    one factor is 0, and those cells join the zero atom by count.  The
    ``atoms`` param is the cell count all the same.  The default t-grid
    ends at the domain measure for grid functions (one grid per grid shape),
    and at the summed masses for value arrays, 16 points per decade.
    """
    if t_grid is not None:
        t_grid = np.asarray(t_grid, dtype=float)
        if not (t_grid.ndim == 1 and t_grid.size and np.all(t_grid > 0) and np.all(t_grid < math.inf)):
            raise ValueError("t_grid must be a non-empty 1-d array of finite values > 0")
    grids = (GridFunction, PreparedFunction)
    grid_pair = isinstance(f, grids) and isinstance(g, grids)
    if grid_pair:
        if masses is not None:
            raise ValueError("grid functions carry their own cell masses")
        pf, pg = prepare(f), prepare(g)
        gf, gg = pf.grid, pg.grid
        if gf.extents != gg.extents or gf.spacing != gg.spacing:
            raise ValueError("grid functions must share extents and spacing")
        prof_f = pf.profile()
        # the meet of the two boxes, empty along an axis where they do not meet
        starts = [max(a.start, b.start) for a, b in zip(pf.box, pg.box)]
        box = tuple(slice(lo, max(lo, min(a.stop, b.stop))) for lo, a, b in zip(starts, pf.box, pg.box))
        # |f g| = |f| |g| bit for bit; like |f| in box_to_mass, the product is handed over and sorted where it lies
        product = [np.multiply(gf.values[box], gg.values[box]).reshape(-1)]
        np.abs(product[0], out=product[0])
        cell_masses, atoms = gf.cell_measure, gf.values.size
        if t_grid is None:
            t_grid = _tgrid((gf.domain_measure * 1e-5, gf.domain_measure, 16))
    else:
        vf = np.abs(np.asarray(f, dtype=float).ravel())
        vg = np.abs(np.asarray(g, dtype=float).ravel())
        if masses is None:
            raise ValueError("value arrays need an explicit masses array or scalar")
        cell_masses = np.asarray(masses, dtype=float)
        if cell_masses.ndim:  # a scalar is every cell's mass, as in MassFunction
            cell_masses = cell_masses.ravel()
        if vf.shape != vg.shape or (cell_masses.ndim and vf.shape != cell_masses.shape):
            raise ValueError("mismatched domains: f, g and masses must align")
        prof_f = decreasing_rearrangement(MassFunction(vf, cell_masses))
        product = [vf * vg]
        atoms = vf.size

    # the product's profile is built and read before g's: at most one factor profile is held with it
    off_box = atoms - product[0].size
    prof_fg = decreasing_rearrangement(MassFunction(product, cell_masses, zeros=off_box, _sort_in_place=True))
    if t_grid is None:  # value arrays: the grid ends at the product's summed masses
        t_grid = _tgrid((prof_fg.total_measure * 1e-5, prof_fg.total_measure, 16))
    lhs = maximal_average(prof_fg, t_grid)
    del prof_fg
    prof_g = pg.profile() if grid_pair else decreasing_rearrangement(MassFunction(vg, cell_masses))
    rhs = _product_average(prof_f, prof_g, t_grid)
    ratios = _ratio(lhs, rhs)
    j = int(np.argmax(ratios))
    return CheckReport(
        inequality_id="oneil",
        params={"t_points": int(t_grid.size), "atoms": int(atoms)},
        worst_ratio=float(ratios[j]),
        worst_location=float(t_grid[j]),
        constant_used=1.0,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Nash-form bound
# ---------------------------------------------------------------------------


def _nash_setup(f, p: float, c1: float, c2: float, classical: bool, gradient_mode: str):
    """f prepared, its params record, and its ||f||_p, ||f||_1 and || |grad f| ||_p."""
    if p <= 1:
        raise ValueError("the Nash form needs p > 1")
    require_finite_p(p)
    for name, c in (("c1", c1), ("c2", c2)):
        if not 0 < c < math.inf:
            raise ValueError(f"the Nash form needs a finite {name} > 0")
    require_gradient_mode(gradient_mode)
    pf = prepare(f)
    if pf.is_zero:
        raise ValueError("||f||_p must be positive")
    norms = pf.norm(p), pf.norm(1.0), pf.norm(p, gradient_mode)
    doc = {
        "p": p,
        "c1": c1,
        "c2": c2,
        "classical": classical,
        "gradient_mode": gradient_mode,
        "grid": pf.grid.shape_label,
    }
    return pf, doc, norms


def _nash_report(report_id: str, doc: dict, ratio, tolerance: float) -> CheckReport:
    """The observed ratio is the constant used; the fitted constant is ratio * c1."""
    doc["fitted_constant"] = float(ratio) * doc["c1"]
    return CheckReport(
        inequality_id=report_id,
        params=doc,
        worst_ratio=float(ratio),
        worst_location=None,
        constant_used=float(ratio),
        tolerance=tolerance,
    )


def check_nash(
    f: GridFunction | PreparedFunction,
    *,
    p: float = 2.0,
    phi: ProfileHandle | None = None,
    c1: float = 1.0,
    c2: float = 1.0,
    gradient_mode: str = "metric_max",
    tolerance: float = GRID_TOLERANCE,
) -> CheckReport:
    """Nash-form bound ||f||_p <= c1 phi(c2 (||f||_1/||f||_p)^(p/(p-1))) || |grad f| ||_p.

    ``phi`` None means that of R^n.  The ratio is invariant under f -> lambda f.
    """
    pf, doc, (norm_p, norm_1, grad_norm) = _nash_setup(f, p, c1, c2, False, gradient_mode)
    arg = c2 * (norm_1 / norm_p) ** (p / (p - 1.0))
    ratio = norm_p / (c1 * _phi_for(pf, phi)(arg) * grad_norm)
    return _nash_report("nash", doc, ratio, tolerance)


def check_nash_classical(
    f: GridFunction | PreparedFunction,
    *,
    gradient_mode: str = "metric_max",
    tolerance: float = GRID_TOLERANCE,
) -> CheckReport:
    """The Nash form at p = 2 with phi(t) = t^(1/n), n the dimension of f's grid.

    ||f||_2^(1+2/n) <= c ||f||_1^(2/n) || |grad f| ||_2 is evaluated and the
    fitted c recorded.  The ratio is invariant under f -> lambda f.
    """
    pf, doc, (norm_p, norm_1, grad_norm) = _nash_setup(f, 2.0, 1.0, 1.0, True, gradient_mode)
    n = doc["n"] = pf.grid.dim
    ratio = norm_p ** (1.0 + 2.0 / n) / (norm_1 ** (2.0 / n) * grad_norm)
    return _nash_report("nash_classical", doc, ratio, tolerance)


# ---------------------------------------------------------------------------
# Sobolev family
# ---------------------------------------------------------------------------


def check_sobolev(
    f: GridFunction | PreparedFunction,
    mode: str,
    *,
    p: float | None = None,
    gradient_mode: str = "metric_max",
    tolerance: float = GRID_TOLERANCE,
) -> CheckReport:
    """Sobolev-family bounds against the gradient L^p norm, n the dimension of f's grid.

    * ``weak`` (1 <= p < n): sup_t f*(t) t^(1/pbar) with 1/pbar = 1/p - 1/n.
    * ``strong`` (1 <= p < n): { int ((f**-f*) t^(1/pbar))^p dt/t }^(1/p).
    * ``exp`` (p = n): { int (f**-f*)^n dt/t }^(1/n).
    * ``morrey`` (p > n, unit-measure domain): f**(0+) - f**(1), against
      (1/n - 1/p)^(-1) || |grad f| ||_p, the one constant asserted; the
      other modes use the observed ratio.

    ``p`` None means n for ``exp`` and 1 otherwise.  Oscillation integrals
    run over (0, measure(domain)]; the fitted constant is always recorded.
    """
    pf = prepare(f)
    grid = pf.grid
    n = grid.dim
    if p is None:
        p = float(n) if mode == "exp" else 1.0
    if mode not in ("weak", "strong", "exp", "morrey"):
        raise ValueError(f"unknown mode {mode!r}")
    require_gradient_mode(gradient_mode)
    if mode in ("weak", "strong") and not (1 <= p < n):
        raise ValueError("weak/strong modes need 1 <= p < n")
    if mode == "exp" and p != n:
        raise ValueError("exp mode needs p = n")
    if mode == "morrey":
        if p <= n:
            raise ValueError("morrey mode needs p > n")
        if abs(grid.domain_measure - 1.0) > 1e-9:
            raise ValueError("morrey mode is stated on a unit-measure domain")

    doc = {
        "mode": mode,
        "p": p,
        "n": n,
        "gradient_mode": gradient_mode,
        "grid": grid.shape_label,
    }
    if pf.is_zero:
        return CheckReport.trivial_pass(f"sobolev_{mode}", doc, 1.0, tolerance)
    profile = pf.profile()
    grad_norm = pf.norm(p, gradient_mode)

    location = None
    base_constant = 1.0
    if mode in ("weak", "strong"):
        inv_pbar = doc["inv_pbar"] = 1.0 / p - 1.0 / n
    if mode == "weak":
        lhs, j = _weak_sup(profile, inv_pbar)
        location = float(profile.breakpoints[j + 1])
    elif mode == "strong":
        lhs = oscillation_norm(profile, p, inv_pbar)
    elif mode == "exp":
        lhs = oscillation_norm(profile, float(n))
    else:
        lhs = profile.max_level - maximal_average(profile, 1.0)
        base_constant = 1.0 / (1.0 / n - 1.0 / p)
        doc["ess_sup"] = profile.max_level
        doc["mean"] = maximal_average(profile, 1.0)
    if lhs == math.inf:  # f's integrals over (0, M] are finite sums, so an infinite one overflowed
        raise ValueError(f"the left side of sobolev_{mode} overflows a float: malformed input")

    ratio = float(_ratio(lhs, grad_norm))
    doc["fitted_constant"] = ratio / base_constant
    return CheckReport(
        inequality_id=f"sobolev_{mode}",
        params=doc,
        worst_ratio=ratio,
        worst_location=location,
        constant_used=base_constant if mode == "morrey" else ratio,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# registry and corpus suprema
# ---------------------------------------------------------------------------


def _sobolev_mode(mode: str):
    """``check_sobolev`` with ``mode`` fixed; its keys are check_sobolev's, ``mode`` aside."""

    def check(f, **kwargs):
        return check_sobolev(f, mode, **kwargs)

    params = inspect.signature(check_sobolev).parameters.values()
    check.__signature__ = inspect.Signature([param for param in params if param.name != "mode"])
    return check


@wraps(polya_szego_compare)
def _run_polya_szego(f, **kwargs):
    # a call through this module's name, which a tracer can rebind; CHECKERS would hide it
    return polya_szego_compare(f, **kwargs)


# Every check by id.  A checker's parameters after its function arguments are
# the keys a suite entry or the command line may set; nothing else declares them.
CHECKERS = {
    "s_phi_p": check_s_phi_p,
    "oscillation_p": check_oscillation_p,
    "derivative_p": check_derivative_p,
    "chain_rule": check_chain_rule,
    "nash": check_nash,
    "nash_classical": check_nash_classical,
    "sobolev_weak": _sobolev_mode("weak"),
    "sobolev_strong": _sobolev_mode("strong"),
    "sobolev_exp": _sobolev_mode("exp"),
    "sobolev_morrey": _sobolev_mode("morrey"),
    "polya_szego": _run_polya_szego,
    "binomial_bounds": check_binomial_bounds,
    "oneil": check_oneil,
}

# Function arguments per check: the corpus-free sweep, the pair check, else 1.
ARITY = {"binomial_bounds": 0, "oneil": 2}

# Checker keys only code can set: a JSON config cannot give a phi handle, the
# suite's detail flag sets capture_trace, and grid functions carry their masses.
CODE_ONLY = frozenset({"phi", "capture_trace", "masses"})


def entry_keys(name: str, entry: dict, arity: int | None = None, config: bool = False) -> tuple[list, dict]:
    """The keys an entry for ``CHECKERS[name]`` may set, and its own keys (``"id"`` aside).

    An unknown id or key, or an id taking other than ``arity`` functions,
    raises ValueError.  A ``config`` entry (JSON) cannot set ``CODE_ONLY`` keys.
    """
    takes = ARITY.get(name, 1) if isinstance(name, str) else 1  # a non-string id is unknown (below)
    if arity is not None and takes != arity:
        raise ValueError(f"{name!r} takes {takes} functions, not {arity}")
    return declared_keys(CHECKERS, name, entry, takes, "id", CODE_ONLY if config else ())


def checker_kwargs(name: str, entry: dict, context: dict, arity: int | None = None) -> dict:
    """Keyword arguments for ``CHECKERS[name]``: the entry's keys over the context's.

    ``entry_keys`` checks the entry, ``CODE_ONLY`` keys allowed.  The context's
    run-wide defaults (gradient_mode, tolerance, ...) are passed where the
    checker declares them and they are not None; the checker checks values.
    """
    accepted, keys = entry_keys(name, entry, arity)
    defaults = {k: v for k, v in context.items() if k in accepted and v is not None}
    return {**defaults, **keys}


def empirical_best_constant(inequality_id: str, corpus, params: dict | None = None) -> float:
    """``best_constant`` of the inequality's reports over the corpus."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    if inequality_id not in CHECKERS:
        raise KeyError(f"unknown inequality id {inequality_id!r}")
    kwargs = checker_kwargs(inequality_id, params or {}, {}, arity=1)
    return best_constant([CHECKERS[inequality_id](f, **kwargs) for f in corpus])
