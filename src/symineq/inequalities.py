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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measure import GridFunction, MassFunction, support_measure
from .rearrangement import (
    StepProfile,
    decreasing_rearrangement,
    dform_derivative,
    geometric_tgrid,
    maximal_average,
    oscillation_norm,
)
from .gradient import (
    PreparedFunction,
    _axis_slices,
    metric_gradient_modulus,
    polya_szego_compare,
    prepare,
)
from .isoperimetry import ProfileHandle, euclidean_profile, phi_from_profile
from .report import CheckReport, best_constant

__all__ = [
    "InequalityParams",
    "TGridSpec",
    "check_s_phi_p",
    "check_oscillation_p",
    "check_derivative_p",
    "check_binomial_bounds",
    "check_chain_rule",
    "check_oneil",
    "check_nash",
    "check_sobolev",
    "empirical_best_constant",
    "CHECKERS",
    "ARITY",
    "CODE_ONLY",
    "checker_kwargs",
    "entry_keys",
    "binomial_coefficient",
]

SCALAR_TOLERANCE = 1e-10
GRID_TOLERANCE = 0.05

# Geometric pieces per t-grid interval in the derivative form's lower sum.
DERIVATIVE_REFINE = 16

# Default t-grid floor, in cells.  Below a handful of cells the rearrangement
# has only one or two atoms and functions with a Lipschitz kink at their max
# show alignment-dependent oscillation spikes (up to ~2.5x the continuum
# value) that no grid refinement removes; eight cells is past every observed
# spike while staying three orders of magnitude below desk-scale supports.
TGRID_FLOOR_CELLS = 8


@dataclass(frozen=True)
class TGridSpec:
    """Geometric evaluation grid: (t_min, t_max, points per decade)."""

    t_min: float
    t_max: float
    points_per_decade: int = 64

    def points(self) -> np.ndarray:
        return geometric_tgrid(self.t_min, self.t_max, self.points_per_decade)


# Every t-grid artifact depends on the grid shape (and phi) only, not on the
# function, so each is built once per key and shared read-only.  The caches
# are bounded: a run has one or two shapes, and an entry is a few hundred
# floats, or (points - 1) x refine for a refined grid.
TGRID_CACHE_SIZE = 16


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=TGRID_CACHE_SIZE)
def _tgrid(spec: TGridSpec) -> np.ndarray:
    """``spec.points()``, built once per spec."""
    return _read_only(spec.points())


@lru_cache(maxsize=TGRID_CACHE_SIZE)
def _phi_on_tgrid(spec: TGridSpec, phi: ProfileHandle) -> np.ndarray:
    """phi on the spec's t-grid."""
    return _read_only(phi(_tgrid(spec)))


@lru_cache(maxsize=TGRID_CACHE_SIZE)
def _refined_tgrid(spec: TGridSpec, phi: ProfileHandle, refine: int):
    """Each t-grid interval cut geometrically into ``refine`` pieces, one row per interval.

    Returns the right end s of every piece, phi(s)/s there, and the piece
    widths, each an (intervals, refine) array.
    """
    t = _tgrid(spec)
    steps = np.arange(refine + 1)
    growth = (t[1:] / t[:-1]) ** (1.0 / refine)
    sub = t[:-1, None] * growth[:, None] ** steps[None, :]
    right = np.ascontiguousarray(sub[:, 1:])
    return (
        _read_only(right),
        _read_only(phi(right) / right),
        _read_only(np.diff(sub, axis=1)),
    )


@dataclass(frozen=True)
class InequalityParams:
    """Shared parameters of the p-dependent checks.

    ``k`` is the unique integer with k < p <= k+1 (so integer p gives p-1);
    the oscillation constant is 2^((k+1)/p - 1).  The derivative-form check
    asserts p * 2^((k+1)/p) and also records the verdict at the bare
    2^((k+1)/p).
    """

    p: float = 1.0
    constant_mode: str = "analytic"  # or "fitted"
    tolerance: float = GRID_TOLERANCE
    t_grid: TGridSpec | None = None

    def __post_init__(self):
        if not 1 <= self.p < math.inf:  # an infinite p has no k; a NaN p fails here too
            raise ValueError("p must be finite and >= 1")
        if self.constant_mode not in ("analytic", "fitted"):
            raise ValueError(f"unknown constant_mode {self.constant_mode!r}")
        if not (self.k < self.p <= self.k + 1):
            raise AssertionError("k derivation broken")

    @property
    def k(self) -> int:
        return int(math.ceil(self.p)) - 1

    @property
    def oscillation_constant(self) -> float:
        return 2.0 ** ((self.k + 1) / self.p - 1.0)

    @property
    def derivative_base_constant(self) -> float:
        return 2.0 ** ((self.k + 1) / self.p)

    @property
    def derivative_constant(self) -> float:
        return self.p * self.derivative_base_constant


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
    out = np.full(np.broadcast(lhs, rhs).shape, np.inf)
    zero = (rhs == 0) & (lhs <= 0)
    pos = rhs > 0
    out[zero] = 0.0
    np.divide(lhs, rhs, out=out, where=pos)
    return out


def _tgrid_spec(f: GridFunction, params: InequalityParams) -> TGridSpec:
    return params.t_grid or TGridSpec(TGRID_FLOOR_CELLS * f.cell_measure, f.domain_measure)


def _grid_params(f: GridFunction, params: InequalityParams, gradient_mode: str) -> dict:
    return {
        "p": params.p,
        "n": f.dim,
        "k": params.k,
        "constant_mode": params.constant_mode,
        "gradient_mode": gradient_mode,
        "grid": f.shape_label,
        "spacing": f.spacing,
    }


def _trace(t, lhs, rhs) -> np.ndarray:
    return np.column_stack((t, lhs, rhs))


def _phi_for(pf: PreparedFunction, phi: ProfileHandle | None) -> ProfileHandle:
    """The given phi, else that of R^n: n is the dimension of f's grid, not a setting."""
    return phi if phi is not None else phi_from_profile(euclidean_profile(pf.grid.dim))


def _finalize(report_id, params_dict, worst, location, constant, params, trace=None):
    if params.constant_mode == "fitted":
        params_dict["fitted_constant"] = worst
        constant = worst if worst > 0 else 1.0
    return CheckReport(
        inequality_id=report_id,
        params=params_dict,
        worst_ratio=worst,
        worst_location=location,
        constant_used=constant,
        tolerance=params.tolerance,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# support-measure form: ||f||_p <= phi(||f||_0) || |grad f| ||_p
# ---------------------------------------------------------------------------


def check_s_phi_p(
    f: GridFunction | PreparedFunction,
    phi: ProfileHandle | None,
    params: InequalityParams,
    gradient_mode: str = "metric_max",
) -> CheckReport:
    """``phi`` None means that of R^n, n the dimension of f's grid (as in every phi check)."""
    p = params.p
    pf = prepare(f)
    doc = _grid_params(pf.grid, params, gradient_mode)
    if pf.is_zero:
        return CheckReport.trivial_pass("s_phi_p", doc, 1.0, params.tolerance)
    norm_p, grad_norm = pf.norm(p), pf.norm(p, gradient_mode)
    supp = doc["support_measure"] = support_measure(pf.mass)
    ratio = norm_p / (_phi_for(pf, phi)(supp) * grad_norm)
    return _finalize("s_phi_p", doc, float(ratio), supp, 1.0, params)


# ---------------------------------------------------------------------------
# oscillation form, p-powered rearrangements
# ---------------------------------------------------------------------------


def check_oscillation_p(
    f: GridFunction | PreparedFunction,
    phi: ProfileHandle | None,
    params: InequalityParams,
    gradient_mode: str = "metric_max",
    capture_trace: bool = False,
) -> CheckReport:
    p = params.p
    pf = prepare(f)
    doc = _grid_params(pf.grid, params, gradient_mode)
    constant = params.oscillation_constant
    doc["constant_formula"] = "2^((k+1)/p - 1)"
    if pf.is_zero:
        return CheckReport.trivial_pass("oscillation_p", doc, constant, params.tolerance)
    fp = pf.powered(pf.profile, p)
    gp = pf.powered(pf.grad_profile(gradient_mode), p)
    spec = _tgrid_spec(pf.grid, params)
    t = _tgrid(spec)
    phi_t = _phi_on_tgrid(spec, _phi_for(pf, phi))
    lhs = (maximal_average(fp, t) ** (1.0 / p) - fp.value(t) ** (1.0 / p)) / phi_t
    rhs = maximal_average(gp, t) ** (1.0 / p)
    ratios = _ratio(lhs, rhs)
    j = int(np.argmax(ratios))
    trace = _trace(t, lhs, rhs) if capture_trace else None
    return _finalize(
        "oscillation_p", doc, float(ratios[j]), float(t[j]), constant, params, trace
    )


# ---------------------------------------------------------------------------
# derivative form
# ---------------------------------------------------------------------------


def check_derivative_p(
    f: GridFunction | PreparedFunction,
    phi: ProfileHandle | None,
    params: InequalityParams,
    gradient_mode: str = "metric_max",
    form: str = "integrated",
    capture_trace: bool = False,
) -> CheckReport:
    """Derivative-form check, integrated over grid intervals by default.

    Pointwise differentiation of discrete data amplifies jump noise, so the
    default verifies, for every grid interval [a, b],

        F(a)^(1/p) - F(b)^(1/p) <= C * int_a^b phi(t)/t * G(t)^(1/p) dt

    with F, G the maximal averages of the p-powered rearrangements of f and
    its gradient modulus.  The right side is a certified lower sum (the
    integrand is non-increasing), so passing is conservative.  C defaults to
    p * 2^((k+1)/p); the verdict at the bare 2^((k+1)/p) is also recorded.
    """
    if form not in ("integrated", "pointwise"):
        raise ValueError(f"unknown form {form!r}")
    p = params.p
    pf = prepare(f)
    doc = _grid_params(pf.grid, params, gradient_mode)
    doc["form"] = form
    constant = params.derivative_constant
    base = params.derivative_base_constant
    doc["base_constant"] = base
    if pf.is_zero:
        return CheckReport.trivial_pass("derivative_p", doc, constant, params.tolerance)
    phi = _phi_for(pf, phi)
    gp = pf.powered(pf.grad_profile(gradient_mode), p)
    spec = _tgrid_spec(pf.grid, params)
    t = _tgrid(spec)
    if form == "integrated":
        amplitude = maximal_average(pf.powered(pf.profile, p), t) ** (1.0 / p)
        lhs = amplitude[:-1] - amplitude[1:]
        right, phi_over_t, widths = _refined_tgrid(spec, phi, DERIVATIVE_REFINE)
        vals = phi_over_t * maximal_average(gp, right) ** (1.0 / p)
        # right-endpoint sums under-estimate the decreasing integrand
        rhs = np.sum(vals * widths, axis=1)
        locs = t[:-1]
    else:
        lhs = dform_derivative(pf.profile, p, t)
        rhs = _phi_on_tgrid(spec, phi) / t * maximal_average(gp, t) ** (1.0 / p)
        locs = t
    ratios = _ratio(lhs, rhs)
    j = int(np.argmax(ratios))
    worst = float(ratios[j])
    doc["pass_at_base_constant"] = bool(worst <= base * (1.0 + params.tolerance))
    trace = _trace(locs, lhs, rhs) if capture_trace else None
    return _finalize("derivative_p", doc, worst, float(locs[j]), constant, params, trace)


# ---------------------------------------------------------------------------
# scalar sweeps: binomial-variant lemma and chain rule
# ---------------------------------------------------------------------------


def check_binomial_bounds(
    p: float,
    a_max: float = 20.0,
    grid_points: int = 400,
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
    if p <= 1:
        raise ValueError("the sweep needs p > 1")
    params = InequalityParams(p=p)
    k, c_p = params.k, params.oscillation_constant
    axis = np.linspace(0.0, a_max, grid_points)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    keep = a >= b
    a = a[keep]
    b = b[keep]
    d = a - b
    series = np.zeros_like(a)
    for j in range(1, k + 1):
        series += binomial_coefficient(p, j) * b ** (p - j) * d**j

    lhs1 = a**p - b**p - series
    rhs1 = d**p
    lhs2 = a**p + b**p + series
    rhs2 = (c_p * a + b) ** p
    scale = np.maximum(1.0, a**p)

    v1 = (lhs1 - rhs1) / scale
    v2 = (lhs2 - rhs2) / scale
    worst1 = int(np.argmax(v1))
    worst2 = int(np.argmax(v2))
    params_doc = {
        "p": p,
        "k": k,
        "c_p": c_p,
        "a_max": a_max,
        "grid_points": grid_points,
        "worst_violation_part1": float(v1[worst1]),
        "worst_violation_part2": float(v2[worst2]),
        "worst_ab_part1": [float(a[worst1]), float(b[worst1])],
        "worst_ab_part2": [float(a[worst2]), float(b[worst2])],
        "max_abs_slack_part1": float(np.max(np.abs(rhs1 - lhs1))),
    }
    if float(v1[worst1]) >= float(v2[worst2]):
        worst, loc = float(v1[worst1]), float(a[worst1])
    else:
        worst, loc = float(v2[worst2]), float(a[worst2])
    return CheckReport(
        inequality_id="binomial_bounds",
        params=params_doc,
        worst_ratio=1.0 + worst,
        worst_location=loc,
        constant_used=1.0,
        tolerance=tolerance,
    )


def _local_stencil_max(values: np.ndarray) -> np.ndarray:
    padded = np.pad(values, 1)
    out = values.copy()
    for ax in range(values.ndim):
        np.maximum(out, padded[_axis_slices(values.ndim, ax, +1)], out=out)
        np.maximum(out, padded[_axis_slices(values.ndim, ax, -1)], out=out)
    return out


@lru_cache
def _scalar_chain_sweep(r: float, a_max: float, grid_points: int) -> tuple[float, float, float]:
    """Worst |a^r - b^r| / (r (a^(r-1) + b^(r-1)) |a-b|) over the (a, b) lattice.

    Returns (worst ratio, a, b); it depends on the sweep parameters only, so
    it is computed once per parameter set, not once per grid function.
    """
    axis = np.linspace(0.0, a_max, grid_points)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    scalar_lhs = np.abs(a**r - b**r)
    scalar_rhs = r * (a ** (r - 1.0) + b ** (r - 1.0)) * np.abs(a - b)
    scalar_ratios = _ratio(scalar_lhs, scalar_rhs)
    s_idx = int(np.argmax(scalar_ratios))
    return float(scalar_ratios.ravel()[s_idx]), float(a.ravel()[s_idx]), float(b.ravel()[s_idx])


def check_chain_rule(
    f: GridFunction | PreparedFunction,
    r: float,
    gradient_mode: str = "metric_max",
    a_max: float = 20.0,
    grid_points: int = 400,
    tolerance: float = SCALAR_TOLERANCE,
) -> CheckReport:
    """Discrete chain-rule bound |grad f^r| <= 2r fhat^(r-1) |grad f|.

    fhat is the stencil-local maximum of f: the one-sided quotient between two
    cells x, y obeys |f(x)^r - f(y)^r| <= 2r max(f(x), f(y))^(r-1) |f(x)-f(y)|
    by the scalar bound |a^r - b^r| <= r (a^(r-1) + b^(r-1)) |a-b|, which is
    also swept directly over the (a, b) lattice.
    """
    if r <= 1:
        raise ValueError("chain rule sweep needs r > 1")
    pf = prepare(f)
    grid = pf.grid
    if np.any(grid.values < 0):
        raise ValueError("chain rule check expects a nonnegative function")
    powered = GridFunction(grid.spacing, grid.values**r)
    lhs = metric_gradient_modulus(powered, gradient_mode).values
    base = pf.grad(gradient_mode).values
    local_max = _local_stencil_max(grid.values)
    rhs = 2.0 * r * local_max ** (r - 1.0) * base
    grid_ratios = _ratio(lhs, rhs)
    g_idx = int(np.argmax(grid_ratios))
    grid_worst = float(grid_ratios.ravel()[g_idx])
    scalar_worst, scalar_a, scalar_b = _scalar_chain_sweep(r, a_max, grid_points)

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


def _merged_product_profile(sf: StepProfile, sg: StepProfile) -> StepProfile:
    merged = np.union1d(sf.breakpoints, sg.breakpoints)
    left = merged[:-1]
    levels = sf.value(left) * sg.value(left)
    return StepProfile(merged, levels)


def check_oneil(
    f,
    g,
    masses=None,
    t_grid: np.ndarray | None = None,
    tolerance: float = SCALAR_TOLERANCE,
    points_per_decade: int = 16,
) -> CheckReport:
    """Product bound (fg)**(t) <= (1/t) int_0^t f*(s) g*(s) ds.

    f and g must live on the same cells: pass two grid functions (plain or
    prepared) on identical grids, or two flat value arrays with a shared
    ``masses`` array, or a scalar mass that every cell has.  The product is
    formed cellwise before any rearrangement; prepared functions contribute
    their cached profiles, so only the product is sorted.  The default t-grid
    ends at the domain measure for grid functions (one grid per grid shape),
    and at the summed masses for value arrays.
    """
    grids = (GridFunction, PreparedFunction)
    grid_pair = isinstance(f, grids) and isinstance(g, grids)
    if grid_pair:
        if masses is not None:
            raise ValueError("grid functions carry their own cell masses")
        pf, pg = prepare(f), prepare(g)
        gf, gg = pf.grid, pg.grid
        if gf.extents != gg.extents or gf.spacing != gg.spacing:
            raise ValueError("grid functions must share extents and spacing")
        prof_f, prof_g = pf.profile, pg.profile
        vfg = np.abs(gf.values.ravel()) * np.abs(gg.values.ravel())
        cell_masses = gf.cell_measure
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
        prof_g = decreasing_rearrangement(MassFunction(vg, cell_masses))
        vfg = vf * vg

    prof_fg = decreasing_rearrangement(MassFunction(vfg, cell_masses))
    hl_profile = _merged_product_profile(prof_f, prof_g)

    if t_grid is None:
        total = gf.domain_measure if grid_pair else prof_fg.total_measure
        t_grid = _tgrid(TGridSpec(total * 1e-5, total, points_per_decade))
    t_grid = np.asarray(t_grid, dtype=float)
    lhs = maximal_average(prof_fg, t_grid)
    rhs = hl_profile.prefix_integral(t_grid) / t_grid
    ratios = _ratio(lhs, rhs)
    j = int(np.argmax(ratios))
    return CheckReport(
        inequality_id="oneil",
        params={"t_points": int(t_grid.size), "atoms": int(vfg.size)},
        worst_ratio=float(ratios[j]),
        worst_location=float(t_grid[j]),
        constant_used=1.0,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Nash-form bound
# ---------------------------------------------------------------------------


def check_nash(
    f: GridFunction | PreparedFunction,
    phi: ProfileHandle | None,
    p: float,
    c1: float = 1.0,
    c2: float = 1.0,
    classical: bool = False,
    gradient_mode: str = "metric_max",
    tolerance: float = GRID_TOLERANCE,
    constant_mode: str = "fitted",
) -> CheckReport:
    """Nash-form bound ||f||_p <= c1 phi(c2 (||f||_1/||f||_p)^(p/(p-1))) || |grad f| ||_p.

    In classical mode (p = 2, phi(t) = t^(1/n), n the dimension of f's grid;
    ``phi`` is not read) ||f||_2^(1+2/n) <= c ||f||_1^(2/n) || |grad f| ||_2
    is evaluated and the fitted c recorded; in general mode ``phi`` None means
    that of R^n.  Ratios in either mode are invariant under f -> lambda f.
    """
    if p <= 1:
        raise ValueError("the Nash form needs p > 1")
    pf = prepare(f)
    if pf.is_zero:
        raise ValueError("||f||_p must be positive")
    norm_p, norm_1, grad_norm = pf.norm(p), pf.norm(1.0), pf.norm(p, gradient_mode)
    doc = {
        "p": p,
        "c1": c1,
        "c2": c2,
        "classical": classical,
        "gradient_mode": gradient_mode,
        "grid": pf.grid.shape_label,
    }
    if classical:
        if p != 2:
            raise ValueError("classical mode is the p = 2 case")
        n = doc["n"] = pf.grid.dim
        ratio = norm_p ** (1.0 + 2.0 / n) / (norm_1 ** (2.0 / n) * grad_norm)
    else:
        arg = c2 * (norm_1 / norm_p) ** (p / (p - 1.0))
        ratio = norm_p / (c1 * _phi_for(pf, phi)(arg) * grad_norm)
    doc["fitted_constant"] = float(ratio) * (1.0 if classical else c1)
    constant = float(ratio) if constant_mode == "fitted" else (c1 if classical else 1.0)
    return CheckReport(
        inequality_id="nash_classical" if classical else "nash",
        params=doc,
        worst_ratio=float(ratio),
        worst_location=None,
        constant_used=float(constant),
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Sobolev family
# ---------------------------------------------------------------------------


def check_sobolev(
    f: GridFunction | PreparedFunction,
    p: float | None,
    mode: str,
    gradient_mode: str = "metric_max",
    tolerance: float = GRID_TOLERANCE,
    constant: float | None = None,
) -> CheckReport:
    """Sobolev-family bounds against the gradient L^p norm, n the dimension of f's grid.

    * ``weak`` (1 <= p < n): sup_t f*(t) t^(1/pbar) with 1/pbar = 1/p - 1/n.
    * ``strong`` (1 <= p < n): { int ((f**-f*) t^(1/pbar))^p dt/t }^(1/p).
    * ``exp`` (p = n): { int (f**-f*)^n dt/t }^(1/n).
    * ``morrey`` (p > n, unit-measure domain): f**(0+) - f**(1), against
      (1/n - 1/p)^(-1) || |grad f| ||_p.

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
        return CheckReport.trivial_pass(f"sobolev_{mode}", doc, 1.0 if constant is None else constant, tolerance)
    profile = pf.profile
    grad_norm = pf.norm(p, gradient_mode)

    location = None
    base_constant = 1.0
    if mode in ("weak", "strong"):
        inv_pbar = doc["inv_pbar"] = 1.0 / p - 1.0 / n
    if mode == "weak":
        vals = profile.levels * profile.breakpoints[1:] ** inv_pbar
        j = int(np.argmax(vals))
        lhs = float(vals[j])
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

    ratio = float(_ratio(lhs, grad_norm))
    doc["fitted_constant"] = ratio / base_constant
    if mode == "morrey":
        # explicit constant: (1/n - 1/p)^(-1) times the (default 1) prefactor
        constant_used = (1.0 if constant is None else constant) * base_constant
    else:
        # no explicit constant is asserted; fitted unless the caller pins one
        constant_used = ratio if constant is None else constant
    return CheckReport(
        inequality_id=f"sobolev_{mode}",
        params=doc,
        worst_ratio=ratio,
        worst_location=location,
        constant_used=constant_used,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# registry and corpus suprema
# ---------------------------------------------------------------------------


def _run_s_phi_p(f, *, p=1.0, phi=None, gradient_mode="metric_max", tolerance=GRID_TOLERANCE, constant_mode="analytic"):
    params = InequalityParams(p=p, tolerance=tolerance, constant_mode=constant_mode)
    return check_s_phi_p(f, phi, params, gradient_mode)


def _run_oscillation_p(f, *, p=1.0, phi=None, gradient_mode="metric_max", tolerance=GRID_TOLERANCE, constant_mode="analytic", capture_trace=False):
    params = InequalityParams(p=p, tolerance=tolerance, constant_mode=constant_mode)
    return check_oscillation_p(f, phi, params, gradient_mode, capture_trace)


def _run_derivative_p(f, *, p=1.0, phi=None, gradient_mode="metric_max", tolerance=GRID_TOLERANCE, constant_mode="analytic", form="integrated", capture_trace=False):
    params = InequalityParams(p=p, tolerance=tolerance, constant_mode=constant_mode)
    return check_derivative_p(f, phi, params, gradient_mode, form, capture_trace)


def _run_chain_rule(f, *, r=2.0, gradient_mode="metric_max", tolerance=SCALAR_TOLERANCE):
    return check_chain_rule(f, r, gradient_mode, tolerance=tolerance)


def _run_nash_classical(f, *, gradient_mode="metric_max", tolerance=GRID_TOLERANCE):
    return check_nash(f, None, 2.0, classical=True, gradient_mode=gradient_mode, tolerance=tolerance)


def _run_nash(f, *, p=2.0, phi=None, c1=1.0, c2=1.0, gradient_mode="metric_max", tolerance=GRID_TOLERANCE):
    return check_nash(f, phi, p, c1, c2, gradient_mode=gradient_mode, tolerance=tolerance)


def _sobolev_runner(mode):
    def run(f, *, p=None, gradient_mode="metric_max", tolerance=GRID_TOLERANCE, constant=None):
        return check_sobolev(f, p, mode, gradient_mode, tolerance, constant)

    return run


def _run_polya_szego(f, *, p=1.0, gradient_mode="metric_max", weight="isoperimetric", tolerance=GRID_TOLERANCE):
    # a call through this module's name, which a tracer can rebind; CHECKERS would hide it
    return polya_szego_compare(f, p, gradient_mode, weight, tolerance)


# Every check by id.  A runner's parameters after its function arguments are
# the keys a suite entry or the command line may set; nothing else declares them.
CHECKERS = {
    "s_phi_p": _run_s_phi_p,
    "oscillation_p": _run_oscillation_p,
    "derivative_p": _run_derivative_p,
    "chain_rule": _run_chain_rule,
    "nash": _run_nash,
    "nash_classical": _run_nash_classical,
    "sobolev_weak": _sobolev_runner("weak"),
    "sobolev_strong": _sobolev_runner("strong"),
    "sobolev_exp": _sobolev_runner("exp"),
    "sobolev_morrey": _sobolev_runner("morrey"),
    "polya_szego": _run_polya_szego,
    "binomial_bounds": check_binomial_bounds,
    "oneil": check_oneil,
}

# Function arguments per check: the corpus-free sweep, the pair check, else 1.
ARITY = {"binomial_bounds": 0, "oneil": 2}

# Runner keys only code can set: a JSON config cannot give a phi handle, the
# suite's detail flag sets capture_trace, and grid functions carry their masses.
CODE_ONLY = frozenset({"phi", "capture_trace", "masses"})


def entry_keys(name: str, entry: dict, arity: int | None = None, config: bool = False) -> tuple[list, dict]:
    """The keys an entry for ``CHECKERS[name]`` may set, and its own keys (``"id"`` aside).

    An unknown id or key, or an id taking other than ``arity`` functions,
    raises ValueError.  A ``config`` entry (JSON) cannot set ``CODE_ONLY`` keys.
    """
    if name not in CHECKERS:
        raise ValueError(f"unknown inequality id {name!r}; known ids are {sorted(CHECKERS)}")
    takes = ARITY.get(name, 1)
    if arity is not None and takes != arity:
        raise ValueError(f"{name!r} takes {takes} functions, not {arity}")
    runner_keys = list(inspect.signature(CHECKERS[name]).parameters)[takes:]
    accepted = [k for k in runner_keys if not (config and k in CODE_ONLY)]
    keys = {k: v for k, v in entry.items() if k != "id"}
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        raise ValueError(f"{name}: unknown keys {unknown}; accepted keys are {accepted}")
    return accepted, keys


def checker_kwargs(name: str, entry: dict, context: dict, arity: int | None = None) -> dict:
    """Keyword arguments for ``CHECKERS[name]``: the entry's keys over the context's.

    ``entry_keys`` checks the entry, ``CODE_ONLY`` keys allowed.  The context's
    run-wide defaults (gradient_mode, tolerance, ...) are passed where the
    runner declares them and they are not None; the runner checks values.
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
