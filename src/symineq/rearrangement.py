"""Exact step-function rearrangement calculus.

Everything here works on right-continuous non-increasing step profiles, so
all integrals are closed-form piecewise sums: no quadrature error enters the
inequality verdicts downstream, only grid-discretization error.

Conventions: a profile lives on [0, M) with value 0 for t >= M; its maximal
average extends naturally to t > M as (total integral)/t.  At plateaus of the
distribution function the generalized inverse is set-valued; the step
representation sidesteps the ambiguity (ties are merged atoms).
"""

from __future__ import annotations

import math

import numpy as np

from .measure import MassFunction, support_measure

# The least normal float: a powered top level below it has underflowed.
_TINY = np.finfo(float).tiny

__all__ = [
    "StepProfile",
    "distribution",
    "decreasing_rearrangement",
    "maximal_average",
    "powered_profile",
    "layer_cake_excess",
    "lorentz_norm",
    "oscillation_norm",
    "dform_derivative",
    "geometric_tgrid",
    "power_segment_integral",
]


def power_segment_integral(a, b, alpha: float):
    """Exact integral of t**(alpha-1) over [a, b], log form at alpha = 0."""
    return _segment_integrals(np.array(a, dtype=float), np.array(b, dtype=float), alpha)[()]


def _primitive(t: np.ndarray, alpha: float) -> np.ndarray:
    """t**alpha, or log(t) at alpha = 0, written over ``t``."""
    if alpha == 0.0:
        return np.log(t, out=t)
    t **= alpha
    return t


def _segment_integrals(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """``power_segment_integral`` of two float arrays that the caller gives up.

    The result is written over ``b`` and ``a`` is overwritten too; the steps
    are those of (b**alpha - a**alpha) / alpha and log(b) - log(a).
    """
    b = _primitive(b, alpha)
    b -= _primitive(a, alpha)
    if alpha != 0.0:
        b /= alpha
    return b


def _consecutive_integrals(points: np.ndarray, alpha: float) -> np.ndarray:
    """``power_segment_integral`` over each [points[k], points[k + 1]], overwriting ``points``.

    Each point is raised to alpha once and the shifted views are
    differenced: bit for bit the two-array form on points[:-1], points[1:].
    """
    steps = np.diff(_primitive(points, alpha))
    if alpha != 0.0:
        steps /= alpha
    return steps


class StepProfile:
    """Right-continuous non-increasing step function on (0, M].

    ``breakpoints`` is the increasing array [0, t_1, ..., M]; ``levels[i]`` is
    the value on [t_i, t_{i+1}).  Beyond M the profile is 0.  Passing another
    profile as ``breakpoints`` shares its breakpoints, which were checked when
    it was built; only the new levels are checked then.
    """

    __slots__ = ("breakpoints", "levels", "_cum_integral")

    def __init__(self, breakpoints, levels):
        levels = np.asarray(levels, dtype=float)
        checked = isinstance(breakpoints, StepProfile)
        breakpoints = breakpoints.breakpoints if checked else np.asarray(breakpoints, dtype=float)
        if breakpoints.ndim != 1 or levels.ndim != 1:
            raise ValueError("breakpoints and levels must be 1-d")
        if breakpoints.size != levels.size + 1:
            raise ValueError("need exactly one more breakpoint than levels")
        if breakpoints[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        # non-increasing, so the last level is the least; a NaN fails both comparisons
        if levels.size and not (levels[-1] >= 0 and np.all(levels[1:] <= levels[:-1])):
            raise ValueError("levels must be nonnegative and non-increasing")
        # [0, widths...], turned into the prefix integrals [0, cumsum(levels * widths)...] in place
        cum = np.empty(breakpoints.size)
        cum[0] = 0.0
        widths = np.subtract(breakpoints[1:], breakpoints[:-1], out=cum[1:])
        if not checked and np.any(widths <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        with np.errstate(over="ignore", invalid="ignore"):
            widths *= levels
            np.cumsum(widths, out=widths)
        if not cum[-1] < math.inf:  # the prefix integrals rise, so an inf or NaN ends up last
            raise ValueError("the integral of the profile must be finite")
        self.breakpoints = breakpoints
        self.levels = levels
        self._cum_integral = cum

    @property
    def total_measure(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def total_integral(self) -> float:
        return float(self._cum_integral[-1])

    @property
    def max_level(self) -> float:
        return float(self.levels[0]) if self.levels.size else 0.0  # a profile with no steps is 0

    def _segment_index(self, t: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.breakpoints, t, side="right") - 1

    def value(self, t):
        """Profile value at t (vectorized); 0 for t >= M."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("t must be nonnegative")
        idx = self._segment_index(t_arr)
        inside = idx < self.levels.size
        out = np.where(inside, self.levels[np.minimum(idx, self.levels.size - 1)], 0.0)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def prefix_integral(self, t):
        """Exact integral of the profile over (0, t], vectorized."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("t must be nonnegative")
        # the step holding min(t, M), the last one from M on: the sum there over that step's
        # width is the running one that built the prefix integrals, bit for bit, at M too
        flat = t_arr.reshape(-1)
        idx = np.searchsorted(self.breakpoints, flat, side="right")
        idx -= 1
        np.minimum(idx, self.levels.size - 1, out=idx)
        out = np.minimum(flat, self.breakpoints[-1])
        out -= self.breakpoints[idx]
        out *= self.levels[idx]
        out += self._cum_integral[idx]
        out = out.reshape(t_arr.shape)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def __repr__(self) -> str:
        return (
            f"StepProfile({self.levels.size} steps, M={self.total_measure:g}, "
            f"max={self.max_level:g})"
        )


def distribution(f, lam: float) -> float:
    """Measure of {value > lam} (strict), for a MassFunction or StepProfile."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if isinstance(f, MassFunction):
        return support_measure(f, lam)
    if isinstance(f, StepProfile):
        return float(f.breakpoints[np.count_nonzero(f.levels > lam)])
    raise TypeError(f"unsupported operand type {type(f)!r}")


def decreasing_rearrangement(f: MassFunction) -> StepProfile:
    """Generalized inverse of the distribution function of f.

    Atoms are already sorted by value descending, so the profile is the prefix
    scan of the masses: equimeasurable with f by construction.  The profile
    shares its breakpoint and level arrays with f.  It is still validated: a
    mass below an ulp of the running total repeats a breakpoint and raises.
    """
    return StepProfile(f.breakpoints, f.values)


def maximal_average(s: StepProfile, t: float):
    """(1/t) * integral of the profile over (0, t); defined for all t > 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("t must be positive")
    out = s.prefix_integral(t_arr) / t_arr
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def powered_profile(s: StepProfile, p: float) -> StepProfile:
    """Pointwise p-th power of the levels; breakpoints unchanged, ``s`` itself at p = 1.

    A positive profile whose p-th power has lost its top level to underflow
    (below the least normal float) is rejected: its powered integrals would
    read 0 or be dominated by rounding.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1.0:
        return s
    powered = StepProfile(s, s.levels**p)
    if s.max_level > 0 and powered.max_level < _TINY:
        raise ValueError(f"nonzero profile whose top level to the power {p:g} underflows: malformed input")
    return powered


def layer_cake_excess(f: MassFunction, lam: float) -> float:
    """sum (value - lam) * mass over atoms with value > lam.

    Equals the tail integral of the distribution function over (lam, inf).
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    k = int(np.count_nonzero(f.values > lam))
    if k == 0:
        return 0.0
    terms = f.values[:k] - lam  # summed pairwise, not by a threaded BLAS dot
    terms *= f.masses[:k]
    return float(np.add.reduce(terms))


def oscillation_norm(s: StepProfile, q: float, inv_pbar: float = 0.0, tail: bool = False) -> float:
    """Exact { int ((s** - s)(t) t^inv_pbar)^q dt/t }^(1/q) over (0, M], or (0, inf) with ``tail``.

    On segment j, s** - s = c_j / t with c_j = int_0^{t_j} s - level_j t_j
    (Bennett-Sharpley, ch. 2), and c_0 = 0; past M it is (total integral) / t.
    Divergent integrals give ``inf``.
    """
    b = s.breakpoints
    alpha = q * inv_pbar - q
    # sum(c[active]**q * power_segment_integral(b[:-1][active], b[1:][active], alpha)) over
    # the active segments, step by step in place
    c = s.levels * b[:-1]
    np.subtract(s._cum_integral[:-1], c, out=c)
    active = c > 0
    k = int(np.count_nonzero(active))
    if k and active[-k:].all():  # the last k segments, as for strictly decreasing levels: slices
        terms = c[-k:]
        terms **= q
        terms *= _consecutive_integrals(b[-k - 1:].copy(), alpha)
    else:
        terms = c[active]
        del c
        terms **= q
        terms *= _segment_integrals(b[:-1][active], b[1:][active], alpha)
    total = float(np.sum(terms))
    if tail and s.total_integral > 0:
        # I^q M^alpha as (I / M^(1 - inv_pbar))^q: on a tiny M, M^alpha alone overflows
        # (M^-1 does at M = 5e-324) where the ratio, at most max level * M^inv_pbar, does not
        try:
            total += (s.total_integral / s.total_measure ** (1.0 - inv_pbar)) ** q / -alpha
        except OverflowError:  # a value beyond the float range reads inf, as in the sum above
            total = math.inf
    return total ** (1.0 / q) if math.isfinite(total) else math.inf


def _weak_sup(s: StepProfile, a: float) -> tuple[float, int]:
    """sup_t s(t) t^a for a > 0, and the index j of the step where it is approached.

    Over [t_j, t_{j+1}) the level times t^a is approached at the right end,
    so the sup is the max over j of ``levels[j] * breakpoints[j + 1]**a``,
    the first one on a tie.
    """
    vals = s.breakpoints[1:] ** a
    vals *= s.levels
    j = int(np.argmax(vals))
    return float(vals[j]), j


def lorentz_norm(s: StepProfile, r: float, q: float) -> float:
    """Lorentz functional of a profile, by exact piecewise integration.

    * r < inf, q < inf: ``{ integral (s(t) t^{1/r})^q dt/t }^{1/q}``
    * r < inf, q = inf: ``sup_t s(t) t^{1/r}``
    * r = inf, q < inf: the oscillation functional with s** - s in place of
      s(t) t^{1/r}, integrated over all of (0, inf) including the exact tail
      beyond the profile's extent.

    Divergent integrals come back as ``inf``; r = q = inf is rejected.
    """
    r_inf = math.isinf(r)
    q_inf = math.isinf(q)
    if r_inf and q_inf:
        raise ValueError("r and q cannot both be infinite")
    if (not r_inf and r < 1) or (not q_inf and q < 1):
        raise ValueError("r and q must be >= 1")

    b = s.breakpoints
    if not r_inf and q_inf:
        return _weak_sup(s, 1.0 / r)[0]

    if not r_inf:
        alpha = q / r  # > 0, so the segment starting at 0 integrates cleanly
        seg = s.levels**q * _consecutive_integrals(b.copy(), alpha)
        total = float(np.sum(seg))
        return total ** (1.0 / q) if math.isfinite(total) else math.inf

    return oscillation_norm(s, q, tail=True)


def dform_derivative(s: StepProfile, p: float, t):
    """Analytic value of -d/dt of (maximal average of the p-powered profile)^{1/p}.

    Evaluates (1/p) * F(t)^{1/p - 1} * (F(t) - s(t)^p) / t with F the maximal
    average of the powered profile; never differentiates numerically.
    Vectorized in t; a scalar t gives a float.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("t must be positive")
    if p < 1:
        raise ValueError("p must be >= 1")
    sp = powered_profile(s, p)
    fpp_avg = maximal_average(sp, t_arr)
    # the oscillation is nonnegative in exact arithmetic; clamp the 1-ulp dip
    osc = np.maximum(fpp_avg - sp.value(t_arr), 0.0)
    # F(t) = 0 only where the profile vanishes on (0, t), and so does the derivative
    amplitude = np.where(fpp_avg > 0.0, fpp_avg, 1.0) ** (1.0 / p - 1.0)
    out = (1.0 / p) * amplitude * osc / t_arr
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def geometric_tgrid(t_min: float, t_max: float, points_per_decade: int = 64) -> np.ndarray:
    """Geometric evaluation grid with a fixed density per decade."""
    if not (0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    decades = math.log10(t_max / t_min)
    n = max(2, int(math.ceil(decades * points_per_decade)) + 1)
    return np.geomspace(t_min, t_max, n)
