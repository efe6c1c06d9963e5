"""Isoperimetric profile handles and indicator mollification.

A profile handle is a monotone scalar function: either the isoperimetric
profile I of a domain or the associated quotient function t / I(t).  Grids
only ever see the Euclidean power-law profiles, but sampled tables are
accepted so externally measured profiles can be plugged into the checkers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import GridFunction, _squared_distance, read_document, require_finite_measure, write_document

__all__ = [
    "ProfileHandle",
    "ProfileViolation",
    "euclidean_profile",
    "phi_from_profile",
    "validate_profile",
    "indicator_mollify",
    "mollify_ladder",
    "disk_mask",
    "unit_ball_volume",
]


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in n dimensions."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# The JSON keys of each profile kind, "kind" aside.
_KIND_KEYS = {"power_law": ("coefficient", "exponent"), "table": ("samples",)}


@dataclass(frozen=True)
class ProfileHandle:
    """Power law c*t^alpha or a monotone sampled table, on t > 0."""

    kind: str  # "power_law" | "table"
    coefficient: float | None = None
    exponent: float | None = None
    samples: tuple | None = None  # ((t, value), ...) with t increasing

    def __post_init__(self):
        if self.kind == "power_law":
            if self.coefficient is None or self.exponent is None:
                raise ValueError("power_law needs coefficient and exponent")
            if not 0 < self.coefficient < math.inf or not math.isfinite(self.exponent):
                raise ValueError("power-law coefficient must be finite and positive, exponent finite")
        elif self.kind == "table":
            if not self.samples or len(self.samples) < 2:
                raise ValueError("table needs at least two samples")
            # tuples all the way down, so a handle hashes by value (checkers key caches on it)
            object.__setattr__(self, "samples", tuple(tuple(s) for s in self.samples))
            if not all(0 < x < math.inf for sample in self.samples for x in sample):
                raise ValueError("table samples (t, value) must be finite and positive")
            ts = [s[0] for s in self.samples]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("table abscissae must be increasing")
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    @property
    def is_constant(self) -> bool:
        if self.kind == "power_law":
            return self.exponent == 0.0
        vals = [s[1] for s in self.samples]
        return max(vals) == min(vals)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("profiles are defined for t >= 0")
        if self.kind == "power_law":
            with np.errstate(divide="ignore"):
                out = self.coefficient * t_arr**self.exponent
        else:
            ts = np.array([s[0] for s in self.samples])
            vs = np.array([s[1] for s in self.samples])
            out = np.interp(t_arr, ts, vs)
            # continue the first/last linear pieces outside the sampled range
            lo = t_arr < ts[0]
            if np.any(lo):
                out = np.where(lo, vs[0] * t_arr / ts[0], out)
            hi = t_arr > ts[-1]
            if np.any(hi):
                slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
                out = np.where(hi, vs[-1] + slope * (t_arr - ts[-1]), out)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def to_json(self, path=None):
        doc = {"kind": self.kind, **{key: getattr(self, key) for key in _KIND_KEYS[self.kind]}}
        if self.kind == "table":
            doc["samples"] = [list(s) for s in self.samples]
        return doc if path is None else write_document(doc, path)

    @classmethod
    def from_json(cls, source) -> "ProfileHandle":
        def build(doc):
            if doc["kind"] == "power_law":
                return cls("power_law", coefficient=float(doc["coefficient"]), exponent=float(doc["exponent"]))
            return cls("table", samples=tuple((float(t), float(v)) for t, v in doc["samples"]))

        return read_document(source, "profile", _KIND_KEYS, build)


def euclidean_profile(n: int) -> ProfileHandle:
    """Isoperimetric profile of R^n: balls are extremal.

    I(t) = c_n t^(1-1/n) with c_n = n * omega_n^(1/n), omega_n the unit-ball
    volume, so that a ball of measure t has perimeter exactly I(t).  For n = 1
    the profile is the constant 2 (two boundary points), which violates the
    I(0)=0 limit; validate_profile waives that case explicitly.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    c_n = n * unit_ball_volume(n) ** (1.0 / n)
    return ProfileHandle(kind="power_law", coefficient=c_n, exponent=1.0 - 1.0 / n)


def phi_from_profile(profile: ProfileHandle) -> ProfileHandle:
    """Pointwise quotient t / I(t)."""
    if profile.kind == "power_law":
        return ProfileHandle(
            kind="power_law",
            coefficient=1.0 / profile.coefficient,
            exponent=1.0 - profile.exponent,
        )
    samples = tuple((t, t / v) for t, v in profile.samples)
    return ProfileHandle(kind="table", samples=samples)


@dataclass(frozen=True)
class ProfileViolation:
    kind: str  # "not_concave" | "quotient_decreasing" | "nonzero_at_origin"
    location: float
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at t={self.location:g}: {self.detail}"


def validate_profile(
    profile: ProfileHandle,
    t_max: float = 1.0,
    points: int = 512,
    rel_tol: float = 1e-9,
) -> list[ProfileViolation]:
    """Admissibility checks on a dense grid of (0, t_max].

    Verifies concavity (midpoint test), a vanishing limit at the origin, and
    that the quotient t / I(t) is non-decreasing.  Constant profiles (the n=1
    Euclidean case) are exempt from the origin condition: the quotient still
    increases, which is what the checkers rely on.
    """
    grid = np.linspace(t_max / points, t_max, points)
    vals = profile(grid)
    violations: list[ProfileViolation] = []
    scale = float(np.max(np.abs(vals))) or 1.0

    if np.any(vals <= 0):
        bad = grid[np.argmax(vals <= 0)]
        violations.append(
            ProfileViolation("nonpositive", float(bad), "profile must be positive for t > 0")
        )
        return violations

    mid_vals = profile((grid[:-1] + grid[1:]) / 2.0)
    gap = (vals[:-1] + vals[1:]) / 2.0 - mid_vals - rel_tol * scale
    if np.any(gap > 0):
        j = int(np.argmax(gap))
        violations.append(
            ProfileViolation(
                "not_concave",
                float((grid[j] + grid[j + 1]) / 2.0),
                f"midpoint test fails by {gap[j]:.3e}",
            )
        )

    quotient = grid / vals
    drop = quotient[:-1] - quotient[1:] - rel_tol * float(np.max(quotient))
    if np.any(drop > 0):
        j = int(np.argmax(drop))
        violations.append(
            ProfileViolation(
                "quotient_decreasing",
                float(grid[j + 1]),
                f"t/I(t) decreases by {drop[j]:.3e}",
            )
        )

    if not profile.is_constant:
        # I(0+) -> 0: probe a geometric approach to the origin
        probes = t_max * np.float_power(10.0, -np.arange(3, 9))
        pvals = profile(probes)
        if not np.all(np.diff(pvals) < 0) or pvals[-1] > 1e-2 * scale:
            violations.append(
                ProfileViolation(
                    "nonzero_at_origin",
                    float(probes[-1]),
                    f"I({probes[-1]:.1e}) = {pvals[-1]:.3e} does not vanish",
                )
            )
    return violations


def disk_mask(
    extents: tuple[int, ...], spacing: float, center: tuple[float, ...], radius: float
) -> np.ndarray:
    """Boolean cell mask of a ball: cells whose center lies within radius.

    The largest squared distance from the center to a cell center, and radius**2,
    must be finite; otherwise this raises ValueError before any array is made.
    """
    far = 0.0  # the sum below at the farthest corner, in the same order
    for n, c in zip(extents, center):
        reach = max(abs(0.5 * spacing - c), abs((n - 0.5) * spacing - c))
        far += reach * reach
    if not (far < math.inf and radius * radius < math.inf and 0 < spacing < math.inf):
        raise ValueError(
            "disk_mask needs a positive finite spacing, and the squared distances "
            "across the grid and radius**2 must be finite"
        )
    return _squared_distance(extents, spacing, center) <= radius**2


def indicator_mollify(mask: np.ndarray, spacing: float, eps: float) -> GridFunction:
    """Linear-in-distance mollification of the indicator of a cell set.

    The result is 1 on the set, 0 outside its eps-neighborhood, and
    1 - d(x, A)/eps in the collar.  The cone collar gives exact control of the
    gradient bound (at most sqrt(n)*(1 + h/eps)/eps for the discrete modulus,
    and (1 + h/eps)/eps per axis) and a computable perimeter proxy
    (measure(A_eps) - measure(A)) / eps.
    """
    return mollify_ladder(mask, spacing, (eps,))[0]


def mollify_ladder(mask: np.ndarray, spacing: float, eps_ladder) -> list[GridFunction]:
    """``indicator_mollify(mask, spacing, eps)`` for each eps, from one distance transform.

    The cell and domain measures and the squared distances across the grid
    must be finite; otherwise this raises ValueError before any array is made.
    """
    mask = np.asarray(mask, dtype=bool)
    h = float(spacing)
    require_finite_measure(h, mask.shape)
    far = 0.0
    for n in mask.shape:
        reach = (n - 1) * h
        far += reach * reach
    if not far < math.inf:
        raise ValueError("the squared distances across the grid must be finite")
    if any(eps < h for eps in eps_ladder):
        raise ValueError("mollification width eps must be at least the cell spacing")
    if not mask.any():
        raise ValueError("cell set is empty")
    dist = _distance_to_cells(mask, h)
    return [_collar(dist, h, eps) for eps in eps_ladder]


def _collar(dist: np.ndarray, h: float, eps: float) -> GridFunction:
    """1 - dist/eps clipped to [0, 1]; its support must keep two cells from the boundary."""
    values = np.clip(1.0 - dist / eps, 0.0, 1.0)
    for ax in range(values.ndim):
        for idx in (0, 1, -2, -1):
            if np.any(values.take(idx, axis=ax) != 0):
                raise ValueError(
                    "the eps-neighborhood of the cell set must stay at least "
                    "two cells away from the domain boundary"
                )
    return GridFunction(h, values)


def _distance_to_cells(cells: np.ndarray, h: float) -> np.ndarray:
    """Distance from each cell centre to the nearest centre of a ``cells`` cell, at spacing h.

    Bit for bit ``scipy.ndimage.distance_transform_edt(~cells, sampling=h)``: the same
    feature for every cell (``_feature_transform``), then scipy's own arithmetic for the
    distance.  The offsets go into one (rank,) + shape float64 array, as scipy's do; summing
    axis by axis gives the same bits, but without the free of that larger array glibc keeps
    a lower mmap threshold, and later cell-sized arrays of a run fault in fresh pages.
    """
    ft = _feature_transform(cells, h)
    dt = (ft - np.indices(cells.shape, dtype=ft.dtype)).astype(np.float64)
    dt *= h
    np.multiply(dt, dt, out=dt)
    return np.sqrt(np.add.reduce(dt, axis=0))


def _feature_transform(cells: np.ndarray, h: float) -> np.ndarray:
    """Index of the nearest ``cells`` cell of every cell, as a (rank,) + shape int32 array.

    The separable Voronoi algorithm of Maurer, Qi & Raghavan (IEEE TPAMI 25, 2003), as
    scipy.ndimage compiles it, with its floating-point tests and tie rules, so every cell
    gets scipy's feature.  Pass d runs along the lines of axis d, vectorised over lines:
    every cell that already has a feature offers it, with its squared distance over axes
    0..d-1 as a height, and each cell of the line takes the offer that minimises
    height + (h * offset along d)**2.  ``cells`` must hold at least one cell.
    """
    shape = cells.shape
    rank = cells.ndim
    ft = np.empty((rank,) + shape, np.int32)
    heights = None
    # which cells have a feature before pass d depends only on the axes from d on
    plane = cells.reshape(shape[0], -1)
    for d, n in enumerate(shape):
        before = math.prod(shape[:d])
        live = plane.any(axis=0)
        found = np.flatnonzero(live)
        span = slice(found[0], found[-1] + 1)  # featureless lines inside it cost time, not bits

        def lanes(a):
            """The lines of the span as columns: (n, lines before d, lines after d)."""
            return a.reshape(before, n, -1)[:, :, span].transpose(1, 0, 2)

        has = np.broadcast_to(plane[:, None, span], lanes(cells).shape).reshape(n, -1)
        with np.errstate(over="ignore"):
            q = np.arange(n) * h
            q *= q
        if d == 0 and np.all(q[1:] > q[:-1]) and q[-1] < math.inf:
            sel, dist = _nearest_on_lines(has, q)
        else:  # later axes, and an axis 0 whose squared offsets tie by under- or overflow
            start = np.zeros(has.shape) if heights is None else lanes(heights).reshape(n, -1)
            sel, dist = _envelope_on_lines(start, has, h)
        lanes(ft[d])[...] = sel.reshape(n, before, -1)
        if d + 1 < rank:
            if heights is None:
                heights = np.empty(shape)
            lanes(heights)[...] = dist.reshape(n, before, -1)
            plane = live.reshape(shape[d + 1], -1)
    # ft[d] holds the position along axis d chosen by pass d; the other coordinates of a
    # cell's feature are those of the cell that choice names, so compose from the last axis
    src = np.arange(cells.size).reshape(shape)
    for d in range(rank - 2, -1, -1):
        offset = ft[d + 1] - np.arange(shape[d + 1]).reshape((-1,) + (1,) * (rank - d - 2))
        src += offset * math.prod(shape[d + 2:])
        ft[d] = ft[d].reshape(-1).take(src)
    return ft


def _nearest_on_lines(has: np.ndarray, q: np.ndarray):
    """Pass 0 when q[k] = (k*h)**2 strictly increases: the nearest feature, ties to the lower index.

    ``has`` is (n, lines).  With no height yet, the compiled pass keeps every feature and
    its walk stops at the first feature no farther than the next, which is this choice.
    Returns the chosen positions and their squared distances; a line without features
    gets garbage.
    """
    n = has.shape[0]
    q = np.append(q, math.inf)
    pos = np.arange(n, dtype=np.int32)[:, None]
    left = np.where(has, pos, np.int32(-n))
    np.maximum.accumulate(left, axis=0, out=left)
    right = np.where(has, pos, np.int32(2 * n))
    np.minimum.accumulate(right[::-1], axis=0, out=right[::-1])
    to_left = q.take(np.minimum(pos - left, n))
    to_right = q.take(np.minimum(right - pos, n))
    go_right = to_left > to_right
    return np.where(go_right, right, left), np.where(go_right, to_right, to_left)


def _envelope_on_lines(heights: np.ndarray, has: np.ndarray, h: float):
    """One pass of the compiled ``_VoronoiFT`` on every column of the (n, lines) arrays.

    A stack per line keeps the offered features that can be nearest somewhere on it.  A new
    feature pops the top while ``c*vR - b*uR - a*wR - a*b*c <= 0`` fails, where a is h times
    the gap from the second feature to the top one, b the gap from the top to the new one,
    c = a + b, and uR, vR, wR are the heights of the second, the top and the new feature.
    A walk along the line then moves to the next stacked feature only while it is strictly
    nearer.  The products and sums are the compiled code's, in its order, so the choices are
    its choices.  Returns the chosen positions (as floats) and their squared distances.
    """
    n, lines = has.shape
    # stack slot s of line j is entry s*lines + j; zeros keep featureless lines finite
    stack_pos = np.zeros(n * lines)  # as floats, as the compiled code subtracts them
    stack_height = np.zeros(n * lines)
    top = np.arange(lines) - lines  # entry of each line's top; negative while empty
    every = np.arange(lines)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            idx = np.flatnonzero(has[i])
            if not idx.size:
                continue
            if idx.size == lines:
                idx, w = every, heights[i]
            else:
                w = heights[i].take(idx)
            t = top.take(idx)
            act = np.flatnonzero(t >= lines)
            while act.size:
                k = t.take(act)
                g1 = stack_pos.take(k)
                a = (g1 - stack_pos.take(k - lines)) * h
                b = (i - g1) * h
                c = a + b
                v, u = stack_height.take(k), stack_height.take(k - lines)
                keep = c * v - b * u - a * w.take(act) - a * b * c <= 0.0  # a NaN pops, as compiled
                act = act[~keep]
                k = k[~keep] - lines
                t[act] = k
                act = act[k >= lines]
            t += lines
            stack_pos[t] = i
            stack_height[t] = w
            top[idx] = t
        sel = np.empty((n, lines))
        dist = np.empty((n, lines))
        k = every.copy()
        for i in range(n):
            s, d1 = sel[i], dist[i]
            np.take(stack_pos, k, out=s)
            t = s - i
            t *= h
            t *= t
            np.add(stack_height.take(k), t, out=d1)
            act = np.flatnonzero(k < top)
            while act.size:
                k2 = k.take(act) + lines
                g2 = stack_pos.take(k2)
                t = g2 - i
                t *= h
                t *= t
                t += stack_height.take(k2)
                step = d1.take(act) > t  # no NaN here: heights and squares are >= 0
                act = act[step]
                k2 = k2[step]
                k[act] = k2
                d1[act] = t[step]
                s[act] = g2[step]
                act = act[k2 < top.take(act)]
    return sel, dist
