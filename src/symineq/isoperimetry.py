"""Isoperimetric profile handles and indicator mollification.

A profile handle is a monotone scalar function: either the isoperimetric
profile I of a domain or the associated quotient function t / I(t).  Grids
only ever see the Euclidean power-law profiles, but sampled tables are
accepted so externally measured profiles can be plugged into the checkers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measure import GridFunction

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


@dataclass(frozen=True)
class ProfileHandle:
    """Power law c*t^alpha or a monotone sampled table, on (0, domain_max]."""

    kind: str  # "power_law" | "table"
    coefficient: float | None = None
    exponent: float | None = None
    samples: tuple | None = None  # ((t, value), ...) with t increasing
    domain_max: float = math.inf

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
        if self.kind == "power_law":
            doc = {
                "kind": "power_law",
                "coefficient": self.coefficient,
                "exponent": self.exponent,
            }
        else:
            doc = {"kind": "table", "samples": [list(s) for s in self.samples]}
        if math.isfinite(self.domain_max):
            doc["domain_max"] = self.domain_max
        if path is None:
            return doc
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        return None

    @classmethod
    def from_json(cls, source) -> "ProfileHandle":
        doc = source if isinstance(source, dict) else json.loads(
            Path(source).read_text(encoding="utf-8")
        )
        domain_max = float(doc.get("domain_max", math.inf))
        if doc["kind"] == "power_law":
            return cls(
                kind="power_law",
                coefficient=float(doc["coefficient"]),
                exponent=float(doc["exponent"]),
                domain_max=domain_max,
            )
        samples = tuple((float(t), float(v)) for t, v in doc["samples"])
        return cls(kind="table", samples=samples, domain_max=domain_max)


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
            domain_max=profile.domain_max,
        )
    samples = tuple((t, t / v) for t, v in profile.samples)
    return ProfileHandle(kind="table", samples=samples, domain_max=profile.domain_max)


@dataclass(frozen=True)
class ProfileViolation:
    kind: str  # "not_concave" | "quotient_decreasing" | "nonzero_at_origin"
    location: float
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at t={self.location:g}: {self.detail}"


def validate_profile(
    profile: ProfileHandle,
    t_max: float | None = None,
    points: int = 512,
    rel_tol: float = 1e-9,
) -> list[ProfileViolation]:
    """Admissibility checks on a dense grid.

    Verifies concavity (midpoint test), a vanishing limit at the origin, and
    that the quotient t / I(t) is non-decreasing.  Constant profiles (the n=1
    Euclidean case) are exempt from the origin condition: the quotient still
    increases, which is what the checkers rely on.
    """
    if t_max is None:
        t_max = profile.domain_max if math.isfinite(profile.domain_max) else 1.0
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
    """Boolean cell mask of a ball: cells whose center lies within radius."""
    axes = [(np.arange(n) + 0.5) * spacing for n in extents]
    grids = np.meshgrid(*axes, indexing="ij")
    d2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return d2 <= radius**2


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
    """``indicator_mollify(mask, spacing, eps)`` for each eps, from one distance transform."""
    mask = np.asarray(mask, dtype=bool)
    h = float(spacing)
    if any(eps < h for eps in eps_ladder):
        raise ValueError("mollification width eps must be at least the cell spacing")
    if not mask.any():
        raise ValueError("cell set is empty")
    from scipy import ndimage  # imported on first use: it is most of the package's import time

    dist = ndimage.distance_transform_edt(~mask, sampling=h)
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
