"""Deterministic grid-function corpora for the verification suites.

A corpus spec (seed, grid geometry, family list) fully determines the
generated functions: generation order is the listed order, randomness comes
from one seeded generator, and smoothing is iterated box averaging so the
bytes are reproducible across platforms.  Every function keeps its support at
least two cells inside the domain boundary.
"""

from __future__ import annotations

import inspect
import json
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .measure import GridFunction
from .isoperimetry import disk_mask, indicator_mollify

__all__ = ["CorpusSpec", "generate_corpus", "cone_grid", "tent_grid"]


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic description of a grid-function corpus.

    Checked when constructed: every family kind and key must be known, counts
    and noise radii integers, and the grid must hold the features and collars.
    """

    seed: int = 0
    dim: int = 2
    extents: int = 256
    side: float = 1.0  # physical side length; spacing = side / extents
    families: tuple = (
        {"kind": "cone"},
        {"kind": "tensor_bump", "count": 2},
        {"kind": "mollified_disk", "eps_ladder": (0.2, 0.1, 0.05)},
        {"kind": "smoothed_noise", "count": 2, "radius": 4},
        {"kind": "multi_bump", "count": 2, "bumps": 3},
    )

    def __post_init__(self):
        if self.extents < 16:
            raise ValueError("grid too small for the corpus features")
        for fam in self.families:
            keys = _family_kwargs(fam)
            for key in sorted({"count", "bumps"}.intersection(keys)):
                _check_whole(fam["kind"], key, keys[key], 1)
            if fam["kind"] == "smoothed_noise":
                _noise_margin(self.extents, keys.get("radius", NOISE_RADIUS))

    @property
    def spacing(self) -> float:
        return self.side / self.extents

    def to_json(self, path=None):
        doc = {
            "seed": self.seed,
            "dim": self.dim,
            "extents": self.extents,
            "side": self.side,
            "families": [dict(f) for f in self.families],
        }
        if path is None:
            return doc
        Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return None

    @classmethod
    def from_json(cls, source) -> "CorpusSpec":
        doc = source if isinstance(source, dict) else json.loads(
            Path(source).read_text(encoding="utf-8")
        )
        check_keys(doc, cls, "corpus spec")
        families = []
        for fam in doc.get("families", []):
            if isinstance(fam, dict) and "eps_ladder" in fam:
                fam = dict(fam, eps_ladder=tuple(fam["eps_ladder"]))
            families.append(fam)
        try:
            return cls(
                seed=int(doc.get("seed", 0)),
                dim=int(doc.get("dim", 2)),
                extents=int(doc.get("extents", 256)),
                side=float(doc.get("side", 1.0)),
                families=tuple(families) if families else cls.families,
            )
        except OverflowError as exc:  # int() of an infinite float, here or in a family check
            raise ValueError(f"corpus spec value out of range: {exc}") from exc


def check_keys(doc, cls, what: str) -> None:
    """Reject a JSON document that is not an object or has keys that are not fields of ``cls``."""
    if not isinstance(doc, dict):
        raise ValueError(f"a {what} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")


def _check_whole(kind: str, key: str, value, least: int, floats: bool = False) -> None:
    """Reject a family value that is not an int >= ``least``; with ``floats``, 4.0 counts as 4."""
    whole = isinstance(value, numbers.Integral) or floats and isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole or value < least:
        raise ValueError(f"{kind}: {key} must be an integer >= {least}, not {value!r}")


def _cell_axes(extents: tuple[int, ...], spacing: float):
    return [(np.arange(n) + 0.5) * spacing for n in extents]


def _radial_distance(extents, spacing, center):
    grids = np.meshgrid(*_cell_axes(extents, spacing), indexing="ij")
    return np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, center)))


def _zero_margin(values: np.ndarray, cells: int = 2) -> np.ndarray:
    for ax in range(values.ndim):
        sl = [slice(None)] * values.ndim
        sl[ax] = slice(0, cells)
        values[tuple(sl)] = 0.0
        sl[ax] = slice(-cells, None)
        values[tuple(sl)] = 0.0
    return values


def cone_grid(
    extents: int = 512,
    dim: int = 2,
    side: float = 2.2,
    radius: float = 1.0,
    height: float = 1.0,
    center: tuple | None = None,
) -> GridFunction:
    """Radial cone height*(1 - |x-c|/radius)_+ sampled at cell centers."""
    shape = (extents,) * dim
    spacing = side / extents
    if center is None:
        center = (side / 2.0,) * dim
    if radius + max(abs(c - side / 2.0) for c in center) > side / 2.0 - 2.5 * spacing:
        raise ValueError("cone support must keep a two-cell margin")
    dist = _radial_distance(shape, spacing, center)
    values = height * np.clip(1.0 - dist / radius, 0.0, None)
    return GridFunction(spacing, values)


def tent_grid(extents: int = 4096, side: float = 1.0) -> GridFunction:
    """1-d tent min(x, side - x) with a two-cell zero collar."""
    spacing = side / extents
    x = (np.arange(extents) + 0.5) * spacing
    values = np.minimum(x, side - x)
    values = np.clip(values - 2.5 * spacing, 0.0, None)  # zero collar at the ends
    return GridFunction(spacing, values)


def _box_average_axis(arr: np.ndarray, axis: int, radius: int) -> np.ndarray:
    window = 2 * radius + 1
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (radius, radius)
    padded = np.pad(arr, pad)
    csum = np.cumsum(padded, axis=axis, dtype=float)
    zshape = list(csum.shape)
    zshape[axis] = 1
    csum = np.concatenate([np.zeros(zshape), csum], axis=axis)
    n = arr.shape[axis]
    hi = csum.take(range(window, window + n), axis=axis)
    lo = csum.take(range(0, n), axis=axis)
    return (hi - lo) / window


def _box_blur(values: np.ndarray, radius: int, passes: int = 3) -> np.ndarray:
    """Iterated box average with window 2*radius+1 per axis, zero padded."""
    out = values
    for _ in range(passes):
        for ax in range(out.ndim):
            out = _box_average_axis(out, ax, radius)
    return out


# One builder per family kind.  A builder's keyword parameters are the keys a
# family entry may set; nothing else declares them.  Builders draw from the
# shared generator in corpus order, so a spec always gives the same bytes.


def _cone(spec: CorpusSpec, rng, *, count=1, radius=None, height=1.0):
    radius = 0.35 * spec.side if radius is None else radius
    center = (spec.side / 2.0,) * spec.dim
    return [
        cone_grid(spec.extents, spec.dim, spec.side, radius, height, center)
        for _ in range(count)
    ]


def _tensor_bump(spec: CorpusSpec, rng, *, count=1, widths=None):
    shape = (spec.extents,) * spec.dim
    h, side = spec.spacing, spec.side
    out = []
    for _ in range(count):
        w = widths
        if w is None:
            w = tuple(side * rng.uniform(0.18, 0.32) for _ in range(spec.dim))
        c = tuple(
            side / 2.0 + side * rng.uniform(-0.08, 0.08) for _ in range(spec.dim)
        )
        axes = _cell_axes(shape, h)
        values = np.ones(shape)
        for ax, (xs, wa, cc) in enumerate(zip(axes, w, c)):
            u = np.clip(np.abs(xs - cc) / wa, 0.0, 1.0)
            prof = np.cos(np.pi * u / 2.0) ** 2
            prof[u >= 1.0] = 0.0
            sl = [None] * spec.dim
            sl[ax] = slice(None)
            values = values * prof[tuple(sl)]
        _zero_margin(values)
        out.append(GridFunction(h, values))
    return out


def _mollified_disk(spec: CorpusSpec, rng, *, radius=None, eps_ladder=(0.2, 0.1, 0.05)):
    shape = (spec.extents,) * spec.dim
    h, side = spec.spacing, spec.side
    radius = 0.25 * side if radius is None else radius
    center = (side / 2.0,) * spec.dim
    out = []
    for eps_rel in eps_ladder:
        mask = disk_mask(shape, h, center, radius)
        out.append(indicator_mollify(mask, h, max(eps_rel * side, h)))
    return out


NOISE_RADIUS = 4  # default box-smoothing radius of smoothed_noise, in cells


def _noise_margin(extents: int, radius) -> int:
    """Zero collar of a smoothed_noise function, in cells; the grid must hold two."""
    _check_whole("smoothed_noise", "radius", radius, 0, floats=True)
    margin = 2 + int(radius) * 3 + 2
    if 2 * margin >= extents:
        raise ValueError("grid too small for the requested smoothing radius")
    return margin


def _smoothed_noise(spec: CorpusSpec, rng, *, count=1, radius=NOISE_RADIUS):
    shape = (spec.extents,) * spec.dim
    margin = _noise_margin(spec.extents, radius)
    out = []
    for _ in range(count):
        raw = rng.uniform(-0.5, 1.0, size=shape)
        inner = np.zeros(shape)
        core = tuple(slice(margin, -margin) for _ in range(spec.dim))
        inner[core] = raw[core]
        smooth = _box_blur(inner, int(radius))
        values = np.clip(smooth, 0.0, None)
        _zero_margin(values)
        out.append(GridFunction(spec.spacing, values))
    return out


def _multi_bump(spec: CorpusSpec, rng, *, count=1, bumps=3):
    shape = (spec.extents,) * spec.dim
    h, side = spec.spacing, spec.side
    out = []
    for _ in range(count):
        values = np.zeros(shape)
        for _ in range(bumps):
            radius = side * rng.uniform(0.08, 0.18)
            c = tuple(
                rng.uniform(radius + 3 * h, side - radius - 3 * h)
                for _ in range(spec.dim)
            )
            dist = _radial_distance(shape, h, c)
            values += rng.uniform(0.4, 1.0) * np.clip(1.0 - dist / radius, 0.0, None)
        _zero_margin(values)
        out.append(GridFunction(h, values))
    return out


FAMILIES = {
    "cone": _cone,
    "tensor_bump": _tensor_bump,
    "mollified_disk": _mollified_disk,
    "smoothed_noise": _smoothed_noise,
    "multi_bump": _multi_bump,
}


def _family_kwargs(fam) -> dict:
    """A family entry's keys but ``kind``; the kind and every key must be its builder's."""
    if not isinstance(fam, dict) or fam.get("kind") not in FAMILIES:
        kind = fam.get("kind") if isinstance(fam, dict) else fam
        raise ValueError(f"unknown corpus family {kind!r}; known kinds are {sorted(FAMILIES)}")
    accepted = list(inspect.signature(FAMILIES[fam["kind"]]).parameters)[2:]
    keys = {k: v for k, v in fam.items() if k != "kind"}
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        raise ValueError(f"{fam['kind']}: unknown keys {unknown}; accepted keys are {accepted}")
    return keys


def generate_corpus(spec: CorpusSpec) -> list[tuple[str, GridFunction]]:
    """Deterministic (function_id, GridFunction) list for a corpus spec."""
    rng = np.random.default_rng(spec.seed)
    out: list[tuple[str, GridFunction]] = []
    for fam in spec.families:
        built = FAMILIES[fam["kind"]](spec, rng, **_family_kwargs(fam))
        for i, gf in enumerate(built):
            out.append((f"{fam['kind']}_{i:02d}", gf))
    return out
