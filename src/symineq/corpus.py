"""Deterministic grid-function corpora for the verification suites.

A corpus spec (seed, grid geometry, family list) fully determines the
generated functions: generation order is the listed order, randomness comes
from one seeded generator, and smoothing is iterated box averaging so the
bytes are reproducible across platforms.  Every function keeps its support at
least two cells inside the domain boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .measure import (
    BAD_VALUE, GridFunction, _cell_axes, _squared_distance, check_whole, declared_keys, read_document,
    require_finite_measure, write_document,
)
from .isoperimetry import disk_mask, mollify_ladder

__all__ = ["CorpusSpec", "generate_corpus", "cone_grid", "tent_grid"]

# The most cells (of one function, or of a family's functions or bumps) a spec may ask for.
_INDEX_LIMIT = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic description of a grid-function corpus.

    Checked when constructed: seed, dim and extents must be whole (64.0 is 64),
    there must be a family, every family kind and key must be known, counts
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
        for key, least in (("seed", 0), ("dim", 1), ("extents", 1)):
            value = check_whole("corpus spec", key, getattr(self, key), least, floats=True)
            object.__setattr__(self, key, value)
        object.__setattr__(self, "side", float(self.side))
        # ladders as tuples, so a spec read back from JSON equals the one written
        families = tuple(
            dict(f, eps_ladder=tuple(f["eps_ladder"])) if isinstance(f, dict) and "eps_ladder" in f else f
            for f in self.families
        )
        object.__setattr__(self, "families", families)
        if not families:
            raise ValueError("a corpus spec needs at least one family")
        if self.extents < 16:
            raise ValueError("grid too small for the corpus features")
        # bounded before any power or shape of dim is built: at extents >= 16, dim 16 is past the limit
        cells = self.extents**self.dim if self.dim < 16 and self.extents <= _INDEX_LIMIT else _INDEX_LIMIT + 1
        if cells > _INDEX_LIMIT:
            raise ValueError(f"corpus spec: extents ** dim is past the {_INDEX_LIMIT} cells numpy can index")
        require_finite_measure(self.spacing, (self.extents,) * self.dim)
        for fam in families:
            keys = _family_kwargs(fam)
            for key in sorted({"count", "bumps"}.intersection(keys)):
                if check_whole(fam["kind"], key, keys[key], 1) > _INDEX_LIMIT // cells:
                    raise ValueError(f"{fam['kind']}: {key} times {cells} cells is past what numpy can index")
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
        return doc if path is None else write_document(doc, path, indent=2)

    @classmethod
    def from_json(cls, source) -> "CorpusSpec":
        return read_document(source, "corpus spec", [f.name for f in fields(cls)], lambda doc: cls(**doc))


def _require_positive(kind: str, key: str, value, count: int | None = None) -> None:
    """Reject a ``value`` that is not a finite real > 0, or with ``count`` not a list of ``count`` of them, naming ``kind``."""
    try:
        items = [value] if count is None else list(value)
        ok = len(items) == (count or 1) and all(0 < v < math.inf for v in items)
    except TypeError:  # not a number, or not a list of numbers
        ok = False
    if not ok:
        must = "a finite value > 0" if count is None else f"{count} finite values > 0"
        raise ValueError(f"{kind}: {key} must be {must}, not {value!r}")


def _zero_margin(values: np.ndarray, width: int = 2) -> None:
    """Zero the ``width`` outermost cells at both ends of every axis, in place."""
    for ax in range(values.ndim):
        along = np.moveaxis(values, ax, 0)
        along[:width] = 0.0
        along[-width:] = 0.0


def cone_grid(
    extents: int = 512,
    dim: int = 2,
    side: float = 2.2,
    radius: float = 1.0,
    height: float = 1.0,
    center: tuple | None = None,
) -> GridFunction:
    """Radial cone height*(1 - |x-c|/radius)_+ sampled at cell centers."""
    _require_positive("cone", "radius", radius)
    shape = (extents,) * dim
    spacing = side / extents
    if center is None:
        center = (side / 2.0,) * dim
    if radius + max(abs(c - side / 2.0) for c in center) > side / 2.0 - 2.5 * spacing:
        raise ValueError("cone support must keep a two-cell margin")
    # height * (1 - dist / radius)_+, built in place in that order
    values = _squared_distance(shape, spacing, center)
    np.sqrt(values, out=values)
    values /= radius
    np.subtract(1.0, values, out=values)
    np.clip(values, 0.0, None, out=values)
    values *= height
    return GridFunction(spacing, values)


def tent_grid(extents: int = 4096, side: float = 1.0) -> GridFunction:
    """1-d tent min(x, side - x) with a two-cell zero collar."""
    spacing = side / extents
    x = (np.arange(extents) + 0.5) * spacing
    values = np.minimum(x, side - x)
    values = np.clip(values - 2.5 * spacing, 0.0, None)  # zero collar at the ends
    return GridFunction(spacing, values)


def _box_blur(values: np.ndarray, radius: int) -> np.ndarray:
    """Three iterated box averages with window 2*radius+1 per axis, zero padded, as a fresh array."""
    window = 2 * radius + 1
    out = values
    for _ in range(3):
        for ax in range(out.ndim):
            # one zero cell more in front makes the running sum start at 0: the window
            # sums are then the differences of two slices of one cumsum, taken in place
            pad = [(0, 0)] * out.ndim
            pad[ax] = (radius + 1, radius)
            csum = np.pad(out, pad)
            np.cumsum(csum, axis=ax, out=csum)
            hi, lo = [slice(None)] * out.ndim, [slice(None)] * out.ndim
            hi[ax], lo[ax] = slice(window, None), slice(None, -window)
            out = csum[tuple(hi)] - csum[tuple(lo)]
            del csum  # before the next axis pads a copy of out
            out /= window
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
    if widths is not None:
        _require_positive("tensor_bump", "widths", widths, spec.dim)
    out = []
    for _ in range(count):
        w = widths
        if w is None:
            w = tuple(side * rng.uniform(0.18, 0.32) for _ in range(spec.dim))
        c = tuple(
            side / 2.0 + side * rng.uniform(-0.08, 0.08) for _ in range(spec.dim)
        )
        values = np.ones(shape)
        for ax, (xs, wa, cc) in enumerate(zip(_cell_axes(shape, h), w, c)):
            u = np.clip(np.abs(xs - cc) / wa, 0.0, 1.0)
            prof = np.cos(np.pi * u / 2.0) ** 2
            prof[u >= 1.0] = 0.0
            sl = [None] * spec.dim
            sl[ax] = slice(None)
            values *= prof[tuple(sl)]
        _zero_margin(values)
        out.append(GridFunction(h, values))
    return out


def _mollified_disk(spec: CorpusSpec, rng, *, radius=None, eps_ladder=(0.2, 0.1, 0.05)):
    shape = (spec.extents,) * spec.dim
    h, side = spec.spacing, spec.side
    radius = 0.25 * side if radius is None else radius
    _require_positive("mollified_disk", "radius", radius)
    center = (side / 2.0,) * spec.dim
    mask = disk_mask(shape, h, center, radius)
    return mollify_ladder(mask, h, [max(eps_rel * side, h) for eps_rel in eps_ladder])


NOISE_RADIUS = 4  # default box-smoothing radius of smoothed_noise, in cells


def _noise_margin(extents: int, radius) -> int:
    """Zero collar of a smoothed_noise function, in cells; the grid must hold two."""
    margin = 2 + check_whole("smoothed_noise", "radius", radius, 0, floats=True) * 3 + 2
    if 2 * margin >= extents:
        raise ValueError("grid too small for the requested smoothing radius")
    return margin


def _smoothed_noise(spec: CorpusSpec, rng, *, count=1, radius=NOISE_RADIUS):
    shape = (spec.extents,) * spec.dim
    margin = _noise_margin(spec.extents, radius)
    out = []
    for _ in range(count):
        raw = rng.uniform(-0.5, 1.0, size=shape)
        _zero_margin(raw, margin)
        values = _box_blur(raw, int(radius))
        np.clip(values, 0.0, None, out=values)
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
            values += cone_grid(spec.extents, spec.dim, side, radius, rng.uniform(0.4, 1.0), c).values
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
    if not isinstance(fam, dict):
        raise ValueError(f"a corpus family must be an object with a kind, not {fam!r}")
    return declared_keys(FAMILIES, fam.get("kind"), fam, 2, "kind")[1]


def generate_corpus(spec: CorpusSpec) -> list[tuple[str, GridFunction]]:
    """Deterministic (function_id, GridFunction) list for a corpus spec.

    A value of the wrong type (``"radius": "abc"``) or past the float range is
    only found while its family is built; it raises ValueError naming the family.
    """
    rng = np.random.default_rng(spec.seed)
    out: list[tuple[str, GridFunction]] = []
    for fam in spec.families:
        try:
            built = FAMILIES[fam["kind"]](spec, rng, **_family_kwargs(fam))
        except BAD_VALUE as exc:
            raise ValueError(f"{fam['kind']}: {exc}") from exc
        for i, gf in enumerate(built):
            out.append((f"{fam['kind']}_{i:02d}", gf))
    return out
