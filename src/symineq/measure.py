"""Mass functions, grid functions, and the elementary norms built on them."""

from __future__ import annotations

import inspect
import json
import math
import numbers
from pathlib import Path

import numpy as np

__all__ = [
    "support_box",
    "MassFunction",
    "GridFunction",
    "grid_to_mass",
    "box_to_mass",
    "support_measure",
    "lp_norm",
]


def support_box(values: np.ndarray) -> tuple:
    """The bounding box of the nonzero cells of ``values``, grown by one cell and clamped to the grid.

    It is a tuple of slices, one per axis.  Every cell off it is 0, and so
    is each axis neighbour of such a cell, so a gradient, a stencil maximum
    or a product of functions is 0 there too.  -0.0 counts as zero.  An
    array with no nonzero cell gets the whole grid.
    """
    nonzero = values != 0
    box = []
    for ax, n in enumerate(values.shape):
        # the slabs along this axis that hold a nonzero cell; the next axis looks only between them
        hit = np.flatnonzero(nonzero.reshape(nonzero.shape[0], -1).any(axis=1))
        if not hit.size:
            return tuple(slice(0, n) for n in values.shape)
        lo, hi = int(hit[0]), int(hit[-1]) + 1
        box.append(slice(max(lo - 1, 0), min(hi + 1, n)))
        if ax + 1 < values.ndim:
            nonzero = nonzero[lo:hi].any(axis=0)
    return tuple(box)


class MassFunction:
    """Finite weighted multiset of nonnegative values.

    This is the distributional fingerprint of |f| on a measure space: each
    atom is a (value, mass) pair.  Atoms are kept in canonical form -- values
    strictly decreasing with exact ties merged, every mass positive -- so that
    the decreasing rearrangement is a pure prefix scan over the atoms.

    The cumulative-mass array is cached and shared by every downstream
    operation; quantities that are equal in exact arithmetic (distribution
    function of the mass function vs. of its rearrangement, say) then come out
    bitwise equal.  It is stored as the tail of ``breakpoints`` =
    [0, cum_masses...], which the decreasing rearrangement uses as is.

    A scalar ``masses`` m gives every atom that mass (a grid's cells, say).
    The values are then sorted directly instead of through a stable
    permutation, and the masses come from run lengths: an atom of k tied
    cells has mass k*m, and the breakpoint after the first j cells is j*m.
    Each is one correctly rounded product of an exact integer, so on a
    dyadic m (a power of two) it equals the running sum of the per-cell
    masses bit for bit.

    With a scalar mass, ``zeros`` more atoms of value 0 are counted, not
    stored: they join the zero atom's run after the sort (the cells off a
    grid function's support box, say), so they are never sorted.

    ``_sort_in_place`` is for this package's own builders: ``values`` is then
    a float64 array that the builder made and reads no more, and with a
    scalar mass it is sorted where it lies instead of copied first.  A
    caller's array is never written.
    """

    __slots__ = ("values", "masses", "cum_masses", "breakpoints")

    def __init__(self, values, masses, *, zeros: int = 0, _sort_in_place=False):
        values = np.atleast_1d(np.asarray(values, dtype=float))
        masses = np.asarray(masses, dtype=float)
        uniform = masses.ndim == 0
        if values.ndim != 1 or (not uniform and masses.shape != values.shape):
            raise ValueError("values and masses must be 1-d arrays of equal length")
        if zeros and not uniform:
            raise ValueError("counted zeros need a scalar mass")
        if values.size + zeros == 0:
            raise ValueError("a mass function needs at least one atom")
        if uniform:
            m = float(masses)
            if not math.isfinite(m):
                raise ValueError("atoms must be finite")
            if not m > 0:
                raise ValueError("atom masses must be positive")
            # equal masses make the order of tied values irrelevant: no permutation needed
            if _sort_in_place:
                values.sort()
                v = values[::-1]
            else:
                v = np.sort(values)[::-1]
            if zeros and not (v.size and v[-1] == 0):
                v = np.append(v, 0.0)  # no stored zero for the counted ones to join: one is stored
                zeros -= 1
        else:
            if not np.all(np.isfinite(masses)):
                raise ValueError("atoms must be finite")
            if np.any(masses <= 0):
                raise ValueError("atom masses must be positive")
            order = np.argsort(-values, kind="stable")
            v = values[order]
            m = masses[order]
            del order  # one cell-sized array less at the peak of the build
        # sorted, the extreme values (NaN and infinities included) sit at the two ends
        if not (math.isfinite(v[0]) and math.isfinite(v[-1])):
            raise ValueError("atoms must be finite")
        if v[-1] < 0:
            raise ValueError("atom values must be nonnegative")
        # merge exact ties so the canonical form has strictly decreasing values:
        # bounds = [0, ..., len(v)] are the edges of the runs of tied values
        edge = np.empty(v.size + 1, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(v[1:], v[:-1], out=edge[1:-1])
        bounds = np.flatnonzero(edge)
        del edge
        bounds[-1] += zeros  # the zero atom's run, which ends the sorted values, takes the counted zeros
        self.values = v[bounds[:-1]]
        del v  # the sorted copy, before the mass arrays are made
        if self.values[-1] == 0.0:
            self.values[-1] = 0.0  # -0.0 ties with 0.0; store the zero atom as +0.0
        self.breakpoints = np.empty(bounds.size)
        self.cum_masses = self.breakpoints[1:]
        with np.errstate(over="ignore"):  # an overflow is reported below, as a ValueError
            if uniform:
                # run-length masses: one rounding of (exact integer) * m each
                np.multiply(bounds, m, out=self.breakpoints)
                self.masses = np.subtract(bounds[1:], bounds[:-1], dtype=float)
                self.masses *= m
            else:
                self.breakpoints[0] = 0.0
                self.masses = np.add.reduceat(m, bounds[:-1])
                np.cumsum(self.masses, out=self.cum_masses)
        if not math.isfinite(self.cum_masses[-1]):
            raise ValueError("the total mass overflows a float")

    @classmethod
    def from_atoms(cls, atoms) -> "MassFunction":
        pairs = list(atoms)
        return cls([p[0] for p in pairs], [p[1] for p in pairs])

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.masses.tolist()))

    @property
    def total_mass(self) -> float:
        return float(self.cum_masses[-1])

    @property
    def max_value(self) -> float:
        return float(self.values[0])

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"MassFunction({len(self)} atoms, total_mass={self.total_mass:g})"


class GridFunction:
    """Real-valued function sampled on a uniform n-dimensional grid.

    Models a compactly supported Lipschitz function: values must vanish on the
    outermost cell layer, every axis needs at least 3 cells, and the cell
    spacing ``h`` is uniform across axes.  Cells carry measure ``h**dim``.
    """

    __slots__ = ("spacing", "values")

    def __init__(self, spacing: float, values):
        values = np.asarray(values, dtype=float)
        if values.ndim < 1:
            raise ValueError("grid values must have at least one axis")
        if any(n < 3 for n in values.shape):
            raise ValueError("every axis needs at least 3 cells")
        require_finite_measure(spacing, values.shape)
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        for ax in range(values.ndim):
            if np.any(values.take(0, axis=ax)) or np.any(values.take(-1, axis=ax)):
                raise ValueError(
                    "values must vanish on the outermost cell layer "
                    "(compact support inside the domain)"
                )
        self.spacing = float(spacing)
        self.values = values

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def extents(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def shape_label(self) -> str:
        """The extents as written in reports, e.g. "256x256"."""
        return "x".join(str(n) for n in self.extents)

    @property
    def cell_measure(self) -> float:
        return self.spacing**self.dim

    @property
    def domain_measure(self) -> float:
        return self.cell_measure * self.values.size

    def __repr__(self) -> str:
        return f"GridFunction({self.shape_label}, h={self.spacing:g})"

    # -- serialization: JSON header plus row-major cell values ---------------

    def to_json(self, path=None):
        doc = {
            "dim": self.dim,
            "spacing": self.spacing,
            "extents": list(self.extents),
            "values": self.values.ravel().tolist(),
        }
        return doc if path is None else write_document(doc, path)

    @classmethod
    def from_json(cls, source) -> "GridFunction":
        def build(doc):
            extents = tuple(check_whole("grid function", "extents", n, 1, floats=True) for n in doc["extents"])
            if check_whole("grid function", "dim", doc["dim"], 1, floats=True) != len(extents):
                raise ValueError("dim does not match the number of extents")
            values = np.asarray(doc["values"], dtype=float).reshape(extents)
            return cls(float(doc["spacing"]), values)

        return read_document(source, "grid function", ("dim", "spacing", "extents", "values"), build)


# -- input documents: one reader, one writer, one home for key checks ----------

BAD_VALUE = (TypeError, OverflowError)  # what a build raises on a mistyped value or an int past the float range


def read_document(source, what: str, keys, build):
    """``build(doc)`` for the JSON object ``source``, a dict or the path of a file holding one.

    ``keys`` are its keys, or a dict of the keys of each ``"kind"``.  No object,
    an unknown kind or key, or a build raising KeyError or ``BAD_VALUE`` raises
    ValueError naming ``what``.  Pass an object nested in a document through
    ``json_object`` first: a string in a document never names a file.
    """
    doc = source if isinstance(source, dict) else json.loads(Path(source).read_text(encoding="utf-8"))
    json_object(doc, what)
    if isinstance(keys, dict):
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in keys:
            raise ValueError(f"unknown {what} kind {kind!r}")
        what, keys = f"{kind} {what}", ("kind", *keys[kind])
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    try:
        return build(doc)
    except KeyError as exc:
        raise ValueError(f"{what}: missing key {exc}") from exc
    except BAD_VALUE as exc:
        raise ValueError(f"{what}: {exc}") from exc


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"a {what} must be a JSON object, not {type(value).__name__}")
    return value


def write_document(doc, path, indent: int | None = None) -> None:
    """Write ``doc`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(doc, indent=indent), encoding="utf-8")


def check_whole(what: str, key: str, value, least: int, floats: bool = False) -> int:
    """``value`` as an int if it is one >= ``least`` (no bool; with ``floats``, 4.0 is 4), else ValueError."""
    whole = isinstance(value, numbers.Integral) or floats and isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole or value < least:
        raise ValueError(f"{what}: {key} must be an integer >= {least}, not {value!r}")
    return int(value)


def declared_keys(registry: dict, name, entry: dict, skip: int, noun: str, exclude=()) -> tuple[list, dict]:
    """The keys an entry may set, and its own keys: all but ``noun``, the key that names ``registry[name]``.

    That callable's parameters after its first ``skip``, less ``exclude``, are
    the keys an entry may set; nothing else declares them.  An unknown name
    or key raises ValueError.
    """
    if not (isinstance(name, str) and name in registry):
        raise ValueError(f"unknown {noun} {name!r}; known {noun}s are {sorted(registry)}")
    accepted = [k for k in list(inspect.signature(registry[name]).parameters)[skip:] if k not in exclude]
    keys = {k: v for k, v in entry.items() if k != noun}
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        raise ValueError(f"{name}: unknown keys {unknown}; accepted keys are {accepted}")
    return accepted, keys


def grid_to_mass(f: GridFunction) -> MassFunction:
    """One atom per cell with value |f(cell)| and mass h**dim.

    Equal values (all the zero cells in particular) merge into single atoms;
    the total mass equals the domain measure.  Only the cells of f's support
    box (``support_box``) are sorted, by ``box_to_mass``: the others are 0
    and join the zero atom by count, so the atoms, masses and breakpoints
    are those of sorting every cell, bit for bit.
    """
    return box_to_mass(f.values[support_box(f.values)], f.values.size, f.cell_measure)


def box_to_mass(on_box: np.ndarray, cells: int, cell_measure: float) -> MassFunction:
    """The mass function of |v|, for the values v of ``cells`` cells that are ``on_box`` on a box and 0 elsewhere.

    Each cell is an atom of mass ``cell_measure``.  |v| on the box is a
    fresh array, sorted where it lies; the ``cells - on_box.size`` cells off
    the box join the zero atom by count.
    """
    work = np.abs(on_box).reshape(-1)
    return MassFunction(work, cell_measure, zeros=cells - work.size, _sort_in_place=True)


def support_measure(f: MassFunction, threshold: float = 0.0) -> float:
    """Total mass of atoms with value strictly above ``threshold``."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    k = int(np.count_nonzero(f.values > threshold))
    return float(f.cum_masses[k - 1]) if k else 0.0


def _cell_axes(extents, spacing: float) -> list[np.ndarray]:
    """The cell-centre coordinates along each axis of a grid."""
    return [(np.arange(n) + 0.5) * spacing for n in extents]


def _squared_distance(extents, spacing: float, center) -> np.ndarray:
    """The squared distance from every cell centre to ``center``, summed axis by axis over open axes."""
    d2 = np.zeros(tuple(extents))
    for square in np.ix_(*[(x - c) ** 2 for x, c in zip(_cell_axes(extents, spacing), center)]):
        d2 += square
    return d2


def require_finite_measure(spacing: float, extents) -> None:
    """Reject a grid spacing that is not a positive finite real, or whose cell
    measure spacing**dim or domain measure is 0 or not finite."""
    if not 0 < spacing < math.inf:
        raise ValueError("spacing must be a positive finite real")
    try:
        domain = float(spacing) ** len(extents) * math.prod(extents)
    except OverflowError:  # a float power raises where numpy would give inf
        domain = math.inf
    if not 0 < domain < math.inf:
        raise ValueError("the cell measure spacing**dim and the domain measure must be positive and finite")


def require_finite_p(p: float) -> None:
    """Reject an exponent that is not a finite real >= 1; an infinite or NaN p fails too."""
    if not 1 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")


def lp_norm(f: MassFunction, p: float) -> float:
    """(sum value**p * mass)**(1/p); the max value for p = inf, and inf where the sum overflows."""
    if math.isinf(p):
        return f.max_value
    if p < 1:
        raise ValueError("p must be >= 1")
    # a pairwise sum, not np.dot: BLAS splits a long dot over its threads, so
    # its last bits would depend on the core count
    with np.errstate(over="ignore"):  # a sum past the float range reads inf
        terms = f.values**p
        terms *= f.masses
        return float(np.add.reduce(terms)) ** (1.0 / p)
