"""Mass functions, grid functions, and the elementary norms built on them."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = [
    "MassFunction",
    "GridFunction",
    "grid_to_mass",
    "support_measure",
    "lp_norm",
]


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

    A scalar ``masses`` gives every atom that mass (a grid's cells, say); the
    values are then sorted directly instead of through a stable permutation.
    """

    __slots__ = ("values", "masses", "cum_masses", "breakpoints")

    def __init__(self, values, masses):
        values = np.atleast_1d(np.asarray(values, dtype=float))
        masses = np.asarray(masses, dtype=float)
        uniform = masses.ndim == 0
        masses = np.full(values.shape, masses) if uniform else np.atleast_1d(masses)
        if values.shape != masses.shape or values.ndim != 1:
            raise ValueError("values and masses must be 1-d arrays of equal length")
        if values.size == 0:
            raise ValueError("a mass function needs at least one atom")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(masses)):
            raise ValueError("atoms must be finite")
        if np.any(values < 0):
            raise ValueError("atom values must be nonnegative")
        if np.any(masses <= 0):
            raise ValueError("atom masses must be positive")

        if uniform:
            # equal masses make the order of tied values irrelevant: no permutation needed
            v, m = np.sort(values)[::-1], masses
        else:
            order = np.argsort(-values, kind="stable")
            v = values[order]
            m = masses[order]
            del order  # one cell-sized array less at the peak of the build
        # merge exact ties so the canonical form has strictly decreasing values
        cut = np.flatnonzero(v[1:] != v[:-1]) + 1
        starts = np.concatenate(([0], cut))
        self.values = v[starts]
        if self.values[-1] == 0.0:
            self.values[-1] = 0.0  # -0.0 ties with 0.0; store the zero atom as +0.0
        self.breakpoints = np.empty(self.values.size + 1)
        self.breakpoints[0] = 0.0
        with np.errstate(over="ignore"):  # an overflow is reported below, as a ValueError
            self.masses = np.add.reduceat(m, starts)
            self.cum_masses = np.cumsum(self.masses, out=self.breakpoints[1:])
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
        if not (spacing > 0) or not math.isfinite(spacing):
            raise ValueError("spacing must be a positive finite real")
        if any(n < 3 for n in values.shape):
            raise ValueError("every axis needs at least 3 cells")
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
        if path is None:
            return doc
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        return None

    @classmethod
    def from_json(cls, source) -> "GridFunction":
        if isinstance(source, dict):
            doc = source
        else:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        extents = tuple(int(n) for n in doc["extents"])
        if int(doc["dim"]) != len(extents):
            raise ValueError("dim does not match the number of extents")
        values = np.asarray(doc["values"], dtype=float).reshape(extents)
        return cls(float(doc["spacing"]), values)


def grid_to_mass(f: GridFunction) -> MassFunction:
    """One atom per cell with value |f(cell)| and mass h**dim.

    Equal values (all the zero cells in particular) merge into single atoms;
    the total mass equals the domain measure.
    """
    return MassFunction(np.abs(f.values.ravel()), f.cell_measure)


def support_measure(f: MassFunction, threshold: float = 0.0) -> float:
    """Total mass of atoms with value strictly above ``threshold``."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    k = int(np.count_nonzero(f.values > threshold))
    return float(f.cum_masses[k - 1]) if k else 0.0


def require_finite_p(p: float) -> None:
    """Reject an exponent that is not a finite real >= 1; an infinite or NaN p fails too."""
    if not 1 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")


def lp_norm(f: MassFunction, p: float) -> float:
    """(sum value**p * mass)**(1/p); the max value for p = inf."""
    if math.isinf(p):
        return f.max_value
    if p < 1:
        raise ValueError("p must be >= 1")
    total = float(np.dot(f.values**p, f.masses))
    return total ** (1.0 / p)
