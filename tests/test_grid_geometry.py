"""Grid geometry on broadcast axes against the coordinate-grid formulas it replaces.

The oracles below are the corpus builders, the disk mask and the scalar
sweeps as they were written with ``np.meshgrid``: every cell's coordinates
stored in full, one array per axis.  The library versions sum the squared
distance axis by axis over open axes and build each result in place, in the
same elementwise order, so they must equal the oracles bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

import symineq as sq
from symineq import corpus, inequalities, measure
from symineq.isoperimetry import disk_mask, mollify_ladder
from test_stencils import same_bits


def _cell_axes(extents, spacing):
    return [(np.arange(n) + 0.5) * spacing for n in extents]


def mesh_squared_distance(extents, spacing, center):
    grids = np.meshgrid(*_cell_axes(extents, spacing), indexing="ij")
    return sum((g - c) ** 2 for g, c in zip(grids, center))


def mesh_cone(extents, spacing, center, radius, height):
    dist = np.sqrt(mesh_squared_distance(extents, spacing, center))
    return height * np.clip(1.0 - dist / radius, 0.0, None)


def zero_margin(values):
    for ax in range(values.ndim):
        along = np.moveaxis(values, ax, 0)
        along[:2] = 0.0
        along[-2:] = 0.0


def box_average_axis(arr, axis, radius):
    window = 2 * radius + 1
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (radius + 1, radius)
    csum = np.cumsum(np.pad(arr, pad), axis=axis, dtype=float)
    hi, lo = [slice(None)] * arr.ndim, [slice(None)] * arr.ndim
    hi[axis], lo[axis] = slice(window, None), slice(None, -window)
    return (csum[tuple(hi)] - csum[tuple(lo)]) / window


def mesh_cone_family(spec, rng, count=1, radius=None, height=1.0):
    radius = 0.35 * spec.side if radius is None else radius
    center = (spec.side / 2.0,) * spec.dim
    return [mesh_cone((spec.extents,) * spec.dim, spec.spacing, center, radius, height) for _ in range(count)]


def mesh_tensor_bump(spec, rng, count=1, widths=None):
    shape, h, side = (spec.extents,) * spec.dim, spec.spacing, spec.side
    out = []
    for _ in range(count):
        w = widths if widths is not None else tuple(side * rng.uniform(0.18, 0.32) for _ in range(spec.dim))
        c = tuple(side / 2.0 + side * rng.uniform(-0.08, 0.08) for _ in range(spec.dim))
        values = np.ones(shape)
        for ax, (xs, wa, cc) in enumerate(zip(_cell_axes(shape, h), w, c)):
            u = np.clip(np.abs(xs - cc) / wa, 0.0, 1.0)
            prof = np.cos(np.pi * u / 2.0) ** 2
            prof[u >= 1.0] = 0.0
            sl = [None] * spec.dim
            sl[ax] = slice(None)
            values = values * prof[tuple(sl)]
        zero_margin(values)
        out.append(values)
    return out


def mesh_mollified_disk(spec, rng, radius=None, eps_ladder=(0.2, 0.1, 0.05)):
    shape, h, side = (spec.extents,) * spec.dim, spec.spacing, spec.side
    radius = 0.25 * side if radius is None else radius
    mask = mesh_squared_distance(shape, h, (side / 2.0,) * spec.dim) <= radius**2
    return [gf.values for gf in mollify_ladder(mask, h, [max(e * side, h) for e in eps_ladder])]


def mesh_smoothed_noise(spec, rng, count=1, radius=corpus.NOISE_RADIUS):
    shape = (spec.extents,) * spec.dim
    margin = corpus._noise_margin(spec.extents, radius)
    out = []
    for _ in range(count):
        raw = rng.uniform(-0.5, 1.0, size=shape)
        inner = np.zeros(shape)
        core = tuple(slice(margin, -margin) for _ in range(spec.dim))
        inner[core] = raw[core]
        for _ in range(3):
            for ax in range(spec.dim):
                inner = box_average_axis(inner, ax, int(radius))
        values = np.clip(inner, 0.0, None)
        zero_margin(values)
        out.append(values)
    return out


def mesh_multi_bump(spec, rng, count=1, bumps=3):
    shape, h, side = (spec.extents,) * spec.dim, spec.spacing, spec.side
    out = []
    for _ in range(count):
        values = np.zeros(shape)
        for _ in range(bumps):
            radius = side * rng.uniform(0.08, 0.18)
            c = tuple(rng.uniform(radius + 3 * h, side - radius - 3 * h) for _ in range(spec.dim))
            dist = np.sqrt(mesh_squared_distance(shape, h, c))
            values += rng.uniform(0.4, 1.0) * np.clip(1.0 - dist / radius, 0.0, None)
        zero_margin(values)
        out.append(values)
    return out


MESH_FAMILIES = {
    "cone": mesh_cone_family,
    "tensor_bump": mesh_tensor_bump,
    "mollified_disk": mesh_mollified_disk,
    "smoothed_noise": mesh_smoothed_noise,
    "multi_bump": mesh_multi_bump,
}


def mesh_corpus(spec):
    rng = np.random.default_rng(spec.seed)
    out = []
    for fam in spec.families:
        kwargs = {k: v for k, v in fam.items() if k != "kind"}
        built = MESH_FAMILIES[fam["kind"]](spec, rng, **kwargs)
        out += [(f"{fam['kind']}_{i:02d}", values) for i, values in enumerate(built)]
    return out


def mesh_binomial_params(p, a_max, grid_points):
    k, c_p = inequalities.power_k(p), inequalities.oscillation_constant(p)
    axis = np.linspace(0.0, a_max, grid_points)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    keep = a >= b
    a, b = a[keep], b[keep]
    d = a - b
    series = np.zeros_like(a)
    for j in range(1, k + 1):
        series += inequalities.binomial_coefficient(p, j) * b ** (p - j) * d**j
    ap, bp = a**p, b**p
    lhs1, rhs1 = ap - bp - series, d**p
    lhs2, rhs2 = ap + bp + series, (c_p * a + b) ** p
    scale = np.maximum(1.0, ap)
    v1, v2 = (lhs1 - rhs1) / scale, (lhs2 - rhs2) / scale
    w1, w2 = int(np.argmax(v1)), int(np.argmax(v2))
    return {
        "worst_violation_part1": float(v1[w1]),
        "worst_violation_part2": float(v2[w2]),
        "worst_ab_part1": [float(a[w1]), float(b[w1])],
        "worst_ab_part2": [float(a[w2]), float(b[w2])],
        "max_abs_slack_part1": float(np.max(np.abs(rhs1 - lhs1))),
    }


def mesh_chain_sweep(r):
    axis = np.linspace(0.0, inequalities.SWEEP_A_MAX, inequalities.SWEEP_POINTS)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    lhs = np.abs(a**r - b**r)
    rhs = r * (a ** (r - 1.0) + b ** (r - 1.0)) * np.abs(a - b)
    ratios = inequalities._ratio(lhs, rhs)
    idx = int(np.argmax(ratios))
    return float(ratios.ravel()[idx]), float(a.ravel()[idx]), float(b.ravel()[idx])


ALL_FAMILIES = [
    {"kind": "cone"},
    {"kind": "tensor_bump", "count": 2},
    {"kind": "mollified_disk", "eps_ladder": [0.2, 0.1]},
    {"kind": "smoothed_noise", "count": 2, "radius": 2},
    {"kind": "multi_bump", "count": 2},
]


@pytest.mark.parametrize(
    "doc",
    [
        {"seed": 3, "dim": 1, "extents": 97, "side": 2.5, "families": ALL_FAMILIES},
        {"seed": 0, "dim": 2, "extents": 45, "side": 3.0, "families": ALL_FAMILIES},
        {"seed": 7, "dim": 2, "extents": 33, "side": 0.7, "families": ALL_FAMILIES},
        {"seed": 1, "dim": 3, "extents": 23, "side": 3.0, "families": ALL_FAMILIES},
    ],
    ids=["1d", "2d", "2d-small-side", "3d"],
)
def test_corpus_equals_the_meshgrid_builders(doc):
    spec = sq.CorpusSpec.from_json(doc)
    got = sq.generate_corpus(spec)
    want = mesh_corpus(spec)
    assert [fid for fid, _ in got] == [fid for fid, _ in want]
    for (fid, gf), (_, values) in zip(got, want):
        assert gf.spacing == spec.spacing
        assert same_bits(gf.values, values), fid


@pytest.mark.parametrize(
    "extents, spacing, center, radius",
    [
        ((41, 37), 0.1, (1.3, 2.45), 1.1),
        ((19, 24, 17), 0.25, (2.2, 3.1, 1.9), 1.6),
        ((101,), 0.01, (0.33,), 0.2),
    ],
)
def test_disk_mask_equals_the_meshgrid_mask(extents, spacing, center, radius):
    mask = disk_mask(extents, spacing, center, radius)
    assert mask.dtype == bool and np.array_equal(mask, mesh_squared_distance(extents, spacing, center) <= radius**2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.7, 4.7])
@pytest.mark.parametrize(
    "a_max, grid_points", [(inequalities.SWEEP_A_MAX, inequalities.SWEEP_POINTS), (0.0, 7), (5.0, 300)]
)
def test_binomial_sweep_equals_the_meshgrid_sweep(p, a_max, grid_points):
    report = sq.check_binomial_bounds(p, a_max=a_max, grid_points=grid_points)
    want = mesh_binomial_params(p, a_max, grid_points)
    assert {key: report.params[key] for key in want} == want
    # at a_max = 0 every lattice point is (0, 0), and the a >= b mask keeps them all
    if a_max == 0.0:
        assert want["worst_ab_part1"] == [0.0, 0.0]
    # 300 rows are swept in several blocks, the last one short
    if grid_points == 300:
        block = measure.BLOCK_CELLS // grid_points
        assert 1 < block < grid_points and grid_points % block


def test_binomial_sweep_memory_is_bounded_by_its_block():
    """At 1,600 points the a >= b lattice has 1.3M cells: the whole-lattice sweep peaked at 166 MiB."""
    report, peak = _traced_peak(lambda: sq.check_binomial_bounds(2.5, grid_points=1600))
    assert report.passed
    # about 13 float arrays of one block, its mask and its two index arrays
    assert peak < 24 * 8 * measure.BLOCK_CELLS, peak / 2**20


@pytest.mark.parametrize("r", [1.5, 2.0, 3.7, 4.7])
def test_chain_sweep_equals_the_meshgrid_sweep(r):
    inequalities._scalar_chain_sweep.cache_clear()
    assert inequalities._scalar_chain_sweep(r) == mesh_chain_sweep(r)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [sq.CorpusSpec(), sq.CorpusSpec(dim=3, extents=40)], ids=["2d", "3d"])
def test_generation_holds_few_cell_arrays_above_the_corpus(spec):
    built, peak = _traced_peak(lambda: sq.generate_corpus(spec))
    kept = sum(gf.values.nbytes for _, gf in built)
    cell_array = 8 * built[0][1].values.size
    # the meshgrid builders held 5 (2-d) and 6 (3-d) cell arrays above the corpus
    assert peak - kept <= 4 * cell_array, (peak - kept) / cell_array


def test_chain_sweep_holds_few_lattice_arrays():
    inequalities._scalar_chain_sweep.cache_clear()
    _, peak = _traced_peak(lambda: inequalities._scalar_chain_sweep(2.0))
    # the meshgrid sweep peaked at 7.3 MiB, six arrays of the 400 x 400 lattice
    assert peak < 6 * 2**20, peak / 2**20
