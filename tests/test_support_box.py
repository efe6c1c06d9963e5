"""Support-box kernels against whole-grid kernels, bit for bit.

Every kernel that reads f runs on f's support box: the bounding box of its
nonzero cells, grown by one cell and clamped to the grid.  The oracles here
sweep every cell, as the kernels did before: the pad-based gradient and
stencil maximum of test_stencils, and a sort of every cell's value.  Each
artifact, each report and each error must be the same.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_stencils import pad_chain_rule, pad_modulus, same_bits

import symineq as sq
from symineq.gradient import GRADIENT_MODES, PreparedFunction, prepare
from symineq.measure import GridFunction, MassFunction, support_box

_VALUES = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 2.5e-310, 1.0, 3.0, 1e50)), st.floats(0.0, 1e50))
_SPACINGS = (1.0, 0.1, 1.0 / 48)


def _fill(draw, shape, signed):
    """Values on a drawn box of the cells inside the outer layer; -0.0 anywhere off it, the outer layer too."""
    values = np.zeros(shape)
    if draw(st.booleans()):
        values[tuple(draw(st.integers(0, n - 1)) for n in shape)] = -0.0
    if draw(st.integers(0, 4)) == 0:
        return values  # the zero function
    box = []
    for n in shape:
        lo = draw(st.integers(1, n - 2))  # a single cell up to the outermost-but-one layer
        box.append(slice(lo, draw(st.integers(lo, n - 2)) + 1))
    cells = np.array(draw(st.lists(_VALUES, min_size=values[tuple(box)].size, max_size=values[tuple(box)].size)))
    if signed:
        cells *= draw(st.sampled_from((1.0, -1.0)))
    values[tuple(box)] = cells.reshape(values[tuple(box)].shape)
    return values


@st.composite
def grids(draw, signed=False):
    """2-d and 3-d grid functions of 3 to 9 cells per axis."""
    shape = tuple(draw(st.lists(st.integers(3, 9), min_size=2, max_size=3)))
    return GridFunction(draw(st.sampled_from(_SPACINGS)), _fill(draw, shape, signed))


@st.composite
def grid_pairs(draw):
    """Two grid functions on one grid, their boxes meeting or not."""
    f = draw(grids(signed=True))
    return f, GridFunction(f.spacing, _fill(draw, f.extents, True))


def _outcome(build):
    """What ``build()`` returns, or the type and message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return ("ValueError", str(exc))


def _whole_grid_modulus(f, mode):
    """The modulus over every cell, refused as a grid function would refuse it."""
    modulus = pad_modulus(f.values, f.spacing, mode)
    try:
        GridFunction(f.spacing, modulus)
    except ValueError:
        raise ValueError(
            "gradient support touches the domain boundary; keep function support at least two cells inside"
        ) from None
    if not np.any(modulus) and np.any(f.values):
        raise ValueError("nonzero function with zero gradient: malformed input")
    return modulus


def _arrays_of(artifact):
    if isinstance(artifact, tuple):
        return artifact
    if isinstance(artifact, MassFunction):
        return artifact.values, artifact.masses, artifact.breakpoints
    return artifact.breakpoints, artifact.levels


def _assert_same(got, want):
    if isinstance(want, tuple) and want and want[0] == "ValueError":
        assert got == want
        return
    assert not (isinstance(got, tuple) and got and got[0] == "ValueError"), got
    for a, b in zip(_arrays_of(got), _arrays_of(want), strict=True):
        assert same_bits(np.asarray(a), np.asarray(b))


def _expected_box(values):
    hit = np.argwhere(values != 0)
    if not hit.size:
        return tuple(slice(0, n) for n in values.shape)
    return tuple(slice(max(lo - 1, 0), min(hi + 2, n)) for lo, hi, n in zip(hit.min(0), hit.max(0), values.shape))


class TestArtifacts:
    @given(grids(signed=True))
    @example(GridFunction(1.0, np.zeros((3, 4))))
    @example(GridFunction(1.0, np.pad(np.array([[-0.0, 2.0]]), 1)))
    @settings(max_examples=200, deadline=None)
    def test_box_artifacts_equal_whole_grid_builds(self, f):
        pf = PreparedFunction(f)
        assert pf.box == support_box(f.values) == _expected_box(f.values)
        outside = np.ones(f.extents, dtype=bool)
        outside[pf.box] = False
        assert not np.any(f.values[outside])

        m = f.cell_measure
        mass = MassFunction(np.abs(f.values.ravel()), m)
        profile = sq.decreasing_rearrangement(mass)
        _assert_same(pf.mass(), mass)
        _assert_same(sq.grid_to_mass(f), mass)
        _assert_same(pf.profile(), profile)
        _assert_same(_outcome(lambda: pf.powered(2.0)), _outcome(lambda: sq.powered_profile(profile, 2.0)))

        for mode in GRADIENT_MODES:
            want = _outcome(lambda: _whole_grid_modulus(f, mode))
            got = _outcome(lambda: pf.grad(mode))
            if isinstance(want, tuple):
                assert got == want
                continue
            # the box's modulus, and 0 on every cell off it
            assert same_bits(got, want[pf.box]) and not np.any(want[outside])
            assert same_bits(sq.metric_gradient_modulus(f, mode).values, want)
            grad_mass = MassFunction(want.ravel(), m)
            _assert_same(pf.mass(mode), grad_mass)
            _assert_same(pf.profile(mode), sq.decreasing_rearrangement(grad_mass))


class TestChainRule:
    @given(grids(), st.sampled_from((1.5, 2.0, 3.0)), st.sampled_from(GRADIENT_MODES))
    @example(GridFunction(1.0, np.zeros((4, 3, 3))), 2.0, "metric_max")
    @settings(max_examples=200, deadline=None)
    def test_worst_ratio_and_location_equal_the_whole_grid(self, f, r, mode):
        expected = pad_chain_rule(f, r, mode)
        if expected is None:
            with pytest.raises(ValueError):
                sq.check_chain_rule(f, r=r, gradient_mode=mode)
            return
        report = sq.check_chain_rule(PreparedFunction(f), r=r, gradient_mode=mode)
        grid_worst, idx = expected
        assert same_bits(np.float64(report.params["grid_worst_ratio"]), np.float64(grid_worst))
        scalar_worst = report.params["scalar_worst_ratio"]
        location = float(idx) if grid_worst >= scalar_worst else report.params["scalar_worst_ab"][0]
        assert report.worst_location == location

    def test_the_location_is_the_whole_grid_index_of_the_first_maximum(self):
        """A plateau with a bump: beside it |grad f|^2 underflows to 0 and |grad f^3|^2 does not."""
        values = np.zeros((8, 10))
        values[2:6, 2:8] = 1.0
        values[3, 4] = 1.0 + 2.0**-30
        f = GridFunction(1e153, values)
        report = sq.check_chain_rule(f, r=3.0)
        assert pad_chain_rule(f, 3.0, "metric_max") == (np.inf, 33)
        # cell (3, 3) of the grid, which is cell (2, 2) of the box from (1, 1)
        assert PreparedFunction(f).box == (slice(1, 7), slice(1, 9))
        assert report.params["grid_worst_ratio"] == np.inf and report.worst_location == 33.0


class TestOneil:
    @given(grid_pairs())
    @settings(max_examples=200, deadline=None)
    def test_report_equals_the_whole_grid_product(self, pair):
        f, g = pair
        pf, pg = PreparedFunction(f), PreparedFunction(g)
        t = sq.geometric_tgrid(f.domain_measure * 1e-5, f.domain_measure, 16)
        got = _outcome(lambda: sq.check_oneil(pf, pg, t_grid=t))
        # value arrays sort every cell's product, with the cell measure as every cell's mass
        want = _outcome(lambda: sq.check_oneil(f.values, g.values, masses=f.cell_measure, t_grid=t))
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.params == want.params == {"t_points": t.size, "atoms": f.values.size}
        assert same_bits(np.float64(got.worst_ratio), np.float64(want.worst_ratio))
        assert got.worst_location == want.worst_location

    def test_boxes_that_do_not_meet(self):
        a, b = np.zeros((8, 8)), np.zeros((8, 8))
        a[1:3, 1:3], b[5:7, 5:7] = 1.0, 2.0
        f, g = GridFunction(0.5, a), GridFunction(0.5, b)
        pf, pg = prepare(f), prepare(g)
        assert all(s.stop <= u.start for s, u in zip(pf.box, pg.box))
        report = sq.check_oneil(pf, pg)
        want = sq.check_oneil(a, b, masses=f.cell_measure, t_grid=sq.geometric_tgrid(16 * 1e-5, 16.0, 16))
        assert report.params["atoms"] == 64 and report.worst_ratio == want.worst_ratio == 0.0


class TestCountedZeros:
    def test_counted_zeros_join_the_zero_atom(self):
        whole = MassFunction([3.0, 0.0, 1.0, 0.0, 0.0, 3.0], 0.25)
        # with a stored zero to join, and with none, so that one is stored
        _assert_same(MassFunction([3.0, 0.0, 1.0, 3.0], 0.25, zeros=2), whole)
        _assert_same(MassFunction([3.0, 1.0, 3.0], 0.25, zeros=3), whole)
        assert MassFunction([], 0.25, zeros=6).atoms == [(0.0, 1.5)]

    def test_counted_zeros_need_a_scalar_mass_and_an_atom(self):
        with pytest.raises(ValueError, match="scalar mass"):
            MassFunction([1.0], [1.0], zeros=1)
        with pytest.raises(ValueError, match="at least one atom"):
            MassFunction([], 1.0)
