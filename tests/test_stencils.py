"""The pad-free stencil kernels against the pad-based formulas they replace.

The oracles below are the kernels as they were written with ``np.pad``: every
cell's neighbours read from a zero-padded copy, two full subtractions per axis.
The library kernels must equal them bit for bit, sign of zero included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import symineq as sq
from symineq.gradient import GRADIENT_MODES, _modulus_values
from symineq.inequalities import _local_stencil_max, _ratio
from symineq.measure import GridFunction


def _axis_slices(ndim, axis, shift):
    window = slice(1 + shift, None if shift == 1 else -1 + shift)
    return tuple(window if ax == axis else slice(1, -1) for ax in range(ndim))


def pad_modulus(v, h, mode):
    padded = np.pad(v, 1)
    sq_sum = np.zeros_like(v)
    for ax in range(v.ndim):
        fwd = padded[_axis_slices(v.ndim, ax, +1)]
        bwd = padded[_axis_slices(v.ndim, ax, -1)]
        if mode == "metric_max":
            comp = np.maximum(np.abs(v - fwd), np.abs(v - bwd)) / h
        else:
            comp = np.abs(fwd - bwd) / (2.0 * h)
        sq_sum += comp**2
    return np.sqrt(sq_sum)


def pad_stencil_max(values):
    padded = np.pad(values, 1)
    out = values.copy()
    for ax in range(values.ndim):
        np.maximum(out, padded[_axis_slices(values.ndim, ax, +1)], out=out)
        np.maximum(out, padded[_axis_slices(values.ndim, ax, -1)], out=out)
    return out


def full_ratio(lhs, rhs):
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    out = np.full(np.broadcast(lhs, rhs).shape, np.inf)
    zero = (rhs == 0) & (lhs <= 0)
    pos = rhs > 0
    out[zero] = 0.0
    np.divide(lhs, rhs, out=out, where=pos)
    return out


def pad_chain_rule(f, r, mode):
    """(grid_worst_ratio, its flat index) of the chain-rule check, or None where it must raise."""
    v, h = f.values, f.spacing
    lhs = pad_modulus(v**r, h, mode)
    base = pad_modulus(v, h, mode)
    for g in (lhs, base):
        if any(np.any(g.take(i, axis=ax)) for ax in range(g.ndim) for i in (0, -1)):
            return None  # the gradient support touches the boundary
    if not np.any(base) and np.any(v):
        return None  # nonzero function with zero gradient
    rhs = 2.0 * r * pad_stencil_max(v) ** (r - 1.0) * base
    ratios = full_ratio(lhs, rhs)
    idx = int(np.argmax(ratios))
    return float(ratios.ravel()[idx]), idx


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# -0.0, subnormals, exact ties (repeated picks) and magnitudes up to 1e150
_EDGE = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1.0, -1.0, 3.0, 1e150, -1e150, 7.5e149)
_values = st.one_of(st.sampled_from(_EDGE), st.floats(-1e150, 1e150))
_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=3, max_side=9)
_spacings = st.sampled_from((1.0, 0.1, 1.0 / 48, 1e-3, 1e159))


class TestModulusOracle:
    @given(hnp.arrays(np.float64, _shapes, elements=_values), _spacings, st.sampled_from(GRADIENT_MODES))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_padded_stencil(self, v, h, mode):
        # any values, the outer layer included, so the out-of-grid rule is exercised
        assert same_bits(_modulus_values(v, h, mode), pad_modulus(v, h, mode))

    @pytest.mark.parametrize("mode", GRADIENT_MODES)
    def test_grid_functions_and_strided_views(self, default_corpus, mode):
        f = default_corpus[0][1]
        assert same_bits(sq.metric_gradient_modulus(f, mode).values, pad_modulus(f.values, f.spacing, mode))
        t = GridFunction(f.spacing, f.values.T)  # a non-contiguous view
        assert same_bits(sq.metric_gradient_modulus(t, mode).values, pad_modulus(t.values, t.spacing, mode))


class TestStencilMaxOracle:
    @given(hnp.arrays(np.float64, _shapes, elements=_values))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_padded_stencil(self, v):
        assert same_bits(_local_stencil_max(v), pad_stencil_max(v))


class TestRatioOracle:
    _any = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -2.0, 1e300, np.inf, -np.inf, np.nan))

    @given(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=5), elements=_any),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=1, max_side=5), elements=_any),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_rule_as_the_full_array_form(self, lhs, rhs):
        try:
            np.broadcast(lhs, rhs)
        except ValueError:
            return
        with np.errstate(all="ignore"):
            assert same_bits(np.asarray(_ratio(lhs, rhs)), full_ratio(lhs, rhs))


@st.composite
def chain_grids(draw):
    """Nonnegative grid functions, 5-9 cells per axis, whose two outer layers vanish."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=5, max_side=9))
    elements = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 2.5e-310, 1.0, 3.0, 1e50)), st.floats(0.0, 1e50))
    v = draw(hnp.arrays(np.float64, shape, elements=elements))
    for ax in range(v.ndim):
        for i in (0, 1, -2, -1):
            np.moveaxis(v, ax, 0)[i] = draw(st.sampled_from((0.0, -0.0)))
    # a cell measure h**dim must stay finite, so the underflowing spacing is 1-d only
    return GridFunction(draw(st.sampled_from((1.0, 0.1) + ((1e159,) if v.ndim == 1 else ()))), v)


def _x_over_zero_grid():
    # spacing 1e159: at the centre cell |grad f|^2 underflows to 0 while |grad f^3|^2 does not
    return GridFunction(1e159, np.array([0.0, 0.0, 1.0, 1.0 + 2.0**-10, 1.0, 0.0, 0.0]))


def _negative_zeros_around_the_box_grid():
    # -0.0 on the support box's edge and just off it: the stencil maximum's zero extension ties with them
    v = np.full((7, 9), -0.0)
    v[3, 3:6] = (1.0, 2.0, 1.0)
    return GridFunction(1.0, v)


class TestChainRuleOracle:
    @given(chain_grids(), st.sampled_from((1.5, 2.0, 2.5, 3.0)), st.sampled_from(GRADIENT_MODES))
    @example(_x_over_zero_grid(), 3.0, "metric_max")
    @example(_negative_zeros_around_the_box_grid(), 2.5, "metric_max")
    @example(_negative_zeros_around_the_box_grid(), 2.0, "euclidean_central")
    @settings(max_examples=150, deadline=None)
    def test_worst_ratio_and_location_bit_identical(self, f, r, mode):
        expected = pad_chain_rule(f, r, mode)
        if expected is None:
            with pytest.raises(ValueError):
                sq.check_chain_rule(f, r=r, gradient_mode=mode)
            return
        report = sq.check_chain_rule(f, r=r, gradient_mode=mode)
        grid_worst, idx = expected
        assert same_bits(np.float64(report.params["grid_worst_ratio"]), np.float64(grid_worst))
        scalar_worst = report.params["scalar_worst_ratio"]
        location = float(idx) if grid_worst >= scalar_worst else report.params["scalar_worst_ab"][0]
        assert report.worst_location == location

    def test_zero_over_zero_and_x_over_zero_cells(self):
        f = _x_over_zero_grid()
        lhs = pad_modulus(f.values**3.0, f.spacing, "metric_max")
        rhs = 6.0 * pad_stencil_max(f.values) ** 2.0 * pad_modulus(f.values, f.spacing, "metric_max")
        assert np.any((lhs == 0) & (rhs == 0)) and np.any((lhs > 0) & (rhs == 0))
        report = sq.check_chain_rule(f, r=3.0)
        assert report.params["grid_worst_ratio"] == np.inf
        assert report.worst_location == 3.0
