"""Profile kernels against the array formulas they replace, on one profile strategy.

The O'Neil oracle is the profile as it was built before: ``np.union1d`` of
the two breakpoint arrays, then each side's level read by
``StepProfile.value`` at the merged left ends.  The library's single merge
must equal it bit for bit, on any breakpoints and on the value-array route of
``check_oneil``.  The in-place ``oscillation_norm`` and ``polya_szego_lhs``
must equal their former whole-array expressions bit for bit as well.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symineq as sq
from symineq import inequalities
from symineq.gradient import polya_szego_lhs
from symineq.inequalities import _merged_product_profile
from symineq.isoperimetry import euclidean_profile
from symineq.rearrangement import StepProfile, oscillation_norm, power_segment_integral


def union_profile(sf: StepProfile, sg: StepProfile) -> StepProfile:
    merged = np.union1d(sf.breakpoints, sg.breakpoints)
    left = merged[:-1]
    return StepProfile(merged, sf.value(left) * sg.value(left))


def assert_same_profile(got: StepProfile, want: StepProfile) -> None:
    for name in ("breakpoints", "levels", "_cum_integral"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# Breakpoints reach 50 * 1.5e200 and product levels 1e100, so every integral,
# of a profile and of a product of two, stays below 1e302 and finite.
positive = st.floats(1e-300, 1e200, allow_nan=False, allow_infinity=False)
levels_values = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e50))


@st.composite
def profiles(draw, shared):
    """A step profile whose breakpoints mix its own points, shared ones and grid-like multiples."""
    own = draw(st.lists(positive, max_size=12))
    common = draw(st.lists(st.sampled_from(shared), max_size=12))
    points = np.unique(np.array(own + common, dtype=float))
    if points.size == 0:
        points = np.array([shared[0]])  # one atom: breakpoints [0, M]
    levels = draw(st.lists(levels_values, min_size=points.size, max_size=points.size))
    return StepProfile(np.concatenate(([0.0], points)), sorted(levels, reverse=True))


@st.composite
def profile_pairs(draw):
    unit = draw(st.sampled_from([1.0, 0.1, 2.0**-12, 5e-324, 1.5e200]))
    ks = draw(st.lists(st.integers(1, 50), min_size=1, max_size=8, unique=True))
    shared = [k * unit for k in ks] + draw(st.lists(positive, max_size=4))
    return draw(profiles(shared)), draw(profiles(shared))


@given(profile_pairs())
@settings(max_examples=400)
@example((StepProfile([0.0, 1.0], [2.0]), StepProfile([0.0, 1.0], [3.0])))  # one atom each, shared end
@example((StepProfile([0.0, 1.0], [2.0]), StepProfile([0.0, 0.5, 4.0], [3.0, 0.0])))  # unequal extents
@example((StepProfile([0.0], []), StepProfile([0.0], [])))  # no steps at all
def test_merge_equals_union_and_value(pair):
    sf, sg = pair
    assert_same_profile(_merged_product_profile(sf, sg), union_profile(sf, sg))
    assert_same_profile(_merged_product_profile(sg, sf), union_profile(sg, sf))


cell_values = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-1e6, 1e6)),
    min_size=1,
    max_size=30,
)


@given(st.data(), cell_values)
@settings(max_examples=200)
def test_value_array_check_oneil_equals_the_union_route(data, vf):
    n = len(vf)
    vg = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    masses = data.draw(st.one_of(
        st.sampled_from([0.5, 0.1, 2.0**-30]),
        st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n).map(np.array),
    ))
    got = sq.check_oneil(vf, vg, masses=masses)
    with mock.patch.object(inequalities, "_merged_product_profile", union_profile):
        want = sq.check_oneil(vf, vg, masses=masses)
    assert got.to_dict() == want.to_dict()
    assert np.float64(got.worst_ratio).tobytes() == np.float64(want.worst_ratio).tobytes()


def test_grid_pair_check_oneil_equals_the_union_route():
    spec = sq.CorpusSpec(seed=3, dim=2, extents=48)
    corpus = [f for _, f in sq.generate_corpus(spec)]
    for f, g in zip(corpus[:-1], corpus[1:]):
        got = sq.check_oneil(f, g)
        with mock.patch.object(inequalities, "_merged_product_profile", union_profile):
            want = sq.check_oneil(f, g)
        assert got.to_dict() == want.to_dict()


def array_segment_integral(a, b, alpha):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if alpha == 0.0:
        return np.log(b) - np.log(a)
    return (b**alpha - a**alpha) / alpha


def array_oscillation_norm(s, q, inv_pbar=0.0, tail=False):
    b = s.breakpoints
    c = s._cum_integral[:-1] - s.levels * b[:-1]
    active = np.flatnonzero(c > 0)
    alpha = q * inv_pbar - q
    total = float(np.sum(c[active] ** q * array_segment_integral(b[active], b[active + 1], alpha)))
    if tail and s.total_integral > 0:
        try:
            total += (s.total_integral / s.total_measure ** (1.0 - inv_pbar)) ** q / -alpha
        except OverflowError:
            total = math.inf
    return total ** (1.0 / q) if math.isfinite(total) else math.inf


def array_polya_szego_lhs(s, n, p, weight="isoperimetric"):
    coeff = euclidean_profile(n).coefficient if weight == "isoperimetric" else 1.0
    if s.levels.size < 2:
        return 0.0
    b = s.breakpoints
    mids = (b[:-1] + b[1:]) / 2.0
    slopes = -np.diff(s.levels) / np.diff(mids)
    beta = (1.0 - 1.0 / n) * p + 1.0
    weights = array_segment_integral(mids[:-1], mids[1:], beta)
    terms = (coeff * slopes) ** p
    terms *= weights
    return float(np.add.reduce(terms)) ** (1.0 / p)


def same_outcome(kernel, oracle, *args):
    """Both return the same float, bit for bit, or both raise the same error."""
    outcomes = []
    for fn in (kernel, oracle):
        try:
            outcomes.append(np.float64(fn(*args)).tobytes())
        except ArithmeticError as exc:  # Python float arithmetic raises where numpy gives inf
            outcomes.append(type(exc))
    return outcomes[0] == outcomes[1]


# (q, inv_pbar, tail) as the Sobolev and Lorentz checks call it; inv_pbar = 1 takes the log form
OSCILLATION_ARGS = ((1.0, 0.0, False), (1.0, 0.0, True), (2.0, 0.0, True), (3.0, 0.0, False),
                    (1.0, 0.5, False), (1.5, 1.0 / 3.0, False), (2.0, 1.0, False))
POLYA_ARGS = tuple(
    (n, p, weight) for n in (1, 2, 3) for p in (1.0, 1.5, 2.0, 3.0) for weight in ("isoperimetric", "bare_power")
)


@given(profile_pairs())
@settings(max_examples=200)
@example((StepProfile([0.0, 1.0], [2.0]), StepProfile([0.0, 0.5, 4.0], [3.0, 0.0])))
@example((StepProfile([0.0], []), StepProfile([0.0, 1.0, 2.0, 3.0], [2.0, 2.0, 1.0])))  # a plateau: c_1 = 0
def test_in_place_integrals_equal_the_array_expressions(pair):
    for s in pair:
        # huge breakpoints overflow powers in both forms alike
        with np.errstate(all="ignore"):
            for args in OSCILLATION_ARGS:
                assert same_outcome(oscillation_norm, array_oscillation_norm, s, *args), args
            for args in POLYA_ARGS:
                assert same_outcome(polya_szego_lhs, array_polya_szego_lhs, s, *args), args
            b = s.breakpoints
            for alpha in (-3.0, -1.0, 0.0, 0.5, 1.5, 2.5):
                got = power_segment_integral(b[:-1], b[1:], alpha)
                assert got.tobytes() == array_segment_integral(b[:-1], b[1:], alpha).tobytes(), alpha
