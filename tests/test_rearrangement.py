import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import symineq as sq
from symineq.measure import MassFunction
from symineq.rearrangement import StepProfile

from conftest import random_mass_function


atom_lists = st.lists(
    st.tuples(
        st.floats(0.0, 50.0, allow_nan=False),
        st.floats(0.01, 10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


def tail_distribution_integral(mf, lam):
    """Independent oracle: integrate the explicit step function of mu_f
    upward from lam, segment by segment over the distinct values."""
    values = mf.values[::-1]  # ascending
    total = 0.0
    lo = lam
    for v in values:
        if v <= lam:
            continue
        mu = sq.distribution(mf, lo)  # constant on (lo, v)
        total += mu * (v - lo)
        lo = v
    return total


class TestDistribution:
    def test_worked_examples(self):
        mf = MassFunction([3.0, 1.0], [0.5, 1.0])
        assert sq.distribution(mf, 2.0) == 0.5
        assert sq.distribution(mf, 0.0) == 1.5
        assert sq.distribution(mf, 3.0) == 0.0  # strict inequality
        with pytest.raises(ValueError):
            sq.distribution(mf, -0.5)
        with pytest.raises(TypeError):
            sq.distribution([(3.0, 0.5)], 1.0)

    @given(atom_lists, st.floats(0.0, 55.0))
    def test_equimeasurable_with_rearrangement(self, atoms, lam):
        mf = MassFunction.from_atoms(atoms)
        prof = sq.decreasing_rearrangement(mf)
        # bitwise: both sides read the same cumulative-mass array
        assert sq.distribution(mf, lam) == sq.distribution(prof, lam)


class TestDecreasingRearrangement:
    def test_two_atom_example(self):
        prof = sq.decreasing_rearrangement(MassFunction([3.0, 1.0], [0.5, 1.0]))
        assert np.array_equal(prof.breakpoints, [0.0, 0.5, 1.5])
        assert np.array_equal(prof.levels, [3.0, 1.0])

    def test_indicator(self):
        prof = sq.decreasing_rearrangement(MassFunction([1.0], [0.7]))
        assert prof.value(0.3) == 1.0
        assert prof.value(0.7) == 0.0  # right-continuous, zero past M

    def test_permutation_invariance(self):
        a = sq.decreasing_rearrangement(MassFunction([1.0, 3.0, 2.0], [1, 1, 1]))
        b = sq.decreasing_rearrangement(MassFunction([3.0, 2.0, 1.0], [1, 1, 1]))
        assert np.array_equal(a.breakpoints, b.breakpoints)
        assert np.array_equal(a.levels, b.levels)

    def test_mass_lost_in_the_running_total_is_rejected(self):
        # canonical atoms need not give strictly increasing breakpoints, so the
        # StepProfile validation inside decreasing_rearrangement must stay
        mf = MassFunction.from_atoms([(2, 1.0), (1, 1e-17)])
        assert np.array_equal(mf.cum_masses, [1.0, 1.0])
        with pytest.raises(ValueError):
            sq.decreasing_rearrangement(mf)

    @given(atom_lists)
    @settings(max_examples=60)
    def test_norm_preservation(self, atoms):
        mf = MassFunction.from_atoms(atoms)
        prof = sq.decreasing_rearrangement(mf)
        for p in (1.0, 2.0, 3.0):
            assert sq.lorentz_norm(prof, p, p) == pytest.approx(
                sq.lp_norm(mf, p), rel=1e-12, abs=1e-300
            )


    # bounded values and masses, so no product overflows; the equimeasurability
    # of the profile is TestDistribution.test_equimeasurable_with_rearrangement
    @given(st.one_of(
        st.tuples(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=25), st.floats(0.01, 10.0)),
        atom_lists.map(lambda atoms: ([v for v, _ in atoms], np.array([m for _, m in atoms]))),
    ))
    @settings(max_examples=200)
    def test_levels_and_integral_on_both_routes(self, values_masses):
        mf = MassFunction(*values_masses)
        prof = sq.decreasing_rearrangement(mf)
        assert np.all(np.diff(prof.levels) <= 0)
        assert prof.total_integral == pytest.approx(
            math.fsum(mf.values * mf.masses), rel=1e-9, abs=1e-300
        )


class TestStepProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepProfile([0.0, 1.0], [1.0, 2.0])  # length mismatch
        with pytest.raises(ValueError):
            StepProfile([0.5, 1.0], [1.0])  # must start at 0
        with pytest.raises(ValueError):
            StepProfile([0.0, 1.0, 1.0], [2.0, 1.0])  # not increasing
        with pytest.raises(ValueError):
            StepProfile([0.0, 1.0, 2.0], [1.0, 2.0])  # levels increase
        for levels in ([2.0, -1.0], [math.nan, 1.0], [2.0, math.nan], [3.0, math.nan, 1.0], [math.nan]):
            with pytest.raises(ValueError):  # negative, or a NaN anywhere
                StepProfile(np.arange(len(levels) + 1.0), levels)
        empty = StepProfile([0.0], [])
        assert empty.max_level == 0.0 and "0 steps" in repr(empty)

    def test_an_integral_that_overflows_is_rejected(self):
        # 1.5e200 * 1.2e108 overflows; a RuntimeWarning first would fail this test too
        for breakpoints, levels in [([0.0, 1.5e200], [1.2e108]), ([0.0, 1.0, math.inf], [1.0, 0.0])]:
            with pytest.raises(ValueError, match="integral of the profile must be finite"):
                StepProfile(breakpoints, levels)
        prof = StepProfile([0.0, 1e300, 1.5e300], [1.0, 0.5])
        assert prof.total_integral == 1e300 + 0.5 * 0.5e300
        with pytest.raises(ValueError, match="must be finite"):
            StepProfile(prof, [1e10, 1e10])

    def test_a_profile_as_breakpoints_shares_them_and_checks_only_the_levels(self):
        prof = sq.decreasing_rearrangement(MassFunction([3.0, 1.0], [0.5, 1.0]))
        cubed = StepProfile(prof, prof.levels**3)
        assert cubed.breakpoints is prof.breakpoints
        assert cubed.total_integral == 27.0 * 0.5 + 1.0
        with pytest.raises(ValueError):
            StepProfile(prof, [1.0, 3.0])
        with pytest.raises(ValueError):
            StepProfile(prof, [1.0])

    def test_prefix_integral_matches_riemann_sum(self):
        rng = np.random.default_rng(3)
        mf = random_mass_function(rng, max_atoms=40)
        prof = sq.decreasing_rearrangement(mf)
        M = prof.total_measure
        ts = np.linspace(M * 1e-3, M, 13)
        grid = np.linspace(0, M, 200001)[1:]
        dense = np.cumsum(prof.value(grid)) * (grid[1] - grid[0])
        for t in ts:
            j = int(np.searchsorted(grid, t)) - 1
            assert prof.prefix_integral(t) == pytest.approx(dense[j], rel=1e-3)


class TestMaximalAverage:
    def test_indicator_examples(self):
        prof = sq.decreasing_rearrangement(MassFunction([1.0], [1.0]))
        assert sq.maximal_average(prof, 2.0) == pytest.approx(0.5)
        assert sq.maximal_average(prof, 0.5) == 1.0
        with pytest.raises(ValueError):
            sq.maximal_average(prof, 0.0)

    def test_two_atom_example(self):
        prof = sq.decreasing_rearrangement(MassFunction([3.0, 1.0], [0.5, 1.0]))
        assert sq.maximal_average(prof, 1.0) == pytest.approx(2.0)

    @given(atom_lists)
    @example(atoms=[(5e-324, 1.0)])  # avg * ts rounds below an underflowed slack
    @settings(max_examples=60)
    def test_dominates_profile_and_monotonicity(self, atoms):
        prof = sq.decreasing_rearrangement(MassFunction.from_atoms(atoms))
        M = prof.total_measure
        ts = np.geomspace(M / 64, 2 * M, 40)
        avg = sq.maximal_average(prof, ts)
        slack = 1e-12 * max(prof.max_level, 1.0)
        assert np.all(avg >= prof.value(ts) - slack)
        assert np.all(np.diff(avg) <= 1e-12 * max(avg.max(), 1.0))
        assert np.all(np.diff(prof.prefix_integral(ts)) >= -1e-12 * prof.total_integral)


class TestPoweredProfile:
    def test_squares_levels(self):
        prof = sq.decreasing_rearrangement(MassFunction([3.0, 1.0], [0.5, 1.0]))
        sq2 = sq.powered_profile(prof, 2.0)
        assert np.array_equal(sq2.levels, [9.0, 1.0])
        assert np.array_equal(sq2.breakpoints, prof.breakpoints)
        assert sq.maximal_average(sq2, 1.0) == pytest.approx(5.0)

    def test_identity_and_indicator_fixed_points(self):
        prof = sq.decreasing_rearrangement(MassFunction([3.0, 1.0], [0.5, 1.0]))
        assert np.array_equal(sq.powered_profile(prof, 1.0).levels, prof.levels)
        ind = sq.decreasing_rearrangement(MassFunction([1.0, 0.0], [0.5, 0.5]))
        assert np.array_equal(sq.powered_profile(ind, 3.7).levels, ind.levels)

    def test_p_below_one_rejected(self):
        prof = sq.decreasing_rearrangement(MassFunction([1.0], [1.0]))
        with pytest.raises(ValueError):
            sq.powered_profile(prof, 0.9)


class TestLayerCake:
    def test_two_atom_example(self):
        mf = MassFunction([3.0, 1.0], [0.5, 1.0])
        assert sq.layer_cake_excess(mf, 1.0) == pytest.approx(1.0)
        assert tail_distribution_integral(mf, 1.0) == pytest.approx(1.0)
        assert sq.layer_cake_excess(mf, 5.0) == 0.0
        # full-mass identity: lambda = f*(1.5) = 0 exhausts the support
        assert sq.layer_cake_excess(mf, 0.0) == pytest.approx(sq.lp_norm(mf, 1))

    @given(atom_lists, st.floats(0.0, 55.0))
    @settings(max_examples=100)
    def test_matches_tail_integral(self, atoms, lam):
        mf = MassFunction.from_atoms(atoms)
        assert sq.layer_cake_excess(mf, lam) == pytest.approx(
            tail_distribution_integral(mf, lam), rel=1e-12, abs=1e-12
        )

    @given(atom_lists)
    @settings(max_examples=60)
    def test_oscillation_identity_at_breakpoints(self, atoms):
        # at lambda = f*(t) with t a cumulative-mass breakpoint:
        # excess = t (f**(t) - f*(t))
        mf = MassFunction.from_atoms(atoms)
        prof = sq.decreasing_rearrangement(mf)
        for t in prof.breakpoints[1:]:
            t = float(t)
            lam = prof.value(t)
            lhs = sq.layer_cake_excess(mf, lam)
            rhs = t * (sq.maximal_average(prof, t) - lam)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestLorentzNorm:
    def test_indicator_closed_form_and_quadrature(self):
        for m in (0.3, 1.0, 4.0):
            prof = sq.decreasing_rearrangement(MassFunction([1.0], [m]))
            for r, q in ((2.0, 1.0), (3.0, 2.0), (1.5, 4.0)):
                closed = (r / q) ** (1 / q) * m ** (1 / r)
                oracle = quad(lambda t: t ** (q / r - 1.0), 0.0, m)[0] ** (1 / q)
                got = sq.lorentz_norm(prof, r, q)
                assert got == pytest.approx(closed, rel=1e-12)
                assert got == pytest.approx(oracle, rel=1e-9)

    def test_indicator_weak_norm(self):
        prof = sq.decreasing_rearrangement(MassFunction([1.0], [0.6]))
        assert sq.lorentz_norm(prof, 2.0, math.inf) == pytest.approx(0.6**0.5)

    def test_indicator_oscillation_norm(self):
        # f** - f* vanishes on (0, 1) and equals 1/t beyond, so the square
        # integral against dt/t is the tail integral of t^-3 from 1: 1/2
        prof = sq.decreasing_rearrangement(MassFunction([1.0], [1.0]))
        assert sq.lorentz_norm(prof, math.inf, 2.0) == pytest.approx(math.sqrt(0.5))
        oracle = quad(lambda t: (1.0 / t) ** 2 / t, 1.0, np.inf)[0] ** 0.5
        assert sq.lorentz_norm(prof, math.inf, 2.0) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("measure", [1e-200, 5e-324, 1.0, 4.0])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_indicator_oscillation_norm_at_any_measure(self, measure, q):
        # one step of level 1 on (0, M]: only the tail (M/t past M) counts, and
        # its q-th power against dt/t integrates to 1/q whatever M is
        prof = StepProfile([0.0, measure], [1.0])
        assert sq.lorentz_norm(prof, math.inf, q) == pytest.approx((1.0 / q) ** (1.0 / q), rel=1e-15)

    def test_rejects_double_infinity(self):
        prof = sq.decreasing_rearrangement(MassFunction([1.0], [1.0]))
        with pytest.raises(ValueError):
            sq.lorentz_norm(prof, math.inf, math.inf)

    @given(atom_lists)
    @example(atoms=[(1e-05, 1.0)])  # an integral of ~1e-10, below quad's default epsabs
    @settings(max_examples=30)
    def test_general_profile_against_quadrature(self, atoms):
        prof = sq.decreasing_rearrangement(MassFunction.from_atoms(atoms))
        r, q = 2.5, 2.0
        oracle = quad(
            lambda t: (prof.value(t) * t ** (1 / r)) ** q / t,
            0.0,
            prof.total_measure,
            points=list(prof.breakpoints[1:-1][:40]),
            limit=200,
            epsabs=0.0,
        )[0] ** (1 / q)
        assert sq.lorentz_norm(prof, r, q) == pytest.approx(oracle, rel=1e-6, abs=1e-9)


class TestDformDerivative:
    def test_indicator_p2_matches_closed_form(self):
        prof = sq.decreasing_rearrangement(MassFunction([1.0], [1.0]))
        got = sq.dform_derivative(prof, 2.0, 2.0)
        # beyond the support, (f_(2)**)^(1/2) = t^(-1/2); derivative oracle:
        assert got == pytest.approx(math.sqrt(2) / 8, rel=1e-12)
        eps = 1e-7

        def amplitude(t):
            return sq.maximal_average(sq.powered_profile(prof, 2.0), t) ** 0.5

        numeric = -(amplitude(2 + eps) - amplitude(2 - eps)) / (2 * eps)
        assert got == pytest.approx(numeric, rel=1e-6)

    def test_constant_plateau_is_zero(self):
        prof = sq.decreasing_rearrangement(MassFunction([2.0], [1.0]))
        assert sq.dform_derivative(prof, 2.0, 0.5) == 0.0

    def test_p1_reduction(self):
        prof = sq.decreasing_rearrangement(MassFunction([3.0, 1.0], [0.5, 1.0]))
        for t in (0.3, 0.8, 1.2, 2.0):
            osc = sq.maximal_average(prof, t) - prof.value(t)
            assert sq.dform_derivative(prof, 1.0, t) * t == pytest.approx(
                osc, rel=1e-12, abs=1e-15
            )

    def test_rejects_nonpositive_t(self):
        prof = sq.decreasing_rearrangement(MassFunction([1.0], [1.0]))
        with pytest.raises(ValueError):
            sq.dform_derivative(prof, 2.0, 0.0)

    @pytest.mark.parametrize(
        "atoms", [[(3.0, 0.5), (1.0, 1.0)], [(0.0, 1.0)]], ids=["two_steps", "zero"]
    )
    def test_array_t_matches_scalar_calls(self, atoms):
        prof = sq.decreasing_rearrangement(MassFunction.from_atoms(atoms))
        ts = np.array([0.1, 0.5, 0.8, 1.5, 3.0])  # inside, at and beyond breakpoints
        for p in (1.0, 2.5):
            got = sq.dform_derivative(prof, p, ts)
            scalars = [sq.dform_derivative(prof, p, float(t)) for t in ts]
            assert all(type(x) is float for x in scalars)
            assert got.tolist() == scalars

    @given(atom_lists, st.floats(0.05, 3.0))
    @settings(max_examples=40)
    def test_nonnegative_and_matches_finite_difference(self, atoms, t_frac):
        prof = sq.decreasing_rearrangement(MassFunction.from_atoms(atoms))
        t = t_frac * prof.total_measure
        p = 2.5
        assert sq.dform_derivative(prof, p, t) >= 0.0
        if prof.max_level == 0:
            return
        # the profile kinks at breakpoints (the analytic value there is the
        # right-derivative); difference strictly inside a segment or strictly
        # beyond the terminal breakpoint
        b = prof.breakpoints
        M = prof.total_measure
        if t >= M:
            t = max(t, M) * 1.001
            eps = min(t * 1e-4, (t - M) / 8.0)
        else:
            j = int(np.searchsorted(b, t, side="right")) - 1
            t = (b[j] + b[j + 1]) / 2.0
            eps = (b[j + 1] - b[j]) / 1000.0
        got = sq.dform_derivative(prof, p, t)
        powered = sq.powered_profile(prof, p)

        def amplitude(u):
            return sq.maximal_average(powered, u) ** (1 / p)

        numeric = -(amplitude(t + eps) - amplitude(t - eps)) / (2 * eps)
        assert got == pytest.approx(numeric, rel=1e-3, abs=1e-9 * prof.max_level)


class TestGeometricTgrid:
    def test_density_and_bounds(self):
        grid = sq.geometric_tgrid(1e-4, 1.0, 64)
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1.0)
        assert len(grid) == 4 * 64 + 1
        with pytest.raises(ValueError):
            sq.geometric_tgrid(1.0, 0.5)
