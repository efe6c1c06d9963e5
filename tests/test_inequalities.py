import math

import numpy as np
import pytest

import symineq as sq
from symineq import inequalities
from symineq.inequalities import (
    InequalityParams,
    TGridSpec,
    binomial_coefficient,
    empirical_best_constant,
)
from symineq.isoperimetry import ProfileHandle, disk_mask, indicator_mollify
from symineq.measure import GridFunction
from symineq.suite import summarize


def small_cone(extents=256, radius=0.35, side=1.0, offset=(0.0, 0.0)):
    h = side / extents
    center = (side / 2 + offset[0] * h, side / 2 + offset[1] * h)
    return sq.cone_grid(extents, 2, side, radius, 1.0, center)


class TestInequalityParams:
    def test_k_derivation(self):
        assert InequalityParams(p=1.0).k == 0
        assert InequalityParams(p=2.0).k == 1
        assert InequalityParams(p=2.5).k == 2
        assert InequalityParams(p=4.7).k == 4

    def test_analytic_constants(self):
        assert InequalityParams(p=1.0).oscillation_constant == pytest.approx(1.0)
        assert InequalityParams(p=1.5).oscillation_constant == pytest.approx(2 ** (1 / 3))
        assert InequalityParams(p=2.0).oscillation_constant == pytest.approx(1.0)
        # derivative form: base 2^((k+1)/p), asserted with the extra factor p
        params = InequalityParams(p=2.0)
        assert params.derivative_base_constant == pytest.approx(2.0)
        assert params.derivative_constant == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            InequalityParams(p=0.5)
        with pytest.raises(ValueError):
            InequalityParams(constant_mode="exact")

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_p_that_is_not_finite_is_an_input_error_row(self, p):
        with pytest.raises(ValueError, match="finite"):
            InequalityParams(p=p)
        config = sq.SuiteConfig(inequalities=({"id": "s_phi_p", "p": p},))
        (report,) = sq.run_suite(config, [("cone", small_cone(32))])
        assert report.status.startswith("input_error")

    def test_binomial_falling_factorial(self):
        assert binomial_coefficient(2.0, 1) == pytest.approx(2.0)
        assert binomial_coefficient(2.5, 2) == pytest.approx(2.5 * 1.5 / 2)
        assert binomial_coefficient(4.7, 3) == pytest.approx(4.7 * 3.7 * 2.7 / 6)


class TestSPhiP:
    def test_cone_worked_example(self, cone512, phi_euclid_2d):
        params = InequalityParams(p=1.0)
        report = sq.check_s_phi_p(cone512, phi_euclid_2d, params)
        assert report.worst_ratio == pytest.approx(2 / 3, rel=0.02)
        assert report.params["support_measure"] == pytest.approx(math.pi, rel=0.01)
        assert report.passed

    def test_zero_function_passes(self, phi_euclid_2d):
        f = GridFunction(0.1, np.zeros((8, 8)))
        report = sq.check_s_phi_p(f, phi_euclid_2d, InequalityParams(p=2.0))
        assert report.worst_ratio == 0.0
        assert report.passed

    def test_scale_invariance(self, phi_euclid_2d):
        f = small_cone(128)
        g = GridFunction(f.spacing, 17.5 * f.values)
        params = InequalityParams(p=1.5)
        a = sq.check_s_phi_p(f, phi_euclid_2d, params).worst_ratio
        b = sq.check_s_phi_p(g, phi_euclid_2d, params).worst_ratio
        assert a == pytest.approx(b, rel=1e-12)

    def test_fitted_mode_records_constant(self, phi_euclid_2d):
        f = small_cone(128)
        params = InequalityParams(p=1.0, constant_mode="fitted")
        report = sq.check_s_phi_p(f, phi_euclid_2d, params)
        assert report.params["fitted_constant"] == report.worst_ratio
        assert report.passed

    def test_sharper_mollification_raises_ratio(self, phi_euclid_2d):
        h = 1.0 / 256
        params = InequalityParams(p=1.0)
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            mask = disk_mask((256, 256), h, (0.5, 0.5), 0.25)
            f = indicator_mollify(mask, h, eps)
            ratios.append(sq.check_s_phi_p(f, phi_euclid_2d, params).worst_ratio)
        assert ratios[0] < ratios[1] < ratios[2] <= 1.05


class TestOscillationP:
    def test_p1_matches_direct_oscillation_bound(self, default_corpus, phi_euclid_2d):
        # at p = 1 the check must agree with the plain f** - f* form at every
        # grid point to 1e-12
        for _, f in default_corpus[:3]:
            params = InequalityParams(p=1.0)
            report = sq.check_oscillation_p(f, phi_euclid_2d, params, capture_trace=True)
            prof = sq.decreasing_rearrangement(sq.grid_to_mass(f))
            grad = sq.decreasing_rearrangement(
                sq.grid_to_mass(sq.metric_gradient_modulus(f))
            )
            for t, lhs, rhs in report.trace:
                direct_lhs = sq.maximal_average(prof, t) - prof.value(t)
                direct_rhs = phi_euclid_2d(t) * sq.maximal_average(grad, t)
                if direct_rhs == 0:
                    continue
                assert lhs / rhs == pytest.approx(
                    direct_lhs / direct_rhs, rel=1e-12, abs=1e-15
                )

    def test_cone_passes_with_margin(self, cone512, phi_euclid_2d):
        params = InequalityParams(p=1.0)
        report = sq.check_oscillation_p(cone512, phi_euclid_2d, params)
        assert report.passed
        assert report.worst_ratio < 0.95

    def test_tail_regime_beyond_support(self, phi_euclid_2d):
        f = small_cone(128)
        supp = sq.support_measure(sq.grid_to_mass(f))
        grid = TGridSpec(8 * f.cell_measure, 2 * supp)
        params = InequalityParams(p=2.0, t_grid=grid)
        report = sq.check_oscillation_p(f, phi_euclid_2d, params, capture_trace=True)
        t_last, lhs_last, rhs_last = report.trace[-1]
        assert t_last == pytest.approx(2 * supp)
        prof = sq.decreasing_rearrangement(sq.grid_to_mass(f))
        assert prof.value(t_last) == 0.0
        powered = sq.powered_profile(prof, 2.0)
        expected = sq.maximal_average(powered, t_last) ** 0.5 / phi_euclid_2d(t_last)
        assert lhs_last == pytest.approx(expected, rel=1e-12)
        assert report.passed

    def test_scale_invariance_of_verdicts(self, phi_euclid_2d):
        f = small_cone(128)
        g = GridFunction(f.spacing, 0.03 * f.values)
        params = InequalityParams(p=2.0)
        a = sq.check_oscillation_p(f, phi_euclid_2d, params).worst_ratio
        b = sq.check_oscillation_p(g, phi_euclid_2d, params).worst_ratio
        assert a == pytest.approx(b, rel=1e-11)

    def test_zero_function(self, phi_euclid_2d):
        f = GridFunction(0.1, np.zeros((8, 8)))
        report = sq.check_oscillation_p(f, phi_euclid_2d, InequalityParams(p=1.0))
        assert report.passed and report.worst_ratio == 0.0


class TestDerivativeP:
    def test_p1_pointwise_is_oscillation_over_t(self, phi_euclid_2d):
        f = small_cone(128)
        params = InequalityParams(p=1.0)
        report = sq.check_derivative_p(
            f, phi_euclid_2d, params, form="pointwise", capture_trace=True
        )
        prof = sq.decreasing_rearrangement(sq.grid_to_mass(f))
        for t, lhs, _ in report.trace[:50]:
            osc = sq.maximal_average(prof, t) - prof.value(t)
            assert lhs == pytest.approx(osc / t, rel=1e-12, abs=1e-18)
        assert report.passed  # cone passes at constant 2 with margin

    def test_integrated_cone_passes_both_constants(self, cone512, phi_euclid_2d):
        params = InequalityParams(p=2.0)
        report = sq.check_derivative_p(cone512, phi_euclid_2d, params)
        assert report.passed
        assert report.params["pass_at_base_constant"]

    def test_plateau_contributes_zero(self, phi_euclid_2d):
        h = 1.0 / 128
        mask = disk_mask((128, 128), h, (0.5, 0.5), 0.2)
        f = indicator_mollify(mask, h, 0.1)
        params = InequalityParams(p=2.0)
        report = sq.check_derivative_p(
            f, phi_euclid_2d, params, form="pointwise", capture_trace=True
        )
        plateau = sq.distribution(sq.grid_to_mass(f), 1.0 - 1e-9)
        inside = [row for row in report.trace if row[0] < 0.5 * plateau]
        assert inside and all(row[1] == 0.0 for row in inside)

    def test_sharp_disk_integrated_tamer_than_pointwise(self, phi_euclid_2d):
        # near-jump data: pointwise differentiation spikes at the collar,
        # the interval form stays within its constant
        h = 1.0 / 256
        mask = disk_mask((256, 256), h, (0.5, 0.5), 0.25)
        f = indicator_mollify(mask, h, 2.5 * h)
        params = InequalityParams(p=2.0)
        integrated = sq.check_derivative_p(f, phi_euclid_2d, params)
        pointwise = sq.check_derivative_p(f, phi_euclid_2d, params, form="pointwise")
        assert integrated.passed
        assert pointwise.worst_ratio > integrated.worst_ratio

    def test_pointwise_trace_is_dform_derivative(self, phi_euclid_2d):
        h = 1.0 / 128
        f = indicator_mollify(disk_mask((128, 128), h, (0.5, 0.5), 0.2), h, 0.1)
        params = InequalityParams(p=2.0)
        report = sq.check_derivative_p(
            f, phi_euclid_2d, params, form="pointwise", capture_trace=True
        )
        t, lhs, _ = np.array(report.trace).T
        prof = sq.decreasing_rearrangement(sq.grid_to_mass(f))
        assert np.array_equal(lhs, sq.dform_derivative(prof, 2.0, t))

    def test_unknown_form_rejected(self, phi_euclid_2d):
        f = small_cone(64, radius=0.3)
        with pytest.raises(ValueError):
            sq.check_derivative_p(
                f, phi_euclid_2d, InequalityParams(p=1.0), form="spectral"
            )


_SPEC = TGridSpec(8 / 64**2, 1.0)
_PHIS = {
    "power_law": sq.phi_from_profile(sq.euclidean_profile(2)),
    "table": ProfileHandle("table", samples=((0.01, 0.03), (0.1, 0.09), (1.0, 0.3))),
}


def _inline_subgrid(t, refine):
    """The refined grid as check_derivative_p built it inline, one row per t interval."""
    steps = np.arange(refine + 1)
    growth = (t[1:] / t[:-1]) ** (1.0 / refine)
    return t[:-1, None] * growth[:, None] ** steps[None, :]


class TestTgridCaches:
    def test_tgrid_is_the_spec_points_and_read_only(self):
        t = inequalities._tgrid(_SPEC)
        assert t.shape == _SPEC.points().shape
        assert t.tobytes() == _SPEC.points().tobytes()
        assert inequalities._tgrid(TGridSpec(8 / 64**2, 1.0)) is t
        with pytest.raises(ValueError):
            t[0] = 1.0

    @pytest.mark.parametrize("kind", sorted(_PHIS))
    def test_phi_on_tgrid_equals_a_direct_call(self, kind):
        phi = _PHIS[kind]
        got = inequalities._phi_on_tgrid(_SPEC, phi)
        want = phi(_SPEC.points())
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    @pytest.mark.parametrize("bad", [0.0, -0.0, math.nan, math.inf])
    def test_tables_reject_values_that_are_not_finite_and_positive(self, bad):
        # equal handles then give equal phi, so the caches can key on the handle
        with pytest.raises(ValueError, match="finite and positive"):
            ProfileHandle("table", samples=((0.5, bad), (1.0, 1.0)))
        with pytest.raises(ValueError, match="finite and positive"):
            ProfileHandle("table", samples=((0.5, 1.0), (bad, 1.5)))

    def test_list_samples_hash_like_tuples(self):
        listed = ProfileHandle("table", samples=[[0.5, 1.0], [1.0, 1.5]])
        assert listed == ProfileHandle("table", samples=((0.5, 1.0), (1.0, 1.5)))
        assert hash(listed) == hash(ProfileHandle("table", samples=((0.5, 1.0), (1.0, 1.5))))

    @pytest.mark.parametrize("kind", sorted(_PHIS))
    @pytest.mark.parametrize("refine", [1, 16])
    def test_refined_tgrid_equals_the_inline_construction(self, kind, refine):
        phi = _PHIS[kind]
        sub = _inline_subgrid(_SPEC.points(), refine)
        phi_over_t = (phi(sub.ravel()) / sub.ravel()).reshape(sub.shape)
        got = inequalities._refined_tgrid(_SPEC, phi, refine)
        wants = (sub[:, 1:], phi_over_t[:, 1:], np.diff(sub, axis=1))
        for array, want in zip(got, wants):
            assert array.shape == want.shape
            assert array.tobytes() == np.ascontiguousarray(want).tobytes()
            assert not array.flags.writeable

    def test_a_plain_callable_phi_gives_the_handle_verdicts(self, phi_euclid_2d):
        f = small_cone(64)
        params = InequalityParams(p=2.0)
        for check in (sq.check_oscillation_p, sq.check_derivative_p):
            by_handle = check(f, phi_euclid_2d, params)
            by_callable = check(f, lambda t: phi_euclid_2d(t), params)
            assert by_callable.worst_ratio == by_handle.worst_ratio

    def test_integrated_rhs_equals_the_inline_sum(self, phi_euclid_2d):
        f = small_cone(64)
        report = sq.check_derivative_p(f, phi_euclid_2d, InequalityParams(p=2.0), capture_trace=True)
        grad = sq.decreasing_rearrangement(sq.grid_to_mass(sq.metric_gradient_modulus(f)))
        gp = sq.powered_profile(grad, 2.0)
        sub = _inline_subgrid(TGridSpec(8 * f.cell_measure, f.domain_measure).points(), 16)
        ts = sub.ravel()
        vals = (phi_euclid_2d(ts) / ts * sq.maximal_average(gp, ts) ** 0.5).reshape(sub.shape)
        rhs = np.sum(vals[:, 1:] * np.diff(sub, axis=1), axis=1)
        assert report.trace[:, 2].tobytes() == rhs.tobytes()


class TestBinomialBounds:
    def test_p2_is_exact_binomial_identity(self):
        report = sq.check_binomial_bounds(2.0)
        assert report.passed
        assert report.params["max_abs_slack_part1"] <= 1e-12

    def test_equality_on_diagonal(self):
        # a = b makes part one 0 >= 0 for every p
        for p in (1.5, 2.5, 3.5):
            k = InequalityParams(p=p).k
            series = sum(
                binomial_coefficient(p, j) * 5.0 ** (p - j) * 0.0**j
                for j in range(1, k + 1)
            )
            assert 5.0**p - 5.0**p - series == 0.0

    def test_point_evaluation_p25(self):
        # direct check at (a, b) = (2, 1) for p = 2.5, part of the sweep
        p, a, b = 2.5, 2.0, 1.0
        k = 2
        series = sum(
            binomial_coefficient(p, j) * b ** (p - j) * (a - b) ** j
            for j in range(1, k + 1)
        )
        assert (a - b) ** p >= a**p - b**p - series - 1e-10
        c = 2 ** ((k + 1) / p - 1)
        assert a**p + b**p + series <= (c * a + b) ** p * (1 + 1e-10)

    def test_sweep_all_p_values(self):
        for p in (1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.7):
            report = sq.check_binomial_bounds(p, a_max=20.0, grid_points=120)
            assert report.passed, (p, report.worst_ratio)

    def test_p_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            sq.check_binomial_bounds(1.0)


class TestChainRule:
    def test_ramp_and_scalar_examples(self):
        n = 65
        h = 1.0 / n
        x = (np.arange(n) + 0.5) * h
        values = x.copy()
        values[:2] = values[-2:] = 0.0
        f = GridFunction(h, values)
        report = sq.check_chain_rule(f, 2.0)
        assert report.passed
        # footnote inequality at a=2, b=1, r=3: |8-1| = 7 <= 3*(4+1)*1 = 15
        assert abs(2.0**3 - 1.0**3) <= 3 * (2.0**2 + 1.0**2) * 1.0

    def test_constant_function_zero_both_sides(self):
        values = np.zeros((10, 10))
        values[3:-3, 3:-3] = 4.0
        f = GridFunction(0.1, values)
        report = sq.check_chain_rule(f, 2.5)
        assert report.passed

    def test_sweep_r_values(self, default_corpus):
        f = default_corpus[0][1]
        for r in (1.5, 2.0, 3.0, 5.0):
            report = sq.check_chain_rule(f, r, grid_points=120)
            assert report.passed, (r, report.worst_ratio)
            assert report.params["scalar_worst_ratio"] <= 1 + 1e-10

    def test_negative_function_rejected(self):
        values = np.zeros(9)
        values[3:-3] = -1.0
        with pytest.raises(ValueError):
            sq.check_chain_rule(GridFunction(0.1, values), 2.0)


class TestONeil:
    def test_constant_factor_equality(self):
        rng = np.random.default_rng(0)
        vf = rng.uniform(0, 3, 50)
        vg = np.full(50, 0.7)
        masses = rng.uniform(0.1, 1.0, 50)
        report = sq.check_oneil(vf, vg, masses)
        assert report.worst_ratio == pytest.approx(1.0, rel=1e-12)
        assert report.passed

    def test_aligned_indicators_equality(self):
        vf = np.array([1.0] * 10 + [0.0] * 10)
        masses = np.full(20, 0.25)
        report = sq.check_oneil(vf, vf, masses)
        assert report.worst_ratio == pytest.approx(1.0, rel=1e-12)

    def test_disjoint_indicators_strict(self):
        vf = np.array([1.0] * 10 + [0.0] * 10)
        vg = vf[::-1].copy()
        masses = np.full(20, 0.25)
        report = sq.check_oneil(vf, vg, masses)
        assert report.worst_ratio == 0.0

    def test_random_pairs_no_violations(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            vf = rng.uniform(0, 5, n)
            vg = rng.uniform(0, 5, n)
            masses = rng.uniform(0.05, 2.0, n)
            total = float(masses.sum())
            t_grid = rng.uniform(total * 1e-4, total, 50)
            report = sq.check_oneil(vf, vg, masses, t_grid=np.sort(t_grid))
            assert report.passed, report.worst_ratio

    def test_scalar_masses_equal_the_full_mass_array(self):
        rng = np.random.default_rng(7)
        n = 40
        vf = np.round(rng.uniform(0, 3, n), 1)  # rounding makes ties
        vg = np.round(rng.uniform(0, 3, n), 1)
        scalar = sq.check_oneil(vf, vg, masses=0.5)
        full = sq.check_oneil(vf, vg, masses=np.full(n, 0.5))
        assert scalar.to_dict() == full.to_dict()
        for name in ("worst_ratio", "worst_location"):
            got, want = getattr(scalar, name), getattr(full, name)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), name
        with pytest.raises(ValueError, match="mismatched"):
            sq.check_oneil(vf, vg[:-1], masses=0.5)

    def test_grid_functions_and_mismatch(self):
        f = small_cone(32, radius=0.3)
        g = GridFunction(f.spacing, f.values**2)
        assert sq.check_oneil(f, g).passed
        other = small_cone(64, radius=0.3)
        with pytest.raises(ValueError):
            sq.check_oneil(f, other)
        with pytest.raises(ValueError):
            sq.check_oneil(np.ones(5), np.ones(5))  # masses required


class TestNash:
    def test_classical_cone_constant(self, cone512):
        report = sq.check_nash(cone512, None, 2.0, classical=True)
        # closed form for radial cones: ||f||_2^2/(||f||_1 ||grad f||_2)
        # = (pi R^2/6)/((pi R^2/3) sqrt(pi)) = 1/(2 sqrt(pi)), any R
        assert report.params["fitted_constant"] == pytest.approx(
            1 / (2 * math.sqrt(math.pi)), rel=0.02
        )

    def test_grid_stability(self):
        a = sq.check_nash(small_cone(256), None, 2.0, classical=True)
        b = sq.check_nash(small_cone(512), None, 2.0, classical=True)
        ca, cb = a.params["fitted_constant"], b.params["fitted_constant"]
        assert abs(ca - cb) / cb < 0.02

    def test_scaling_invariance(self):
        f = small_cone(128)
        g = GridFunction(f.spacing, 42.0 * f.values)
        a = sq.check_nash(f, None, 2.0, classical=True).worst_ratio
        b = sq.check_nash(g, None, 2.0, classical=True).worst_ratio
        assert a == pytest.approx(b, rel=1e-12)

    def test_dilation_sweep_constant_in_radius(self):
        consts = [
            sq.check_nash(small_cone(256, radius=r), None, 2.0, classical=True)
            .params["fitted_constant"]
            for r in (0.25, 0.32, 0.4)
        ]
        assert max(consts) / min(consts) < 1.02

    def test_general_phi_form_matches_classical(self):
        f = small_cone(128)
        phi = ProfileHandle("power_law", 1.0, 0.5)  # t^(1/n) for n = 2
        general = sq.check_nash(f, phi, 2.0)
        classical = sq.check_nash(f, None, 2.0, classical=True)
        assert general.worst_ratio == pytest.approx(classical.worst_ratio, rel=1e-12)

    def test_zero_function_rejected(self):
        f = GridFunction(0.1, np.zeros((8, 8)))
        with pytest.raises(ValueError):
            sq.check_nash(f, None, 2.0, classical=True)
        with pytest.raises(ValueError):
            sq.check_nash(small_cone(64, radius=0.3), None, 1.0)


class TestSobolev:
    def test_weak_cone_worked_example(self, cone512):
        report = sq.check_sobolev(cone512, 1.0, "weak")
        # sup_t sqrt(t) f*(t) = sqrt(pi)/4 at t = pi/4; || |grad f| ||_1 = pi
        assert report.worst_ratio == pytest.approx(
            math.sqrt(math.pi) / 4 / math.pi, rel=0.02
        )
        assert report.worst_location == pytest.approx(math.pi / 4, rel=0.05)

    def test_strong_and_exp_record_fitted(self, cone512):
        strong = sq.check_sobolev(cone512, 1.0, "strong")
        assert strong.passed and strong.params["fitted_constant"] > 0
        expo = sq.check_sobolev(cone512, 2.0, "exp")
        assert expo.passed and expo.params["fitted_constant"] > 0

    def test_exp_matches_oscillation_functional_up_to_tail(self, cone512):
        # the standalone Lorentz functional integrates the tail beyond the
        # domain as well; the domain-limited value must sit just below it
        prof = sq.decreasing_rearrangement(sq.grid_to_mass(cone512))
        full = sq.lorentz_norm(prof, math.inf, 2.0)
        report = sq.check_sobolev(cone512, 2.0, "exp")
        grad = sq.lp_norm(
            sq.grid_to_mass(sq.metric_gradient_modulus(cone512)), 2.0
        )
        domain_limited = report.worst_ratio * grad
        assert domain_limited < full <= domain_limited * 1.5

    def test_morrey_tent_worked_example(self, tent4096):
        report = sq.check_sobolev(tent4096, 2.0, "morrey")
        assert report.params["ess_sup"] - report.params["mean"] == pytest.approx(
            0.25, rel=0.01
        )
        assert report.constant_used == pytest.approx(2.0)
        assert report.passed

    def test_zero_function_any_mode(self):
        values = np.zeros(16)
        f = GridFunction(1.0 / 16, values)
        report = sq.check_sobolev(f, 2.0, "morrey")
        assert report.passed and report.worst_ratio == 0.0

    def test_scale_invariance(self):
        f = small_cone(128)
        g = GridFunction(f.spacing, 3.7 * f.values)
        for mode, p in (("weak", 1.0), ("strong", 1.0)):
            a = sq.check_sobolev(f, p, mode).worst_ratio
            b = sq.check_sobolev(g, p, mode).worst_ratio
            assert a == pytest.approx(b, rel=1e-12)

    def test_parameter_validation(self, cone512, tent4096):
        with pytest.raises(ValueError):
            sq.check_sobolev(cone512, 2.0, "weak")  # needs p < n
        with pytest.raises(ValueError):
            sq.check_sobolev(cone512, 1.0, "exp")  # needs p = n
        with pytest.raises(ValueError):
            sq.check_sobolev(cone512, 3.0, "morrey")  # unit domain required
        with pytest.raises(ValueError):
            sq.check_sobolev(tent4096, 0.5, "morrey")
        with pytest.raises(ValueError):
            sq.check_sobolev(cone512, 1.0, "average")


class TestEmpiricalBestConstant:
    def test_singleton_and_zero_padding(self, phi_euclid_2d):
        f = small_cone(128)
        solo = empirical_best_constant("s_phi_p", [f], {"p": 1.0})
        report = sq.check_s_phi_p(f, phi_euclid_2d, InequalityParams(p=1.0))
        assert solo == report.worst_ratio
        zero = GridFunction(f.spacing, np.zeros(f.extents))
        padded = empirical_best_constant("s_phi_p", [f, zero], {"p": 1.0})
        assert padded == solo

    def test_mollification_ladder_increases(self):
        h = 1.0 / 256
        fs = []
        for eps in (0.2, 0.1, 0.05):
            mask = disk_mask((256, 256), h, (0.5, 0.5), 0.25)
            fs.append(indicator_mollify(mask, h, eps))
        consts = [
            empirical_best_constant("s_phi_p", fs[: i + 1], {"p": 1.0})
            for i in range(3)
        ]
        assert consts[0] < consts[1] < consts[2] <= 1.05

    def test_dimension_defaults_to_the_function(self):
        f = sq.cone_grid(32, dim=3, radius=0.8)
        phi3 = sq.phi_from_profile(sq.euclidean_profile(3))
        report = sq.check_s_phi_p(f, phi3, InequalityParams(p=1.0))
        assert empirical_best_constant("s_phi_p", [f], {"p": 1.0}) == report.worst_ratio

    def test_flagged_rows_are_left_out_as_in_the_summary(self):
        # the near-indicator disk is flagged:jump; its ratio has no refinement limit
        h = 1.0 / 128
        sharp = indicator_mollify(disk_mask((128, 128), h, (0.5, 0.5), 0.25), h, h)
        ridge = sq.CorpusSpec(
            extents=128, families=({"kind": "tensor_bump", "widths": (0.45, 0.03)},)
        )
        corpus = [("sharp", sharp)] + sq.generate_corpus(ridge)
        config = sq.SuiteConfig(inequalities=({"id": "polya_szego", "p": 1.0},))
        reports = sq.run_suite(config, corpus=corpus)
        assert [r.status for r in reports] == ["flagged:jump", "ok"]
        assert reports[0].worst_ratio > reports[1].worst_ratio
        best = empirical_best_constant("polya_szego", [f for _, f in corpus], {"p": 1.0})
        assert best == summarize(reports)["polya_szego"]["best_constant"]
        assert best == reports[1].worst_ratio

    def test_empty_and_unknown_rejected(self):
        with pytest.raises(ValueError):
            empirical_best_constant("s_phi_p", [])
        with pytest.raises(KeyError):
            empirical_best_constant("bogus", [small_cone(32, radius=0.3)])
