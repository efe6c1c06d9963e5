import math

import numpy as np
import pytest

import symineq as sq
from symineq.gradient import has_profile_jump, metric_gradient_modulus, polya_szego_lhs
from symineq.measure import GridFunction, MassFunction


def ramp_1d(n=65, h=None):
    h = h or 1.0 / n
    x = (np.arange(n) + 0.5) * h
    values = x.copy()
    values[:2] = values[-2:] = 0.0
    return GridFunction(h, values)


class TestMetricGradientModulus:
    def test_linear_ramp_has_unit_slope(self):
        f = ramp_1d()
        modulus = metric_gradient_modulus(f)
        # interior cells away from the clipped ends see slope 1
        assert np.allclose(modulus.values[3:-4], 1.0)

    def test_constant_is_zero(self):
        values = np.zeros((8, 8))
        values[2:-2, 2:-2] = 3.0
        f = GridFunction(0.1, values)
        modulus = metric_gradient_modulus(f)
        assert np.all(modulus.values[3:-3, 3:-3] == 0.0)

    def test_tent_apex_keeps_unit_slope(self):
        n = 129
        h = 1.0 / n
        x = (np.arange(n) + 0.5) * h
        values = np.clip(np.minimum(x, 1 - x) - 2.5 * h, 0.0, None)
        f = GridFunction(h, values)
        modulus = metric_gradient_modulus(f)
        apex = n // 2
        assert modulus.values[apex] == pytest.approx(1.0)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(5)
        values = np.zeros((12, 12))
        values[3:-3, 3:-3] = rng.uniform(-1, 1, (6, 6))
        f = GridFunction(0.2, values)
        for c in (-2.5, 0.5):
            scaled = GridFunction(0.2, c * values)
            assert np.allclose(
                metric_gradient_modulus(scaled).values,
                abs(c) * metric_gradient_modulus(f).values,
                rtol=1e-12,
            )

    def test_vanishes_on_level_set_interiors(self):
        values = np.zeros((16, 16))
        values[4:-4, 4:-4] = 2.0  # constant plateau
        f = GridFunction(0.1, values)
        modulus = metric_gradient_modulus(f)
        assert np.all(modulus.values[6:-6, 6:-6] == 0.0)

    def test_triangle_bound_cellwise(self):
        rng = np.random.default_rng(11)
        a = np.zeros((14, 14))
        b = np.zeros((14, 14))
        a[3:-3, 3:-3] = rng.uniform(0, 1, (8, 8))
        b[3:-3, 3:-3] = rng.uniform(0, 1, (8, 8))
        fa, fb = GridFunction(0.1, a), GridFunction(0.1, b)
        fsum = GridFunction(0.1, a + b)
        for mode in ("metric_max", "euclidean_central"):
            lhs = metric_gradient_modulus(fsum, mode).values
            rhs = (
                metric_gradient_modulus(fa, mode).values
                + metric_gradient_modulus(fb, mode).values
            )
            assert np.all(lhs <= rhs + 1e-12)

    def test_modes_agree_on_smooth_functions(self, cone512):
        m1 = sq.lp_norm(sq.grid_to_mass(metric_gradient_modulus(cone512)), 1)
        m2 = sq.lp_norm(
            sq.grid_to_mass(metric_gradient_modulus(cone512, "euclidean_central")), 1
        )
        assert m1 == pytest.approx(m2, rel=0.02)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            metric_gradient_modulus(ramp_1d(), "upwind")

    def test_support_touching_boundary_rejected(self):
        values = np.zeros(9)
        values[1:-1] = 1.0  # support reaches the second cell layer
        f = GridFunction(0.1, values)
        with pytest.raises(ValueError, match="two cells"):
            metric_gradient_modulus(f)


class TestPolyaSzego:
    def test_tent_closed_form(self, tent4096):
        # f*(t) = (1 - t)/2 up to the collar: slope 1/2, so the bare-weight
        # integral is {int_0^1 (1/2)^2}^(1/2) = 1/2, and || |grad f| ||_2 = 1
        prof = sq.decreasing_rearrangement(sq.grid_to_mass(tent4096))
        lhs = polya_szego_lhs(prof, 1, 2.0, weight="bare_power")
        assert lhs == pytest.approx(0.5, rel=0.01)
        report = sq.polya_szego_compare(tent4096, 2.0, weight="bare_power")
        assert report.worst_ratio == pytest.approx(0.5, rel=0.02)
        assert report.passed

    def test_radial_cone_extremal(self, cone512):
        # radially decreasing extremizer: equality at the isoperimetric weight
        report = sq.polya_szego_compare(cone512, 1.0)
        assert report.worst_ratio == pytest.approx(1.0, rel=0.02)
        assert report.status == "ok"
        assert report.passed

    def test_zero_function_degenerate(self):
        f = GridFunction(0.1, np.zeros((8, 8)))
        report = sq.polya_szego_compare(f, 1.0)
        assert report.worst_ratio == 0.0
        assert report.passed

    def test_indicator_flagged_nonconvergent(self):
        values = np.zeros((32, 32))
        values[10:22, 10:22] = 1.0
        f = GridFunction(1 / 32, values)
        report = sq.polya_szego_compare(f, 2.0)
        assert report.status == "flagged:jump"
        assert report.params["jump_flag"]
        assert not report.passed

    def test_jump_detector(self):
        ind = sq.decreasing_rearrangement(MassFunction([1.0, 0.0], [0.3, 0.7]))
        assert has_profile_jump(ind)
        smooth = sq.decreasing_rearrangement(
            MassFunction(np.linspace(0, 1, 200), np.full(200, 0.01))
        )
        assert not has_profile_jump(smooth)

    def test_indicator_lhs_does_not_converge(self):
        # the true rearranged-derivative integral of a jump is infinite for
        # p > 1; the interpolant value is finite and stuck (merged ties make
        # it h-independent), which is why jumpy profiles are flagged
        vals = []
        for n in (64, 128):
            h = 1.0 / n
            values = np.zeros((n, n))
            lo, hi = int(0.3 * n), int(0.7 * n)
            values[lo:hi, lo:hi] = 1.0
            prof = sq.decreasing_rearrangement(sq.grid_to_mass(GridFunction(h, values)))
            assert has_profile_jump(prof)
            vals.append(polya_szego_lhs(prof, 2, 2.0))
        assert vals[1] == pytest.approx(vals[0], rel=0.1)
        assert math.isfinite(vals[1])
