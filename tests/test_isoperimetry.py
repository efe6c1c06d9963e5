import json
import math

import numpy as np
import pytest

import symineq as sq
from symineq.isoperimetry import (
    ProfileHandle,
    disk_mask,
    euclidean_profile,
    indicator_mollify,
    mollify_ladder,
    phi_from_profile,
    unit_ball_volume,
    validate_profile,
)


class TestEuclideanProfile:
    def test_disk_geometry_oracle(self):
        # a disk of area pi is the unit disk: its perimeter is 2 pi
        prof = euclidean_profile(2)
        assert prof(math.pi) == pytest.approx(2 * math.pi, rel=1e-12)
        assert prof.coefficient == pytest.approx(2 * math.sqrt(math.pi), rel=1e-12)

    def test_one_dimensional_constant(self):
        # an interval has two boundary points, whatever its length
        prof = euclidean_profile(1)
        assert prof(0.1) == pytest.approx(2.0)
        assert prof(7.3) == pytest.approx(2.0)

    def test_three_dimensional_coefficient(self):
        prof = euclidean_profile(3)
        assert prof.coefficient == pytest.approx(3 * (4 * math.pi / 3) ** (1 / 3), rel=1e-10)
        assert prof.coefficient == pytest.approx(4.83598, rel=1e-5)
        # sphere oracle: ball of volume v has surface 4 pi r^2
        v = 2.0
        r = (3 * v / (4 * math.pi)) ** (1 / 3)
        assert prof(v) == pytest.approx(4 * math.pi * r**2, rel=1e-12)

    def test_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


class TestPhiFromProfile:
    def test_power_law_algebra(self):
        phi = phi_from_profile(ProfileHandle("power_law", 4.0, 0.75))
        assert phi.coefficient == pytest.approx(0.25)
        assert phi.exponent == pytest.approx(0.25)

    def test_euclidean_worked_example(self):
        phi = phi_from_profile(euclidean_profile(2))
        assert phi(math.pi) == pytest.approx(0.5, rel=1e-12)

    def test_table_quotient_monotone(self):
        ts = np.linspace(0.1, 2.0, 20)
        table = ProfileHandle(
            "table", samples=tuple((float(t), float(math.sqrt(t))) for t in ts)
        )
        phi = phi_from_profile(table)
        grid = np.linspace(0.1, 2.0, 50)
        assert np.all(np.diff(phi(grid)) >= -1e-12)

    def test_vanishing_table_rejected(self):
        with pytest.raises(ValueError):
            phi_from_profile(ProfileHandle("table", samples=((0.5, 0.0), (1.0, 1.0))))


class TestValidateProfile:
    def test_sqrt_profile_admissible(self):
        prof = ProfileHandle("power_law", 1.0, 0.5)
        assert validate_profile(prof, t_max=2.0) == []

    def test_convex_profile_flagged(self):
        prof = ProfileHandle("power_law", 1.0, 2.0)
        kinds = {v.kind for v in validate_profile(prof, t_max=2.0)}
        assert "quotient_decreasing" in kinds
        assert "not_concave" in kinds

    def test_constant_profile_waived(self):
        prof = euclidean_profile(1)
        assert prof.is_constant
        assert validate_profile(prof, t_max=2.0) == []

    def test_table_with_decreasing_quotient_flagged(self):
        samples = ((0.5, 2.0), (1.0, 2.2), (1.5, 4.5))
        out = validate_profile(ProfileHandle("table", samples=samples), t_max=1.5)
        assert any(v.kind == "quotient_decreasing" for v in out)


class TestProfileHandle:
    def test_json_round_trip(self, tmp_path):
        prof = euclidean_profile(2)
        path = tmp_path / "prof.json"
        prof.to_json(path)
        back = ProfileHandle.from_json(path)
        assert back.coefficient == prof.coefficient
        assert back.exponent == prof.exponent

        table = ProfileHandle("table", samples=((0.5, 1.0), (1.0, 1.5)))
        table.to_json(path)
        back = ProfileHandle.from_json(path)
        assert back.samples == table.samples

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ProfileHandle("parabola", 1.0, 1.0)

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"kind": "power_law", "coefficient": 0.28, "exponent": 0.5, "tolernce": 3}, "tolernce"),
            ({"kind": "power_law", "coefficient": 0.28, "exponent": 0.5, "samples": [[1, 1], [2, 2]]}, "samples"),
            ({"kind": "table", "samples": [[0.5, 1.0], [1.0, 1.5]], "exponent": 0.5}, "exponent"),
            ({"kind": "power_law", "coefficient": 0.28, "exponent": 0.5, "domain_max": 2.0}, "domain_max"),
        ],
        ids=["misspelt", "table_key_on_power_law", "power_law_key_on_table", "domain_max"],
    )
    def test_from_json_rejects_keys_of_no_field_or_of_the_other_kind(self, doc, key):
        with pytest.raises(ValueError, match=f"unknown {doc['kind']} profile keys \\['{key}'\\]"):
            ProfileHandle.from_json(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "power_law", {"coefficient": 1.0, "exponent": 0.5}])
    def test_from_json_needs_an_object_with_a_known_kind(self, doc, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            ProfileHandle.from_json(path)


class TestIndicatorMollify:
    def test_disk_measures(self):
        # centered disk radius 0.3 on (0,1)^2 with eps = 0.05
        h = 1.0 / 256
        mask = disk_mask((256, 256), h, (0.5, 0.5), 0.3)
        f = indicator_mollify(mask, h, 0.05)
        mass = sq.grid_to_mass(f)
        plateau = sq.distribution(mass, 1.0 - 1e-9)
        support = sq.support_measure(mass)
        assert plateau == pytest.approx(math.pi * 0.09, rel=0.02)
        assert support == pytest.approx(math.pi * 0.1225, rel=0.04)

    def test_gradient_sup_bound(self):
        h = 1.0 / 128
        eps = 0.1
        mask = disk_mask((128, 128), h, (0.5, 0.5), 0.25)
        f = indicator_mollify(mask, h, eps)
        per_axis_bound = (1 + h / eps) / eps
        # every one-sided quotient obeys the per-direction bound ...
        for ax in (0, 1):
            diffs = np.abs(np.diff(f.values, axis=ax)) / h
            assert diffs.max() <= per_axis_bound * (1 + 1e-12)
        # ... and the combined modulus at most picks up sqrt(n) at kinks
        # of the distance function
        modulus = sq.metric_gradient_modulus(f)
        assert modulus.values.max() <= math.sqrt(2) * per_axis_bound * (1 + 1e-12)
        central = sq.metric_gradient_modulus(f, "euclidean_central")
        assert central.values.max() <= per_axis_bound * (1 + 1e-12)

    def test_perimeter_proxy(self):
        # (measure(A_eps) - measure(A)) / eps approximates the perimeter
        h = 1.0 / 512
        eps = 0.04
        radius = 0.25
        mask = disk_mask((512, 512), h, (0.5, 0.5), radius)
        f = indicator_mollify(mask, h, eps)
        mass = sq.grid_to_mass(f)
        proxy = (sq.support_measure(mass) - sq.distribution(mass, 1.0 - 1e-9)) / eps
        # collar area = pi ((R+eps)^2 - R^2) = perimeter * eps + pi eps^2
        assert proxy == pytest.approx(2 * math.pi * radius + math.pi * eps, rel=0.03)

    def test_ladder_equals_one_call_per_eps(self):
        h = 1.0 / 48
        mask = disk_mask((48, 48), h, (0.5, 0.5), 0.25)
        ladder = (0.2, 0.1, 0.05, h)
        for f, eps in zip(mollify_ladder(mask, h, ladder), ladder):
            assert f.values.tobytes() == indicator_mollify(mask, h, eps).values.tobytes()

    def test_ladder_checks_every_eps(self):
        h = 1.0 / 64
        mask = disk_mask((64, 64), h, (0.5, 0.5), 0.2)
        with pytest.raises(ValueError, match="at least the cell spacing"):
            mollify_ladder(mask, h, (0.1, 0.5 * h))
        with pytest.raises(ValueError, match="two cells away"):
            mollify_ladder(mask, h, (0.05, 0.4))

    def test_eps_below_spacing_rejected(self):
        mask = disk_mask((64, 64), 1 / 64, (0.5, 0.5), 0.2)
        with pytest.raises(ValueError):
            indicator_mollify(mask, 1 / 64, 0.5 / 64)

    def test_support_near_boundary_rejected(self):
        mask = disk_mask((64, 64), 1 / 64, (0.5, 0.5), 0.45)
        with pytest.raises(ValueError):
            indicator_mollify(mask, 1 / 64, 0.1)

    @pytest.mark.parametrize(
        "extents, spacing, center, radius",
        [
            ((16, 16), 1e159, (8e159, 8e159), 4e159),  # the squares of the coordinates overflow
            ((16,), 1e299, (8e299,), 4e299),  # a finite domain measure, but not its squares
            ((8, 8), 0.125, (0.5, 0.5), 1e200),  # radius**2 overflows
            ((8, 8), 0.125, (0.5, math.nan), 0.25),
            ((8, 8), 0.0, (0.5, 0.5), 0.25),
        ],
    )
    def test_disk_mask_rejects_squares_that_are_not_finite(self, extents, spacing, center, radius):
        with pytest.raises(ValueError, match="must be finite"):
            disk_mask(extents, spacing, center, radius)

    @pytest.mark.parametrize(
        "extents, spacing, cell",
        [
            ((8, 8), 1e160, (3, 3)),  # the cell measure overflows
            ((8,), 1e200, (3,)),  # a finite domain measure, but not the squared distances
        ],
    )
    def test_mollify_ladder_rejects_squares_that_are_not_finite(self, extents, spacing, cell):
        mask = np.zeros(extents, dtype=bool)
        mask[cell] = True
        with pytest.raises(ValueError, match="finite"):
            mollify_ladder(mask, spacing, (10 * spacing,))

    def test_single_cell_spike(self):
        # degenerate but legal: a one-cell set with eps = h
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        f = indicator_mollify(mask, 0.1, 0.1)
        assert f.values[4, 4] == 1.0
        assert f.values[4, 5] == pytest.approx(0.0)  # neighbor at distance h
