import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symineq as sq
from symineq.measure import GridFunction, MassFunction


atom_lists = st.lists(
    st.tuples(
        st.floats(0.0, 50.0, allow_nan=False),
        st.floats(0.01, 10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


# heavy ties, exact zeros of both signs, subnormals and spread-out magnitudes
tied_values = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324]),
        st.floats(0.0, 1e300, allow_nan=False, allow_subnormal=True),
    ),
    min_size=1,
    max_size=40,
)
uniform_masses = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0]),
    st.floats(1e-320, 1e-310),  # subnormal
    st.floats(1e290, 1e300),  # huge, yet the total stays finite
    st.floats(1e-3, 1.0).map(lambda h: h**3),  # a 3-d cell measure
)

dyadic_masses = st.integers(-1074, 1000).map(lambda k: math.ldexp(1.0, k))


def is_dyadic(mass: float) -> bool:
    return math.frexp(mass)[0] == 0.5


def run_lengths(values):
    """Per-atom tie counts and their running ends, in decreasing value order (-0.0 ties 0.0)."""
    _, counts = np.unique(np.abs(np.asarray(values, dtype=float)), return_counts=True)
    counts = counts[::-1]
    return counts, np.cumsum(counts)


class TestMassFunction:
    def test_canonical_order_and_merge(self):
        mf = MassFunction([1.0, 3.0, 1.0, 0.0], [0.5, 0.5, 0.5, 2.0])
        assert mf.atoms == [(3.0, 0.5), (1.0, 1.0), (0.0, 2.0)]
        assert mf.total_mass == pytest.approx(3.5, rel=1e-12)

    def test_rejects_bad_atoms(self):
        with pytest.raises(ValueError):
            MassFunction([-1.0], [1.0])
        with pytest.raises(ValueError):
            MassFunction([1.0], [0.0])
        with pytest.raises(ValueError):
            MassFunction([], [])
        with pytest.raises(ValueError):
            MassFunction([math.inf], [1.0])
        for mass in (0.0, -1.0, math.nan, math.inf):  # a scalar mass is checked as well
            with pytest.raises(ValueError):
                MassFunction([1.0, 0.0], mass)

    @pytest.mark.parametrize("uniform", [True, False], ids=["scalar", "array"])
    def test_rejects_a_total_mass_that_overflows(self, uniform):
        with pytest.raises(ValueError, match="overflows"):
            MassFunction([1.0, 2.0], 1e308 if uniform else np.full(2, 1e308))
        with pytest.raises(ValueError, match="overflows"):  # tied atoms merged into one
            MassFunction([1.0, 1.0], 1e308 if uniform else np.full(2, 1e308))
        assert MassFunction([1.0, 2.0], 8e307 if uniform else np.full(2, 8e307)).total_mass == 1.6e308

    @given(tied_values, st.one_of(uniform_masses, dyadic_masses))
    @example([3.0, 0.0, 1.0, 3.0, -0.0, 1.0, 1.0, 5e-324, 0.0], 5e-324)  # subnormal 2**-1074
    @example([3.0, 0.0, 1.0, 3.0, -0.0, 1.0, 1.0, 5e-324, 0.0], 2.0**1000)
    @settings(max_examples=300)
    def test_scalar_mass_equals_full_mass_array(self, values, mass):
        """Run-length masses; the running sum of a per-cell mass array equals them up to rounding.

        On a dyadic mass every multiple is exact, so the two routes agree bit for bit.
        """
        uniform = MassFunction(values, mass)
        general = MassFunction(values, np.full(len(values), mass))
        counts, ends = run_lengths(values)
        assert uniform.masses.tobytes() == (counts * mass).tobytes()
        assert uniform.breakpoints.tobytes() == (np.concatenate(([0], ends)) * mass).tobytes()
        assert uniform.values.tobytes() == general.values.tobytes()
        for name in ("masses", "cum_masses", "breakpoints"):
            got, want = getattr(uniform, name), getattr(general, name)
            assert got.dtype == want.dtype, name
            if is_dyadic(mass):
                assert got.tobytes() == want.tobytes(), name
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=name)

    @given(
        tied_values,
        st.floats(1e-3, 1.0).map(lambda h: h**3).filter(lambda m: not is_dyadic(m)),
        st.one_of(st.integers(0, 1000), st.integers(2**40, 2**50)),
    )
    @settings(max_examples=300)
    def test_derived_masses_are_the_run_length_masses(self, values, mass, zeros):
        """A scalar mass stores no per-atom masses: they come from the breakpoints, each run length times m.

        The cell measure is non-dyadic, so each breakpoint is a rounded
        product; rint(breakpoint / m) still recovers the exact count, with
        counted zeros of up to 2**50 cells in the zero atom's run.
        """
        mf = MassFunction(values, mass, zeros=zeros)
        assert mf._masses is None
        counts, _ = run_lengths(values)
        if 0.0 in np.abs(values):
            counts[-1] += zeros  # the zero atom's run takes the counted zeros
        elif zeros:
            counts = np.append(counts, zeros)  # they are the zero atom
        assert mf.masses.tobytes() == (counts * mass).tobytes()
        assert mf.atoms == list(zip(mf.values.tolist(), (counts * mass).tolist()))

    @pytest.mark.parametrize("values", [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-0.0, 1.0]])
    @pytest.mark.parametrize("uniform", [True, False], ids=["scalar", "array"])
    def test_zero_atom_is_positive_zero(self, values, uniform):
        mf = MassFunction(values, 1.0 if uniform else np.ones(len(values)))
        assert mf.values[-1] == 0.0 and not np.signbit(mf.values[-1])

    @given(atom_lists)
    def test_total_mass_matches_sum(self, atoms):
        mf = MassFunction.from_atoms(atoms)
        expected = sum(m for _, m in atoms)
        assert mf.total_mass == pytest.approx(expected, rel=1e-12)


    @given(st.one_of(
        st.tuples(tied_values, uniform_masses),
        atom_lists.map(lambda atoms: ([v for v, _ in atoms], np.array([m for _, m in atoms]))),
    ))
    @settings(max_examples=200)
    def test_canonical_form_on_both_routes(self, values_masses):
        values, masses = values_masses
        mf = MassFunction(values, masses)
        assert np.all(np.diff(mf.values) < 0)  # strictly decreasing: ties merged
        assert np.all(mf.masses > 0)
        assert mf.cum_masses[-1] == mf.total_mass
        assert mf.total_mass == pytest.approx(math.fsum(mf.masses), rel=1e-12)
        assert mf.total_mass == pytest.approx(math.fsum(np.broadcast_to(masses, len(values))), rel=1e-12)


class TestGridFunction:
    def test_boundary_layer_enforced(self):
        values = np.ones((4, 4))
        with pytest.raises(ValueError):
            GridFunction(0.5, values)
        values[0, :] = values[-1, :] = values[:, 0] = values[:, -1] = 0.0
        f = GridFunction(0.5, values)
        assert f.dim == 2
        assert f.domain_measure == pytest.approx(0.25 * 16)

    def test_small_or_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(0.5, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            GridFunction(-1.0, np.zeros((3, 3)))
        bad = np.zeros((3, 3))
        bad[1, 1] = math.nan
        with pytest.raises(ValueError):
            GridFunction(0.5, bad)

    @pytest.mark.parametrize("spacing, shape", [(1e159, (8, 8)), (1e-200, (3, 3)), (1e154, (8, 8))])
    def test_cell_and_domain_measure_must_be_finite_and_positive(self, spacing, shape):
        # h**2 overflows, h**2 underflows to 0, and h**2 * 64 cells overflows
        with pytest.raises(ValueError, match="cell measure"):
            GridFunction(spacing, np.zeros(shape))
        assert GridFunction(1e159, np.zeros(8)).domain_measure == 8e159  # 1-d is fine

    def test_json_round_trip(self, tmp_path):
        values = np.zeros((3, 4))
        values[1, 1:3] = [1.0, 2.0]
        f = GridFunction(0.25, values)
        path = tmp_path / "f.json"
        f.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["dim"] == 2 and doc["extents"] == [3, 4]
        back = GridFunction.from_json(path)
        assert back.spacing == f.spacing
        assert np.array_equal(back.values, f.values)

    def test_json_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GridFunction.from_json(
                {"dim": 1, "spacing": 0.5, "extents": [3, 3], "values": [0.0] * 9}
            )


class TestGridToMass:
    def test_one_dimensional_example(self):
        f = GridFunction(0.5, [0.0, 2.0, 0.0])
        mf = sq.grid_to_mass(f)
        assert mf.atoms == [(2.0, 0.5), (0.0, 1.0)]
        assert mf.total_mass == pytest.approx(1.5)

    def test_all_zero_grid_collapses(self):
        f = GridFunction(0.5, np.zeros((3, 3)))
        mf = sq.grid_to_mass(f)
        assert mf.atoms == [(0.0, pytest.approx(f.domain_measure))]

    def test_two_dimensional_aggregation(self):
        values = np.zeros((5, 5))
        values[1, 1] = values[2, 2] = values[3, 3] = 1.0
        f = GridFunction(0.1, values)
        mf = sq.grid_to_mass(f)
        assert mf.atoms[0] == (1.0, pytest.approx(0.03))
        assert mf.total_mass == pytest.approx(f.domain_measure, rel=1e-12)

    def test_norm_preserved_against_direct_quadrature(self):
        rng = np.random.default_rng(7)
        values = np.zeros((8, 8))
        values[2:-2, 2:-2] = rng.uniform(-1, 1, (4, 4))
        f = GridFunction(0.3, values)
        for p in (1.0, 2.0, 3.5):
            direct = (np.sum(np.abs(values) ** p) * f.cell_measure) ** (1 / p)
            assert sq.lp_norm(sq.grid_to_mass(f), p) == pytest.approx(direct, rel=1e-12)


class TestNorms:
    def test_worked_examples(self):
        mf = MassFunction([3.0, 1.0], [0.5, 1.0])
        assert sq.lp_norm(mf, 1) == pytest.approx(2.5)
        assert sq.lp_norm(mf, 2) == pytest.approx(math.sqrt(5.5))
        assert sq.lp_norm(mf, math.inf) == 3.0

    def test_support_measure_examples(self):
        mf = MassFunction([3.0, 1.0, 0.0], [0.5, 1.0, 2.0])
        assert sq.support_measure(mf) == pytest.approx(1.5)
        assert sq.support_measure(mf, 2.0) == pytest.approx(0.5)
        zero = MassFunction([0.0], [1.0])
        assert sq.support_measure(zero) == 0.0
        with pytest.raises(ValueError):
            sq.support_measure(mf, -1.0)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            sq.lp_norm(MassFunction([1.0], [1.0]), 0.5)

    @given(atom_lists, st.floats(1.0, 6.0))
    @settings(max_examples=60)
    def test_monotone_under_domination(self, atoms, p):
        values = np.array([v for v, _ in atoms])
        masses = np.array([m for _, m in atoms])
        f = MassFunction(values, masses)
        g = MassFunction(values + 0.5, masses)
        assert sq.lp_norm(f, p) <= sq.lp_norm(g, p) + 1e-12

    @given(atom_lists)
    def test_support_plus_zero_mass_is_total(self, atoms):
        mf = MassFunction.from_atoms(atoms)
        zero_mass = float(np.sum(mf.masses[mf.values == 0.0]))
        assert sq.support_measure(mf) + zero_mass == pytest.approx(
            mf.total_mass, rel=1e-12
        )
