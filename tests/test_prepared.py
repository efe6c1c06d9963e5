import json
import sys
from collections import Counter

import numpy as np
import pytest

import symineq as sq
from symineq import inequalities
from symineq.gradient import PreparedFunction, prepare
from symineq.suite import DEFAULT_INEQUALITIES, SuiteConfig

# both corpus dimensions, small enough for tier-1; radius-2 noise fits 24 cells
SMALL_FAMILIES = (
    {"kind": "cone"},
    {"kind": "tensor_bump"},
    {"kind": "mollified_disk", "eps_ladder": (0.2, 0.1)},
    {"kind": "smoothed_noise", "radius": 2},
    {"kind": "multi_bump"},
)
SPECS = {
    "2d": sq.CorpusSpec(seed=11, dim=2, extents=48, families=SMALL_FAMILIES),
    "3d": sq.CorpusSpec(seed=11, dim=3, extents=24, families=SMALL_FAMILIES),
}
TRACED_IDS = ("oscillation_p", "derivative_p")


@pytest.fixture(scope="module", params=sorted(SPECS))
def small_corpus(request):
    spec = SPECS[request.param]
    return spec, sq.generate_corpus(spec)


class TestPreparedFunction:
    def test_artifacts_match_direct_builds(self, cone512):
        pf = PreparedFunction(cone512)
        mass = sq.grid_to_mass(cone512)
        for got, want in (
            (pf.mass.values, mass.values),
            (pf.mass.masses, mass.masses),
            (pf.mass.cum_masses, mass.cum_masses),
            (pf.profile.breakpoints, sq.decreasing_rearrangement(mass).breakpoints),
            (pf.profile.levels, sq.decreasing_rearrangement(mass).levels),
        ):
            assert np.array_equal(got, want)
        for mode in ("metric_max", "euclidean_central"):
            grad = sq.metric_gradient_modulus(cone512, mode)
            grad_profile = sq.decreasing_rearrangement(sq.grid_to_mass(grad))
            assert np.array_equal(pf.grad(mode).values, grad.values)
            assert np.array_equal(pf.grad_mass(mode).masses, sq.grid_to_mass(grad).masses)
            assert np.array_equal(pf.grad_profile(mode).levels, grad_profile.levels)
            assert np.array_equal(pf.grad_profile(mode).breakpoints, grad_profile.breakpoints)

    def test_each_artifact_is_built_once_per_mode(self, cone512):
        pf = PreparedFunction(cone512)
        assert pf.mass is pf.mass
        assert pf.profile is pf.profile
        assert pf.grad_profile() is pf.grad_profile("metric_max")
        assert pf.grad_mass("euclidean_central") is not pf.grad_mass("metric_max")
        for profile in (pf.profile, pf.grad_profile()):
            powered = pf.powered(profile, 2.0)
            assert pf.powered(profile, 2.0) is powered
            assert np.array_equal(powered.levels, sq.powered_profile(profile, 2.0).levels)
            assert np.array_equal(powered.breakpoints, profile.breakpoints)
        assert pf.powered(pf.profile, 2.0) is not pf.powered(pf.grad_profile(), 2.0)
        assert prepare(pf) is pf
        assert prepare(cone512).grid is cone512

    def test_keep_profile_only_drops_the_rest(self, cone512):
        pf = PreparedFunction(cone512)
        mass, grad, squared = pf.mass, pf.grad(), pf.powered(pf.profile, 2.0)
        pf.keep_profile_only()
        profile = pf.profile
        pf.keep_profile_only()
        assert pf.profile is profile
        assert pf.mass is not mass and pf.grad() is not grad
        assert pf.powered(profile, 2.0) is not squared


    def test_keep_powers_drops_the_other_powers(self, cone512):
        pf = PreparedFunction(cone512)
        profile, grad_profile = pf.profile, pf.grad_profile()
        squared, cubed = pf.powered(profile, 2.0), pf.powered(grad_profile, 3.0)
        pf.keep_powers({2.0})
        assert pf.powered(profile, 2.0) is squared
        assert pf.powered(grad_profile, 3.0) is not cubed
        assert pf.profile is profile and pf.grad_profile() is grad_profile


@pytest.mark.parametrize(
    "spec",
    [sq.CorpusSpec(seed=0, dim=2, extents=128), sq.CorpusSpec(seed=0, dim=3, extents=40)],
    ids=["2d-128", "3d-40"],
)
def test_scalar_cell_mass_matches_full_mass_array(spec):
    """The suite's uniform-mass builds equal the explicit per-cell mass arrays bit for bit."""

    def assert_same(uniform, values, cell_measure):
        general = sq.MassFunction(values, np.full(values.size, cell_measure))
        for name in ("values", "masses", "cum_masses", "breakpoints"):
            assert getattr(uniform, name).tobytes() == getattr(general, name).tobytes(), name

    corpus = [f for _, f in sq.generate_corpus(spec)]
    for f in corpus:
        for grid in (f, sq.metric_gradient_modulus(f)):
            assert_same(sq.grid_to_mass(grid), np.abs(grid.values.ravel()), grid.cell_measure)
    for f, g in zip(corpus[:-1], corpus[1:]):
        product = np.abs(f.values.ravel()) * np.abs(g.values.ravel())
        assert_same(sq.MassFunction(product, f.cell_measure), product, f.cell_measure)


def _direct_reports(config, corpus):
    """The suite's rows, entry-major, each from a checker on the plain GridFunction."""
    out = []
    for entry in config.inequalities:
        name = entry["id"]
        kwargs = {k: v for k, v in entry.items() if k != "id"}
        if name == "binomial_bounds":
            report = sq.check_binomial_bounds(**kwargs)
            report.function_id = "-"
            out.append(report)
        elif name == "oneil":
            for (id_a, fa), (id_b, fb) in zip(corpus[:-1], corpus[1:]):
                report = sq.check_oneil(fa, fb, **kwargs)
                report.function_id = f"{id_a}*{id_b}"
                out.append(report)
        else:
            if name in TRACED_IDS:
                kwargs["capture_trace"] = config.detail
            for function_id, f in corpus:
                report = sq.CHECKERS[name](f, **kwargs)
                report.function_id = function_id
                out.append(report)
    return out


def test_suite_rows_equal_direct_checker_calls(small_corpus):
    spec, corpus = small_corpus
    inequalities = DEFAULT_INEQUALITIES + (
        {"id": "s_phi_p", "p": 2.0, "gradient_mode": "euclidean_central"},
        {"id": "oscillation_p", "p": 2.0, "gradient_mode": "euclidean_central"},
    )
    config = SuiteConfig(inequalities=inequalities, detail=True, corpus=spec)
    suite_rows = sq.run_suite(config, corpus)
    direct_rows = _direct_reports(config, corpus)

    ids = [fid for fid, _ in corpus]
    pair_ids = [f"{a}*{b}" for a, b in zip(ids[:-1], ids[1:])]
    expected_ids = []
    for entry in inequalities:
        fids = {"binomial_bounds": ["-"], "oneil": pair_ids}.get(entry["id"], ids)
        expected_ids += [(entry["id"], fid) for fid in fids]
    assert [(r.inequality_id, r.function_id) for r in suite_rows] == expected_ids
    assert not any(r.status.startswith("input_error") for r in suite_rows)
    assert any(r.trace is not None and len(r.trace) for r in suite_rows)

    def dump(rows):
        return [json.dumps(r.to_dict(include_trace=True), sort_keys=True) for r in rows]

    assert dump(suite_rows) == dump(direct_rows)


def test_dimension_comes_from_each_function():
    """A 3-d corpus under a config whose own corpus is 2-d: every row uses n = 3."""
    corpus = sq.generate_corpus(SPECS["3d"])
    config = SuiteConfig(inequalities=({"id": "s_phi_p", "p": 1.0}, {"id": "sobolev_weak"}))
    assert config.corpus.dim == 2
    reports = sq.run_suite(config, corpus)
    assert len(reports) == 2 * len(corpus)
    assert {(r.status, r.params["n"]) for r in reports} == {("ok", 3)}
    phi3 = sq.phi_from_profile(sq.euclidean_profile(3))
    direct = sq.check_s_phi_p(corpus[0][1], phi3, sq.InequalityParams(p=1.0))
    assert reports[0].worst_ratio == direct.worst_ratio


def test_direct_checkers_take_n_and_phi_from_a_3d_grid():
    f3d = sq.cone_grid(32, dim=3, radius=0.8)
    phi3 = sq.phi_from_profile(sq.euclidean_profile(3))
    params = sq.InequalityParams(p=1.0)
    for check in (sq.check_s_phi_p, sq.check_oscillation_p, sq.check_derivative_p):
        default, explicit = check(f3d, None, params), check(f3d, phi3, params)
        assert default.params["n"] == 3
        assert default.to_dict() == explicit.to_dict()
    classical = sq.check_nash(f3d, None, 2.0, classical=True)
    assert classical.params["n"] == 3
    assert sq.check_nash(f3d, None, 2.0).worst_ratio == sq.check_nash(f3d, phi3, 2.0).worst_ratio
    expo = sq.check_sobolev(f3d, None, "exp")
    assert (expo.params["n"], expo.params["p"]) == (3, 3.0)
    assert expo.worst_ratio == sq.check_sobolev(f3d, 3.0, "exp").worst_ratio
    assert sq.check_sobolev(f3d, None, "weak").params["p"] == 1.0
    assert sq.polya_szego_compare(f3d, 1.0).params["n"] == 3


def test_an_underflowed_gradient_is_an_input_error_not_a_trivial_pass():
    """Every cell of 1e-200 * cone is nonzero, but each squared gradient component underflows."""
    cone = sq.cone_grid(64)
    tiny = sq.GridFunction(cone.spacing, 1e-200 * cone.values)
    assert not np.any(sq.metric_gradient_modulus(tiny).values)
    entries = tuple(e for e in DEFAULT_INEQUALITIES if e["id"] not in ("binomial_bounds", "oneil"))
    config = SuiteConfig(inequalities=entries)
    for got, want in zip(sq.run_suite(config, [("tiny", tiny)]), sq.run_suite(config, [("cone", cone)])):
        assert got.status.startswith("input_error") or got.worst_ratio == want.worst_ratio, got.inequality_id
    with pytest.raises(ValueError, match="zero gradient"):
        prepare(tiny).grad()
    # at 1e-120 the gradient survives, but f^3 and |grad f|^3 underflow: no 0/0 escapes a checker
    cubed = sq.GridFunction(cone.spacing, 1e-120 * cone.values)
    cubic = tuple({"id": name, "p": 3.0} for name in ("s_phi_p", "nash", "polya_szego"))
    rows = sq.run_suite(SuiteConfig(inequalities=cubic), [("cubed", cubed)])
    assert [r.status.split(":")[0] for r in rows] == ["input_error"] * 3
    assert all("underflows" in r.status for r in rows)
    zero = sq.GridFunction(cone.spacing, np.zeros(cone.extents))
    assert prepare(zero).is_zero and not np.any(prepare(zero).grad().values)


def test_default_suite_builds_each_artifact_once(small_corpus, monkeypatch):
    spec, corpus = small_corpus
    counts = Counter()

    original_init = sq.MassFunction.__init__

    def counting_init(self, *args, **kwargs):
        counts["mass"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(sq.MassFunction, "__init__", counting_init)

    original_modulus = sq.metric_gradient_modulus

    def counting_modulus(*args, **kwargs):
        counts["modulus"] += 1
        return original_modulus(*args, **kwargs)

    original_powered = sq.powered_profile

    def counting_powered(*args, **kwargs):
        counts["powered"] += 1
        return original_powered(*args, **kwargs)

    # rebind in every module that imported the function by name
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symineq":
            if getattr(module, "metric_gradient_modulus", None) is original_modulus:
                monkeypatch.setattr(module, "metric_gradient_modulus", counting_modulus)
            if getattr(module, "powered_profile", None) is original_powered:
                monkeypatch.setattr(module, "powered_profile", counting_powered)

    reports = sq.run_suite(SuiteConfig(corpus=spec), corpus)
    assert not any(r.status.startswith("input_error") for r in reports)
    n = len(corpus)
    # f and |grad f| per function, plus the cellwise product per O'Neil pair
    assert 0 < counts["mass"] <= 2 * n + (n - 1)
    # |grad f| and |grad f^r| (chain rule) per function
    assert 0 < counts["modulus"] <= 2 * n
    # f* and |grad f|* at each of p = 1, 1.5, 2, 3 per function
    assert 0 < counts["powered"] <= 8 * n


def test_default_suite_builds_each_tgrid_artifact_once(small_corpus, monkeypatch):
    """One grid shape: one t-grid per spec, and phi on an array once per (spec, phi, refine)."""
    spec, corpus = small_corpus
    for cache in (inequalities._tgrid, inequalities._phi_on_tgrid, inequalities._refined_tgrid):
        cache.cache_clear()
    grids, phi_arrays = Counter(), Counter()

    original_tgrid = inequalities.geometric_tgrid

    def counting_tgrid(*args):
        grids[args] += 1
        return original_tgrid(*args)

    original_call = sq.ProfileHandle.__call__

    def counting_call(self, t):
        if np.ndim(t):
            phi_arrays[np.shape(t)] += 1
        return original_call(self, t)

    monkeypatch.setattr(inequalities, "geometric_tgrid", counting_tgrid)
    monkeypatch.setattr(sq.ProfileHandle, "__call__", counting_call)
    reports = sq.run_suite(SuiteConfig(corpus=spec), corpus)
    assert not any(r.status.startswith("input_error") for r in reports)
    assert len({f.shape_label for _, f in corpus}) == 1
    # each distinct spec is built once: the checks' one default grid (64 points
    # per decade) and the O'Neil pairs' one grid, which ends at the domain measure
    assert set(grids.values()) == {1}
    assert sorted(args[2] for args in grids) == [16, 64]
    # oscillation_p reads phi(t) of the one (spec, phi); derivative_p the refined grid's phi
    assert sum(phi_arrays.values()) == 2 and len(phi_arrays) == 2
