import functools
import inspect
import json
import math
import os
import sys
from collections import Counter

import numpy as np
import pytest

import symineq as sq
from symineq import gradient, inequalities
from symineq.gradient import GRADIENT_MODES, PreparedFunction, prepare
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
            (pf.mass().values, mass.values),
            (pf.mass().masses, mass.masses),
            (pf.mass().cum_masses, mass.cum_masses),
            (pf.profile().breakpoints, sq.decreasing_rearrangement(mass).breakpoints),
            (pf.profile().levels, sq.decreasing_rearrangement(mass).levels),
        ):
            assert np.array_equal(got, want)
        for mode in ("metric_max", "euclidean_central"):
            grad = sq.metric_gradient_modulus(cone512, mode)
            grad_profile = sq.decreasing_rearrangement(sq.grid_to_mass(grad))
            # the modulus on f's support box, and 0 off it
            assert np.array_equal(pf.grad(mode), grad.values[pf.box])
            assert np.count_nonzero(grad.values) == np.count_nonzero(pf.grad(mode))
            assert np.array_equal(pf.mass(mode).masses, sq.grid_to_mass(grad).masses)
            assert np.array_equal(pf.profile(mode).levels, grad_profile.levels)
            assert np.array_equal(pf.profile(mode).breakpoints, grad_profile.breakpoints)

    def test_each_artifact_is_built_once_per_mode(self, cone512):
        pf = PreparedFunction(cone512)
        assert pf.mass() is pf.mass(None)
        assert pf.profile() is pf.profile()
        assert pf.profile("metric_max") is pf.profile("metric_max")
        assert pf.mass("euclidean_central") is not pf.mass("metric_max")
        for mode in (None, "metric_max"):
            profile, powered = pf.profile(mode), pf.powered(2.0, mode)
            want = sq.powered_profile(profile, 2.0)
            assert powered.levels.tobytes() == want.levels.tobytes()
            assert powered.breakpoints is profile.breakpoints
        assert not [key for key in pf._cache if key[0] == "powered"]
        assert prepare(pf) is pf
        assert prepare(cone512).grid is cone512

    def test_keep_profile_only_drops_the_rest(self, cone512):
        pf = PreparedFunction(cone512)
        mass, grad, squared = pf.mass(), pf.grad(), pf.powered(2.0)
        pf.keep_profile_only()
        profile = pf.profile()
        pf.keep_profile_only()
        assert pf.profile() is profile
        assert pf.mass() is not mass and pf.grad() is not grad
        assert pf.powered(2.0) is not squared


    def test_powered_profiles_equal_direct_powers_and_are_not_cached(self, cone512):
        pf = PreparedFunction(cone512)
        profile, grad_profile = pf.profile(), pf.profile("metric_max")
        for p in (1.0, 1.5, 2.0, 3.0):
            for mode, base in ((None, profile), ("metric_max", grad_profile)):
                powered, want = pf.powered(p, mode), sq.powered_profile(base, p)
                assert powered.levels.tobytes() == want.levels.tobytes()
                assert powered._cum_integral.tobytes() == want._cum_integral.tobytes()
                assert powered.breakpoints is base.breakpoints
                # p = 1 is the profile itself; any other p is built afresh on each call
                assert (pf.powered(p, mode) is powered) == (p == 1.0)
        assert not [key for key in pf._cache if key[0] == "powered"]
        assert pf.profile() is profile and pf.profile("metric_max") is grad_profile

    def test_the_gradient_mass_build_consumes_the_modulus(self, cone512):
        """The modulus is sorted where it lies: the cache drops it, and ``grad`` builds it anew, bit for bit."""
        pf = PreparedFunction(cone512)
        for mode in GRADIENT_MODES:
            grad = pf.grad(mode).copy()
            mass = pf.mass(mode)
            assert ("grad", mode) not in pf._cache
            assert pf.grad(mode).tobytes() == grad.tobytes()
            assert pf.mass(mode) is mass
            want = sq.grid_to_mass(sq.metric_gradient_modulus(cone512, mode))
            for name in ("values", "masses", "breakpoints"):
                assert getattr(mass, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("mode", [None, "bogus"])
def test_every_gradient_check_refuses_a_mode_that_is_not_a_gradient_mode(mode):
    """None names f's own chain in a PreparedFunction, so no check may read it as |grad f|'s."""
    cone = sq.cone_grid(32, radius=0.5)
    checked = 0
    for name, checker in inequalities.CHECKERS.items():
        if "gradient_mode" in inspect.signature(checker).parameters:
            with pytest.raises(ValueError, match="unknown gradient mode"):
                checker(cone, gradient_mode=mode)
            checked += 1
    assert checked == 11
    rows = sq.run_suite(SuiteConfig(inequalities=({"id": "oscillation_p", "gradient_mode": mode},)), [("cone", cone)])
    assert rows[0].status.startswith("input_error: unknown gradient mode")


@pytest.mark.parametrize(
    "spec",
    [sq.CorpusSpec(seed=0, dim=2, extents=128), sq.CorpusSpec(seed=0, dim=3, extents=40)],
    ids=["2d-128", "3d-40"],
)
def test_scalar_cell_mass_matches_full_mass_array(spec):
    """The suite's uniform-mass builds have run-length masses and match explicit per-cell mass arrays.

    Masses are tie counts times the cell measure and breakpoints are running
    counts times it, each one rounding.  The explicit array's running sum
    agrees bit for bit on a dyadic cell measure (2-d, h = 1/128) and to
    rounding on the non-dyadic 3-d one (h = 1/40, m = 1/64000).
    """

    def assert_same(uniform, values, cell_measure):
        general = sq.MassFunction(values, np.full(values.size, cell_measure))
        _, counts = np.unique(values, return_counts=True)
        counts = counts[::-1]
        assert uniform.values.tobytes() == general.values.tobytes()
        assert uniform.masses.tobytes() == (counts * cell_measure).tobytes()
        ends = np.concatenate(([0], np.cumsum(counts)))
        assert uniform.breakpoints.tobytes() == (ends * cell_measure).tobytes()
        for name in ("masses", "cum_masses", "breakpoints"):
            got, want = getattr(uniform, name), getattr(general, name)
            if math.frexp(cell_measure)[0] == 0.5:
                assert got.tobytes() == want.tobytes(), name
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)

    corpus = [f for _, f in sq.generate_corpus(spec)]
    for f in corpus:
        for grid in (f, sq.metric_gradient_modulus(f)):
            assert_same(sq.grid_to_mass(grid), np.abs(grid.values.ravel()), grid.cell_measure)
    for f, g in zip(corpus[:-1], corpus[1:]):
        product = np.abs(f.values.ravel()) * np.abs(g.values.ravel())
        assert_same(sq.MassFunction(product, f.cell_measure), product, f.cell_measure)


# The exported checker each id of CHECKERS calls, and the keys its binding fixes.
EXPORTED = {
    "s_phi_p": (sq.check_s_phi_p, {}),
    "oscillation_p": (sq.check_oscillation_p, {}),
    "derivative_p": (sq.check_derivative_p, {}),
    "chain_rule": (sq.check_chain_rule, {}),
    "nash": (sq.check_nash, {}),
    "nash_classical": (sq.check_nash_classical, {}),
    **{f"sobolev_{mode}": (sq.check_sobolev, {"mode": mode}) for mode in ("weak", "strong", "exp", "morrey")},
    "polya_szego": (sq.polya_szego_compare, {}),
    "binomial_bounds": (sq.check_binomial_bounds, {}),
    "oneil": (sq.check_oneil, {}),
}

# The keys a JSON config may set per id, in the order error messages list them.
CONFIG_KEYS = {
    "s_phi_p": ("p", "gradient_mode", "tolerance", "constant_mode"),
    "oscillation_p": ("p", "gradient_mode", "tolerance", "constant_mode"),
    "derivative_p": ("p", "gradient_mode", "tolerance", "constant_mode", "form"),
    "chain_rule": ("r", "gradient_mode", "tolerance"),
    "nash": ("p", "c1", "c2", "gradient_mode", "tolerance"),
    "nash_classical": ("gradient_mode", "tolerance"),
    **{f"sobolev_{mode}": ("p", "gradient_mode", "tolerance") for mode in ("weak", "strong", "exp", "morrey")},
    "polya_szego": ("p", "gradient_mode", "weight", "tolerance"),
    "binomial_bounds": ("p", "a_max", "grid_points", "tolerance"),
    "oneil": ("t_grid", "tolerance"),
}


def test_every_id_calls_an_exported_checker_whose_keywords_are_its_keys():
    """One surface: an id's keys are the keywords of the checker it calls, CODE_ONLY and fixed keys aside."""
    assert list(inequalities.CHECKERS) == list(EXPORTED) == list(CONFIG_KEYS)
    assert sum(len(keys) for keys in CONFIG_KEYS.values()) == 45
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for name, (checker, fixed) in EXPORTED.items():
        accepted, _ = inequalities.entry_keys(name, {}, config=True)
        assert tuple(accepted) == CONFIG_KEYS[name], name
        params = list(inspect.signature(checker).parameters.values())[inequalities.ARITY.get(name, 1):]
        assert all(param.kind in keyword for param in params), name
        own = [param.name for param in params if param.name not in inequalities.CODE_ONLY | set(fixed)]
        assert tuple(own) == CONFIG_KEYS[name], name
        registered = inequalities.CHECKERS[name]
        if fixed or name == "polya_szego":
            # a mode binding or the forwarder the tracer needs: no defaults of its own
            assert registered.__defaults__ is None and registered.__kwdefaults__ is None, name
        else:
            assert registered is checker, name
    assert inequalities.CHECKERS["polya_szego"].__wrapped__ is sq.polya_szego_compare


def _direct_reports(config, corpus):
    """The suite's rows, entry-major, each from the id's exported checker on the plain GridFunction."""
    out = []
    for entry in config.inequalities:
        name = entry["id"]
        checker, fixed = EXPORTED[name]
        kwargs = {**fixed, **{k: v for k, v in entry.items() if k != "id"}}
        if name == "binomial_bounds":
            report = checker(**kwargs)
            report.function_id = "-"
            out.append(report)
        elif name == "oneil":
            for (id_a, fa), (id_b, fb) in zip(corpus[:-1], corpus[1:]):
                report = checker(fa, fb, **kwargs)
                report.function_id = f"{id_a}*{id_b}"
                out.append(report)
        else:
            if name in TRACED_IDS:
                kwargs["capture_trace"] = config.detail
            for function_id, f in corpus:
                report = checker(f, **kwargs)
                report.function_id = function_id
                out.append(report)
    return out


def test_suite_rows_equal_direct_checker_calls(small_corpus):
    spec, corpus = small_corpus
    # with the defaults, every id of CHECKERS at least once
    inequalities = DEFAULT_INEQUALITIES + (
        {"id": "s_phi_p", "p": 2.0, "gradient_mode": "euclidean_central"},
        {"id": "oscillation_p", "p": 2.0, "gradient_mode": "euclidean_central"},
        {"id": "derivative_p", "p": 1.5, "form": "pointwise", "constant_mode": "fitted"},
        {"id": "nash", "p": 3.0, "c1": 2.0, "c2": 0.5},
        {"id": "sobolev_morrey", "p": 4.0},
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
        return [json.dumps([r.to_dict(), None if r.trace is None else r.trace.tolist()], sort_keys=True) for r in rows]

    assert dump(suite_rows) == dump(direct_rows)


PER_FUNCTION = tuple(e for e in DEFAULT_INEQUALITIES if e["id"] != "oneil") + (
    {"id": "s_phi_p", "p": 2.0, "gradient_mode": "euclidean_central"},
    {"id": "chain_rule", "r": 3.0, "gradient_mode": "euclidean_central"},
)


@pytest.mark.parametrize("chain_rule_first", [False, True], ids=["defaults", "chain_rule_first"])
def test_rows_across_grid_shapes_equal_calls_on_fresh_functions(chain_rule_first):
    """The grid shape changes three times between the functions of one run.

    With chain_rule first, the gradient kernel runs twice inside the chain
    rule, for f^r and then for |grad f|, before the check builds its right
    side.
    """
    corpus = []
    for name in ("2d", "3d", "2d"):
        corpus += [(f"{name}_{i}_{fid}", f) for i, (fid, f) in enumerate(sq.generate_corpus(SPECS[name])[:3])]
    corpus.insert(3, ("cone_32", sq.cone_grid(32, radius=0.5)))
    entries = PER_FUNCTION
    if chain_rule_first:
        entries = ({"id": "chain_rule", "r": 2.5},) + entries
    config = SuiteConfig(inequalities=entries, detail=True)
    suite_rows = sq.run_suite(config, corpus)
    assert not any(r.status.startswith("input_error") for r in suite_rows)

    def dump(rows):
        return [json.dumps([r.to_dict(), None if r.trace is None else r.trace.tolist()], sort_keys=True) for r in rows]

    # each direct call prepares the plain GridFunction afresh
    assert dump(suite_rows) == dump(_direct_reports(config, corpus))


def _chain_rule_outcome(pf, mode):
    """The chain rule's report at r = 2.5 as a dict, or the text of the ValueError it raises."""
    try:
        return sq.check_chain_rule(pf, r=2.5, gradient_mode=mode).to_dict()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("rim", [5e-324, 1.0], ids=["subnormal_rim", "normal_rim"])
def test_the_chain_rule_leaves_f_unchanged_when_its_box_is_the_whole_grid(rim):
    """f's support reaches the outermost-but-one layer, so ``f.values[box]`` is a view of all of f.

    f^r must be taken on a copy.  With a subnormal rim the squared
    differences underflow on the outer layer and the check gives a row; with
    a normal rim the gradient touches the boundary and the check raises.
    Either way f stays the same bit for bit, and a second run on the same
    PreparedFunction gives the same outcome.
    """
    values = np.zeros((9, 8))
    values[1:-1, 1:-1] = rim
    values[2:-2, 2:-2] = np.random.default_rng(5).uniform(0.5, 2.0, (5, 4))
    f = sq.GridFunction(1.0, values)
    before = values.copy()
    pf = PreparedFunction(f)
    assert pf.box == (slice(0, 9), slice(0, 8))
    for mode in GRADIENT_MODES:
        first = _chain_rule_outcome(pf, mode)
        assert isinstance(first, dict) == (rim < 1)
        assert np.array_equal(f.values.view(np.uint64), before.view(np.uint64))
        assert _chain_rule_outcome(pf, mode) == first


def test_an_f_to_the_r_that_is_not_finite_is_refused():
    """1e200 * f to the power 2.5 overflows: refused with its own name, and f is not written."""
    cone = sq.cone_grid(32, radius=0.5)
    huge = sq.GridFunction(cone.spacing, 1e200 * cone.values)
    for mode in GRADIENT_MODES:
        with pytest.raises(ValueError, match="^f to the power 2.5 overflows a float: malformed input$"):
            sq.check_chain_rule(huge, r=2.5, gradient_mode=mode)
    assert np.array_equal(huge.values, 1e200 * cone.values)


def test_dimension_comes_from_each_function():
    """A 3-d corpus under a config whose own corpus is 2-d: every row uses n = 3."""
    corpus = sq.generate_corpus(SPECS["3d"])
    config = SuiteConfig(inequalities=({"id": "s_phi_p", "p": 1.0}, {"id": "sobolev_weak"}))
    assert config.corpus.dim == 2
    reports = sq.run_suite(config, corpus)
    assert len(reports) == 2 * len(corpus)
    assert {(r.status, r.params["n"]) for r in reports} == {("ok", 3)}
    phi3 = sq.phi_from_profile(sq.euclidean_profile(3))
    direct = sq.check_s_phi_p(corpus[0][1], phi=phi3, p=1.0)
    assert reports[0].worst_ratio == direct.worst_ratio


def test_direct_checkers_take_n_and_phi_from_a_3d_grid():
    f3d = sq.cone_grid(32, dim=3, radius=0.8)
    phi3 = sq.phi_from_profile(sq.euclidean_profile(3))
    for check in (sq.check_s_phi_p, sq.check_oscillation_p, sq.check_derivative_p):
        default, explicit = check(f3d, phi=None, p=1.0), check(f3d, phi=phi3, p=1.0)
        assert default.params["n"] == 3
        assert default.to_dict() == explicit.to_dict()
    classical = sq.check_nash_classical(f3d)
    assert classical.params["n"] == 3
    assert sq.check_nash(f3d, p=2.0).worst_ratio == sq.check_nash(f3d, phi=phi3, p=2.0).worst_ratio
    expo = sq.check_sobolev(f3d, "exp", p=None)
    assert (expo.params["n"], expo.params["p"]) == (3, 3.0)
    assert expo.worst_ratio == sq.check_sobolev(f3d, "exp", p=3.0).worst_ratio
    assert sq.check_sobolev(f3d, "weak", p=None).params["p"] == 1.0
    assert sq.polya_szego_compare(f3d, p=1.0).params["n"] == 3


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
    assert prepare(zero).is_zero and not np.any(prepare(zero).grad())


def test_a_power_that_underflows_is_an_input_error():
    """f and |grad f| of 1e-161 * cone are nonzero; their squares and cubes fall below the least normal float."""
    cone = sq.cone_grid(64)
    small = sq.GridFunction(cone.spacing, 1e-161 * cone.values)
    entries = tuple({"id": "oscillation_p", "p": p} for p in (1.0, 2.0, 3.0))
    entries += tuple({"id": "derivative_p", "p": p} for p in (1.0, 2.0))
    rows = sq.run_suite(SuiteConfig(inequalities=entries), [("small", small)])
    error = "input_error: nonzero profile whose top level to the power {} underflows: malformed input"
    assert [r.status for r in rows] == ["ok", error.format(2), error.format(3), "ok", error.format(2)]
    with pytest.raises(ValueError, match="to the power 2 underflows"):
        sq.check_derivative_p(small, p=2.0)
    # the unscaled cone is untouched, and p = 1 needs no power
    assert sq.check_oscillation_p(cone, p=3.0).status == "ok"
    assert prepare(small).powered(1.0).max_level > 0


def _one_worker(monkeypatch):
    """One CPU in the affinity mask: the pass runs in this process, so every count patched here sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _input_errors(reports):
    return [(r.inequality_id, r.function_id, r.status) for r in reports if r.status.startswith("input_error")]


def test_default_suite_builds_each_artifact_once(small_corpus, monkeypatch):
    spec, corpus = small_corpus
    _one_worker(monkeypatch)
    counts = Counter()

    original_init = sq.MassFunction.__init__

    def counting_init(self, *args, **kwargs):
        counts["mass"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(sq.MassFunction, "__init__", counting_init)

    original_modulus = gradient._box_modulus

    def counting_modulus(*args, **kwargs):
        counts["modulus"] += 1
        return original_modulus(*args, **kwargs)

    original_powered = sq.powered_profile

    def counting_powered(*args, **kwargs):
        counts["powered"] += 1
        return original_powered(*args, **kwargs)

    cached_powers = []
    original_cached = PreparedFunction._cached

    def watching_cached(self, key, build):
        cached_powers.extend(k for k in self._cache if k[0] == "powered")
        return original_cached(self, key, build)

    monkeypatch.setattr(PreparedFunction, "_cached", watching_cached)

    # rebind in every module that imported the function by name
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symineq":
            if getattr(module, "_box_modulus", None) is original_modulus:
                monkeypatch.setattr(module, "_box_modulus", counting_modulus)
            if getattr(module, "powered_profile", None) is original_powered:
                monkeypatch.setattr(module, "powered_profile", counting_powered)

    reports = sq.run_suite(SuiteConfig(corpus=spec), corpus)
    assert not _input_errors(reports), _input_errors(reports)
    n = len(corpus)
    # f and |grad f| per function, plus the cellwise product per O'Neil pair
    assert counts["mass"] == 2 * n + (n - 1)
    # |grad f| per function: the chain rule reads it before the gradient's mass build consumes it
    # (the chain rule's |grad f^r| runs slab by slab inside the check)
    assert counts["modulus"] == n
    # f* and |grad f|* once for each of the six p-entries (oscillation_p at four p, derivative_p at two),
    # each built for the check that reads it and never cached
    assert counts["powered"] == 12 * n
    assert cached_powers == []


def test_p_free_entries_run_first_and_no_power_is_cached(monkeypatch):
    """A p named twice apart and p-free entries between the p's: the suite runs the p-free entries first.

    So the chain rule reads the cached gradient modulus before the gradient's
    mass build (for nash_classical's norm) sorts it where it lies: the
    modulus is built once per function.  Every power is built afresh for
    the check that reads it and is never cached.
    """
    _one_worker(monkeypatch)
    corpus = sq.generate_corpus(SPECS["2d"])[:3]
    built, order, moduli = [], [], Counter()
    original_powered = gradient.powered_profile
    monkeypatch.setattr(gradient, "powered_profile", lambda s, p: built.append(p) or original_powered(s, p))
    original_modulus = gradient._box_modulus

    def counting_modulus(cells, box, grid, mode):
        moduli[id(grid)] += 1
        return original_modulus(cells, box, grid, mode)

    monkeypatch.setattr(gradient, "_box_modulus", counting_modulus)
    for name in ("oscillation_p", "chain_rule", "derivative_p", "nash_classical", "sobolev_exp"):
        original = inequalities.CHECKERS[name]

        @functools.wraps(original)  # the suite reads the entry keys from the signature
        def wrapped(pf, original=original, name=name, **kwargs):
            assert not [key for key in pf._cache if key[0] == "powered"]
            order.append(name)
            return original(pf, **kwargs)

        monkeypatch.setitem(inequalities.CHECKERS, name, wrapped)
    entries = (
        {"id": "oscillation_p", "p": 2.0},
        {"id": "chain_rule", "r": 2.0},
        {"id": "derivative_p", "p": 1.0},
        {"id": "nash_classical"},
        {"id": "derivative_p", "p": 2.0},
        {"id": "sobolev_exp"},
    )
    reports = sq.run_suite(SuiteConfig(inequalities=entries), corpus)
    assert not _input_errors(reports), _input_errors(reports)
    per_function = ["chain_rule", "nash_classical", "sobolev_exp", "oscillation_p", "derivative_p", "derivative_p"]
    assert order == per_function * len(corpus)
    assert sorted(moduli.values()) == [1] * len(corpus)
    # f* and |grad f|* for each of the three p-entries, per function
    assert sorted(built) == sorted([2.0, 2.0, 1.0, 1.0, 2.0, 2.0] * len(corpus))


def test_default_suite_builds_each_tgrid_artifact_once(small_corpus, monkeypatch):
    """One grid shape: one t-grid per spec, and phi on an array once per (spec, phi, refine)."""
    spec, corpus = small_corpus
    _one_worker(monkeypatch)
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
    assert not _input_errors(reports), _input_errors(reports)
    assert len({f.shape_label for _, f in corpus}) == 1
    # each distinct spec is built once: the checks' one default grid (64 points
    # per decade) and the O'Neil pairs' one grid, which ends at the domain measure
    assert set(grids.values()) == {1}
    assert sorted(args[2] for args in grids) == [16, 64]
    # oscillation_p reads phi(t) of the one (spec, phi); derivative_p the refined grid's phi
    assert sum(phi_arrays.values()) == 2 and len(phi_arrays) == 2
