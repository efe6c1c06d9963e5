"""Input documents: every reader refuses a bad document with a ValueError, every command with exit 2."""

import csv
import json
import math
import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symineq as sq
from symineq.cli import main as cli_main
from symineq.suite import SuiteConfig

SMALL = {"extents": 32, "families": [{"kind": "cone"}]}


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _assert_input_error(capsys, argv, what):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot load {what}" in err and "Traceback" not in err
    return err


@pytest.fixture
def cone_doc():
    return sq.cone_grid(32, radius=0.5).to_json()


class TestCheckFunctionFile:
    @pytest.mark.parametrize(
        "doc, named",
        [
            ([1, 2], "JSON object"),
            ({"dim": 1, "spacing": 0.5, "extents": 5, "values": [0.0, 1.0, 2.0, 1.0, 0.0]}, "grid function"),
            ({"dim": 1, "spacing": 0.5, "extents": [5.5], "values": [0.0] * 5}, "extents"),
            ({"dim": 1, "spacing": 0.5, "values": [0.0] * 5}, "'extents'"),
        ],
        ids=["list", "extents_not_a_list", "fractional_extent", "missing_extents"],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, doc, named):
        fn = _write(tmp_path / "f.json", doc)
        err = _assert_input_error(capsys, ["check", "--ineq", "s_phi_p", "--fn", str(fn)], f"function {fn}")
        assert named in err

    def test_unknown_key_exits_2(self, tmp_path, capsys, cone_doc):
        fn = _write(tmp_path / "f.json", dict(cone_doc, junk=1))
        err = _assert_input_error(capsys, ["check", "--ineq", "s_phi_p", "--fn", str(fn)], "function")
        assert "unknown grid function keys ['junk']" in err

    def test_whole_float_extents_still_load(self, cone_doc):
        doc = dict(cone_doc, dim=2.0, extents=[32.0, 32.0])
        assert sq.GridFunction.from_json(doc).extents == (32, 32)

    def test_bad_flag_value_names_the_check(self, tmp_path, capsys, cone_doc):
        fn = _write(tmp_path / "f.json", cone_doc)
        argv = ["check", "--ineq", "s_phi_p", "--fn", str(fn), "--p", "0.5"]
        assert "p must be finite and >= 1" in _assert_input_error(capsys, argv, "check s_phi_p")


class TestReportFile:
    @pytest.mark.parametrize(
        "doc",
        [{"reports": 5}, [1], {"reports": [], "junk": 1}, {"summary": {}}],
        ids=["reports_not_a_list", "list", "unknown_key", "missing_reports"],
    )
    def test_malformed_report_exits_2(self, tmp_path, capsys, doc):
        src = _write(tmp_path / "reports.json", doc)
        _assert_input_error(capsys, ["report", "--in", str(src), "--out", str(tmp_path / "out")], "report")

    @pytest.fixture
    def row(self):
        report = sq.CheckReport(
            "oscillation_p", {}, worst_ratio=0.5, worst_location=1.0, constant_used=1.0, tolerance=0.05,
            trace=np.array([[0.5, 1.0, 2.0]]),
        )
        return dict(report.to_dict(), trace=report.trace.tolist(), grid=None, gradient_mode=None, seed=None)

    @pytest.mark.parametrize(
        "trace", [[[0.5, 1.0]], [[0.5, 1.0, 2.0, 3.0]], [0.5, 1.0, 2.0], [[]], [[0.5, 1.0, 2.0], [1.0]]]
    )
    def test_a_trace_row_without_three_values_is_a_load_error(self, tmp_path, capsys, row, trace):
        # once a write-time error of the re-render, or (rows of two) six values read as two rows
        src = _write(tmp_path / "reports.json", {"reports": [dict(row, trace=trace)]})
        argv = ["report", "--in", str(src), "--format", "csv", "--detail", "--out", str(tmp_path / "out")]
        _assert_input_error(capsys, argv, "report")
        assert not (tmp_path / "out").exists()

    def test_a_loaded_trace_is_the_array_a_check_makes(self, tmp_path, row):
        src = _write(tmp_path / "reports.json", {"reports": [row, dict(row, trace=[])]})
        traced, empty = sq.load_report(src)
        assert traced.trace.dtype == np.float64 and traced.trace.tolist() == [[0.5, 1.0, 2.0]]
        assert empty.trace.shape == (0, 3)

    def test_a_string_row_is_a_load_error_not_a_path(self, tmp_path, capsys, row):
        # the row names a file holding a valid row: a string read as a path would load it
        named = _write(tmp_path / "row.json", row)
        src = _write(tmp_path / "reports.json", {"reports": [str(named)]})
        err = _assert_input_error(capsys, ["report", "--in", str(src), "--out", str(tmp_path / "out")], "report")
        assert "a report row must be a JSON object, not str" in err

    def test_an_unknown_row_key_is_a_load_error(self, tmp_path, capsys, row):
        src = _write(tmp_path / "reports.json", {"reports": [dict(row, junk=1)]})
        err = _assert_input_error(capsys, ["report", "--in", str(src), "--out", str(tmp_path / "out")], "report")
        assert "unknown report row keys ['junk']" in err


# (spec, the key the message names); each was run as if it were valid, or with a key ignored
_BAD_SPECS = [
    (dict(SMALL, seed=1.5), "seed"),
    (dict(SMALL, extents=64.9), "extents"),
    (dict(SMALL, dim=True), "dim"),
    (dict(SMALL, seed="3"), "seed"),
    (dict(SMALL, families=[]), "family"),
    (dict(SMALL, families=["cone"]), "family"),
]
_BAD_SPEC_IDS = ["fractional_seed", "fractional_extents", "bool_dim", "string_seed", "no_families", "family_name"]


class TestSpecAndConfig:
    @pytest.mark.parametrize("spec, named", _BAD_SPECS, ids=_BAD_SPEC_IDS)
    def test_mistyped_spec_exits_2(self, tmp_path, capsys, spec, named):
        spec_file = _write(tmp_path / "spec.json", spec)
        argv = ["corpus", "--spec", str(spec_file), "--out", str(tmp_path / "corpus")]
        assert named in _assert_input_error(capsys, argv, "spec")
        assert not (tmp_path / "corpus").exists()
        config_file = _write(tmp_path / "config.json", {"corpus": spec})
        argv = ["suite", "--config", str(config_file), "--out", str(tmp_path / "suite")]
        assert named in _assert_input_error(capsys, argv, "config")
        assert not (tmp_path / "suite").exists()

    @pytest.mark.parametrize("detail", ["false", 0, 1, None])
    def test_detail_must_be_a_boolean(self, tmp_path, capsys, detail):
        config_file = _write(tmp_path / "config.json", {"detail": detail, "corpus": SMALL})
        argv = ["suite", "--config", str(config_file), "--out", str(tmp_path / "suite")]
        assert "detail must be true or false" in _assert_input_error(capsys, argv, "config")

    def test_whole_float_sizes_still_load(self):
        spec = sq.CorpusSpec.from_json(dict(SMALL, seed=3.0, dim=2.0, extents=64.0))
        assert (spec.seed, spec.dim, spec.extents) == (3, 2, 64)
        assert all(isinstance(v, int) for v in (spec.seed, spec.dim, spec.extents))
        assert spec == sq.CorpusSpec(seed=3, extents=64, families=({"kind": "cone"},))

    def test_a_family_value_of_the_wrong_type_names_the_family(self, tmp_path, capsys):
        spec = dict(SMALL, families=[{"kind": "cone", "radius": "abc"}])
        built = sq.CorpusSpec.from_json(spec)  # a value's type is only found while building
        with pytest.raises(ValueError, match="^cone: "):
            sq.generate_corpus(built)
        spec_file = _write(tmp_path / "spec.json", spec)
        _assert_input_error(capsys, ["corpus", "--spec", str(spec_file), "--out", str(tmp_path / "c")], "spec")

    @pytest.mark.parametrize("key", ["radius", "height"])
    def test_a_family_value_past_the_float_range_names_the_family(self, tmp_path, capsys, key):
        spec = dict(SMALL, families=[{"kind": "cone", key: 10**400}])
        with pytest.raises(ValueError, match="^cone: "):
            sq.generate_corpus(sq.CorpusSpec.from_json(spec))
        spec_file = _write(tmp_path / "spec.json", spec)
        _assert_input_error(capsys, ["corpus", "--spec", str(spec_file), "--out", str(tmp_path / "c")], "spec")
        config_file = _write(tmp_path / "config.json", {"corpus": spec})
        _assert_input_error(capsys, ["suite", "--config", str(config_file), "--out", str(tmp_path / "s")], "config")

    def test_a_config_corpus_is_an_object_not_a_path(self, tmp_path, capsys):
        spec_file = _write(tmp_path / "spec.json", SMALL)
        config_file = _write(tmp_path / "config.json", {"corpus": str(spec_file)})
        argv = ["suite", "--config", str(config_file), "--out", str(tmp_path / "suite")]
        assert "a corpus spec must be a JSON object, not str" in _assert_input_error(capsys, argv, "config")
        assert not (tmp_path / "suite").exists()

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"gradient_mode": "bogus"}, "unknown gradient_mode 'bogus'"),
            ({"constant_mode": "bogus"}, "unknown constant_mode 'bogus'"),
        ],
        ids=["gradient_mode", "constant_mode"],
    )
    def test_an_unknown_mode_is_a_config_error(self, tmp_path, capsys, config, named):
        """Refused when read, before the corpus is built, not as one input_error row per check."""
        config_file = _write(tmp_path / "config.json", dict(config, corpus=SMALL))
        with pytest.raises(ValueError, match=re.escape(named)):
            SuiteConfig.from_json(config_file)
        argv = ["suite", "--config", str(config_file), "--out", str(tmp_path / "suite")]
        assert named in _assert_input_error(capsys, argv, "config")
        assert not (tmp_path / "suite").exists()

    @pytest.mark.parametrize(
        "spec, named",
        [
            (dict(SMALL, dim=10**7), "extents ** dim"),
            (dict(SMALL, dim=10**9), "extents ** dim"),
            (dict(SMALL, extents=10**400), "extents ** dim"),
            (dict(SMALL, families=[{"kind": "cone", "count": 10**400}]), "cone: count times"),
            (dict(SMALL, families=[{"kind": "multi_bump", "bumps": 10**400}]), "multi_bump: bumps times"),
        ],
        ids=["dim_1e7", "dim_1e9", "extents_1e400", "count_1e400", "bumps_1e400"],
    )
    def test_a_size_past_the_index_range_is_refused_at_once(self, tmp_path, capsys, spec, named):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(named)):
            sq.CorpusSpec.from_json(spec)
        assert time.perf_counter() - start < 0.5
        spec_file = _write(tmp_path / "spec.json", spec)
        argv = ["corpus", "--spec", str(spec_file), "--out", str(tmp_path / "corpus")]
        assert named in _assert_input_error(capsys, argv, "spec")

    def test_sizes_up_to_the_index_range_still_load(self):
        assert sq.CorpusSpec(dim=15, extents=16, families=({"kind": "cone"},)).dim == 15
        assert sq.CorpusSpec(dim=1, extents=2**40, families=({"kind": "cone", "count": 2**20},)).dim == 1

    def test_a_bad_flag_is_an_options_error(self, tmp_path, capsys):
        config_file = _write(tmp_path / "config.json", {"corpus": SMALL})
        argv = ["suite", "--config", str(config_file), "--out", str(tmp_path / "suite"), "--tol", "-1"]
        assert "tolerance must be a finite real >= 0" in _assert_input_error(capsys, argv, "options")


_CONE_AND_BUMP = [{"kind": "cone"}, {"kind": "tensor_bump"}]
_T_GRID = "t_grid must be a non-empty 1-d array of finite values > 0"
_WIDTHS = "tensor_bump: widths must be 2 finite values > 0"
# (the config's entries, or None for the default ones; its 32^2 corpus families; the message)
_BAD_VALUES = {
    "binomial_p_inf": ([{"id": "binomial_bounds", "p": math.inf}], _CONE_AND_BUMP, "the sweep needs a finite p > 1"),
    "binomial_a_max_negative": (
        [{"id": "binomial_bounds", "p": 2.5, "a_max": -1}], _CONE_AND_BUMP, "the sweep needs a finite a_max >= 0"
    ),
    "binomial_grid_points_zero": (
        [{"id": "binomial_bounds", "p": 2.5, "grid_points": 0}], _CONE_AND_BUMP,
        "binomial_bounds: grid_points must be an integer >= 1, not 0",
    ),
    "binomial_grid_points_fraction": (
        [{"id": "binomial_bounds", "p": 2.5, "grid_points": 2.5}], _CONE_AND_BUMP,
        "binomial_bounds: grid_points must be an integer >= 1, not 2.5",
    ),
    # a sweep whose powers overflow a float: once a passing row with a NaN ratio, and a RuntimeWarning
    "binomial_p_overflows": (
        [{"id": "binomial_bounds", "p": 400.0}], _CONE_AND_BUMP,
        "the binomial sweep overflows a float at p = 400, a_max = 20: malformed input",
    ),
    "binomial_a_max_overflows": (
        [{"id": "binomial_bounds", "p": 2.5, "a_max": 1e300}], _CONE_AND_BUMP,
        "the binomial sweep overflows a float at p = 2.5, a_max = 1e+300: malformed input",
    ),
    "chain_rule_r_overflows": (
        [{"id": "chain_rule", "r": 400.0}], _CONE_AND_BUMP, "the chain-rule sweep overflows a float at r = 400: malformed input"
    ),
    "nash_c2_zero": ([{"id": "nash", "c2": 0}], _CONE_AND_BUMP, "the Nash form needs a finite c2 > 0"),
    "nash_c1_negative": ([{"id": "nash", "c1": -1}], _CONE_AND_BUMP, "the Nash form needs a finite c1 > 0"),
    "chain_rule_r_inf": ([{"id": "chain_rule", "r": math.inf}], _CONE_AND_BUMP, "chain rule sweep needs a finite r > 1"),
    "oneil_t_inf": ([{"id": "oneil", "t_grid": [math.inf]}], _CONE_AND_BUMP, _T_GRID),
    "oneil_t_zero": ([{"id": "oneil", "t_grid": [0, 0.5]}], _CONE_AND_BUMP, _T_GRID),
    "one_width": (None, [{"kind": "cone"}, {"kind": "tensor_bump", "widths": [0.2]}], _WIDTHS),
    "three_widths": (None, [{"kind": "cone"}, {"kind": "tensor_bump", "widths": [0.2, 0.2, 0.2]}], _WIDTHS),
    "negative_width": (None, [{"kind": "cone"}, {"kind": "tensor_bump", "widths": [-0.2, 0.2]}], _WIDTHS),
    "zero_width": (None, [{"kind": "cone"}, {"kind": "tensor_bump", "widths": [0.0, 0.2]}], _WIDTHS),
    "disk_radius_negative": (
        None, [{"kind": "mollified_disk", "radius": -0.1}], "mollified_disk: radius must be a finite value > 0"
    ),
    "cone_radius_negative": (None, [{"kind": "cone", "radius": -0.1}], "cone: radius must be a finite value > 0"),
}


@pytest.mark.parametrize("name", sorted(_BAD_VALUES))
def test_a_bad_checker_or_family_value_exits_2_with_its_message(tmp_path, capsys, monkeypatch, name):
    """A checker's value gives input_error rows, a family's a config error; no traceback and no RuntimeWarning.

    One process runs the suite, so the tests' RuntimeWarning filter sees every check.
    """
    entries, families, named = _BAD_VALUES[name]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    config = {"corpus": {"extents": 32, "families": families}}
    if entries is not None:
        config["inequalities"] = entries
    config_file = _write(tmp_path / "config.json", config)
    out = tmp_path / "out"
    assert cli_main(["suite", "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if entries is None:
        assert f"cannot load config: {named}" in err
        assert not out.exists()
        return
    with open(out / "reports.csv", newline="", encoding="utf-8") as fh:
        assert {row["status"] for row in csv.DictReader(fh)} == {f"input_error: {named}"}


# JSON values with small numbers: a size the readers accept is allocated by nobody
_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 40), st.floats(-4.0, 40.0), st.sampled_from([1e400, -1e400]),
        st.text(max_size=3),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=10,
)

_READERS = {
    "grid function": (sq.GridFunction.from_json, ["dim", "spacing", "extents", "values"]),
    "profile handle": (sq.ProfileHandle.from_json, ["kind", "power_law", "table", "coefficient", "exponent", "samples"]),
    "corpus spec": (sq.CorpusSpec.from_json, ["seed", "dim", "extents", "side", "families", "kind", "count"]),
    "suite config": (SuiteConfig.from_json, ["inequalities", "detail", "tolerance", "corpus", "id", "p"]),
    "report": (sq.load_report, ["reports", "summary", "inequality_id", "params", "pass", "trace", "tolerance"]),
}


@pytest.mark.parametrize("what", sorted(_READERS))
def test_every_reader_raises_only_value_error(tmp_path, what):
    read, words = _READERS[what]
    path = tmp_path / "doc.json"
    keys = st.one_of(st.sampled_from(words), st.text(max_size=2))
    docs = st.one_of(_values, st.dictionaries(keys, st.one_of(_values, st.sampled_from(words)), max_size=5))

    @given(docs)
    @settings(max_examples=100, deadline=None)
    def parse(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            read(path)
        except ValueError:  # a string in a document never names a file, so no OSError
            pass

    parse()
