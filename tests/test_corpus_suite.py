import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symineq as sq
from symineq import inequalities
from symineq.cli import main as cli_main
from symineq.corpus import FAMILIES
from symineq.inequalities import CODE_ONLY, checker_kwargs
from symineq.report import CheckReport
from symineq.suite import SuiteConfig, suite_exit_code, summarize


class TestCorpus:
    def test_same_seed_is_byte_identical(self):
        spec = sq.CorpusSpec(seed=5, extents=64)
        a = sq.generate_corpus(spec)
        b = sq.generate_corpus(spec)
        assert [cid for cid, _ in a] == [cid for cid, _ in b]
        for (_, fa), (_, fb) in zip(a, b):
            assert json.dumps(fa.to_json()) == json.dumps(fb.to_json())

    def test_different_seed_differs(self):
        a = sq.generate_corpus(sq.CorpusSpec(seed=1, extents=64))
        b = sq.generate_corpus(sq.CorpusSpec(seed=2, extents=64))
        changed = any(
            not np.array_equal(fa.values, fb.values)
            for (_, fa), (_, fb) in zip(a, b)
        )
        assert changed

    def test_every_function_is_valid_and_margined(self, default_corpus):
        for cid, f in default_corpus:
            assert f.extents == (256, 256)
            for ax in (0, 1):
                assert not np.any(f.values.take(0, axis=ax))
                assert not np.any(f.values.take(1, axis=ax))
            if cid.startswith("smoothed_noise"):
                assert np.all(f.values >= 0)

    def test_unit_cone_norm(self, cone512):
        mass = sq.grid_to_mass(cone512)
        assert sq.lp_norm(mass, 1) == pytest.approx(math.pi / 3, rel=0.01)

    def test_disk_ladder_ratios_increase(self, default_corpus, phi_euclid_2d):
        ratios = [
            sq.check_s_phi_p(f, phi=phi_euclid_2d, p=1.0).worst_ratio
            for cid, f in default_corpus
            if cid.startswith("mollified_disk")
        ]
        assert len(ratios) == 3
        assert ratios[0] < ratios[1] < ratios[2] <= 1.05

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            sq.generate_corpus(sq.CorpusSpec(extents=8))
        with pytest.raises(ValueError):
            sq.generate_corpus(
                sq.CorpusSpec(
                    extents=24,
                    families=({"kind": "smoothed_noise", "radius": 6},),
                )
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            sq.CorpusSpec.from_json(
                {"seed": 0, "families": [{"kind": "fractal"}]}
            )

    @pytest.mark.parametrize("side", [0.0, -1.0, math.nan, math.inf, 1e159])
    def test_side_must_give_a_finite_positive_domain(self, side):
        with pytest.raises(ValueError):
            sq.CorpusSpec(side=side)
        assert sq.CorpusSpec(dim=3, side=1e100).side == 1e100  # (1e100)**3 is still a float

    def test_spec_json_round_trip(self, tmp_path):
        spec = sq.CorpusSpec(seed=9, extents=64, side=2.0)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        back = sq.CorpusSpec.from_json(path)
        assert back == spec


@pytest.fixture(scope="module")
def small_config():
    return SuiteConfig(
        inequalities=(
            {"id": "s_phi_p", "p": 1.0},
            {"id": "oscillation_p", "p": 2.0},
            {"id": "binomial_bounds", "p": 2.5, "grid_points": 80},
            {"id": "oneil"},
            {"id": "nash_classical"},
        ),
        corpus=sq.CorpusSpec(seed=3, extents=64),
    )


@pytest.fixture(scope="module")
def small_reports(small_config):
    return sq.run_suite(small_config)


class TestSuite:
    def test_one_report_per_cell(self, small_config, small_reports):
        corpus = sq.generate_corpus(small_config.corpus)
        n = len(corpus)
        expected = 3 * n + 1 + (n - 1)  # three per-function checks, lemma, pairs
        assert len(small_reports) == expected

    def test_unknown_id_rejected_at_parse(self):
        for entry in (
            {"id": "mystery"},
            {"id": "oscillation_p", "tolerence": -1},
            {"id": "chain_rule", "p": 3.0},
            {"id": "nash_classical", "p": 3.0},
            {"id": "sobolev_weak", "constant_mode": "fitted"},
            {"id": "binomial_bounds", "p": 2.5, "gradient_mode": "metric_max"},
            {"id": "oneil", "pionts_per_decade": 8},
        ):
            with pytest.raises(ValueError):
                SuiteConfig(inequalities=(entry,))

    def test_parse_errors_list_only_the_keys_a_config_can_set(self):
        for entry in ({"id": "s_phi_p", "n": 3}, {"id": "oneil", "n": 3}, {"id": "s_phi_p", "phi": None}):
            with pytest.raises(ValueError, match="accepted keys") as info:
                SuiteConfig(inequalities=(entry,))
            accepted = str(info.value).split("accepted keys are")[1]
            assert not [key for key in CODE_ONLY if repr(key) in accepted], str(info.value)
        # code and the command line still pass them
        assert checker_kwargs("s_phi_p", {"phi": None}, {}) == {"phi": None}

    def test_family_values_are_checked_at_parse(self):
        with pytest.raises(ValueError, match="smoothed_noise: radius"):
            sq.CorpusSpec(extents=32, families=({"kind": "smoothed_noise", "radius": 1.5},))
        with pytest.raises(ValueError, match="multi_bump: bumps"):
            sq.CorpusSpec(families=({"kind": "multi_bump", "bumps": -1},))
        with pytest.raises(ValueError, match="cone: count"):
            sq.CorpusSpec(families=({"kind": "cone", "count": 0},))
        for key in ("count", "bumps"):
            with pytest.raises(ValueError, match=f"multi_bump: {key}"):
                sq.CorpusSpec(families=({"kind": "multi_bump", key: 2.0},))
        whole = sq.CorpusSpec(extents=32, families=({"kind": "smoothed_noise", "radius": 2.0},))
        ints = sq.CorpusSpec(extents=32, families=({"kind": "smoothed_noise", "radius": 2},))
        assert [f.values.tobytes() for _, f in sq.generate_corpus(whole)] == [
            f.values.tobytes() for _, f in sq.generate_corpus(ints)
        ]

    def test_context_defaults_reach_declaring_checkers_only(self):
        context = {"n": 3, "gradient_mode": "euclidean_central", "capture_trace": True}
        assert checker_kwargs("chain_rule", {"id": "chain_rule", "r": 3.0}, context) == {
            "gradient_mode": "euclidean_central",
            "r": 3.0,
        }
        assert checker_kwargs("binomial_bounds", {"p": 2.5}, context) == {"p": 2.5}
        assert checker_kwargs("oscillation_p", {"gradient_mode": "metric_max"}, context) == {
            "gradient_mode": "metric_max",
            "capture_trace": True,
        }
        with pytest.raises(ValueError, match="takes 2 functions"):
            checker_kwargs("oneil", {}, context, arity=1)
        with pytest.raises(ValueError, match="accepted keys"):
            sq.empirical_best_constant("s_phi_p", [sq.cone_grid(64, radius=0.8)], {"q": 1.0})

    def test_errors_become_rows_not_aborts(self):
        config = SuiteConfig(
            inequalities=({"id": "sobolev_morrey", "p": 3.0},),
            corpus=sq.CorpusSpec(seed=3, extents=64, side=2.0),
        )
        reports = sq.run_suite(config)  # side 2.0: not a unit domain
        assert reports
        assert all(r.status.startswith("input_error") for r in reports)
        assert suite_exit_code(reports) == 2

    def test_exit_codes(self, small_reports):
        assert suite_exit_code(small_reports) == 0
        failing = CheckReport(
            inequality_id="s_phi_p",
            params={},
            worst_ratio=2.0,
            worst_location=None,
            constant_used=1.0,
            tolerance=0.05,
        )
        assert suite_exit_code(small_reports + [failing]) == 1

    def test_summary_best_constants(self, small_reports):
        summary = summarize(small_reports)
        assert summary["s_phi_p"]["best_constant"] > 0
        assert summary["s_phi_p"]["checks"] == summary["s_phi_p"]["passes"]

    def test_empty_inequality_list(self):
        config = SuiteConfig(inequalities=(), corpus=sq.CorpusSpec(seed=3, extents=64))
        assert sq.run_suite(config) == []

    def test_json_round_trip_structurally_equal(self, small_reports, tmp_path):
        path = tmp_path / "reports.json"
        sq.emit_report(small_reports, "json", path)
        back = sq.load_report(path)
        assert len(back) == len(small_reports)
        for orig, loaded in zip(small_reports, back):
            assert loaded.to_dict() == orig.to_dict()

    def test_csv_emission_and_detail_rows(self, small_config, tmp_path):
        config = SuiteConfig(
            inequalities=({"id": "oscillation_p", "p": 1.0},),
            detail=True,
            corpus=small_config.corpus,
        )
        reports = sq.run_suite(config)
        path = tmp_path / "reports.csv"
        sq.emit_report(reports, "csv", path, detail=True)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(reports) + 1
        trace_lines = (tmp_path / "reports_trace.csv").read_text().strip().splitlines()
        expected = sum(0 if r.trace is None else len(r.trace) for r in reports)
        assert len(trace_lines) == expected + 1

    def test_missing_directory_surfaces_path(self, small_reports, tmp_path):
        with pytest.raises(FileNotFoundError):
            sq.emit_report(small_reports, "json", tmp_path / "no_such_dir" / "r.json")

    def test_report_dict_pass_consistency(self):
        doc = CheckReport(
            inequality_id="x",
            params={},
            worst_ratio=0.5,
            worst_location=None,
            constant_used=1.0,
            tolerance=0.0,
        ).to_dict()
        doc["pass"] = False
        with pytest.raises(ValueError):
            CheckReport.from_dict(doc)


@pytest.fixture(scope="module")
def detail_reports(small_config):
    config = SuiteConfig(
        inequalities=(
            {"id": "oscillation_p", "p": 2.0},
            {"id": "derivative_p", "p": 2.0},
            {"id": "binomial_bounds", "p": 2.5, "grid_points": 80},
        ),
        detail=True,
        corpus=small_config.corpus,
    )
    return sq.run_suite(config)


def _canonical(doc) -> str:
    # NaN != NaN, so documents are compared by their encoding
    return json.dumps(doc, sort_keys=True)


def _trace_list(report):
    # a trace as the list of [t, lhs, rhs] lists it is written as
    return None if report.trace is None else report.trace.tolist()


def _traced_row(report, **columns):
    """The report's row with these columns and, if it has a trace, its trace list: a detail-mode JSON row."""
    row = dict(report.to_dict(), **columns)
    if report.trace is not None:
        row["trace"] = _trace_list(report)
    return row


class TestDetailReports:
    def test_json_round_trip_keeps_every_trace(self, detail_reports, tmp_path):
        path = tmp_path / "reports.json"
        sq.emit_report(detail_reports, "json", path, detail=True)
        back = sq.load_report(path)
        traced = [r for r in detail_reports if r.trace is not None and len(r.trace)]
        assert len(traced) == len(detail_reports) - 1
        # a loaded trace is the (m, 3) float64 array a check makes
        assert all(r.trace.dtype == np.float64 and r.trace.shape[1:] == (3,) for r in back if r.trace is not None)
        assert [_canonical(_trace_list(r)) for r in back] == [
            _canonical(_trace_list(r)) for r in detail_reports
        ]

    def test_json_document_equals_the_indented_dump(self, detail_reports, tmp_path):
        path = tmp_path / "reports.json"
        sq.emit_report(detail_reports, "json", path, detail=True, seed=3)
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert doc.pop("generated_at")
        rows = [
            _traced_row(r, grid=r.params.get("grid"), gradient_mode=r.params.get("gradient_mode"), seed=3)
            for r in detail_reports
        ]
        indented = json.dumps(
            {"summary": summarize(detail_reports), "reports": rows}, indent=1, sort_keys=True
        )
        assert _canonical(doc) == _canonical(json.loads(indented))
        # the header line, one report object per line, the closing line
        lines = text.splitlines()
        assert len(lines) == len(detail_reports) + 2
        per_line = [json.loads(line.rstrip(",")) for line in lines[1:-1]]
        assert _canonical(per_line) == _canonical(rows)

    def test_trace_csv_quotes_ids_and_writes_every_float(self, tmp_path):
        def report(function_id, trace):
            return CheckReport(
                "oscillation_p", {}, worst_ratio=0.5, worst_location=1.0,
                constant_used=1.0, tolerance=0.05, function_id=function_id, trace=trace,
            )

        reports = [
            report('a,b"c', np.array([[0.5, math.inf, -math.inf], [1.0, math.nan, -0.0], [2.0, 1e-300, 3.0]])),
            report("untraced", None),
            report("plain", np.array([[0.25, 0.1, 0.30000000000000004]])),
        ]
        sq.emit_report(reports, "csv", tmp_path / "reports.csv", detail=True)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["function_id", "inequality_id", "t", "lhs", "rhs"])
        for r in reports:
            for t, lhs, rhs in _trace_list(r) or []:
                writer.writerow([r.function_id, r.inequality_id, t, lhs, rhs])
        written = (tmp_path / "reports_trace.csv").read_bytes()
        assert written == expected.getvalue().encode("utf-8")
        assert written.count(b'"a,b""c",') == 3

    def test_report_command_rerenders_the_suite_trace_csv(self, small_config, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        SuiteConfig(
            inequalities=({"id": "oscillation_p", "p": 2.0}, {"id": "derivative_p", "p": 2.0}),
            corpus=small_config.corpus,
        ).to_json(config_file)
        suite_dir, render_dir = tmp_path / "suite", tmp_path / "render"
        assert cli_main(
            ["suite", "--config", str(config_file), "--out", str(suite_dir), "--detail"]
        ) == 0
        assert cli_main(
            ["report", "--in", str(suite_dir), "--format", "csv", "--detail",
             "--out", str(render_dir)]
        ) == 0
        rendered = (render_dir / "reports_rendered_trace.csv").read_bytes()
        assert rendered.count(b"\n") > len(sq.load_report(suite_dir / "reports.json"))
        assert rendered == (suite_dir / "reports_trace.csv").read_bytes()


_EDGE_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.1)
_trace_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_trace_rows = st.lists(st.tuples(_trace_floats, _trace_floats, _trace_floats), max_size=4)
_ids = st.text(alphabet='ab,"* \n', max_size=6)


def _traced_report(function_id, inequality_id, rows, as_array):
    """A report with these trace rows: an array, or (not ``as_array``) the lists a JSON report holds, loaded."""
    trace = None if rows is None else np.array(rows, dtype=float).reshape(-1, 3)
    report = CheckReport(
        inequality_id, {"grid": "4x4", "gradient_mode": "metric_max"}, worst_ratio=0.5,
        worst_location=1.0, constant_used=1.0, tolerance=0.05, function_id=function_id,
        trace=trace,
    )
    if as_array or rows is None:
        return report
    return CheckReport.from_dict(dict(report.to_dict(), trace=[list(row) for row in rows]))


def _assert_writers_match(reports, csv_first):
    """Both trace writers, in either order, equal json.JSONEncoder and csv.writer on the list form."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path, csv_path = Path(tmp) / "reports.json", Path(tmp) / "reports.csv"
        # the two writers share the cached trace text, whichever runs first
        for fmt in ("csv", "json") if csv_first else ("json", "csv"):
            sq.emit_report(reports, fmt, json_path if fmt == "json" else csv_path, detail=True, seed=1)
        json_lines = json_path.read_text(encoding="utf-8").split("\n")
        trace_csv = (Path(tmp) / "reports_trace.csv").read_bytes()

    encode = json.JSONEncoder(sort_keys=True).encode
    rows = [line[:-1] if line.endswith(",") else line for line in json_lines[1:-2]]
    assert rows == [
        encode(_traced_row(r, grid="4x4", gradient_mode="metric_max", seed=1))
        for r in reports
    ]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["function_id", "inequality_id", "t", "lhs", "rhs"])
    for r in reports:
        for t, lhs, rhs in _trace_list(r) or []:
            writer.writerow([r.function_id, r.inequality_id, t, lhs, rhs])
    assert trace_csv == expected.getvalue().encode("utf-8")


@st.composite
def _shared_t_specs(draw):
    """Report specs whose traces take their t column from one or two shared columns."""
    columns = draw(st.lists(st.lists(_trace_floats, max_size=4), min_size=1, max_size=2))
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(st.sampled_from(columns))
        sides = st.tuples(_trace_floats, _trace_floats)
        pairs = draw(st.lists(sides, min_size=len(t), max_size=len(t)))
        rows = [(ti, lhs, rhs) for ti, (lhs, rhs) in zip(t, pairs)]
        specs.append((draw(_ids), draw(_ids), rows, draw(st.booleans())))
    return specs


class TestTraceWriters:
    """Both report formats equal the reference encoders on the list form of each row."""

    @given(
        st.lists(
            st.tuples(_ids, _ids, st.one_of(st.none(), _trace_rows), st.booleans()),
            min_size=1, max_size=3,
        ),
        st.booleans(),
    )
    @example([("a", "b", [], True), ("a", "b", [], False)], True)
    @example([("a", "b", [(1.0, -0.0, math.nan)], True), ("a", "b", [(math.inf, -math.inf, 5e-324)], False)], False)
    @example([("a", "b", [(np.float64(0.5), np.float64(-0.0), np.float64(np.inf))], False)], False)
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_encoder_and_csv_writer(self, specs, csv_first):
        _assert_writers_match([_traced_report(*spec) for spec in specs], csv_first)

    @given(_shared_t_specs(), st.booleans())
    @example(
        [
            ("a", "b", [(-0.0, 1.0, 2.0), (1.0, 3.0, 4.0)], True),
            ("a", "c", [(0.0, 5.0, 6.0), (1.0, 7.0, 8.0)], True),
            ("d", "b", [(-0.0, -0.0, 0.0), (1.0, 9.0, 10.0)], False),
            ("d", "c", [(0.0, 0.0, -0.0), (1.0, 11.0, 12.0)], True),
        ],
        False,
    )
    @settings(max_examples=100, deadline=None)
    def test_shared_t_columns_keep_each_report_bytes(self, specs, csv_first):
        """Traces sharing a t column (formatted once per call) still write their own lhs and rhs."""
        _assert_writers_match([_traced_report(*spec) for spec in specs], csv_first)

    @pytest.mark.parametrize("csv_first", [False, True])
    def test_hand_built_traces_write_the_pinned_bytes(self, tmp_path, csv_first):
        """Non-finite values, -0.0, an empty trace and none; ids that read as trace text are never rewritten."""
        inf, nan = math.inf, math.nan
        reports = [
            _traced_report(*spec, True)
            for spec in (
                ("f, 1", "oscillation_p", [(0.5, inf, -inf), (-0.0, nan, 1e-300)]),
                ("NaN", "Infinity", [(nan, -inf, 2.5e20)]),
                ("], [", "derivative_p", [(0.25, 2.0, -0.0), (0.5, 0.1, inf)]),
                ('g"],[h', "s_phi_p", []),
                ("untraced", "oneil", None),
            )
        ]
        for fmt in ("csv", "json") if csv_first else ("json", "csv"):
            sq.emit_report(reports, fmt, tmp_path / f"reports.{fmt}", detail=True, seed=1)
        head = '{"constant_used": 1.0, "function_id": '
        tail = ', "gradient_mode": "metric_max", "grid": "4x4", "inequality_id": '
        row = ', "params": {"gradient_mode": "metric_max", "grid": "4x4"}, "pass": true, "seed": 1, "status": "ok", "tolerance": 0.05'
        end = ', "worst_location": 1.0, "worst_ratio": 0.5}'
        assert (tmp_path / "reports.json").read_text(encoding="utf-8").split("\n")[1:] == [
            head + '"f, 1"' + tail + '"oscillation_p"' + row
            + ', "trace": [[0.5, Infinity, -Infinity], [-0.0, NaN, 1e-300]]' + end + ",",
            head + '"NaN"' + tail + '"Infinity"' + row + ', "trace": [[NaN, -Infinity, 2.5e+20]]' + end + ",",
            head + '"], ["' + tail + '"derivative_p"' + row
            + ', "trace": [[0.25, 2.0, -0.0], [0.5, 0.1, Infinity]]' + end + ",",
            head + '"g\\"],[h"' + tail + '"s_phi_p"' + row + ', "trace": []' + end + ",",
            head + '"untraced"' + tail + '"oneil"' + row + end,
            "]}",
            "",
        ]
        assert (tmp_path / "reports_trace.csv").read_bytes() == (
            b"function_id,inequality_id,t,lhs,rhs\r\n"
            b'"f, 1",oscillation_p,0.5,inf,-inf\r\n'
            b'"f, 1",oscillation_p,-0.0,nan,1e-300\r\n'
            b"NaN,Infinity,nan,-inf,2.5e+20\r\n"
            b'"], [",derivative_p,0.25,2.0,-0.0\r\n'
            b'"], [",derivative_p,0.5,0.1,inf\r\n'
        )

    def test_replaced_trace_is_formatted_anew(self, tmp_path):
        report = _traced_report("f", "oscillation_p", [(1.0, 2.0, 3.0)], True)
        sq.emit_report([report], "csv", tmp_path / "a.csv", detail=True)
        report.trace = np.array([[4.0, 5.0, 6.0]])
        sq.emit_report([report], "csv", tmp_path / "b.csv", detail=True)
        assert (tmp_path / "b_trace.csv").read_bytes().endswith(b"f,oscillation_p,4.0,5.0,6.0\r\n")


class TestDeterminism:
    def test_suite_byte_identical_modulo_timestamp(self, tmp_path):
        config = SuiteConfig(
            inequalities=(
                {"id": "s_phi_p", "p": 1.0},
                {"id": "oscillation_p", "p": 1.5},
            ),
            corpus=sq.CorpusSpec(seed=7, extents=64),
        )
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            reports = sq.run_suite(config)
            sq.emit_report(reports, "json", out / "reports.json")
            sq.emit_report(reports, "csv", out / "reports.csv")
            doc = json.loads((out / "reports.json").read_text())
            doc.pop("generated_at")
            blobs.append(
                (json.dumps(doc, sort_keys=True), (out / "reports.csv").read_bytes())
            )
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

    def test_detail_suite_byte_identical_modulo_timestamp(self, tmp_path):
        config_file = tmp_path / "config.json"
        SuiteConfig(
            inequalities=({"id": "oscillation_p", "p": 1.5}, {"id": "derivative_p", "p": 2.0}),
            corpus=sq.CorpusSpec(seed=7, extents=64),
        ).to_json(config_file)
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli_main(["suite", "--config", str(config_file), "--out", str(out), "--detail"]) == 0
            text = (out / "reports.json").read_text(encoding="utf-8")
            stamp = json.loads(text)["generated_at"]
            assert stamp and text.count(stamp) == 1
            outputs.append((
                text.replace(stamp, ""),
                (out / "reports.csv").read_bytes(),
                (out / "reports_trace.csv").read_bytes(),
            ))
        assert outputs[0] == outputs[1]
        assert outputs[0][2].count(b"\r\n") > 100

    def test_rows_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """The default 128² suite writes the same rows with one BLAS thread and with two.

        A BLAS dot splits long sums across its threads, so its last bits
        depend on the thread count; no reduction may go through it.  The
        three norm reductions are also run on 300,000 atoms, well past the
        size at which OpenBLAS starts its threads.
        """
        code = (
            "import sys, numpy as np, symineq as sq\n"
            "config = sq.SuiteConfig(corpus=sq.CorpusSpec(seed=0, extents=128))\n"
            "sq.emit_report(sq.run_suite(config), 'csv', sys.argv[1])\n"
            "rng = np.random.default_rng(0)\n"
            "mf = sq.MassFunction(rng.random(300_000), rng.random(300_000) + 0.5)\n"
            "profile = sq.decreasing_rearrangement(mf)\n"
            "print(repr(sq.lp_norm(mf, 2.0)), repr(sq.layer_cake_excess(mf, 0.25)),\n"
            "      repr(sq.polya_szego_lhs(profile, 2, 1.5)))\n"
        )
        src = os.path.dirname(os.path.dirname(sq.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        rows = []
        for threads in ("1", "2"):
            path = tmp_path / f"reports_{threads}.csv"
            env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", code, str(path)], check=True, env=env, timeout=300, capture_output=True
            )
            rows.append((path.read_bytes(), out.stdout))
        assert rows[0][0].count(b"\r\n") == 151  # header and 150 rows
        assert rows[0] == rows[1]

    def test_trace_array_equals_the_float_list_form(self, small_config, monkeypatch):
        captured = []
        original = inequalities._trace

        def recording_trace(t, lhs, rhs):
            trace = original(t, lhs, rhs)
            captured.append((trace, [[float(a), float(b), float(c)] for a, b, c in zip(t, lhs, rhs)]))
            return trace

        monkeypatch.setattr(inequalities, "_trace", recording_trace)
        # one CPU: the captures are made in this process, and no forked worker makes traces
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        config = SuiteConfig(
            inequalities=({"id": "oscillation_p", "p": 1.5}, {"id": "derivative_p", "p": 2.0}),
            detail=True,
            corpus=small_config.corpus,
        )
        reports = sq.run_suite(config)
        # every report's trace went through _trace (captures are function-major)
        assert sorted(id(trace) for trace, _ in captured) == sorted(id(r.trace) for r in reports)
        for trace, old_form in captured:
            assert trace.dtype == np.float64 and trace.shape == (len(old_form), 3)
            assert trace.tobytes() == np.array(old_form, dtype=np.float64).tobytes()


# JSON documents built from the config's own vocabulary, so that most of them
# reach the entry, corpus and family checks, plus arbitrary keys and values
_CONFIG_WORDS = sorted(
    {f.name for cls in (SuiteConfig, sq.CorpusSpec) for f in dataclasses.fields(cls)}
    | {"kind", "count", "radius", "eps_ladder", "id", "p", "n", "r", "phi", "masses", "capture_trace"}
    | set(sq.CHECKERS)
    | set(FAMILIES)
)
_json_words = st.one_of(st.sampled_from(_CONFIG_WORDS), st.text(max_size=3))
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _json_words),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_json_words, inner, max_size=4)
    ),
    max_leaves=12,
)


class TestConfigParsing:
    def test_any_json_document_parses_or_raises_what_the_cli_catches(self, tmp_path):
        path = tmp_path / "config.json"

        @given(st.one_of(st.dictionaries(_json_words, _json_values, max_size=4), _json_values))
        @example({"corpus": {"seed": math.inf}})
        @example({"corpus": {"families": [{"kind": "smoothed_noise", "radius": -math.inf}]}})
        @example({"inequalities": [{"id": ["s_phi_p"]}]})
        @settings(max_examples=150, deadline=None)
        def parse(doc):
            path.write_text(json.dumps(doc), encoding="utf-8")
            try:
                SuiteConfig.from_json(path)
            except (OSError, ValueError):  # what `symineq suite` reports
                pass

        parse()


class TestCli:
    def test_corpus_check_suite_report_flow(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        spec_file = tmp_path / "spec.json"
        sq.CorpusSpec(seed=4, extents=64).to_json(spec_file)
        assert cli_main(["corpus", "--spec", str(spec_file), "--out", str(corpus_dir)]) == 0
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest and (corpus_dir / manifest[0]["file"]).exists()
        capsys.readouterr()

        fn = corpus_dir / manifest[0]["file"]
        code = cli_main(
            ["check", "--ineq", "s_phi_p", "--fn", str(fn), "--p", "1.0"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["inequality_id"] == "s_phi_p" and doc["pass"]

        config_file = tmp_path / "config.json"
        SuiteConfig(
            inequalities=({"id": "s_phi_p", "p": 1.0}, {"id": "chain_rule", "r": 2.0}),
            corpus=sq.CorpusSpec(seed=4, extents=64),
        ).to_json(config_file)
        suite_dir = tmp_path / "suite"
        assert cli_main(
            ["suite", "--config", str(config_file), "--out", str(suite_dir)]
        ) == 0
        assert (suite_dir / "reports.json").exists()
        assert (suite_dir / "reports.csv").exists()

        render_dir = tmp_path / "render"
        assert cli_main(
            ["report", "--in", str(suite_dir), "--format", "csv", "--out", str(render_dir)]
        ) == 0
        assert (render_dir / "reports_rendered.csv").exists()

    def test_suite_bad_parameter_type_is_an_input_error_row(self, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        config_file.write_text(
            json.dumps(
                {
                    "inequalities": [{"id": "s_phi_p", "p": "2"}],
                    "corpus": {"seed": 4, "extents": 32, "families": [{"kind": "cone"}]},
                }
            )
        )
        out = tmp_path / "out"
        assert cli_main(["suite", "--config", str(config_file), "--out", str(out)]) == 2
        rows = json.loads((out / "reports.json").read_text())["reports"]
        assert len(rows) == 1
        assert rows[0]["status"].startswith("input_error")
        assert not rows[0]["pass"]

    def test_suite_unhashable_p_in_two_entries_is_two_input_error_rows(self, tmp_path, capsys):
        # the suite groups entries by p, which must not need a hashable p
        config_file = tmp_path / "config.json"
        entries = [{"id": "s_phi_p", "p": [1]}, {"id": "oscillation_p", "p": [2]}]
        small = {"seed": 4, "extents": 32, "families": [{"kind": "cone"}]}
        config_file.write_text(json.dumps({"inequalities": entries, "corpus": small}))
        out = tmp_path / "out"
        assert cli_main(["suite", "--config", str(config_file), "--out", str(out)]) == 2
        rows = json.loads((out / "reports.json").read_text())["reports"]
        assert [row["status"].split(":")[0] for row in rows] == ["input_error"] * 2

    @pytest.mark.parametrize("with_error", [False, True])
    def test_suite_prints_flagged_and_error_counts_on_their_own_line(self, tmp_path, capsys, with_error):
        entries = [{"id": "polya_szego"}, {"id": "s_phi_p"}]
        if with_error:
            entries.append({"id": "s_phi_p", "p": "2"})
        # a sharp disk: its Polya-Szego row is flagged:jump
        small = {"seed": 4, "extents": 32, "families": [{"kind": "mollified_disk", "eps_ladder": [0.02]}]}
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"inequalities": entries, "corpus": small}))
        out = tmp_path / "out"
        # a flagged row alone makes the exit code 1; an input error makes it 2
        assert cli_main(["suite", "--config", str(config_file), "--out", str(out)]) == (2 if with_error else 1)
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"1/{len(entries)} checks passed; reports in {out}",
            f"1 flagged, {int(with_error)} errors",
        ]

    @pytest.mark.parametrize("name", ["polya_szego", "nash"])
    def test_infinite_p_is_an_input_error(self, tmp_path, capsys, name):
        # JSON's Infinity as p: an input error in these checks too, not only in the p-checks
        config_file = tmp_path / "config.json"
        config_file.write_text(
            json.dumps(
                {
                    "inequalities": [{"id": name, "p": math.inf}],
                    "corpus": {"seed": 4, "extents": 32, "families": [{"kind": "cone"}]},
                }
            )
        )
        out = tmp_path / "out"
        assert cli_main(["suite", "--config", str(config_file), "--out", str(out)]) == 2
        rows = json.loads((out / "reports.json").read_text())["reports"]
        assert [r["status"] for r in rows] == ["input_error: p must be finite and >= 1"]
        cone_file = tmp_path / "cone.json"
        sq.cone_grid(32, radius=0.5).to_json(cone_file)
        assert cli_main(["check", "--ineq", name, "--fn", str(cone_file), "--p", "inf"]) == 2
        assert "p must be finite and >= 1" in capsys.readouterr().err

    def test_an_overflowing_cell_measure_is_an_input_error(self, tmp_path, capsys):
        # (1e159)**2 overflows a float: the grid and the corpus spec reject it up front
        values = np.zeros((8, 8))
        values[3, 3] = 1.0
        doc = {"dim": 2, "spacing": 1e159, "extents": [8, 8], "values": values.ravel().tolist()}
        fn = tmp_path / "huge.json"
        fn.write_text(json.dumps(doc))
        assert cli_main(["check", "--ineq", "s_phi_p", "--fn", str(fn)]) == 2
        assert "cell measure" in capsys.readouterr().err
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"corpus": {"extents": 64, "side": 1e159}}))
        assert cli_main(["suite", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 2
        assert "cell measure" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-2", "nan"])
    def test_a_tolerance_that_is_not_finite_and_nonnegative_is_an_input_error(self, tmp_path, capsys, tol):
        # not a failed inequality (exit 1) and no "tolerance": NaN in the output
        cone_file = tmp_path / "cone.json"
        sq.cone_grid(64).to_json(cone_file)
        assert cli_main(["check", "--ineq", "s_phi_p", "--fn", str(cone_file), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "tolerance must be a finite real >= 0" in captured.err and captured.out == ""
        small = {"extents": 32, "families": [{"kind": "cone"}]}
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"corpus": small}))
        out = tmp_path / "out"
        assert cli_main(["suite", "--config", str(config_file), "--out", str(out), "--tol", tol]) == 2
        assert "tolerance must be a finite real >= 0" in capsys.readouterr().err
        entry = {"id": "s_phi_p", "tolerance": float(tol)}
        config_file.write_text(json.dumps({"inequalities": [entry], "corpus": small}))
        assert cli_main(["suite", "--config", str(config_file), "--out", str(out)]) == 2
        assert "cannot load config: tolerance must be a finite real >= 0" in capsys.readouterr().err
        assert not (out / "reports.json").exists()

    def test_check_unknown_inequality(self, tmp_path, capsys):
        assert cli_main(["check", "--ineq", "nope", "--fn", "x.json"]) == 2

    @pytest.fixture
    def cone_file(self, tmp_path):
        path = tmp_path / "cone.json"
        sq.cone_grid(32, radius=0.5).to_json(path)
        return path

    def test_check_missing_or_malformed_phi_file(self, cone_file, tmp_path, capsys):
        bad_phi = tmp_path / "bad_phi.json"
        bad_phi.write_text(json.dumps({"kind": "table"}))  # no samples
        for phi in (tmp_path / "missing.json", bad_phi):
            code = cli_main(
                ["check", "--ineq", "oscillation_p", "--fn", str(cone_file), "--phi", str(phi)]
            )
            assert code == 2
            assert "cannot load phi" in capsys.readouterr().err

    def test_check_rejects_an_inadmissible_phi_table(self, cone_file, tmp_path, capsys):
        # phi falls, so its profile t/phi is not concave and its quotient t/I = phi decreases
        phi_file = tmp_path / "phi.json"
        sq.ProfileHandle("table", samples=((0.25, 0.5), (0.5, 0.25), (1.0, 0.2))).to_json(phi_file)
        code = cli_main(["check", "--ineq", "oscillation_p", "--fn", str(cone_file), "--phi", str(phi_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert "not admissible" in err
        assert "not_concave" in err and "quotient_decreasing" in err

    def test_check_rejects_an_unknown_phi_key(self, cone_file, tmp_path, capsys):
        phi_file = tmp_path / "phi.json"
        phi_file.write_text(json.dumps({"kind": "power_law", "coefficient": 0.28, "exponent": 0.5, "tolernce": 3}))
        code = cli_main(["check", "--ineq", "oscillation_p", "--fn", str(cone_file), "--phi", str(phi_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot load phi" in err and "'tolernce'" in err

    @pytest.mark.parametrize("ineq, code", [("s_phi_p", 0), ("polya_szego", 1)])
    def test_check_into_a_closed_pipe_exits_with_its_own_code(self, tmp_path, ineq, code):
        # the reader is gone before the report is written: no traceback, the check's own code;
        # Polya-Szego flags the square's indicator as a jump, which never passes
        values = np.zeros((16, 16))
        values[4:12, 4:12] = 1.0
        fn = tmp_path / "square.json"
        sq.GridFunction(1 / 16, values).to_json(fn)
        src = os.path.dirname(os.path.dirname(sq.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for unbuffered in ("", "1"):
            env["PYTHONUNBUFFERED"] = unbuffered
            args = [sys.executable, "-m", "symineq.cli", "check", "--ineq", ineq, "--fn", str(fn)]
            with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
                proc.stdout.close()
                stderr = proc.stderr.read()
                assert proc.wait(timeout=120) == code
            assert stderr == b""

    def test_check_accepts_a_sampled_euclidean_phi_table(self, cone_file, tmp_path, capsys):
        phi = sq.phi_from_profile(sq.euclidean_profile(2))
        samples = tuple((t, phi(t)) for t in np.geomspace(1e-3, 8.0, 12).tolist())
        phi_file = tmp_path / "phi.json"
        sq.ProfileHandle("table", samples=samples).to_json(phi_file)
        code = cli_main(["check", "--ineq", "oscillation_p", "--fn", str(cone_file), "--phi", str(phi_file)])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("name", ["oneil", "binomial_bounds"])
    def test_check_rejects_pair_and_corpus_free_ids(self, cone_file, name, capsys):
        assert cli_main(["check", "--ineq", name, "--fn", str(cone_file), "--p", "2.5"]) == 2
        assert "takes" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["chain_rule", "nash_classical"])
    def test_check_rejects_undeclared_flag(self, cone_file, name, capsys):
        assert cli_main(["check", "--ineq", name, "--fn", str(cone_file), "--p", "3"]) == 2
        assert "unknown keys ['p']" in capsys.readouterr().err
        assert cli_main(["check", "--ineq", name, "--fn", str(cone_file)]) == 0

    @pytest.mark.parametrize(
        "doc",
        [
            {"inequalities": [{"id": "chain_rule", "p": 3.0}]},
            {"tolerence": 0.1},
            {"corpus": {"extnts": 5}},
            # n is the function's dimension, not a setting
            {"inequalities": [{"id": "s_phi_p", "n": 3}]},
            {"inequalities": [{"id": "derivative_p", "derivative_factor": 1.0}]},
            # keys only code can set
            {"inequalities": [{"id": "oscillation_p", "phi": {"kind": "power_law"}}]},
            {"inequalities": [{"id": "oscillation_p", "capture_trace": True}]},
            {"inequalities": [{"id": "oneil", "masses": 0.5}]},
        ],
        ids=[
            "entry_key",
            "config_key",
            "corpus_key",
            "dimension",
            "derivative_factor",
            "phi",
            "capture_trace",
            "masses",
        ],
    )
    def test_suite_unknown_key_is_a_config_error(self, tmp_path, capsys, doc):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["suite", "--config", str(config_file), "--out", str(out)]) == 2
        assert "cannot load config" in capsys.readouterr().err
        assert not (out / "reports.json").exists()

    def test_corpus_unknown_spec_key(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"extnts": 5}))
        assert cli_main(["corpus", "--spec", str(spec_file), "--out", str(tmp_path)]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            {"families": [{"kind": "tensor_bump", "cout": 5}]},
            {"families": [{"kind": "smoothed_noise", "raduis": 9}]},
            {"extents": 8},
            {"extents": 20},  # too small for the default noise smoothing radius
            {"families": [{"kind": "cone", "radius": 0.6}], "extents": 32},
            {"families": [{"kind": "cone", "count": "2"}]},
            {"families": [{"kind": "smoothed_noise", "radius": -1}], "extents": 32},
            {"families": [{"kind": "smoothed_noise", "radius": 1.5}], "extents": 32},
            {"families": [{"kind": "multi_bump", "bumps": -1}]},
            {"families": [{"kind": "multi_bump", "bumps": 0}]},
            {"families": [{"kind": "tensor_bump", "count": 0}]},
        ],
        ids=[
            "family_key",
            "noise_family_key",
            "grid_too_small",
            "noise_margin",
            "cone_margin",
            "count_type",
            "noise_radius_negative",
            "noise_radius_fraction",
            "bumps_negative",
            "bumps_zero",
            "count_zero",
        ],
    )
    def test_spec_that_cannot_be_built_is_an_input_error(self, tmp_path, capsys, spec):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        corpus_dir = tmp_path / "corpus"
        assert cli_main(["corpus", "--spec", str(spec_file), "--out", str(corpus_dir)]) == 2
        assert "cannot load spec" in capsys.readouterr().err
        assert not (corpus_dir / "manifest.json").exists()
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"corpus": spec}))
        suite_dir = tmp_path / "suite"
        assert cli_main(["suite", "--config", str(config_file), "--out", str(suite_dir)]) == 2
        assert "cannot load config" in capsys.readouterr().err
        assert not (suite_dir / "reports.json").exists()

    def test_check_has_no_dimension_flag(self, cone_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["check", "--ineq", "s_phi_p", "--fn", str(cone_file), "--n", "2"])
        assert exit_info.value.code == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "table", "samples": [[0.25, math.nan], [1.0, 0.5]]},
            {"kind": "power_law", "coefficient": math.nan, "exponent": 0.5},
        ],
        ids=["table", "power_law"],
    )
    def test_check_rejects_a_phi_with_a_nan(self, cone_file, tmp_path, capsys, doc):
        phi_file = tmp_path / "phi.json"
        phi_file.write_text(json.dumps(doc))
        code = cli_main(["check", "--ineq", "oscillation_p", "--fn", str(cone_file), "--phi", str(phi_file)])
        assert code == 2
        assert "cannot load phi" in capsys.readouterr().err

    def test_check_missing_function_file(self, tmp_path):
        assert cli_main(["check", "--ineq", "s_phi_p", "--fn", str(tmp_path / "no.json")]) == 2

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SYMINEQ_OUT", str(tmp_path / "envout"))
        spec_file = tmp_path / "spec.json"
        sq.CorpusSpec(seed=4, extents=32, families=({"kind": "cone"},)).to_json(spec_file)
        assert cli_main(["corpus", "--spec", str(spec_file)]) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()

    def test_custom_phi_flows_through(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        spec_file = tmp_path / "spec.json"
        sq.CorpusSpec(seed=4, extents=64, families=({"kind": "cone"},)).to_json(spec_file)
        cli_main(["corpus", "--spec", str(spec_file), "--out", str(corpus_dir)])
        fn = corpus_dir / "cone_00.json"
        phi_file = tmp_path / "phi.json"
        sq.phi_from_profile(sq.euclidean_profile(2)).to_json(phi_file)
        code = cli_main(
            [
                "check", "--ineq", "oscillation_p", "--fn", str(fn),
                "--phi", str(phi_file), "--p", "2.0",
                "--mode", "euclidean_central",
            ]
        )
        assert code == 0
