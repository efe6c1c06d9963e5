"""Suite orchestration: run registered checks over a corpus, emit reports.

Given the same corpus spec and suite config, every emitted byte is identical
between runs except the timestamp, which is isolated in the single
``generated_at`` header field of the JSON document (the CSV tables carry no
timestamp at all).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CorpusSpec, check_keys, generate_corpus
from .gradient import PreparedFunction
from .inequalities import ARITY, CHECKERS, check_binomial_bounds, check_oneil, checker_kwargs, entry_keys
from .report import CheckReport, best_constant

__all__ = ["SuiteConfig", "run_suite", "emit_report", "load_report", "DEFAULT_INEQUALITIES"]

DEFAULT_INEQUALITIES = (
    {"id": "s_phi_p", "p": 1.0},
    {"id": "s_phi_p", "p": 2.0},
    {"id": "oscillation_p", "p": 1.0},
    {"id": "oscillation_p", "p": 1.5},
    {"id": "oscillation_p", "p": 2.0},
    {"id": "oscillation_p", "p": 3.0},
    {"id": "derivative_p", "p": 1.0},
    {"id": "derivative_p", "p": 2.0},
    {"id": "chain_rule", "r": 2.0},
    {"id": "nash_classical"},
    {"id": "sobolev_weak", "p": 1.0},
    {"id": "sobolev_strong", "p": 1.0},
    {"id": "sobolev_exp"},
    {"id": "polya_szego", "p": 1.0},
    {"id": "binomial_bounds", "p": 2.5},
    {"id": "oneil"},
)


@dataclass(frozen=True)
class SuiteConfig:
    """Which checks to run and how; unknown ids and entry keys, ``CODE_ONLY`` ones included, are rejected."""

    inequalities: tuple = DEFAULT_INEQUALITIES
    gradient_mode: str = "metric_max"
    constant_mode: str = "analytic"
    tolerance: float | None = None
    detail: bool = False
    corpus: CorpusSpec = field(default_factory=CorpusSpec)

    def __post_init__(self):
        for entry in self.inequalities:
            entry_keys(entry.get("id"), entry, config=True)

    def to_json(self, path=None):
        doc = {
            "inequalities": [dict(e) for e in self.inequalities],
            "gradient_mode": self.gradient_mode,
            "constant_mode": self.constant_mode,
            "tolerance": self.tolerance,
            "detail": self.detail,
            "corpus": self.corpus.to_json(),
        }
        if path is None:
            return doc
        Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return None

    @classmethod
    def from_json(cls, source) -> "SuiteConfig":
        doc = source if isinstance(source, dict) else json.loads(
            Path(source).read_text(encoding="utf-8")
        )
        check_keys(doc, cls, "suite config")
        values = dict(doc, detail=bool(doc.get("detail", False)))
        values["inequalities"] = tuple(dict(e) for e in doc.get("inequalities", DEFAULT_INEQUALITIES))
        if "corpus" in doc:
            values["corpus"] = CorpusSpec.from_json(doc["corpus"])
        return cls(**values)


def run_suite(config: SuiteConfig, corpus=None) -> list[CheckReport]:
    """One report per (function, inequality) plus the corpus-free sweeps.

    Checker errors become failed-with-reason rows; the suite never aborts on a
    single bad cell.  The corpus defaults to the one described by the config.

    Evaluation is function-major: each function is prepared once and every
    per-function entry reads its cached rearrangements.  Then everything but
    the profile is dropped, and the O'Neil pair with the previous function
    runs on the two profiles.  Rows come out entry-major, in config order.
    """
    if corpus is None:
        corpus = generate_corpus(config.corpus)
    rows: list[list[CheckReport]] = [[] for _ in config.inequalities]
    context = {
        "gradient_mode": config.gradient_mode,
        "constant_mode": config.constant_mode,
        "capture_trace": config.detail,
        "tolerance": config.tolerance,
    }
    per_function, pairs = [], []
    for slot, entry in zip(rows, config.inequalities):
        name = entry["id"]
        kwargs = checker_kwargs(name, entry, context)
        # the one corpus-free sweep and the one pair check run through this module's names
        arity = ARITY.get(name, 1)
        if arity == 0:
            slot.append(_guarded(name, "-", lambda: check_binomial_bounds(**kwargs)))
        elif arity == 2:
            pairs.append((slot, name, kwargs))
        else:
            per_function.append((slot, name, CHECKERS[name], kwargs))

    # a powered profile stays cached only while a later entry of the same
    # function may read it; one whose p no later entry names is dropped
    later_ps = [{kw.get("p") for *_, kw in per_function[i + 1:]} for i in range(len(per_function))]

    prev_id, prev = None, None
    for function_id, f in corpus:
        pf = PreparedFunction(f)
        for (slot, name, runner, kwargs), keep in zip(per_function, later_ps):
            slot.append(_guarded(name, function_id, lambda: runner(pf, **kwargs)))
            pf.keep_powers(keep)
        if pairs:
            pf.keep_profile_only()
            if prev is not None:
                pair_id = f"{prev_id}*{function_id}"
                for slot, name, kwargs in pairs:
                    slot.append(_guarded(name, pair_id, lambda: check_oneil(prev, pf, **kwargs)))
            prev_id, prev = function_id, pf
    return [report for slot in rows for report in slot]


def _guarded(name: str, function_id: str, check) -> CheckReport:
    """Run one check; a bad parameter or input becomes an input_error row."""
    try:
        report = check()
    except (ValueError, KeyError, TypeError) as exc:
        report = CheckReport.error(name, f"input_error: {exc}")
    report.function_id = function_id
    return report


def summarize(reports: list[CheckReport]) -> dict:
    """Empirical best constant and pass counts per inequality id."""
    groups: dict[str, list[CheckReport]] = {}
    for report in reports:
        groups.setdefault(report.inequality_id, []).append(report)
    return {
        name: {
            "best_constant": best_constant(rows),
            "checks": len(rows),
            "passes": sum(1 for r in rows if r.passed),
            "errors": sum(1 for r in rows if r.status != "ok"),
        }
        for name, rows in groups.items()
    }


def suite_exit_code(reports: list[CheckReport]) -> int:
    """0 iff every check passed, 2 on input errors, 1 on inequality failures."""
    if any(r.status.startswith("input_error") for r in reports):
        return 2
    if all(r.passed for r in reports):
        return 0
    return 1


def _report_row(report: CheckReport, seed) -> dict:
    row = report.to_dict()
    row["grid"] = report.params.get("grid")
    row["gradient_mode"] = report.params.get("gradient_mode")
    row["seed"] = seed
    return row


def _trace_text(report: CheckReport, t_text: dict) -> str:
    """The report's trace as CSV lines "t,lhs,rhs" ended by CRLF, each value its repr.

    Both report formats are derived from this text, so each trace value is
    formatted once.  The text is cached on the report together with the trace
    it was made from, and made anew if ``report.trace`` is replaced.  Checks
    on one grid shape share their t column, so a column is formatted once per
    ``t_text``, which maps the column's bytes (-0.0 and 0.0 differ) to its
    reprs.
    """
    trace = report.trace
    if report.trace_text is not None and report.trace_text[0] is trace:
        return report.trace_text[1]
    if isinstance(trace, np.ndarray):
        rows = trace.astype(float, copy=False).reshape(len(trace), 3)
    else:
        # float() also turns numpy scalars into floats, whose repr is the plain number
        rows = np.array([[float(x) for x in row] for row in trace]).reshape(len(trace), 3)
    t = rows[:, 0]
    key = t.tobytes()
    if key not in t_text:
        t_text[key] = [repr(x) for x in t.tolist()]
    values = rows.ravel().tolist()
    values[0::3] = t_text[key]
    text = "%s,%r,%r\r\n" * len(trace) % tuple(values)
    report.trace_text = (trace, text)
    return text


def _json_trace(text: str) -> str:
    """The trace text as the JSON list of [t, lhs, rhs] lists that json.dumps writes."""
    if not text:
        return "[]"
    doc = "[[" + text[:-2].replace(",", ", ").replace("\r\n", "], [") + "]]"
    if "n" in doc:  # only the reprs inf, -inf and nan contain an "n"
        doc = doc.replace("inf", "Infinity").replace("nan", "NaN")
    return doc


def _json_row(encode, report: CheckReport, seed, detail: bool, t_text: dict) -> str:
    """One report row as sort_keys JSON; a trace is spliced in between the other keys."""
    row = _report_row(report, seed)
    if not detail or report.trace is None:
        return encode(row)
    # a row always has keys on both sides of "trace" (constant_used, worst_ratio)
    before = encode({k: v for k, v in row.items() if k < "trace"})
    after = encode({k: v for k, v in row.items() if k > "trace"})
    return before[:-1] + ', "trace": ' + _json_trace(_trace_text(report, t_text)) + ", " + after[1:]


def emit_report(
    reports: list[CheckReport], fmt: str, path, detail: bool = False, seed=None
) -> None:
    """Write the report list; JSON carries a summary block, CSV is row-per-check.

    The JSON document is one JSON object: its first line holds
    ``generated_at`` and ``summary``, then each report object sits on a line
    of its own.  In detail mode the JSON rows carry their per-t traces, and
    the CSV format writes an additional table with one (function,
    inequality, t, lhs, rhs) row per trace point next to the main one.

    A trace is formatted once, on the first call that writes it: the JSON
    lists and the trace table are both rewritten from that text, byte for byte
    what ``json`` and ``csv.writer`` would write for the rows as lists.  A t
    column that several traces share is formatted once per call.
    """
    path = Path(path)
    if path.parent and not path.parent.exists():
        raise FileNotFoundError(f"output directory {path.parent} does not exist")
    t_text: dict[bytes, list[str]] = {}
    if fmt == "json":
        # json encodes in C only without indent; row by row, the document is
        # never held as one string
        encode = json.JSONEncoder(sort_keys=True).encode
        header = encode({
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "summary": summarize(reports),
        })
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(header[:-1] + ', "reports": [')
                for i, r in enumerate(reports):
                    fh.write((",\n" if i else "\n") + _json_row(encode, r, seed, detail, t_text))
                fh.write("\n]}\n")
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    columns = [
        "inequality_id",
        "function_id",
        "worst_ratio",
        "worst_location",
        "constant_used",
        "tolerance",
        "pass",
        "status",
        "grid",
        "gradient_mode",
        "seed",
        "params",
    ]
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for r in reports:
                doc = _report_row(r, seed)
                doc["params"] = json.dumps(doc["params"], sort_keys=True)
                writer.writerow([doc[c] for c in columns])
        if detail:
            trace_path = path.with_name(path.stem + "_trace" + path.suffix)
            # the id columns go through the csv module (quoting) once per
            # report and lead every line of the report's trace text
            key_buffer = io.StringIO()
            keys = csv.writer(key_buffer)
            with open(trace_path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(["function_id", "inequality_id", "t", "lhs", "rhs"])
                for r in reports:
                    text = "" if r.trace is None else _trace_text(r, t_text)
                    if not text:
                        continue
                    keys.writerow([r.function_id, r.inequality_id, ""])
                    key = key_buffer.getvalue()[:-2]  # drop the "\r\n" row end
                    key_buffer.seek(0)
                    key_buffer.truncate()
                    fh.write(key + text[:-2].replace("\r\n", "\r\n" + key) + "\r\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def load_report(path) -> list[CheckReport]:
    """Parse a JSON report document back into CheckReports."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [CheckReport.from_dict(row) for row in doc["reports"]]
