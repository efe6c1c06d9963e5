"""Verdict gate: every report row is checked against what a correct run gives.

A row is (inequality_id, function_id, status, pass, worst_ratio).  A row
counts as failed if any of these holds:

* its check raised (status ``input_error: ...``);
* its identity is not the one expected at that position of the suite;
* it differs from the same row of the run's first pass (passes must agree
  bit for bit);
* the emitted JSON or CSV report disagrees with it;
* a reference is recorded for the seed and the row's status or pass flag
  differs from it, or its worst_ratio differs by more than a relative 1e-9.
  The tolerance leaves room for last-ulp mass changes from reordered sums.

This module imports only the standard library.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from pathlib import Path

RATIO_RTOL = 1e-9


def verdict_rows(reports) -> list[tuple]:
    return [
        (r.inequality_id, r.function_id, r.status, bool(r.passed), float(r.worst_ratio))
        for r in reports
    ]


def expected_ids(inequalities, function_ids) -> list[tuple[str, str]]:
    """Row identities in the order run_suite emits them."""
    out = []
    for entry in inequalities:
        name = entry["id"]
        if name == "binomial_bounds":
            out.append((name, "-"))
        elif name == "oneil":
            out.extend((name, f"{a}*{b}") for a, b in zip(function_ids[:-1], function_ids[1:]))
        else:
            out.extend((name, fid) for fid in function_ids)
    return out


def digest(rows) -> str:
    """Short hash of the verdicts, ratios rounded to 10 significant digits.

    Two runs of one seed can be compared by digest when no reference is
    recorded for that seed; the rounding makes last-ulp changes invisible.
    """
    h = hashlib.sha256()
    for ineq, fid, status, passed, ratio in rows:
        h.update(f"{ineq}|{fid}|{status}|{int(passed)}|{ratio:.9e}\n".encode())
    return h.hexdigest()[:16]


def _ratio_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RATIO_RTOL * abs(b)


def _same_row(a: tuple, b: tuple) -> bool:
    return a[:4] == b[:4] and _ratio_close(a[4], b[4])


# -- emitted reports --------------------------------------------------------


def _ratio_field(x) -> float:
    return math.nan if x in (None, "") else float(x)


def emitted_rows(json_path: Path, csv_path: Path) -> tuple[list[tuple], list[tuple]]:
    """Verdict rows as written to the JSON and CSV reports."""
    doc = json.loads(Path(json_path).read_text(encoding="utf-8"))
    from_json = [
        (d["inequality_id"], d["function_id"], d["status"], d["pass"], _ratio_field(d["worst_ratio"]))
        for d in doc["reports"]
    ]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        from_csv = [
            (d["inequality_id"], d["function_id"], d["status"], d["pass"] == "True", _ratio_field(d["worst_ratio"]))
            for d in csv.DictReader(fh)
        ]
    return from_json, from_csv


# -- recorded references ----------------------------------------------------


def load_reference(path: Path, seed: int) -> list[tuple] | None:
    """Recorded rows for a seed, or None if the seed has no reference."""
    path = Path(path)
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    verdicts = doc["seeds"].get(str(seed))
    if verdicts is None:
        return None
    return [
        (ineq, fid, status, passed, _ratio_field(ratio))
        for (ineq, fid), (status, passed, ratio) in zip(doc["ids"], verdicts)
    ]


def record_reference(path: Path, seed: int, rows: list[tuple]) -> None:
    """Add or replace one seed's rows in a reference file."""
    path = Path(path)
    ids = [[r[0], r[1]] for r in rows]
    doc = {"ids": ids, "seeds": {}}
    if path.exists():
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["ids"] != ids:
            raise ValueError(f"{path}: row identities differ from the recorded ones")
    doc["seeds"][str(seed)] = [
        [r[2], r[3], None if math.isnan(r[4]) else r[4]] for r in rows
    ]
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file bytes a function of its content alone
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(doc, separators=(",", ":")).encode("utf-8"))


# -- the gate ---------------------------------------------------------------


class Gate:
    """Counts attempted and failed rows over all passes of one run."""

    def __init__(self, expected: list[tuple[str, str]], reference: list[tuple] | None):
        self.expected = expected
        self.reference = reference
        self.first: list[tuple] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_pass(self, rows: list[tuple], emitted: tuple[list, list]) -> None:
        if self.first is None:
            self.first = rows
        n = max(len(rows), len(self.expected))
        self.attempted += n
        bad = n - min(len(rows), len(self.expected))
        if bad:
            self._note(f"{len(rows)} rows, expected {len(self.expected)}")
        from_json, from_csv = emitted
        for i, row in enumerate(rows[: len(self.expected)]):
            reason = self._row_problem(i, row, from_json, from_csv)
            if reason:
                bad += 1
                self._note(f"{row[0]} on {row[1]}: {reason}")
        self.failed += bad

    def _row_problem(self, i, row, from_json, from_csv) -> str | None:
        if row[2].startswith("input_error"):
            return row[2]
        if row[:2] != self.expected[i]:
            return f"expected {self.expected[i]}"
        if not _identical(row, self.first[i]):
            return "differs from the first pass"
        if i >= len(from_json) or not _identical(row, from_json[i]):
            return "JSON report disagrees"
        if i >= len(from_csv) or not _identical(row, from_csv[i]):
            return "CSV report disagrees"
        if self.reference is not None:
            ref = self.reference[i] if i < len(self.reference) else None
            if ref is None or not _same_row(row, ref):
                return f"differs from reference {ref}"
        return None

    def _note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _identical(a: tuple, b: tuple) -> bool:
    return a[:4] == b[:4] and (a[4] == b[4] or (math.isnan(a[4]) and math.isnan(b[4])))
