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
import mmap
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path

try:
    import fcntl
except ImportError:  # no POSIX locks (Windows), nor the affinity call, so nothing forks there
    fcntl = None

from .corpus import CorpusSpec, generate_corpus
from .gradient import GRADIENT_MODES, PreparedFunction
from .inequalities import ARITY, CHECKERS, CONSTANT_MODES, TGRID_CACHE_SIZE, checker_kwargs, entry_keys
from .inequalities import check_binomial_bounds, check_oneil  # called by name here, so a tracer can rebind them
from .measure import json_object, read_document, write_document
from .report import CheckReport, best_constant, require_tolerance

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
    """Which checks to run and how; unknown ids, entry keys (``CODE_ONLY`` ones too) and run-wide modes are rejected."""

    inequalities: tuple = DEFAULT_INEQUALITIES
    gradient_mode: str = "metric_max"
    constant_mode: str = "analytic"
    tolerance: float | None = None
    detail: bool = False
    corpus: CorpusSpec = field(default_factory=CorpusSpec)

    def __post_init__(self):
        if self.tolerance is not None:
            require_tolerance(self.tolerance)
        if not isinstance(self.detail, bool):
            raise ValueError(f"detail must be true or false, not {self.detail!r}")
        for entry in self.inequalities:
            entry_keys(entry.get("id"), entry, config=True)
            if "tolerance" in entry:
                require_tolerance(entry["tolerance"])
        for key, modes in (("gradient_mode", GRADIENT_MODES), ("constant_mode", CONSTANT_MODES)):
            if getattr(self, key) not in modes:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}; expected one of {modes}")

    def to_json(self, path=None):
        doc = {
            "inequalities": [dict(e) for e in self.inequalities],
            "gradient_mode": self.gradient_mode,
            "constant_mode": self.constant_mode,
            "tolerance": self.tolerance,
            "detail": self.detail,
            "corpus": self.corpus.to_json(),
        }
        return doc if path is None else write_document(doc, path, indent=2)

    @classmethod
    def from_json(cls, source) -> "SuiteConfig":
        def build(doc):
            entries = doc.get("inequalities", DEFAULT_INEQUALITIES)
            values = dict(doc, inequalities=tuple(dict(e) for e in entries))
            if "corpus" in doc:
                values["corpus"] = CorpusSpec.from_json(json_object(doc["corpus"], "corpus spec"))
            return cls(**values)

        return read_document(source, "suite config", [f.name for f in fields(cls)], build)


def run_suite(config: SuiteConfig, corpus=None) -> list[CheckReport]:
    """One report per (function, inequality) plus the corpus-free sweeps.

    Checker errors become failed-with-reason rows; the suite never aborts on a
    single bad cell.  The corpus defaults to the one described by the config.

    Evaluation is function-major: each function is prepared once.  The
    O'Neil pair with the previous function runs first, on the two profiles,
    and the previous profile is dropped; then every per-function entry
    reads the function's cached rearrangements, and everything but its
    profile is dropped.  Rows come out entry-major, in config order.  Each
    kernel allocates its own box-sized temporaries; nothing but the
    function's profile is kept for the next one's pair.

    The functions are shared out among workers, one per CPU this process
    may run on (``os.sched_getaffinity``), at most one per function.  This
    process is the first worker and a forked child is each other one.  Each
    starts on a contiguous range of the corpus; one whose range is used up
    takes over the back half of the largest unclaimed remainder, so a few
    costly functions do not leave the other workers idle.  The process that
    runs function i runs the O'Neil pair (i - 1, i), re-preparing i - 1's
    profile unless it has just run i - 1, and the rows join in function
    order, so the reports are those of one pass.  The corpus-free sweeps
    run here once the children are forked, so no worker waits for them.
    With one CPU or one function the same loop runs here over the whole
    corpus without forking.  An exception a child raises is raised here: a
    failing child stops every claim first, so no worker starts another
    function.  No child outlives the call.
    """
    if corpus is None:
        corpus = generate_corpus(config.corpus)
    corpus = list(corpus)
    rows: list[list[CheckReport]] = [[] for _ in config.inequalities]
    context = {
        "gradient_mode": config.gradient_mode,
        "constant_mode": config.constant_mode,
        "capture_trace": config.detail,
        "tolerance": config.tolerance,
    }
    per_function, pairs, sweeps = [], [], []
    for index, entry in enumerate(config.inequalities):
        name = entry["id"]
        kwargs = checker_kwargs(name, entry, context)
        # the one corpus-free sweep and the one pair check run through this module's names
        arity = ARITY.get(name, 1)
        if arity == 0:
            sweeps.append((index, name, kwargs))
        elif arity == 2:
            pairs.append((index, name, kwargs))
        else:
            per_function.append((index, name, CHECKERS[name], kwargs))

    def run_sweeps() -> None:
        """The corpus-free rows, run in this process once any workers are forked."""
        for index, name, kwargs in sweeps:
            rows[index].append(_guarded(name, "-", lambda: check_binomial_bounds(**kwargs)))

    # the entries without a p run first, so the chain rule reads the gradient modulus
    # before the gradient's mass build sorts it where it lies; rows still come out in
    # config order through the slots
    per_function.sort(key=lambda e: e[3].get("p") is not None)

    def run_functions(claims) -> list:
        """(i, rows) per index i claimed: per entry, the rows of function i and of the pair (i - 1, i).

        Each traced row's ``trace_text`` cache is filled as soon as the
        function's rows are made, so the report writer's float formatting is
        split across the workers too.
        """
        done = []
        prev_index, prev = None, None
        for i in claims:
            function_id, f = corpus[i]
            out: list[list[CheckReport]] = [[] for _ in config.inequalities]
            pf = PreparedFunction(f)
            if pairs and i > 0:
                if prev_index != i - 1:  # i - 1 was not the function this process ran last
                    prev = PreparedFunction(corpus[i - 1][1])
                # the checker builds both profiles, so a profile that cannot be built is an input_error row
                pair_id = f"{corpus[i - 1][0]}*{function_id}"
                for index, name, kwargs in pairs:
                    out[index].append(_guarded(name, pair_id, lambda: check_oneil(prev, pf, **kwargs)))
            prev = None  # before f's own checks build their artifacts
            for index, name, runner, kwargs in per_function:
                out[index].append(_guarded(name, function_id, lambda: runner(pf, **kwargs)))
            if pairs:
                pf.keep_profile_only()
                prev_index, prev = i, pf
            for rows_of_entry in out:
                for report in rows_of_entry:
                    if report.trace is not None:
                        _trace_text(report)
            done.append((i, out))
        return done

    ids = [function_id for function_id, _ in corpus]
    done = _run_forked(run_functions, ids, _worker_count(len(ids)), run_sweeps)
    for _, part in sorted(done, key=lambda item: item[0]):
        for slot, rows_of_entry in zip(rows, part):
            slot.extend(rows_of_entry)
    return [report for slot in rows for report in slot]


def _worker_count(functions: int) -> int:
    """One worker per CPU this process may run on, at most one per function."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS, Windows): run serially
        cpus = 1
    return max(1, min(cpus, functions))


def _claim(words, worker: int) -> int | None:
    """The next function index for ``worker``, or None once no range has an unclaimed index or the pass is stopped.

    ``words`` holds two numbers per worker: the next unclaimed index of its
    range and the range's end, then the stop word, nonzero once a worker
    has failed.  A worker claims its own range front to back.  Once it is
    used up, the worker takes over the back half, rounded up, of the largest
    unclaimed remainder (the first such worker's on a tie), and claims that
    front to back.  A remainder of two goes whole: split, each half's O'Neil
    pair would re-prepare the profile before it.
    """
    if words[-1]:
        return None
    start, end = words[2 * worker], words[2 * worker + 1]
    if start == end:
        victim = max(range((len(words) - 1) // 2), key=lambda w: words[2 * w + 1] - words[2 * w])
        left = words[2 * victim + 1] - words[2 * victim]
        if left == 0:
            return None
        end = words[2 * victim + 1]
        start = end - (2 if left == 2 else (left + 1) // 2)
        words[2 * victim + 1] = start
        words[2 * worker + 1] = end
    words[2 * worker] = start + 1
    return start


class _Ledger:
    """The claim words of a forked pass, shared by every worker, one claim at a time.

    The words live in a shared mapping of an anonymous memory file, which a
    forked child inherits.  A claim holds an ``fcntl.lockf`` lock on that
    file, and the kernel drops the lock when its holder exits, so a killed
    worker cannot hang the others.  ``last`` is the index this process
    claimed last: the function it is running.  The last word is the stop
    word, which ``stop`` sets.
    """

    def __init__(self, bounds: list):
        size = 16 * len(bounds) + 8
        self._fd = os.memfd_create("symineq-claims", os.MFD_CLOEXEC)
        try:
            os.ftruncate(self._fd, size)
            self._map = mmap.mmap(self._fd, size)
        except BaseException:
            os.close(self._fd)
            raise
        self.words = memoryview(self._map).cast("q")  # signed 64-bit words
        for w, (lo, hi) in enumerate(bounds):
            self.words[2 * w], self.words[2 * w + 1] = lo, hi
        self.last = None

    def claims(self, worker: int):
        """The indices ``worker`` claims, in claim order, until none is left or the pass is stopped."""
        while True:
            fcntl.lockf(self._fd, fcntl.LOCK_EX)
            try:
                self.last = _claim(self.words, worker)
            finally:
                fcntl.lockf(self._fd, fcntl.LOCK_UN)
            if self.last is None:
                return
            yield self.last

    def stop(self) -> None:
        """Set the stop word: from now on every claim, of any worker, finds nothing."""
        fcntl.lockf(self._fd, fcntl.LOCK_EX)
        try:
            self.words[-1] = 1
        finally:
            fcntl.lockf(self._fd, fcntl.LOCK_UN)

    def close(self) -> None:
        self.words.release()
        self._map.close()
        os.close(self._fd)


def _run_forked(run_functions, ids: list, workers: int, run_here) -> list:
    """(i, rows) for every function index i: worker 0 runs here, each other one in a forked child.

    ``ids`` are the function ids, one per index.  Worker w starts on the
    w-th of ``workers`` contiguous ranges of the indices and claims
    functions through the shared ledger, which hands an idle worker the back
    half of the busiest range (``_claim``).  With one worker nothing forks,
    and the same loop runs over every index with no ledger.  ``run_here()``
    runs in this process after the forks and before its own claims, so the
    children start at once.  Each worker's rows come with their traces
    formatted (``run_functions``).  A child pickles its rows (or the
    exception it raised, with the function it was running) into a pipe and
    leaves by ``os._exit``, so it never returns into the caller's stack nor
    flushes this process's stdio.  A failing child sets the ledger's stop
    word before it sends its exception, so the other workers start no new
    function.  The pipes are read in worker order.
    On the way out, whether with the rows, an exception or an interrupt,
    every pipe is closed and every child is killed (one that has sent its
    rows has only its exit left) and reaped.
    """
    if workers == 1:
        run_here()
        return run_functions(range(len(ids)))
    readers, pids = [], []
    n = len(ids)
    ledger = _Ledger([(n * w // workers, n * (w + 1) // workers) for w in range(workers)])
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(run_functions, ledger, worker, write_fd)
            finally:
                os.close(write_fd)  # the child's copy is the only writer left
            pids.append(pid)
        run_here()
        done = run_functions(ledger.claims(0))
        for worker, reader in enumerate(readers, start=1):
            try:
                part, error = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise RuntimeError(f"worker {worker} ended without sending its rows") from exc
            if error is not None:
                exc, running, child_traceback = error
                where = f"worker {worker}"
                if running is not None:
                    where += f", running function {running} ({ids[running]})"
                raise exc from RuntimeError(f"in {where}:\n{child_traceback}")
            done.extend(part)
        return done
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        ledger.close()


def _run_child(run_functions, ledger: _Ledger, worker: int, write_fd: int) -> None:
    """In a forked child: send the rows of ``worker``'s claims, or the exception it raised, down the pipe, then exit."""
    status = 1
    try:
        try:
            message = (run_functions(ledger.claims(worker)), None)
        # the process boundary: whatever stops the worker, an interrupt included, goes to the parent
        except BaseException as exc:
            ledger.stop()  # before the message: no worker starts a function the failed pass would discard
            message = (None, (_picklable(exc), ledger.last, traceback.format_exc()))
        with open(write_fd, "wb") as fh:
            pickle.dump(message, fh, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _picklable(exc: BaseException) -> BaseException:
    """``exc`` itself if it survives pickling, else a RuntimeError naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # whatever stops the round trip, the stand-in carries the message
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


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


# The CSV report's columns; a JSON report row has these keys, and "trace" in detail mode.
_COLUMNS = (
    "inequality_id", "function_id", "worst_ratio", "worst_location", "constant_used", "tolerance",
    "pass", "status", "grid", "gradient_mode", "seed", "params",
)


def _report_row(report: CheckReport, seed) -> dict:
    row = report.to_dict()
    row["grid"] = report.params.get("grid")
    row["gradient_mode"] = report.params.get("gradient_mode")
    row["seed"] = seed
    return row


@lru_cache(maxsize=TGRID_CACHE_SIZE)  # a shared t column is a check's t-grid
def _t_reprs(column: bytes) -> tuple:
    """The reprs of a float64 t column, given as its bytes (so -0.0 and 0.0 stay apart)."""
    return tuple(repr(t) for t in memoryview(column).cast("d").tolist())


def _trace_text(report: CheckReport) -> str:
    """The report's trace as the JSON list of [t, lhs, rhs] lists that ``json.dumps`` writes.

    Both report formats are derived from this text, so each trace value is
    formatted once.  The text is cached on the report together with the trace
    it was made from, and made anew if ``report.trace`` is replaced.  Checks
    on one grid shape share their t column, so a column's reprs come from
    ``_t_reprs``.
    """
    trace = report.trace
    if report.trace_text is not None and report.trace_text[0] is trace:
        return report.trace_text[1]
    values = trace.ravel().tolist()
    values[0::3] = _t_reprs(trace[:, 0].tobytes())
    text = "[" + ("[%s, %r, %r], " * len(trace))[:-2] % tuple(values) + "]"
    if "n" in text:  # only the reprs inf, -inf and nan contain an "n"
        text = text.replace("inf", "Infinity").replace("nan", "NaN")
    report.trace_text = (trace, text)
    return text


def _json_row(encode, report: CheckReport, seed, detail: bool) -> str:
    """One report row as sort_keys JSON; a trace is spliced in between the other keys."""
    row = _report_row(report, seed)
    if not detail or report.trace is None:
        return encode(row)
    # a row always has keys on both sides of "trace" (constant_used, worst_ratio)
    before = encode({k: v for k, v in row.items() if k < "trace"})
    after = encode({k: v for k, v in row.items() if k > "trace"})
    return before[:-1] + ', "trace": ' + _trace_text(report) + ", " + after[1:]


def emit_report(
    reports: list[CheckReport], fmt: str, path, detail: bool = False, seed=None
) -> None:
    """Write the report list; JSON carries a summary block, CSV is row-per-check.

    The JSON document is one JSON object: its first line holds
    ``generated_at`` and ``summary``, then each report object sits on a line
    of its own.  In detail mode the JSON rows carry their per-t traces, and
    the CSV format writes an additional table with one (function,
    inequality, t, lhs, rhs) row per trace point next to the main one.

    A trace is formatted once, into the JSON list text cached on the report
    (``_trace_text``): the JSON writer splices it in as it is, and the trace
    table's lines are derived from it, byte for byte what ``json`` and
    ``csv.writer`` would write for the rows as lists.
    """
    path = Path(path)
    if path.parent and not path.parent.exists():
        raise FileNotFoundError(f"output directory {path.parent} does not exist")
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
                    fh.write((",\n" if i else "\n") + _json_row(encode, r, seed, detail))
                fh.write("\n]}\n")
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
            for r in reports:
                doc = _report_row(r, seed)
                doc["params"] = json.dumps(doc["params"], sort_keys=True)
                writer.writerow([doc[c] for c in _COLUMNS])
        if detail:
            trace_path = path.with_name(path.stem + "_trace" + path.suffix)
            # the id columns go through the csv module (quoting) once per
            # report and lead every line of the report's trace text
            key_buffer = io.StringIO()
            keys = csv.writer(key_buffer)
            with open(trace_path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(["function_id", "inequality_id", "t", "lhs", "rhs"])
                for r in reports:
                    if r.trace is None or not len(r.trace):
                        continue
                    keys.writerow([r.function_id, r.inequality_id, ""])
                    key = key_buffer.getvalue()[:-2]  # drop the "\r\n" row end
                    key_buffer.seek(0)
                    key_buffer.truncate()
                    # the numbers are rewritten before the ids are spliced in, so no id ever is;
                    # only Infinity and NaN hold capitals, and only the ", " separators hold spaces
                    body = _trace_text(r)[2:-2]
                    if "I" in body or "N" in body:
                        body = body.replace("Infinity", "inf").replace("NaN", "nan")
                    fh.write(key + body.replace(" ", "").replace("],[", "\r\n" + key) + "\r\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def load_report(path) -> list[CheckReport]:
    """Parse a JSON report document back into CheckReports."""

    def build(doc):
        rows = [json_object(row, "report row") for row in doc["reports"]]
        return [read_document(row, "report row", (*_COLUMNS, "trace"), CheckReport.from_dict) for row in rows]

    return read_document(path, "report", ("generated_at", "summary", "reports"), build)
