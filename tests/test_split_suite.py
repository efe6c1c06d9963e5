"""The suite pass split across CPUs: forked workers run contiguous corpus chunks.

Each test sets the CPU affinity that ``run_suite`` reads, so the serial path
and the forked path both run on any machine, whatever its core count.
"""

import functools
import json
import os
from pathlib import Path

import pytest

import symineq as sq
from symineq import inequalities
from symineq.suite import SuiteConfig

# seven functions: every chunk count from 2 to 4 puts an O'Neil pair across a cut
SPEC = sq.CorpusSpec.from_json({
    "seed": 2,
    "extents": 32,
    "families": [
        {"kind": "cone"},
        {"kind": "tensor_bump", "count": 2},
        {"kind": "mollified_disk", "eps_ladder": [0.2, 0.1]},
        {"kind": "smoothed_noise", "radius": 2},
        {"kind": "multi_bump"},
    ],
})
DETAIL = SuiteConfig(corpus=SPEC, detail=True)


@pytest.fixture(scope="module")
def corpus():
    return sq.generate_corpus(SPEC)


@pytest.fixture
def forks(monkeypatch):
    """Sets the CPU count run_suite sees; the list counts the forks made by this process."""
    made = []
    fork = os.fork

    def counting_fork():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def use_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        made.clear()
        return made

    return use_cpus


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _assert_no_child_left(fds_before):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds_before


def _emitted(reports, out: Path):
    out.mkdir()
    sq.emit_report(reports, "json", out / "reports.json", detail=True, seed=SPEC.seed)
    sq.emit_report(reports, "csv", out / "reports.csv", detail=True, seed=SPEC.seed)
    doc = json.loads((out / "reports.json").read_text(encoding="utf-8"))
    stamp = doc["generated_at"]
    text = (out / "reports.json").read_text(encoding="utf-8")
    assert text.count(stamp) == 1
    return text.replace(stamp, ""), (out / "reports.csv").read_bytes(), (out / "reports_trace.csv").read_bytes()


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_reports_are_byte_identical_to_the_serial_pass(corpus, forks, tmp_path, cpus):
    made = forks(1)
    serial = sq.run_suite(DETAIL, corpus)
    assert made == []
    fds = _open_fds()
    made = forks(cpus)
    split = sq.run_suite(DETAIL, corpus)
    assert len(made) == cpus - 1
    _assert_no_child_left(fds)
    ids = [function_id for function_id, _ in corpus]
    pairs = [r.function_id for r in split if r.inequality_id == "oneil"]
    assert pairs == [f"{a}*{b}" for a, b in zip(ids, ids[1:])]
    written = _emitted(split, tmp_path / "split")
    assert written == _emitted(serial, tmp_path / "serial")
    assert written[2].count(b"\r\n") > 1000


def test_traces_arrive_formatted_and_paired_with_their_arrays(corpus, forks):
    forks(2)
    reports = sq.run_suite(DETAIL, corpus)
    traced = [r for r in reports if r.trace is not None]
    assert traced
    for report in traced:
        assert report.trace_text is not None and report.trace_text[0] is report.trace


def _raise_on(monkeypatch, grid, exc):
    """Make s_phi_p raise ``exc`` on the function whose grid is ``grid``."""
    original = inequalities.CHECKERS["s_phi_p"]

    @functools.wraps(original)  # the suite reads the entry keys from the signature
    def raising(pf, **kwargs):
        if pf.grid is grid:
            raise exc
        return original(pf, **kwargs)

    monkeypatch.setitem(inequalities.CHECKERS, "s_phi_p", raising)


class _TwoArgs(Exception):
    """An exception whose pickled form cannot be loaded (its __init__ needs two arguments)."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize(
    "exc, expected, message",
    [
        (RuntimeError("the last function broke"), RuntimeError, "the last function broke"),
        (ZeroDivisionError("a zero in a worker"), ZeroDivisionError, "a zero in a worker"),
        (_TwoArgs("this", "that"), RuntimeError, "_TwoArgs: this and that"),
    ],
)
def test_an_exception_in_a_worker_reaches_the_caller(corpus, forks, monkeypatch, exc, expected, message):
    _raise_on(monkeypatch, corpus[-1][1], exc)
    fds = _open_fds()
    made = forks(2)
    with pytest.raises(expected, match=message) as info:
        sq.run_suite(DETAIL, corpus)
    assert len(made) == 1
    # the worker's own traceback comes along as the cause
    assert "in the worker for functions 3..6" in str(info.value.__cause__)
    assert "Traceback" in str(info.value.__cause__)
    _assert_no_child_left(fds)


def test_a_value_error_in_a_worker_is_an_input_error_row_as_in_one_process(corpus, forks, monkeypatch):
    _raise_on(monkeypatch, corpus[-1][1], ValueError("not this one"))
    forks(1)
    serial = sq.run_suite(DETAIL, corpus)
    forks(3)
    split = sq.run_suite(DETAIL, corpus)
    rows = [r.to_dict() for r in split]
    assert rows == [r.to_dict() for r in serial]
    # one row per s_phi_p entry of the default config (p = 1 and p = 2)
    assert sum(row["status"] == "input_error: not this one" for row in rows) == 2


@pytest.mark.parametrize("exc", [RuntimeError("the first function broke"), KeyboardInterrupt()])
def test_an_exception_here_kills_and_reaps_every_worker(corpus, forks, monkeypatch, exc):
    # the first function is in the chunk this process runs
    _raise_on(monkeypatch, corpus[0][1], exc)
    fds = _open_fds()
    made = forks(4)
    with pytest.raises(type(exc)):
        sq.run_suite(DETAIL, corpus)
    assert len(made) == 3
    _assert_no_child_left(fds)


def test_a_worker_leaves_this_process_buffers_unflushed(corpus, forks, tmp_path):
    forks(3)
    log = tmp_path / "log.txt"
    with open(log, "w", encoding="utf-8") as fh:
        fh.write("written once\n")  # still in the buffer when the workers fork
        sq.run_suite(SuiteConfig(corpus=SPEC), corpus)
    assert log.read_text(encoding="utf-8") == "written once\n"


def test_no_more_workers_than_functions(corpus, forks):
    made = forks(8)
    one = SuiteConfig(corpus=SPEC, inequalities=({"id": "s_phi_p"}, {"id": "oneil"}))
    assert len(sq.run_suite(one, corpus[:1])) == 1
    assert made == []
    reports = sq.run_suite(one, corpus[:2])
    assert len(made) == 1
    assert [r.function_id for r in reports] == [corpus[0][0], corpus[1][0], f"{corpus[0][0]}*{corpus[1][0]}"]
