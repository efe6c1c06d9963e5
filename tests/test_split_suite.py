"""The suite pass split across CPUs: forked workers claim the corpus through a shared ledger.

Each test sets the CPU affinity that ``run_suite`` reads, so the serial path
and the forked path both run on any machine, whatever its core count.
"""

import csv
import functools
import json
import os
import signal
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symineq as sq
from symineq import inequalities, suite
from symineq.cli import main as cli_main
from symineq.suite import SuiteConfig, _Ledger

# seven functions: every worker count from 2 to 4 puts an O'Neil pair across a range's start
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


def _before_s_phi_p(monkeypatch, before):
    """Call ``before(pf)`` ahead of every s_phi_p check."""
    original = inequalities.CHECKERS["s_phi_p"]

    @functools.wraps(original)  # the suite reads the entry keys from the signature
    def wrapped(pf, **kwargs):
        before(pf)
        return original(pf, **kwargs)

    monkeypatch.setitem(inequalities.CHECKERS, "s_phi_p", wrapped)


def _raise_on(monkeypatch, grid, exc):
    """Make s_phi_p raise ``exc`` on the function whose grid is ``grid``."""

    def raising(pf):
        if pf.grid is grid:
            raise exc

    _before_s_phi_p(monkeypatch, raising)


def _wait_for(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def _log_lines(log: Path):
    """(pid, function id) per line of a log that several processes append to."""
    if not log.exists():
        return []
    return [(int(pid), fid) for pid, fid in (line.split() for line in log.read_text(encoding="utf-8").splitlines())]


def _append(log: Path, pid: int, function_id: str):
    with open(log, "a", encoding="utf-8") as fh:  # O_APPEND: each short line lands whole
        fh.write(f"{pid} {function_id}\n")


@st.composite
def claim_runs(draw):
    n = draw(st.integers(1, 40))
    workers = draw(st.integers(2, 4))
    order = draw(st.lists(st.integers(0, workers - 1), max_size=3 * n))
    return n, workers, order


@given(claim_runs())
@settings(max_examples=300, deadline=None)
def test_every_index_is_claimed_once_in_ascending_runs(run):
    n, workers, order = run
    ledger = _Ledger([(n * w // workers, n * (w + 1) // workers) for w in range(workers)])
    try:
        words = ledger.words
        streams = [ledger.claims(w) for w in range(workers)]
        claimed = [[] for _ in range(workers)]
        live = list(range(workers))
        # the drawn interleaving, then round robin until every worker is done
        turns = iter(order + [w for _ in range(n + 1) for w in range(workers)])
        while live:
            w = next(turns)
            if w not in live:
                continue
            remainders = [words[2 * v + 1] - words[2 * v] for v in range(workers)]
            i = next(streams[w], None)
            if i is None:
                assert remainders == [0] * workers  # done only when nothing is left anywhere
                live.remove(w)
            elif remainders[w]:
                assert i == claimed[w][-1] + 1 if claimed[w] else i == n * w // workers
                claimed[w].append(i)
            else:  # a steal: the back half, rounded up, of the largest remainder (all of a two), from its front
                largest = max(remainders)
                assert words[2 * w + 1] - i == (2 if largest == 2 else (largest + 1) // 2)
                claimed[w].append(i)
        assert sorted(i for c in claimed for i in c) == list(range(n))
    finally:
        ledger.close()


@pytest.mark.parametrize(
    "words, claimed, after",
    [
        # worker 0's range is used up and worker 1 runs 7 with 8 and 9 left: worker 0 takes both
        ([5, 5, 8, 10, 0], 8, [9, 10, 8, 8, 0]),
        # three left: the back two, rounded up from half
        ([5, 5, 7, 10, 0], 8, [9, 10, 7, 8, 0]),
        # one left: it goes
        ([5, 5, 9, 10, 0], 9, [10, 10, 9, 9, 0]),
        # four left: the back half
        ([5, 5, 6, 10, 0], 8, [9, 10, 6, 8, 0]),
        # nothing left anywhere, or the pass stopped
        ([5, 5, 10, 10, 0], None, [5, 5, 10, 10, 0]),
        ([0, 5, 5, 10, 1], None, [0, 5, 5, 10, 1]),
    ],
)
def test_a_remainder_of_two_is_taken_whole(words, claimed, after):
    """Split, a remainder of two gives the thief its back function, whose O'Neil pair re-prepares the front one's profile."""
    assert suite._claim(words, 0) == claimed
    assert words == after


class _SlowWords:
    """Claim words whose every store waits first, so a claim's reads and writes lie far apart."""

    def __init__(self, words):
        self.words = words

    def __len__(self):
        return len(self.words)

    def __getitem__(self, k):
        return self.words[k]

    def __setitem__(self, k, value):
        time.sleep(0.0002)
        self.words[k] = value


def test_concurrent_claims_lose_no_update(monkeypatch):
    """More claiming processes than CPUs on one ledger: a lost update would claim an index twice."""
    original = suite._claim
    monkeypatch.setattr(suite, "_claim", lambda words, worker: original(_SlowWords(words), worker))
    n, workers = 400, (os.cpu_count() or 1) + 2
    # one range holds every index, so every other worker starts by stealing
    ledger = _Ledger([(0, n)] + [(n, n)] * (workers - 1))
    go_read, go_write = os.pipe()
    readers, running = [], set()
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            pid = os.fork()
            if pid == 0:
                try:
                    os.read(go_read, 1)  # every process starts claiming at once
                    text = " ".join(str(i) for i in ledger.claims(w))
                    with open(write_fd, "wb") as fh:
                        fh.write(text.encode())
                finally:
                    os._exit(0)
            os.close(write_fd)
            running.add(pid)
        os.write(go_write, b"x" * workers)
        deadline = time.monotonic() + 60.0
        while running and time.monotonic() < deadline:
            running -= {pid for pid in running if os.waitpid(pid, os.WNOHANG)[0]}
            time.sleep(0.005)
        assert not running, "a claiming process did not finish"
        claims = [int(i) for reader in readers for i in reader.read().split()]
        assert sorted(claims) == list(range(n))
    finally:
        for reader in readers:
            reader.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(go_read)
        os.close(go_write)
        ledger.close()


def test_an_idle_worker_takes_over_the_back_of_a_busy_range(corpus, forks, monkeypatch, tmp_path):
    forks(1)
    serial = sq.run_suite(DETAIL, corpus)
    ids = {id(f): function_id for function_id, f in corpus}
    # the range of this process with two workers is functions 0..2
    caller, first, own = os.getpid(), corpus[0][0], {corpus[1][0], corpus[2][0]}
    log = tmp_path / "claims.log"

    def logged(pf):
        _append(log, os.getpid(), ids[id(pf.grid)])
        if os.getpid() == caller and ids[id(pf.grid)] == first:
            # hold function 0 until the child has run a function of this range
            _wait_for(lambda: any(pid != caller and fid in own for pid, fid in _log_lines(log)))

    _before_s_phi_p(monkeypatch, logged)
    fds = _open_fds()
    made = forks(2)
    split = sq.run_suite(DETAIL, corpus)
    assert len(made) == 1
    _assert_no_child_left(fds)
    runs = {}
    for pid, fid in _log_lines(log):
        runs.setdefault(fid, set()).add(pid)
    # every function ran in one process, and the child ran one of this process's range
    assert sorted(runs) == sorted(ids.values()) and all(len(pids) == 1 for pids in runs.values())
    assert any(runs[fid] != {caller} for fid in own)
    assert _emitted(split, tmp_path / "split") == _emitted(serial, tmp_path / "serial")


class _TwoArgs(Exception):
    """An exception whose pickled form cannot be loaded (its __init__ needs two arguments)."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize(
    "exc, expected, message",
    [
        (RuntimeError("the child's first function broke"), RuntimeError, "the child's first function broke"),
        (ZeroDivisionError("a zero in a worker"), ZeroDivisionError, "a zero in a worker"),
        (_TwoArgs("this", "that"), RuntimeError, "_TwoArgs: this and that"),
    ],
)
def test_an_exception_in_a_worker_reaches_the_caller(corpus, forks, monkeypatch, tmp_path, exc, expected, message):
    # with two workers the child's range starts at function 3; this process holds
    # function 0 until the child has reached it, so function 3 cannot be taken over
    caller, started = os.getpid(), tmp_path / "started"

    def raising(pf):
        if pf.grid is corpus[3][1]:
            started.touch()
            raise exc
        if pf.grid is corpus[0][1] and os.getpid() == caller:
            _wait_for(started.exists)

    _before_s_phi_p(monkeypatch, raising)
    fds = _open_fds()
    made = forks(2)
    with pytest.raises(expected, match=message) as info:
        sq.run_suite(DETAIL, corpus)
    assert len(made) == 1
    # the worker's own traceback comes along as the cause, naming the worker and its function
    assert f"in worker 1, running function 3 ({corpus[3][0]}):" in str(info.value.__cause__)
    assert "Traceback" in str(info.value.__cause__)
    _assert_no_child_left(fds)


def test_a_failing_child_stops_every_claim(corpus, forks, monkeypatch, tmp_path):
    """This process holds function 0 until the child, failing on function 3, has set the stop word.

    Without the stop word it would go on to claim every function left, the
    dead child's range included, before it read the child's pipe.
    """
    caller, log = os.getpid(), tmp_path / "log"
    ids = {id(f): function_id for function_id, f in corpus}
    stop = suite._Ledger.stop

    def logged_stop(ledger):
        stop(ledger)
        _append(log, os.getpid(), "stop")

    def raising(pf):
        _append(log, os.getpid(), ids[id(pf.grid)])
        if pf.grid is corpus[3][1]:
            # the child fails once this process is running function 0
            _wait_for(lambda: (caller, corpus[0][0]) in _log_lines(log))
            raise RuntimeError("the child's function broke")
        if pf.grid is corpus[0][1] and os.getpid() == caller:
            _wait_for(lambda: any(fid == "stop" for _, fid in _log_lines(log)))

    monkeypatch.setattr(suite._Ledger, "stop", logged_stop)
    _before_s_phi_p(monkeypatch, raising)
    fds = _open_fds()
    made = forks(2)
    with pytest.raises(RuntimeError, match="the child's function broke"):
        sq.run_suite(DETAIL, corpus)
    assert len(made) == 1
    _assert_no_child_left(fds)
    lines = _log_lines(log)
    stopped = next(i for i, (_, fid) in enumerate(lines) if fid == "stop")
    assert lines[stopped][0] != caller and (lines[stopped][0], corpus[3][0]) in lines[:stopped]
    # after the stop word this process only finished the function it was running
    assert {fid for pid, fid in lines[stopped:] if pid == caller} == {corpus[0][0]}
    assert {fid for pid, fid in lines if pid == caller} == {corpus[0][0]}


def test_the_sweeps_run_here_after_every_fork(corpus, forks, monkeypatch):
    forks(1)
    serial = sq.run_suite(DETAIL, corpus)
    calls = []
    original = suite.check_binomial_bounds

    def recording(**kwargs):
        calls.append((os.getpid(), len(made)))
        return original(**kwargs)

    monkeypatch.setattr(suite, "check_binomial_bounds", recording)
    made = forks(3)
    split = sq.run_suite(DETAIL, corpus)
    # one sweep, in this process, once both children were forked; its row keeps its place
    assert calls == [(os.getpid(), 2)]
    assert [r.to_dict() for r in split] == [r.to_dict() for r in serial]


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


# the middle cone is so tall that the integral of its profile overflows: the profile cannot be built
UNBUILDABLE = {
    "corpus": {
        "extents": 32,
        "side": 10.0,
        "families": [{"kind": "tensor_bump"}, {"kind": "cone", "height": 1.7e308}, {"kind": "multi_bump"}],
    },
}


def _cli_suite(tmp_path, config):
    """The exit code of ``symineq suite`` on ``config``, and the rows of its reports.csv."""
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = cli_main(["suite", "--config", str(config_file), "--out", str(out)])
    with open(out / "reports.csv", newline="", encoding="utf-8") as fh:
        return code, list(csv.DictReader(fh))


# the cone's values also overflow the squares and powers of other checks: those are input_error rows
# too, and no RuntimeWarning, which the tests' filter would raise
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_profile_that_cannot_be_built_gives_input_error_rows(forks, tmp_path, cpus):
    forks(cpus)
    code, rows = _cli_suite(tmp_path, UNBUILDABLE)
    assert code == 2
    cone = [r for r in rows if r["function_id"] == "cone_00"]
    assert len(cone) == 14 and all(r["status"].startswith("input_error") for r in cone)
    pairs = [r for r in rows if r["inequality_id"] == "oneil"]
    assert [r["function_id"] for r in pairs] == ["tensor_bump_00*cone_00", "cone_00*multi_bump_00"]
    assert all(r["status"] == "input_error: the integral of the profile must be finite" for r in pairs)
    # the neighbours' own rows are untouched
    assert all(r["status"] == "ok" for r in rows if r["function_id"] in ("tensor_bump_00", "multi_bump_00", "-"))


# finite cone values whose gradient modulus, f^r or the L^2 norm of f overflows: those rows (1 at
# height 1e110, 12 at 1e155, 9 of them the modulus and 1 the chain rule's f^2) name the overflow,
# not the domain boundary
@pytest.mark.parametrize("height, overflowing, modulus", [(1e110, 1, 1), (1e155, 12, 9)])
def test_an_overflowing_gradient_modulus_is_named_in_its_rows(forks, tmp_path, height, overflowing, modulus):
    forks(2)
    families = [{"kind": "cone", "height": height}, {"kind": "tensor_bump"}]
    code, rows = _cli_suite(tmp_path, {"corpus": {"extents": 32, "side": 10.0, "families": families}})
    assert code == 2
    failed = [r for r in rows if r["status"] != "ok"]
    assert all(r["function_id"] == "cone_00" and r["status"].startswith("input_error") for r in failed)
    assert not any("domain boundary" in r["status"] for r in failed)
    named = [r["status"] for r in failed if "overflows a float" in r["status"]]
    assert len(named) == overflowing
    assert named.count("input_error: the gradient modulus overflows a float: malformed input") == modulus


# at 24^3 and side 10 the cone's gradient modulus is finite but its L^3 norm overflows, and sobolev_exp
# read inf / inf; at side 1e6 the gradient norm is finite and the oscillation integral overflows
@pytest.mark.parametrize(
    "side, height, status",
    [
        (10.0, 1e110, "input_error: function whose L^3 norm overflows a float: malformed input"),
        (1e6, 1e95, "input_error: the left side of sobolev_exp overflows a float: malformed input"),
    ],
    ids=["gradient-norm", "oscillation"],
)
def test_an_overflowing_sobolev_side_is_an_input_error_not_an_inf_ratio(forks, tmp_path, side, height, status):
    forks(1)
    families = [{"kind": "cone", "height": height}, {"kind": "tensor_bump"}]
    corpus = {"dim": 3, "extents": 24, "side": side, "families": families}
    config = {"inequalities": [{"id": "sobolev_exp"}], "corpus": corpus}
    code, rows = _cli_suite(tmp_path, config)
    assert code == 2
    assert [(r["function_id"], r["status"]) for r in rows] == [("cone_00", status), ("tensor_bump_00", "ok")]
