"""Suite benchmark: time `run_suite` plus report emission, and gate every verdict.

Usage (from the repository root):

    python3 perfbench/run.py --workload large_2d --seed 0 --seconds 32 --trace 0

One run is a single closed-loop process: it generates the workload's corpus
from the seed, then repeats suite passes (``run_suite`` and ``emit_report``
for JSON and CSV, as ``symineq suite`` does) until the next pass would end
past ``--seconds``.  Every pass goes through the verdict gate (gate.py).

``--trace 0`` reports the end-to-end metrics; set-up is sampled in this
process and in fresh probe processes (probe.py).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (tracer.py);
spans go to ``.perfbench_out/<workload>/spans.csv``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 if every row passed the gate, 1 if not, and 2 if
the program cannot be loaded from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

from gate import Gate, digest, emitted_rows, expected_ids, load_reference, record_reference, verdict_rows
from workloads import (
    BENCH_DIR,
    OUT_DIR,
    REFERENCE_DIR,
    WORKLOADS,
    corpus_doc,
    loaded_from_checkout,
    use_checkout_source,
)

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 30


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", help="reference file (default: perfbench/reference/<workload>.json.gz)")
    ap.add_argument("--record", action="store_true", help="run one pass and record its rows as the seed's reference")
    return ap.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _file_bytes(*paths) -> int:
    return sum(p.stat().st_size for p in paths if p.exists())


class Runner:
    """One workload's corpus and config, and the suite pass over them."""

    def __init__(self, symineq, workload: str, seed: int, corpus, spec):
        self.sq = symineq
        self.workload = workload
        self.seed = seed
        self.corpus = corpus
        self.config = symineq.SuiteConfig(corpus=spec, detail=WORKLOADS[workload]["detail"])
        self.out = OUT_DIR / workload
        self.out.mkdir(parents=True, exist_ok=True)

    def suite_pass(self, tracer=None):
        """(reports, seconds) of run_suite plus both report formats."""
        sq, detail, seed = self.sq, self.config.detail, self.seed
        json_path, csv_path = self.out / "reports.json", self.out / "reports.csv"
        trace_path = self.out / "reports_trace.csv"
        start = time.perf_counter()
        if tracer is None:
            reports = sq.run_suite(self.config, self.corpus)
            sq.emit_report(reports, "json", json_path, detail=detail, seed=seed)
            sq.emit_report(reports, "csv", csv_path, detail=detail, seed=seed)
        else:
            with tracer.installed():
                reports = tracer.call("suite.run_suite", sq.run_suite, (self.config, self.corpus))
                for fmt, paths in (("json", (json_path,)), ("csv", (csv_path, trace_path) if detail else (csv_path,))):
                    tracer.call(
                        "suite.emit_report",
                        sq.emit_report,
                        (reports, fmt, paths[0]),
                        {"detail": detail, "seed": seed},
                        info=lambda a, k, r, paths=paths: _file_bytes(*paths),
                    )
        return reports, time.perf_counter() - start

    def emitted(self):
        return emitted_rows(self.out / "reports.json", self.out / "reports.csv")


def _measure(runner, gate, seconds, kinds):
    """Cycle through pass kinds until the next cycle would end past `seconds`.

    `kinds` is a tuple of callables returning a tracer or None; each cycle
    runs one pass of each.  Returns {kind index: [seconds per pass]}.
    """
    times = {i: [] for i in range(len(kinds))}
    cycles = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for i, make_tracer in enumerate(kinds):
            gc.collect()  # start every pass from the same heap, as a fresh process would
            reports, elapsed = runner.suite_pass(make_tracer())
            times[i].append(elapsed)
            gate.check_pass(verdict_rows(reports), runner.emitted())
            del reports
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return times


def main(argv=None) -> int:
    args = _parse(argv)
    use_checkout_source()
    start = time.perf_counter()
    try:
        import symineq
    except ImportError as exc:
        print(f"cannot import symineq from this checkout: {exc}", file=sys.stderr)
        return 2
    if not loaded_from_checkout(symineq):
        print(f"symineq loaded from {symineq.__file__}, not from this checkout", file=sys.stderr)
        return 2
    spec = symineq.CorpusSpec.from_json(corpus_doc(args.workload, args.seed))
    gen_start = time.perf_counter()
    corpus = symineq.generate_corpus(spec)
    gen_end = time.perf_counter()
    own_setup = gen_end - start

    runner = Runner(symineq, args.workload, args.seed, corpus, spec)
    ref_path = args.reference or REFERENCE_DIR / f"{args.workload}.json.gz"
    function_ids = [fid for fid, _ in corpus]
    expected = expected_ids(runner.config.inequalities, function_ids)
    reference = None if args.record else load_reference(ref_path, args.seed)
    gate = Gate(expected, reference)
    if args.record:
        return _record(runner, gate, ref_path, args.seed)

    if args.trace:
        metrics = _traced_run(runner, gate, args.seconds, corpus, gen_end - gen_start)
    else:
        setup = [own_setup] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        suite_s = _measure(runner, gate, args.seconds, (lambda: None,))[0]
        median_s = statistics.median(suite_s)
        rows = len(expected)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "suite_s": (median_s, "s"),
            "checks_per_s": (rows / median_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"# setup samples: {len(setup)}, suite passes: {len(suite_s)}, rows per pass: {rows}")
        print(f"# suite_s per pass: {', '.join(f'{t:.3f}' for t in suite_s)}")

    ref_note = "recorded reference" if reference is not None else "no recorded reference for this seed"
    print(f"# workload {args.workload} seed {args.seed}: verdict digest {digest(gate.first)} ({ref_note})")
    for problem in gate.problems:
        print(f"# gate: {problem}")
    print(f"failed_frac {gate.failed_frac:.6g} ratio  ({gate.failed}/{gate.attempted} rows)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = gate.failed == 0
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _traced_run(runner, gate, seconds, corpus, generate_s):
    from tracer import PER_LAYER_UNITS, Tracer, layer_metrics, median_metrics

    tracers = []

    def traced():
        tracers.append(Tracer(runner.workload))
        return tracers[-1]

    times = _measure(runner, gate, seconds, (lambda: None, traced))
    per_pass = [layer_metrics(t.spans) for t in tracers]
    values = median_metrics(per_pass)
    values["corpus.generate_s"] = generate_s
    values["corpus.functions"] = len(corpus)
    values["corpus.cells"] = sum(f.values.size for _, f in corpus)
    values["suite.rows"] = len(gate.expected)
    values["trace.overhead_s"] = statistics.median(times[1]) - statistics.median(times[0])
    spans_path = runner.out / "spans.csv"
    for i, tracer in enumerate(tracers):
        tracer.write_csv(spans_path, i, append=i > 0)
    print(f"# traced passes: {len(tracers)}, untraced passes: {len(times[0])}, spans: {spans_path}")
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def _record(runner, gate, ref_path, seed) -> int:
    reports, _ = runner.suite_pass()
    rows = verdict_rows(reports)
    gate.check_pass(rows, runner.emitted())
    if gate.failed:
        print("\n".join(gate.problems), file=sys.stderr)
        return 1
    record_reference(ref_path, seed, rows)
    print(f"recorded {len(rows)} rows for seed {seed} in {ref_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
