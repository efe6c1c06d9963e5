"""Smoke test of the benchmark itself, on the sub-second `smoke` workload.

Not part of the tier-1 suite (pytest's testpaths is tests/).  Run with

    python3 -m pytest -q perfbench/test_smoke.py
"""

import gzip
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "smoke", "--seed", "0", "--seconds", "1", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_emits_every_end_to_end_metric():
    proc, result = _run("--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert "failed_frac 0 " in proc.stdout
    assert "recorded reference" in proc.stdout


def test_traced_run_emits_every_per_layer_metric():
    proc, result = _run("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["measure.mass_builds"]["value"] > 0
    assert result["metrics"]["inequalities.oneil.calls"]["value"] > 0


def test_gate_fails_rows_that_differ_from_the_reference(tmp_path):
    with gzip.open(BENCH_DIR / "reference" / "smoke.json.gz", "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    row = next(v for v in doc["seeds"]["0"] if v[2])
    row[2] *= 1.0 + 1e-6
    perturbed = tmp_path / "smoke.json.gz"
    with gzip.open(perturbed, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)

    proc, result = _run("--trace", "0", "--reference", str(perturbed))
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] > 0
    assert "failed_frac 0 " not in proc.stdout
    assert "differs from reference" in proc.stdout
