"""Benchmark workloads: the corpus each named workload runs the default suite over.

This module imports only the standard library, so the set-up timer can start
before numpy, scipy or symineq are loaded.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_DIR = BENCH_DIR / "reference"

# Each workload is a CorpusSpec document (seed added per run) plus the suite's
# detail flag.  Every workload runs the default inequality list.
WORKLOADS = {
    # 10 functions of 512x512 cells: few large functions, so the per-call
    # argsort in MassFunction dominates.
    "large_2d": {"corpus": {"dim": 2, "extents": 512}, "detail": False},
    # The same families and the same 262,144 cells per function in 3-d: any
    # difference from large_2d comes from the dimension alone.
    "volume_3d": {"corpus": {"dim": 3, "extents": 64}, "detail": False},
    # 157 functions of 64x64 cells with per-t traces: sorting is cheap, so
    # per-call fixed costs and the report write path dominate.
    "many_small_2d": {
        "corpus": {
            "dim": 2,
            "extents": 64,
            "families": [
                {"kind": "cone", "count": 8},
                {"kind": "tensor_bump", "count": 48},
                {"kind": "mollified_disk", "eps_ladder": [0.2, 0.15, 0.1, 0.075, 0.05]},
                {"kind": "smoothed_noise", "count": 48, "radius": 2},
                {"kind": "multi_bump", "count": 48},
            ],
        },
        "detail": True,
    },
    # Not listed in BENCHMARK.json: a sub-second corpus for the smoke test.
    "smoke": {
        "corpus": {
            "dim": 2,
            "extents": 48,
            "families": [
                {"kind": "cone"},
                {"kind": "tensor_bump"},
                {"kind": "mollified_disk", "eps_ladder": [0.2, 0.1]},
                {"kind": "smoothed_noise", "radius": 2},
                {"kind": "multi_bump"},
            ],
        },
        "detail": True,
    },
}


def corpus_doc(workload: str, seed: int) -> dict:
    """CorpusSpec.from_json document for a workload at a seed."""
    return dict(WORKLOADS[workload]["corpus"], seed=seed)


def use_checkout_source() -> None:
    """Make `import symineq` load the package from this checkout's src/."""
    sys.path.insert(0, str(SRC))


def loaded_from_checkout(module) -> bool:
    return Path(module.__file__).resolve().is_relative_to(SRC)
