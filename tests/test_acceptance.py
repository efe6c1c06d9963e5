"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import json
import math
import time

import numpy as np
import pytest

import symineq as sq
from symineq.inequalities import InequalityParams
from symineq.isoperimetry import disk_mask, indicator_mollify
from symineq.suite import SuiteConfig

from conftest import random_mass_function


def record(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def disk_ladder_512():
    h = 1.0 / 512
    out = []
    for eps in (0.2, 0.1, 0.05):
        mask = disk_mask((512, 512), h, (0.5, 0.5), 0.25)
        out.append(indicator_mollify(mask, h, eps))
    return out


def test_c01_binomial_sweep_zero_violations():
    start = time.perf_counter()
    worst = 0.0
    for p in (1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.7):
        report = sq.check_binomial_bounds(p, a_max=20.0, grid_points=400, tolerance=1e-10)
        worst = max(worst, report.worst_ratio - 1.0)
        assert report.passed, (p, report.worst_ratio)
    elapsed = time.perf_counter() - start
    record(
        "C1",
        worst <= 1e-10 and elapsed < 2.0,
        f"worst relative violation {worst:.2e}, runtime {elapsed:.2f}s (< 2s)",
    )


def test_c02_p2_binomial_identity_exact():
    report = sq.check_binomial_bounds(2.0, a_max=20.0, grid_points=400)
    slack = report.params["max_abs_slack_part1"]
    record("C2", slack <= 1e-12, f"max |slack| {slack:.2e} over the 400x400 lattice")


def test_c03_layer_cake_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(200):
        mf = random_mass_function(rng, max_atoms=1000)
        lams = rng.uniform(0.0, mf.max_value * 1.05 + 1e-6, 100)
        for lam in lams:
            lhs = sq.layer_cake_excess(mf, lam)
            rhs = _tail_integral(mf, lam)
            if i < 2:  # the summed steps are the step loop's terms
                assert rhs == pytest.approx(_tail_integral_loop(mf, lam), rel=1e-12, abs=0.0)
            scale = max(1e-12, abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
    record("C3", worst <= 1e-12, f"worst relative deviation {worst:.2e}")


def _tail_integral(mf, lam):
    # independent route: integrate the explicit distribution-function steps
    # over (lam, max], reading the distribution at each step's lower end
    ascending = mf.values[::-1]
    tops = ascending[ascending > lam]
    lows = np.concatenate(([lam], tops))[:-1]
    above = ascending.size - np.searchsorted(ascending, lows, side="right")
    return float(np.sum(mf.cum_masses[above - 1] * (tops - lows)))


def _tail_integral_loop(mf, lam):
    # the same steps one atom at a time, through the public distribution function
    total = 0.0
    lo = lam
    for v in mf.values[::-1]:
        if v <= lam:
            continue
        total += sq.distribution(mf, lo) * (v - lo)
        lo = v
    return total


def test_c04_p1_reduction_matches_direct_form(default_corpus, phi_euclid_2d):
    worst = 0.0
    params = InequalityParams(p=1.0)
    for cid, f in default_corpus:
        report = sq.check_oscillation_p(f, phi_euclid_2d, params, capture_trace=True)
        prof = sq.decreasing_rearrangement(sq.grid_to_mass(f))
        grad = sq.decreasing_rearrangement(
            sq.grid_to_mass(sq.metric_gradient_modulus(f))
        )
        t = np.array([row[0] for row in report.trace])
        lhs = np.array([row[1] for row in report.trace])
        rhs = np.array([row[2] for row in report.trace])
        direct_lhs = sq.maximal_average(prof, t) - prof.value(t)
        direct_rhs = phi_euclid_2d(t) * sq.maximal_average(grad, t)
        ratio = np.where(rhs > 0, lhs / rhs, 0.0)
        direct = np.where(direct_rhs > 0, direct_lhs / direct_rhs, 0.0)
        scale = np.maximum(np.abs(direct), 1e-12)
        worst = max(worst, float(np.max(np.abs(ratio - direct) / scale)))
    record("C4", worst <= 1e-12, f"worst pointwise deviation {worst:.2e}")


def test_c05_cone_oracle_numbers(cone512, phi_euclid_2d):
    mass = sq.grid_to_mass(cone512)
    norm1 = sq.lp_norm(mass, 1)
    grad1 = sq.lp_norm(sq.grid_to_mass(sq.metric_gradient_modulus(cone512)), 1)
    prof = sq.decreasing_rearrangement(mass)
    weak_sup = float(np.max(prof.levels * prof.breakpoints[1:] ** 0.5))
    ratio = sq.check_s_phi_p(
        cone512, phi_euclid_2d, InequalityParams(p=1.0)
    ).worst_ratio

    ok_norm1 = abs(norm1 - math.pi / 3) / (math.pi / 3) <= 0.01
    ok_grad1 = abs(grad1 - math.pi) / math.pi <= 0.01
    ok_weak = abs(weak_sup - math.sqrt(math.pi) / 4) / (math.sqrt(math.pi) / 4) <= 0.02
    ok_ratio = abs(ratio - 2 / 3) / (2 / 3) <= 0.02
    record(
        "C5",
        ok_norm1 and ok_grad1 and ok_weak and ok_ratio,
        f"||f||_1={norm1:.5f} (pi/3={math.pi/3:.5f}), "
        f"||grad f||_1={grad1:.5f} (pi={math.pi:.5f}), "
        f"sup sqrt(t) f*={weak_sup:.5f} (sqrt(pi)/4={math.sqrt(math.pi)/4:.5f}), "
        f"support-measure ratio={ratio:.5f} (2/3={2/3:.5f})",
    )


def test_c06_theorem_chain_on_corpus(default_corpus, phi_euclid_2d):
    start = time.perf_counter()
    failures = []
    for p in (1.0, 1.5, 2.0, 3.0):
        params = InequalityParams(p=p)
        limit = params.oscillation_constant * 1.05 * 1.05
        for cid, f in default_corpus:
            s = sq.check_s_phi_p(f, phi_euclid_2d, params)
            if s.worst_ratio > 1.05:
                continue
            o = sq.check_oscillation_p(f, phi_euclid_2d, params)
            if o.worst_ratio > limit:
                failures.append((p, cid, "oscillation", o.worst_ratio, limit))
            d = sq.check_derivative_p(f, phi_euclid_2d, params)
            if not d.passed:
                failures.append((p, cid, "derivative", d.worst_ratio, d.constant_used))
    elapsed = time.perf_counter() - start
    record(
        "C6",
        not failures and elapsed < 60.0,
        f"{4 * len(default_corpus)} chain cells, failures={failures or 'none'}, "
        f"runtime {elapsed:.1f}s (< 60s)",
    )


def test_c07_polya_szego_extremals(cone512, tent4096):
    cone_report = sq.polya_szego_compare(cone512, 1.0, weight="isoperimetric")
    tent_report = sq.polya_szego_compare(tent4096, 2.0, weight="bare_power")
    ok_cone = abs(cone_report.worst_ratio - 1.0) <= 0.02
    ok_tent = abs(tent_report.worst_ratio - 0.5) / 0.5 <= 0.02
    record(
        "C7",
        ok_cone and ok_tent,
        f"radial cone ratio={cone_report.worst_ratio:.4f} (1 +/- 2%, isoperimetric "
        f"weight), tent ratio={tent_report.worst_ratio:.4f} (0.5 +/- 2%, bare weight)",
    )


def test_c08_morrey_averaged_bound(tent4096):
    report = sq.check_sobolev(tent4096, 2.0, "morrey")
    drop = report.params["ess_sup"] - report.params["mean"]
    grad2 = sq.lp_norm(sq.grid_to_mass(sq.metric_gradient_modulus(tent4096)), 2)
    bound = 2.0 * grad2
    ok_drop = abs(drop - 0.25) / 0.25 <= 0.01
    ok_bound = abs(bound - 2.0) / 2.0 <= 0.01
    record(
        "C8",
        ok_drop and ok_bound and report.passed,
        f"f**(0+)-f**(1)={drop:.5f} (0.25 +/- 1%), bound 2||grad f||_2={bound:.5f} "
        f"(2 +/- 1%), pass={report.passed}",
    )


def test_c09_sharpness_trend(disk_ladder_512, phi_euclid_2d):
    params = InequalityParams(p=1.0)
    ratios = [
        sq.check_s_phi_p(f, phi_euclid_2d, params).worst_ratio
        for f in disk_ladder_512
    ]
    increasing = ratios[0] < ratios[1] < ratios[2]
    bounded = max(ratios) <= 1.05
    record(
        "C9",
        increasing and bounded,
        f"mollified-disk ratios {[round(r, 4) for r in ratios]} "
        f"monotone={increasing}, all <= 1.05",
    )


def test_c10_suite_determinism(tmp_path):
    config = SuiteConfig(corpus=sq.CorpusSpec(seed=0, extents=128))
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
            (json.dumps(doc, sort_keys=True).encode(), (out / "reports.csv").read_bytes())
        )
    ok = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
    record("C10", ok, "two full-suite runs byte-identical modulo the timestamp header")
