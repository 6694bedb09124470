"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) and then asserts.  Criterion 5 is implemented exactly as stated and is
expected to fail; the reason is quantified in its output: the realized
per-edge statistics at n = 200 do not inherit the expectation-level
separation between strongly corrupted and clean edges.

Criterion 2 checks the Monte Carlo mean inconsistency against a uniform base
with an independent quadrature through the arc-scan oracle, and the curve
(x + sin x) / 2 as an upper bound on it.  With the far arc endpoint e
uniform, P(d(p, e) > t) = (1 + cos t) / 2, so the curve is
E[min(x, d(p, e))], the mean distance to the nearer arc endpoint; it equals
the mean arc distance only at x = 0 and x = pi.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

import aabscreen
from aabscreen.aabstats import AABConfig, ir_aab, naive_aab
from aabscreen.evaluation import expectation_gap, label_edges, location_errors, roc_auc
from aabscreen.screening import ScreeningPolicy, filter_edges, solvable_component
from aabscreen.solvers import align_similarity, solve_irls_lud, solve_ls_spectral
from aabscreen.sphere import (
    aab_inconsistency_batch,
    aab_inconsistency_oracle,
    aab_oracle_batch,
)
from aabscreen.synthetic import UCParams, generate_uc
from aabscreen.verify import (
    aab_as_printed_batch,
    formula_vs_oracle,
    mc_estimate_f,
    reference_mean_inconsistency,
)

import per_draw_cache
from conftest import random_rotation, random_units, uniform_base_mean, unit
from test_evaluation import labels_of, stats_of


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def median_errors(graph, gt_locations):
    out = {}
    for name, solve in (("ls", solve_ls_spectral), ("irls", solve_irls_lud)):
        est = solve(graph)
        _, _, aligned = align_similarity(est, gt_locations)
        out[name] = location_errors(aligned, gt_locations)[1]
    return out


def test_criterion_1_formula_correctness():
    t0 = time.time()
    cmp_ = formula_vs_oracle(samples=100_000, oracle_steps=1_000_000, seed=101)

    # spot-check the fast batched oracle against the literal scan
    rng = np.random.default_rng(202)
    g1, g2, g3 = (random_units(rng, 8) for _ in range(3))
    batch = aab_oracle_batch(g3, g1, g2, 1_000_000)
    scan_gap = max(
        abs(batch[k] - aab_inconsistency_oracle(g3[k], g1[k], g2[k], 1_000_000))
        for k in range(8)
    )

    tri = (unit([-1, -1, 1]), unit([1, 0, 0]), unit([0, 1, 0]))
    oracle_tri = aab_inconsistency_oracle(*tri, steps=1_000_000)
    printed_tri = float(aab_as_printed_batch(tri[0][None], tri[1][None], tri[2][None])[0])
    printed_dev = abs(printed_tri - oracle_tri)

    ok = cmp_.max_abs_dev_corrected <= 1e-5 and printed_dev >= 0.2 and scan_gap <= 1e-9
    report(
        1,
        ok,
        f"max |formula - oracle| = {cmp_.max_abs_dev_corrected:.2e} over 1e5 triples "
        f"(<= 1e-5), as-printed deviation {printed_dev:.4f} (>= 0.2), "
        f"batched-vs-scan gap {scan_gap:.1e}, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_2_reference_curve_reproduction():
    # the quadrature's grid error is <= 2e-5 (test_verify), under 1/20 of the
    # smallest nonzero SE, so the 4-SE band is the Monte Carlo band alone
    t0 = time.time()
    rows = []
    all_ok = True
    for x in np.linspace(0.0, math.pi, 9):
        est = mc_estimate_f(float(x), samples=100_000, seed=303)
        quad = uniform_base_mean(float(x))
        ref = reference_mean_inconsistency(float(x))
        band = 4.0 * est.std_error
        ok = abs(est.value - quad) <= band and est.value <= ref + band
        all_ok &= ok
        rows.append(
            f"x={x:.3f}: est {est.value:.4f} quad {quad:.4f} ref {ref:.4f} "
            f"ref-est {ref - est.value:+.4f} se {est.std_error:.4f} {'ok' if ok else 'OFF'}"
        )
    report(
        2,
        all_ok,
        f"MC vs oracle quadrature and below (x+sinx)/2 at 9 points, 1e5 samples, "
        f"4 SE bands; {sum('OFF' in r for r in rows)} points off, {time.time() - t0:.0f}s",
    )
    for r in rows:
        print("   ", r)
    assert all_ok


def test_criterion_3_reweighted_statistic_regime():
    t0 = time.time()
    ir_aucs = []
    per_seed_ok = []
    for seed in range(5):
        g, gt = generate_uc(UCParams(n=200, p=0.5, q=0.2, sigma=0.0, seed=seed))
        labels = label_edges(g, gt, 0.0)
        cfg = AABConfig(seed=seed)
        auc_n = roc_auc(naive_aab(g, cfg), labels).auc
        auc_i = roc_auc(ir_aab(g, cfg), labels).auc
        ir_aucs.append(auc_i)
        per_seed_ok.append(auc_i >= auc_n)
    med = float(np.median(ir_aucs))
    ok = med >= 0.99 and all(per_seed_ok)
    report(
        3,
        ok,
        f"median IR-AAB AUC {med:.5f} (>= 0.99), IR >= naive on "
        f"{sum(per_seed_ok)}/5 seeds, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_4_auc_ordering_grid():
    t0 = time.time()
    cells = []
    all_ok = True
    for q in (0.2, 0.4, 0.6):
        for sigma in (0.0, 0.05, 0.1):
            naive_med, ir_med = [], []
            for seed in range(3):
                g, gt = generate_uc(UCParams(n=200, p=0.5, q=q, sigma=sigma, seed=seed))
                labels = label_edges(g, gt, sigma)
                cfg = AABConfig(seed=seed)
                naive_med.append(roc_auc(naive_aab(g, cfg), labels).auc)
                ir_med.append(roc_auc(ir_aab(g, cfg), labels).auc)
            a_n = float(np.median(naive_med))
            a_i = float(np.median(ir_med))
            ok = a_i >= a_n - 0.01
            all_ok &= ok
            cells.append(f"q={q} sigma={sigma}: naive {a_n:.4f} ir {a_i:.4f} {'ok' if ok else 'OFF'}")
    report(4, all_ok, f"IR >= naive - 0.01 in {sum('ok' in c for c in cells)}/9 cells, {time.time() - t0:.0f}s")
    for c in cells:
        print("   ", c)
    assert all_ok


def test_criterion_5_separation_of_strong_corruption():
    t0 = time.time()
    separated = []
    details = []
    for seed in range(5):
        g, gt = generate_uc(UCParams(n=200, p=0.5, q=0.1, sigma=0.0, seed=seed))
        stats = naive_aab(g, AABConfig(seed=seed))
        gap = expectation_gap(g, gt, stats, epsilon=0.2)
        separated.append(bool(gap.separated))
        # gt's flags are aligned with the generated graph's edge rows
        clean = stats.value[~gt.corrupted_flags]
        clean = clean[~np.isnan(clean)]
        details.append(
            f"seed {seed}: min_corr {gap.min_corrupted:.3f} max_clean {gap.max_clean:.3f}"
            f" clean mean {clean.mean():.3f} sd {clean.std():.3f}"
        )
    ok = sum(separated) >= 4
    report(5, ok, f"separated on {sum(separated)}/5 seeds (need >= 4), {time.time() - t0:.0f}s")
    for d in details:
        print("   ", d)
    assert ok


def test_criterion_6_screening_improves_solvers():
    t0 = time.time()
    wins = {"ls": 0, "irls": 0}
    gains = {"ls": [], "irls": []}
    for seed in range(10):
        g, gt = generate_uc(UCParams(n=100, p=0.5, q=0.3, sigma=0.05, seed=seed))
        stats = ir_aab(g, AABConfig(seed=seed))
        pruned = solvable_component(filter_edges(g, stats, ScreeningPolicy()), 2)
        before = median_errors(g, gt.locations)
        after = median_errors(pruned, gt.locations)
        for name in ("ls", "irls"):
            wins[name] += after[name] <= before[name]
            gains[name].append(before[name] - after[name])
    med_gain = {k: float(np.median(v)) for k, v in gains.items()}
    ok = (
        wins["ls"] >= 8
        and wins["irls"] >= 8
        and med_gain["irls"] < med_gain["ls"]
    )
    report(
        6,
        ok,
        f"screened <= unscreened: ls {wins['ls']}/10, irls {wins['irls']}/10; "
        f"median gain ls {med_gain['ls']:.4f} vs irls {med_gain['irls']:.4f} "
        f"(robust gains less), {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_7_invariant_suites():
    t0 = time.time()
    rng = np.random.default_rng(707)
    checks = {}

    # rotation / negation / base-symmetry invariances, 1000 cases each
    g1, g2, g3 = (random_units(rng, 1100) for _ in range(3))
    keep = np.einsum("ij,ij->i", g1, g2) ** 2 <= 1 - 1e-6
    g1, g2, g3 = g1[keep][:1000], g2[keep][:1000], g3[keep][:1000]
    base = aab_inconsistency_batch(g3, g1, g2)
    r = random_rotation(rng)
    checks["rotation"] = float(
        np.abs(aab_inconsistency_batch(g3 @ r.T, g1 @ r.T, g2 @ r.T) - base).max()
    ) <= 1e-9
    checks["negation"] = float(
        np.abs(aab_inconsistency_batch(-g3, -g1, -g2) - base).max()
    ) <= 1e-12
    checks["symmetry"] = float(
        np.abs(aab_inconsistency_batch(g3, g2, g1) - base).max()
    ) <= 1e-12

    # IR-AAB rounds against the per-draw reference, which normalizes each
    # edge's weights by their sum, and rate monotonicity
    g, _ = generate_uc(UCParams(n=60, p=0.5, q=0.3, sigma=0.05, seed=7))
    cfg = AABConfig(seed=7)
    ir = ir_aab(g, cfg)
    want = per_draw_cache.ir_per_iteration(
        per_draw_cache.build_cache(g, cfg), g.num_edges, cfg.T
    )
    kept = ~np.isnan(want)
    checks["weights"] = np.array_equal(np.isnan(ir.per_iteration), ~kept) and bool(
        np.all(np.abs(ir.per_iteration[kept] - want[kept]) <= 1e-12 * np.abs(want[kept]))
    )
    taus = ir.diagnostics.taus
    checks["rate"] = all(b > a for a, b in zip(taus, taus[1:]))

    # solver gauge invariants
    est = solve_ls_spectral(g)
    pts = est.locations.coords
    checks["gauge"] = (
        float(np.linalg.norm(pts.mean(axis=0))) <= 1e-9
        and abs(float((pts**2).sum()) - 1.0) <= 1e-9
    )

    # ROC invariance under strictly increasing transforms
    lattice = rng.integers(0, 21, size=150) / 20.0
    values = {(0, k): float(v) for k, v in enumerate(lattice, start=1)}
    corrupted = {e: bool(rng.random() < 0.4) for e in values}
    auc0 = roc_auc(stats_of(values), labels_of(corrupted)).auc
    checks["roc"] = all(
        abs(roc_auc(stats_of({e: float(f(v)) for e, v in values.items()}), labels_of(corrupted)).auc - auc0)
        <= 1e-12
        for f in (np.arctan, lambda x: x**3 + x, lambda x: 2.0 * x + 1.0)
    )

    ok = all(checks.values())
    report(7, ok, f"{', '.join(f'{k}={v}' for k, v in checks.items())}, {time.time() - t0:.0f}s")
    assert ok


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()

    # the stages run as fresh interpreters that must import this aabscreen
    src = os.path.dirname(os.path.dirname(aabscreen.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run_pipeline(tag: str, threads: str):
        env = dict(os.environ, AAB_THREADS=threads, PYTHONPATH=path)
        edges = tmp_path / f"edges-{tag}.txt"
        stats = tmp_path / f"stats-{tag}.csv"
        subprocess.run(
            [
                sys.executable, "-m", "aabscreen.cli", "generate",
                "--n", "120", "--p", "0.5", "--q", "0.2", "--sigma", "0.05",
                "--seed", "77", "--out-edges", str(edges),
                "--out-locations", str(tmp_path / f"locs-{tag}.txt"),
                "--out-labels", str(tmp_path / f"labels-{tag}.csv"),
            ],
            check=True, env=env, capture_output=True,
        )
        subprocess.run(
            [
                sys.executable, "-m", "aabscreen.cli", "screen",
                "--edges", str(edges), "--stat", "ir", "--seed", "77",
                "--out", str(stats),
            ],
            check=True, env=env, capture_output=True,
        )
        return edges.read_bytes(), stats.read_bytes()

    first = run_pipeline("a", "1")
    second = run_pipeline("b", "1")
    third = run_pipeline("c", "2")
    ok = first == second == third
    report(8, ok, f"generate+screen byte-identical across reruns and thread caps, {time.time() - t0:.0f}s")
    assert ok
