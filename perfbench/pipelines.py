"""One instance of each workload kind, its output checks, and the traced
decomposition calls.

An instance runs the workload's pipeline inside a ``pipeline`` span whose
children are the layer calls.  In a traced run the benchmark then repeats
the remaining layers' work on the same inputs, outside the pipeline span,
so that every per-layer metric is measured on every workload.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from aabscreen.aabstats import AABConfig, EdgeStatistics, ir_aab, naive_aab
from aabscreen.evaluation import label_edges, location_errors, roc_auc
from aabscreen.fileio import (
    parse_edge_list,
    parse_locations,
    parse_statistics,
    write_edge_list,
    write_statistics,
)
from aabscreen.graph import ViewGraph
from aabscreen.screening import ScreeningPolicy, filter_edges, solvable_component
from aabscreen.solvers import (
    LocationEstimate,
    align_similarity,
    solve_irls_lud,
    solve_ls_spectral,
)
from aabscreen.sphere import aab_inconsistency_batch
from aabscreen.streams import TAG_TRIPLES, edge_rng
from aabscreen.synthetic import GroundTruth, UCParams, generate_uc

SOLVERS = {"solve_ls_spectral": solve_ls_spectral, "solve_irls_lud": solve_irls_lud}
CLI_SOLVER = {"solve_ls_spectral": "ls", "solve_irls_lud": "irls"}

# Computed, not measured: three float64 3-vectors in, one float64 out.
KERNEL_BYTES_PER_TRIANGLE = 3 * 3 * 8 + 8


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    p: float
    q: float
    sigma: float
    s: int
    T: int
    keep_fraction: float
    min_degree: int
    verify_samples: int
    solver: str
    stated_m: int
    quality_instances: int

    @property
    def policy(self) -> ScreeningPolicy:
        return ScreeningPolicy(keep_fraction=self.keep_fraction, min_degree=self.min_degree)

    def uc(self, seed: int) -> UCParams:
        return UCParams(n=self.n, p=self.p, q=self.q, sigma=self.sigma, seed=seed)

    def aab(self, seed: int) -> AABConfig:
        return AABConfig(s=self.s, T=self.T, seed=seed)


@dataclass
class Parts:
    """What one library pipeline produced, kept for the traced decomposition."""

    g: ViewGraph
    gt: GroundTruth
    stats: EdgeStatistics
    est: LocationEstimate
    pruned: ViewGraph
    ir_rec: dict | None


@dataclass
class Outcome:
    seconds: float
    one_minus_auc: float
    loc_err_median: float
    peak_rss_mb: float | None = None


# -- checks --------------------------------------------------------------------


def check_statistics(g: ViewGraph, stats) -> None:
    """Every edge covered exactly once; supported values finite in [0, pi]."""
    edges = g.edges()
    supported = set(stats.values)
    if list(stats.edges) != edges:
        raise CheckFailed("statistics edge list differs from the graph's")
    if supported & stats.unsupported or len(supported) + len(stats.unsupported) != len(edges):
        raise CheckFailed("statistics do not cover every edge exactly once")
    if supported | stats.unsupported != set(edges):
        raise CheckFailed("statistics cover edges that are not in the graph")
    vals = np.fromiter(stats.values.values(), dtype=np.float64, count=len(supported))
    if not (np.isfinite(vals).all() and vals.min() >= 0.0 and vals.max() <= np.pi):
        raise CheckFailed("a supported statistic is not finite or lies outside [0, pi]")


def check_locations(locations) -> None:
    arr = np.array(list(locations.values()), dtype=np.float64)
    if arr.size == 0 or not np.isfinite(arr).all():
        raise CheckFailed("a solved location is not finite")


def check_auc(one_minus_auc: float) -> None:
    if not one_minus_auc < 0.5:
        raise CheckFailed(f"1 - AUC = {one_minus_auc} is not below 0.5")


# -- library pipeline ----------------------------------------------------------


def _solve(tr, solver: str, g: ViewGraph):
    with tr.span(f"solvers.{solver}") as rec:
        est = SOLVERS[solver](g)
    if solver == "solve_irls_lud" and tr.enabled:
        tr.count("solvers.irls_iterations", est.iterations)
        tr.count("solvers.irls_s_per_iter", (rec["end"] - rec["start"]) / est.iterations)
        tr.count("solvers.irls_converged", float(est.converged))
    return est


def library_pipeline(tr, wl: Workload, seed: int, root: str):
    """generate_uc -> ir_aab -> filter_edges -> solvable_component -> solver
    -> evaluation, inside one ``root`` span."""
    t0 = time.perf_counter()
    with tr.span(root):
        with tr.span("synthetic.generate_uc"):
            g, gt = generate_uc(wl.uc(seed))
        with tr.span("aabstats.ir_aab") as ir_rec:
            stats = ir_aab(g, wl.aab(seed))
        with tr.span("screening.filter_edges"):
            kept = filter_edges(g, stats, wl.policy)
        with tr.span("screening.solvable_component"):
            pruned = solvable_component(kept, wl.min_degree)
        est = _solve(tr, wl.solver, pruned)
        with tr.span("evaluation"):
            auc = roc_auc(stats, label_edges(g, gt, wl.sigma)).auc
            _, _, aligned = align_similarity(est, gt.locations)
            _, err = location_errors(aligned, gt.locations)
    seconds = time.perf_counter() - t0
    outcome = Outcome(seconds, 1.0 - auc, err)
    if tr.enabled:
        tr.count("synthetic.edges", g.num_edges)
        tr.count("screening.kept_edges", kept.num_edges)
        tr.count("screening.component_vertices", pruned.active_vertices().size)
    return outcome, Parts(g, gt, stats, est, pruned, ir_rec)


def library_instance(tr, wl: Workload, seed: int, workdir: str, env: dict) -> Outcome:
    outcome, parts = library_pipeline(tr, wl, seed, "pipeline")
    check_statistics(parts.g, parts.stats)
    check_locations(parts.est.locations)
    check_auc(outcome.one_minus_auc)
    if tr.enabled:
        os.makedirs(workdir)
        decompose(tr, wl, seed, parts, workdir)
    return outcome


# -- CLI pipeline --------------------------------------------------------------


def run_stage(label: str, argv: list[str], cwd: str, env: dict) -> float:
    """Run one child process to completion; returns its peak RSS in MiB."""
    err_path = os.path.join(cwd, "stderr.txt")
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            msg = fh.read().strip().splitlines()[-1:] or ["(no stderr)"]
        raise CheckFailed(f"{label} exited {proc.returncode}: {msg[0]}")
    return usage.ru_maxrss / 1024.0


def cli_stages(wl: Workload, seed: int) -> list[tuple[str, list[str]]]:
    """The six README stages; paths are relative to the pass directory."""
    p = wl.policy
    return [
        ("generate", ["generate", "--n", str(wl.n), "--p", repr(wl.p), "--q", repr(wl.q),
                      "--sigma", repr(wl.sigma), "--seed", str(seed), "--out-edges", "edges.txt",
                      "--out-locations", "gt.txt", "--out-labels", "labels.csv"]),
        ("screen", ["screen", "--edges", "edges.txt", "--stat", "ir", "--s", str(wl.s),
                    "--T", str(wl.T), "--seed", str(seed), "--out", "stats.csv"]),
        ("filter", ["filter", "--edges", "edges.txt", "--stats", "stats.csv", "--keep-fraction",
                    repr(p.keep_fraction), "--min-degree", str(p.min_degree), "--out", "pruned.txt"]),
        ("solve", ["solve", "--edges", "pruned.txt", "--solver", CLI_SOLVER[wl.solver],
                   "--out", "estimate.txt"]),
        ("evaluate", ["evaluate", "--edges", "edges.txt", "--stats", "stats.csv", "--labels",
                      "labels.csv", "--estimate", "estimate.txt", "--ground-truth", "gt.txt",
                      "--out-dir", "eval"]),
        ("verify", ["verify", "--mode", "formula", "--samples", str(wl.verify_samples),
                    "--seed", str(seed), "--out", "verify.json"]),
    ]


def cli_pass(tr, wl: Workload, seed: int, workdir: str, env: dict) -> tuple[float, float]:
    """Run the six stages one after another; returns (seconds, peak RSS MiB)."""
    os.makedirs(workdir)
    peak = 0.0
    t0 = time.perf_counter()
    for stage, args in cli_stages(wl, seed):
        with tr.span(f"cli.{stage}"):
            argv = [sys.executable, "-m", "aabscreen.cli", *args]
            peak = max(peak, run_stage(f"aabscreen {stage}", argv, workdir, env))
    return time.perf_counter() - t0, peak


def cli_import(tr, env: dict, workdir: str) -> None:
    with tr.span("cli.import"):
        argv = [sys.executable, "-c", "import aabscreen.cli, numpy, scipy"]
        run_stage("import probe", argv, workdir, env)


def check_cli_outputs(wl: Workload, seed: int, workdir: str) -> tuple[float, float]:
    """Checks a pass's files; returns (1 - AUC, median location error)."""
    f = functools.partial(os.path.join, workdir)
    g = parse_edge_list(f("edges.txt"))
    check_statistics(g, parse_statistics(f("stats.csv")))
    meta = {"stat": "ir", "s": wl.s, "T": wl.T, "seed": seed}
    write_statistics(g, ir_aab(g, wl.aab(seed)), f("library_stats.csv"), metadata=meta)
    with open(f("stats.csv"), "rb") as a, open(f("library_stats.csv"), "rb") as b:
        if a.read() != b.read():
            raise CheckFailed("`screen` statistics differ from write_statistics(ir_aab(...))")
    locations, _ = parse_locations(f("estimate.txt"))
    check_locations(locations)
    with open(f("eval", "errors.json"), encoding="ascii") as fh:
        report = json.load(fh)
    with open(f("verify.json"), encoding="ascii") as fh:
        if not np.isfinite(json.load(fh)["max_abs_dev_corrected"]):
            raise CheckFailed("`verify` reported a non-finite deviation")
    one_minus_auc = 1.0 - report["auc"]
    check_auc(one_minus_auc)
    return one_minus_auc, report["median_error"]


def cli_instance(tr, wl: Workload, seed: int, workdir: str, env: dict) -> Outcome:
    with tr.span("pipeline"):
        seconds, peak = cli_pass(tr, wl, seed, workdir, env)
    one_minus_auc, err = check_cli_outputs(wl, seed, workdir)
    if tr.enabled:
        # the library layers the stages ran, repeated in-process on the same inputs
        _, parts = library_pipeline(tr, wl, seed, "library")
        decompose(tr, wl, seed, parts, workdir)
    return Outcome(seconds, one_minus_auc, err, peak)


# -- traced decomposition ------------------------------------------------------


def decompose(tr, wl: Workload, seed: int, parts: Parts, workdir: str) -> None:
    """Repeat, on this instance's inputs, the work of the layers that the
    pipeline span does not time directly."""
    g, stats = parts.g, parts.stats
    edges = [(int(i), int(j)) for i, j in g.edge_array]
    with tr.span("streams.edge_rng"):
        for i, j in edges:
            edge_rng(seed, TAG_TRIPLES, i, j)
    with tr.span("graph.common_neighbors"):
        sizes = [g.common_neighbors(i, j).size for i, j in edges]

    cache = stats.cache
    i_arr = g.edge_array[cache.edge_rows, 0]
    j_arr = g.edge_array[cache.edge_rows, 1]
    k_arr = cache.neighbors
    with tr.span("graph.pair_lookup"):
        g.edge_rows_of_pairs(j_arr, k_arr)
        g.edge_rows_of_pairs(k_arr, i_arr)
        g_jk = g.directions_of_pairs(j_arr, k_arr)
        g_ki = g.directions_of_pairs(k_arr, i_arr)
    triangles = int(k_arr.size)
    tr.count("graph.pair_lookup.queries", 4 * triangles)

    g_ij = g.direction_array[cache.edge_rows]
    with tr.span("sphere.aab_inconsistency_batch"):
        aab_inconsistency_batch(g_ij, g_jk, g_ki)
    tr.count("sphere.aab_inconsistency_batch.triangles", triangles)
    tr.count("sphere.aab_inconsistency_batch.bytes", KERNEL_BYTES_PER_TRIANGLE * triangles)

    rows = [(i, j, d) for (i, j), d in zip(edges, g.direction_array)]
    with tr.span("graph.build"):
        ViewGraph(g.n, rows)

    with tr.span("aabstats.naive_aab") as naive_rec:
        naive_aab(g, wl.aab(seed))
    ir_s = parts.ir_rec["end"] - parts.ir_rec["start"]
    tr.count("aabstats.reweight.s", ir_s - (naive_rec["end"] - naive_rec["start"]))
    tr.count("aabstats.triangles", triangles)
    tr.count("aabstats.dropped", wl.s * sum(1 for c in sizes if c) - triangles)
    tr.count("aabstats.unsupported", len(stats.unsupported))
    tr.count("aabstats.ir_rounds", len(stats.diagnostics.taus) if stats.diagnostics else 0)

    # both solvers on the same pruned graph, so their errors compare directly
    other = "solve_ls_spectral" if wl.solver == "solve_irls_lud" else "solve_irls_lud"
    estimates = {wl.solver: parts.est, other: _solve(tr, other, parts.pruned)}
    for solver, est in estimates.items():
        _, _, aligned = align_similarity(est, parts.gt.locations)
        tr.count(f"quality.loc_err.{solver}", location_errors(aligned, parts.gt.locations)[1])

    edges_path = os.path.join(workdir, "fileio_edges.txt")
    stats_path = os.path.join(workdir, "fileio_stats.csv")
    with tr.span("fileio.write_edge_list"):
        write_edge_list(g, edges_path, metadata={"seed": seed})
    with tr.span("fileio.parse_edge_list"):
        parse_edge_list(edges_path)
    with tr.span("fileio.write_statistics"):
        write_statistics(g, stats, stats_path, metadata={"seed": seed})
    with tr.span("fileio.parse_statistics"):
        parse_statistics(stats_path)
    tr.count("fileio.bytes", 2 * (os.path.getsize(edges_path) + os.path.getsize(stats_path)))
