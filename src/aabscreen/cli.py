"""Command-line pipeline: generate, screen, filter, solve, evaluate, verify.

Every subcommand is deterministic given its flags, writes outputs atomically,
and exits nonzero with a one-line diagnostic on any library error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .aabstats import AABConfig, ir_aab, naive_aab
from .evaluation import histogram, improvement, label_edges, location_errors, roc_auc
from .fileio import (
    parse_edge_list,
    parse_labels,
    parse_locations,
    parse_statistics,
    write_edge_list,
    write_histogram_csv,
    write_json_report,
    write_labels,
    write_locations,
    write_per_iteration,
    write_roc_csv,
    write_statistics,
)
from .graph import match_edge_rows
from .screening import ScreeningPolicy, filter_edges, solvable_component
from .solvers import align_similarity, solve_irls_lud, solve_ls_spectral
from .synthetic import UCParams, generate_uc
from .verify import (
    formula_vs_oracle,
    mc_estimate_f,
    mc_estimate_Z,
    reference_mean_inconsistency,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aabscreen",
        description="Detect and remove corrupted pairwise directions in view graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a corrupted view graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-locations", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("screen", help="compute per-edge statistics")
    p.add_argument("--edges", required=True)
    p.add_argument("--stat", choices=["naive", "ir"], required=True)
    p.add_argument("--s", type=int, default=50)
    p.add_argument("--T", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-iteration", help="also dump per-round values (CSV t,i,j,value)")
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("filter", help="prune edges by statistic and keep a solvable component")
    p.add_argument("--edges", required=True)
    p.add_argument("--stats", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--keep-fraction", type=float, default=None)
    group.add_argument("--threshold", type=float, default=None)
    p.add_argument("--min-degree", type=int, default=2)
    p.add_argument("--drop-unsupported", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("solve", help="recover locations from pairwise directions")
    p.add_argument("--edges", required=True)
    p.add_argument("--solver", choices=["ls", "irls"], required=True)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", help="ROC, histogram, and location-error reports")
    p.add_argument("--edges", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--estimate")
    p.add_argument("--ground-truth")
    p.add_argument("--baseline-error", type=float)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("verify", help="Monte Carlo checks of the analytic pieces")
    p.add_argument("--mode", choices=["lemma", "z", "formula"], required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--oracle-steps", type=int, default=100_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


class _UsageError(Exception):
    """Flags that do not go together: exit 2 before any work."""


def _distinct_outputs(outputs: dict) -> None:
    """Reject two of ``outputs`` (flag -> path, None for an absent output)
    that resolve to one file."""
    seen = {}
    for flag, path in outputs.items():
        if path is not None:
            other = seen.setdefault(os.path.realpath(path), flag)
            if other != flag:
                raise _UsageError(f"{other} and {flag} name the same file")


def _cmd_generate(args) -> int:
    _distinct_outputs(
        {"--out-edges": args.out_edges, "--out-locations": args.out_locations,
         "--out-labels": args.out_labels}
    )
    params = UCParams(n=args.n, p=args.p, q=args.q, sigma=args.sigma, seed=args.seed)
    g, gt = generate_uc(params)
    labels = label_edges(g, gt, args.sigma)
    meta = {"p": args.p, "q": args.q, "sigma": args.sigma, "seed": args.seed}
    write_edge_list(g, args.out_edges, metadata=meta)
    write_locations(gt.locations, g.n, args.out_locations, metadata=meta)
    write_labels(g, labels, args.out_labels, metadata=meta)
    print(f"generated {g.num_edges} edges over {g.n} vertices")
    return 0


def _cmd_screen(args) -> int:
    _distinct_outputs({"--out": args.out, "--per-iteration": args.per_iteration})
    g = parse_edge_list(args.edges)
    cfg = AABConfig(s=args.s, T=args.T, seed=args.seed)
    stats = (naive_aab if args.stat == "naive" else ir_aab)(g, cfg)
    meta = {"stat": args.stat, "s": args.s, "T": args.T, "seed": args.seed}
    write_statistics(g, stats, args.out, metadata=meta)
    if args.per_iteration:
        write_per_iteration(g, stats, args.per_iteration, metadata=meta)
    unsupported = int(np.isnan(stats.value).sum())
    print(f"screened {g.num_edges} edges ({unsupported} unsupported)")
    return 0


def _cmd_filter(args) -> int:
    # --keep-fraction and --threshold are exclusive, so with a threshold the
    # fraction is the unused default
    keep = 0.5 if args.keep_fraction is None else args.keep_fraction
    if not 0.0 < keep <= 1.0:
        raise _UsageError("--keep-fraction must be in (0, 1]")
    policy = ScreeningPolicy(
        keep_fraction=keep,
        threshold=args.threshold,
        min_degree=args.min_degree,
        drop_unsupported=args.drop_unsupported,
    )

    g = parse_edge_list(args.edges)
    stats = parse_statistics(args.stats)
    pruned = filter_edges(g, stats, policy)
    component = solvable_component(pruned, policy.min_degree)
    meta = {
        "source": args.edges,
        "mode": policy.mode,
        "keep_fraction": policy.keep_fraction,
        "threshold": policy.threshold,
        "min_degree": policy.min_degree,
    }
    write_edge_list(component, args.out, metadata=meta)
    print(f"kept {component.num_edges} of {g.num_edges} edges")
    return 0


def _cmd_solve(args) -> int:
    g = parse_edge_list(args.edges)
    if args.solver == "ls":
        est = solve_ls_spectral(g)
    else:
        est = solve_irls_lud(g, max_iters=args.max_iters)
    meta = {
        "solver": args.solver,
        "converged": est.converged,
        "iterations": est.iterations,
    }
    write_locations(est.locations, g.n, args.out, metadata=meta)
    print(f"solved {est.locations.vertices.size} locations in {est.iterations} iterations")
    return 0


def _cmd_evaluate(args) -> int:
    if args.estimate is not None and args.ground_truth is None:
        raise _UsageError("--estimate requires --ground-truth")
    if args.ground_truth is not None and args.estimate is None:
        raise _UsageError("--ground-truth requires --estimate")
    if args.baseline_error is not None and args.estimate is None:
        raise _UsageError("--baseline-error requires --estimate and --ground-truth")
    if args.baseline_error is not None and not 0.0 < args.baseline_error < math.inf:
        raise _UsageError("--baseline-error must be finite and > 0")

    # read, check and align every input before the first write, so that a
    # bad input leaves nothing in --out-dir
    g = parse_edge_list(args.edges)
    stats = parse_statistics(args.stats)
    labels = parse_labels(args.labels)
    match_edge_rows(stats.edge_array, g.edge_array, "statistics file does not cover edge {}")
    meta = {"edges": args.edges, "stats": args.stats, "labels": args.labels}
    roc = roc_auc(stats, labels)
    hist = histogram(stats, labels, bins=args.bins)

    report = {"auc": roc.auc, "inputs": dict(meta)}
    if args.estimate is not None:
        est, _ = parse_locations(args.estimate)
        gt, _ = parse_locations(args.ground_truth)
        scale, shift, aligned = align_similarity(est, gt)
        mean_err, median_err = location_errors(aligned, gt)
        report.update(
            {
                "mean_error": mean_err,
                "median_error": median_err,
                "alignment_scale": scale,
                "alignment_shift": list(map(float, shift)),
            }
        )
        if args.baseline_error is not None:
            report["improvement_percent"] = improvement(args.baseline_error, mean_err)

    os.makedirs(args.out_dir, exist_ok=True)
    write_roc_csv(roc, os.path.join(args.out_dir, "roc.csv"), metadata=meta)
    write_histogram_csv(hist, os.path.join(args.out_dir, "hist.csv"), metadata=meta)
    write_json_report(report, os.path.join(args.out_dir, "errors.json"))
    auc_str = "NA" if roc.auc is None else f"{roc.auc:.6f}"
    print(f"evaluation written to {args.out_dir} (auc={auc_str})")
    return 0


def _cmd_verify(args) -> int:
    if args.mode == "lemma":
        grid = np.linspace(0.0, np.pi, 9)
        rows = []
        for x in grid:
            est = mc_estimate_f(float(x), args.samples, args.seed)
            ref = reference_mean_inconsistency(float(x))
            rows.append(
                {
                    "x": float(x),
                    "estimate": est.value,
                    "std_error": est.std_error,
                    "reference": ref,
                    "deviation": est.value - ref,
                }
            )
        payload = {"mode": "lemma", "samples": args.samples, "seed": args.seed, "grid": rows}
    elif args.mode == "z":
        est = mc_estimate_Z(args.samples, args.seed)
        payload = {
            "mode": "z",
            "samples": args.samples,
            "seed": args.seed,
            "estimate": est.value,
            "std_error": est.std_error,
        }
    else:
        cmp_ = formula_vs_oracle(args.samples, args.oracle_steps, args.seed)
        payload = {
            "mode": "formula",
            "samples": args.samples,
            "oracle_steps": args.oracle_steps,
            "seed": args.seed,
            **dataclasses.asdict(cmp_),
        }
    write_json_report(payload, args.out)
    print(f"verification report written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, RuntimeError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
