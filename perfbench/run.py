"""aabscreen benchmark: three workloads through the library API and the
six-stage CLI, with end-to-end metrics, output checks and a traced run.

Run from the root of a checkout, once per workload:

    for w in dense-200 sparse-1000 cli-200; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Workload parameters and the map of which per-layer metric should move
which end-to-end metric are in ``perfbench/workloads.json``; the reason for
each workload, metric names and units are in ``BENCHMARK.json``.  Instance seeds are derived from ``--seed``; the library
and the CLI only ever see the generated instance or its files.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
instance once untraced and once traced, repeats the remaining layers' work
on the same inputs outside the pipeline span, reports the per-layer metrics
and writes the spans to ``.bench_out/``.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import os
import sys

# Fixed BLAS thread count: the count changes IRLS output in the 10th digit,
# so quality metrics repeat exactly only when it is pinned.  Set before any
# numerical library loads.
BLAS_THREADS_MAX = 2
BLAS_THREADS = min(len(os.sched_getaffinity(0)), BLAS_THREADS_MAX)
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import NullTracer, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh-interpreter set-ups per run; setup_s is their median.  One probe
# varies by up to ±20% on a shared host.
SETUP_PROBES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def instance_seed(workload: str, seed: int, k: int) -> int:
    digest = hashlib.blake2b(f"{workload}/{seed}/{k}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def child_env() -> dict:
    """Environment of every child: the thread cap through AAB_THREADS only."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["AAB_THREADS"] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_setup(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "probe.py")], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def versions() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def load_workload(name: str):
    from pipelines import Workload

    spec = json.loads((BENCH_DIR / "workloads.json").read_text())
    if name not in spec["workloads"]:
        return None
    w = spec["workloads"][name]
    model = spec["model"]
    return Workload(
        name=name,
        kind=w["kind"],
        n=w["n"],
        p=w["p"],
        q=model["q"],
        sigma=model["sigma"],
        s=model["s"],
        T=model["T"],
        keep_fraction=model["keep_fraction"],
        min_degree=model["min_degree"],
        verify_samples=model["verify_samples"],
        solver=w["solver"],
        stated_m=w["stated_m"],
        quality_instances=w["quality_instances"],
    )


def run_instances(args, wl, env, tr):
    """Instances back to back until ``args.seconds`` have passed.  An
    untraced run makes at least ``wl.quality_instances`` of them, so that its
    quality metrics come from the same instances whatever the speed; a traced
    run makes at least one.  A failed instance is counted and the run goes
    on.  Returns (outcomes, untraced pipeline seconds, attempted, failed)."""
    import pipelines

    instance_fn = pipelines.library_instance if wl.kind == "library" else pipelines.cli_instance
    work_root = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    outcomes, untraced_s = [], []
    attempted = failed = 0
    min_instances = 1 if tr.enabled else wl.quality_instances
    start = time.perf_counter()
    try:
        while attempted < min_instances or time.perf_counter() - start < args.seconds:
            k = attempted
            attempted += 1
            seed = instance_seed(wl.name, args.seed, k)
            work = str(work_root / str(k))
            try:
                if tr.enabled:
                    untraced = instance_fn(NullTracer(), wl, seed, work + "-untraced", env)
                    tr.instance = k
                outcome = instance_fn(tr, wl, seed, work, env)
                if tr.enabled:
                    if k == 0 and wl.kind == "library":
                        pipelines.cli_pass(tr, wl, seed, work + "-cli", env)
                    pipelines.cli_import(tr, env, work)
                    untraced_s.append(untraced.seconds)
            except Exception:  # noqa: BLE001 - counted in `failed`; the run goes on
                failed += 1
                print(f"instance {k} (seed {seed}) failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                if tr.enabled:
                    tr.discard(k)
                continue
            finally:
                tr.instance = None
            outcomes.append(outcome)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()  # only when no other run is using it
    return outcomes, untraced_s, attempted, failed


def quality_set(wl, outcomes):
    """The first ``wl.quality_instances`` outcomes: a fixed set for a given
    --seed, so a pure speed-up does not change the quality metrics."""
    return outcomes[:wl.quality_instances]


def end_to_end(wl, outcomes, setups):
    """(values, notes) of the end-to-end metrics of an untraced run."""
    n = len(outcomes)
    if wl.kind == "library":
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak_note = "this process over the whole run"
    else:
        peak = max(o.peak_rss_mb for o in outcomes)
        peak_note = f"max over the {6 * n} stage processes"
    pipeline_s = statistics.median(o.seconds for o in outcomes)
    values = {
        "setup_s": statistics.median(setups),
        "pipeline_s": pipeline_s,
        "edges_per_s": wl.stated_m / pipeline_s,
        "peak_rss_mb": peak,
        "loc_err_median": statistics.median(o.loc_err_median for o in quality_set(wl, outcomes)),
    }
    notes = {name: f"median of n={n} instances" for name in values}
    notes["loc_err_median"] = f"median of the first {len(quality_set(wl, outcomes))} instance(s)"
    notes["setup_s"] = f"median of {len(setups)} fresh-interpreter set-ups"
    notes["edges_per_s"] = f"stated m={wl.stated_m} over the median pipeline_s of n={n}"
    notes["peak_rss_mb"] = peak_note
    return values, notes


def per_layer(tr, wl, outcomes, untraced_s) -> dict:
    """Per-layer values of a traced run."""
    values = tr.medians()
    converged = [c["value"] for c in tr.counts if c["name"] == "solvers.irls_converged"]
    # a fraction with its base, not a median of 0/1 flags
    values["solvers.irls_converged"] = sum(converged) / len(converged)
    print(f"solvers.irls_converged: {int(sum(converged))} of {len(converged)} IRLS solves")
    values["quality.one_minus_auc"] = statistics.median(
        o.one_minus_auc for o in quality_set(wl, outcomes))
    traced = statistics.median(o.seconds for o in outcomes)
    values["trace.pipeline_s"] = traced
    values["trace.overhead_s"] = traced - statistics.median(untraced_s)
    values["trace.layer_share"] = statistics.median(tr.layer_shares("pipeline"))
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aabscreen" / "cli.py").is_file():
        print(f"error: no aabscreen sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probe

    wl = load_workload(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    info = versions()

    setups = [time_setup(env) for _ in range(SETUP_PROBES)]
    probe.warm_up()
    tr = Tracer() if args.trace else NullTracer()
    outcomes, untraced_s, attempted, failed = run_instances(args, wl, env, tr)

    print(f"workload {wl.name}: n={wl.n} p={wl.p} q={wl.q} sigma={wl.sigma} s={wl.s} T={wl.T} "
          f"solver={wl.solver} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"failed_frac {failed / attempted:g} ({failed} of {attempted} instances attempted)")
    if not outcomes:
        print("error: every instance failed; no metrics", file=sys.stderr)
        return 1

    if args.trace:
        values, notes = per_layer(tr, wl, outcomes, untraced_s), {}
        declared_metrics = declared["per_layer"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        tr.dump(str(path), {"workload": wl.name, "seed": args.seed, **info})
        print(f"spans written to {path.relative_to(ROOT)}; per-layer values are medians over "
              f"the {len(outcomes)} traced instance(s) that ran the layer")
    else:
        values, notes = end_to_end(wl, outcomes, setups)
        declared_metrics = declared["end_to_end"]
        print("no tail percentiles: fewer than 10 samples would lie beyond any of them")
        quality = quality_set(wl, outcomes)
        one_minus_auc = statistics.median(o.one_minus_auc for o in quality)
        print(f"  one_minus_auc {one_minus_auc:.6g} (median of the first {len(quality)} instance(s); "
              f"reported as quality.one_minus_auc by --trace 1)")
    units = {m["name"]: m["unit"] for m in declared_metrics}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {values[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
