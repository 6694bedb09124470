"""Smoke test of what the benchmark calls in the library.

The benchmark's probe and pipelines are loaded from ``perfbench/`` and run
on one small instance: the library pipeline with LS untraced, with IRLS
traced (which repeats every layer's work the benchmark times on its own),
and the six CLI stages.  An API that only the benchmark uses then cannot go
missing without a failure here.  Nothing is written under ``perfbench/``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def bench_files() -> set[Path]:
    return set(BENCH.rglob("*"))


@pytest.fixture(scope="module")
def bench():
    """The probe, pipelines and tracing modules, loaded without writing
    bytecode next to them; yields them by name."""
    before = bench_files()
    modules = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        for name in ("tracing", "probe", "pipelines"):
            spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            # dataclasses look their module up while the class is built
            mp.setitem(sys.modules, spec.name, module)
            spec.loader.exec_module(module)
            modules[name] = module
        yield modules
    assert bench_files() == before


def workload(pipelines, kind: str, solver: str):
    return pipelines.Workload(
        name=f"smoke-{kind}", kind=kind, n=60, p=0.5, q=0.2, sigma=0.05, s=50, T=10,
        keep_fraction=0.5, min_degree=2, verify_samples=1000, solver=solver, stated_m=0,
        quality_instances=1,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["AAB_THREADS"] = "1"
    return env


def test_probe_warms_up(bench):
    bench["probe"].warm_up()


def test_library_instance_untraced(bench, tmp_path):
    pipelines = bench["pipelines"]
    wl = workload(pipelines, "library", "solve_ls_spectral")
    tr = bench["tracing"].NullTracer()
    outcome = pipelines.library_instance(tr, wl, 3, str(tmp_path / "work"), child_env())
    assert 0.0 <= outcome.one_minus_auc < 0.5
    assert 0.0 < outcome.loc_err_median < 1.0


def test_library_instance_traced(bench, tmp_path):
    pipelines = bench["pipelines"]
    wl = workload(pipelines, "library", "solve_irls_lud")
    tr = bench["tracing"].Tracer()
    tr.instance = 0
    pipelines.library_instance(tr, wl, 3, str(tmp_path / "work"), child_env())
    spans = {s["name"] for s in tr.spans}
    counts = {c["name"] for c in tr.counts}
    assert {"pipeline", "streams.edge_rng", "graph.common_neighbors", "graph.build"} <= spans
    assert {"quality.loc_err.solve_ls_spectral", "quality.loc_err.solve_irls_lud"} <= counts
    rounds = [c["value"] for c in tr.counts if c["name"] == "aabstats.ir_rounds"]
    assert rounds == [wl.T]


def test_cli_instance(bench, tmp_path):
    pipelines = bench["pipelines"]
    wl = workload(pipelines, "cli", "solve_irls_lud")
    tr = bench["tracing"].NullTracer()
    outcome = pipelines.cli_instance(tr, wl, 3, str(tmp_path / "work"), child_env())
    assert 0.0 <= outcome.one_minus_auc < 0.5
    assert 0.0 < outcome.loc_err_median < 1.0
    assert outcome.peak_rss_mb > 0.0
