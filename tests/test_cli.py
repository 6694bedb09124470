"""End-to-end tests of the command-line pipeline."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aabscreen
from aabscreen.aabstats import AABConfig, ir_aab
from aabscreen.cli import main
from aabscreen.evaluation import location_errors
from aabscreen.fileio import parse_edge_list, parse_locations, parse_statistics
from aabscreen.screening import ScreeningPolicy, filter_edges, solvable_component
from aabscreen.solvers import align_similarity, solve_irls_lud, solve_ls_spectral
from aabscreen.synthetic import UCParams, generate_uc


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def generated(tmp_path):
    paths = {
        "edges": tmp_path / "edges.txt",
        "locations": tmp_path / "locations.txt",
        "labels": tmp_path / "labels.csv",
    }
    code = run(
        "generate",
        "--n", 60, "--p", 0.5, "--q", 0.2, "--sigma", 0.0, "--seed", 5,
        "--out-edges", paths["edges"],
        "--out-locations", paths["locations"],
        "--out-labels", paths["labels"],
    )
    assert code == 0
    return paths


class TestSubcommands:
    def test_screen_deterministic_bytes(self, generated, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        for out in (out1, out2):
            assert run(
                "screen", "--edges", generated["edges"], "--stat", "ir",
                "--seed", 9, "--out", out,
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("solver", ["ls", "irls"])
    def test_solve_deterministic_bytes(self, generated, tmp_path, solver):
        outs = [tmp_path / f"estimate{k}.txt" for k in range(2)]
        for out in outs:
            assert run(
                "solve", "--edges", generated["edges"], "--solver", solver, "--out", out,
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_filter_rejects_bad_fraction(self, generated, tmp_path):
        stats = tmp_path / "stats.csv"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 9, "--out", stats,
        ) == 0
        code = run(
            "filter", "--edges", generated["edges"], "--stats", stats,
            "--keep-fraction", 0, "--out", tmp_path / "pruned.txt",
        )
        assert code == 2

    def test_screen_s_beyond_int32(self, generated, tmp_path, capsys):
        code = run(
            "screen", "--edges", generated["edges"], "--stat", "naive", "--s", 2**31,
            "--seed", 1, "--out", tmp_path / "stats.csv",
        )
        assert code == 1
        assert capsys.readouterr().err == "error: s must be in [1, 2**31 - 1]\n"
        assert not (tmp_path / "stats.csv").exists()

    def test_screen_checks_s_before_reading_edges(self, tmp_path, capsys):
        # the edge list need not exist: --s is checked before any read
        code = run(
            "screen", "--edges", tmp_path / "missing.txt", "--stat", "ir", "--s", 0,
            "--seed", 1, "--out", tmp_path / "stats.csv",
        )
        assert code == 1
        assert capsys.readouterr().err == "error: s must be in [1, 2**31 - 1]\n"
        assert not (tmp_path / "stats.csv").exists()

    def test_solve_has_no_delta(self, generated, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                "solve", "--edges", generated["edges"], "--solver", "irls", "--delta", 1e-8,
                "--out", tmp_path / "estimate.txt",
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --delta" in capsys.readouterr().err
        assert not (tmp_path / "estimate.txt").exists()

    @pytest.mark.parametrize("solver", ["ls", "irls"])
    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_solve_max_iters_is_usage_error(self, tmp_path, capsys, solver, max_iters):
        # the edge list need not exist: the flag is checked before any read
        out = tmp_path / "estimate.txt"
        code = run(
            "solve", "--edges", tmp_path / "missing.txt", "--solver", solver,
            "--max-iters", max_iters, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --max-iters must be >= 1\n"
        assert not out.exists()

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        code = run(
            "screen", "--edges", tmp_path / "nope.txt", "--stat", "naive",
            "--seed", 1, "--out", tmp_path / "out.csv",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "out, err", [("nodir/z.json", errno.ENOENT), ("adir", errno.EISDIR)]
    )
    def test_write_error_names_the_output(self, tmp_path, monkeypatch, capsys, out, err):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        code = run("verify", "--mode", "z", "--samples", 1000, "--seed", 1, "--out", out)
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno {err}] {os.strerror(err)}: {out!r}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir"]

    def test_non_finite_direction_is_clean_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("# aab-edges v1 n=3\n0 1 nan 0 0\n")
        out = tmp_path / "out.csv"
        code = run(
            "screen", "--edges", edges, "--stat", "naive", "--seed", 1, "--out", out,
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "edges.txt:2" in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, where",
        [
            (b"# aab-edges v1 n=3\n0 1 1 0 0\n0 2 0 1 \xff\n", "edges.txt:3: non-ASCII byte 0xff"),
            (b"# aab-edges v1 n=1\n", "edges.txt:1: header n=1"),
        ],
        ids=["non_ascii", "n_below_two"],
    )
    def test_malformed_file_is_one_line_error(self, tmp_path, capsys, content, where):
        edges = tmp_path / "edges.txt"
        edges.write_bytes(content)
        out = tmp_path / "out.csv"
        code = run(
            "screen", "--edges", edges, "--stat", "naive", "--seed", 1, "--out", out,
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: ") and where in err
        assert not out.exists()

    def test_verify_modes(self, tmp_path):
        for mode, extra in (
            ("z", []),
            ("formula", ["--oracle-steps", "10000"]),
        ):
            out = tmp_path / f"report-{mode}.json"
            assert run(
                "verify", "--mode", mode, "--samples", 2000, "--seed", 3,
                "--out", out, *extra,
            ) == 0
            payload = json.loads(out.read_text())
            assert payload["mode"] == mode

    def test_evaluate_rejects_stats_missing_an_edge(self, generated, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 1, "--out", stats,
        ) == 0
        lines = stats.read_text().splitlines()
        header = [k for k, line in enumerate(lines) if line == "i,j,statistic,unsupported"][0]
        dropped = lines.pop(header + 5)
        stats.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(
            "evaluate", "--edges", generated["edges"], "--stats", stats,
            "--labels", generated["labels"], "--out-dir", tmp_path / "eval",
        )
        err = capsys.readouterr().err
        i, j = dropped.split(",")[:2]
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: ") and f"does not cover edge ({i}, {j})" in err

    def test_evaluate_all_unsupported_is_clean_error(self, generated, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 1, "--out", stats,
        ) == 0
        lines = stats.read_text().splitlines()
        rows = lines.index("i,j,statistic,unsupported") + 1
        lines[rows:] = [",".join(line.split(",")[:2] + ["nan", "1"]) for line in lines[rows:]]
        stats.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(
            "evaluate", "--edges", generated["edges"], "--stats", stats,
            "--labels", generated["labels"], "--out-dir", tmp_path / "eval",
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "no edge has a supported statistic" in err
        assert not (tmp_path / "eval" / "roc.csv").exists()

    def test_evaluate_bad_estimate_writes_nothing(self, generated, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 1, "--out", stats,
        ) == 0
        estimate = tmp_path / "estimate.txt"
        assert run("solve", "--edges", generated["edges"], "--solver", "ls", "--out", estimate) == 0
        lines = estimate.read_text().splitlines()
        row = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        lines[row] = " ".join(lines[row].split()[:3])
        estimate.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(
            "evaluate", "--edges", generated["edges"], "--stats", stats,
            "--labels", generated["labels"], "--estimate", estimate,
            "--ground-truth", generated["locations"], "--out-dir", tmp_path / "eval",
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {estimate}:{row + 1}: expected 4 fields, got 3\n"
        assert not (tmp_path / "eval" / "roc.csv").exists()
        assert not (tmp_path / "eval" / "hist.csv").exists()

    def test_verify_formula_bytes(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(
            "verify", "--mode", "formula", "--samples", 2000, "--seed", 3,
            "--oracle-steps", 10000, "--out", out,
        ) == 0
        assert out.read_bytes() == (
            b'{\n  "max_abs_dev_as_printed": 0.27564275601465427,\n'
            b'  "max_abs_dev_corrected": 2.7849189004024166e-07,\n'
            b'  "mode": "formula",\n  "oracle_steps": 10000,\n'
            b'  "samples": 2000,\n  "seed": 3\n}\n'
        )

    @pytest.mark.parametrize(
        "stage, table", [("filter", "stats"), ("evaluate", "labels")]
    )
    def test_edge_table_pair_out_of_order_names_its_line(
        self, generated, tmp_path, capsys, stage, table
    ):
        stats = tmp_path / "stats.csv"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 1, "--out", stats,
        ) == 0
        path = stats if table == "stats" else generated["labels"]
        lines = path.read_text().splitlines()
        # the first data row, with its two vertex ids swapped
        k = next(k for k, line in enumerate(lines) if line.startswith("i,j,")) + 1
        i, j, rest = lines[k].split(",", 2)
        lines[k] = f"{j},{i},{rest}"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        common = ["--edges", generated["edges"], "--stats", stats]
        extra = (
            ["--out", tmp_path / "pruned.txt"] if stage == "filter"
            else ["--labels", generated["labels"], "--out-dir", tmp_path / "eval"]
        )
        code = run(stage, *common, *extra)
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        assert f"{path}:{k + 1}: edge ({j}, {i}) violates i < j" in err

    def test_per_iteration_dump(self, generated, tmp_path):
        out = tmp_path / "stats.csv"
        periter = tmp_path / "periter.csv"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "ir",
            "--seed", 2, "--out", out, "--per-iteration", periter,
        ) == 0
        lines = periter.read_text().splitlines()
        assert lines[0].startswith("# aab-stats-periter v1")
        assert "t,i,j,value" in lines
        rows = [line.split(",") for line in lines[lines.index("t,i,j,value") + 1 :]]
        # rounds 0..T of the default T = 10, the last one the written statistic
        assert sorted({int(r[0]) for r in rows}) == list(range(11))
        final = {(r[1], r[2]): r[3] for r in rows if r[0] == "10"}
        written = out.read_text().splitlines()
        first = written.index("i,j,statistic,unsupported") + 1
        stats_rows = [line.split(",") for line in written[first:]]
        assert final == {(r[0], r[1]): r[2] for r in stats_rows if r[3] == "0"}


class TestFullPipeline:
    def test_six_stages(self, tmp_path):
        edges = tmp_path / "edges.txt"
        locations = tmp_path / "locations.txt"
        labels = tmp_path / "labels.csv"
        stats = tmp_path / "stats.csv"
        pruned = tmp_path / "pruned.txt"
        estimate = tmp_path / "estimate.txt"
        outdir = tmp_path / "eval"

        assert run(
            "generate", "--n", 200, "--p", 0.5, "--q", 0.2, "--sigma", 0.0,
            "--seed", 42, "--out-edges", edges, "--out-locations", locations,
            "--out-labels", labels,
        ) == 0
        assert run(
            "screen", "--edges", edges, "--stat", "ir", "--s", 50, "--T", 10,
            "--seed", 42, "--out", stats,
        ) == 0
        assert run(
            "filter", "--edges", edges, "--stats", stats,
            "--keep-fraction", 0.5, "--min-degree", 2, "--out", pruned,
        ) == 0
        for solver in ("ls", "irls"):
            assert run(
                "solve", "--edges", pruned, "--solver", solver,
                "--out", estimate,
            ) == 0
        assert run(
            "evaluate", "--edges", edges, "--stats", stats, "--labels", labels,
            "--estimate", estimate, "--ground-truth", locations,
            "--out-dir", outdir,
        ) == 0
        assert run(
            "verify", "--mode", "lemma", "--samples", 2000, "--seed", 1,
            "--out", tmp_path / "lemma.json",
        ) == 0

        report = json.loads((outdir / "errors.json").read_text())
        assert report["mean_error"] > 0 and report["mean_error"] < 1
        assert report["median_error"] > 0 and report["median_error"] < 1
        assert (outdir / "roc.csv").exists()
        assert (outdir / "hist.csv").exists()
        roc_text = (outdir / "roc.csv").read_text().splitlines()
        assert roc_text[-1].startswith("# auc=")

    @pytest.mark.parametrize(
        "given, named",
        [
            (["--estimate"], "--estimate requires --ground-truth"),
            (["--ground-truth"], "--ground-truth requires --estimate"),
            (["--estimate", "--baseline-error"], "--estimate requires --ground-truth"),
            (["--baseline-error"], "--baseline-error requires --estimate and --ground-truth"),
        ],
        ids=["estimate", "ground_truth", "estimate_baseline", "baseline"],
    )
    def test_evaluate_flag_without_its_partner_is_usage_error(
        self, generated, tmp_path, capsys, given, named
    ):
        stats = tmp_path / "stats.csv"
        outdir = tmp_path / "eval"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 1, "--out", stats,
        ) == 0
        values = {
            "--estimate": generated["locations"],
            "--ground-truth": generated["locations"],
            "--baseline-error": 1.0,
        }
        capsys.readouterr()
        code = run(
            "evaluate", "--edges", generated["edges"], "--stats", stats,
            "--labels", generated["labels"], "--out-dir", outdir,
            *[x for flag in given for x in (flag, values[flag])],
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {named}\n"
        assert not outdir.exists()

    def test_improvement_reported_with_baseline(self, generated, tmp_path):
        stats = tmp_path / "stats.csv"
        estimate = tmp_path / "estimate.txt"
        outdir = tmp_path / "eval"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 1, "--out", stats,
        ) == 0
        assert run(
            "solve", "--edges", generated["edges"], "--solver", "ls",
            "--out", estimate,
        ) == 0
        assert run(
            "evaluate", "--edges", generated["edges"], "--stats", stats,
            "--labels", generated["labels"], "--estimate", estimate,
            "--ground-truth", generated["locations"],
            "--baseline-error", 1.0, "--out-dir", outdir,
        ) == 0
        report = json.loads((outdir / "errors.json").read_text())
        assert "improvement_percent" in report


@pytest.mark.parametrize("dirname", ["donn\xe9es", "a\nb"], ids=["non_ascii", "newline"])
class TestUnusualInputPaths:
    """The input paths that filter and evaluate record as metadata are
    escaped to printable ASCII, so their outputs stay readable."""

    @pytest.fixture
    def inputs(self, tmp_path, dirname):
        d = tmp_path / dirname
        d.mkdir()
        paths = {name: d / name for name in ("edges.txt", "loc.txt", "labels.csv", "stats.csv")}
        assert run(
            "generate", "--n", 30, "--p", 0.5, "--q", 0.2, "--sigma", 0.05, "--seed", 3,
            "--out-edges", paths["edges.txt"], "--out-locations", paths["loc.txt"],
            "--out-labels", paths["labels.csv"],
        ) == 0
        assert run(
            "screen", "--edges", paths["edges.txt"], "--stat", "naive", "--seed", 3,
            "--out", paths["stats.csv"],
        ) == 0
        return paths

    def test_filter_then_solve(self, inputs, tmp_path, dirname):
        pruned = tmp_path / "pruned.txt"
        assert run(
            "filter", "--edges", inputs["edges.txt"], "--stats", inputs["stats.csv"],
            "--out", pruned,
        ) == 0
        source = f"{tmp_path}/{dirname.encode('unicode_escape').decode()}/edges.txt"
        assert f"# source={source}" in pruned.read_text(encoding="ascii").splitlines()
        assert run("solve", "--edges", pruned, "--solver", "ls", "--out", tmp_path / "ls.txt") == 0

    def test_evaluate(self, inputs, tmp_path):
        outdir = tmp_path / "eval"
        assert run(
            "evaluate", "--edges", inputs["edges.txt"], "--stats", inputs["stats.csv"],
            "--labels", inputs["labels.csv"], "--estimate", inputs["loc.txt"],
            "--ground-truth", inputs["loc.txt"], "--out-dir", outdir,
        ) == 0
        for name in ("roc.csv", "hist.csv"):
            lines = (outdir / name).read_text(encoding="ascii").splitlines()
            assert [line.split("=")[0] for line in lines[1:4]] == ["# edges", "# stats", "# labels"]
        report = json.loads((outdir / "errors.json").read_text())
        assert report["inputs"]["edges"] == str(inputs["edges.txt"])


# Every CLI stage on one small instance (UC n=60 p=0.5 q=0.2 sigma=0.05
# seed 5), run in the working directory with relative paths, because the
# filter and evaluate metadata record the input paths.
GOLDEN_STAGES = [
    ["generate", "--n", 60, "--p", 0.5, "--q", 0.2, "--sigma", 0.05, "--seed", 5,
     "--out-edges", "edges.txt", "--out-locations", "locations.txt",
     "--out-labels", "labels.csv"],
    ["screen", "--edges", "edges.txt", "--stat", "ir", "--seed", 5, "--out", "ir.csv",
     "--per-iteration", "periter.csv"],
    ["screen", "--edges", "edges.txt", "--stat", "naive", "--seed", 5, "--out", "naive.csv"],
    ["filter", "--edges", "edges.txt", "--stats", "ir.csv", "--keep-fraction", 0.5,
     "--out", "pruned.txt"],
    ["filter", "--edges", "edges.txt", "--stats", "naive.csv", "--threshold", 0.3,
     "--drop-unsupported", "--out", "thresholded.txt"],
    ["solve", "--edges", "pruned.txt", "--solver", "ls", "--out", "ls.txt"],
    ["solve", "--edges", "pruned.txt", "--solver", "irls", "--out", "irls.txt"],
    ["evaluate", "--edges", "edges.txt", "--stats", "ir.csv", "--labels", "labels.csv",
     "--estimate", "irls.txt", "--ground-truth", "locations.txt", "--baseline-error", 1.0,
     "--out-dir", "eval-full"],
    ["evaluate", "--edges", "edges.txt", "--stats", "naive.csv", "--labels", "labels.csv",
     "--out-dir", "eval-plain"],
    ["verify", "--mode", "lemma", "--samples", 1000, "--seed", 5, "--out", "lemma.json"],
    ["verify", "--mode", "z", "--samples", 1000, "--seed", 5, "--out", "z.json"],
    ["verify", "--mode", "formula", "--samples", 1000, "--seed", 5,
     "--oracle-steps", 10_000, "--out", "formula.json"],
]

# sha256 prefixes of every output file and of the stages' stdout, recorded
# before the writers shared one write path (numpy 2.4, x86-64); the twelve
# files computed from a read edge list were recorded again once the reader
# kept unit directions as written, and irls.txt, the errors of the evaluate
# stage that reads it, and stdout once the robust solve became LUD by
# ADMM; ir.csv, periter.csv and the evaluate stage's roc.csv and hist.csv
# once the reweighting rounds took one exponential per edge, which moves
# the reweighted statistics in their last bits.  As with the statistics
# goldens, the float digests rest on numpy's transcendental functions and
# BLAS rounding the same way on another CPU or build.
GOLDEN_OUTPUTS = {
    "edges.txt": "79d5a791f6ccefcf",
    "eval-full/errors.json": "4e31a9cc92571366",
    "eval-full/hist.csv": "512a87fb4ab27481",
    "eval-full/roc.csv": "7b10f6f1fe5d6bc1",
    "eval-plain/errors.json": "9fb847e5eff829ad",
    "eval-plain/hist.csv": "5fcb19969f745def",
    "eval-plain/roc.csv": "1d00503cfaf3a73d",
    "formula.json": "0a4a413e4eb834e9",
    "ir.csv": "a45448c82d5be83c",
    "irls.txt": "34d6d89b4aa4274c",
    "labels.csv": "ec441e2d69d47c6c",
    "lemma.json": "75916f587c682d4e",
    "locations.txt": "e7c1c8931d1c7813",
    "ls.txt": "0753f5bc175a6cb3",
    "naive.csv": "6150046d0fed674a",
    "periter.csv": "c0e83f2b263ed160",
    "pruned.txt": "a1ff5a84c03c19fe",
    "thresholded.txt": "ba78606d59c9901b",
    "z.json": "081e8215c8faed3a",
    "stdout": "798bd2de25171343",
}


def test_golden_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in GOLDEN_STAGES:
        assert run(*argv) == 0, argv
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in files
    }
    got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert got == GOLDEN_OUTPUTS


def test_stages_reproduce_the_library(tmp_path, monkeypatch):
    # the golden instance through the CLI stages, each reading what the last
    # wrote, and in process from the generated graph: the same bits
    monkeypatch.chdir(tmp_path)
    for argv in GOLDEN_STAGES[:2] + GOLDEN_STAGES[3:4] + GOLDEN_STAGES[5:8]:
        assert run(*argv) == 0, argv

    g, gt = generate_uc(UCParams(n=60, p=0.5, q=0.2, sigma=0.05, seed=5))
    stats = ir_aab(g, AABConfig(s=50, T=10, seed=5))
    policy = ScreeningPolicy(keep_fraction=0.5)
    pruned = solvable_component(filter_edges(g, stats, policy), policy.min_degree)

    edges = parse_edge_list("edges.txt")
    assert edges.direction_array.tobytes() == g.direction_array.tobytes()
    written = parse_statistics("ir.csv")
    assert np.array_equal(written.edge_array, stats.edge_array)
    assert np.array_equal(written.value, stats.value, equal_nan=True)
    back = parse_edge_list("pruned.txt")
    assert back.edge_array.tobytes() == pruned.edge_array.tobytes()
    assert back.direction_array.tobytes() == pruned.direction_array.tobytes()
    for path, solve in (("ls.txt", solve_ls_spectral), ("irls.txt", solve_irls_lud)):
        locs, _ = parse_locations(path)
        est = solve(pruned).locations
        assert locs.vertices.tobytes() == est.vertices.tobytes()
        assert locs.coords.tobytes() == est.coords.tobytes()
    # the evaluate stage aligned the IRLS estimate
    _, _, aligned = align_similarity(est, gt.locations)
    report = json.loads(Path("eval-full/errors.json").read_text())
    assert (report["mean_error"], report["median_error"]) == location_errors(aligned, gt.locations)


class TestOutputsNameOneFile:
    def test_generate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run(
            "generate", "--n", 20, "--p", 0.5, "--q", 0.2, "--sigma", 0.05, "--seed", 1,
            "--out-edges", "a.txt", "--out-locations", tmp_path / "a.txt",
            "--out-labels", "l.csv",
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --out-edges and --out-locations name the same file\n")
        assert list(tmp_path.iterdir()) == []

    def test_screen(self, generated, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "s.csv"
        code = run(
            "screen", "--edges", generated["edges"], "--stat", "ir", "--seed", 1,
            "--out", out, "--per-iteration", tmp_path / "." / "s.csv",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --out and --per-iteration name the same file\n"
        )
        assert not out.exists()

    def test_filter_may_write_over_its_input(self, generated, tmp_path):
        stats = tmp_path / "stats.csv"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive", "--seed", 1,
            "--out", stats,
        ) == 0
        before = parse_edge_list(str(generated["edges"])).num_edges
        assert run(
            "filter", "--edges", generated["edges"], "--stats", stats,
            "--out", generated["edges"],
        ) == 0
        assert 0 < parse_edge_list(str(generated["edges"])).num_edges < before


def run_fresh(code: str, *argv) -> str:
    """Run ``code`` in a fresh interpreter that imports this aabscreen;
    returns its stdout."""
    env = dict(os.environ)
    src = str(Path(aabscreen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


class TestNoStageLoadsScipy:
    """No module of the package imports scipy, so no stage pays its import;
    the robust solve inverts its Laplacian with numpy."""

    SOLVE_AND_REPORT = (
        "import sys; from aabscreen.cli import main; "
        "code = main(sys.argv[1:]); print(code, 'scipy' in sys.modules)"
    )

    def test_bare_solvers_import(self):
        out = run_fresh("import sys, aabscreen.solvers; print('scipy' in sys.modules)")
        assert out.split() == ["False"]

    def test_evaluate_stage(self, generated, tmp_path):
        stats = tmp_path / "stats.csv"
        estimate = tmp_path / "estimate.txt"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 1, "--out", stats,
        ) == 0
        assert run("solve", "--edges", generated["edges"], "--solver", "ls", "--out", estimate) == 0
        out = run_fresh(
            self.SOLVE_AND_REPORT,
            "evaluate", "--edges", generated["edges"], "--stats", stats,
            "--labels", generated["labels"], "--estimate", estimate,
            "--ground-truth", generated["locations"], "--out-dir", tmp_path / "eval",
        )
        assert out.splitlines()[-1].split() == ["0", "False"]
        assert (tmp_path / "eval" / "errors.json").exists()

    @pytest.mark.parametrize("solver", ["ls", "irls"])
    def test_solve_stage(self, generated, tmp_path, solver):
        out = run_fresh(
            self.SOLVE_AND_REPORT,
            "solve", "--edges", generated["edges"], "--solver", solver,
            "--out", tmp_path / "estimate.txt",
        )
        assert out.splitlines()[-1].split() == ["0", "False"]


class TestNonFiniteParameters:
    """A non-finite parameter is rejected with a one-line message naming it."""

    def one_line_error(self, capsys, code, named):
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_generate_sigma(self, tmp_path, capsys, sigma):
        code = run(
            "generate", "--n", 10, "--p", 0.5, "--q", 0.2, "--sigma", sigma, "--seed", 1,
            "--out-edges", tmp_path / "e.txt", "--out-locations", tmp_path / "l.txt",
            "--out-labels", tmp_path / "b.csv",
        )
        self.one_line_error(capsys, code, "sigma must be finite")
        assert list(tmp_path.iterdir()) == []

    def test_filter_threshold(self, generated, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 1, "--out", stats,
        ) == 0
        capsys.readouterr()
        code = run(
            "filter", "--edges", generated["edges"], "--stats", stats,
            "--threshold", "nan", "--out", tmp_path / "pruned.txt",
        )
        self.one_line_error(capsys, code, "threshold must not be NaN")
        assert not (tmp_path / "pruned.txt").exists()

    @pytest.mark.parametrize("baseline", ["0", "-1", "nan", "inf"])
    def test_evaluate_baseline_error_is_usage_error(self, generated, tmp_path, capsys, baseline):
        stats = tmp_path / "stats.csv"
        outdir = tmp_path / "eval"
        assert run(
            "screen", "--edges", generated["edges"], "--stat", "naive",
            "--seed", 1, "--out", stats,
        ) == 0
        capsys.readouterr()
        code = run(
            "evaluate", "--edges", generated["edges"], "--stats", stats,
            "--labels", generated["labels"], "--estimate", generated["locations"],
            "--ground-truth", generated["locations"], "--baseline-error", baseline,
            "--out-dir", outdir,
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --baseline-error must be finite and > 0\n"
        assert not outdir.exists()

    def test_json_report_rejects_nan(self, tmp_path):
        from aabscreen.fileio import write_json_report

        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_json_report({"value": float("nan")}, str(path))
        assert not path.exists()


class TestOutOfMemory:
    """A header whose n needs more memory than the process may have fails in
    one line.  Each stage runs in a child whose address space is capped at
    4 GiB, so the 16 GiB allocation fails at once instead of being
    overcommitted; without the cap the test does not run."""

    LIMIT = 4 << 30

    @classmethod
    def run_capped(cls, *argv) -> subprocess.CompletedProcess:
        resource = pytest.importorskip("resource")

        def cap():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            limit = cls.LIMIT if hard == resource.RLIM_INFINITY else min(cls.LIMIT, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        src = str(Path(aabscreen.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import resource, sys; from aabscreen.cli import main; "
            f"assert 0 < resource.getrlimit(resource.RLIMIT_AS)[0] <= {cls.LIMIT}; "
            "sys.exit(main(sys.argv[1:]))"
        )
        return subprocess.run(
            [sys.executable, "-c", code, *map(str, argv)],
            env=env, capture_output=True, text=True, preexec_fn=cap, timeout=120,
        )

    @pytest.fixture
    def huge(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("# aab-edges v1 n=2147483647\n0 1 1 0 0\n0 2 0 1 0\n1 2 0 0 1\n")
        return path

    @pytest.mark.parametrize(
        "stage",
        [
            ["screen", "--stat", "naive", "--seed", 1],
            ["solve", "--solver", "ls"],
        ],
        ids=["screen", "solve-ls"],
    )
    def test_huge_header_fails_in_one_line(self, huge, tmp_path, stage):
        out = tmp_path / "out.txt"
        proc = self.run_capped(stage[0], "--edges", huge, *stage[1:], "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Unable to allocate" in proc.stderr
        assert not out.exists()
