"""Round-trip and validation tests of the text file formats."""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aabscreen.aabstats import AABConfig, EdgeStatistics, ir_aab, naive_aab
from aabscreen.evaluation import EdgeLabels, HistogramCounts, RocCurve, label_edges
from aabscreen.fileio import (
    FileFormatError,
    parse_edge_list,
    parse_labels,
    parse_locations,
    parse_statistics,
    write_edge_list,
    write_histogram_csv,
    write_labels,
    write_locations,
    write_per_iteration,
    write_roc_csv,
    write_statistics,
)
from aabscreen.graph import Locations, ViewGraph
from aabscreen.synthetic import UCParams, generate_uc


@pytest.fixture
def instance():
    return generate_uc(UCParams(n=50, p=0.5, q=0.2, sigma=0.05, seed=31))


class TestEdgeList:
    def test_round_trip(self, instance, tmp_path):
        g, _ = instance
        path = str(tmp_path / "edges.txt")
        write_edge_list(g, path, metadata={"seed": 31})
        back = parse_edge_list(path)
        assert back.n == g.n
        assert back.edges() == g.edges()
        assert np.abs(back.direction_array - g.direction_array).max() <= 1e-12

    def test_self_loop_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# aab-edges v1 n=5\n3 3 1 0 0\n")
        with pytest.raises(FileFormatError, match=r"bad.txt:2.*i < j"):
            parse_edge_list(str(path))

    def test_norm_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# aab-edges v1 n=5\n0 1 2 0 0\n")
        with pytest.raises(FileFormatError, match="norm"):
            parse_edge_list(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_direction(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"# aab-edges v1 n=5\n0 1 1 0 0\n0 2 {bad} 0 0\n")
        with pytest.raises(FileFormatError, match=r"bad.txt:3: .*non-finite"):
            parse_edge_list(str(path))

    def test_duplicate_edge(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# aab-edges v1 n=5\n0 1 1 0 0\n0 1 0 1 0\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            parse_edge_list(str(path))

    @pytest.mark.parametrize(
        "lines, where, what",
        [
            # a bad direction, checked over all lines at once, comes before
            # a fault a line-by-line check finds
            (["0 1 1 0 0", "0 2 nan 0 0", "0 3 1 0", "3 1 1 0 0"], 3, "non-finite"),
            (["0 1 1 0 0", "0 2 2 0 0", "0 1 0 1 0"], 3, "norm"),
            # and the other way round
            (["0 1 1 0 0", "0 1 0 1 0", "0 2 nan 0 0"], 3, "duplicate"),
            (["0 1 1 0 0", "0 7 1 0 0", "0 2 2 0 0"], 3, "out of range"),
        ],
    )
    def test_earliest_fault_is_reported(self, tmp_path, lines, where, what):
        path = tmp_path / "bad.txt"
        path.write_text("# aab-edges v1 n=5\n" + "\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=rf"bad.txt:{where}: .*{what}"):
            parse_edge_list(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# aab-edges v1 n=5\n0 1 1 0\n")
        with pytest.raises(FileFormatError, match=r"bad.txt:2"):
            parse_edge_list(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 1 0 0\n")
        with pytest.raises(FileFormatError, match="header"):
            parse_edge_list(str(path))

    def test_no_partial_output(self, instance, tmp_path):
        g, _ = instance
        target = tmp_path / "missing-dir" / "edges.txt"
        with pytest.raises(OSError):
            write_edge_list(g, str(target))
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestLocations:
    def test_round_trip(self, instance, tmp_path):
        _, gt = instance
        path = str(tmp_path / "locs.txt")
        write_locations(gt.locations, 50, path)
        locs, n = parse_locations(path)
        assert n == 50
        assert np.array_equal(locs.vertices, gt.locations.vertices)
        assert np.array_equal(locs.coords, gt.locations.coords)

    def test_out_of_order_file_reads_sorted(self, tmp_path):
        rng = np.random.default_rng(4)
        verts = rng.choice(1000, size=200, replace=False)
        coords = rng.normal(size=(200, 3))
        path = tmp_path / "shuffled.txt"
        rows = [f"{v} {x!r} {y!r} {z!r}" for v, (x, y, z) in zip(verts.tolist(), coords.tolist())]
        path.write_text("\n".join(["# aab-locations v1 n=1000", *rows]) + "\n")
        locs, n = parse_locations(str(path))
        order = np.argsort(verts)
        assert n == 1000
        assert np.array_equal(locs.vertices, verts[order])
        assert np.array_equal(locs.coords, coords[order])

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# aab-locations v1 n=3\n0 1 2 3\n1 4 nan 6\n")
        with pytest.raises(FileFormatError, match=r"bad.txt:3: .*non-finite"):
            parse_locations(str(path))

    def test_duplicate_vertex(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# aab-locations v1 n=3\n0 1 2 3\n0 4 5 6\n")
        with pytest.raises(FileFormatError, match="more than once"):
            parse_locations(str(path))


class TestStatistics:
    def test_round_trip_with_unsupported(self, tmp_path):
        g, _ = generate_uc(UCParams(n=30, p=0.25, q=0.2, sigma=0.0, seed=7))
        stats = naive_aab(g, AABConfig(s=10, seed=1))
        path = str(tmp_path / "stats.csv")
        write_statistics(g, stats, path, metadata={"stat": "naive"})
        back = parse_statistics(path)
        assert np.isnan(stats.value).any()
        assert np.array_equal(back.edge_array, g.edge_array)
        assert np.array_equal(back.value, stats.value, equal_nan=True)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_supported_value(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"# aab-stats v1 n=3\ni,j,statistic,unsupported\n0,1,nan,1\n0,2,{bad},0\n"
        )
        with pytest.raises(FileFormatError, match=r"bad.csv:4: .*not finite"):
            parse_statistics(str(path))

    def test_duplicate_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# aab-stats v1 n=3\ni,j,statistic,unsupported\n0,1,0.5,0\n0,1,0.25,0\n"
        )
        with pytest.raises(FileFormatError, match="duplicate"):
            parse_statistics(str(path))

    def test_flag_other_than_zero_or_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# aab-stats v1 n=3\ni,j,statistic,unsupported\n0,1,0.5,0\n0,2,nan,7\n")
        with pytest.raises(FileFormatError, match=r"bad.csv:4: .*must be 0 or 1, got 7"):
            parse_statistics(str(path))

    def test_vertex_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# aab-stats v1 n=3\ni,j,statistic,unsupported\n0,3,0.5,0\n")
        with pytest.raises(FileFormatError, match=r"bad.csv:3: .*out of range for n=3"):
            parse_statistics(str(path))

    def test_rows_come_back_in_canonical_order(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text(
            "# aab-stats v1 n=4\ni,j,statistic,unsupported\n2,3,0.5,0\n0,2,nan,1\n0,1,0.25,0\n"
        )
        back = parse_statistics(str(path))
        assert back.edge_array.tolist() == [[0, 1], [0, 2], [2, 3]]
        assert np.array_equal(back.value, [0.25, np.nan, 0.5], equal_nan=True)


class TestLabels:
    def test_round_trip(self, instance, tmp_path):
        g, gt = instance
        labels = label_edges(g, gt, sigma=0.05)
        path = str(tmp_path / "labels.csv")
        write_labels(g, labels, path, metadata={"sigma": 0.05})
        back = parse_labels(path)
        assert np.array_equal(back.edge_array, g.edge_array)
        assert np.array_equal(back.corrupted, labels.corrupted)
        assert np.array_equal(back.angle, labels.angle)
        assert back.generator_corrupted is None

    def test_duplicate_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# aab-labels v1 n=3\ni,j,angle,corrupted\n0,1,0.5,1\n0,1,0.1,0\n")
        with pytest.raises(FileFormatError, match=r"bad.csv:4: duplicate edge \(0, 1\)"):
            parse_labels(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_angle(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"# aab-labels v1 n=3\ni,j,angle,corrupted\n0,1,0.5,1\n0,2,{bad},0\n")
        with pytest.raises(FileFormatError, match=r"bad.csv:4: .*not finite"):
            parse_labels(str(path))

    @pytest.mark.parametrize("flag", ["2", "-1"])
    def test_flag_other_than_zero_or_one(self, tmp_path, flag):
        path = tmp_path / "bad.csv"
        path.write_text(f"# aab-labels v1 n=3\ni,j,angle,corrupted\n0,1,0.5,{flag}\n")
        with pytest.raises(FileFormatError, match=r"bad.csv:3: .*must be 0 or 1"):
            parse_labels(str(path))


# each format's header and one well-formed data line
PARSERS = {
    "edges": (parse_edge_list, "# aab-edges v1", "0 1 1 0 0"),
    "locations": (parse_locations, "# aab-locations v1", "0 1 0 0"),
    "stats": (parse_statistics, "# aab-stats v1", "0,1,0.5,0"),
    "labels": (parse_labels, "# aab-labels v1", "0,1,0.5,0"),
}


@pytest.mark.parametrize("fmt", ["stats", "labels"])
@pytest.mark.parametrize("pair", ["1,0", "2,2"])
def test_edge_table_rejects_pair_out_of_order(tmp_path, fmt, pair):
    parse, header, line = PARSERS[fmt]
    path = tmp_path / "bad.txt"
    path.write_text(f"{header} n=3\n{line}\n{pair},0.5,0\n")
    i, j = pair.split(",")
    with pytest.raises(FileFormatError, match=rf"bad.txt:3: edge \({i}, {j}\) violates i < j"):
        parse(str(path))


@pytest.mark.parametrize("fmt", list(PARSERS))
class TestMalformedFiles:
    def test_non_ascii_byte(self, tmp_path, fmt):
        parse, header, line = PARSERS[fmt]
        path = tmp_path / "bad.txt"
        path.write_bytes(f"{header} n=3\n{line}\n".encode() + b"0 2 \xff\n")
        with pytest.raises(FileFormatError, match=r"bad.txt:3: non-ASCII byte 0xff"):
            parse(str(path))

    def test_non_ascii_line_counts_blank_lines(self, tmp_path, fmt):
        parse, header, line = PARSERS[fmt]
        path = tmp_path / "bad.txt"
        path.write_bytes(f"{header} n=3\r\n{line}\r\n\r\n".encode() + b"\xe9")
        with pytest.raises(FileFormatError, match=r"bad.txt:4: non-ASCII byte 0xe9"):
            parse(str(path))

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_header_count_below_two(self, tmp_path, fmt, n):
        parse, header, line = PARSERS[fmt]
        path = tmp_path / "bad.txt"
        path.write_text(f"{header} n={n}\n{line}\n")
        with pytest.raises(FileFormatError, match=rf"bad.txt:1: header n={n}: need at least 2"):
            parse(str(path))


class TestEdgeRowOrder:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=30),
        p=st.floats(min_value=0.2, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_outputs_ignore_input_row_order(self, n, p, seed):
        # the same measurements given in a shuffled row order, some rows
        # reversed with negated directions, write the same bytes
        g, gt = generate_uc(UCParams(n=n, p=p, q=0.3, sigma=0.05, seed=seed))
        rng = np.random.default_rng(seed)
        perm = rng.permutation(g.num_edges)
        flip = rng.random(g.num_edges) < 0.5
        i, j = g.edge_array[perm, 0], g.edge_array[perm, 1]
        d = g.direction_array[perm] * np.where(flip, -1.0, 1.0)[:, None]
        shuffled = ViewGraph.from_arrays(n, np.where(flip, j, i), np.where(flip, i, j), d)
        cfg = AABConfig(s=7, T=3, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            for name, write in (
                ("naive", lambda h, path: write_statistics(h, naive_aab(h, cfg), path)),
                ("ir", lambda h, path: write_statistics(h, ir_aab(h, cfg), path)),
                ("labels", lambda h, path: write_labels(h, label_edges(h, gt, 0.05), path)),
            ):
                paths = [os.path.join(tmp, f"{name}-{k}.csv") for k in range(2)]
                write(g, paths[0])
                write(shuffled, paths[1])
                with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                    assert a.read() == b.read(), name


def g17(v: float) -> str:
    return format(v, ".17g")


# values whose 17-digit form is easy to get wrong: a signed zero, the
# smallest subnormal, a value near the top of the range, an inexact decimal
AWKWARD = [-0.0, 5e-324, 1e308, 0.1]


class TestWriterBytes:
    """Every float a writer emits reads exactly ``format(v, ".17g")``."""

    @staticmethod
    def data_lines(path) -> list[str]:
        return [line for line in path.read_text().splitlines() if not line.startswith("#")]

    def test_edge_list(self, tmp_path):
        d = np.array([[-0.0, 0.6, 0.8], [5e-324, 1.0, 0.0], [0.1, math.sqrt(0.99), -0.0]])
        g = ViewGraph.from_arrays(4, [0, 0, 1], [1, 2, 3], d)
        assert np.signbit(g.direction_array[0, 0]) and g.direction_array[1, 0] == 5e-324
        path = tmp_path / "edges.txt"
        write_edge_list(g, str(path))
        assert self.data_lines(path) == [
            f"{i} {j} {g17(x)} {g17(y)} {g17(z)}"
            for (i, j), (x, y, z) in zip(g.edge_array.tolist(), g.direction_array.tolist())
        ]

    def test_locations(self, tmp_path):
        path = tmp_path / "locations.txt"
        write_locations(Locations(np.array([0, 3]), np.array([AWKWARD[:3], AWKWARD[1:]])), 5, str(path))
        assert self.data_lines(path) == [
            f"0 {g17(-0.0)} {g17(5e-324)} {g17(1e308)}",
            f"3 {g17(5e-324)} {g17(1e308)} {g17(0.1)}",
        ]

    def test_statistics_and_rounds(self, tmp_path):
        values = AWKWARD + [math.nan]
        edge_array = np.array([[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]])
        g = ViewGraph.from_arrays(4, *edge_array.T, np.tile([1.0, 0, 0], (5, 1)))
        stats = EdgeStatistics(
            edge_array=edge_array,
            value=np.array(values),
            per_iteration=np.array([values, values[::-1]]),
        )
        path = tmp_path / "stats.csv"
        write_statistics(g, stats, str(path))
        expected = [f"{i},{j},{g17(v)},0" for (i, j), v in zip(edge_array.tolist(), AWKWARD)]
        assert self.data_lines(path) == ["i,j,statistic,unsupported", *expected, "2,3,nan,1"]
        path = tmp_path / "rounds.csv"
        write_per_iteration(g, stats, str(path))
        rounds = [
            f"{t},{i},{j},{g17(v)}"
            for t, vals in enumerate([values, values[::-1]])
            for (i, j), v in zip(edge_array.tolist(), vals)
            if not math.isnan(v)
        ]
        assert self.data_lines(path) == ["t,i,j,value", *rounds]

    def test_labels(self, tmp_path):
        edge_array = np.array([[0, 1], [0, 2], [1, 2], [1, 3]])
        g = ViewGraph.from_arrays(4, *edge_array.T, np.tile([1.0, 0, 0], (4, 1)))
        labels = EdgeLabels(edge_array=edge_array, angle=np.array(AWKWARD),
                            corrupted=np.array([True, False, True, False]))
        path = tmp_path / "labels.csv"
        write_labels(g, labels, str(path))
        expected = [f"{i},{j},{g17(a)},{c}" for (i, j), a, c in
                    zip(edge_array.tolist(), AWKWARD, [1, 0, 1, 0])]
        assert self.data_lines(path) == ["i,j,angle,corrupted", *expected]

    def test_roc_and_histogram(self, tmp_path):
        roc = RocCurve(thresholds=np.array([math.inf, 1e308, 0.1, -0.0]),
                       fpr=np.array([0.0, 5e-324, 0.1, 1.0]),
                       tpr=np.array([-0.0, 0.1, 0.1, 1.0]), auc=0.1)
        path = tmp_path / "roc.csv"
        write_roc_csv(roc, str(path))
        lines = path.read_text().splitlines()
        assert lines[-1] == f"# auc={g17(0.1)}"
        assert self.data_lines(path) == ["threshold,fpr,tpr"] + [
            f"{g17(a)},{g17(b)},{g17(c)}" for a, b, c in zip(roc.thresholds, roc.fpr, roc.tpr)
        ]
        edges = [-0.0, 5e-324, 0.1, 1.0, 1e308]
        hist = HistogramCounts(bin_edges=np.array(edges), corrupted=np.array([3, 0, 7, 1]),
                               uncorrupted=np.array([0, 2, 0, 5]))
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, str(path))
        assert self.data_lines(path) == ["bin_left,bin_right,corrupted,uncorrupted"] + [
            f"{g17(lo)},{g17(hi)},{c},{u}"
            for lo, hi, c, u in zip(edges, edges[1:], [3, 0, 7, 1], [0, 2, 0, 5])
        ]


class TestMetadata:
    """Each metadata entry is one "# key=value" line of printable ASCII:
    any other character is written as its Python escape."""

    # the ASCII characters at which str.splitlines, and so the readers, end a line
    BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e"

    def written(self, instance, tmp_path, value) -> list[str]:
        g, _ = instance
        path = tmp_path / "edges.txt"
        write_edge_list(g, str(path), metadata={"source": value, "seed": 1})
        assert np.array_equal(parse_edge_list(str(path)).edge_array, g.edge_array)
        return path.read_text(encoding="ascii").splitlines()[1:3]

    def test_line_breaks_stay_one_comment_line(self, instance, tmp_path):
        ascii_chars = map(chr, range(128))
        assert self.BREAKS == "".join(c for c in ascii_chars if len(f"a{c}b".splitlines()) > 1)
        lines = self.written(instance, tmp_path, f"a{self.BREAKS}b")
        assert lines == [r"# source=a\n\x0b\x0c\r\x1c\x1d\x1eb", "# seed=1"]

    def test_non_ascii_is_escaped(self, instance, tmp_path):
        lines = self.written(instance, tmp_path, "donn\xe9es/\x7f\u2028\U0001f600")
        assert lines == [r"# source=donn\xe9es/\x7f\u2028\U0001f600", "# seed=1"]

    def test_printable_ascii_keeps_its_bytes(self, instance, tmp_path):
        printable = "".join(map(chr, range(0x20, 0x7F)))
        assert self.written(instance, tmp_path, printable) == [f"# source={printable}", "# seed=1"]
