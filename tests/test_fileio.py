"""Round-trip and validation tests of the text file formats."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aabscreen.aabstats import AABConfig, ir_aab, naive_aab
from aabscreen.evaluation import label_edges
from aabscreen.fileio import (
    FileFormatError,
    parse_edge_list,
    parse_labels,
    parse_locations,
    parse_statistics,
    write_edge_list,
    write_labels,
    write_locations,
    write_statistics,
)
from aabscreen.graph import ViewGraph
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
        assert sorted(locs) == sorted(gt.locations)
        worst = max(np.abs(locs[v] - gt.locations[v]).max() for v in locs)
        assert worst == 0.0

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
