"""Round-trip and validation tests of the text file formats."""

from __future__ import annotations

import numpy as np
import pytest

from aabscreen.aabstats import AABConfig, naive_aab
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
        assert back.unsupported == stats.unsupported
        assert set(back.values) == set(stats.values)
        assert len(back.edges) == g.num_edges
        worst = max(abs(back.values[e] - stats.values[e]) for e in stats.values)
        assert worst == 0.0

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


class TestLabels:
    def test_round_trip(self, instance, tmp_path):
        g, gt = instance
        labels = label_edges(g, gt, sigma=0.05)
        path = str(tmp_path / "labels.csv")
        write_labels(g, labels, path, metadata={"sigma": 0.05})
        back = parse_labels(path)
        assert back.corrupted == labels.corrupted
        worst = max(abs(back.angle[e] - labels.angle[e]) for e in labels.angle)
        assert worst == 0.0
        assert back.generator_corrupted is None
