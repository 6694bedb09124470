"""Text file formats for graphs, locations, statistics, and labels.

All formats are line-oriented ASCII with '#' comment lines; the first line
is a versioned header.  Floats are written with 17 significant digits so a
round trip preserves the value to the last bit before renormalization.
Writers go through a temp file and an atomic rename: a failed run never
leaves a partial output behind.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Mapping

import numpy as np

from .aabstats import EdgeStatistics
from .evaluation import EdgeLabels, HistogramCounts, RocCurve
from .graph import ViewGraph, match_edge_rows

__all__ = [
    "FileFormatError",
    "write_edge_list",
    "parse_edge_list",
    "write_locations",
    "parse_locations",
    "write_statistics",
    "parse_statistics",
    "write_per_iteration",
    "write_labels",
    "parse_labels",
    "write_roc_csv",
    "write_histogram_csv",
    "write_json_report",
]

_EDGE_HEADER = "# aab-edges v1"
_LOC_HEADER = "# aab-locations v1"
_STAT_HEADER = "# aab-stats v1"
_LABEL_HEADER = "# aab-labels v1"

_NORM_REJECT_TOL = 1e-6


class FileFormatError(ValueError):
    """Malformed input file; the message carries path and line number."""


def _atomic_write(path: str, lines: Iterable[str]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _metadata_lines(metadata: Mapping[str, object] | None) -> list[str]:
    if not metadata:
        return []
    return [f"# {key}={metadata[key]}" for key in metadata]


class _Reader:
    """Line iterator with error context; skips blank and comment lines."""

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            self.lines = data.decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            # the appended character closes the last, possibly empty, line
            lineno = len((data[: exc.start].decode("ascii") + "x").splitlines())
            self.fail(lineno, f"non-ASCII byte 0x{data[exc.start]:02x}")

    def fail(self, lineno: int, msg: str):
        raise FileFormatError(f"{self.path}:{lineno}: {msg}")

    def check_header(self, expected: str):
        if not self.lines or not self.lines[0].startswith(expected):
            raise FileFormatError(f"{self.path}:1: expected header {expected!r}")
        try:
            n = int(self.lines[0].split("n=")[1].split()[0])
        except (IndexError, ValueError):
            raise FileFormatError(f"{self.path}:1: header is missing n=<count>") from None
        if n < 2:
            self.fail(1, f"header n={n}: need at least 2 vertices")
        return n

    def data_lines(self):
        for lineno, line in enumerate(self.lines[1:], start=2):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped


# -- edge lists --------------------------------------------------------------


def write_edge_list(g: ViewGraph, path: str, metadata: Mapping[str, object] | None = None) -> None:
    """Write "i j gx gy gz" lines in canonical order."""
    lines = [f"{_EDGE_HEADER} n={g.n}"]
    lines += _metadata_lines(metadata)
    lines += [
        "%d %d %.17g %.17g %.17g" % (i, j, x, y, z)
        for (i, j), (x, y, z) in zip(g.edge_array.tolist(), g.direction_array.tolist())
    ]
    _atomic_write(path, lines)


def parse_edge_list(path: str) -> ViewGraph:
    """Read a view graph, validating ids, uniqueness, and direction norms.

    Field counts, ids and uniqueness are checked line by line, the direction
    checks (finite components, unit norm) afterwards as array operations over
    the lines read; the error reported is the first in file order either way.
    """
    rd = _Reader(path)
    n = rd.check_header(_EDGE_HEADER)
    linenos = []
    ids = []
    dirs = []
    seen = set()
    later = None
    try:
        for lineno, line in rd.data_lines():
            parts = line.split()
            if len(parts) != 5:
                rd.fail(lineno, f"expected 5 fields, got {len(parts)}")
            try:
                i, j = int(parts[0]), int(parts[1])
                d = tuple(map(float, parts[2:]))
            except ValueError:
                rd.fail(lineno, "could not parse vertex ids or direction components")
            if i >= j:
                rd.fail(lineno, f"edge ({i}, {j}) violates i < j")
            if not (0 <= i < n and j < n):
                rd.fail(lineno, f"vertex pair ({i}, {j}) out of range for n={n}")
            if (i, j) in seen:
                rd.fail(lineno, f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            linenos.append(lineno)
            ids.append((i, j))
            dirs.extend(d)
    except FileFormatError as exc:
        # the lines before this one may still hold a bad direction
        later = exc

    d = np.array(dirs, dtype=np.float64).reshape(-1, 3)
    finite = np.isfinite(d).all(axis=1)
    norms = np.linalg.norm(d, axis=1)
    bad = np.flatnonzero(~finite | (np.abs(norms - 1.0) > _NORM_REJECT_TOL))
    if bad.size:
        k = bad[0]
        if not finite[k]:
            rd.fail(linenos[k], "direction has a non-finite component")
        rd.fail(
            linenos[k],
            f"direction norm {float(norms[k])!r} deviates from 1 by more than {_NORM_REJECT_TOL}",
        )
    if later is not None:
        raise later
    ij = np.array(ids, dtype=np.int64).reshape(-1, 2)
    return ViewGraph.from_arrays(n, ij[:, 0], ij[:, 1], d / norms[:, None])


# -- locations ---------------------------------------------------------------


def write_locations(
    locations: Mapping[int, np.ndarray],
    n: int,
    path: str,
    metadata: Mapping[str, object] | None = None,
) -> None:
    lines = [f"{_LOC_HEADER} n={n}"]
    lines += _metadata_lines(metadata)
    verts = sorted(locations)
    coords = np.array([locations[v] for v in verts], dtype=np.float64).reshape(-1, 3)
    lines += ["%d %.17g %.17g %.17g" % (v, x, y, z) for v, (x, y, z) in zip(verts, coords.tolist())]
    _atomic_write(path, lines)


def parse_locations(path: str) -> tuple[dict[int, np.ndarray], int]:
    rd = _Reader(path)
    n = rd.check_header(_LOC_HEADER)
    locs: dict[int, np.ndarray] = {}
    for lineno, line in rd.data_lines():
        parts = line.split()
        if len(parts) != 4:
            rd.fail(lineno, f"expected 4 fields, got {len(parts)}")
        try:
            v = int(parts[0])
            t = np.array([float(parts[1]), float(parts[2]), float(parts[3])])
        except ValueError:
            rd.fail(lineno, "could not parse vertex id or coordinates")
        if not np.isfinite(t).all():
            rd.fail(lineno, f"location of vertex {v} has a non-finite coordinate")
        if not 0 <= v < n:
            rd.fail(lineno, f"vertex {v} out of range for n={n}")
        if v in locs:
            rd.fail(lineno, f"vertex {v} appears more than once")
        locs[v] = t
    return locs, n


# -- statistics and labels ----------------------------------------------------


def _parse_edge_table(path: str, header: str, columns: str, flag_skips_value: bool):
    """Rows "i,j,value,flag" of a statistics or labels file, sorted by pair.

    Checks the column count, i < j, the vertex range, uniqueness of the
    pair, the 0/1 flag and, unless the flag is set and ``flag_skips_value``,
    a finite value.  Returns the (m, 2) pairs, the values (NaN where skipped)
    and the flags.
    """
    rd = _Reader(path)
    n = rd.check_header(header)
    _, _, what, flag_name = columns.split(",")
    ids, values, flags = [], [], []
    seen = set()
    for lineno, line in rd.data_lines():
        if line == columns:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            rd.fail(lineno, f"expected 4 columns, got {len(parts)}")
        try:
            i, j, flag = int(parts[0]), int(parts[1]), int(parts[3])
        except ValueError:
            rd.fail(lineno, "could not parse row")
        if i >= j:
            rd.fail(lineno, f"edge ({i}, {j}) violates i < j")
        if not (0 <= i < n and j < n):
            rd.fail(lineno, f"vertex pair ({i}, {j}) out of range for n={n}")
        if (i, j) in seen:
            rd.fail(lineno, f"duplicate edge {(i, j)}")
        if flag not in (0, 1):
            rd.fail(lineno, f"{flag_name} flag of edge {(i, j)} must be 0 or 1, got {flag}")
        seen.add((i, j))
        value = math.nan
        if not (flag and flag_skips_value):
            try:
                value = float(parts[2])
            except ValueError:
                rd.fail(lineno, f"could not parse {what} value")
            if not math.isfinite(value):
                rd.fail(lineno, f"{what} of edge {(i, j)} is not finite")
        ids.append((i, j))
        values.append(value)
        flags.append(flag)
    ij = np.array(ids, dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((ij[:, 1], ij[:, 0]))
    return ij[order], np.array(values, dtype=np.float64)[order], np.array(flags, dtype=bool)[order]


def write_statistics(
    g: ViewGraph,
    stats: EdgeStatistics,
    path: str,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """One row per edge of ``g``: "i,j,statistic,unsupported"."""
    rows = match_edge_rows(stats.edge_array, g.edge_array, "statistics do not cover edge {}")
    lines = [f"{_STAT_HEADER} n={g.n}"]
    lines += _metadata_lines(metadata)
    lines.append("i,j,statistic,unsupported")
    lines += [
        "%d,%d,nan,1" % (i, j) if math.isnan(v) else "%d,%d,%.17g,0" % (i, j, v)
        for (i, j), v in zip(g.edge_array.tolist(), stats.value[rows].tolist())
    ]
    _atomic_write(path, lines)


def write_per_iteration(
    g: ViewGraph,
    stats: EdgeStatistics,
    path: str,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Rows "t,i,j,value" of every kept round, supported edges only.

    Writes the header alone when ``stats`` kept no rounds.
    """
    lines = [f"# aab-stats-periter v1 n={g.n}"]
    lines += _metadata_lines(metadata)
    lines.append("t,i,j,value")
    edges = stats.edge_array.tolist()
    rounds = [] if stats.per_iteration is None else stats.per_iteration.tolist()
    for t, vals in enumerate(rounds):
        lines += [
            "%d,%d,%d,%.17g" % (t, i, j, v) for (i, j), v in zip(edges, vals) if not math.isnan(v)
        ]
    _atomic_write(path, lines)


def parse_statistics(path: str) -> EdgeStatistics:
    """Read a statistics file; rows come back in canonical edge order."""
    edge_array, value, _ = _parse_edge_table(
        path, _STAT_HEADER, "i,j,statistic,unsupported", flag_skips_value=True
    )
    return EdgeStatistics(edge_array=edge_array, value=value)


def write_labels(
    g: ViewGraph,
    labels: EdgeLabels,
    path: str,
    metadata: Mapping[str, object] | None = None,
) -> None:
    rows = match_edge_rows(labels.edge_array, g.edge_array, "labels do not cover edge {}")
    lines = [f"{_LABEL_HEADER} n={g.n}"]
    lines += _metadata_lines(metadata)
    lines.append("i,j,angle,corrupted")
    angle = labels.angle[rows].tolist()
    corrupted = labels.corrupted[rows].tolist()
    lines += [
        "%d,%d,%.17g,%d" % (i, j, a, c)
        for (i, j), a, c in zip(g.edge_array.tolist(), angle, corrupted)
    ]
    _atomic_write(path, lines)


def parse_labels(path: str) -> EdgeLabels:
    """Read a labels file; rows come back in canonical edge order."""
    edge_array, angle, corrupted = _parse_edge_table(
        path, _LABEL_HEADER, "i,j,angle,corrupted", flag_skips_value=False
    )
    return EdgeLabels(edge_array=edge_array, angle=angle, corrupted=corrupted)


# -- evaluation outputs (write-only) ------------------------------------------


def write_roc_csv(roc: RocCurve, path: str, metadata: Mapping[str, object] | None = None) -> None:
    lines = ["# aab-roc v1"]
    lines += _metadata_lines(metadata)
    lines.append("threshold,fpr,tpr")
    lines += [
        "%.17g,%.17g,%.17g" % row
        for row in zip(roc.thresholds.tolist(), roc.fpr.tolist(), roc.tpr.tolist())
    ]
    lines.append("# auc=NA" if roc.auc is None else "# auc=%.17g" % roc.auc)
    _atomic_write(path, lines)


def write_histogram_csv(
    hist: HistogramCounts, path: str, metadata: Mapping[str, object] | None = None
) -> None:
    lines = ["# aab-hist v1"]
    lines += _metadata_lines(metadata)
    lines.append("bin_left,bin_right,corrupted,uncorrupted")
    edges = hist.bin_edges.tolist()
    lines += [
        "%.17g,%.17g,%d,%d" % row
        for row in zip(edges, edges[1:], hist.corrupted.tolist(), hist.uncorrupted.tolist())
    ]
    _atomic_write(path, lines)


def write_json_report(payload: dict, path: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    _atomic_write(path, [text])
