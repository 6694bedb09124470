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
from .graph import MAX_VERTICES, ViewGraph, first_fault, match_edge_rows, pair_checks, repeats
from .sphere import UNIT_NORM_TOL

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


# the messages of graph.pair_checks, formatted with the row's ids
_PAIR_MESSAGES = (
    "edge ({i}, {j}) violates i < j",
    "vertex pair ({i}, {j}) out of range for n={n}",
    "duplicate edge ({i}, {j})",
)


def _is_int(token: str) -> bool:
    """An optional minus and digits, as the writers emit ids, flags and
    counts; Python's int() would also take a plus sign, underscores and
    surrounding blanks.  Files are ASCII, so isdigit() means 0-9."""
    return (token[1:] if token[:1] == "-" else token).isdigit()


def _convert(kind, tokens):
    """``kind`` (int, float or str) of each token, and the mask of those it
    rejects, which read as ``kind(0)``.  Ints come as an int64 array, or as
    an object array if one does not fit; such an id or flag fails its range
    or 0/1 check."""
    values, bad = [], np.zeros(len(tokens), dtype=bool)
    for k, token in enumerate(tokens):
        try:
            if kind is int and not _is_int(token):
                raise ValueError(token)
            values.append(kind(token))
        except ValueError:
            values.append(kind(0))
            bad[k] = True
    if kind is int:
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:
            values = np.array(values, dtype=object)
    return values, bad


class _Reader:
    """A file with a checked header, read into named columns and checked row
    by row; a fault raises ``FileFormatError`` with the path and line."""

    def __init__(self, path: str, header: str):
        self.path = path
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            self.lines = data.decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            # the appended character closes the last, possibly empty, line
            lineno = len((data[: exc.start].decode("ascii") + "x").splitlines())
            self.fail(lineno, f"non-ASCII byte 0x{data[exc.start]:02x}")
        first = self.lines[0] if self.lines else ""
        # the version must match whole: "v1" does not accept "v10"
        if not first.startswith(header) or first[len(header) :][:1].strip():
            self.fail(1, f"expected header {header!r}")
        # the count is a whole token; a negative one gets a range message
        counts = [t[2:] for t in first[len(header) :].split() if t[:2] == "n=" and _is_int(t[2:])]
        if not counts:
            self.fail(1, "header is missing n=<count>")
        self.n = n = int(counts[0])
        if n < 2:
            self.fail(1, f"header n={n}: need at least 2 vertices")
        if n > MAX_VERTICES:
            self.fail(1, f"header n={n}: need at most {MAX_VERTICES} vertices")

    def fail(self, lineno: int, msg: str):
        raise FileFormatError(f"{self.path}:{lineno}: {msg}")

    def rows(self, sep: str | None, unparsed: str, skip: str | None = None, **kinds) -> dict:
        """Columns of the data lines (neither blank, nor '#' comments, nor
        ``skip``) split on ``sep``, named and converted by ``kinds``.  A line
        with the wrong field count, or a token its kind rejects, reads as
        zeros: ``check`` reports these faults first, the second as
        ``unparsed``, and formats its messages from the returned dict, to
        which a caller may add columns."""
        width = len(kinds)
        self.linenos, widths, rows = [], [], []
        for lineno, line in enumerate(self.lines[1:], start=2):
            line = line.strip()
            if line and line[0] != "#" and line != skip:
                parts = line.split(sep)
                self.linenos.append(lineno)
                widths.append(len(parts))
                rows.append(parts if len(parts) == width else ["0"] * width)
        self.cols = {"fields": widths}
        bad = np.zeros(len(rows), dtype=bool)
        for (name, kind), tokens in zip(kinds.items(), list(zip(*rows)) or [()] * width):
            self.cols[name], rejected = _convert(kind, tokens)
            bad |= rejected
        unit = "fields" if sep is None else "columns"
        self.checks = [
            (np.array(widths) != width, f"expected {width} {unit}, got {{fields}}"),
            (bad, unparsed),
        ]
        return self.cols

    def check(self, *checks, **names) -> None:
        """Fail at the earliest row that fails one of ``checks``, (mask,
        message) pairs in the order a row is checked, with the message of
        the first it fails, formatted from the row, ``n`` and ``names``."""
        masks, messages = zip(*self.checks, *checks)
        fault = first_fault(masks)
        if fault is not None:
            r, k = fault
            row = {name: col[r] for name, col in self.cols.items()}
            self.fail(self.linenos[r], messages[k].format(n=self.n, **names, **row))


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
    """Read a view graph; on the first faulty line, the first of: field
    count, tokens, i < j, id range, repeated pair, finite direction, unit
    norm."""
    rd = _Reader(path, _EDGE_HEADER)
    unparsed = "could not parse vertex ids or direction components"
    c = rd.rows(None, unparsed, i=int, j=int, x=float, y=float, z=float)
    d = np.stack([c["x"], c["y"], c["z"]], axis=1)
    norms = np.linalg.norm(d, axis=1)
    c["norm"] = norms.tolist()
    rd.check(
        *zip(pair_checks(rd.n, c["i"], c["j"]), _PAIR_MESSAGES),
        (~np.isfinite(d).all(axis=1), "direction has a non-finite component"),
        (
            np.abs(norms - 1.0) > UNIT_NORM_TOL,
            "direction norm {norm!r} deviates from 1 by more than {tol}",
        ),
        tol=UNIT_NORM_TOL,
    )
    return ViewGraph.from_arrays(rd.n, c["i"], c["j"], d / norms[:, None])


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
    """Read vertex locations; on the first faulty line, the first of: field
    count, tokens, finite coordinates, id range, repeated vertex."""
    rd = _Reader(path, _LOC_HEADER)
    c = rd.rows(None, "could not parse vertex id or coordinates", v=int, x=float, y=float, z=float)
    t = np.stack([c["x"], c["y"], c["z"]], axis=1)
    v = c["v"]
    in_range = (v >= 0) & (v < rd.n)
    rd.check(
        (~np.isfinite(t).all(axis=1), "location of vertex {v} has a non-finite coordinate"),
        (~in_range, "vertex {v} out of range for n={n}"),
        (repeats(v, in_range), "vertex {v} appears more than once"),
    )
    return dict(zip(v.tolist(), t)), rd.n


# -- statistics and labels ----------------------------------------------------


def _parse_edge_table(path: str, header: str, columns: str, flag_skips_value: bool):
    """The (m, 2) pairs, values (NaN where skipped) and flags of the rows
    "i,j,value,flag" of a statistics or labels file, sorted by pair.

    On the first faulty line, reports the first of: column count, tokens,
    i < j, id range, repeated pair, a flag other than 0 or 1 and, unless the
    flag is set and ``flag_skips_value``, the value token and a finite value.
    """
    rd = _Reader(path, header)
    _, _, what, flag_name = columns.split(",")
    c = rd.rows(",", "could not parse row", columns, i=int, j=int, value=str, flag=int)
    i, j, flag = c["i"], c["j"], c["flag"]
    value, bad_value = _convert(float, c["value"])
    skipped = (flag == 1) & flag_skips_value
    value = np.where(skipped, np.nan, value)
    rd.check(
        *zip(pair_checks(rd.n, i, j), _PAIR_MESSAGES),
        (
            (flag != 0) & (flag != 1),
            "{flag_name} flag of edge ({i}, {j}) must be 0 or 1, got {flag}",
        ),
        (bad_value & ~skipped, "could not parse {what} value"),
        (~np.isfinite(value) & ~skipped, "{what} of edge ({i}, {j}) is not finite"),
        what=what,
        flag_name=flag_name,
    )
    order = np.lexsort((j, i))
    return np.stack([i, j], axis=1)[order], value[order], flag.astype(bool)[order]


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
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, [text])
