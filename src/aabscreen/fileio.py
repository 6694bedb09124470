"""Text file formats for graphs, locations, statistics, and labels.

All formats are line-oriented ASCII with '#' comment lines; the first line
is a versioned header.  Floats are written with 17 significant digits so a
round trip preserves the value to the last bit.
Every writer goes through ``_write``: a temp file and an atomic rename, so a
failed run never leaves a partial output behind.
"""

from __future__ import annotations

import json
import math
import os
import string
from collections import namedtuple
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .aabstats import EdgeStatistics
from .evaluation import EdgeLabels, HistogramCounts, RocCurve
from .graph import (
    MAX_VERTICES, Locations, ViewGraph, first_fault, match_edge_rows, pair_checks, repeats,
)
from .sphere import UNIT_NORM_TOL, unit_rows

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

# an "i,j,value,flag" file: its header, its column line, the plural noun of
# its coverage message, and whether a set flag skips the value
_EdgeTable = namedtuple("_EdgeTable", "header columns name flag_skips_value")

_STATS = _EdgeTable("# aab-stats v1", "i,j,statistic,unsupported", "statistics", True)
_LABELS = _EdgeTable("# aab-labels v1", "i,j,angle,corrupted", "labels", False)


class FileFormatError(ValueError):
    """Malformed input file; the message carries path and line number."""


def _escape(text: str) -> str:
    r"""``text`` with each character outside printable ASCII (0x20-0x7e) as
    its Python escape, such as \xe9 or \n."""
    return "".join(c if " " <= c <= "~" else c.encode("unicode_escape").decode() for c in text)


def _write(path: str, header: str, metadata: Mapping | None, *parts: Iterable[str]) -> None:
    """Write the ``header`` line, one "# key=value" line per ``metadata``
    entry, escaped so that it stays one ASCII line, then the lines of each
    of ``parts``; through a temp file renamed over ``path``.  A failure of
    the file system is raised naming ``path``, not the temp file."""
    meta = (f"# {_escape(f'{key}={value}')}" for key, value in (metadata or {}).items())
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            for line in chain([header], meta, *parts):
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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


def _is_plain(text: str) -> bool:
    """No underscore and no blank (``string.whitespace``), which Python's
    float() takes inside or around a number and no writer emits."""
    return not any(c in text for c in "_" + string.whitespace)


def _convert(kind, tokens):
    """``kind`` (int, float or str) of each token, and the mask of those it
    rejects, which read as ``kind(0)``.  Ints come as an int64 array, or as
    an object array if one does not fit; such an id or flag fails its range
    or 0/1 check."""
    values, bad = [], np.zeros(len(tokens), dtype=bool)
    # one scan of all float tokens; only a file that fails it pays for
    # testing each token
    loose = kind is float and not _is_plain("".join(tokens))
    for k, token in enumerate(tokens):
        try:
            if (kind is int and not _is_int(token)) or (loose and not _is_plain(token)):
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
    rows = zip(g.edge_array.tolist(), g.direction_array.tolist())
    lines = ("%d %d %.17g %.17g %.17g" % (i, j, x, y, z) for (i, j), (x, y, z) in rows)
    _write(path, f"{_EDGE_HEADER} n={g.n}", metadata, lines)


def parse_edge_list(path: str) -> ViewGraph:
    """Read a view graph; on the first faulty line, the first of: field
    count, tokens, i < j, id range, repeated pair, finite direction, unit
    norm."""
    rd = _Reader(path, _EDGE_HEADER)
    unparsed = "could not parse vertex ids or direction components"
    c = rd.rows(None, unparsed, i=int, j=int, x=float, y=float, z=float)
    d = np.stack([c["x"], c["y"], c["z"]], axis=1)
    _, norms, unit = unit_rows(d)
    c["norm"] = norms.tolist()
    rd.check(
        *zip(pair_checks(rd.n, c["i"], c["j"]), _PAIR_MESSAGES),
        (~np.isfinite(d).all(axis=1), "direction has a non-finite component"),
        (~unit, "direction norm {norm!r} deviates from 1 by more than {tol}"),
        tol=UNIT_NORM_TOL,
    )
    # the graph normalizes the directions, as it does those given in memory
    return ViewGraph.from_arrays(rd.n, c["i"], c["j"], d)


# -- locations ---------------------------------------------------------------


def write_locations(
    locations: Locations, n: int, path: str, metadata: Mapping[str, object] | None = None
) -> None:
    """Write "v x y z" lines in vertex order."""
    rows = zip(locations.vertices.tolist(), locations.coords.tolist())
    lines = ("%d %.17g %.17g %.17g" % (v, x, y, z) for v, (x, y, z) in rows)
    _write(path, f"{_LOC_HEADER} n={n}", metadata, lines)


def parse_locations(path: str) -> tuple[Locations, int]:
    """Read vertex locations, sorted by vertex; on the first faulty line, the
    first of: field count, tokens, finite coordinates, id range, repeated vertex."""
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
    order = np.argsort(v)
    return Locations(v[order], t[order]), rd.n


# -- statistics and labels ----------------------------------------------------


def _write_edge_table(table, g, edge_array, value, flag, path, metadata) -> None:
    """One row "i,j,value,flag" per edge of ``g``, from the rows of
    ``edge_array``; a NaN value is written "nan"."""
    rows = match_edge_rows(edge_array, g.edge_array, f"{table.name} do not cover edge {{}}")
    cells = zip(g.edge_array.tolist(), value[rows].tolist(), flag[rows].tolist())
    lines = ("%d,%d,%.17g,%d" % (i, j, v, f) for (i, j), v, f in cells)
    _write(path, f"{table.header} n={g.n}", metadata, [table.columns], lines)


def _parse_edge_table(path: str, table: _EdgeTable):
    """The (m, 2) pairs, values (NaN where skipped) and flags of the rows
    "i,j,value,flag" of ``table``, sorted by pair.

    On the first faulty line, reports the first of: column count, tokens,
    i < j, id range, repeated pair, a flag other than 0 or 1 and, unless the
    flag is set and skips the value, the value token and a finite value.
    """
    rd = _Reader(path, table.header)
    _, _, what, flag_name = table.columns.split(",")
    c = rd.rows(",", "could not parse row", table.columns, i=int, j=int, value=str, flag=int)
    i, j, flag = c["i"], c["j"], c["flag"]
    value, bad_value = _convert(float, c["value"])
    skipped = (flag == 1) & table.flag_skips_value
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
    g: ViewGraph, stats: EdgeStatistics, path: str, metadata: Mapping[str, object] | None = None
) -> None:
    """One row per edge of ``g``: "i,j,statistic,unsupported"."""
    value = stats.value
    _write_edge_table(_STATS, g, stats.edge_array, value, np.isnan(value), path, metadata)


def write_per_iteration(
    g: ViewGraph, stats: EdgeStatistics, path: str, metadata: Mapping[str, object] | None = None
) -> None:
    """Rows "t,i,j,value" of every kept round, supported edges only.

    Writes the header alone when ``stats`` kept no rounds.
    """
    edges = stats.edge_array.tolist()
    rounds = () if stats.per_iteration is None else stats.per_iteration
    lines = (
        "%d,%d,%d,%.17g" % (t, i, j, v)
        for t, vals in enumerate(rounds)
        for (i, j), v in zip(edges, vals.tolist())
        if not math.isnan(v)
    )
    _write(path, f"# aab-stats-periter v1 n={g.n}", metadata, ["t,i,j,value"], lines)


def parse_statistics(path: str) -> EdgeStatistics:
    """Read a statistics file; rows come back in canonical edge order."""
    edge_array, value, _ = _parse_edge_table(path, _STATS)
    return EdgeStatistics(edge_array=edge_array, value=value)


def write_labels(
    g: ViewGraph, labels: EdgeLabels, path: str, metadata: Mapping[str, object] | None = None
) -> None:
    """One row per edge of ``g``: "i,j,angle,corrupted"."""
    edge_array = labels.edge_array
    _write_edge_table(_LABELS, g, edge_array, labels.angle, labels.corrupted, path, metadata)


def parse_labels(path: str) -> EdgeLabels:
    """Read a labels file; rows come back in canonical edge order."""
    edge_array, angle, corrupted = _parse_edge_table(path, _LABELS)
    return EdgeLabels(edge_array=edge_array, angle=angle, corrupted=corrupted)


# -- evaluation outputs (write-only) ------------------------------------------


def write_roc_csv(roc: RocCurve, path: str, metadata: Mapping[str, object] | None = None) -> None:
    rows = zip(roc.thresholds.tolist(), roc.fpr.tolist(), roc.tpr.tolist())
    lines = ("%.17g,%.17g,%.17g" % row for row in rows)
    auc = "# auc=NA" if roc.auc is None else "# auc=%.17g" % roc.auc
    _write(path, "# aab-roc v1", metadata, ["threshold,fpr,tpr"], lines, [auc])


def write_histogram_csv(
    hist: HistogramCounts, path: str, metadata: Mapping[str, object] | None = None
) -> None:
    edges = hist.bin_edges.tolist()
    rows = zip(edges, edges[1:], hist.corrupted.tolist(), hist.uncorrupted.tolist())
    lines = ("%.17g,%.17g,%d,%d" % row for row in rows)
    _write(path, "# aab-hist v1", metadata, ["bin_left,bin_right,corrupted,uncorrupted"], lines)


def write_json_report(payload: dict, path: str) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), None)
