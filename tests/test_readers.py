"""Diagnostics of the four file readers: the exact ``path:line: message`` of
every check, and random malformed input that must never escape as anything
but ``FileFormatError``."""

from __future__ import annotations

import contextlib
import io
import math
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aabscreen.cli import main
from aabscreen.fileio import (
    FileFormatError,
    parse_edge_list,
    parse_labels,
    parse_locations,
    parse_statistics,
)

HUGE = "99999999999999999999"

PARSERS = {
    "edges": (parse_edge_list, "# aab-edges v1 n=5"),
    "locations": (parse_locations, "# aab-locations v1 n=3"),
    "stats": (parse_statistics, "# aab-stats v1 n=3\ni,j,statistic,unsupported"),
    "labels": (parse_labels, "# aab-labels v1 n=3\ni,j,angle,corrupted"),
}

# (format, data lines after the header, line reported, message)
MESSAGES = [
    # edge lists: fields, token, order, range, duplicate, finite, norm
    ("edges", ["0 1 1 0"], 2, "expected 5 fields, got 4"),
    ("edges", ["0 1 1 0 0 0"], 2, "expected 5 fields, got 6"),
    ("edges", ["0 x 1 0 0"], 2, "could not parse vertex ids or direction components"),
    ("edges", ["0 1 1 0 zz"], 2, "could not parse vertex ids or direction components"),
    ("edges", ["0.0 1 1 0 0"], 2, "could not parse vertex ids or direction components"),
    ("edges", ["3 3 1 0 0"], 2, "edge (3, 3) violates i < j"),
    ("edges", ["2 1 1 0 0"], 2, "edge (2, 1) violates i < j"),
    ("edges", [f"{HUGE} 1 1 0 0"], 2, f"edge ({HUGE}, 1) violates i < j"),
    ("edges", ["0 7 1 0 0"], 2, "vertex pair (0, 7) out of range for n=5"),
    ("edges", ["-1 2 1 0 0"], 2, "vertex pair (-1, 2) out of range for n=5"),
    ("edges", [f"0 {HUGE} 1 0 0"], 2, f"vertex pair (0, {HUGE}) out of range for n=5"),
    ("edges", [f"-{HUGE} 0 1 0 0"], 2, f"vertex pair (-{HUGE}, 0) out of range for n=5"),
    ("edges", [f"{HUGE} 1{HUGE} 1 0 0"], 2, f"vertex pair ({HUGE}, 1{HUGE}) out of range for n=5"),
    ("edges", ["0 1 1 0 0", "0 1 0 1 0"], 3, "duplicate edge (0, 1)"),
    ("edges", ["0 1 nan 0 0"], 2, "direction has a non-finite component"),
    ("edges", ["0 1 0 -inf 0"], 2, "direction has a non-finite component"),
    ("edges", ["0 1 2 0 0"], 2, "direction norm 2.0 deviates from 1 by more than 1e-06"),
    ("edges", ["0 1 0 0 0"], 2, "direction norm 0.0 deviates from 1 by more than 1e-06"),
    ("edges", ["0 1 0.6 0.8 0", "1 2 1.00001 0 0"], 3,
     "direction norm 1.00001 deviates from 1 by more than 1e-06"),
    # comments and blank lines count toward the line number
    ("edges", ["# note", "", "  0 1 2 0 0  "], 4,
     "direction norm 2.0 deviates from 1 by more than 1e-06"),
    # the earliest faulty line wins, whatever its check
    ("edges", ["0 1 1 0 0", "0 2 nan 0 0", "0 3 1 0", "3 1 1 0 0"], 3,
     "direction has a non-finite component"),
    ("edges", ["0 1 1 0 0", "0 2 2 0 0", "0 1 0 1 0"], 3,
     "direction norm 2.0 deviates from 1 by more than 1e-06"),
    ("edges", ["0 1 1 0 0", "0 1 0 1 0", "0 2 nan 0 0"], 3, "duplicate edge (0, 1)"),
    ("edges", ["0 1 1 0 0", "0 7 1 0 0", "0 2 2 0 0"], 3, "vertex pair (0, 7) out of range for n=5"),
    ("edges", ["0 1 1 0", "0 2 nan 0 0"], 2, "expected 5 fields, got 4"),
    ("edges", ["0 2 nan 0 0", "0 1 1 0"], 2, "direction has a non-finite component"),
    # and on one line the first check in order
    ("edges", ["3 3 nan 0 0"], 2, "edge (3, 3) violates i < j"),
    ("edges", ["0 9 2 0 0"], 2, "vertex pair (0, 9) out of range for n=5"),
    ("edges", ["0 1 2 0 0", "0 1 nan 0 0"], 2, "direction norm 2.0 deviates from 1 by more than 1e-06"),
    # locations: fields, token, finite, range, duplicate
    ("locations", ["0 1 2"], 2, "expected 4 fields, got 3"),
    ("locations", ["x 1 2 3"], 2, "could not parse vertex id or coordinates"),
    ("locations", ["0 1 2 y"], 2, "could not parse vertex id or coordinates"),
    ("locations", ["0 1 2 3", "1 4 nan 6"], 3, "location of vertex 1 has a non-finite coordinate"),
    ("locations", ["7 inf 0 0"], 2, "location of vertex 7 has a non-finite coordinate"),
    ("locations", ["3 0 0 0"], 2, "vertex 3 out of range for n=3"),
    ("locations", ["-1 0 0 0"], 2, "vertex -1 out of range for n=3"),
    ("locations", [f"{HUGE} 0 0 0"], 2, f"vertex {HUGE} out of range for n=3"),
    ("locations", ["0 1 2 3", "0 4 5 6"], 3, "vertex 0 appears more than once"),
    ("locations", ["0 1 2 3", "5 0 0 0", "0 4 5 6"], 3, "vertex 5 out of range for n=3"),
    # statistics: columns, token, order, range, duplicate, flag, value, finite
    ("stats", ["0,1,0.5"], 3, "expected 4 columns, got 3"),
    ("stats", ["0 1 0.5 0"], 3, "expected 4 columns, got 1"),
    ("stats", ["0,x,0.5,0"], 3, "could not parse row"),
    ("stats", ["0,1,0.5,yes"], 3, "could not parse row"),
    ("stats", ["1,0,0.5,0"], 3, "edge (1, 0) violates i < j"),
    ("stats", ["0,3,0.5,0"], 3, "vertex pair (0, 3) out of range for n=3"),
    ("stats", [f"0,{HUGE},0.5,0"], 3, f"vertex pair (0, {HUGE}) out of range for n=3"),
    ("stats", ["0,1,0.5,0", "0,1,0.25,0"], 4, "duplicate edge (0, 1)"),
    ("stats", ["0,1,0.5,0", "0,1,0.25,7"], 4, "duplicate edge (0, 1)"),
    ("stats", ["0,1,0.5,7"], 3, "unsupported flag of edge (0, 1) must be 0 or 1, got 7"),
    ("stats", [f"0,1,0.5,{HUGE}"], 3, f"unsupported flag of edge (0, 1) must be 0 or 1, got {HUGE}"),
    ("stats", ["0,1,abc,7"], 3, "unsupported flag of edge (0, 1) must be 0 or 1, got 7"),
    ("stats", ["0,1,abc,0"], 3, "could not parse statistic value"),
    ("stats", ["0,1,inf,0"], 3, "statistic of edge (0, 1) is not finite"),
    ("stats", ["0,1,abc,1", "0,2,-nan,0"], 4, "statistic of edge (0, 2) is not finite"),
    # labels: the same checks; the angle is checked on every row
    ("labels", ["0,1,0.5,1,0"], 3, "expected 4 columns, got 5"),
    ("labels", ["0,1,0.5,-"], 3, "could not parse row"),
    ("labels", ["2,2,0.5,0"], 3, "edge (2, 2) violates i < j"),
    ("labels", ["-1,2,0.5,0"], 3, "vertex pair (-1, 2) out of range for n=3"),
    ("labels", ["0,1,0.5,1", "0,1,0.1,0"], 4, "duplicate edge (0, 1)"),
    ("labels", ["0,1,0.5,2"], 3, "corrupted flag of edge (0, 1) must be 0 or 1, got 2"),
    ("labels", ["0,1,0.5,-1"], 3, "corrupted flag of edge (0, 1) must be 0 or 1, got -1"),
    ("labels", ["0,1,abc,1"], 3, "could not parse angle value"),
    ("labels", ["0,1,nan,1"], 3, "angle of edge (0, 1) is not finite"),
    ("labels", ["0,1,0.5,0", "i,j,angle,corrupted", "0,2,-inf,0"], 5,
     "angle of edge (0, 2) is not finite"),
    # ids and flags are an optional minus and digits, nothing else
    ("edges", ["0 1_0 +1 0_0 -0"], 2, "could not parse vertex ids or direction components"),
    ("edges", ["+0 1 1 0 0"], 2, "could not parse vertex ids or direction components"),
    ("edges", ["0 1 1 0 0", "0 2_0 1 0 0"], 3, "could not parse vertex ids or direction components"),
    ("locations", ["+1 0 0 0"], 2, "could not parse vertex id or coordinates"),
    ("locations", ["1_0 0 0 0"], 2, "could not parse vertex id or coordinates"),
    ("stats", ["0, 1,0.5,0"], 3, "could not parse row"),
    ("stats", ["0,1,0.5,+1"], 3, "could not parse row"),
    ("labels", ["0,1,0.5,1_0"], 3, "could not parse row"),
    ("labels", ["0,--1,0.5,0"], 3, "could not parse row"),
]


def write(tmp_path, text: str):
    path = tmp_path / "in.txt"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("fmt, lines, where, message", MESSAGES)
def test_message(tmp_path, fmt, lines, where, message):
    parse, header = PARSERS[fmt]
    path = write(tmp_path, header + "\n" + "\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as exc:
        parse(path)
    assert str(exc.value) == f"{path}:{where}: {message}"


@pytest.mark.parametrize(
    "fmt, header, message",
    [
        ("edges", "0 1 1 0 0", "expected header '# aab-edges v1'"),
        ("edges", "", "expected header '# aab-edges v1'"),
        ("locations", "# aab-edges v1 n=3", "expected header '# aab-locations v1'"),
        ("stats", "# aab-stats v1", "header is missing n=<count>"),
        ("labels", "# aab-labels v1 n=three", "header is missing n=<count>"),
        ("edges", "# aab-edges v1 n=1", "header n=1: need at least 2 vertices"),
        # the count is one whole n=<digits> token
        ("edges", "# aab-edges v1 xn=12", "header is missing n=<count>"),
        ("locations", "# aab-locations v1 n=+3", "header is missing n=<count>"),
        ("stats", "# aab-stats v1 n=1_0", "header is missing n=<count>"),
        ("labels", "# aab-labels v1 n=3x", "header is missing n=<count>"),
        ("edges", "# aab-edges v1 n= 5", "header is missing n=<count>"),
    ],
)
def test_header_message(tmp_path, fmt, header, message):
    parse, _ = PARSERS[fmt]
    path = write(tmp_path, header + "\n")
    with pytest.raises(FileFormatError) as exc:
        parse(path)
    assert str(exc.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("fmt", list(PARSERS))
def test_header_version_must_match_exactly(tmp_path, fmt):
    parse, header = PARSERS[fmt]
    expected = header.split(" n=")[0]
    path = write(tmp_path, header.replace(" v1 ", " v10 ", 1) + "\n")
    with pytest.raises(FileFormatError) as exc:
        parse(path)
    assert str(exc.value) == f"{path}:1: expected header {expected!r}"


@pytest.mark.parametrize("fmt", list(PARSERS))
def test_header_count_beyond_the_bound(tmp_path, fmt):
    # only the header's count is checked: no graph this large is ever built
    parse, header = PARSERS[fmt]
    path = write(tmp_path, re.sub(r"n=\d+", f"n={10**20}", header, count=1) + "\n")
    with pytest.raises(FileFormatError) as exc:
        parse(path)
    assert str(exc.value) == f"{path}:1: header n={10**20}: need at most 2147483647 vertices"


def test_parsed_values(tmp_path):
    path = write(
        tmp_path,
        "# aab-edges v1 n=4 seed=1\n"
        "2 3 0.6 -0.8 0\n0 1 1.0000001 0 0\n\n# skipped\n1 2 0 0 -1\n",
    )
    g = parse_edge_list(path)
    assert g.edge_array.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert g.direction_array.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.6, -0.8, 0.0]]

    path = write(tmp_path, "# aab-locations v1 n=4\n3 1 2 3\n0 -0.0 5e-324 1e308\n")
    locs, n = parse_locations(path)
    assert n == 4 and list(locs) == [3, 0]
    assert locs[3].tolist() == [1.0, 2.0, 3.0] and locs[0].tolist() == [-0.0, 5e-324, 1e308]

    path = write(
        tmp_path,
        "# aab-stats v1 n=4\ni,j,statistic,unsupported\n2,3,0.5,0\n0,2,garbage,1\n0,1, 0.25 ,0\n",
    )
    stats = parse_statistics(path)
    assert stats.edge_array.tolist() == [[0, 1], [0, 2], [2, 3]]
    assert np.array_equal(stats.value, [0.25, math.nan, 0.5], equal_nan=True)

    path = write(tmp_path, "# aab-labels v1 n=3\ni,j,angle,corrupted\n1,2,0.5,1\n0,1,0.1,0\n")
    labels = parse_labels(path)
    assert labels.edge_array.tolist() == [[0, 1], [1, 2]]
    assert labels.angle.tolist() == [0.1, 0.5] and labels.corrupted.tolist() == [False, True]


# -- random malformed input ---------------------------------------------------

# one well-formed row per format; the fuzzer perturbs copies of it
GOOD_ROW = {
    "edges": ["0", "1", "0.6", "0.8", "0"],
    "locations": ["0", "1.5", "-2", "0"],
    "stats": ["0", "1", "0.5", "0"],
    "labels": ["0", "1", "0.5", "1"],
}
TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "7", HUGE, "-" + HUGE, "0.5", "1.0000001", "-0.0", "nan", "-inf",
     "1e999", "5e-324", "x", "", " ", "+1", "1_0", "0x1", "#", "i", "n=3"]
)
HEADERS = ["{h} n=4", "{h} n=1", "{h} n=2", "{h}0 n=4", "{h} n=", "{h}", "{h} n=" + HUGE,
           "{h} n=-" + HUGE, "{h} n=4e0", "n=4", ""]


@st.composite
def rows(draw, fmt):
    row = list(GOOD_ROW[fmt])
    ids = 1 if fmt == "locations" else 2
    row[:ids] = draw(st.lists(st.sampled_from("01234"), min_size=ids, max_size=ids))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["replace", "insert", "drop"]))
        if edit == "insert":
            row.insert(k, draw(TOKENS))
        elif row and k < len(row):
            if edit == "replace":
                row[k] = draw(TOKENS)
            else:
                del row[k]
    sep = " " if fmt in ("edges", "locations") else ","
    return draw(st.sampled_from([sep, sep, "\t", " , "])).join(row)


@st.composite
def files(draw):
    fmt = draw(st.sampled_from(list(PARSERS)))
    parse, header = PARSERS[fmt]
    head = draw(st.sampled_from(HEADERS)).format(h=header.split(" n=")[0])
    body = draw(st.lists(st.one_of(rows(fmt), st.sampled_from(["", "# c"])), max_size=6))
    data = "\n".join([head, *header.split("\n")[1:], *body]).encode("ascii")
    cut = draw(st.integers(0, len(data)))
    tail = draw(st.binary(max_size=3))
    return parse, draw(st.sampled_from([data, data, data[:cut], data[:cut] + tail]))


def parses_or_names_its_line(parse, path):
    try:
        parse(str(path))
    except FileFormatError as exc:
        assert re.fullmatch(rf"{re.escape(str(path))}:[1-9][0-9]*: [^\n]+", str(exc))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(case=files())
def test_random_input_parses_or_names_its_line(tmp_path_factory, case):
    parse, data = case
    path = tmp_path_factory.mktemp("fuzz") / "in.txt"
    path.write_bytes(data)
    parses_or_names_its_line(parse, path)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.binary(max_size=64), text=st.text(string.printable, max_size=64))
def test_random_bytes_parse_or_name_their_line(tmp_path_factory, data, text):
    path = tmp_path_factory.mktemp("fuzz") / "in.txt"
    for content in (data, text.encode("ascii")):
        for parse, header in PARSERS.values():
            for prefix in (b"", header.encode("ascii") + b"\n"):
                path.write_bytes(prefix + content)
                parses_or_names_its_line(parse, path)


@pytest.mark.parametrize(
    "content",
    [
        f"# aab-edges v1 n={10**20}\n",
        "# aab-edges v10 n=3\n0 1 1 0 0\n",
        f"# aab-edges v1 n=3\n0 {HUGE} 1 0 0\n",
        f"# aab-edges v1 n=3\n{HUGE} 1{HUGE} 1 0 0\n",
        "# aab-edges v1 n=3\n0 1 1e999 0 0\n",
    ],
    ids=["huge_n", "version", "huge_id", "two_huge_ids", "overflowing_float"],
)
def test_cli_rejects_malformed_edges_with_one_line(tmp_path, content):
    edges = tmp_path / "edges.txt"
    edges.write_text(content)
    out = tmp_path / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["screen", "--edges", str(edges), "--stat", "naive", "--seed", "1",
                     "--out", str(out)])
    assert code == 1
    assert re.fullmatch(rf"error: {re.escape(str(edges))}:[12]: [^\n]+\n", err.getvalue())
    assert not out.exists()
