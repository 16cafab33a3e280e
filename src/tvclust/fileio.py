"""Text formats for time-varying graphs and label sequences.

Graph file: header `tvg 1 N T`, then one line `t i j w` per edge, ascending t,
then i < j. Labels file: header `lbl 1 N T K`, then T lines of N integers.
UTF-8, LF line endings; floats are written with round-tripping repr.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .clustering import LabelSequence
from .graphs import TVGraphSequence, WeightedGraph

TVG_MAGIC = "tvg"
LBL_MAGIC = "lbl"
FORMAT_VERSION = 1

_EDGE_DTYPE = np.dtype([("t", np.int64), ("i", np.int64), ("j", np.int64), ("w", np.float64)])


def write_lines(path, lines) -> None:
    """Write the lines as UTF-8, each ended by LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_tvg(path, seq: TVGraphSequence) -> None:
    lines = [f"{TVG_MAGIC} {FORMAT_VERSION} {seq.n} {seq.t_len}"]
    # adding object arrays of strings builds the lines faster than one f-string
    # per edge; node ids with their trailing space are formatted once per file
    ids = np.array([f"{v} " for v in range(seq.n)], dtype=object)
    for t, g in enumerate(seq.graphs):
        i, j, w = g.edge_arrays()
        # weights repeat, so each distinct bit pattern (-0.0 apart from 0.0) is
        # formatted once
        bits, which = np.unique(w.view(np.int64), return_inverse=True)
        text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
        lines.extend((f"{t} " + ids[i] + ids[j] + text[which]).tolist())
    write_lines(path, lines)


def _named(parse, path):
    """parse(text of path), with the path in front of any ValueError it raises."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _header(line: str, magic: str, size: int, what: str) -> list[int]:
    """The integers after the version in a header line of `size` words that
    starts with `magic`."""
    head = line.split()
    try:
        if len(head) != size or head[0] != magic:
            raise ValueError
        fields = [int(x) for x in head[1:]]
    except ValueError:
        raise ValueError(f"bad {what} header {line!r}") from None
    if fields[0] != FORMAT_VERSION:
        raise ValueError(f"unsupported {what} format version {fields[0]}")
    return fields[1:]


def _parse_tvg(text: str) -> TVGraphSequence:
    head_line, _, body = text.lstrip().partition("\n")
    if not head_line:
        raise ValueError("empty graph file")
    n, t_len = _header(head_line, TVG_MAGIC, 4, "graph")
    if body and not body.isspace():
        try:
            rows = np.loadtxt(io.StringIO(body), dtype=_EDGE_DTYPE, comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"bad edge line: {exc}") from exc
    else:
        rows = np.empty(0, dtype=_EDGE_DTYPE)
    out_of_range = (rows["t"] < 0) | (rows["t"] >= t_len)
    if out_of_range.any():
        raise ValueError(f"frame index {rows['t'][out_of_range][0]} out of range")
    # a stable sort keeps each frame's edges in file order
    rows = rows[np.argsort(rows["t"], kind="stable")]
    bounds = np.searchsorted(rows["t"], np.arange(t_len + 1)).tolist()
    edges = np.column_stack((rows["i"], rows["j"], rows["w"]))
    return TVGraphSequence(
        tuple(WeightedGraph(n, edges[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))
    )


def read_tvg(path) -> TVGraphSequence:
    return _named(_parse_tvg, path)


def write_labels(path, ls: LabelSequence) -> None:
    lines = [f"{LBL_MAGIC} {FORMAT_VERSION} {ls.n} {ls.t_len} {ls.k}"]
    lines.extend(" ".join(str(x) for x in row.tolist()) for row in ls.labels)
    write_lines(path, lines)


def _parse_labels(text: str) -> LabelSequence:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ValueError("empty labels file")
    n, t_len, k = _header(lines[0], LBL_MAGIC, 5, "labels")
    if len(lines) - 1 != t_len:
        raise ValueError(f"expected {t_len} label rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [int(x) for x in ln.split()]
        if len(row) != n:
            raise ValueError(f"expected {n} labels per row, got {len(row)}")
        rows.append(row)
    return LabelSequence(np.asarray(rows, dtype=np.int64), k)


def read_labels(path) -> LabelSequence:
    return _named(_parse_labels, path)
