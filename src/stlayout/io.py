"""Text and JSON serialization for graphs and drawings.

Graph text format (line oriented, ``#`` starts a comment):

    n s t
    u: v_a v_b v_c ...      # successors of u, clockwise, one line per vertex

JSON mirror: ``{"n": ..., "s": ..., "t": ..., "succ": [[...], ...]}``.
Both formats round-trip bit-exactly through parse/emit.

Drawing text format: one ``v x y`` line per vertex, then ``bend u v x y``
lines for the bent edges.
"""

from __future__ import annotations

import json
from itertools import chain

from .errors import GraphFormatError
from .graph import EmbeddedStGraph, build_graph
from .layout import GridDrawing


def graph_to_text(g: EmbeddedStGraph) -> str:
    lines = [f"{g.n} {g.s} {g.t}"]
    for u in range(g.n):
        row = " ".join(str(v) for v in g.succ[u])
        lines.append(f"{u}: {row}".rstrip())
    return "\n".join(lines) + "\n"


def _content_lines(text: str):
    """(line number, line) for each line not blank once its comment is
    cut.  ``int`` also reads ``+2``, ``0_2`` and non-ASCII digits, so such
    lines are rejected here, once per line rather than per token."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.isascii() or "+" in line or "_" in line:
            raise GraphFormatError(
                f"line {lineno}: numbers must be ASCII decimal integers")
        yield lineno, line


def graph_from_text(text: str) -> EmbeddedStGraph:
    header = None
    rows: dict[int, list[int]] = {}
    for lineno, line in _content_lines(text):
        if header is None:
            parts = line.split()
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: header must be 'n s t'")
            try:
                header = tuple(int(p) for p in parts)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad header") from None
            continue
        if ":" not in line:
            raise GraphFormatError(f"line {lineno}: expected 'u: ...'")
        left, right = line.split(":", 1)
        try:
            u = int(left)
            row = [int(x) for x in right.split()]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad vertex line") from None
        if u in rows:
            raise GraphFormatError(f"line {lineno}: duplicate vertex {u}")
        rows[u] = row
    if header is None:
        raise GraphFormatError("empty graph file")
    n, s, t = header
    if n > len(rows) + 1:
        # every vertex except t has successors, hence a line of its own
        raise GraphFormatError(
            f"header declares {n} vertices but only {len(rows)} vertex "
            f"lines follow")
    if n < 0 or any(u < 0 or u >= n for u in rows):
        raise GraphFormatError("vertex id out of range")
    succ = [rows.get(u, []) for u in range(n)]
    return build_graph(n, s, t, succ)


def graph_to_json(g: EmbeddedStGraph) -> str:
    return json.dumps({"n": g.n, "s": g.s, "t": g.t,
                       "succ": [list(r) for r in g.succ]})


def graph_from_json(text: str) -> EmbeddedStGraph:
    try:
        obj = json.loads(text)
        n, s, t, succ = obj["n"], obj["s"], obj["t"], obj["succ"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise GraphFormatError(
            f"bad JSON graph: {type(exc).__name__}: {exc}") from None
    if not (isinstance(succ, list)
            and all(isinstance(row, list) for row in succ)):
        raise GraphFormatError("bad JSON graph: succ must be a list of lists")
    for value in (n, s, t, *chain.from_iterable(succ)):
        if type(value) is not int:  # a bool, float, string or null
            raise GraphFormatError(
                f"bad JSON graph: n, s, t and successors must be integers, "
                f"got {type(value).__name__}")
    return build_graph(n, s, t, succ)


def read_text(path: str) -> str:
    """The contents of the UTF-8 file ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(
            f"{path}, line {line}: not UTF-8 ({exc.reason})") from None


def load_graph(path: str) -> EmbeddedStGraph:
    text = read_text(path)
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return graph_from_text(text)


def drawing_to_text(g: EmbeddedStGraph, d: GridDrawing) -> str:
    lines = [f"{v} {x} {y}" for v, (x, y) in enumerate(d.coords[:g.n])]
    for e, (bx, by) in d.bend_points:
        lines.append(f"bend {g.tail[e]} {g.head[e]} {bx} {by}")
    return "\n".join(lines) + "\n"


def drawing_from_text(text: str, g: EmbeddedStGraph) -> GridDrawing:
    coords: dict[int, tuple[int, int]] = {}
    bends: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, line in _content_lines(text):
        parts = line.split()
        try:
            if parts[0] == "bend":
                u, v, x, y = (int(p) for p in parts[1:])
                key, seen, what = (u, v), bends, "bend on"
            else:
                v, x, y = (int(p) for p in parts)
                key, seen, what = v, coords, "vertex"
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad drawing line") from None
        if key in seen:
            raise GraphFormatError(f"line {lineno}: duplicate {what} {key}")
        seen[key] = (x, y)
    if sorted(coords) != list(range(g.n)):
        raise GraphFormatError("drawing must assign every vertex exactly once")
    cs = tuple(coords[v] for v in range(g.n))
    paths = []
    for e in range(g.m):
        u, v = g.tail[e], g.head[e]
        bend = bends.pop((u, v), None)
        paths.append((cs[u], cs[v]) if bend is None else (cs[u], bend, cs[v]))
    if bends:
        u, v = next(iter(bends))
        raise GraphFormatError(f"bend on ({u}, {v}), which is not an edge")
    return GridDrawing(coords=cs, edge_paths=tuple(paths))
