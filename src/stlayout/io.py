"""Text and JSON serialization for graphs and drawings.

Graph text format (line oriented, ``#`` starts a comment):

    n s t
    u: v_a v_b v_c ...      # successors of u, clockwise, one line per vertex

JSON mirror: ``{"n": ..., "s": ..., "t": ..., "succ": [[...], ...]}``.
Both formats round-trip bit-exactly through parse/emit.

Drawing text format: one ``v x y`` line per vertex, then ``bend u v x y``
lines for the bent edges.  They are read into and written from the
drawing's columns, one node per line.
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat

from .errors import GraphFormatError
from .graph import EmbeddedStGraph, _gather, _gc_paused, build_graph
from .layout import GridDrawing, _mismatch


def graph_to_text(g: EmbeddedStGraph) -> str:
    head, starts = g.head, g.out_start
    lines = [f"{g.n} {g.s} {g.t}"]
    for u, (a, b) in enumerate(zip(starts, starts[1:])):
        row = " ".join(map(str, head[a:b]))
        lines.append(f"{u}: {row}".rstrip())
    return "\n".join(lines) + "\n"


def _content_lines(text: str):
    """(line number, line) for each line not blank once its comment is
    cut.  ``int`` also reads ``+2``, ``0_2`` and non-ASCII digits, so such
    lines are rejected here, once per line rather than per token.  A text
    with no ``#``, ``+``, ``_`` or non-ASCII character, such as every text
    this module writes, has nothing to cut or reject: one test covers it."""
    lines = enumerate(text.splitlines(), 1)
    if text.isascii() and not ("#" in text or "+" in text or "_" in text):
        return ((lineno, line) for lineno, raw in lines
                if (line := raw.strip()))
    return _cut_and_checked(lines)


def _cut_and_checked(lines):
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.isascii() or "+" in line or "_" in line:
            raise GraphFormatError(
                f"line {lineno}: numbers must be ASCII decimal integers")
        yield lineno, line


@_gc_paused
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
            row = list(map(int, right.split()))
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
    head, starts = g.head, g.out_start
    rows = [head[a:b] for a, b in zip(starts, starts[1:])]
    return json.dumps({"n": g.n, "s": g.s, "t": g.t, "succ": rows})


@_gc_paused
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
    for value in chain((n, s, t), chain.from_iterable(succ)):
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
    """The drawing text of ``d``; ``ValueError`` unless it draws ``g``."""
    if why := _mismatch(d, g):
        raise ValueError(why)
    n, xs, ys = g.n, d.x, d.y
    lines = [f"{v} {x} {y}" for v, x, y in zip(range(n), xs, ys)]
    tail, head = g.tail, g.head
    lines += [f"bend {tail[e]} {head[e]} {x} {y}"
              for e, x, y in zip(d.bent, xs[n:], ys[n:])]
    return "\n".join(lines) + "\n"


@_gc_paused
def drawing_from_text(text: str, g: EmbeddedStGraph) -> GridDrawing:
    xs: dict[int, int] = {}
    ys: dict[int, int] = {}
    bxs, bys = [None], [None]  # the bends' points, in line order from 1
    bend_at: dict[tuple[int, int], int] = {}  # (u, v) -> its index there
    for lineno, line in _content_lines(text):
        parts = line.split()
        try:
            if parts[0] == "bend":
                u, v, x, y = map(int, parts[1:])
                bend = u, v
            else:
                v, x, y = map(int, parts)
                bend = None
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad drawing line") from None
        if bend is None:
            if v in xs:
                raise GraphFormatError(f"line {lineno}: duplicate vertex {v}")
            xs[v], ys[v] = x, y
        elif bend in bend_at:
            raise GraphFormatError(f"line {lineno}: duplicate bend on {bend}")
        else:
            bend_at[bend] = len(bxs)
            bxs.append(x)
            bys.append(y)
    # the keys are distinct, so n of them within 0..n-1 are all of them
    if len(xs) != g.n or min(xs) < 0 or max(xs) >= g.n:
        raise GraphFormatError("drawing must assign every vertex exactly once")
    vertices = range(g.n)
    x, y, bent = _gather(xs, vertices), _gather(ys, vertices), ()
    if bend_at:
        k_of = list(map(bend_at.pop, zip(g.tail, g.head), repeat(0)))
        if bend_at:
            u, v = next(iter(bend_at))
            raise GraphFormatError(f"bend on ({u}, {v}), which is not an edge")
        bent = list(compress(range(g.m), k_of))
        ks = _gather(k_of, bent)
        x += _gather(bxs, ks)
        y += _gather(bys, ks)
    return GridDrawing(x=x, y=y, tail=g.tail, head=g.head, bent=bent)
