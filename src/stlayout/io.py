"""Text and JSON serialization for graphs and drawings.

Graph text format (line oriented, ``#`` starts a comment):

    n s t
    u: v_a v_b v_c ...      # successors of u, clockwise, one line per vertex

JSON mirror: ``{"n": ..., "s": ..., "t": ..., "succ": [[...], ...]}``.
Both formats round-trip bit-exactly through parse/emit.

Drawing text format: one ``v x y`` line per vertex, then ``bend u v x y``
lines for the bent edges.  They are read into and written from the
drawing's columns, one node per line.  A text in exactly the form that
``drawing_to_text`` writes (vertex lines ``0..n-1`` in order, then the
bend lines in any order, one space between tokens, ``\n`` after every
line, no ``#``, ``+``, ``_`` or non-ASCII character) is read in bulk:
it is split a chunk of whole lines at a time, and each chunk is accepted
only if writing its tokens back in that form gives the chunk again.
Every other text, and every text that a line would make fail, goes to
the line reader, so results and errors are the same either way.
"""

from __future__ import annotations

import json
from itertools import chain, compress, islice, repeat
from operator import eq

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


def _plain(text: str) -> bool:
    """Whether ``text`` has no ``#``, ``+``, ``_`` or non-ASCII character,
    as every text this module writes: nothing to cut as a comment, and
    nothing that ``int`` reads but the format rejects."""
    return text.isascii() and not ("#" in text or "+" in text or "_" in text)


def _content_lines(text: str):
    """(line number, line) for each line not blank once its comment is
    cut.  ``int`` also reads ``+2``, ``0_2`` and non-ASCII digits, so such
    lines are rejected here, once per line rather than per token.  A
    ``_plain`` text has nothing to cut or reject: one test covers it."""
    lines = enumerate(text.splitlines(), 1)
    if _plain(text):
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
    """The drawing of ``g`` that ``text`` holds; ``GraphFormatError``
    unless it is a drawing text of one point per vertex and bends on
    ``g``'s edges only.  A text as ``drawing_to_text`` writes it is read
    in bulk, any other by line, with the same result (module docstring)."""
    return _written_drawing(text, g) or _drawing_from_lines(text, g)


# characters split at a time, so that the tokens of one chunk, not those
# of a whole block, are alive at once
_CHUNK = 1 << 14


def _written_drawing(text: str, g: EmbeddedStGraph) -> GridDrawing | None:
    """The drawing of a ``_plain`` text of ``g.n`` lines ``v x y`` for
    ``v = 0..n-1`` and then ``bend u v x y`` lines in any order, each
    ending in ``\n``; None for any other text, or when a line would make
    the line reader raise."""
    if not _plain(text):
        return None
    cut = text.find("bend")
    if cut < 0:
        cut = len(text)
    xy, nums = [], []
    try:
        for tokens in _written_chunks(text, 0, cut, "%s %s %s\n"):
            v = len(xy) // 2
            if not all(map(eq, islice(tokens, 0, None, 3),
                           map(str, range(v, v + len(tokens) // 3)))):
                return None
            del tokens[0::3]
            # a point's x and y, made one after the other, lie together in
            # memory: the validator reads them together (about 6% faster)
            xy += map(int, tokens)
        for tokens in _written_chunks(text, cut, len(text),
                                      "bend %s %s %s %s\n"):
            nums += map(int, tokens)
    except ValueError:
        return None
    if len(xy) != 2 * g.n:
        return None
    k = len(nums) // 4
    bend_at = dict(zip(zip(nums[0::4], nums[1::4]), range(1, k + 1)))
    if len(bend_at) != k:
        return None  # a duplicate bend line
    return _with_bends(g, tuple(xy[0::2]), tuple(xy[1::2]), bend_at,
                       [None, *nums[2::4]], [None, *nums[3::4]])


def _written_chunks(text: str, start: int, end: int, line: str):
    """The tokens of ``text[start:end]``, ``bend`` words dropped, one list
    per chunk of whole lines.  Each chunk is split once and accepted only
    if ``line`` filled in with its tokens, line after line, gives it back;
    ``ValueError`` at the first chunk that is not so written."""
    width = line.count("%s")
    while start < end:
        stop = text.find("\n", start + _CHUNK, end) + 1 or end
        chunk = text[start:stop]
        tokens = chunk.replace("bend ", "").split()
        k = len(tokens) // width
        if len(tokens) != k * width or line * k % tuple(tokens) != chunk:
            raise ValueError("not as drawing_to_text writes it")
        yield tokens
        start = stop


def _drawing_from_lines(text: str, g: EmbeddedStGraph) -> GridDrawing:
    """``drawing_from_text`` one line at a time, in any line order, with
    comments, blank lines and any whitespace; the source of every error."""
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
    d = _with_bends(g, _gather(xs, vertices), _gather(ys, vertices),
                    bend_at, bxs, bys)
    if d is None:
        u, v = next(iter(bend_at))
        raise GraphFormatError(f"bend on ({u}, {v}), which is not an edge")
    return d


def _with_bends(g, x, y, bend_at, bxs, bys) -> GridDrawing | None:
    """The drawing of ``g`` with vertex columns ``x`` and ``y`` and a bend
    at ``(bxs[i], bys[i])`` on each edge ``(u, v)`` that ``bend_at`` maps
    to ``i``; None if ``bend_at`` names a pair that is not an edge, which
    is then all that is left in it."""
    bent = ()
    if bend_at:
        k_of = list(map(bend_at.pop, zip(g.tail, g.head), repeat(0)))
        if bend_at:
            return None
        bent = list(compress(range(g.m), k_of))
        ks = _gather(k_of, bent)
        x += _gather(bxs, ks)
        y += _gather(bys, ks)
    return GridDrawing(x=x, y=y, tail=g.tail, head=g.head, bent=bent)
