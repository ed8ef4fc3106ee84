"""From rejected graph to poly-line drawing.

When a graph has no bitonic st-ordering, splitting a minimum set of edges
through dummy vertices always produces one.  The straight-line drawing of
the split graph is an upward planar poly-line drawing of the original
graph, each dummy the one bend of its edge.  This demo
runs the full pipeline on the 3-fan and on a family of graphs that needs
the worst-case number of bends, and writes SVG files next to this script.
"""

import pathlib

from stlayout import (apply_splits, build_graph, check_upward_planar,
                      draw_polyline, draw_straightline, emit_svg,
                      find_bitonic_ordering, minimum_split_plan)

HERE = pathlib.Path(__file__).parent


def fan(k):
    """Chain of k-3 nested conflicts: needs exactly k-3 splits."""
    s, a, t = 0, 1, k - 1
    succ = [[] for _ in range(k)]
    middles = list(range(2, k - 1))
    succ[s] = [a, middles[0], t] if middles else [a, t]
    for i, m in enumerate(middles):
        nxt = [middles[i + 1]] if i + 1 < len(middles) else []
        succ[m] = [a] + nxt + [t]
    succ[a] = [t]
    return build_graph(k, s, t, succ)


f1 = build_graph(5, 0, 4, [[1, 2, 3], [4], [1, 3], [4], []])
plan = minimum_split_plan(f1)
print("f1 minimum split plan:",
      [(f1.tail[e], f1.head[e]) for e in plan.split_edges])

split = apply_splits(f1, plan)
ordering = find_bitonic_ordering(split)
d_split = draw_straightline(split, ordering)
print("split graph drawn on a", d_split.width, "x", d_split.height, "grid")

d = draw_polyline(f1)
print("poly-line drawing bends:",
      [(f1.tail[e], f1.head[e], p) for e, p in d.bend_points])
# a drawing is a node table: vertices 0..n-1, then one bend per bent edge,
# numbered as the split graph numbers its dummies
print("same points as the split graph's drawing:",
      (d.x, d.y) == (d_split.x, d_split.y))
print("valid:", check_upward_planar(f1, d).ok)
(HERE / "f1.svg").write_text(emit_svg(d, scale=40))

# The fan family is the worst case: k vertices force exactly k-3 bends.
for k in (6, 10):
    g = fan(k)
    d = draw_polyline(g)
    print(f"fan({k}): {len(d.splits)} splits, {len(d.bend_points)} bends, "
          f"grid {d.width} x {d.height}, "
          f"valid={check_upward_planar(g, d).ok}")
    (HERE / f"fan{k}.svg").write_text(emit_svg(d, scale=30))

print("wrote f1.svg, fan6.svg, fan10.svg")
