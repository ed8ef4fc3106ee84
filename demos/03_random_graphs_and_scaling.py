"""Random graphs, validation at scale, and linear-time behavior.

Generates seeded random embedded planar st-graphs, enriches them with
chords until some of them need edge splits, validates every drawing with
exact integer arithmetic, and shows that drawing time roughly doubles when
the graph size doubles.
"""

import time

from stlayout import (GeneratorConfig, check_bounds, check_upward_planar,
                      draw_polyline, find_bitonic_ordering,
                      generate_random_st_graph)
from stlayout.generate import add_random_chords
from stlayout.ordering import BitonicOrdering

# The pure incremental generator keeps every inner face conflict-free, so
# chords between face-boundary vertices are layered on top to produce
# graphs that actually exercise the splitting machinery.
accepted = rejected = 0
for seed in range(40):
    g = generate_random_st_graph(GeneratorConfig(n_target=30, seed=seed))
    g = add_random_chords(g, 2, seed + 1)
    if isinstance(find_bitonic_ordering(g), BitonicOrdering):
        accepted += 1
    else:
        rejected += 1
print(f"n=30 corpus: {accepted} accepted, {rejected} need splits")

# Every drawing is checked: distinct grid points, strictly rising edges,
# a planar drawing of the graph's own embedding (each face checked in
# exact integers on the raw coordinates), and the area bounds.
for seed in range(5):
    g = generate_random_st_graph(GeneratorConfig(n_target=400, seed=seed))
    g = add_random_chords(g, 400, seed + 1)
    d = draw_polyline(g)
    ok = check_upward_planar(g, d).ok and check_bounds(d, g.n, "polyline")
    print(f"seed {seed}: n={g.n} m={g.m} splits={len(d.splits)} "
          f"grid {d.width}x{d.height} valid={ok}")

# Doubling the size should roughly double the drawing time.
for n in (20_000, 40_000, 80_000):
    g = generate_random_st_graph(GeneratorConfig(n_target=n, seed=1))
    t0 = time.perf_counter()
    draw_polyline(g)
    print(f"n={n}: drawn in {time.perf_counter() - t0:.2f}s")
