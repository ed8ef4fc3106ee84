"""Recognizing bitonic st-orderings.

A planar st-graph given by clockwise successor lists either admits an
st-ordering under which every successor list is bitonic (rises to an apex,
then falls), or it contains a forbidden configuration: some vertex has a
backward path between consecutive successors followed by a forward one.
This demo builds both kinds of graph and shows the two outcomes.
"""

from stlayout import (BitonicOrdering, build_graph, find_bitonic_ordering,
                      verify_bitonic_ordering)
from stlayout.ordering import ordering_to_text, witness_to_text

# A triangle: s -> a -> t with the chord s -> t.  Accepted immediately.
triangle = build_graph(3, 0, 2, [[1, 2], [2], []])
res = find_bitonic_ordering(triangle)
assert isinstance(res, BitonicOrdering)
print("triangle ranks:", res.pi)
assert verify_bitonic_ordering(triangle, res)

# The canonical rejected graph: a 3-fan where the middle leaf points at
# both of its neighbours.  Around s the paths go backward (v2 ~> v1) and
# then forward (v2 ~> v3) -- no st-ordering can make [v1, v2, v3] bitonic.
f1 = build_graph(5, 0, 4, [[1, 2, 3], [4], [1, 3], [4], []])
res = find_bitonic_ordering(f1)
print("f1 verdict:", witness_to_text(res).strip())

# Splitting the edge (s, v3) through a dummy vertex removes the conflict;
# the recognizer then also reports the gap edges it added to pin the
# ordering, and a plain topological sort of the augmented graph is the
# certificate.
split_f1 = build_graph(6, 0, 4, [[1, 2, 5], [4], [1, 3], [4], [], [3]])
res = find_bitonic_ordering(split_f1)
print("split f1 ordering:")
print(ordering_to_text(res))
