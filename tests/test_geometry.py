"""Exact segment predicates."""

from __future__ import annotations

from oracles import on_segment, orientation, segments_properly_intersect


def test_orientation_signs():
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (1, 0), (0, -1)) == -1
    assert orientation((0, 0), (2, 2), (1, 1)) == 0


def test_on_segment():
    assert on_segment((0, 0), (4, 4), (2, 2))
    assert on_segment((0, 0), (4, 4), (0, 0))
    assert not on_segment((0, 0), (4, 4), (5, 5))
    assert not on_segment((0, 0), (4, 4), (2, 3))


def test_proper_crossing():
    assert segments_properly_intersect((0, 0), (2, 2), (0, 2), (2, 0))


def test_disjoint():
    assert not segments_properly_intersect((0, 0), (1, 1), (2, 0), (3, 1))


def test_shared_endpoint_touch_is_legal():
    assert not segments_properly_intersect((0, 0), (1, 1), (1, 1), (2, 0))
    assert not segments_properly_intersect((0, 0), (1, 1), (1, 1), (2, 2))


def test_endpoint_in_interior_is_proper():
    # T-shape: endpoint of one lies inside the other
    assert segments_properly_intersect((0, 0), (4, 0), (2, 0), (2, 3))
    assert segments_properly_intersect((0, 0), (4, 4), (2, 2), (5, 0))


def test_collinear_overlap_is_proper():
    assert segments_properly_intersect((0, 0), (3, 3), (1, 1), (5, 5))
    # identical segments overlap fully
    assert segments_properly_intersect((0, 0), (3, 3), (0, 0), (3, 3))
    # collinear extension sharing one endpoint only touches
    assert not segments_properly_intersect((0, 0), (1, 1), (1, 1), (3, 3))


def test_shared_endpoint_with_interior_contact():
    # share one endpoint but the other endpoint of one lies inside the other
    assert segments_properly_intersect((0, 0), (4, 4), (0, 0), (2, 2))
