import math
from collections import Counter

import pytest

from trimatch import (Base, Lane, MetricSpace, UnknownBaseError, build_index,
                      lanes_in_range, load_lanes_csv, make_lane, neighbors_within)

from conftest import gc_instance, line_space


def test_make_lane_caches_exact_distance():
    space = line_space({"A": 0.0, "B": 7.5})
    lane = make_lane("x", "A", "B", space)
    assert lane.dist == space.distance("A", "B") == 7.5


def test_zero_length_lane_rejected():
    space = line_space({"A": 0.0, "B": 7.5})
    with pytest.raises(ValueError, match="start and end"):
        make_lane("x", "A", "A", space)


def test_by_start_sorted_by_distance():
    space = line_space({"A": 0.0, "B": 3.0, "C": 5.0})
    lanes = [make_lane("ac", "A", "C", space), make_lane("ab", "A", "B", space)]
    index = build_index(lanes, space)
    assert [l.id for l in index.by_start["A"]] == ["ab", "ac"]
    assert index.start_dists["A"] == [3.0, 5.0]


def test_distance_ties_break_by_lane_id():
    space = line_space({"A": 0.0, "B": 3.0, "C": -3.0})
    lanes = [make_lane("z", "A", "B", space), make_lane("a", "A", "C", space)]
    index = build_index(lanes, space)
    assert [l.id for l in index.by_start["A"]] == ["a", "z"]


def test_empty_lane_set():
    space = line_space({"A": 0.0, "B": 1.0})
    index = build_index([], space)
    assert index.starts == frozenset()
    assert index.neighbors["A"] == [] and index.neighbors["B"] == []


def test_neighbor_lists_cover_every_base():
    space, index = gc_instance(25, 60, seed=7)
    assert set(index.neighbors) == set(space.base_ids)
    for b in space.base_ids:
        entries = index.neighbors[b]
        assert {s for s, _ in entries} == set(index.starts)
        dists = [d for _, d in entries]
        assert dists == sorted(dists)


def test_neighbor_ties_at_identical_coordinates_order_by_id():
    bases = [Base("c", 40.0, 140.0), Base("x", 35.0, 135.0), Base("a", 40.0, 140.0),
             Base("b", 40.0, 140.0)]
    space = MetricSpace.great_circle(bases)
    lanes = [make_lane(f"l{s}", s, "x", space) for s in ("c", "b", "a")]
    index = build_index(lanes, space)
    d = space.distance("x", "a")
    assert index.neighbors["x"] == [("a", d), ("b", d), ("c", d)]
    assert index.neighbors["b"] == [("a", 0.0), ("b", 0.0), ("c", 0.0)]


def test_index_roundtrips_the_input_multiset():
    space, index = gc_instance(50, 200, seed=42)
    flattened = [l.id for group in index.by_start.values() for l in group]
    assert Counter(flattened) == Counter(l.id for l in index.lanes)
    assert len(flattened) == 200


def test_duplicate_lane_id_rejected():
    space = line_space({"A": 0.0, "B": 1.0, "C": 2.0})
    lanes = [make_lane("x", "A", "B", space), make_lane("x", "A", "C", space)]
    with pytest.raises(ValueError, match="duplicate"):
        build_index(lanes, space)


def test_unknown_endpoint_rejected():
    space = line_space({"A": 0.0, "B": 1.0})
    with pytest.raises(UnknownBaseError):
        build_index([Lane("x", "A", "Z", 1.0)], space)


def test_stale_cached_distance_rejected():
    space = line_space({"A": 0.0, "B": 1.0})
    with pytest.raises(ValueError, match="cached dist"):
        build_index([Lane("x", "A", "B", 2.0)], space)


def test_neighbors_within_line_example():
    space = line_space({"p0": 0.0, "p4": 4.0, "p10": 10.0})
    lanes = [
        make_lane("a", "p0", "p4", space),
        make_lane("b", "p4", "p10", space),
        make_lane("c", "p10", "p0", space),
    ]
    index = build_index(lanes, space)  # S = {p0, p4, p10}
    assert [s for s, _ in neighbors_within(index, "p0", 5.0)] == ["p0", "p4"]


def test_neighbors_within_zero_and_unbounded():
    space, index = gc_instance(20, 50, seed=1)
    some_start = next(iter(sorted(index.starts)))
    at_zero = neighbors_within(index, some_start, 0.0)
    assert (some_start, 0.0) in at_zero
    assert neighbors_within(index, some_start, math.inf) == index.neighbors[some_start]


def test_neighbors_within_is_prefix_monotone():
    space, index = gc_instance(30, 90, seed=9)
    b = space.base_ids[0]
    radii = [0.0, 50.0, 200.0, 800.0, 3000.0, math.inf]
    for r1, r2 in zip(radii, radii[1:]):
        small = neighbors_within(index, b, r1)
        big = neighbors_within(index, b, r2)
        assert big[:len(small)] == small


def test_neighbors_within_unknown_base():
    space, index = gc_instance(10, 20, seed=2)
    with pytest.raises(UnknownBaseError, match="ghost"):
        neighbors_within(index, "ghost", 10.0)


def test_lanes_in_range_binary_search_positions():
    space = line_space({"s": 0.0, "a": 2.0, "b": 4.0, "c": 6.0, "d": 9.0})
    lanes = [
        make_lane("l2", "s", "a", space),
        make_lane("l4", "s", "b", space),
        make_lane("l6", "s", "c", space),
        make_lane("l9", "s", "d", space),
    ]
    index = build_index(lanes, space)
    assert [l.dist for l in lanes_in_range(index, "s", 3.0, 6.0)] == [4.0, 6.0]
    assert lanes_in_range(index, "s", 7.0, 5.0) == []
    assert [l.dist for l in lanes_in_range(index, "s", -8.0, math.inf)] == [2.0, 4.0, 6.0, 9.0]
    assert lanes_in_range(index, "a", 0.0, math.inf) == []  # known base, no lanes


def test_lanes_in_range_full_interval_equals_group():
    space, index = gc_instance(25, 80, seed=13)
    for s in index.starts:
        assert lanes_in_range(index, s, 0.0, math.inf) == index.by_start[s]


def test_inclusive_endpoints_in_range_queries():
    space = line_space({"s": 0.0, "a": 2.0, "b": 4.0})
    lanes = [make_lane("l2", "s", "a", space), make_lane("l4", "s", "b", space)]
    index = build_index(lanes, space)
    assert [l.id for l in lanes_in_range(index, "s", 2.0, 4.0)] == ["l2", "l4"]


def test_owner_metadata_passes_through(tmp_path):
    space = line_space({"A": 0.0, "B": 1.0})
    p = tmp_path / "lanes.csv"
    p.write_text("lane_id,origin_base_id,dest_base_id,owner\nx,A,B,acme\ny,B,A,\n")
    lanes = load_lanes_csv(p, space)
    assert lanes[0].owner == "acme"
    assert lanes[1].owner is None


def test_lanes_csv_reports_row_numbers(tmp_path):
    space = line_space({"A": 0.0, "B": 1.0})
    p = tmp_path / "lanes.csv"
    p.write_text(
        "lane_id,origin_base_id,dest_base_id\n"
        "ok,A,B\n"
        "bad,A,Z\n"
        "loop,B,B\n"
    )
    with pytest.raises(ValueError) as err:
        load_lanes_csv(p, space)
    msg = str(err.value)
    assert "row 3" in msg and "'Z'" in msg
    assert "row 4" in msg
