import gc
import math
import random
import sys
import threading
import tracemalloc
from collections import Counter

import pytest

from trimatch import (Base, Lane, MetricSpace, Query, UnknownBaseError, build_index,
                      enumerate_topk, lanes_in_range, load_lanes_csv, make_lane,
                      neighbors_within)
from trimatch import metric
from trimatch.generate import generate_instance
from trimatch.metric import _young_gc_off

from conftest import gc_instance, line_space


def test_make_lane_caches_exact_distance():
    space = line_space({"A": 0.0, "B": 7.5})
    lane = make_lane("x", "A", "B", space)
    assert lane.dist == space.distance("A", "B") == 7.5


def test_zero_length_lane_rejected():
    space = line_space({"A": 0.0, "B": 7.5})
    with pytest.raises(ValueError, match="start and end"):
        make_lane("x", "A", "A", space)


def lanes_leaving(index, s):
    """The lanes leaving s, sorted by (dist, id) from `index.lanes` alone."""
    return sorted((l for l in index.lanes if l.start == s), key=lambda l: (l.dist, l.id))


def test_scan_sorted_by_distance():
    space = line_space({"A": 0.0, "B": 3.0, "C": 5.0})
    lanes = [make_lane("ac", "A", "C", space), make_lane("ab", "A", "B", space)]
    index = build_index(lanes, space)
    assert index.scan["A"] == [(3.0, "ab", "B"), (5.0, "ac", "C")]


def test_distance_ties_break_by_lane_id():
    space = line_space({"A": 0.0, "B": 3.0, "C": -3.0})
    lanes = [make_lane("z", "A", "B", space), make_lane("a", "A", "C", space)]
    index = build_index(lanes, space)
    assert [t[1] for t in index.scan["A"]] == ["a", "z"]
    for _, index in (space, index), gc_instance(40, 150, seed=4):
        starts = sorted({l.start for l in index.lanes})
        assert sorted(index.scan) == starts
        for s in starts:
            assert index.scan[s] == [(l.dist, l.id, l.end) for l in lanes_leaving(index, s)]


def test_by_end_holds_each_scan_tuple_at_its_end_position():
    space, index = gc_instance(40, 150, seed=4)
    assert len(index.by_end) == len(space)
    for b, ends in zip(space.base_ids, index.by_end):
        assert sorted(t[1] for _, t in ends) == sorted(l.id for l in index.lanes if l.end == b)
        for s, t in ends:
            assert any(t is x for x in index.scan[s])  # the index's own tuple


def test_empty_lane_set():
    space = line_space({"A": 0.0, "B": 1.0})
    index = build_index([], space)
    assert index.scan == {} and index.by_end == [[], []]
    assert index.neighbors["A"] == [] and index.neighbors["B"] == []


def test_neighbor_lists_cover_every_base():
    space, index = gc_instance(25, 60, seed=7)
    assert set(index.neighbors) == set(space.base_ids)
    for b in space.base_ids:
        entries = index.neighbors[b]
        assert {s for s, _ in entries} == {l.start for l in index.lanes}
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
    flattened = [t[1] for group in index.scan.values() for t in group]
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


def test_zero_length_lane_between_coincident_bases_rejected():
    """Distinct bases at one point make a lane whose triangles have no rate."""
    space = line_space({"A": 0.0, "B": 0.0, "C": 1.0})
    lanes = [make_lane("ac", "A", "C", space), make_lane("ab", "A", "B", space)]
    with pytest.raises(ValueError, match="'ab': zero length"):
        build_index(lanes, space)


def test_lanes_csv_reports_zero_length_rows(tmp_path):
    space = line_space({"A": 0.0, "B": 0.0, "C": 1.0})
    p = tmp_path / "lanes.csv"
    p.write_text("lane_id,origin_base_id,dest_base_id\nok,A,C\nflat,A,B\n")
    with pytest.raises(ValueError, match="row 3: lane 'flat' has zero length"):
        load_lanes_csv(p, space)


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
    some_start = min(l.start for l in index.lanes)
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


def test_lanes_in_range_unknown_base():
    space, index = gc_instance(10, 20, seed=2)
    with pytest.raises(UnknownBaseError, match="ghost"):
        lanes_in_range(index, "ghost", 0.0, math.inf)


def test_a_nan_radius_is_refused_on_a_matrix_space():
    space = line_space({"A": 0.0, "B": 3.0, "C": 5.0})
    index = build_index([make_lane("ab", "A", "B", space)], space)
    with pytest.raises(ValueError, match="NaN"):
        neighbors_within(index, "C", math.nan)
    assert neighbors_within(index, "C", math.inf) == [("A", 5.0)]


def test_a_nan_radius_builds_and_replaces_no_row():
    bases, rows = generate_instance(30, 90, seed=9)
    lazy, held = MetricSpace.great_circle(bases), MetricSpace.great_circle(bases)
    held.distance_matrix()
    for space in lazy, held:
        index = build_index([make_lane(lid, s, e, space) for lid, s, e in rows], space)
        before = dict(index.neighbors._rows)
        for b in space.base_ids[:3]:
            with pytest.raises(ValueError, match="NaN"):
                neighbors_within(index, b, math.nan)
        assert index.neighbors._rows == before
        if space is held:
            assert {reach for reach, _ in before.values()} == {math.inf}


@pytest.mark.parametrize("lb,ub", [(0.0, math.nan), (math.nan, math.inf), (math.nan, math.nan)])
def test_lanes_in_range_refuses_a_nan_bound(lb, ub):
    space = line_space({"s": 0.0, "a": 2.0, "b": 4.0})
    index = build_index([make_lane("l2", "s", "a", space), make_lane("l4", "s", "b", space)], space)
    with pytest.raises(ValueError, match="NaN"):
        lanes_in_range(index, "s", lb, ub)


def rows_built(index):
    """Sorted neighbor rows built so far."""
    return len(index.neighbors._rows)


def test_one_cold_query_builds_fewer_rows_than_bases():
    space, index = gc_instance(200, 700, seed=5)
    assert rows_built(index) == 0
    lane = index.lanes[0]
    enumerate_topk(index, space, Query(lane.id, 0.75, 4.0 * lane.dist, k=20))
    assert 0 < rows_built(index) < len(space)


def test_membership_len_iteration_and_lane_ranges_build_no_rows():
    space, index = gc_instance(30, 90, seed=3)
    assert all(b in index.neighbors for b in space.base_ids)
    assert "ghost" not in index.neighbors
    assert len(index.neighbors) == len(space)
    assert list(index.neighbors) == list(space.base_ids)
    for s in space.base_ids:
        lanes_in_range(index, s, 0.0, math.inf)
    assert rows_built(index) == 0


def test_unknown_base_row_raises_key_error():
    space, index = gc_instance(10, 20, seed=2)
    with pytest.raises(KeyError):
        index.neighbors["ghost"]
    assert index.neighbors.get("ghost") is None
    with pytest.raises(UnknownBaseError, match="ghost"):
        neighbors_within(index, "ghost", 10.0)


def test_index_built_after_the_matrix_holds_every_row():
    bases, rows = generate_instance(40, 120, seed=6)
    lazy_space, eager_space = MetricSpace.great_circle(bases), MetricSpace.great_circle(bases)
    eager_space.distance_matrix()
    lazy = build_index([make_lane(lid, s, e, lazy_space) for lid, s, e in rows], lazy_space)
    eager = build_index([make_lane(lid, s, e, eager_space) for lid, s, e in rows], eager_space)
    assert rows_built(eager) == len(bases)
    assert dict(lazy.neighbors) == dict(eager.neighbors)
    assert rows_built(lazy) == len(bases)


def test_rows_within_a_radius_hold_the_whole_rows_prefix():
    bases, _ = generate_instance(60, 10, seed=23)
    bases += [Base("twin", bases[0].lat, bases[0].lon),  # ties at every distance
              Base("pole_n", 89.99, 10.0), Base("pole_n2", 89.98, -170.0),
              Base("anti1", 0.0, 0.0), Base("anti0", 0.0, 180.0),
              Base("west", 38.0, -179.99), Base("east", 38.0, 179.99),
              Base("m_south", -1.0, 0.0), Base("k_north", 1.0, 0.0)]  # tie, seen from anti1
    ids = [b.id for b in bases]
    rng = random.Random(5)
    pairs = {tuple(rng.sample(ids, 2)) for _ in range(200)} - {(ids[0], "twin"), ("twin", ids[0])}
    pairs |= {(x, ids[1]) for x in (ids[0], "twin", "pole_n", "pole_n2", "anti0", "west", "east",
                                   "m_south", "k_north")}

    def index_on(space):
        lanes = [make_lane(f"l{n:03d}", a, b, space) for n, (a, b) in enumerate(sorted(pairs))]
        return build_index(lanes, space)

    lazy = index_on(MetricSpace.great_circle(bases))
    eager_space = MetricSpace.great_circle(bases)
    eager_space.distance_matrix()
    eager = index_on(eager_space)
    for b in ids:
        whole = [(s, d.hex()) for s, d in eager.neighbors[b]]
        for r in (0.0, 40.0, 800.0, 300.0, 5000.0, 20100.0, math.inf, 10.0):
            got = lazy.neighbors.within(b, r)
            dists = [d for _, d in got]
            assert dists == sorted(dists)
            assert [(s, d.hex()) for s, d in got if d <= r] == \
                [(s, d) for s, d in whole if float.fromhex(d) <= r], (b, r)
        assert [(s, d.hex()) for s, d in lazy.neighbors[b]] == whole


def test_a_row_within_a_small_radius_computes_few_distances(monkeypatch):
    space, index = gc_instance(200, 700, seed=5)
    asked = []
    real = metric._great_circle_row
    monkeypatch.setattr(metric, "_great_circle_row",
                        lambda origin, points: asked.append(len(points)) or real(origin, points))
    b = space.base_ids[0]
    row = index.neighbors.within(b, 100.0)
    assert row == neighbors_within(index, b, 100.0)
    assert len(asked) == 1 and 0 < asked[0] < len(index.scan) // 10
    assert rows_built(index) == 1


def test_an_index_on_a_held_matrix_sorts_its_rows_from_it(monkeypatch):
    bases, rows = generate_instance(60, 200, seed=9)
    space = MetricSpace.great_circle(bases)
    space.distance_matrix()
    lanes = [make_lane(lid, s, e, space) for lid, s, e in rows]
    asked = []
    real = metric._great_circle_row
    monkeypatch.setattr(metric, "_great_circle_row",
                        lambda origin, points: asked.append(len(points)) or real(origin, points))
    index = build_index(lanes, space)
    for b in space.base_ids:
        assert len(index.neighbors[b]) == len(index.scan)
        assert index.neighbors.within(b, 500.0) is index.neighbors[b]
        assert neighbors_within(index, b, 500.0) == \
            [(s, d) for s, d in index.neighbors[b] if d <= 500.0]
    assert asked == []
    assert rows_built(index) == len(bases)


def bytes_per_neighbor_entry(held: bool) -> float:
    """Memory the index keeps per neighbor entry on a 300-base great-circle
    instance, with every row built: sorted up front from a held matrix, or
    on first read. What the space keeps is made before the count: the held
    matrix, or the points a lazy row is measured from (made by the first
    `distances_to`)."""
    bases, rows = generate_instance(300, 1050, seed=9)
    space = MetricSpace.great_circle(bases)
    if held:
        space.distance_matrix()
    else:
        space.distances_to(space.base_ids[0])
    lanes = [make_lane(lid, s, e, space) for lid, s, e in rows]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build_index(lanes, space)
        entries = sum(len(index.neighbors[b]) for b in space.base_ids)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert entries == len(bases) * len(index.scan)
    return kept / entries


def test_rows_from_a_held_matrix_keep_no_tuple_per_entry():
    # two list slots per entry and the matrix's own floats; a tuple per entry
    # costs about 66 bytes
    assert bytes_per_neighbor_entry(held=True) < 32


def test_rows_built_on_first_read_keep_no_tuple_per_entry():
    # two list slots and a new float per entry; a tuple per entry costs about 90
    assert bytes_per_neighbor_entry(held=False) < 56


def test_a_row_reads_as_its_list_of_pairs():
    space, index = gc_instance(40, 150, seed=4)
    eager_space, eager = gc_instance(40, 150, seed=4)
    eager_space.distance_matrix()
    eager = build_index(eager.lanes, eager_space)
    for b in space.base_ids:
        row = index.neighbors[b]
        pairs = list(zip(row.ids, row.dists))
        assert len(row) == len(pairs) == len(index.scan)
        assert row == pairs and pairs == row and not row != pairs
        assert row == eager.neighbors[b] and eager.neighbors[b] == row
        assert row != pairs[:-1] and pairs[1:] != row and row != tuple(pairs)
        assert list(row) == pairs and repr(row) == repr(pairs)
        assert row[0] == pairs[0] and row[-1] == pairs[-1] and row[-2] == pairs[-2]
        assert row[1:4] == pairs[1:4] and row[::-3] == pairs[::-3] and row[5:2] == []
        assert row[-3:] == pairs[-3:] and type(row[:2]) is list
        for r in (0.0, 150.0, 600.0, math.inf):
            assert neighbors_within(index, b, r) == [p for p in index.neighbors[b] if p[1] <= r]
    with pytest.raises(TypeError):
        hash(index.neighbors[space.base_ids[0]])


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
    for s in space.base_ids:
        group = lanes_leaving(index, s)
        assert lanes_in_range(index, s, 0.0, math.inf) == group
        assert index.scan.get(s, []) == [(l.dist, l.id, l.end) for l in group]


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


def test_lanes_csv_errors_name_the_file_line_past_blank_lines(tmp_path):
    space = line_space({"A": 0.0, "B": 1.0})
    p = tmp_path / "lanes.csv"
    p.write_text("lane_id,origin_base_id,dest_base_id\n\nok,A,B\n\nbad,A,z\n")
    with pytest.raises(ValueError, match=r"lanes.csv: row 5: unknown base id 'z'$"):
        load_lanes_csv(p, space)


def test_bom_prefixed_lanes_file_loads_as_the_plain_one(tmp_path):
    space = line_space({"A": 0.0, "B": 1.0})
    text = "lane_id,origin_base_id,dest_base_id,owner\nx,A,B,acme\ny,B,A,\n".encode()
    (tmp_path / "lanes.csv").write_bytes(text)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text)
    assert load_lanes_csv(tmp_path / "bom.csv", space) == load_lanes_csv(tmp_path / "lanes.csv", space)


def test_lanes_csv_names_an_empty_origin_or_destination(tmp_path):
    space = line_space({"A": 0.0, "B": 1.0})
    p = tmp_path / "lanes.csv"
    p.write_text("lane_id,origin_base_id,dest_base_id\nab,A\nab,,B\nba,B,A\n")
    with pytest.raises(ValueError, match=r"lanes.csv: row 2: empty dest_base_id; "
                                         r"row 3: empty origin_base_id$"):
        load_lanes_csv(p, space)


def switching_often(fn):
    """Run fn with the interpreter switching threads every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(interval)


def run_threads(target, args_list, timeout=60.0):
    threads = [threading.Thread(target=target, args=args) for args in args_list]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    assert not any(t.is_alive() for t in threads)


def test_concurrent_row_builds_leave_the_gc_on():
    def enter_often():
        for _ in range(2000):
            with _young_gc_off():
                pass

    try:
        for _ in range(10):
            switching_often(lambda: run_threads(enter_often, [()] * 8))
            assert gc.isenabled()
    finally:
        gc.enable()


def test_concurrent_queries_share_a_lazy_index():
    space, index = gc_instance(150, 500, seed=8)
    eager_space, eager = gc_instance(150, 500, seed=8)
    eager_space.distance_matrix()
    eager = build_index(eager.lanes, eager_space)
    queries = [Query(l.id, 0.75, 4.0 * l.dist, k=10) for l in index.lanes[:40]]
    want = [enumerate_topk(eager, eager_space, q).triangles for q in queries]
    got: dict[int, list] = {}

    def worker(offset: int) -> None:
        for n in range(offset, offset + len(queries)):
            n %= len(queries)
            got[n] = enumerate_topk(index, space, queries[n]).triangles

    switching_often(lambda: run_threads(worker, [(5 * t,) for t in range(8)]))
    assert [got[n] for n in range(len(queries))] == want
    assert dict(index.neighbors) == dict(eager.neighbors)
    assert gc.isenabled()
