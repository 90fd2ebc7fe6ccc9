import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trimatch import (Base, MetricSpace, Query, UnknownLaneError, bound_d2, bound_d3,
                      bound_e1, bound_e2, build_index, enumerate_bruteforce,
                      enumerate_pruned, enumerate_topk,
                      evaluate, is_feasible, make_lane, validate_metric)
from trimatch import search
from trimatch.search import BOUND_SLACK

from conftest import gc_instance, line_space, pick_lanes, tri4

GRID = (0.75, 0.80, 0.85, 0.90, 0.95)


def keyset(rs):
    return {(t.t2, t.t3) for t in rs.triangles}


def by_rate(tris):
    return sorted(tris, key=lambda t: (-t.ovr, t.t2, t.t3))


def assert_topk_equivalent(got, oracle_all, k):
    """Top-k output must hold the k best rates; equal-rate ties at the cut
    may be satisfied by any oracle triangle of that rate."""
    expect = by_rate(oracle_all)[:k]
    assert len(got) == len(expect)
    assert [t.ovr for t in got] == [t.ovr for t in expect]
    lookup = {(t.t2, t.t3): t for t in oracle_all}
    for t in got:
        ref = lookup[(t.t2, t.t3)]
        assert ref.ovr == t.ovr and ref.total == t.total
    if expect:
        cut = expect[-1].ovr
        assert {(t.t2, t.t3) for t in got if t.ovr > cut} == \
               {(t.t2, t.t3) for t in expect if t.ovr > cut}


# --- query and evaluation -------------------------------------------------

@pytest.mark.parametrize("ell,u,k", [(0.0, 10.0, None), (1.1, 10.0, None),
                                     (0.9, 0.0, None), (0.9, -5.0, None), (0.9, 10.0, 0)])
def test_query_validation(ell, u, k):
    with pytest.raises(ValueError):
        Query("x", ell, u, k)


@pytest.mark.parametrize("k", [2.5, math.nan, "3", True])
def test_query_rejects_a_k_that_is_not_an_int(k):
    """k 2.5 once made top-k return 3 triangles, and a NaN or a string failed
    inside the search; each is refused when the query is made."""
    with pytest.raises(ValueError, match=r"k must be an int"):
        Query("x", 0.6, 1e5, k=k)


def test_query_rejects_an_infinite_cap():
    """At ell == 1 an infinite u makes bound_e1 inf * 0 = NaN, so pruned and
    topk would find nothing where brute finds (ab, bc, ca). The query refuses
    it; any finite cap finds the triangle with every backend."""
    space = MetricSpace.great_circle([Base("a", 35.0, 135.0), Base("b", 35.5, 135.5),
                                      Base("c", 36.0, 135.0), Base("d", 35.0, 136.0)])
    index = build_index([make_lane(s + e, s, e, space)
                         for s, e in ("ab", "bc", "ca", "ad")], space)
    with pytest.raises(ValueError, match="finite"):
        Query("ab", 1.0, math.inf)
    q = Query("ab", 1.0, 1e12)
    assert keyset(enumerate_bruteforce(index, space, q)) == {("bc", "ca")}
    assert keyset(enumerate_pruned(index, space, q)) == {("bc", "ca")}
    assert keyset(enumerate_topk(index, space, Query("ab", 1.0, 1e12, k=3))) == {("bc", "ca")}


def test_evaluate_line_example(tri4_instance):
    space, index = tri4_instance
    tr = evaluate(index.by_id["AB"], index.by_id["BC"], index.by_id["CD"], space)
    assert (tr.d1, tr.d2, tr.d3) == (10.0, 6.0, 3.0)
    assert (tr.e1, tr.e2, tr.e3) == (0.0, 0.0, 1.0)
    assert tr.total == 20.0
    assert tr.ovr == 0.95


def test_evaluate_perfect_cycle(tri4_instance):
    space, index = tri4_instance
    tr = evaluate(index.by_id["AB"], index.by_id["BC"], index.by_id["CA"], space)
    assert (tr.e1, tr.e2, tr.e3) == (0.0, 0.0, 0.0)
    assert tr.ovr == 1.0


def test_evaluate_total_is_leg_sum():
    space, index = gc_instance(15, 40, seed=21)
    rng = random.Random(0)
    for _ in range(25):
        a, b, c = rng.sample(index.lanes, 3)
        tr = evaluate(a, b, c, space)
        assert tr.total == tr.d1 + tr.e1 + tr.d2 + tr.e2 + tr.d3 + tr.e3
        assert 0.0 < tr.ovr <= 1.0


def test_evaluate_rejects_duplicates(tri4_instance):
    space, index = tri4_instance
    ab, bc = index.by_id["AB"], index.by_id["BC"]
    with pytest.raises(ValueError):
        evaluate(ab, ab, bc, space)


def test_evaluate_zero_total_mileage_names_the_lanes():
    space = line_space({"a": 0.0, "b": 0.0, "c": 0.0})  # an all-zero matrix
    ab, bc, ca = (make_lane(s + e, s, e, space) for s, e in ("ab", "bc", "ca"))
    with pytest.raises(ValueError, match="ab, bc, ca"):
        evaluate(ab, bc, ca, space)


def test_cyclic_rotations_agree():
    space, index = gc_instance(15, 40, seed=22)
    rng = random.Random(1)
    for _ in range(20):
        a, b, c = rng.sample(index.lanes, 3)
        rots = [evaluate(a, b, c, space), evaluate(b, c, a, space), evaluate(c, a, b, space)]
        for r in rots[1:]:
            assert math.isclose(r.ovr, rots[0].ovr, rel_tol=1e-12)
            assert math.isclose(r.total, rots[0].total, rel_tol=1e-12)


def test_feasibility_boundaries(tri4_instance):
    space, index = tri4_instance
    tr = evaluate(index.by_id["AB"], index.by_id["BC"], index.by_id["CD"], space)
    assert is_feasible(tr, 0.95, 20.0)          # both cutoffs inclusive
    assert not is_feasible(tr, 0.96, 20.0)
    assert not is_feasible(tr, 0.95, 19.999)
    cycle = evaluate(index.by_id["AB"], index.by_id["BC"], index.by_id["CA"], space)
    assert is_feasible(cycle, 1.0, cycle.total)


# --- bound functions ------------------------------------------------------

def test_bound_e1_values():
    assert bound_e1(0.95, 20.0, 10.0) == pytest.approx(1.0)
    assert bound_e1(1.0, 20.0, 10.0) == BOUND_SLACK * 20.0  # zero widened by the float slack
    assert bound_e1(0.75, 400.0, 100.0) == pytest.approx(100.0)
    assert bound_e1(0.5, 10.0, 12.0) < 0.0  # infeasible cap: nothing qualifies


def test_bound_d2_values():
    lo, hi = bound_d2(0.75, 400.0, 10.0, 2.0)
    assert lo == 0.0 and hi == pytest.approx(388.0)
    lo, hi = bound_d2(0.9, 100.0, 1.0, 10.0)
    assert lo == pytest.approx(39.0) and hi == pytest.approx(89.0)
    lo, _ = bound_d2(1.0, 100.0, 5.0, 7.0)
    assert lo == 0.0
    lo, _ = bound_d2(0.5, 100.0, 5.0, 7.0)  # (2l-1) = 0: vacuous lower bound
    assert lo == 0.0


def test_bound_e2_values():
    assert bound_e2(0.95, 20.0, 10.0, 1.0, 5.0) == pytest.approx(BOUND_SLACK * 20.0, abs=1e-12)
    assert bound_e2(1.0, 20.0, 5.0, 1.0, 5.0) <= 0.0
    assert bound_e2(0.95, 20.0, 10.0, 0.0, 0.0) == bound_e1(0.95, 20.0, 10.0)


def test_bound_d3_values():
    lo, hi = bound_d3(0.5, 100.0, 10.0, 15.0, 10.0, 15.0)
    assert lo == pytest.approx(10.0) and hi == pytest.approx(50.0)
    lo, _ = bound_d3(1.0, 100.0, 10.0, 0.0, 10.0, 0.0)
    assert lo == 0.0
    lo, _ = bound_d3(0.8, 100.0, 10.0, 0.0, 10.0, 0.0)
    assert lo == 0.0  # no empty mileage yet


# --- backends -------------------------------------------------------------

def test_bruteforce_line_example(tri4_instance):
    space, index = tri4_instance
    rs = enumerate_bruteforce(index, space, Query("AB", 0.9, 40.0))
    assert keyset(rs) == {("BC", "CA"), ("BC", "CD")}
    rates = {(t.t2, t.t3): t.ovr for t in rs.triangles}
    assert rates[("BC", "CA")] == 1.0
    assert rates[("BC", "CD")] == 0.95


def test_bruteforce_full_rate_keeps_only_closed_cycle(tri4_instance):
    space, index = tri4_instance
    rs = enumerate_bruteforce(index, space, Query("AB", 1.0, 40.0))
    assert keyset(rs) == {("BC", "CA")}


def test_bruteforce_single_lane_has_no_partners():
    space = line_space({"A": 0.0, "B": 5.0})
    index = build_index([make_lane("only", "A", "B", space)], space)
    rs = enumerate_bruteforce(index, space, Query("only", 0.5, 100.0))
    assert rs.triangles == []


def test_unknown_client_lane():
    space, index = gc_instance(10, 25, seed=2)
    for fn in (enumerate_bruteforce, enumerate_pruned):
        with pytest.raises(UnknownLaneError, match="ghost"):
            fn(index, space, Query("ghost", 0.9, 100.0))
    with pytest.raises(UnknownLaneError, match="ghost"):
        enumerate_topk(index, space, Query("ghost", 0.9, 100.0, k=3))


def test_bruteforce_matches_worked_example_and_counts_loop_trips(tri4_instance):
    space, index = tri4_instance
    brute = enumerate_bruteforce(index, space, Query("AB", 0.9, 40.0))
    assert keyset(brute) == {("BC", "CA"), ("BC", "CD")}
    assert brute.stats.level_visits == (3, 6)


@pytest.mark.parametrize("n_bases,n_lanes,seed", [(30, 100, 42), (40, 140, 43), (50, 200, 42)])
@pytest.mark.parametrize("ell", [0.75, 0.9, 1.0])
def test_pruned_equals_oracle_on_random_instances(n_bases, n_lanes, seed, ell):
    space, index = gc_instance(n_bases, n_lanes, seed)
    for lane_id in pick_lanes(index, 3, seed=seed + 1):
        u = 4.0 * index.by_id[lane_id].dist
        q = Query(lane_id, ell, u)
        brute = enumerate_bruteforce(index, space, q)
        pruned = enumerate_pruned(index, space, q)
        assert keyset(pruned) == keyset(brute)
        brute_map = {(t.t2, t.t3): t for t in brute.triangles}
        for t in pruned.triangles:
            ref = brute_map[(t.t2, t.t3)]
            assert t.ovr == ref.ovr and t.total == ref.total  # bit-identical


def test_pruned_never_visits_more_than_unpruned_loops():
    space, index = gc_instance(35, 120, seed=8)
    n, starts = len(index.lanes), len(index.scan)
    unpruned = (starts, n - 1, (n - 1) * starts, (n - 1) * (n - 2))  # SearchStats
    for lane_id in pick_lanes(index, 4, seed=3):
        q = Query(lane_id, 0.8, 4.0 * index.by_id[lane_id].dist)
        pruned = enumerate_pruned(index, space, q)
        for pv, qv in zip(pruned.stats.level_visits, unpruned, strict=True):
            assert pv <= qv


def test_pruned_keeps_every_triangle_at_its_own_rate_and_total_on_collinear_bases():
    """On the equator the great-circle floats break the triangle inequality by
    an ulp, so the early exits must allow for rounding: re-queried at its own
    rate and total, every brute-force triangle of l00 must still be found."""
    rng = random.Random(0)
    space = MetricSpace.great_circle(
        [Base(f"b{i:02d}", 0.0, rng.uniform(130, 145)) for i in range(12)])
    pairs = [(a, b) for a in space.base_ids for b in space.base_ids if a != b]
    index = build_index([make_lane(f"l{i:02d}", a, b, space)
                         for i, (a, b) in enumerate(rng.sample(pairs, 30))], space)
    every = enumerate_bruteforce(index, space, Query("l00", 0.01, 1e6)).triangles
    assert len(every) == 29 * 28
    for t in every:
        q = Query("l00", t.ovr, t.total)
        assert keyset(enumerate_pruned(index, space, q)) == \
               keyset(enumerate_bruteforce(index, space, q)), (t.t2, t.t3)


def test_pruned_full_rate_scans_only_zero_distance_prefix(tri4_instance):
    space, index = tri4_instance
    rs = enumerate_pruned(index, space, Query("AB", 1.0, 40.0))
    assert keyset(rs) == {("BC", "CA")}
    # only B itself sits at distance 0 from AB's end
    assert rs.stats.level_visits[0] == 1


def test_every_emitted_triangle_is_feasible():
    space, index = gc_instance(40, 140, seed=17)
    for lane_id in pick_lanes(index, 3, seed=4):
        q = Query(lane_id, 0.8, 4.0 * index.by_id[lane_id].dist)
        for fn in (enumerate_bruteforce, enumerate_pruned):
            for t in fn(index, space, q).triangles:
                assert is_feasible(t, q.ell, q.u)


def test_candidate_counts_shrink_as_rate_rises():
    space, index = gc_instance(40, 140, seed=5)
    for lane_id in pick_lanes(index, 5, seed=6):
        u = 4.0 * index.by_id[lane_id].dist
        prev = None
        for ell in GRID:
            stats = enumerate_pruned(index, space, Query(lane_id, ell, u)).stats
            if prev is not None:
                assert stats.candidates <= prev.candidates
                for a, b in zip(stats.level_visits, prev.level_visits):
                    assert a <= b
            prev = stats


def test_bounds_hold_for_every_feasible_triangle():
    space, index = gc_instance(40, 140, seed=7)
    checked = 0
    for lane_id in pick_lanes(index, 5, seed=8):
        for ell in (0.75, 0.9):
            u = 4.0 * index.by_id[lane_id].dist
            rs = enumerate_bruteforce(index, space, Query(lane_id, ell, u))
            for t in rs.triangles:
                assert t.e1 <= bound_e1(ell, u, t.d1)
                lo2, hi2 = bound_d2(ell, u, t.d1, t.e1)
                assert lo2 <= t.d2 <= hi2
                assert t.e2 <= bound_e2(ell, u, t.d1, t.e1, t.d2)
                lo3, hi3 = bound_d3(ell, u, t.d1, t.e1, t.d2, t.e2)
                assert lo3 <= t.d3 <= hi3
                checked += 1
    assert checked > 100


def assert_closing_cuts_hold(index, space, lane_id, ell, u) -> int:
    """The bounded search drops a third lane whose e3 is over either budget
    below; both follow from the final test alone, so every triangle brute
    force finds must be within them, on any non-negative distances. The
    table's reach, bound_e1, is at most u * (1 - ell) + BOUND_SLACK * u."""
    tris = enumerate_bruteforce(index, space, Query(lane_id, ell, u)).triangles
    for t in tris:
        assert t.e3 <= bound_e1(ell, u, t.d1)
        assert t.e3 <= bound_e2(ell, u, t.d1, t.e1, t.d2) - t.e2 + BOUND_SLACK * u
    return len(tris)


def test_closing_cuts_hold_on_great_circle_data():
    space, index = gc_instance(40, 140, seed=7)
    checked = 0
    for lane_id in pick_lanes(index, 6, seed=9):
        for ell, factor in ((0.6, 4.0), (0.75, 4.0), (0.9, 4.0), (0.6, 1.5)):
            u = factor * index.by_id[lane_id].dist
            checked += assert_closing_cuts_hold(index, space, lane_id, ell, u)
    assert checked > 100


@given(seed=st.integers(0, 2**32 - 1), ell=st.sampled_from((0.3, 0.5, 0.6, 0.75, 0.9)),
       factor=st.floats(1.05, 6.0))
@settings(max_examples=60, deadline=None)
def test_closing_cuts_hold_on_any_nonnegative_matrix(seed, ell, factor):
    """Random matrices with zero and lopsided entries, neither symmetric nor
    metric: brute force is still the reference there, and caps from just
    over the client lane up to 6x it reach both sides of bound_e1's min."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    ids = [f"b{i}" for i in range(n)]
    matrix = [[0.0 if i == j or rng.random() < 0.1
                else rng.uniform(0.0, 100.0) ** rng.choice((1, 2)) for j in range(n)]
              for i in range(n)]
    space = MetricSpace.from_matrix([Base(b) for b in ids], matrix)
    kinds = {v.kind for v in validate_metric(space).violations}
    assume({"symmetry", "triangle"} <= kinds)
    pairs = [(a, b) for a in ids for b in ids if a != b and space.distance(a, b) > 0.0]
    lanes = [make_lane(f"l{i:02d}", a, b, space)
             for i, (a, b) in enumerate(rng.sample(pairs, min(len(pairs), 14)))]
    index = build_index(lanes, space)
    for lane in lanes[:4]:
        assert_closing_cuts_hold(index, space, lane.id, ell, factor * lane.dist)


def test_level_four_enters_only_lanes_that_close_the_cycle():
    """Client O->P, second lane P->Q, and five lanes leaving Q. With u = 40 at
    ell 0.75 the empty legs may total 10, so only Q->O (e3 = 0) and Q->M
    (e3 = 5) can close; Q->F3 and Q->F2 fit the d3 window but end 20.6 and
    23.3 from O, and Q->F1 is too long. Level 4 enters the two that close,
    where the d3 window alone would enter four."""
    pts = {"O": (0.0, 0.0), "P": (10.0, 0.0), "Q": (5.0, 12.0), "M": (3.0, 4.0),
           "F1": (5.0, 30.0), "F2": (20.0, 12.0), "F3": (5.0, 20.0)}
    space = MetricSpace.from_matrix([Base(b) for b in pts],
                                    [[math.dist(p, q) for q in pts.values()] for p in pts.values()])
    index = build_index([make_lane(i, a, b, space) for i, a, b in (
        ("t1", "O", "P"), ("t2", "P", "Q"), ("near", "Q", "O"), ("mid", "Q", "M"),
        ("far1", "Q", "F1"), ("far2", "Q", "F2"), ("far3", "Q", "F3"))], space)
    q = Query("t1", 0.75, 40.0)
    brute = by_rate(enumerate_bruteforce(index, space, q).triangles)
    assert [(t.t2, t.t3) for t in brute] == [("t2", "near"), ("t2", "mid")]
    pruned = enumerate_pruned(index, space, q)
    assert by_rate(pruned.triangles) == brute
    assert pruned.stats.level_visits == (2, 1, 1, 2)
    top = enumerate_topk(index, space, Query("t1", 0.75, 40.0, k=1))
    assert top.triangles == brute[:1]
    # its one pass, at rate 0.9375, closes only within 2.5 of O and finds the rate-1 cycle
    assert top.stats.level_visits == (1, 1, 1, 1)


# --- top-k ----------------------------------------------------------------

def test_topk_single_best(tri4_instance):
    space, index = tri4_instance
    rs = enumerate_topk(index, space, Query("AB", 0.9, 40.0, k=1))
    assert [(t.t2, t.t3) for t in rs.triangles] == [("BC", "CA")]
    assert rs.ell_star == 1.0


def test_topk_requires_k():
    space, index = tri4()
    with pytest.raises(ValueError, match="k"):
        enumerate_topk(index, space, Query("AB", 0.9, 40.0))


def test_topk_with_room_returns_everything_sorted():
    space, index = gc_instance(30, 100, seed=10)
    lane_id = pick_lanes(index, 1, seed=11)[0]
    q_all = Query(lane_id, 0.75, 4.0 * index.by_id[lane_id].dist)
    oracle = enumerate_pruned(index, space, q_all).triangles
    rs = enumerate_topk(index, space, Query(q_all.t1, q_all.ell, q_all.u, k=len(oracle) + 5))
    assert [(t.t2, t.t3) for t in rs.triangles] == [(t.t2, t.t3) for t in by_rate(oracle)]
    assert rs.ell_star == q_all.ell  # heap never filled


@pytest.mark.parametrize("ell", [0.1, 0.3, 0.7, 1.0])
def test_topk_past_the_result_size_runs_every_pass(ell):
    """No pass fills a heap larger than the answer, so top-k runs every pass
    down to ell itself, scanning at each rate what pruned scans there, and
    returns pruned's set ranked. At ell 1 every pass rate is 1: one pass."""
    pts = {"A": 0.0, "B": 10.0, "C": 4.0, "D": 1.0}
    space = line_space(pts)
    index = build_index([make_lane(a + b, a, b, space)
                         for a in pts for b in pts if a != b], space)
    pruned = enumerate_pruned(index, space, Query("AB", ell, 40.0))
    assert pruned.triangles
    top = enumerate_topk(index, space, Query("AB", ell, 40.0, k=len(pruned.triangles) + 1))
    assert top.triangles == by_rate(pruned.triangles)
    assert top.ell_star == ell and top.stats.ell_trace == ()
    rates = search._pass_rates(ell)
    assert len(rates) == (1 if ell == 1.0 else 3) and rates[-1] == ell
    per_pass = [enumerate_pruned(index, space, Query("AB", r, 40.0)).stats.level_visits
                for r in rates]
    assert top.stats.level_visits == tuple(map(sum, zip(*per_pass)))
    if ell == 1.0:
        assert top.stats.level_visits == pruned.stats.level_visits


@pytest.mark.parametrize("k", [1, 5, 10])
def test_topk_matches_sorted_oracle_prefix(k):
    space, index = gc_instance(40, 150, seed=12)
    for lane_id in pick_lanes(index, 4, seed=13):
        q = Query(lane_id, 0.75, 4.0 * index.by_id[lane_id].dist, k=k)
        oracle = enumerate_bruteforce(index, space, Query(q.t1, q.ell, q.u)).triangles
        got = enumerate_topk(index, space, q)
        assert_topk_equivalent(got.triangles, oracle, k)
        want = [(t.t2, t.t3, t.ovr) for t in by_rate(oracle)[:k]]
        assert [(t.t2, t.t3, t.ovr) for t in got.triangles] == want


def test_topk_threshold_rises_monotonically():
    space, index = gc_instance(40, 150, seed=14)
    for lane_id in pick_lanes(index, 4, seed=15):
        q = Query(lane_id, 0.75, 4.0 * index.by_id[lane_id].dist, k=5)
        rs = enumerate_topk(index, space, q)
        trace = rs.stats.ell_trace
        assert list(trace) == sorted(trace)
        assert all(v > q.ell for v in trace)
        assert rs.ell_star >= q.ell
        if len(rs.triangles) == 5:
            assert rs.ell_star == rs.triangles[-1].ovr


def test_topk_never_works_harder_than_pruned():
    """Per pass: at every level, top-k visits at most what pruned visits at
    the rates of the passes top-k ran, which are the pass rates up to the
    first at which pruned finds k triangles."""
    space, index = gc_instance(40, 150, seed=16)
    for lane_id in pick_lanes(index, 4, seed=17):
        u = 4.0 * index.by_id[lane_id].dist
        bound = (0, 0, 0, 0)
        for rate in search._pass_rates(0.75):
            pruned = enumerate_pruned(index, space, Query(lane_id, rate, u))
            bound = tuple(map(sum, zip(bound, pruned.stats.level_visits)))
            if len(pruned.triangles) >= 5:
                break
        topk = enumerate_topk(index, space, Query(lane_id, 0.75, u, k=5))
        assert all(v <= b for v, b in zip(topk.stats.level_visits, bound)), (topk.stats, bound)


def test_topk_builds_triangles_only_for_its_survivors(monkeypatch):
    space, index = gc_instance(40, 150, seed=12)
    built = []

    def counted(*fields, make=search.Triangle):
        built.append(fields)
        return make(*fields)

    for lane_id in pick_lanes(index, 4, seed=13):
        q = Query(lane_id, 0.6, 4.0 * index.by_id[lane_id].dist, k=3)
        accepted = len(enumerate_pruned(index, space, Query(q.t1, q.ell, q.u)).triangles)
        want = enumerate_topk(index, space, q).triangles
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(search, "Triangle", counted)
            assert enumerate_topk(index, space, q).triangles == want
        assert len(built) == len(want) <= 3 < accepted


def test_stats_candidates_totals_level_visits():
    space, index = gc_instance(25, 80, seed=18)
    lane_id = pick_lanes(index, 1, seed=19)[0]
    q = Query(lane_id, 0.8, 4.0 * index.by_id[lane_id].dist)
    for fn in (enumerate_bruteforce, enumerate_pruned):
        stats = fn(index, space, q).stats
        assert stats.candidates == sum(stats.level_visits)


def quasi_metric_instance(seed: int, n_bases: int = 12, n_lanes: int = 30):
    """Shortest-path closure of a random complete digraph with integer weights:
    the triangle inequality holds, symmetry does not (`match` answers on it)."""
    rng = random.Random(seed)
    ids = [f"b{i:02d}" for i in range(n_bases)]
    d = [[0.0 if i == j else float(rng.randint(1, 30)) for j in range(n_bases)]
         for i in range(n_bases)]
    for m in range(n_bases):  # Floyd-Warshall
        for i in range(n_bases):
            for j in range(n_bases):
                d[i][j] = min(d[i][j], d[i][m] + d[m][j])
    space = MetricSpace.from_matrix([Base(b) for b in ids], d)
    pairs = rng.sample([(a, b) for a in ids for b in ids if a != b], n_lanes)
    lanes = [make_lane(f"l{n:02d}", a, b, space) for n, (a, b) in enumerate(pairs)]
    return space, build_index(lanes, space)


def test_bounded_search_on_asymmetric_matrices_matches_brute_force():
    # e3 = d(t3.end, t1.start): the search must read a column of the matrix
    for seed in range(40):
        space, index = quasi_metric_instance(seed)
        kinds = {v.kind for v in validate_metric(space).violations}
        assert kinds == {"symmetry"}, seed
        for n, lane in enumerate(index.lanes):
            q = Query(lane.id, (0.5, 0.6, 0.75)[n % 3], 4.0 * lane.dist)
            brute = by_rate(enumerate_bruteforce(index, space, q).triangles)
            pruned = enumerate_pruned(index, space, q).triangles
            assert by_rate(pruned) == brute, (seed, lane.id)
            top = enumerate_topk(index, space, Query(q.t1, q.ell, q.u, k=5))
            assert top.triangles == brute[:5], (seed, lane.id)


def test_bounded_search_on_a_directed_ring_matches_brute_force():
    """d(i, j) = (j - i) mod 100 is a quasi-metric: the triangle inequality
    holds, symmetry does not. (t1, t2, t3) has rate 58/100, yet a d2 lower
    bound derived from symmetry (3.44 for e1 = 40) would cut t2, whose d2 is 1."""
    n = 100
    ids = [f"p{i:03d}" for i in range(n)]
    space = MetricSpace.from_matrix([Base(b) for b in ids],
                                    [[float((j - i) % n) for j in range(n)] for i in range(n)])
    index = build_index([make_lane(i, a, b, space) for i, a, b in (
        ("t1", "p000", "p001"), ("t2", "p041", "p042"), ("t3", "p043", "p099"))], space)
    q = Query("t1", 0.55, 1000.0)
    brute = enumerate_bruteforce(index, space, q).triangles
    assert [(t.t2, t.t3, t.ovr, t.total) for t in brute] == [("t2", "t3", 0.58, 100.0)]
    assert enumerate_pruned(index, space, q).triangles == brute
    assert enumerate_topk(index, space, Query("t1", 0.55, 1000.0, k=5)).triangles == brute


def nonmetric_matrix(kind: str, rng: random.Random, n: int) -> list[list[float]]:
    """A non-negative n x n matrix with a zero diagonal, of one of three kinds:
    planar points with a few pairs stretched x3 or shrunk x0.2 (symmetric, not
    metric), a directed ring (metric, not symmetric), or uniform random
    entries (neither)."""
    if kind == "planar":
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        d = [[math.dist(p, q) for q in pts] for p in pts]
        for _ in range(3):
            i, j = rng.sample(range(n), 2)
            d[i][j] = d[j][i] = d[i][j] * rng.choice((3.0, 0.2))
        return d
    if kind == "ring":
        step = rng.uniform(1.0, 10.0)
        return [[step * ((j - i) % n) for j in range(n)] for i in range(n)]
    return [[0.0 if i == j else rng.uniform(1.0, 100.0) for j in range(n)] for i in range(n)]


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("planar", "ring", "uniform")))
@settings(max_examples=60, deadline=None)
def test_bounded_search_equals_brute_force_on_nonmetric_matrices(seed, kind):
    """On an explicit matrix every cut the search makes rests on non-negative
    distances alone, so pruned and topk equal brute force on any matrix the
    space accepts, whether or not it is symmetric or metric."""
    rng = random.Random(seed)
    n = 16
    ids = [f"b{i:02d}" for i in range(n)]
    space = MetricSpace.from_matrix([Base(b) for b in ids], nonmetric_matrix(kind, rng, n))
    pairs = rng.sample([(a, b) for a in ids for b in ids if a != b], 40)
    index = build_index([make_lane(f"l{i:02d}", a, b, space)
                         for i, (a, b) in enumerate(pairs)], space)
    for lane in index.lanes[:5]:
        for ell in (0.6, 0.75, 0.9):
            q = Query(lane.id, ell, 4.0 * lane.dist)
            brute = by_rate(enumerate_bruteforce(index, space, q).triangles)
            assert by_rate(enumerate_pruned(index, space, q).triangles) == brute
            top = enumerate_topk(index, space, Query(q.t1, ell, q.u, k=5))
            assert top.triangles == brute[:5]
            for k in (1, len(brute) + 3):
                top = enumerate_topk(index, space, Query(q.t1, ell, q.u, k=k))
                assert top.triangles == brute[:k]


def test_explicit_marks_a_given_matrix_only():
    """Only a given matrix is explicit; a great-circle space stays great-circle
    after it builds its matrix, and a space holding that matrix still runs the
    triangle-inequality exits: it visits what a space without one visits."""
    lazy, lazy_index = gc_instance(40, 140, 42)
    space = MetricSpace.great_circle(lazy.bases)
    assert not space.explicit and not lazy.explicit
    space.distance_matrix()
    assert not space.explicit
    index = build_index(lazy_index.lanes, space)  # every neighbor row sorted from the matrix
    assert MetricSpace.from_matrix(space.bases, space.distance_matrix()).explicit
    assert line_space({"A": 0.0, "B": 1.0}).explicit
    with pytest.raises(AttributeError):
        space.explicit = True
    for lane_id in pick_lanes(index, 5, seed=1):
        u = 4.0 * index.by_id[lane_id].dist
        for run, k in ((enumerate_pruned, None), (enumerate_topk, 5)):
            q = Query(lane_id, 0.8, u, k=k)
            held, bare = run(index, space, q), run(lazy_index, lazy, q)
            assert held.triangles == bare.triangles
            assert held.stats.level_visits == bare.stats.level_visits
