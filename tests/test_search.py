import math
import random

import pytest

from trimatch import (Query, UnknownLaneError, bound_d2, bound_d3, bound_e1,
                      bound_e2, build_index, enumerate_bruteforce,
                      enumerate_pruned, enumerate_quad, enumerate_topk,
                      evaluate, is_feasible, make_lane)
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
    for fn in (enumerate_bruteforce, enumerate_quad, enumerate_pruned):
        with pytest.raises(UnknownLaneError, match="ghost"):
            fn(index, space, Query("ghost", 0.9, 100.0))
    with pytest.raises(UnknownLaneError, match="ghost"):
        enumerate_topk(index, space, Query("ghost", 0.9, 100.0, k=3))


def test_quad_matches_bruteforce_and_counts_loop_trips(tri4_instance):
    space, index = tri4_instance
    q = Query("AB", 0.9, 40.0)
    brute = enumerate_bruteforce(index, space, q)
    quad = enumerate_quad(index, space, q)
    assert keyset(quad) == keyset(brute)
    # |S|=3; T(A)\{AB} empty, T(B)={BC}, T(C)={CD,CA}; worked out by hand
    assert quad.stats.level_visits == (3, 3, 9, 6)
    assert quad.stats.candidates == 21
    assert brute.stats.level_visits == (3, 6)


@pytest.mark.parametrize("n_bases,n_lanes,seed", [(30, 100, 42), (40, 140, 43), (50, 200, 42)])
@pytest.mark.parametrize("ell", [0.75, 0.9, 1.0])
def test_pruned_equals_oracle_on_random_instances(n_bases, n_lanes, seed, ell):
    space, index = gc_instance(n_bases, n_lanes, seed)
    for lane_id in pick_lanes(index, 3, seed=seed + 1):
        u = 4.0 * index.by_id[lane_id].dist
        q = Query(lane_id, ell, u)
        brute = enumerate_bruteforce(index, space, q)
        quad = enumerate_quad(index, space, q)
        pruned = enumerate_pruned(index, space, q)
        assert keyset(quad) == keyset(brute)
        assert keyset(pruned) == keyset(brute)
        brute_map = {(t.t2, t.t3): t for t in brute.triangles}
        for t in pruned.triangles:
            ref = brute_map[(t.t2, t.t3)]
            assert t.ovr == ref.ovr and t.total == ref.total  # bit-identical


def test_pruned_never_visits_more_than_quad():
    space, index = gc_instance(35, 120, seed=8)
    for lane_id in pick_lanes(index, 4, seed=3):
        q = Query(lane_id, 0.8, 4.0 * index.by_id[lane_id].dist)
        quad = enumerate_quad(index, space, q)
        pruned = enumerate_pruned(index, space, q)
        for pv, qv in zip(pruned.stats.level_visits, quad.stats.level_visits):
            assert pv <= qv


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
        for fn in (enumerate_bruteforce, enumerate_quad, enumerate_pruned):
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


@pytest.mark.parametrize("k", [1, 5, 10])
def test_topk_matches_sorted_oracle_prefix(k):
    space, index = gc_instance(40, 150, seed=12)
    for lane_id in pick_lanes(index, 4, seed=13):
        q = Query(lane_id, 0.75, 4.0 * index.by_id[lane_id].dist, k=k)
        oracle = enumerate_bruteforce(index, space, Query(q.t1, q.ell, q.u)).triangles
        got = enumerate_topk(index, space, q)
        assert_topk_equivalent(got.triangles, oracle, k)
        exact = enumerate_topk(index, space, q, deterministic=True)
        want = [(t.t2, t.t3, t.ovr) for t in by_rate(oracle)[:k]]
        assert [(t.t2, t.t3, t.ovr) for t in exact.triangles] == want


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
    space, index = gc_instance(40, 150, seed=16)
    for lane_id in pick_lanes(index, 4, seed=17):
        u = 4.0 * index.by_id[lane_id].dist
        pruned = enumerate_pruned(index, space, Query(lane_id, 0.75, u))
        topk = enumerate_topk(index, space, Query(lane_id, 0.75, u, k=5))
        assert topk.stats.candidates <= pruned.stats.candidates


def test_stats_candidates_totals_level_visits():
    space, index = gc_instance(25, 80, seed=18)
    lane_id = pick_lanes(index, 1, seed=19)[0]
    q = Query(lane_id, 0.8, 4.0 * index.by_id[lane_id].dist)
    for fn in (enumerate_bruteforce, enumerate_quad, enumerate_pruned):
        stats = fn(index, space, q).stats
        assert stats.candidates == sum(stats.level_visits)
