"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).

The heavy check is the scaled speed comparison (500 bases / 5000 lanes /
50 queries); expect a few minutes for the whole module.
"""

from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trimatch import (Base, Query, bound_d2, bound_d3, bound_e1, bound_e2,
                      build_index, enumerate_bruteforce, enumerate_pruned,
                      enumerate_topk, evaluate, make_lane, shapley_split,
                      validate_metric)
from trimatch.bench import run_queries
from trimatch.generate import generate_instance
from trimatch.metric import MetricSpace

from conftest import gc_instance, line_space, pick_lanes

ELLS = (0.75, 0.9, 1.0)
GRID = (0.75, 0.80, 0.85, 0.90, 0.95)
TIE_ELLS = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95)
TIE_US = (20.0, 30.0, 40.0, 60.0, 80.0)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def keyset(rs):
    return {(t.t2, t.t3) for t in rs.triangles}


def by_rate(tris):
    return sorted(tris, key=lambda t: (-t.ovr, t.t2, t.t3))


@pytest.fixture(scope="module")
def small_world():
    """25 seeded instances (|B| <= 50, |T| <= 200), three client lanes each,
    plus a shared cache of brute-force results."""
    instances = []
    for seed in range(25):
        n_bases = 20 + seed
        n_lanes = min(200, round(3.5 * n_bases))
        space, index = gc_instance(n_bases, n_lanes, seed=1000 + seed)
        instances.append((space, index, pick_lanes(index, 3, seed=seed)))
    return instances, {}


def oracle(world, i, lane, ell):
    instances, cache = world
    key = (i, lane, ell)
    if key not in cache:
        space, index, _ = instances[i]
        u = 4.0 * index.by_id[lane].dist
        cache[key] = enumerate_bruteforce(index, space, Query(lane, ell, u))
    return cache[key]


@pytest.fixture(scope="module")
def medium_instance():
    space, index = gc_instance(120, 420, seed=31415)
    return space, index, pick_lanes(index, 30, seed=161)


def test_oracle_equivalence(small_world):
    with criterion("oracle equivalence (pruned set-equal to brute force)"):
        instances, _ = small_world
        compared = 0
        for i, (space, index, lanes) in enumerate(instances):
            for lane in lanes:
                u = 4.0 * index.by_id[lane].dist
                for ell in ELLS:
                    brute = oracle(small_world, i, lane, ell)
                    q = Query(lane, ell, u)
                    pruned = enumerate_pruned(index, space, q)
                    assert keyset(pruned) == keyset(brute)
                    ref = {(t.t2, t.t3): t for t in brute.triangles}
                    for t in pruned.triangles:
                        other = ref[(t.t2, t.t3)]
                        assert t.ovr == other.ovr and t.total == other.total
                    compared += 1
        assert compared == 25 * 3 * len(ELLS)


def assert_topk_is_oracle_prefix(index, space, q, full):
    """Top-k against the brute-force set `full`: the same rates and legs,
    and exactly the prefix ranked by (rate desc, t2, t3)."""
    ranked = by_rate(full)
    got = enumerate_topk(index, space, q).triangles
    expect = ranked[:q.k]
    assert len(got) == len(expect)
    assert [t.ovr for t in got] == [t.ovr for t in expect]
    lookup = {(t.t2, t.t3): t for t in full}
    for t in got:
        ref = lookup[(t.t2, t.t3)]
        assert t.ovr == ref.ovr and t.total == ref.total
    if expect:
        cut = expect[-1].ovr
        assert {(t.t2, t.t3) for t in got if t.ovr > cut} == \
               {(t.t2, t.t3) for t in expect if t.ovr > cut}
    assert [(t.t2, t.t3, t.ovr) for t in got] == \
           [(t.t2, t.t3, t.ovr) for t in expect]


def test_topk_correctness(small_world):
    with criterion("top-k equals the oracle prefix ranked by (rate desc, t2, t3)"):
        instances, _ = small_world
        for i, (space, index, lanes) in enumerate(instances):
            for lane in lanes:
                u = 4.0 * index.by_id[lane].dist
                for ell in ELLS:
                    full = oracle(small_world, i, lane, ell).triangles
                    for k in (1, 5, 20):
                        assert_topk_is_oracle_prefix(index, space, Query(lane, ell, u, k=k), full)


@st.composite
def tied_line_instances(draw):
    """4-8 bases at integer points of [0, 30], coincident points allowed, and
    4-14 lanes of positive length: integer distances make exact rate and
    mileage ties common."""
    xs = draw(st.lists(st.integers(0, 30), min_size=4, max_size=8))
    assume(len(set(xs)) >= 2)
    space = line_space({f"p{i}": float(x) for i, x in enumerate(xs)})
    ids = space.base_ids
    ends = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda p: space.distance(*p) > 0.0)
    pairs = draw(st.lists(ends, min_size=4, max_size=14))
    lanes = [make_lane(f"t{j:02d}", a, b, space) for j, (a, b) in enumerate(pairs)]
    return space, build_index(lanes, space)


@settings(max_examples=150, deadline=None)
@given(tied_line_instances(), st.sampled_from(TIE_US))
def check_tied_instance(instance, u):
    space, index = instance
    for t1 in index.lanes:
        for ell in TIE_ELLS:
            brute = enumerate_bruteforce(index, space, Query(t1.id, ell, u))
            pruned = enumerate_pruned(index, space, Query(t1.id, ell, u))
            assert sorted((t.t2, t.t3, t.ovr, t.total) for t in pruned.triangles) == \
                   sorted((t.t2, t.t3, t.ovr, t.total) for t in brute.triangles)
            assert_topk_is_oracle_prefix(index, space, Query(t1.id, ell, u, k=3),
                                         brute.triangles)


def test_oracle_equivalence_with_exact_ties():
    with criterion("pruned and top-k (both tie modes) equal the oracle on "
                   "tie-heavy integer line metrics"):
        check_tied_instance()


def test_bound_soundness_fuzz(small_world):
    with criterion("pruning bounds hold for 10,000 feasible triangles"):
        instances, _ = small_world
        checked = 0
        for i, (space, index, _) in enumerate(instances):
            for lane in pick_lanes(index, 8, seed=400 + i):
                u = 4.0 * index.by_id[lane].dist
                for ell in (0.6, 0.75):
                    for t in oracle(small_world, i, lane, ell).triangles:
                        assert t.e1 <= bound_e1(ell, u, t.d1)
                        lo2, hi2 = bound_d2(ell, u, t.d1, t.e1)
                        assert lo2 <= t.d2 <= hi2
                        assert t.e2 <= bound_e2(ell, u, t.d1, t.e1, t.d2)
                        lo3, hi3 = bound_d3(ell, u, t.d1, t.e1, t.d2, t.e2)
                        assert lo3 <= t.d3 <= hi3
                        checked += 1
            if checked >= 10_000:
                break
        assert checked >= 10_000, f"only {checked} feasible triangles collected"


@pytest.mark.slow
def test_scaled_speedup():
    with criterion("scaled speedup: pruned <= brute/10 and topk <= pruned "
                   "(|B|=500, |T|=5000, 50 queries, ell=0.90)"):
        bases, rows = generate_instance(500, 5000, seed=4242)
        space = MetricSpace.great_circle(bases)
        index = build_index([make_lane(*r, space) for r in rows], space)
        lanes = pick_lanes(index, 50, seed=777)

        pruned_rows = run_queries(index, space, lanes, ["pruned"], [0.90])
        topk_rows = run_queries(index, space, lanes, ["topk"], [0.90], k=20)
        brute_rows = run_queries(index, space, lanes, ["brute"], [0.90])

        brute_s = sum(r.wall_seconds for r in brute_rows)
        pruned_s = sum(r.wall_seconds for r in pruned_rows)
        topk_s = sum(r.wall_seconds for r in topk_rows)
        print(f"  brute {brute_s:.1f}s | pruned {pruned_s:.2f}s | topk {topk_s:.2f}s "
              f"(speedup x{brute_s / pruned_s:.0f})")

        for b, p in zip(brute_rows, pruned_rows):
            assert b.result_size == p.result_size
        assert pruned_s <= brute_s / 10.0
        assert topk_s <= pruned_s


def test_candidate_monotonicity_over_grid(medium_instance):
    with criterion("pruned candidate visits nonincreasing in ell, every query"):
        space, index, lanes = medium_instance
        for lane in lanes:
            u = 4.0 * index.by_id[lane].dist
            prev = None
            for ell in GRID:
                stats = enumerate_pruned(index, space, Query(lane, ell, u)).stats
                if prev is not None:
                    assert stats.candidates <= prev.candidates
                    for now, before in zip(stats.level_visits, prev.level_visits):
                        assert now <= before
                prev = stats


def test_ell_star_tracking(medium_instance):
    with criterion("ell* >= ell and equals the kth-best oracle rate when k exist"):
        space, index, lanes = medium_instance
        k = 20
        for lane in lanes:
            u = 4.0 * index.by_id[lane].dist
            rs = enumerate_topk(index, space, Query(lane, 0.75, u, k=k))
            assert rs.ell_star >= 0.75
            feasible = enumerate_bruteforce(index, space, Query(lane, 0.75, u)).triangles
            if len(feasible) >= k:
                kth_best = sorted((t.ovr for t in feasible), reverse=True)[k - 1]
                assert rs.ell_star == kth_best
            else:
                assert rs.ell_star == 0.75
                assert len(rs.triangles) == len(feasible)


def test_shapley_axioms():
    with criterion("shapley: efficiency, symmetry, dummy, cyclic invariance "
                   "(1000 randomized triangles)"):
        import random
        space, index = gc_instance(60, 210, seed=99)
        rng = random.Random(424242)
        for _ in range(1000):
            a, b, c = rng.sample(index.lanes, 3)
            split = shapley_split(evaluate(a, b, c, space), index, space)
            scale = max(1.0, abs(split.total_savings))
            assert abs(sum(split.shares) - split.total_savings) <= 1e-9 * scale
            rot = shapley_split(evaluate(b, c, a, space), index, space)
            by_lane = dict(zip(split.lane_ids, split.shares))
            for lane_id, share in zip(rot.lane_ids, rot.shares):
                assert abs(share - by_lane[lane_id]) <= 1e-9 * scale

        # symmetry: interchangeable players earn the same share
        ids = ["A", "B", "C"]
        sym_space = MetricSpace.from_matrix(
            [Base(i) for i in ids],
            [[0.0 if x == y else 5.0 for y in ids] for x in ids])
        sym_lanes = [make_lane("ab", "A", "B", sym_space), make_lane("bc", "B", "C", sym_space),
                     make_lane("ca", "C", "A", sym_space)]
        sym_index = build_index(sym_lanes, sym_space)
        sym = shapley_split(
            evaluate(*(sym_index.by_id[i] for i in ("ab", "bc", "ca")), sym_space),
            sym_index, sym_space)
        assert max(sym.shares) - min(sym.shares) <= 1e-9

        # dummy: a lane with zero marginal contribution everywhere gets zero
        dummy_space = line_space({"A": 0.0, "B": 10.0, "E": -8.0, "F": 0.0})
        dummy_lanes = [make_lane("t1", "A", "B", dummy_space),
                       make_lane("t2", "B", "A", dummy_space),
                       make_lane("t3", "E", "F", dummy_space)]
        dummy_index = build_index(dummy_lanes, dummy_space)
        dummy = shapley_split(
            evaluate(*(dummy_index.by_id[i] for i in ("t1", "t2", "t3")), dummy_space),
            dummy_index, dummy_space)
        assert dummy.shares[2] == 0.0


def test_metric_validation_at_scale():
    with criterion("haversine metric: zero violations over 10,000 triples"):
        bases, _ = generate_instance(400, 10, seed=2024)
        space = MetricSpace.great_circle(bases)
        report = validate_metric(space, samples=10_000, seed=5)
        assert report.ok, report.summary()
        assert report.identity_checks == 400
        assert report.symmetry_checks == 400 * 399 // 2
        assert report.triangle_checks == 10_000
