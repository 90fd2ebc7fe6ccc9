import statistics

import pytest

from trimatch.bench import (aggregate, percentile, row_to_dict, run_queries,
                            sample_query_lanes)
from trimatch.search import BACKENDS

from conftest import gc_instance


def test_percentile_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 95) == 5.0
    assert percentile(values, 100) == 5.0
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_sample_query_lanes_is_seeded_and_bounded():
    space, index = gc_instance(20, 60, seed=55)
    first = sample_query_lanes(index, 10, seed=3)
    second = sample_query_lanes(index, 10, seed=3)
    assert first == second
    assert len(set(first)) == 10  # without replacement
    with pytest.raises(ValueError):
        sample_query_lanes(index, 61, seed=3)


def test_run_queries_row_shape():
    space, index = gc_instance(20, 60, seed=56)
    lanes = sample_query_lanes(index, 5, seed=1)
    rows = run_queries(index, space, lanes, ["pruned", "topk"], [0.8, 0.9], k=3)
    assert len(rows) == 5 * 2 * 2
    for row in rows:
        assert row.k == (3 if row.algo == "topk" else None)
        assert row.wall_seconds >= 0.0
        assert row.ell_star >= row.ell or row.algo != "topk"
    with pytest.raises(ValueError):
        run_queries(index, space, lanes, ["topk"], [0.8])  # k missing


def test_run_queries_rejects_an_unknown_algorithm():
    space, index = gc_instance(20, 60, seed=56)
    lanes = sample_query_lanes(index, 2, seed=1)
    with pytest.raises(ValueError, match="unknown algorithm 'quad'"):
        run_queries(index, space, lanes, ["pruned", "quad"], [0.8])


def test_run_queries_needs_a_cap_before_any_query_runs(monkeypatch):
    space, index = gc_instance(20, 60, seed=56)
    lanes = sample_query_lanes(index, 2, seed=1)
    ran = []
    monkeypatch.setitem(BACKENDS, "pruned", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="u_km or u_factor"):
        run_queries(index, space, lanes, ["pruned"], [0.8], u_factor=None)
    assert ran == []


def test_run_queries_runs_a_repeated_grid_value_once():
    space, index = gc_instance(20, 60, seed=56)
    lanes = sample_query_lanes(index, 3, seed=1)
    rows = run_queries(index, space, lanes, ["topk", "pruned", "topk"],
                       [0.9, 0.8, 0.9, 0.9], k=3)
    assert [(r.ell, r.algo, r.lane) for r in rows] == [
        (ell, algo, lane) for ell in (0.9, 0.8) for algo in ("topk", "pruned")
        for lane in lanes]
    assert all(cell.queries == 3 for cell in aggregate(rows).values())


def test_aggregates_recomputable_from_rows():
    space, index = gc_instance(25, 80, seed=57)
    lanes = sample_query_lanes(index, 8, seed=2)
    rows = run_queries(index, space, lanes, ["pruned"], [0.75, 0.9])
    cells = aggregate(rows)
    assert set(cells) == {(0.75, "pruned"), (0.9, "pruned")}
    for (ell, algo), cell in cells.items():
        walls = [r.wall_seconds for r in rows if r.ell == ell and r.algo == algo]
        assert cell.queries == len(walls) == 8
        assert cell.mean_seconds == pytest.approx(statistics.fmean(walls))
        assert cell.median_seconds == pytest.approx(statistics.median(walls))
        assert cell.p95_seconds == percentile(walls, 95)
        assert cell.max_seconds == max(walls)
        sizes = [r.result_size for r in rows if r.ell == ell and r.algo == algo]
        assert cell.total_results == sum(sizes)


def test_row_serialization_keeps_counters():
    space, index = gc_instance(15, 40, seed=58)
    rows = run_queries(index, space, sample_query_lanes(index, 2, seed=4),
                       ["pruned"], [0.8])
    d = row_to_dict(rows[0])
    assert d["algo"] == "pruned"
    assert d["candidates"] == sum(d["level_visits"])
    assert len(d["level_visits"]) == 4
