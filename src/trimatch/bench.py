"""Batch benchmark harness: run seeded query sets over a grid of desired
rates and algorithms, collect per-query rows, aggregate per grid cell.

Wall time is measured per query on a monotonic clock and never includes
index construction; build time is reported separately by the CLI.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from time import perf_counter

from .lanes import LaneIndex
from .metric import MetricSpace
from .search import BACKENDS, Query

ALGORITHMS = tuple(BACKENDS)
DEFAULT_ELL_GRID = (0.75, 0.80, 0.85, 0.90, 0.95)


@dataclass(frozen=True)
class QueryRow:
    lane: str
    algo: str
    ell: float
    u: float
    k: int | None
    wall_seconds: float
    result_size: int
    candidates: int
    level_visits: tuple[int, ...]
    ell_star: float


@dataclass(frozen=True)
class CellStats:
    queries: int
    mean_seconds: float
    median_seconds: float
    p95_seconds: float
    max_seconds: float
    mean_candidates: float
    total_results: int


def sample_query_lanes(index: LaneIndex, count: int, seed: int) -> list[str]:
    """Pick `count` client lanes without replacement, reproducibly."""
    ids = [l.id for l in index.lanes]
    if count > len(ids):
        raise ValueError(f"cannot sample {count} queries from {len(ids)} lanes")
    return random.Random(seed).sample(ids, count)


def run_queries(index: LaneIndex, space: MetricSpace, lane_ids, algos, ells,
                u_factor: float | None = 4.0, u_km: float | None = None,
                k: int | None = None, deterministic: bool = False) -> list[QueryRow]:
    """One row per (ell, algo, lane). All cells see the identical query list."""
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    if k is None and "topk" in algos:
        raise ValueError("topk benchmarking needs k")
    rows: list[QueryRow] = []
    for ell in ells:
        for algo in algos:
            search = BACKENDS[algo]
            opts = {"deterministic": deterministic} if algo == "topk" else {}
            for lane_id in lane_ids:
                u = u_km if u_km is not None else u_factor * index.by_id[lane_id].dist
                query = Query(lane_id, ell, u, k if algo == "topk" else None)
                started = perf_counter()
                rs = search(index, space, query, **opts)
                wall = perf_counter() - started
                rows.append(QueryRow(lane_id, algo, ell, u, query.k, wall,
                                     len(rs.triangles), rs.stats.candidates,
                                     rs.stats.level_visits, rs.ell_star))
    return rows


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def aggregate(rows) -> dict[tuple[float, str], CellStats]:
    cells: dict[tuple[float, str], list[QueryRow]] = {}
    for row in rows:
        cells.setdefault((row.ell, row.algo), []).append(row)
    out: dict[tuple[float, str], CellStats] = {}
    for key, group in cells.items():
        walls = [r.wall_seconds for r in group]
        out[key] = CellStats(
            queries=len(group),
            mean_seconds=statistics.fmean(walls),
            median_seconds=statistics.median(walls),
            p95_seconds=percentile(walls, 95),
            max_seconds=max(walls),
            mean_candidates=statistics.fmean(r.candidates for r in group),
            total_results=sum(r.result_size for r in group),
        )
    return out


def row_to_dict(row: QueryRow) -> dict:
    return {
        "lane": row.lane,
        "algo": row.algo,
        "ell": row.ell,
        "u": round(row.u, 3),
        "k": row.k,
        "wall_seconds": row.wall_seconds,
        "result_size": row.result_size,
        "candidates": row.candidates,
        "level_visits": list(row.level_visits),
        "ell_star": row.ell_star,
    }
