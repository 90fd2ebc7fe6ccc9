"""Enumeration backends for triangular transports.

Given a client lane t1, a triangle (t1, t2, t3) chains three loaded legs with
three empty legs and closes back at t1's start. A triangle is kept when its
occupied vehicle rate (loaded km / total km) reaches `ell` and its total
mileage stays within `u`. Four backends produce the same set:

  brute    double loop over all lane pairs; the reference the others are
           checked against
  quad     the same search restructured as four loops over start bases and
           their lanes; no pruning
  pruned   quad plus distance-derived bounds that cut each loop to a sorted
           prefix / range
  topk     pruned plus a size-k min-heap; the feasibility threshold rises to
           the provisional kth-best rate as candidates accumulate

All backends compute the rate and mileage with one shared expression
ordering, so feasibility decisions agree bit-for-bit across them.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter

from .lanes import Lane, LaneIndex, UnknownLaneError
from .metric import MetricSpace


@dataclass(frozen=True)
class Query:
    """A matching request: client lane, desired rate, absolute mileage cap."""

    t1: str
    ell: float
    u: float
    k: int | None = None

    def __post_init__(self):
        if not 0.0 < self.ell <= 1.0:
            raise ValueError(f"ell must be in (0, 1], got {self.ell}")
        if not self.u > 0.0:
            raise ValueError(f"u must be positive, got {self.u}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class Triangle:
    """An evaluated triple: loaded legs d1..d3, empty legs e1..e3."""

    t1: str
    t2: str
    t3: str
    d1: float
    d2: float
    d3: float
    e1: float
    e2: float
    e3: float
    ovr: float
    total: float


@dataclass(frozen=True)
class SearchStats:
    """Loop-trip counters: level_visits[i] = bodies entered at loop level i,
    counted after the set exclusions but before any early-continue test.
    The brute backend reports its counts in closed form ((n-1), (n-1)(n-2))."""

    level_visits: tuple[int, ...]
    candidates: int
    seconds: float
    ell_trace: tuple[float, ...] = ()


@dataclass
class ResultSet:
    triangles: list[Triangle]
    ell_star: float
    stats: SearchStats


def evaluate(t1: Lane, t2: Lane, t3: Lane, space: MetricSpace) -> Triangle:
    """Measure the six legs of (t1, t2, t3) and derive rate and mileage."""
    if t1.id == t2.id or t1.id == t3.id or t2.id == t3.id:
        raise ValueError(f"lanes must be pairwise distinct, got {t1.id}, {t2.id}, {t3.id}")
    d1, d2, d3 = t1.dist, t2.dist, t3.dist
    e1 = space.distance(t1.end, t2.start)
    e2 = space.distance(t2.end, t3.start)
    e3 = space.distance(t3.end, t1.start)
    total = d1 + e1 + d2 + e2 + d3 + e3
    ovr = (d1 + d2 + d3) / total
    return Triangle(t1.id, t2.id, t3.id, d1, d2, d3, e1, e2, e3, ovr, total)


def is_feasible(tr: Triangle, ell: float, u: float) -> bool:
    """Both cutoffs are inclusive."""
    return tr.ovr >= ell and tr.total <= u


# The bounds are exact in real arithmetic, but the float test `ovr >= ell and
# total <= u` can pass a triangle a rounding error outside them. Each bound is
# widened by BOUND_SLACK * u, a lane-length lower bound (which scales rate errors
# by 1 / (1 - ell)) by BOUND_SLACK * u / (1 - ell): far above the few-ulp errors,
# and harmless, since the inclusive final test still decides.
BOUND_SLACK = 1e-9


def bound_e1(ell: float, u: float, d1: float) -> float:
    """Largest first empty leg any qualifying triangle can have. May be negative."""
    return min(u * (1.0 - ell), u - d1) + BOUND_SLACK * u


def bound_d2(ell: float, u: float, d1: float, e1: float) -> tuple[float, float]:
    """Admissible second-lane length range (lower clamped to 0)."""
    upper = u - (d1 + e1) + BOUND_SLACK * u
    if ell == 1.0:
        lower = 0.0
    else:
        lower = max(0.0, (2.0 * ell - 1.0) / (2.0 * (1.0 - ell)) * e1 - d1
                    - BOUND_SLACK * u / (1.0 - ell))
    return lower, upper


def bound_e2(ell: float, u: float, d1: float, e1: float, d2: float) -> float:
    """Largest second empty leg; at most BOUND_SLACK * u once e1 spends the
    empty-mileage budget."""
    return min(u * (1.0 - ell) - e1, u - (d1 + e1 + d2)) + BOUND_SLACK * u


def bound_d3(ell: float, u: float, d1: float, e1: float, d2: float,
             e2: float) -> tuple[float, float]:
    """Admissible third-lane length range (lower clamped to 0)."""
    upper = u - (d1 + e1 + d2 + e2) + BOUND_SLACK * u
    if ell == 1.0:
        lower = 0.0
    else:
        lower = max(0.0, ell / (1.0 - ell) * (e1 + e2) - (d1 + d2)
                    - BOUND_SLACK * u / (1.0 - ell))
    return lower, upper


def _client_lane(index: LaneIndex, lane_id: str) -> Lane:
    try:
        return index.by_id[lane_id]
    except KeyError:
        raise UnknownLaneError(f"unknown lane id {lane_id!r}") from None


def enumerate_bruteforce(index: LaneIndex, space: MetricSpace, query: Query) -> ResultSet:
    """Exhaustive double loop over ordered lane pairs. Correctness reference."""
    started = perf_counter()
    t1 = _client_lane(index, query.t1)
    ell, u = query.ell, query.u
    d1 = t1.dist
    lanes = index.lanes
    n = len(lanes)
    mat = space.distance_matrix()
    opos = space.index_of(t1.start)
    start_ix = index.start_ix
    dists = index.dists
    to_origin = [mat[e][opos] for e in index.end_ix]  # e3 per candidate t3
    row1 = mat[space.index_of(t1.end)]
    i1 = index.lane_pos[t1.id]

    inf = math.inf
    masked = list(dists)
    masked[i1] = inf  # masked lanes can never satisfy total <= u
    tris: list[Triangle] = []
    for j2 in range(n):
        if j2 == i1:
            continue
        l2 = lanes[j2]
        e1 = row1[start_ix[j2]]
        d2 = dists[j2]
        base = d1 + e1 + d2
        num2 = d1 + d2
        row2 = mat[index.end_ix[j2]]
        keep = masked[j2]
        masked[j2] = inf
        for l3, s3, d3, e3 in zip(lanes, start_ix, masked, to_origin):
            e2 = row2[s3]
            total = base + e2 + d3 + e3
            if total <= u:
                ovr = (num2 + d3) / total
                if ovr >= ell:
                    tris.append(Triangle(t1.id, l2.id, l3.id, d1, d2, d3,
                                         e1, e2, e3, ovr, total))
        masked[j2] = keep

    visits = (n - 1, (n - 1) * (n - 2))
    stats = SearchStats(visits, sum(visits), perf_counter() - started)
    return ResultSet(tris, query.ell, stats)


def enumerate_quad(index: LaneIndex, space: MetricSpace, query: Query) -> ResultSet:
    """Same search as brute force, regrouped by start base. No pruning."""
    started = perf_counter()
    t1 = _client_lane(index, query.t1)
    ell, u = query.ell, query.u
    d1 = t1.dist
    mat = space.distance_matrix()
    opos = space.index_of(t1.start)
    to_origin = {b: mat[i][opos] for i, b in enumerate(space.base_ids)}
    row1 = mat[space.index_of(t1.end)]
    start_list = [(s, space.index_of(s)) for s in sorted(index.starts)]

    tris: list[Triangle] = []
    v1 = v2 = v3 = v4 = 0
    for s, sp in start_list:
        v1 += 1
        e1 = row1[sp]
        for t2 in index.by_start[s]:
            if t2.id == t1.id:
                continue
            v2 += 1
            d2 = t2.dist
            num2 = d1 + d2
            row2 = mat[space.index_of(t2.end)]
            for s2, sp2 in start_list:
                v3 += 1
                e2 = row2[sp2]
                for t3 in index.by_start[s2]:
                    if t3.id == t1.id or t3.id == t2.id:
                        continue
                    v4 += 1
                    d3 = t3.dist
                    e3 = to_origin[t3.end]
                    total = d1 + e1 + d2 + e2 + d3 + e3
                    if total <= u:
                        ovr = (num2 + d3) / total
                        if ovr >= ell:
                            tris.append(Triangle(t1.id, t2.id, t3.id, d1, d2, d3,
                                                 e1, e2, e3, ovr, total))

    visits = (v1, v2, v3, v4)
    stats = SearchStats(visits, sum(visits), perf_counter() - started)
    return ResultSet(tris, query.ell, stats)


def enumerate_pruned(index: LaneIndex, space: MetricSpace, query: Query) -> ResultSet:
    """Bounded search over the sorted index structures.

    Each loop only scans the neighbor prefix / lane range its bound admits,
    and partial cycles that already cannot return within `u` are dropped as
    soon as the triangle inequality exposes them. Output is identical to the
    brute-force set.
    """
    started = perf_counter()
    t1 = _client_lane(index, query.t1)
    ell, u = query.ell, query.u
    d1 = t1.dist
    mat = space.distance_matrix()
    opos = space.index_of(t1.start)
    to_origin = {b: mat[i][opos] for i, b in enumerate(space.base_ids)}
    neighbors = index.neighbors
    by_start = index.by_start
    start_dists = index.start_dists

    tris: list[Triangle] = []
    v1 = v2 = v3 = v4 = 0
    b1 = bound_e1(ell, u, d1)
    for s, e1 in neighbors[t1.end]:
        if e1 > b1:
            break
        v1 += 1
        if u < d1 + e1 + to_origin[s]:
            continue
        lb2, ub2 = bound_d2(ell, u, d1, e1)
        group = by_start[s]
        for t2 in group[bisect_left(start_dists[s], lb2):]:
            d2 = t2.dist
            if d2 > ub2:
                break
            if t2.id == t1.id:
                continue
            v2 += 1
            if u < d1 + e1 + d2 + to_origin[t2.end]:
                continue
            num2 = d1 + d2
            b3 = bound_e2(ell, u, d1, e1, d2)
            for s2, e2 in neighbors[t2.end]:
                if e2 > b3:
                    break
                v3 += 1
                if u < d1 + e1 + d2 + e2 + to_origin[s2]:
                    continue
                lb4, ub4 = bound_d3(ell, u, d1, e1, d2, e2)
                group2 = by_start[s2]
                for t3 in group2[bisect_left(start_dists[s2], lb4):]:
                    d3 = t3.dist
                    if d3 > ub4:
                        break
                    if t3.id == t1.id or t3.id == t2.id:
                        continue
                    v4 += 1
                    e3 = to_origin[t3.end]
                    total = d1 + e1 + d2 + e2 + d3 + e3
                    if total <= u:
                        ovr = (num2 + d3) / total
                        if ovr >= ell:
                            tris.append(Triangle(t1.id, t2.id, t3.id, d1, d2, d3,
                                                 e1, e2, e3, ovr, total))

    visits = (v1, v2, v3, v4)
    stats = SearchStats(visits, sum(visits), perf_counter() - started)
    return ResultSet(tris, query.ell, stats)


class _RankedCandidate:
    """Heap entry for deterministic top-k: heap[0] is the worst-ranked entry,
    i.e. lowest rate, and among equal rates the largest (t2, t3) pair."""

    __slots__ = ("ovr", "tie", "tri")

    def __init__(self, tri: Triangle):
        self.ovr = tri.ovr
        self.tie = (tri.t2, tri.t3)
        self.tri = tri

    def __lt__(self, other: "_RankedCandidate") -> bool:
        if self.ovr != other.ovr:
            return self.ovr < other.ovr
        return self.tie > other.tie


def enumerate_topk(index: LaneIndex, space: MetricSpace, query: Query,
                   deterministic: bool = False) -> ResultSet:
    """Keep the k best rates in a min-heap while searching with rising bounds.

    Until k candidates are found the requested rate is the threshold; once
    the heap is full the threshold jumps to the heap minimum after every
    insertion, shrinking all four scan ranges for the rest of the run.

    With deterministic=False a candidate tying the provisional kth rate
    replaces the incumbent minimum. With deterministic=True ties are settled
    by ascending (t2, t3) ids, which makes the surviving set equal the top-k
    prefix of the full result ordered by (rate desc, t2, t3).
    """
    if query.k is None:
        raise ValueError("top-k search needs query.k")
    started = perf_counter()
    t1 = _client_lane(index, query.t1)
    ell, u = query.ell, query.u
    k = query.k
    d1 = t1.dist
    mat = space.distance_matrix()
    opos = space.index_of(t1.start)
    to_origin = {b: mat[i][opos] for i, b in enumerate(space.base_ids)}
    neighbors = index.neighbors
    by_start = index.by_start
    start_dists = index.start_dists

    heap: list = []
    seq = 0
    trace: list[float] = []
    v1 = v2 = v3 = v4 = 0
    for s, e1 in neighbors[t1.end]:
        if e1 > bound_e1(ell, u, d1):
            break
        v1 += 1
        if u < d1 + e1 + to_origin[s]:
            continue
        lb2, ub2 = bound_d2(ell, u, d1, e1)
        group = by_start[s]
        for t2 in group[bisect_left(start_dists[s], lb2):]:
            d2 = t2.dist
            if d2 > ub2:
                break
            if t2.id == t1.id:
                continue
            v2 += 1
            if u < d1 + e1 + d2 + to_origin[t2.end]:
                continue
            num2 = d1 + d2
            for s2, e2 in neighbors[t2.end]:
                if e2 > bound_e2(ell, u, d1, e1, d2):
                    break
                v3 += 1
                if u < d1 + e1 + d2 + e2 + to_origin[s2]:
                    continue
                lb4, ub4 = bound_d3(ell, u, d1, e1, d2, e2)
                group2 = by_start[s2]
                for t3 in group2[bisect_left(start_dists[s2], lb4):]:
                    d3 = t3.dist
                    if d3 > ub4:
                        break
                    if t3.id == t1.id or t3.id == t2.id:
                        continue
                    v4 += 1
                    e3 = to_origin[t3.end]
                    total = d1 + e1 + d2 + e2 + d3 + e3
                    if total > u:
                        continue
                    ovr = (num2 + d3) / total
                    if ovr < ell:
                        continue
                    tri = Triangle(t1.id, t2.id, t3.id, d1, d2, d3,
                                   e1, e2, e3, ovr, total)
                    if deterministic:
                        cand = _RankedCandidate(tri)
                        if len(heap) == k:
                            worst = heap[0]
                            if ovr > worst.ovr or (ovr == worst.ovr and cand.tie < worst.tie):
                                heapq.heapreplace(heap, cand)
                        else:
                            heapq.heappush(heap, cand)
                        floor = heap[0].ovr
                    else:
                        if len(heap) == k:
                            heapq.heappop(heap)
                        heapq.heappush(heap, (ovr, seq, tri))
                        seq += 1
                        floor = heap[0][0]
                    if len(heap) == k and floor > ell:
                        ell = floor
                        trace.append(ell)

    if deterministic:
        tris = [entry.tri for entry in heap]
    else:
        tris = [entry[2] for entry in heap]
    tris.sort(key=lambda t: (-t.ovr, t.t2, t.t3))
    visits = (v1, v2, v3, v4)
    stats = SearchStats(visits, sum(visits), perf_counter() - started, tuple(trace))
    return ResultSet(tris, ell, stats)


# name -> backend for the CLI and the bench harness; each takes (index, space,
# query), and topk also `deterministic`
BACKENDS = {"brute": enumerate_bruteforce, "quad": enumerate_quad,
            "pruned": enumerate_pruned, "topk": enumerate_topk}
