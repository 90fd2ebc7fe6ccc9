"""Enumeration backends for triangular transports.

Given a client lane t1, a triangle (t1, t2, t3) chains three loaded legs with
three empty legs and closes back at t1's start. A triangle is kept when its
occupied vehicle rate (loaded km / total km) reaches `ell` and its total
mileage stays within `u`. Three backends produce the same set:

  brute    double loop over all lane pairs, unpruned; the reference the
           others are checked against
  pruned   four loops over start bases and their lanes (the first empty
           leg's start, the second lane, the second empty leg's start, the
           third lane), each cut by distance-derived bounds to a sorted
           prefix
  topk     the same bounded search keeping a size-k min-heap, run in
           passes: first at a rate a quarter of the requested slack 1 - ell
           below 1, then half of it, then at ell itself, stopping at the
           first pass that finds k; within a pass the threshold rises to the
           provisional kth-best rate as candidates accumulate, and ties at
           the kth rate go to the smallest (t2, t3); its visit counts sum
           over the passes, and its threshold trace is the answering pass's

pruned and topk are one bounded kernel, `_bounded_search`, with different
result sinks: pruned collects every triangle, topk keeps the k best and feeds
the rising threshold back into the bounds. The kernel hands a sink plain
values, not a `Triangle`, so topk builds `Triangle`s only for its k survivors.

All backends compute the rate and mileage with one shared expression
ordering, so feasibility decisions agree bit-for-bit across them. The bounded
kernel hoists every bound term that does not change inside a loop, and
inlines the innermost window, since most level-3 bodies scan few lanes. It
iterates `LaneIndex.scan`, each start's lanes as (dist, id, end) tuples, and
drops the client and second lanes once per start, from a copy of the starts
they leave (level 1: the client's; level 3: the client's or the second
lane's), so the level-2 and level-4 bodies test no lane id.

The third empty leg e3 closes the cycle at the client's start o, and the
rate test caps it like any empty leg. So once per query the kernel lists,
per start, the lanes that end within `bound_e1` of o, with that start's
smallest e3 (`_closable_lanes`, from `LaneIndex.by_end` and o's distance
column). Level 3 skips a start with no such lane, or whose smallest e3 is
over the empty mileage e1 and e2 leave, and level 4 scans only that list.

Every level scans a sorted prefix up to a bound that needs only non-negative
distances; the early exits that need the triangle inequality run only on
great-circle spaces. So pruned and topk equal brute on any accepted matrix.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from numbers import Real
from operator import add, attrgetter, itemgetter
from time import perf_counter

from .lanes import Lane, LaneIndex, UnknownLaneError
from .metric import BOUND_SLACK, MetricSpace


@dataclass(frozen=True)
class Query:
    """A matching request: client lane, desired rate, absolute mileage cap."""

    t1: str
    ell: float
    u: float
    k: int | None = None

    def __post_init__(self):
        for name in ("ell", "u"):  # the bounds mix them with floats: no Decimal
            value = getattr(self, name)
            if not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.ell <= 1.0:
            raise ValueError(f"ell must be in (0, 1], got {self.ell}")
        if not 0.0 < self.u < math.inf:  # the bounds take inf * (1 - ell), NaN at ell 1
            raise ValueError(f"u must be positive and finite, got {self.u}")
        if self.k is not None and (type(self.k) is not int or self.k < 1):
            raise ValueError(f"k must be an int >= 1, got {self.k!r}")


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
    Level 4 enters only third lanes that end within the query's closing
    reach of the client's start (see `_closable_lanes`), so it counts those
    alone. Unpruned, with n lanes and |S| start bases, brute visits
    (n-1, (n-1)(n-2)) and the four bounded levels would visit
    (|S|, n-1, (n-1)|S|, (n-1)(n-2)) in one pass, the most pruned can visit
    at each level.

    topk sums level_visits over its passes: per level, at most what pruned
    visits at the rates of the passes it ran, which for a short answer (every
    pass runs) can exceed pruned's count at ell alone. ell_trace holds topk's
    threshold raises in order; only a pass that fills k raises it, and that
    pass answers, so they are the answering pass's raises."""

    level_visits: tuple[int, ...]
    seconds: float
    ell_trace: tuple[float, ...] = ()

    @property
    def candidates(self) -> int:
        """Loop bodies entered at all levels."""
        return sum(self.level_visits)


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
    if total == 0.0:
        raise ValueError(f"lanes {t1.id}, {t2.id}, {t3.id} have zero total mileage")
    ovr = (d1 + d2 + d3) / total
    return Triangle(t1.id, t2.id, t3.id, d1, d2, d3, e1, e2, e3, ovr, total)


def is_feasible(tr: Triangle, ell: float, u: float) -> bool:
    """Both cutoffs are inclusive."""
    return tr.ovr >= ell and tr.total <= u


def bound_e1(ell: float, u: float, d1: float) -> float:
    """Largest first empty leg any qualifying triangle can have. May be negative.

    Rests on non-negative distances alone: the rate test (1 - ell) * D >=
    ell * E, with D the loaded and E the empty mileage, gives
    e1 <= E <= (1 - ell) * total <= (1 - ell) * u, and total <= u gives
    e1 <= u - d1. The same holds for e3, so this is also how far from the
    client's start a closing third lane may end.
    """
    return min(u * (1.0 - ell), u - d1) + BOUND_SLACK * u


def bound_d2(ell: float, u: float, d1: float, e1: float) -> tuple[float, float]:
    """Admissible second-lane length range (lower clamped to 0).

    The upper end rests on non-negative distances alone (total <= u); it is
    all the bounded search reads. The lower end holds only on symmetric
    metrics: it needs d3 <= e2 + d2 + e1 + d1 + e3, the cycle walked
    backwards from t3's start to its end.
    """
    upper = u - (d1 + e1) + BOUND_SLACK * u
    if ell == 1.0:
        lower = 0.0
    else:
        lower = max(0.0, (2.0 * ell - 1.0) / (2.0 * (1.0 - ell)) * e1 - d1
                    - BOUND_SLACK * u / (1.0 - ell))
    return lower, upper


def bound_e2(ell: float, u: float, d1: float, e1: float, d2: float) -> float:
    """Largest second empty leg; at most BOUND_SLACK * u once e1 spends the
    empty-mileage budget.

    Rests on non-negative distances alone: e1 + e2 <= (1 - ell) * u by the
    rate test, and d1 + e1 + d2 + e2 <= u. So is the level-3 cut that needs
    e3 <= bound_e2(...) - e2 (+ slack): the same two sums with e3 added.
    """
    return min(u * (1.0 - ell) - e1, u - (d1 + e1 + d2)) + BOUND_SLACK * u


def bound_d3(ell: float, u: float, d1: float, e1: float, d2: float,
             e2: float) -> tuple[float, float]:
    """Admissible third-lane length range (lower clamped to 0).

    Both ends rest on non-negative distances alone, and the bounded search
    reads only the upper: the upper on total <= u, the lower on the rate
    test with e3 >= 0, (1 - ell) * (d1 + d2 + d3) >= ell * (e1 + e2).
    """
    upper = u - (d1 + e1 + d2 + e2) + BOUND_SLACK * u
    if ell == 1.0:
        return 0.0, upper
    return max(0.0, ell / (1.0 - ell) * (e1 + e2) - (d1 + d2)
               - BOUND_SLACK * u / (1.0 - ell)), upper


def _client_lane(index: LaneIndex, lane_id: str) -> Lane:
    try:
        return index.by_id[lane_id]
    except KeyError:
        raise UnknownLaneError(f"unknown lane id {lane_id!r}") from None


def enumerate_bruteforce(index: LaneIndex, space: MetricSpace, query: Query) -> ResultSet:
    """Exhaustive double loop over ordered lane pairs. Correctness reference.
    Builds its own per-lane arrays per call: O(|T|) next to its O(|T|^2) loop."""
    started = perf_counter()
    t1 = _client_lane(index, query.t1)
    ell, u = query.ell, query.u
    d1 = t1.dist
    lanes = index.lanes
    n = len(lanes)
    mat = space.distance_matrix()
    opos = space.index_of(t1.start)
    start_ix = [space.index_of(l.start) for l in lanes]
    end_ix = [space.index_of(l.end) for l in lanes]
    to_origin = [mat[e][opos] for e in end_ix]  # e3 per candidate t3
    row1 = mat[space.index_of(t1.end)]
    i1 = bisect_left(lanes, t1.id, key=attrgetter("id"))  # lanes are sorted by id

    inf = math.inf
    masked = [l.dist for l in lanes]
    masked[i1] = inf  # masked lanes can never satisfy total <= u
    tris: list[Triangle] = []
    for j2 in range(n):
        if j2 == i1:
            continue
        l2 = lanes[j2]
        e1 = row1[start_ix[j2]]
        d2 = l2.dist
        base = d1 + e1 + d2
        num2 = d1 + d2
        row2 = mat[end_ix[j2]]
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
    stats = SearchStats(visits, perf_counter() - started)
    return ResultSet(tris, query.ell, stats)


def _triangle(t1: str, ovr: float, t2: str, t3: str,
              legs: tuple[float, ...]) -> Triangle:
    """The `Triangle` for a sink's arguments."""
    d1, d2, d3, e1, e2, e3, total = legs
    return Triangle(t1, t2, t3, d1, d2, d3, e1, e2, e3, ovr, total)


def _closable_lanes(by_end: list, column: list[float], reach: float
                    ) -> dict[str, tuple[float, list[tuple[float, str, str]]]]:
    """start -> (smallest e3, its lanes that end within `reach` of the client's
    start, as `scan` tuples in `scan`'s order); a start with no such lane has
    no entry. `column` holds each base's distance to the client's start, in
    the space's position order, as `LaneIndex.by_end` does its lanes.

    The ends are taken nearest first, so the first e3 a start gets is its
    smallest; a start's tuples are then sorted back into (dist, id) order.
    They are the index's own tuples, and level 4 looks e3 up again: a new
    (d3, id, e3) tuple per closable lane cost more than that lookup per visit.
    """
    table = {}
    get = table.get
    for e3, ends in sorted([p for p in zip(column, by_end) if p[0] <= reach],
                           key=itemgetter(0)):
        for s, t in ends:
            entry = get(s)
            if entry is None:
                table[s] = (e3, [t])
            else:
                entry[1].append(t)
    for _, group in table.values():
        group.sort()
    return table


def _origin_distances(space: MetricSpace, start: str
                      ) -> tuple[list[float], dict[str, float]]:
    """Each base's distance to the client's start, as the position-order
    column `_closable_lanes` reads and as the id -> distance map the exits
    and level 4 read. Built once per query, however many passes it runs."""
    column = space.distances_to(start)
    return column, dict(zip(space.base_ids, column))


def _bounded_search(index: LaneIndex, space: MetricSpace, t1: Lane,
                    origin: tuple[list[float], dict[str, float]], ell: float,
                    u: float, accept) -> tuple[int, ...]:
    """The four bounded loops behind `pruned` and `topk`; returns level_visits.
    `origin` is `_origin_distances` of t1's start.

    Every level scans a sorted prefix up to its bound: neighbors up to
    `bound_e1` and `bound_e2`, lanes up to the upper ends of `bound_d2` and
    `bound_d3`. Level 3 reads its starts' lanes from `_closable_lanes` and
    skips a start whose smallest e3 is over b3 - e2 (+ slack). These cuts
    need only non-negative distances. The three exits need more: they drop a
    partial cycle of mileage a at x once a + d(x, o) > `cap`, which rests on
    the origin inequality d(x, o) <= d(x, y) + d(y, o). That holds on great
    circles up to `BOUND_SLACK`, so on an explicit space `cap` is inf.

    Every triangle passing the inclusive final test goes to
    `accept(ovr, t2, t3, legs)`, with t2 and t3 lane ids and
    legs = (d1, d2, d3, e1, e2, e3, total), which returns the rate threshold
    for the rest of the search. When it rises, b1 and b3 are recomputed,
    which gives the same scans as re-reading them on every iteration. Most
    level-3 bodies scan few lanes, so their set-up is inlined: the upper ends
    of `bound_d2` and `bound_d3` and the sums a1..a3, each the same float as
    the six-term sum's prefix.
    """
    d1 = t1.dist
    t1_id = t1.id
    t1_start = t1.start
    column, to_origin = origin
    near = index.neighbors.within
    scan = index.scan
    slack = BOUND_SLACK * u
    cap = math.inf if space.explicit else u + slack  # the exits: great circles only

    v1 = v2 = v3 = v4 = 0
    b1 = bound_e1(ell, u, d1)
    closable = _closable_lanes(index.by_end, column, b1)
    unclosable = (math.inf, [])
    row = near(t1.end, b1)
    for s, e1 in zip(row.ids, row.dists):
        if e1 > b1:
            break
        v1 += 1
        a1 = d1 + e1
        if cap < a1 + to_origin[s]:
            continue
        ub2 = u - a1 + slack
        group = scan[s]
        if s == t1_start:
            group = [t for t in group if t[1] != t1_id]
        for d2, t2_id, t2_end in group:
            if d2 > ub2:
                break
            v2 += 1
            a2 = a1 + d2
            if cap < a2 + to_origin[t2_end]:
                continue
            num2 = d1 + d2
            b3 = bound_e2(ell, u, d1, e1, d2)
            row2 = near(t2_end, b3)
            for s2, e2 in zip(row2.ids, row2.dists):
                if e2 > b3:
                    break
                v3 += 1
                e3_min, group2 = closable.get(s2, unclosable)
                if e3_min > b3 - e2 + slack:
                    continue
                a3 = a2 + e2
                if cap < a3 + to_origin[s2]:
                    continue
                ub4 = u - a3 + slack
                if s2 == t1_start or s2 == s:
                    group2 = [t for t in group2 if t[1] != t1_id and t[1] != t2_id]
                for d3, t3_id, t3_end in group2:
                    if d3 > ub4:
                        break
                    v4 += 1
                    e3 = to_origin[t3_end]
                    total = a3 + d3 + e3
                    if total <= u:
                        ovr = (num2 + d3) / total
                        if ovr >= ell:
                            floor = accept(ovr, t2_id, t3_id, (d1, d2, d3, e1, e2, e3, total))
                            if floor != ell:
                                ell = floor
                                b1 = bound_e1(ell, u, d1)
                                b3 = bound_e2(ell, u, d1, e1, d2)
    return v1, v2, v3, v4


def enumerate_pruned(index: LaneIndex, space: MetricSpace, query: Query) -> ResultSet:
    """Bounded search that keeps every qualifying triangle. Output is
    identical to the brute-force set."""
    started = perf_counter()
    t1 = _client_lane(index, query.t1)
    ell = query.ell
    tris: list[Triangle] = []

    def collect(ovr: float, t2: str, t3: str, legs: tuple[float, ...]) -> float:
        tris.append(_triangle(t1.id, ovr, t2, t3, legs))
        return ell

    origin = _origin_distances(space, t1.start)
    visits = _bounded_search(index, space, t1, origin, ell, query.u, collect)
    return ResultSet(tris, ell, SearchStats(visits, perf_counter() - started))


class _Descending(tuple):
    """A (t2, t3) tie key that orders in reverse, so the largest ranks worst."""

    __slots__ = ()
    __lt__ = tuple.__gt__


# topk's passes: pass p searches at the rate 1 - f * (1 - ell), a fraction f of
# the requested slack below 1; the last is ell itself
_PASSES = (0.25, 0.5, 1.0)


def _pass_rates(ell: float) -> list[float]:
    """topk's pass rates for the requested `ell`, highest first, with a rate
    equal to the one before dropped (at ell 1 there is one pass). Written as
    ell + (1 - f)(1 - ell), which is never under ell and is ell itself at
    f = 1."""
    return list(dict.fromkeys(ell + (1.0 - f) * (1.0 - ell) for f in _PASSES))


def enumerate_topk(index: LaneIndex, space: MetricSpace, query: Query) -> ResultSet:
    """Keep the k best rates in a min-heap while searching with rising bounds,
    in passes at the `_pass_rates` of query.ell, each with a fresh heap,
    until one pass holds k triangles.

    A pass at rate r >= ell finds every triangle rated at least r. If it
    holds k, the kth-best rate is at least r, so it found the whole top k;
    if not, the next pass widens the reach. The last pass is at ell itself.
    Within a pass the pass rate is the threshold until k candidates are
    found; once the heap is full the threshold jumps to the heap minimum
    after every insertion, shrinking all four scan ranges for the rest of
    the pass. level_visits sum over the passes run.

    Heap entries are (ovr, tie, legs) tuples with tie = (t2, t3) reversed, so
    heap[0] is the worst: the lowest rate, and among equal rates the largest
    (t2, t3). Ties are unique, so `legs` is never compared, and the entries
    sorted in reverse are the top-k prefix of the full result ordered by
    (rate desc, t2, t3), whatever order the search finds them in. Only those
    k entries become `Triangle`s.
    """
    if query.k is None:
        raise ValueError("top-k search needs query.k")
    started = perf_counter()
    t1 = _client_lane(index, query.t1)
    k = query.k
    origin = _origin_distances(space, t1.start)
    heap: list[tuple[float, _Descending, tuple[float, ...]]] = []
    trace: list[float] = []
    visits = (0, 0, 0, 0)

    def keep_best(ovr: float, t2: str, t3: str, legs: tuple[float, ...]) -> float:
        nonlocal ell
        entry = (ovr, _Descending((t2, t3)), legs)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif heap[0] < entry:
            heapq.heapreplace(heap, entry)
        if len(heap) == k and heap[0][0] > ell:
            ell = heap[0][0]
            trace.append(ell)
        return ell

    for ell in _pass_rates(query.ell):
        heap.clear()
        found = _bounded_search(index, space, t1, origin, ell, query.u, keep_best)
        visits = tuple(map(add, visits, found))
        if len(heap) == k:
            break
    tris = [_triangle(t1.id, ovr, *tie, legs) for ovr, tie, legs in sorted(heap, reverse=True)]
    return ResultSet(tris, ell, SearchStats(visits, perf_counter() - started, tuple(trace)))


# name -> backend for the CLI and the bench harness; each takes (index, space,
# query)
BACKENDS = {"brute": enumerate_bruteforce, "pruned": enumerate_pruned,
            "topk": enumerate_topk}
