"""Lane registry and the two sorted structures the pruned search scans.

For every base b the index keeps the list of lane-start bases ordered by
distance from b, and for every start base s the lanes leaving s ordered by
lane length. Both lists answer range queries with a binary search, so the
enumeration backends only ever touch candidates inside their bounds.
"""

from __future__ import annotations

import csv
import gc
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .metric import MetricSpace, UnknownBaseError


class UnknownLaneError(LookupError):
    """Raised when a lane id is not present in the index."""


@dataclass(frozen=True)
class Lane:
    """A full-truckload request: start base, end base, cached length in km."""

    id: str
    start: str
    end: str
    dist: float
    owner: str | None = None


def make_lane(lane_id: str, start: str, end: str, space: MetricSpace,
              owner: str | None = None) -> Lane:
    if start == end:
        raise ValueError(f"lane {lane_id!r}: start and end are both {start!r}")
    return Lane(lane_id, start, end, space.distance(start, end), owner)


@dataclass
class LaneIndex:
    """Read-only after build_index; safe to share across concurrent queries.

    lanes          all lanes, sorted by id
    by_id          lane id -> lane
    by_start       start base -> lanes leaving it, sorted by (dist, id)
    start_dists    parallel sort keys for by_start, for bisecting
    starts         bases with at least one outgoing lane
    neighbors      every base -> [(start base, distance)] sorted by (distance, id)
    """

    lanes: tuple[Lane, ...]
    by_id: dict[str, Lane]
    by_start: dict[str, list[Lane]]
    start_dists: dict[str, list[float]]
    starts: frozenset[str]
    neighbors: dict[str, list[tuple[str, float]]]


def build_index(lanes, space: MetricSpace) -> LaneIndex:
    """Build both sorted structures. Ties in any sort key break by id ascending."""
    by_id: dict[str, Lane] = {}
    for ln in lanes:
        if ln.id in by_id:
            raise ValueError(f"duplicate lane id {ln.id!r}")
        exact = space.distance(ln.start, ln.end)  # also rejects unknown endpoints
        if ln.start == ln.end or exact == 0.0:  # searches divide by total >= d1 > 0
            raise ValueError(f"lane {ln.id!r}: zero length ({ln.start!r} to {ln.end!r})")
        if exact != ln.dist:
            raise ValueError(f"lane {ln.id!r}: cached dist {ln.dist!r} != {exact!r}")
        by_id[ln.id] = ln

    ordered = tuple(sorted(by_id.values(), key=lambda l: l.id))
    by_start: dict[str, list[Lane]] = {}
    for ln in ordered:
        by_start.setdefault(ln.start, []).append(ln)
    for group in by_start.values():
        group.sort(key=lambda l: (l.dist, l.id))
    start_dists = {s: [l.dist for l in group] for s, group in by_start.items()}
    starts = frozenset(by_start)

    mat = space.distance_matrix()
    start_ids = sorted(starts)
    start_pos = [space.index_of(s) for s in start_ids]
    neighbors: dict[str, list[tuple[str, float]]] = {}
    # |B| x |starts| new acyclic tuples. The cyclic GC is paused while they are
    # made, then freeze + unfreeze moves every tracked object, these included,
    # to the oldest generation, so no young collection traverses them (skipped
    # if the caller has frozen objects: unfreeze would thaw those too).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for b, row in zip(space.base_ids, mat):
            # stable sort over starts in id order: ties stay in id order
            neighbors[b] = sorted(zip(start_ids, map(row.__getitem__, start_pos)),
                                  key=itemgetter(1))
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
    finally:
        if gc_was_enabled:
            gc.enable()

    return LaneIndex(
        lanes=ordered,
        by_id=by_id,
        by_start=by_start,
        start_dists=start_dists,
        starts=starts,
        neighbors=neighbors,
    )


def neighbors_within(index: LaneIndex, b: str, radius: float) -> list[tuple[str, float]]:
    """Start bases within `radius` km of b, nearest first."""
    try:
        pairs = index.neighbors[b]
    except KeyError:
        raise UnknownBaseError(f"unknown base id {b!r}") from None
    hi = bisect_right(pairs, radius, key=lambda p: p[1])
    return pairs[:hi]


def lanes_in_range(index: LaneIndex, s: str, lb: float, ub: float) -> list[Lane]:
    """Lanes leaving s with lb <= dist <= ub, ascending. Empty when s has no lanes."""
    if s not in index.neighbors:
        raise UnknownBaseError(f"unknown base id {s!r}")
    group = index.by_start.get(s)
    if not group:
        return []
    keys = index.start_dists[s]
    lo = bisect_left(keys, lb)
    hi = bisect_right(keys, ub)
    return group[lo:hi]


def load_lanes_csv(path: str | Path, space: MetricSpace) -> list[Lane]:
    """Read lanes.csv (`lane_id,origin_base_id,dest_base_id[,owner]`).

    Every offending row is reported with its row number; nothing is loaded
    when any row is bad.
    """
    path = Path(path)
    problems: list[str] = []
    lanes: list[Lane] = []
    seen: set[str] = set()
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"lane_id", "origin_base_id", "dest_base_id"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: header must contain {sorted(required)}")
        for rownum, row in enumerate(reader, start=2):
            lid = (row["lane_id"] or "").strip()
            start = (row["origin_base_id"] or "").strip()
            end = (row["dest_base_id"] or "").strip()
            owner = (row.get("owner") or "").strip() or None
            if not lid:
                problems.append(f"row {rownum}: empty lane_id")
                continue
            if lid in seen:
                problems.append(f"row {rownum}: duplicate lane id {lid!r}")
                continue
            bad = [b for b in (start, end) if b not in space]
            if bad:
                problems.append(f"row {rownum}: unknown base id {bad[0]!r}")
                continue
            lane = Lane(lid, start, end, space.distance(start, end), owner)
            if start == end or lane.dist == 0.0:
                problems.append(f"row {rownum}: lane {lid!r} has zero length ({start!r} to {end!r})")
                continue
            seen.add(lid)
            lanes.append(lane)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return lanes
