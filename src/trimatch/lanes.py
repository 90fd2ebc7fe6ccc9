"""Lane registry and the two sorted structures the pruned search scans.

For every base b the index keeps the list of lane-start bases ordered by
distance from b, and for every start base s the lanes leaving s ordered by
(length, id), as the (dist, id, end) tuples the search reads. Both lists
answer range queries with a binary search, so the enumeration backends only
ever touch candidates inside their bounds. The space builds the first list
(`trimatch.metric._NeighborRows`): all of it up front when it holds its
distance matrix, else each row on first read, only as far as the reader's
bound reaches. Each row keeps its start ids and distances as two parallel
lists, and reads as the list of (id, distance) pairs. The search's lane
tuples are also grouped by end base, in the space's position order, so a
search can find the lanes that end near a base from that base's distance
column.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path

from .metric import MetricSpace, UnknownBaseError, _NeighborRows, open_csv


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
    """Built by build_index; safe to share across concurrent queries.

    Only the neighbor rows fill on first read (unless the space held its
    matrix when the index was built), each stored whole with one dict
    assignment once sorted, so concurrent readers at worst build a row twice.
    A row read through `neighbors.within(b, radius)` may hold only the starts
    within that radius until a read asks for more.

    lanes          all lanes, sorted by id
    by_id          lane id -> lane
    scan           start base -> [(dist, id, end)] of the lanes leaving it,
                   sorted by (dist, id); the bounded search scans a prefix of
                   these, and drops the client or second lane from a copy of a
                   list only at the start that lane leaves
    by_end         per base, in the space's position order: (start, scan tuple)
                   of every lane ending there, by (dist, id); the bounded
                   search zips it with a distance column to find the lanes
                   that end near a base
    neighbors      every base -> its row of start bases sorted by (distance, id),
                   built by the space (`metric._NeighborRows`): a `metric._Row`
                   of parallel `ids` and `dists` lists that reads as the list
                   [(start base, distance)]; `within(b, radius)` gives the row
                   up to at least `radius`
    """

    lanes: tuple[Lane, ...]
    by_id: dict[str, Lane]
    scan: dict[str, list[tuple[float, str, str]]]
    by_end: list[list[tuple[str, tuple[float, str, str]]]]
    neighbors: _NeighborRows


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

    ordered = tuple(sorted(by_id.values(), key=attrgetter("id")))
    scan: dict[str, list[tuple[float, str, str]]] = {}
    ends: dict[str, list[tuple[str, tuple[float, str, str]]]] = {}
    for ln in sorted(ordered, key=attrgetter("dist")):  # stable: ties stay in id order
        t = (ln.dist, ln.id, ln.end)
        scan.setdefault(ln.start, []).append(t)
        ends.setdefault(ln.end, []).append((ln.start, t))

    return LaneIndex(
        lanes=ordered,
        by_id=by_id,
        scan=scan,
        by_end=[ends.get(b, []) for b in space.base_ids],
        neighbors=_NeighborRows(space, sorted(scan)),
    )


def neighbors_within(index: LaneIndex, b: str, radius: float) -> list[tuple[str, float]]:
    """Start bases within `radius` km of b, nearest first. A NaN radius raises ValueError."""
    if b not in index.neighbors:
        raise UnknownBaseError(f"unknown base id {b!r}")
    row = index.neighbors.within(b, radius)
    return row[:bisect_right(row.dists, radius)]


def lanes_in_range(index: LaneIndex, s: str, lb: float, ub: float) -> list[Lane]:
    """Lanes leaving s with lb <= dist <= ub, by (dist, id). Empty when s has
    no lanes; a NaN bound raises ValueError."""
    if s not in index.neighbors:
        raise UnknownBaseError(f"unknown base id {s!r}")
    if math.isnan(lb) or math.isnan(ub):
        raise ValueError(f"lane length bounds must not be NaN, got [{lb}, {ub}]")
    group = index.scan.get(s, [])
    by_dist = itemgetter(0)
    span = group[bisect_left(group, lb, key=by_dist):bisect_right(group, ub, key=by_dist)]
    return [index.by_id[t[1]] for t in span]


def load_lanes_csv(path: str | Path, space: MetricSpace) -> list[Lane]:
    """Read lanes.csv (`lane_id,origin_base_id,dest_base_id[,owner]`).

    Every offending row is reported with its file line; nothing is loaded
    when any row is bad.
    """
    path = Path(path)
    problems: list[str] = []
    lanes: list[Lane] = []
    seen: set[str] = set()
    with open_csv(path, csv.DictReader) as reader:
        required = {"lane_id", "origin_base_id", "dest_base_id"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: header must contain {sorted(required)}")
        for row in reader:
            rownum = reader.reader.line_num  # the file line, blank ones counted
            lid = (row["lane_id"] or "").strip()
            start = (row["origin_base_id"] or "").strip()
            end = (row["dest_base_id"] or "").strip()
            owner = (row.get("owner") or "").strip() or None
            if not lid:
                problems.append(f"row {rownum}: empty lane_id")
                continue
            if not (start and end):
                problems.append(f"row {rownum}: empty {'dest' if start else 'origin'}_base_id")
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
