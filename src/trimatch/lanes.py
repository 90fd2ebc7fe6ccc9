"""Lane registry and the two sorted structures the pruned search scans.

For every base b the index keeps the list of lane-start bases ordered by
distance from b, and for every start base s the lanes leaving s ordered by
lane length, as `Lane`s and as the plain tuples the search reads. Both lists
answer range queries with a binary search, so the enumeration backends only
ever touch candidates inside their bounds. When the space already holds its
distance matrix, `build_index` sorts every base's list up front; otherwise a
list is built the first time it is read, and only as far as the reader's
bound reaches. The same tuples are also grouped by end base, in the space's
position order, so a search can find the lanes that end near a base from
that base's distance column.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from pathlib import Path

from .metric import MetricSpace, UnknownBaseError, _young_gc_off, open_csv


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


class _NeighborRows(Mapping):
    """Every base -> [(start base, distance)] sorted by (distance, id).

    `build_index` fills every row when the space holds its matrix. Otherwise
    `within(b, radius)` builds b's row through `MetricSpace._within` on first
    read, keeping only the starts within `radius` of b: it measures just the
    starts inside the latitude band and longitude span that radius allows, so
    a search pays for the neighborhood its bounds admit rather than for all
    |starts|. `neighbors[b]` is `within(b, inf)`. Each entry is (reach, row),
    with every start within `reach` of b in `row` (inf: the whole row), and a
    read that asks for more rebuilds it. Membership, len and iteration (every
    base id, in space order) build nothing.
    """

    def __init__(self, space: MetricSpace, start_ids: list[str], start_pos: list[int],
                 rows: dict[str, tuple[float, list[tuple[str, float]]]]):
        self._space = space
        self._start_ids = start_ids
        self._start_pos = start_pos
        self._rows = rows

    @cached_property
    def _by_lat(self):
        """The starts by latitude, for `MetricSpace._within`."""
        return self._space._lat_order(self._start_pos)

    def __getitem__(self, b: str) -> list[tuple[str, float]]:
        if b not in self._space:
            raise KeyError(b)
        return self.within(b, math.inf)

    def within(self, b: str, radius: float) -> list[tuple[str, float]]:
        """b's row up to at least `radius`, nearest first: every start within
        `radius` of b is in it, and any longer entries come after them."""
        entry = self._rows.get(b)
        if entry is not None and entry[0] >= radius:
            return entry[1]
        start_ids = self._start_ids
        row = [(start_ids[i], d) for d, i in self._space._within(b, radius, self._by_lat)]
        self._rows[b] = (radius, row)
        return row

    def __contains__(self, b: object) -> bool:
        return b in self._space

    def __iter__(self) -> Iterator[str]:
        return iter(self._space.base_ids)

    def __len__(self) -> int:
        return len(self._space)


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
    by_start       start base -> lanes leaving it, sorted by (dist, id)
    scan           start base -> [(dist, id, end)] of by_start's lanes, in its
                   order; the bounded search scans a prefix of these, and
                   drops the client or second lane from a copy of a list only
                   at the start that lane leaves
    by_end         per base, in the space's position order: (start, scan tuple)
                   of every lane ending there; the bounded search zips it with
                   a distance column to find the lanes that end near a base
    neighbors      every base -> [(start base, distance)] sorted by (distance, id);
                   `within(b, radius)` gives the row up to at least `radius`
    """

    lanes: tuple[Lane, ...]
    by_id: dict[str, Lane]
    by_start: dict[str, list[Lane]]
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

    ordered = tuple(sorted(by_id.values(), key=lambda l: l.id))
    by_start: dict[str, list[Lane]] = {}
    for ln in ordered:
        by_start.setdefault(ln.start, []).append(ln)
    for group in by_start.values():  # stable over lanes in id order: ties stay in id order
        group.sort(key=attrgetter("dist"))

    start_ids = sorted(by_start)
    start_pos = [space.index_of(s) for s in start_ids]
    rows: dict[str, tuple[float, list[tuple[str, float]]]] = {}
    if space._dcache is not None:  # the distances are paid for: sort every row now
        # a stable sort over starts in id order keeps ties in id order
        with _young_gc_off():
            rows = {b: (math.inf, sorted(zip(start_ids, map(row.__getitem__, start_pos)),
                                         key=itemgetter(1)))
                    for b, row in zip(space.base_ids, space._dcache)}

    scan = {s: [(l.dist, l.id, l.end) for l in group] for s, group in by_start.items()}
    ends: dict[str, list[tuple[str, tuple[float, str, str]]]] = {}
    for s, group in scan.items():
        for t in group:
            ends.setdefault(t[2], []).append((s, t))

    return LaneIndex(
        lanes=ordered,
        by_id=by_id,
        by_start=by_start,
        scan=scan,
        by_end=[ends.get(b, []) for b in space.base_ids],
        neighbors=_NeighborRows(space, start_ids, start_pos, rows),
    )


def neighbors_within(index: LaneIndex, b: str, radius: float) -> list[tuple[str, float]]:
    """Start bases within `radius` km of b, nearest first."""
    if b not in index.neighbors:
        raise UnknownBaseError(f"unknown base id {b!r}")
    pairs = index.neighbors.within(b, radius)
    hi = bisect_right(pairs, radius, key=lambda p: p[1])
    return pairs[:hi]


def lanes_in_range(index: LaneIndex, s: str, lb: float, ub: float) -> list[Lane]:
    """Lanes leaving s with lb <= dist <= ub, ascending. Empty when s has no lanes."""
    if s not in index.neighbors:
        raise UnknownBaseError(f"unknown base id {s!r}")
    group = index.by_start.get(s)
    if not group:
        return []
    by_dist = attrgetter("dist")
    return group[bisect_left(group, lb, key=by_dist):bisect_right(group, ub, key=by_dist)]


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
