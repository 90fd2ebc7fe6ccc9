"""Finite metric space over transportation bases, and its neighbor rows.

Two distance providers are supported: great-circle distance from WGS84
coordinates, and an explicit square kilometre matrix. The search is exact on
any matrix the space accepts (see `trimatch.search`), so the axiom checker
here vets a user's data, not a premise of the search. `_NeighborRows` lists
a set of start bases by distance from each base: sorted up front from the
matrix when the space holds one, else measured on first read, and only
inside the latitude band and longitude span the reader's radius allows.
Each list is a `_Row`: how far it reaches, and its start ids and distances
in two parallel lists.
"""

from __future__ import annotations

import csv
import gc
import math
import random
import threading
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

EARTH_RADIUS_KM = 6371.0088
_DEG = math.pi / 180.0  # x * _DEG is exactly math.radians(x)

# Relative tolerance for rounding in sums of distances. The search's bounds and
# its triangle-inequality exits (run on great circles only) are exact in real
# arithmetic, but the float test `ovr >= ell and total <= u` can pass a
# triangle a rounding error outside them, and great-circle floats break
# d(a, c) <= d(a, b) + d(b, c) by an ulp on collinear points. So the search
# widens each by BOUND_SLACK * u, a lane-length lower bound (rate errors scale
# by 1 / (1 - ell)) by BOUND_SLACK * u / (1 - ell), and `validate_metric` flags
# only an excess over BOUND_SLACK * d(a, c). That is far above the few-ulp
# errors, and harmless, since the inclusive final test still decides.
BOUND_SLACK = 1e-9


class UnknownBaseError(LookupError):
    """Raised when a base id is not registered in the space."""


_GC_SWITCH = threading.Lock()


@contextmanager
def _young_gc_off():
    """Make many new acyclic containers without a cyclic collection traversing
    them. `MetricSpace.distance_matrix` pauses the GC to build its rows, and
    `_NeighborRows` to sort every row from the matrix at once.

    The GC is paused while they are made, then freeze + unfreeze moves every
    tracked object, these included, to the oldest generation in O(1), so no
    young collection traverses them (skipped if the caller has frozen objects:
    unfreeze would thaw those too). The lock keeps concurrent builds from
    reading each other's pause as the GC's state and leaving it off; it is not
    reentrant, so nothing inside a pause may start another.
    """
    with _GC_SWITCH:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            yield
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
        finally:
            if gc_was_enabled:
                gc.enable()


@dataclass(frozen=True)
class Base:
    """A transportation point. lat/lon are required by the great-circle provider."""

    id: str
    lat: float | None = None
    lon: float | None = None


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    # rounding can push a marginally above 1 for near-antipodal pairs
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


class MetricSpace:
    """Immutable base registry plus its distances: the explicit km `matrix`
    when one is given, else great-circle distances from the coordinates.

    Great-circle d(a, b) and d(b, a) are the same float, not merely close:
    every haversine term is even in the sign of its difference, and
    cos(phi1) * cos(phi2) commutes.

    Only the great-circle matrix is kept once built: `distance_matrix()`
    stores it whole with one assignment, so the space stays safe to share
    across concurrent readers. Without it, `distances_to` builds each row
    for its caller and keeps none.
    """

    def __init__(self, bases: list[Base] | tuple[Base, ...],
                 matrix: list[list[float]] | None = None):
        bases = tuple(bases)
        seen: set[str] = set()
        for b in bases:
            if b.id in seen:
                raise ValueError(f"duplicate base id {b.id!r}")
            seen.add(b.id)
        if matrix is None:
            for b in bases:
                if b.lat is None or b.lon is None:
                    raise ValueError(f"base {b.id!r} has no coordinates")
                if not -90.0 <= b.lat <= 90.0:
                    raise ValueError(f"base {b.id!r}: lat {b.lat} outside [-90, 90]")
                if not -180.0 <= b.lon <= 180.0:
                    raise ValueError(f"base {b.id!r}: lon {b.lon} outside [-180, 180]")
        else:
            if len(matrix) != len(bases):
                raise ValueError(f"matrix has {len(matrix)} rows for {len(bases)} bases")
            for i, row in enumerate(matrix):
                if len(row) != len(bases):
                    raise ValueError(f"matrix row {i} has {len(row)} entries, expected {len(bases)}")
                if not _finite_and_nonnegative(row):  # find the bad value, if any
                    for v in row:
                        try:
                            valid = math.isfinite(v) and v >= 0.0
                        except (TypeError, OverflowError):  # no number, or too large to test
                            valid = False
                        if not valid:
                            raise ValueError(f"matrix row {i} contains invalid distance {v!r}")
        self.bases = bases
        self._pos = {b.id: i for i, b in enumerate(bases)}
        self._dcache: list[list[float]] | None = matrix
        self._explicit = matrix is not None
        self.base_ids: tuple[str, ...] = tuple(b.id for b in bases)

    @classmethod
    def great_circle(cls, bases) -> "MetricSpace":
        return cls(bases)

    @classmethod
    def from_matrix(cls, bases, matrix) -> "MetricSpace":
        if matrix is None:
            raise ValueError("from_matrix requires a matrix")
        return cls(bases, matrix)

    @property
    def explicit(self) -> bool:
        """A matrix was given: false for great circles, matrix built or not."""
        return self._explicit

    def __len__(self) -> int:
        return len(self.bases)

    def __contains__(self, base_id: str) -> bool:
        return base_id in self._pos

    def index_of(self, base_id: str) -> int:
        try:
            return self._pos[base_id]
        except KeyError:
            raise UnknownBaseError(f"unknown base id {base_id!r}") from None

    def distance(self, a: str, b: str) -> float:
        """Distance in km between two registered base ids."""
        return self._pair(self.index_of(a), self.index_of(b))

    def _pair(self, i: int, j: int) -> float:
        if self._dcache is not None:
            return self._dcache[i][j]
        ba, bb = self.bases[i], self.bases[j]
        return _haversine_km(ba.lat, ba.lon, bb.lat, bb.lon)

    def distance_matrix(self) -> list[list[float]]:
        """All-pairs distances, built once and cached.

        O(|B|^2) memory, so only brute force and callers that want every
        neighbor row sorted up front build it. A great-circle space evaluates
        each unordered pair once and stores that one float object at both
        (a, b) and (b, a). Its |B| row lists are built with the young GC
        paused, so no collection walks their |B|^2 entries.
        """
        if self._dcache is None:
            with _young_gc_off():
                self._dcache = _great_circle_matrix(self.bases)
        return self._dcache

    @cached_property
    def _points(self) -> list[tuple[float, float, float]]:
        """(lat, lon, cos(phi)) per position, made when the first distances are."""
        return [(b.lat, b.lon, math.cos(b.lat * _DEG)) for b in self.bases]

    def distances_to(self, base_id: str) -> list[float]:
        """d(b, base_id) for every base b, in position order.

        With an explicit matrix this is its column, copied per call. On great
        circles it is the base's row, which equals the column bit for bit,
        since each pair is symmetric: row j of a held matrix, which holds the
        column's own float objects (read it, do not change it), or else a new
        row per call, O(|B|) work for one base instead of O(|B|^2) for all.
        """
        j = self.index_of(base_id)
        if self._dcache is not None:
            return [row[j] for row in self._dcache] if self._explicit else self._dcache[j]
        return _great_circle_row(self._points[j], self._points)


def _finite_and_nonnegative(row) -> bool:
    """True when every value in `row` is a finite number >= 0, checked in C:
    a NaN or an infinity makes the sum non-finite. False when unsure (the
    sum of large values can overflow, or a value is no float), so callers
    then check the row value by value."""
    try:
        return min(row, default=0.0) >= 0.0 and math.isfinite(sum(row))
    except (TypeError, OverflowError):
        return False


def _lat_reach_deg(radius_km: float) -> float:
    """How many degrees of latitude a point within `radius_km` great-circle km
    can differ by: the distance is at least R * |dphi|. The slack covers
    rounding in the distance and in the latitude difference."""
    return radius_km / (EARTH_RADIUS_KM * _DEG) * (1.0 + 1e-9) + 1e-9


def _lon_reach_deg(radius_km: float, lat: float, lat_reach: float) -> float:
    """How many degrees of longitude, taken the short way round, a point
    within `radius_km` of a point at `lat` can differ by when its own latitude
    is within `lat_reach` of `lat`; 180 when that rules nothing out.

    The haversine term a is at least cos(phi1) cos(phi2) sin^2(dlam / 2), and
    |phi2| <= far bounds cos(phi2) from below. The cutoff at 0.99 keeps asin
    away from its steep end, where rounding would outgrow the slack.
    """
    far = min(90.0, abs(lat) + lat_reach)
    c = math.cos(lat * _DEG) * math.cos(far * _DEG)
    half = radius_km / (2.0 * EARTH_RADIUS_KM)
    if half >= 1.5 or c <= 0.0:
        return 180.0
    s = math.sin(half) / math.sqrt(c)
    if s >= 0.99:
        return 180.0
    return 2.0 * math.asin(s) / _DEG * (1.0 + 1e-9) + 1e-9


def _great_circle_row(origin: tuple[float, float, float],
                      points: list[tuple[float, float, float]]) -> list[float]:
    """`_haversine_km` from origin to every (lat, lon, cos(phi)) point, bit
    for bit, in either argument order: each term is even in the sign of its
    difference (sin(-x)**2 == sin(x)**2) and cos(phi1) * cos(phi2) commutes.
    Clamping `a` before the square root equals clamping after it, since sqrt
    is correctly rounded."""
    lat1, lon1, cos1 = origin
    deg = _DEG
    sin, asin, sqrt = math.sin, math.asin, math.sqrt
    hav = [sin((lat2 - lat1) * deg / 2.0) ** 2 + cos1 * cos2 * sin((lon2 - lon1) * deg / 2.0) ** 2
           for lat2, lon2, cos2 in points]
    diameter = 2.0 * EARTH_RADIUS_KM
    return [diameter * asin(sqrt(a if a < 1.0 else 1.0)) for a in hav]


def _great_circle_matrix(bases: tuple[Base, ...]) -> list[list[float]]:
    """`_haversine_km` over every pair, bit for bit, at one evaluation per pair.

    Row r computes its pairs with every later position and takes its earlier
    entries from the rows above it.
    """
    points = [(b.lat, b.lon, math.cos(b.lat * _DEG)) for b in bases]
    rows: list[list[float]] = []
    for r, origin in enumerate(points):
        rows.append([row[r] for row in rows] + [0.0] + _great_circle_row(origin, points[r + 1:]))
    return rows


class _Row:
    """One neighbor row: start ids and their distances, in two parallel lists
    in (distance, id) order, holding every start within `reach` of its base
    (inf: every start). The search zips `ids` and `dists`, and
    `neighbors_within` bisects `dists`."""

    __slots__ = ("reach", "ids", "dists")

    def __init__(self, reach: float, ids: list[str], dists: list[float]):
        self.reach = reach
        self.ids = ids
        self.dists = dists

    def __len__(self) -> int:
        return len(self.ids)


class _NeighborRows(Mapping):
    """Every base -> its `_Row` over the given start ids, sorted by
    (distance, id).

    When the space holds its matrix, the constructor sorts every row from it,
    keeping the matrix's own float objects. Otherwise `within(b, radius)`
    builds b's row on first read, keeping only the starts within `radius` of
    b: it measures just the starts inside the latitude band and longitude
    span that radius allows, so a search pays for the neighborhood its bounds
    admit rather than for all |starts|. Each distance is the float
    `distances_to` gives. `self[b]` is `within(b, inf)`. A read that asks for
    more than a row's `reach` rebuilds it. Membership, len and iteration
    (every base id, in space order) build nothing.
    """

    def __init__(self, space: MetricSpace, start_ids: list[str]):
        self._space = space
        self._start_ids = start_ids
        self._rows: dict[str, _Row] = {}
        if space._dcache is not None:  # the distances are paid for: sort every row now
            ids = space.base_ids
            pos = [space.index_of(s) for s in start_ids]
            # a stable sort over starts in id order keeps ties in id order
            with _young_gc_off():
                for b, row in zip(ids, space._dcache):
                    order = sorted(pos, key=row.__getitem__)
                    self._rows[b] = _Row(math.inf, list(map(ids.__getitem__, order)),
                                         list(map(row.__getitem__, order)))

    @cached_property
    def _by_lat(self) -> tuple[list[float], list[tuple[str, tuple[float, float, float]]]]:
        """The starts by latitude: their latitudes ascending, and
        (start id, (lat, lon, cos(phi))) of each."""
        space = self._space
        entries = sorted(((s, space._points[space.index_of(s)]) for s in self._start_ids),
                         key=lambda e: e[1][0])
        return [p[0] for _, p in entries], entries

    def __getitem__(self, b: str) -> _Row:
        if b not in self._space:
            raise KeyError(b)
        return self.within(b, math.inf)

    def within(self, b: str, radius: float) -> _Row:
        """b's row up to at least `radius`, nearest first: every start within
        `radius` of b is in it, and any longer entries come after them. A NaN
        radius raises ValueError and leaves every row as it was, and a negative
        one, which no start is within, measures and keeps nothing."""
        row = self._rows.get(b)
        if row is not None and row.reach >= radius:
            return row
        if math.isnan(radius):  # no reach compares >= NaN, so it always lands here
            raise ValueError(f"radius must not be NaN, got {radius}")
        if radius < 0.0:  # no start is that near
            return _Row(radius, [], [])
        space = self._space
        origin = lat, lon, _ = space._points[space.index_of(b)]
        lats, entries = self._by_lat
        reach = _lat_reach_deg(radius)
        band = entries[bisect_left(lats, lat - reach):bisect_right(lats, lat + reach)]
        span = _lon_reach_deg(radius, lat, reach)
        if span < 180.0:  # the short way round, so a span may cross the antimeridian
            band = [e for e in band if abs((e[1][1] - lon + 180.0) % 360.0 - 180.0) <= span]
        dists = _great_circle_row(origin, [p for _, p in band])
        kept = sorted((d, s) for (s, _), d in zip(band, dists) if d <= radius)
        row = _Row(radius, [s for _, s in kept], [d for d, _ in kept])
        self._rows[b] = row
        return row

    def __contains__(self, b: object) -> bool:
        return b in self._space

    def __iter__(self) -> Iterator[str]:
        return iter(self._space.base_ids)

    def __len__(self) -> int:
        return len(self._space)


@dataclass(frozen=True)
class Violation:
    kind: str  # identity | symmetry | triangle
    ids: tuple[str, ...]
    detail: str


@dataclass
class ValidationReport:
    identity_checks: int = 0
    symmetry_checks: int = 0
    triangle_checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (f"identity={self.identity_checks} symmetry={self.symmetry_checks} "
                f"triangle={self.triangle_checks} violations={len(self.violations)}")
        lines = [head]
        for v in self.violations:
            lines.append(f"  {v.kind} {'/'.join(v.ids)}: {v.detail}")
        return "\n".join(lines)


def validate_metric(space: MetricSpace, samples: int = 1000, seed: int = 0) -> ValidationReport:
    """Check the metric axioms and report every violation found.

    Identity is checked for every base. Symmetry is exhaustive up to 1000
    bases, sampled beyond that. The triangle inequality is checked, up to
    BOUND_SLACK, on `samples` random ordered triples. Violations are report
    content, never exceptions.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    rng = random.Random(seed)
    report = ValidationReport()
    seen: set[tuple[str, tuple[str, ...]]] = set()

    def add(kind: str, ids: tuple[str, ...], detail: str) -> None:
        key = (kind, ids)
        if key not in seen:
            seen.add(key)
            report.violations.append(Violation(kind, ids, detail))

    n = len(space)
    ids = space.base_ids
    for i in range(n):
        report.identity_checks += 1
        v = space._pair(i, i)
        if v != 0.0:
            add("identity", (ids[i],), f"d({ids[i]},{ids[i]}) = {v!r}")

    if n >= 2:
        if n <= 1000:
            pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
        else:
            pairs = (tuple(rng.sample(range(n), 2)) for _ in range(samples))
        for i, j in pairs:
            report.symmetry_checks += 1
            dij = space._pair(i, j)
            dji = space._pair(j, i)
            if dij != dji:
                add("symmetry", (ids[i], ids[j]),
                    f"d({ids[i]},{ids[j]}) = {dij!r} but d({ids[j]},{ids[i]}) = {dji!r}")

    if n >= 3:
        for _ in range(samples):
            a, b, c = rng.sample(range(n), 3)
            report.triangle_checks += 1
            dac = space._pair(a, c)
            dab = space._pair(a, b)
            dbc = space._pair(b, c)
            if dac > dab + dbc + BOUND_SLACK * dac:
                x, y, z = ids[a], ids[b], ids[c]
                add("triangle", (x, z),
                    f"d({x},{z}) = {dac!r} > d({x},{y}) + d({y},{z}) = {dab!r} + {dbc!r} via {y}")
    return report


@contextmanager
def open_csv(path: Path, reader=csv.reader):
    """`reader` over the UTF-8 file at `path`, a leading byte-order mark
    skipped. A line the csv module cannot parse (a field over its size limit,
    say) raises ValueError naming the file line, and bytes that are not UTF-8
    one naming the file."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = reader(fh)
        try:
            yield rows
        except csv.Error as exc:  # a DictReader's own line_num lags its reader's
            line = getattr(rows, "reader", rows).line_num
            raise ValueError(f"{path} line {line}: {exc}") from None
        except UnicodeDecodeError:  # decoded ahead in chunks, so no line is known
            raise ValueError(f"{path}: not UTF-8 text") from None


def load_bases_csv(path: str | Path) -> list[Base]:
    """Read bases.csv: header `base_id,lat,lon`, or `base_id` alone for matrix mode."""
    path = Path(path)
    with open_csv(path, csv.DictReader) as reader:
        if reader.fieldnames is None or "base_id" not in reader.fieldnames:
            raise ValueError(f"{path}: missing base_id header")
        has_coords = "lat" in reader.fieldnames and "lon" in reader.fieldnames
        bases: list[Base] = []
        seen: set[str] = set()
        for row in reader:
            rownum = reader.reader.line_num  # the file line, blank ones counted
            bid = (row["base_id"] or "").strip()
            if not bid:
                raise ValueError(f"{path} row {rownum}: empty base_id")
            if bid in seen:
                raise ValueError(f"{path} row {rownum}: duplicate base id {bid!r}")
            seen.add(bid)
            if has_coords:
                try:
                    lat = float(row["lat"])
                    lon = float(row["lon"])
                except (TypeError, ValueError):
                    raise ValueError(f"{path} row {rownum}: bad coordinates") from None
                if not -90.0 <= lat <= 90.0:
                    raise ValueError(f"{path} row {rownum}: lat {lat} outside [-90, 90]")
                if not -180.0 <= lon <= 180.0:
                    raise ValueError(f"{path} row {rownum}: lon {lon} outside [-180, 180]")
                bases.append(Base(bid, lat, lon))
            else:
                bases.append(Base(bid))
    if not bases:
        raise ValueError(f"{path}: no bases")
    return bases


def load_matrix_csv(path: str | Path) -> list[list[float]]:
    """Read a square km grid, one row per line, no header. Errors name the
    file line; a bad distance is one that is not a finite number >= 0."""
    path = Path(path)
    rows: list[tuple[int, list[float]]] = []
    with open_csv(path) as reader:
        for rownum, row in enumerate(reader, start=1):
            try:
                values = list(map(float, row))
            except ValueError:
                values = None
            if values is None or not _finite_and_nonnegative(values):
                values = []  # find the bad value, if any
                for v in row:
                    try:
                        x = float(v)
                    except ValueError:
                        x = math.nan
                    if not 0.0 <= x < math.inf:
                        raise ValueError(f"{path} row {rownum}: bad distance {v!r}")
                    values.append(x)
            if values:
                rows.append((rownum, values))
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    for rownum, values in rows:
        if len(values) != len(rows):
            raise ValueError(f"{path} row {rownum} has {len(values)} entries, "
                             f"expected {len(rows)}")
    return [values for _, values in rows]
