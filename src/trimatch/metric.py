"""Finite metric space over transportation bases.

Two distance providers are supported: great-circle distance from WGS84
coordinates, and an explicit square kilometre matrix. Everything downstream
(index construction, pruned enumeration) relies on the metric axioms, so this
module also owns the axiom checker.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

EARTH_RADIUS_KM = 6371.0088

GREAT_CIRCLE = "greatcircle"
MATRIX = "matrix"


class UnknownBaseError(LookupError):
    """Raised when a base id is not registered in the space."""


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
    """Immutable base registry plus a distance provider.

    Great-circle distances are evaluated with the arguments in lexicographic
    id order so that d(a, b) and d(b, a) are the same float, not merely close.

    The all-pairs matrix is materialized once, at index-build time; after that
    every read path is mutation-free and safe to share across workers.
    """

    def __init__(self, bases: list[Base] | tuple[Base, ...], provider: str,
                 matrix: list[list[float]] | None = None):
        if provider not in (GREAT_CIRCLE, MATRIX):
            raise ValueError(f"unknown provider {provider!r}")
        bases = tuple(bases)
        seen: set[str] = set()
        for b in bases:
            if b.id in seen:
                raise ValueError(f"duplicate base id {b.id!r}")
            seen.add(b.id)
        if provider == GREAT_CIRCLE:
            for b in bases:
                if b.lat is None or b.lon is None:
                    raise ValueError(f"base {b.id!r} has no coordinates")
                if not -90.0 <= b.lat <= 90.0:
                    raise ValueError(f"base {b.id!r}: lat {b.lat} outside [-90, 90]")
                if not -180.0 <= b.lon <= 180.0:
                    raise ValueError(f"base {b.id!r}: lon {b.lon} outside [-180, 180]")
            if matrix is not None:
                raise ValueError("matrix given but provider is greatcircle")
        else:
            if matrix is None:
                raise ValueError("matrix provider requires a matrix")
            if len(matrix) != len(bases):
                raise ValueError(f"matrix has {len(matrix)} rows for {len(bases)} bases")
            for i, row in enumerate(matrix):
                if len(row) != len(bases):
                    raise ValueError(f"matrix row {i} has {len(row)} entries, expected {len(bases)}")
                for v in row:
                    if not (math.isfinite(v) and v >= 0.0):
                        raise ValueError(f"matrix row {i} contains invalid distance {v!r}")
        self.bases = bases
        self.provider = provider
        self._pos = {b.id: i for i, b in enumerate(bases)}
        self._dcache: list[list[float]] | None = matrix
        self.base_ids: tuple[str, ...] = tuple(b.id for b in bases)

    @classmethod
    def great_circle(cls, bases) -> "MetricSpace":
        return cls(bases, GREAT_CIRCLE)

    @classmethod
    def from_matrix(cls, bases, matrix) -> "MetricSpace":
        return cls(bases, MATRIX, matrix=matrix)

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
        if ba.id > bb.id:
            ba, bb = bb, ba
        return _haversine_km(ba.lat, ba.lon, bb.lat, bb.lon)

    def distance_matrix(self) -> list[list[float]]:
        """All-pairs distances, built once and cached.

        O(|B|^2) memory; the per-base neighbor lists need every pair anyway,
        so index construction amortizes this. A great-circle space evaluates
        each unordered pair once, lower id first, and stores that one float
        object at both (a, b) and (b, a).
        """
        if self._dcache is None:
            self._dcache = _great_circle_matrix(self.bases)
        return self._dcache


def _great_circle_matrix(bases: tuple[Base, ...]) -> list[list[float]]:
    """`_haversine_km` over every pair, bit for bit, at one evaluation per pair.

    Rows are built in id order: row r computes its pairs with every later id
    and takes its earlier entries from the rows above it. cos(phi) is hoisted
    per base; `x * deg` is exactly `math.radians(x)`, and clamping `a` before
    the square root equals clamping after it, since sqrt is correctly rounded.
    """
    n = len(bases)
    order = sorted(range(n), key=lambda p: bases[p].id)
    lat = [bases[p].lat for p in order]
    lon = [bases[p].lon for p in order]
    deg = math.pi / 180.0
    cos_phi = [math.cos(x * deg) for x in lat]
    diameter = 2.0 * EARTH_RADIUS_KM
    sin, asin, sqrt = math.sin, math.asin, math.sqrt
    rows: list[list[float]] = []
    for r in range(n):
        lat1, lon1, cos1 = lat[r], lon[r], cos_phi[r]
        hav = [sin((lat2 - lat1) * deg / 2.0) ** 2
               + cos1 * cos2 * sin((lon2 - lon1) * deg / 2.0) ** 2
               for lat2, lon2, cos2 in zip(lat[r + 1:], lon[r + 1:], cos_phi[r + 1:])]
        rows.append([row[r] for row in rows] + [0.0]
                    + [diameter * asin(sqrt(a if a < 1.0 else 1.0)) for a in hav])
    if order == list(range(n)):
        return rows
    rank = sorted(range(n), key=order.__getitem__)  # position -> row in id order
    return [[row[k] for k in rank] for row in (rows[r] for r in rank)]


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
    bases, sampled beyond that. The triangle inequality is checked on
    `samples` random ordered triples. Violations are report content, never
    exceptions.
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
            add("identity", (ids[i],), f"d(a,a) = {v!r}")

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
                add("symmetry", (ids[i], ids[j]), f"d(a,b) = {dij!r} but d(b,a) = {dji!r}")

    if n >= 3:
        for _ in range(samples):
            a, b, c = rng.sample(range(n), 3)
            report.triangle_checks += 1
            dac = space._pair(a, c)
            dab = space._pair(a, b)
            dbc = space._pair(b, c)
            if dac > dab + dbc:
                add("triangle", (ids[a], ids[c]),
                    f"d(a,c) = {dac!r} > {dab!r} + {dbc!r} via {ids[b]}")
    return report


def load_bases_csv(path: str | Path) -> list[Base]:
    """Read bases.csv: header `base_id,lat,lon`, or `base_id` alone for matrix mode."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "base_id" not in reader.fieldnames:
            raise ValueError(f"{path}: missing base_id header")
        has_coords = "lat" in reader.fieldnames and "lon" in reader.fieldnames
        bases: list[Base] = []
        for rownum, row in enumerate(reader, start=2):
            bid = (row["base_id"] or "").strip()
            if not bid:
                raise ValueError(f"{path} row {rownum}: empty base_id")
            if has_coords:
                try:
                    lat = float(row["lat"])
                    lon = float(row["lon"])
                except (TypeError, ValueError):
                    raise ValueError(f"{path} row {rownum}: bad coordinates") from None
                bases.append(Base(bid, lat, lon))
            else:
                bases.append(Base(bid))
    return bases


def load_matrix_csv(path: str | Path) -> list[list[float]]:
    """Read a square km grid, one row per line, no header."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    return rows
