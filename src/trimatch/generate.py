"""Seeded synthetic instances: bases in a Japan-like box, lanes as distinct
ordered base pairs. Same seed, same files, byte for byte."""

from __future__ import annotations

import csv
import random
from pathlib import Path

from .metric import Base

LAT_RANGE = (31.0, 45.0)
LON_RANGE = (130.0, 145.0)
LANES_PER_BASE = 3.5  # default |T| / |B| ratio


def generate_bases(n_bases: int, rng: random.Random) -> list[Base]:
    if n_bases < 2:
        raise ValueError(f"need at least 2 bases, got {n_bases}")
    width = max(3, len(str(n_bases)))
    return [
        Base(f"b{i:0{width}d}", rng.uniform(*LAT_RANGE), rng.uniform(*LON_RANGE))
        for i in range(1, n_bases + 1)
    ]


def generate_lane_rows(n_lanes: int, base_ids: list[str],
                       rng: random.Random) -> list[tuple[str, str, str]]:
    """Sample n_lanes distinct ordered pairs of bases as (lane_id, start, end)."""
    if n_lanes < 0:
        raise ValueError(f"lane count must be >= 0, got {n_lanes}")
    n = len(base_ids)
    max_pairs = n * (n - 1)
    if n_lanes > max_pairs:
        raise ValueError(f"{n_lanes} lanes exceed the {max_pairs} distinct ordered pairs")
    if n_lanes * 2 >= max_pairs:
        population = [(i, j) for i in range(n) for j in range(n) if i != j]
        chosen = rng.sample(population, n_lanes)
    else:
        seen: set[tuple[int, int]] = set()
        chosen = []
        while len(chosen) < n_lanes:
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i != j and (i, j) not in seen:
                seen.add((i, j))
                chosen.append((i, j))
    width = max(4, len(str(n_lanes)))
    return [
        (f"l{num:0{width}d}", base_ids[i], base_ids[j])
        for num, (i, j) in enumerate(chosen, start=1)
    ]


def generate_instance(n_bases: int, n_lanes: int | None = None,
                      seed: int = 0) -> tuple[list[Base], list[tuple[str, str, str]]]:
    rng = random.Random(seed)
    bases = generate_bases(n_bases, rng)
    if n_lanes is None:
        n_lanes = round(LANES_PER_BASE * n_bases)
    rows = generate_lane_rows(n_lanes, [b.id for b in bases], rng)
    return bases, rows


def write_instance(bases, lane_rows, bases_path: str | Path, lanes_path: str | Path) -> None:
    with Path(bases_path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["base_id", "lat", "lon"])
        for b in bases:
            w.writerow([b.id, repr(b.lat), repr(b.lon)])
    with Path(lanes_path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lane_id", "origin_base_id", "dest_base_id"])
        w.writerows(lane_rows)
