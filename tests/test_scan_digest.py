"""Pin the scan of the bounded search, not only its result: one sha256 over
the lane, rate, mode, per-level visit counts, top-k threshold trace, ell_star
and triangle ids of 360 queries on a seeded great-circle instance (200 bases,
2000 lanes, seed 7; 40 lanes at ell 0.6, 0.75 and 0.9; pruned and top-10
twice, under the "topk" and "topk-det" labels of its two former tie modes). Top-k runs under a cap of 4x the lane, pruned under 2.25x:
at 4x pruned returns 5.3 million triangles at ell 0.6. The oracle tests only
compare result sets, so a bound window whose floats drift, or a loop that
scans a different range, would still pass them; a change to this digest must
be made on purpose."""

import hashlib
from trimatch import Query, enumerate_pruned, enumerate_topk

from conftest import gc_instance, pick_lanes

DIGEST = "42dda55a538fb1abdb2ef7b4801aef4b49119678b6dd43b8f51f51c45f13f2c9"

# mode -> (cap as a multiple of the lane, k, backend)
MODES = {
    "pruned": (2.25, None, enumerate_pruned),
    "topk": (4.0, 10, enumerate_topk),
    "topk-det": (4.0, 10, enumerate_topk),
}


def scan_lines():
    space, index = gc_instance(200, 2000, 7)
    for lane in pick_lanes(index, 40, seed=7):
        for ell in (0.6, 0.75, 0.9):
            for mode, (factor, k, run) in MODES.items():
                u = factor * index.by_id[lane].dist
                rs = run(index, space, Query(lane, ell, u, k=k))
                ids = " ".join(f"{t.t2}/{t.t3}" for t in rs.triangles)
                yield (f"{lane} {ell!r} {mode} {rs.stats.level_visits} "
                       f"{rs.stats.ell_trace!r} {rs.ell_star!r} {ids}\n")


def test_scan_digest():
    h = hashlib.sha256()
    for line in scan_lines():
        h.update(line.encode())
    assert h.hexdigest() == DIGEST
