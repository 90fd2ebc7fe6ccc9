"""Workload definitions and the pieces every perfbench script shares.

A workload is a seeded instance written with ``trimatch.generate`` plus a
query mix. Two seeds drive it: the instance seed fixes the bases and lanes
(default 7, the instance the reference digests were recorded on), and the
query seed picks which client lanes a run asks about. Lanes are drawn one
per length stratum (lanes sorted by length, cut into as many equal slices as
there are queries), because search effort grows with the client lane's
length: a plain random sample would let the query seed, not the program,
move the figures.

The entry scripts put ``<repo>/src`` on ``sys.path`` before importing this
module, so the benchmark always measures the checkout it sits in.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from trimatch import (MetricSpace, Query, build_index, enumerate_pruned,
                      enumerate_topk, load_bases_csv, load_lanes_csv,
                      shapley_split)
from trimatch.generate import generate_instance, write_instance

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

U_FACTOR = 4.0  # mileage cap as a multiple of the client lane, the CLI default
DIGEST_HEX = 10  # 40-bit digests: enough to catch any changed output
CHECK_ELL = 0.9  # the consistency check's rate; pruned search is cheap here
CHECK_K = 20


@dataclass(frozen=True)
class Workload:
    """One instance and query mix; BENCHMARK.json says why each was chosen.

    op        "cli": each operation is a ``trimatch match`` subprocess;
              "topk": ``enumerate_topk`` once per rate in ``ells``
    sample    client lanes per run, one per length stratum
    probes    how many middle strata the match probes ("topk" only) draw
              their lanes from, so the probe does not swing with the seed
    calls     ``trimatch match`` calls per round: the operations on "cli",
              the probes on "topk"

    Every ``trimatch match`` call, operation or probe, asks for the top ``k``
    at the first rate in ``ells``.
    """

    name: str
    bases: int
    lanes: int
    op: str
    ells: tuple[float, ...]
    k: int
    sample: int
    probes: int
    calls: int


WORKLOADS = {
    w.name: w for w in (
        Workload(name="cold-match", bases=1000, lanes=3500, op="cli", ells=(0.75,), k=20,
                 sample=3, probes=0, calls=2),
        Workload(name="warm-topk", bases=500, lanes=5000, op="topk", ells=(0.75, 0.9), k=20,
                 sample=200, probes=3, calls=1),
    )
}


# --- inputs -------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    bases: Path
    lanes: Path
    sha256: str


def write_workload_instance(w: Workload, instance_seed: int, outdir: Path) -> Instance:
    """Generate the instance into ``outdir``; same seed, same bytes."""
    outdir.mkdir(parents=True, exist_ok=True)
    bases_csv, lanes_csv = outdir / "bases.csv", outdir / "lanes.csv"
    write_instance(*generate_instance(w.bases, w.lanes, instance_seed), bases_csv, lanes_csv)
    h = hashlib.sha256(bases_csv.read_bytes())
    h.update(lanes_csv.read_bytes())
    return Instance(bases_csv, lanes_csv, h.hexdigest())


def _strata(index, n: int) -> list[list[str]]:
    """Lane ids sorted by (length, id), cut into ``n`` equal slices."""
    ordered = [lid for _, lid in sorted((l.dist, l.id) for l in index.lanes)]
    cuts = [len(ordered) * i // n for i in range(n + 1)]
    return [ordered[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def sample_lanes(index, n: int, seed: int, eligible: set[str] | None = None) -> list[str]:
    """One lane per length stratum, shortest stratum first; with ``eligible``,
    only lanes in that set."""
    rng = random.Random(seed)
    return [rng.choice([lid for lid in stratum if eligible is None or lid in eligible])
            for stratum in _strata(index, n)]


def full_lanes(ref: dict, w: Workload) -> set[str] | None:
    """On "cli" workloads, the lanes whose recorded match call printed all
    ``k`` triangles; None elsewhere. A cli run makes few calls on few lanes,
    so a lane with a short answer would let the query seed, not the program,
    move triangles_per_s."""
    if w.op != "cli":
        return None
    return {lane for lane, n in ref["triangles"]["cli"].items() if n == w.k}


def middle(n: int, count: int) -> slice:
    """The ``count`` strata around the middle one."""
    lo = n // 2 - count // 2
    return slice(lo, lo + count)


def probe_lane_pool(index, w: Workload) -> list[str]:
    """Every lane a match probe can reach: those of the middle strata."""
    return [lid for stratum in _strata(index, w.sample)[middle(w.sample, w.probes)]
            for lid in stratum]


# --- tracing ------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent span index, operation id,
    and the counts noted at that boundary."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        rec = {"name": name, "op": op, "parent": self._open[-1] if self._open else None,
               "start": perf_counter(), "end": None, "id": len(self.spans)}
        self._open.append(rec["id"])
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    @staticmethod
    def note(rec: dict, **counts) -> None:
        rec.update(counts)

    def adopt(self, parent: dict, name: str, start: float, end: float, **counts) -> None:
        """Add a span measured in a child process under ``parent``."""
        self.spans.append({"name": name, "op": parent["op"], "parent": parent["id"],
                           "start": start, "end": end, "id": len(self.spans), **counts})


class NoTrace:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    _null = contextlib.nullcontext({})

    def span(self, name: str, op: str):
        return self._null

    @staticmethod
    def note(rec: dict, **counts) -> None:
        pass


# --- the calls under test -----------------------------------------------------

def setup(inst: Instance, tracer, op: str):
    """CSV paths to a ready LaneIndex, in the CLI's order."""
    with tracer.span("metric.load_bases_csv", op):
        bases = load_bases_csv(inst.bases)
    with tracer.span("metric.great_circle", op):
        space = MetricSpace.great_circle(bases)
    with tracer.span("lanes.load_lanes_csv", op):
        lanes = load_lanes_csv(inst.lanes, space)
    with tracer.span("metric.distance_matrix", op):
        space.distance_matrix()
    with tracer.span("lanes.build_index", op) as rec:
        index = build_index(lanes, space)
    tracer.note(rec, neighbor_entries=sum(len(v) for v in index.neighbors.values()))
    return space, index


def _query(index, lane: str, ell: float, k: int | None) -> Query:
    return Query(lane, ell, U_FACTOR * index.by_id[lane].dist, k)


def _note_search(tracer, rec: dict, rs) -> None:
    tracer.note(rec, visits=list(rs.stats.level_visits), results=len(rs.triangles),
                ell_raises=len(rs.stats.ell_trace))


def topk(space, index, lane: str, ell: float, k: int, tracer, op: str):
    with tracer.span("search.enumerate_topk", op) as rec:
        rs = enumerate_topk(index, space, _query(index, lane, ell, k))
    _note_search(tracer, rec, rs)
    return rs


def pruned(space, index, lane: str, ell: float, tracer, op: str):
    with tracer.span("search.enumerate_pruned", op) as rec:
        rs = enumerate_pruned(index, space, _query(index, lane, ell, None))
    _note_search(tracer, rec, rs)
    return rs


def shapley_all(space, index, triangles, tracer, op: str) -> list:
    """One span covers all splits of an operation, to keep the trace small."""
    with tracer.span("costshare.shapley_split", op) as rec:
        splits = [shapley_split(tr, index, space) for tr in triangles]
    tracer.note(rec, calls=len(splits))
    return splits


def match_args(inst: Instance, w: Workload, lane: str) -> list[str]:
    """``trimatch match`` arguments for one query on this instance."""
    return ["match", lane, "--bases", str(inst.bases), "--lanes", str(inst.lanes),
            "--l", str(w.ells[0]), "--k", str(w.k)]


@dataclass(frozen=True)
class MatchRun:
    wall: float  # seconds from exec to exit
    returncode: int
    stdout: bytes
    stderr: bytes
    peak_rss_kib: int  # the child's own high-water RSS (VmHWM), sampled while it runs


def _vm_hwm_kib(pid: int) -> int:
    """VmHWM of a running process; 0 once it has exited. Unlike ru_maxrss it
    does not include the parent's memory, which exec folds into ru_maxrss."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_match(args: list[str], spans: Path | None = None) -> MatchRun:
    """Run ``trimatch match`` in a fresh interpreter on this checkout's source
    and wait for it. With ``spans``, the call goes through traced_match.py,
    which writes its layer spans there."""
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    entry = ["-m", "trimatch.cli"] if spans is None else [
        str(Path(__file__).resolve().parent / "traced_match.py"), str(spans)]
    peak = 0
    started = perf_counter()
    with subprocess.Popen([sys.executable, *entry, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        while True:
            try:
                out, err = proc.communicate(timeout=0.02)
                break
            except subprocess.TimeoutExpired:
                peak = max(peak, _vm_hwm_kib(proc.pid))
    return MatchRun(perf_counter() - started, proc.returncode, out, err, peak)


# --- digests and references ---------------------------------------------------

def digest_triangles(triangles) -> str:
    """Digest of the ordered (t2, t3, repr(ovr), repr(total))."""
    h = hashlib.sha256()
    for tr in triangles:
        h.update(f"{tr.t2},{tr.t3},{tr.ovr!r},{tr.total!r}\n".encode())
    return h.hexdigest()[:DIGEST_HEX]


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]


def op_kind(w: Workload, ell: float) -> str:
    return f"{w.op}@{ell}"


def reference_path(refdir: Path, w: Workload, instance_seed: int) -> Path:
    return refdir / f"{w.name}-seed{instance_seed}.json"


def load_reference(refdir: Path, w: Workload, instance_seed: int) -> dict:
    path = reference_path(refdir, w, instance_seed)
    if not path.is_file():
        raise SystemExit(f"perfbench: no reference digests at {path}; "
                         f"record them with perfbench/record.py")
    ref = json.loads(path.read_text())
    if (ref["bases"], ref["lanes"]) != (w.bases, w.lanes):
        raise SystemExit(f"perfbench: {path} was recorded on {ref['bases']}/{ref['lanes']}, "
                         f"not {w.bases}/{w.lanes}")
    return ref
