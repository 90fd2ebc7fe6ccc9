"""perfbench: the trimatch benchmark.

    python3 perfbench/run.py --workload {cold-match,warm-topk}
        [--seed N] [--instance-seed 7] [--seconds S] [--trace 0|1] [--result PATH]

One process, one closed-loop client: each operation starts after the previous
one has finished, and ``trimatch match`` subprocesses run one at a time. The
package is driven from outside, through its public functions and its CLI;
nothing under ``src/`` is instrumented.

A run generates its instance, then repeats rounds (see ``run``) of a set-up,
the operations and a match call. On its first set-up it checks on a few lanes
that top-k equals the pruned prefix and that Shapley shares add up. Every
operation's output is compared with the recorded reference digest; a call
that raises, exits non-zero or differs counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps every call
into the package in a span, measures build memory with ``tracemalloc`` on the
first set-up, reports the per-layer metrics and writes the spans to
``.bench_build/perfbench/``. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    import workloads as wl
except ModuleNotFoundError as exc:
    raise SystemExit(f"perfbench: cannot import trimatch ({exc}); "
                     f"run from the root of a trimatch checkout") from None

E2E_UNITS = {
    "setup_s": "s", "match_wall_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms",
    "ops_per_s": "1/s", "triangles_per_s": "1/s", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "metric.load_bases_s": "s", "metric.matrix_s": "s", "metric.matrix_mb": "MB",
    "lanes.load_lanes_s": "s", "lanes.build_index_s": "s", "lanes.index_mb": "MB",
    "lanes.neighbor_entries": "count",
    "search.topk_s": "s", "search.pruned_s": "s",
    "search.visits_l1": "count", "search.visits_l2": "count", "search.visits_l3": "count",
    "search.visits_l4": "count", "search.results": "count", "search.yield": "ratio",
    "search.ell_raises": "count",
    "costshare.shapley_s": "s", "costshare.splits": "count",
    "cli.match_self_s": "s",
}
CHECKS = 2  # consistency checks per run, on lanes whose top-k is not empty
MIN_ROUNDS = 3  # set-ups, passes and match calls per run, at the least


class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self, ref: dict):
        self.digests = ref["digests"]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def verify(self, kind: str, lane: str, digest: str) -> None:
        self.attempted += 1
        want = self.digests.get(kind, {}).get(lane)
        if digest != want:
            self.fail(f"{kind} {lane}: digest {digest} != reference {want}")


class AllocationTracer(wl.Tracer):
    """Spans that also note the tracemalloc delta across each call."""

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        before = tracemalloc.get_traced_memory()[0]
        with super().span(name, op) as rec:
            yield rec
        rec["bytes"] = tracemalloc.get_traced_memory()[0] - before


def gauge_ms() -> float:
    """One timing of a fixed pure-Python loop that calls no trimatch code. The
    host this runs on can speed up or slow down by half within minutes; the
    gauge, printed with the run's context, tells such a drift from a change
    in the program."""
    t0 = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return 1000.0 * (perf_counter() - t0)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100.0)) - 1]


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def consistency_check(space, index, lane: str, tracer, ledger: Ledger) -> int:
    """top-k must be the pruned set's best prefix; shares must add up to the savings.
    Returns the number of triangles checked."""
    ledger.attempted += 1
    try:
        top = wl.topk(space, index, lane, wl.CHECK_ELL, wl.CHECK_K, tracer, "check")
        full = wl.pruned(space, index, lane, wl.CHECK_ELL, tracer, "check")
        prefix = sorted(full.triangles, key=lambda t: (-t.ovr, t.t2, t.t3))[:wl.CHECK_K]
        if top.triangles != prefix:
            ledger.fail(f"check {lane}: top-k differs from the pruned prefix")
        for split in wl.shapley_all(space, index, top.triangles, tracer, "check"):
            if abs(sum(split.shares) - split.total_savings) > 1e-9 * max(1.0, split.total_savings):
                ledger.fail(f"check {lane}: Shapley shares do not add up to the savings")
                break
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
        ledger.fail(f"check {lane}: {exc!r}")
        return 0
    return len(top.triangles)


def match_call(inst, w, lane: str, tracer, op: str, ledger: Ledger,
               spans: Path | None) -> tuple[wl.MatchRun, int]:
    """One ``trimatch match`` subprocess; returns it and the triangles it printed.
    With ``spans`` (traced runs) the child's layer spans are adopted into the trace."""
    with tracer.span("cli.match", op) as rec:
        proc = wl.run_match(wl.match_args(inst, w, lane), spans)
    wall = proc.wall
    if spans is not None and spans.is_file():
        child = json.loads(spans.read_text())
        spans.unlink()
        for name, start, end, depth in child:
            tracer.adopt(rec, f"cli.match/{name}", start, end, depth=depth)
        tracer.note(rec, wall=wall, self=wall - sum(e - s for _, s, e, d in child if d == 0),
                    build=sum(e - s for n, s, e, d in child if n == "lanes.build_index"))
    if proc.returncode != 0:
        ledger.attempted += 1
        ledger.fail(f"match {lane}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc, 0
    ledger.verify("cli", lane, wl.digest_bytes(proc.stdout))
    return proc, proc.stdout.count(b"\n")


def run_checks(space, index, chosen: list[str], tracer, ledger: Ledger) -> int:
    """Consistency checks on lanes from the middle stratum up, until CHECKS of
    them had a non-empty top-k; returns how many did."""
    checked = 0
    for lane in chosen[len(chosen) // 2:] + chosen[:len(chosen) // 2]:
        if checked == CHECKS:
            break
        checked += consistency_check(space, index, lane, tracer, ledger) > 0
    return checked


def run(w: wl.Workload, seed: int, instance_seed: int, seconds: float, trace: bool,
        refdir: Path = wl.REFERENCE_DIR, workdir: Path = wl.WORK_DIR) -> dict:
    """One benchmark run; returns every metric it measured and its context.

    The run is a sequence of rounds, at least MIN_ROUNDS and until ``seconds``
    have gone by: a set-up, then either a pass over every sampled query and
    ``w.calls`` match probes, or, on cold-match, ``w.calls`` match calls, each
    one operation.
    Spreading the set-ups and match calls over the run keeps one slow spell
    on the machine from setting their median."""
    inst = wl.write_workload_instance(w, instance_seed, workdir / f"{w.name}-seed{instance_seed}")
    ref = wl.load_reference(refdir, w, instance_seed)
    notes = []
    if ref["instance_sha256"] != inst.sha256:
        notes.append("instance differs from the one the reference was recorded on")
    ledger = Ledger(ref)
    tracer = wl.Tracer() if trace else wl.NoTrace()
    memory = AllocationTracer()
    child_spans = workdir / "match-spans.json" if trace else None

    setup_walls: list[float] = []
    latencies: list[float] = []
    rounds: list[tuple[float, float]] = []  # (ops/s, triangles/s) per pass or match call
    match_walls: list[float] = []
    child_peak_kib = 0
    chosen: list[str] = []
    ops: list[tuple[str, float]] = []
    checked = 0
    gauge: list[float] = []
    started = perf_counter()
    while len(setup_walls) < MIN_ROUNDS or perf_counter() - started < seconds:
        r = len(setup_walls)
        space = index = None
        gc.collect()
        gauge.append(gauge_ms())
        # a traced run's first set-up measures allocations and feeds no layer times
        setup_tracer = memory if trace and r == 0 else tracer
        if setup_tracer is memory:
            tracemalloc.start()
        t0 = perf_counter()
        try:
            with setup_tracer.span("bench.setup", f"setup-{r}"):
                space, index = wl.setup(inst, setup_tracer, f"setup-{r}")
        finally:
            if setup_tracer is memory:
                tracemalloc.stop()
        setup_walls.append(perf_counter() - t0)
        if r == 0:
            chosen = wl.sample_lanes(index, w.sample, seed, wl.full_lanes(ref, w))
            checked = run_checks(space, index, chosen, tracer, ledger)
            ops = [(lane, ell) for ell in w.ells for lane in chosen]
            random.Random(seed).shuffle(ops)

        if w.op == "cli":
            space = index = None  # the parent's index must not share memory with the child
            gc.collect()
            for _ in range(w.calls):
                n = len(latencies)
                proc, count = match_call(inst, w, chosen[n % len(chosen)], tracer, f"op-{n}",
                                         ledger, child_spans)
                wall = proc.wall
                child_peak_kib = max(child_peak_kib, proc.peak_rss_kib)
                latencies.append(wall)
                match_walls.append(wall)
                rounds.append((1.0 / wall, count / wall))
            continue
        busy = 0.0
        triangles = 0
        for lane, ell in ops:
            op = f"op-{len(latencies)}"
            t0 = perf_counter()
            try:
                with tracer.span("bench.op", op):
                    tris = wl.topk(space, index, lane, ell, w.k, tracer, op).triangles
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
                ledger.attempted += 1
                ledger.fail(f"op {lane}@{ell}: {exc!r}")
                continue
            wall = perf_counter() - t0
            ledger.verify(wl.op_kind(w, ell), lane, wl.digest_triangles(tris))
            latencies.append(wall)
            busy += wall
            triangles += len(tris)
        if busy:
            rounds.append((len(ops) / busy, triangles / busy))
        probes = chosen[wl.middle(w.sample, w.probes)]
        for _ in range(w.calls):
            n = len(match_walls)
            match_walls.append(match_call(inst, w, probes[n % len(probes)], tracer, f"probe-{n}",
                                          ledger, child_spans)[0].wall)

    # the process doing the work: the match children on cold-match, this one elsewhere
    peak_kib = (child_peak_kib if w.op == "cli"
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    e2e = {
        "setup_s": statistics.median(setup_walls),
        "match_wall_s": statistics.median(match_walls),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_p95_ms": 1000.0 * nearest_rank(latencies, 95),
        "ops_per_s": statistics.median(x[0] for x in rounds),
        "triangles_per_s": statistics.median(x[1] for x in rounds),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    result = {
        "context": {
            "workload": w.name, "seed": seed, "instance_seed": instance_seed,
            "bases": w.bases, "lanes": w.lanes, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(wl.ROOT), "rounds": len(setup_walls),
            "operations": len(latencies), "queries_per_round": len(ops) if w.op != "cli" else 1,
            "checks": checked, "match_calls": len(match_walls),
            "gauge_ms": statistics.median(gauge), "sample": chosen,
        },
        "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures,
        "notes": notes, "e2e": e2e,
    }
    if trace:
        result["layers"], result["trace_gaps"] = layer_metrics(tracer.spans, memory.spans)
        trace_path = workdir / f"trace-{w.name}-seed{seed}.json"
        trace_path.write_text(json.dumps({"context": result["context"], "spans": tracer.spans}))
        result["trace_file"] = str(trace_path)
    return result


def layer_metrics(spans: list[dict], memory: list[dict]) -> tuple[dict, dict]:
    """Per-layer figures from the spans: mean seconds per call and mean counts
    per search call in this process, and each match call's time outside the
    layer calls made inside it."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name.setdefault(s["name"], []).append(s)

    def mean(name: str, key: str = "dur") -> float:
        group = by_name.get(name, [])
        return statistics.fmean(s[key] for s in group) if group else 0.0

    searches = by_name.get("search.enumerate_topk", []) + by_name.get("search.enumerate_pruned", [])
    splits = by_name.get("costshare.shapley_split", [])
    split_calls = sum(s["calls"] for s in splits)
    visits = [sum(s["visits"][i] for s in searches) for i in range(4)]
    results = sum(s["results"] for s in searches)
    allocated = {s["name"]: s["bytes"] for s in memory}

    matches = [s for s in by_name["cli.match"] if "self" in s]
    n = max(1, len(searches))
    layers = {
        "metric.load_bases_s": mean("metric.load_bases_csv"),
        "metric.matrix_s": mean("metric.distance_matrix"),
        "metric.matrix_mb": allocated["metric.distance_matrix"] / 1e6,
        "lanes.load_lanes_s": mean("lanes.load_lanes_csv"),
        "lanes.build_index_s": mean("lanes.build_index"),
        "lanes.index_mb": allocated["lanes.build_index"] / 1e6,
        "lanes.neighbor_entries": by_name["lanes.build_index"][0]["neighbor_entries"],
        "search.topk_s": mean("search.enumerate_topk"),
        "search.pruned_s": mean("search.enumerate_pruned"),
        "search.visits_l1": visits[0] / n,
        "search.visits_l2": visits[1] / n,
        "search.visits_l3": visits[2] / n,
        "search.visits_l4": visits[3] / n,
        "search.results": results / n,
        "search.yield": results / visits[3] if visits[3] else 0.0,
        "search.ell_raises": mean("search.enumerate_topk", "ell_raises"),
        "costshare.shapley_s": sum(s["dur"] for s in splits) / split_calls if split_calls else 0.0,
        "costshare.splits": split_calls / len(splits) if splits else 0.0,
        "cli.match_self_s": statistics.median(s["self"] for s in matches),
    }
    setup_walls = {i: s["dur"] for i, s in enumerate(spans) if s["name"] == "bench.setup"}
    gap = dict(setup_walls)
    for s in spans:
        if s["parent"] in gap:
            gap[s["parent"]] -= s["dur"]
    gaps = {
        "setup_gap_s": statistics.median(gap.values()),
        "setup_layer_share": statistics.median(
            1.0 - gap[i] / wall for i, wall in setup_walls.items()),
        "build_share_of_match": statistics.median(s["build"] / s["wall"] for s in matches),
    }
    return layers, gaps


def report(result: dict, trace: bool) -> list[str]:
    """Human-readable lines, then the one-line JSON result."""
    ctx = result["context"]
    lines = ["perfbench " + " ".join(f"{k}={v}" for k, v in ctx.items() if k != "sample")]
    lines.append(f"operations: {ctx['operations']} timed in {ctx['rounds']} round(s) of "
                 f"{ctx['queries_per_round']}, {ctx['match_calls']} match call(s), "
                 f"{ctx['checks']} consistency check(s); {result['attempted']} attempted, "
                 f"{result['failed']} failed")
    lines += [f"note: {n}" for n in result["notes"]]
    lines += [f"failure: {f}" for f in result["failures"]]
    error_rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    for name, value in result["e2e"].items():
        lines.append(f"{name:<26} {value:>16.6f} {E2E_UNITS[name]}")
    lines.append(f"{'error_rate':<26} {error_rate:>16.6f} ratio")
    if trace:
        for name, value in result["layers"].items():
            lines.append(f"{name:<26} {value:>16.6f} {LAYER_UNITS[name]}")
        for name, value in result["trace_gaps"].items():
            lines.append(f"{'trace.' + name:<26} {value:>16.6f}")
        lines.append(f"spans written to {result['trace_file']}")
    metrics, units = (result["layers"], LAYER_UNITS) if trace else (result["e2e"], E2E_UNITS)
    lines.append(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description="Run one trimatch benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7, help="query-sample seed")
    ap.add_argument("--instance-seed", type=int, default=7,
                    help="instance seed; the reference digests exist for 7")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help=f"keep running rounds (at least {MIN_ROUNDS}) until this much "
                         f"time has gone by")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, default=None,
                    help="also write the full result, with its context, as JSON here")
    args = ap.parse_args()
    result = run(wl.WORKLOADS[args.workload], args.seed, args.instance_seed, args.seconds,
                 bool(args.trace))
    if args.result is not None:
        args.result.parent.mkdir(parents=True, exist_ok=True)
        args.result.write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(report(result, bool(args.trace))), flush=True)


if __name__ == "__main__":
    main()
