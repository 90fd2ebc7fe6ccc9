"""Write one point of the bench trajectory: medians and quartiles over seeds.

    python3 perfbench/trajectory.py [--runs 10] [--traced 2] [--workload NAME ...]
        [--out perfbench/trajectory/<sha>.json]

Runs ``perfbench/run.py`` once per (seed, workload) with tracing off, seeds
1..runs, workloads interleaved so that a slow spell on the machine does not
land on one workload only; then ``--traced`` runs per workload with tracing
on. Each end-to-end metric gets its median, quartiles
(``statistics.quantiles(n=4)``) and spread, the quartile distance as a share
of the median, next to the bound BENCHMARK.json gives it. Tracing overhead is
the traced runs' end-to-end median against the untraced one.

Running it again on the same commit adds a second set to the same file and
reports, per metric, how far the second median moved from the first, in the
metric's worse direction.

Each run also times a fixed loop that calls no trimatch code (``gauge_ms``);
its spread over a set shows how far the machine itself drifted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int, resdir: Path) -> dict:
    out = resdir / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--result", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"trajectory: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(out.read_text())
    result["printed"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def workload_set(runs: list[dict], traced: list[dict], spec: dict) -> dict:
    e2e = {}
    for m in spec["end_to_end"]:
        s = summarize([r["printed"]["metrics"][m["name"]]["value"] for r in runs])
        s.update(bound=m["bound"], better=m["better"], unit=m["unit"])
        if traced:
            t = statistics.median(r["e2e"][m["name"]] for r in traced)
            s["traced_median"] = t
            s["tracing_overhead"] = t / s["median"] - 1.0
        e2e[m["name"]] = s
    out = {
        "seeds": [r["context"]["seed"] for r in runs],
        "context": {k: runs[0]["context"][k] for k in
                    ("bases", "lanes", "instance_seed", "seconds", "queries_per_round")},
        "operations": [r["context"]["operations"] for r in runs],
        "rounds": [r["context"]["rounds"] for r in runs],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "all_correct": all(r["printed"]["correct"] for r in runs),
        "end_to_end": e2e,
        "gauge_ms": summarize([r["context"]["gauge_ms"] for r in runs]),
    }
    out["error_rate"] = out["failed"] / out["attempted"]
    if traced:
        out["traced_seeds"] = [r["context"]["seed"] for r in traced]
        out["per_layer"] = {m["name"]: statistics.median(r["layers"][m["name"]] for r in traced)
                            for m in spec["per_layer"]}
        out["trace_gaps"] = {k: statistics.median(r["trace_gaps"][k] for r in traced)
                             for k in traced[0]["trace_gaps"]}
    return out


def agreement(first: dict, last: dict) -> dict:
    """How far each median moved between two sets, in the worse direction."""
    moved = {}
    for name, wl in last.items():
        for metric, s in wl["end_to_end"].items():
            before = first[name]["end_to_end"][metric]["median"]
            change = (s["median"] - before) / before
            worse = change if s["better"] == "lower" else -change
            moved[f"{name}/{metric}"] = {"worse_by": worse, "bound": s["bound"],
                                         "within": worse <= s["bound"]}
    return moved


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=2)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    sha = run.git_sha(ROOT)
    out = args.out or HERE / "trajectory" / f"{sha[:12]}.json"
    resdir = ROOT / ".bench_build" / "perfbench" / "results"
    resdir.mkdir(parents=True, exist_ok=True)

    runs: dict[str, list[dict]] = {n: [] for n in names}
    traced: dict[str, list[dict]] = {n: [] for n in names}
    for seed in range(1, args.runs + 1):
        for n in names:
            runs[n].append(one_run(n, seed, spec["run_seconds"], 0, resdir))
            print(f"seed {seed} {n}: {runs[n][-1]['printed']['metrics']}", flush=True)
    for seed in range(1, args.traced + 1):
        for n in names:
            traced[n].append(one_run(n, seed, spec["run_seconds"], 1, resdir))

    point = json.loads(out.read_text()) if out.is_file() else {
        "git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"], "sets": []}
    point["sets"].append({n: workload_set(runs[n], traced[n], spec) for n in names})
    if len(point["sets"]) > 1:
        point["agreement"] = agreement(point["sets"][0], point["sets"][-1])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")

    for n, s in point["sets"][-1].items():
        print(f"{n}: {s['attempted']} attempted, {s['failed']} failed; host gauge "
              f"{s['gauge_ms']['median']:.2f} ms, spread {s['gauge_ms']['spread']:.3f}")
        for metric, m in s["end_to_end"].items():
            flag = "ok" if m["spread"] < m["bound"] / 3 else ("WIDE" if m["spread"] > m["bound"]
                                                             else "over a third of bound")
            print(f"  {metric:<16} median {m['median']:>12.4f} {m['unit']:<4} "
                  f"q1 {m['q1']:>12.4f} q3 {m['q3']:>12.4f} spread {m['spread']:.3f} "
                  f"bound {m['bound']} {flag}")
    for key, a in point.get("agreement", {}).items():
        print(f"  agreement {key}: worse by {a['worse_by']:+.3f} (bound {a['bound']})"
              f"{'' if a['within'] else ' OUTSIDE'}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
