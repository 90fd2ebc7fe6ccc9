"""Self-check for the benchmark itself, on tiny seeded instances.

    python3 perfbench/selfcheck.py

Every workload is shrunk to 30 bases and 120 lanes, its reference digests are
recorded into ``.bench_build/perfbench/selfcheck/``, and it is run with
tracing off and on. The check passes when

- every metric BENCHMARK.json declares is printed with its unit, both in the
  final JSON line and in the human-readable lines, and ``error_rate`` is
  printed too;
- the untouched reference gives no failed operation;
- a corrupted reference digest for a queried lane makes ``error_rate``
  positive and ``correct`` false;
- the setup layer spans cover at least 90% of the set-up wall time.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import record  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

INSTANCE_SEED = 7
QUERY_SEED = 1


def tiny(w: wl.Workload) -> wl.Workload:
    return dataclasses.replace(w, bases=30, lanes=120, sample=min(w.sample, 6),
                               probes=min(w.probes, 1))


def printed(result: dict, trace: bool) -> tuple[dict, list[str]]:
    lines = run.report(result, trace)
    return json.loads(lines[-1]), lines[:-1]


def printed_with_unit(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)


def check_workload(w: wl.Workload, declared: dict, refdir: Path, workdir: Path) -> list[str]:
    problems = []
    record.record(w, INSTANCE_SEED, refdir, workdir, log=lambda *_: None)
    for trace in (False, True):
        result = run.run(w, QUERY_SEED, INSTANCE_SEED, 0.1, trace, refdir, workdir)
        out, lines = printed(result, trace)
        units = {name: m["unit"] for name, m in out["metrics"].items()}
        if units != declared[trace]:
            problems.append(f"{w.name} trace={int(trace)}: JSON metrics {units} "
                            f"!= declared {declared[trace]}")
        for name, unit in declared[trace].items():
            if not printed_with_unit(lines, name, unit):
                problems.append(f"{w.name} trace={int(trace)}: {name} not printed with {unit}")
        if not printed_with_unit(lines, "error_rate", "ratio"):
            problems.append(f"{w.name} trace={int(trace)}: error_rate not printed")
        if out["failed"] or not out["correct"]:
            problems.append(f"{w.name} trace={int(trace)}: failures on a fresh reference: "
                            f"{result['failures']}")
        if trace and result["trace_gaps"]["setup_layer_share"] < 0.9:
            problems.append(f"{w.name}: setup layer spans cover only "
                            f"{result['trace_gaps']['setup_layer_share']:.2f} of setup_s")

    path = wl.reference_path(refdir, w, INSTANCE_SEED)
    ref = json.loads(path.read_text())
    kind = "cli" if w.op == "cli" else wl.op_kind(w, w.ells[0])
    lane = result["context"]["sample"][0]
    good = ref["digests"][kind][lane]
    ref["digests"][kind][lane] = "".join("1" if c == "0" else "0" for c in good)
    path.write_text(json.dumps(ref))
    out, _ = printed(run.run(w, QUERY_SEED, INSTANCE_SEED, 0.1, False, refdir, workdir), False)
    if not (out["failed"] / out["attempted"] > 0 and not out["correct"]):
        problems.append(f"{w.name}: a corrupted digest for {kind} {lane} went unnoticed")
    return problems


def main() -> int:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    declared = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(wl.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != defined {sorted(wl.WORKLOADS)}")
    workdir = wl.WORK_DIR / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    for name in names:
        found = check_workload(tiny(wl.WORKLOADS[name]), declared, workdir / "reference", workdir)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(f"problem: {p}")
    print("selfcheck passed" if not problems else f"selfcheck failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
