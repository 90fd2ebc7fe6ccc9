"""Record the reference digests that perfbench runs compare against.

    python3 perfbench/record.py [--workload NAME ...] [--instance-seed 7]

For every lane a run can query, this stores a digest of the operation's
output: the ordered (t2, t3, repr(ovr), repr(total)) of a top-k result, and
the stdout bytes of a ``trimatch match`` call, with the number of triangles
that call printed. ``match`` is run in-process here, with the set-up it
would redo on every call handed in once, and a few calls are confirmed
byte-for-byte against real subprocesses. A few library queries per workload
are also confirmed against ``enumerate_bruteforce`` before anything is
written. Re-record only when a change means to alter the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from click.testing import CliRunner  # noqa: E402

import workloads as wl  # noqa: E402
from trimatch import Query, enumerate_bruteforce  # noqa: E402
from trimatch import cli  # noqa: E402

CONFIRM_LANES = 2  # per kind, against brute force and against a real subprocess


def match_stdout(w: wl.Workload, inst: wl.Instance, space, index, lane: str) -> bytes:
    """stdout of ``trimatch match`` with the loaders handing back a built index."""
    saved = cli._load_space, cli._load_index
    cli._load_space = lambda *args, **kwargs: space
    cli._load_index = lambda *args, **kwargs: index
    try:
        res = CliRunner().invoke(cli.main, wl.match_args(inst, w, lane))
    finally:
        cli._load_space, cli._load_index = saved
    if res.exit_code != 0:
        raise SystemExit(f"record: match {lane} exited {res.exit_code}: {res.output}")
    return res.stdout_bytes


def confirm_bruteforce(w: wl.Workload, space, index, lane: str, ell: float, got) -> None:
    """A top-k result must be the prefix of the brute-force set, ranked."""
    query = Query(lane, ell, wl.U_FACTOR * index.by_id[lane].dist)
    brute = enumerate_bruteforce(index, space, query)
    ranked = sorted(brute.triangles, key=lambda t: (-t.ovr, t.t2, t.t3))
    if list(got) != ranked[:w.k]:
        raise SystemExit(f"record: {w.name} lane {lane} ell {ell} differs from brute force")


def _spread(items: list[str], n: int) -> list[str]:
    return items[:: max(1, len(items) // n)][:n]


def record(w: wl.Workload, instance_seed: int, refdir: Path, workdir: Path,
           log=print) -> Path:
    inst = wl.write_workload_instance(w, instance_seed, workdir / f"{w.name}-seed{instance_seed}")
    space, index = wl.setup(inst, wl.NoTrace(), "record")
    all_lanes = [l.id for l in index.lanes]
    quiet = wl.NoTrace()
    confirm = _spread(all_lanes, CONFIRM_LANES)
    digests: dict[str, dict[str, str]] = {}
    bruteforce: list[str] = []

    if w.op != "cli":
        for ell in w.ells:
            kind = wl.op_kind(w, ell)
            digests[kind] = {}
            for lane in all_lanes:
                tris = wl.topk(space, index, lane, ell, w.k, quiet, "record").triangles
                digests[kind][lane] = wl.digest_triangles(tris)
                if lane in confirm:
                    confirm_bruteforce(w, space, index, lane, ell, tris)
                    bruteforce.append(f"{kind}:{lane}")
            log(f"{w.name}: {kind} recorded for {len(all_lanes)} lanes")

    cli_lanes = all_lanes if w.op == "cli" else wl.probe_lane_pool(index, w)
    stdouts = {lane: match_stdout(w, inst, space, index, lane) for lane in cli_lanes}
    digests["cli"] = {lane: wl.digest_bytes(out) for lane, out in stdouts.items()}
    triangles = {"cli": {lane: out.count(b"\n") for lane, out in stdouts.items()}}
    subprocesses = _spread(cli_lanes, CONFIRM_LANES)
    for lane in subprocesses:
        proc = wl.run_match(wl.match_args(inst, w, lane))
        if proc.returncode != 0 or wl.digest_bytes(proc.stdout) != digests["cli"][lane]:
            raise SystemExit(f"record: in-process match {lane} differs from the subprocess")
        if w.op == "cli":
            rs = wl.topk(space, index, lane, w.ells[0], w.k, quiet, "record")
            confirm_bruteforce(w, space, index, lane, w.ells[0], rs.triangles)
            bruteforce.append(f"cli:{lane}")
    log(f"{w.name}: cli recorded for {len(cli_lanes)} lanes")

    path = wl.reference_path(refdir, w, instance_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": w.name, "instance_seed": instance_seed, "bases": w.bases,
        "lanes": w.lanes, "instance_sha256": inst.sha256, "digest_hex": wl.DIGEST_HEX,
        "confirmed_bruteforce": bruteforce, "confirmed_subprocess": subprocesses,
        "digests": digests, "triangles": triangles,
    }, indent=0, sort_keys=True) + "\n")
    return path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--instance-seed", type=int, default=7)
    args = ap.parse_args()
    for name in args.workload or sorted(wl.WORKLOADS):
        path = record(wl.WORKLOADS[name], args.instance_seed, wl.REFERENCE_DIR, wl.WORK_DIR)
        print(f"wrote {path.relative_to(wl.ROOT)}")


if __name__ == "__main__":
    main()
