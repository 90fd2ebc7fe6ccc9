"""``trimatch match`` with its layer calls timed from outside the package.

    python3 perfbench/traced_match.py SPANS.json match LANE --bases ... --lanes ... [...]

The traced benchmark run starts match calls through this script instead of
``python3 -m trimatch.cli``. It wraps the functions the CLI calls, runs the
CLI unchanged, and at exit writes the spans as ``[name, start, end, depth]``
(``perf_counter``, which every process on the machine shares). Whatever the
call's wall time is not covered by depth-0 spans is the CLI's own time:
interpreter and click start-up, argument handling and serialisation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trimatch import cli  # noqa: E402
from trimatch.metric import MetricSpace  # noqa: E402

spans: list[tuple[str, float, float, int]] = []
depth = [0]


def wrap(owner, attr: str, name: str) -> None:
    inner = getattr(owner, attr)

    def timed(*args, **kwargs):
        depth[0] += 1
        started = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            depth[0] -= 1
            spans.append((name, started, perf_counter(), depth[0]))

    setattr(owner, attr, timed)


def main() -> None:
    out = Path(sys.argv[1])
    wrap(cli, "load_bases_csv", "metric.load_bases_csv")
    wrap(cli.MetricSpace, "great_circle", "metric.great_circle")
    wrap(cli, "load_lanes_csv", "lanes.load_lanes_csv")
    wrap(MetricSpace, "distance_matrix", "metric.distance_matrix")
    wrap(cli, "build_index", "lanes.build_index")
    wrap(cli, "enumerate_topk", "search.enumerate_topk")
    try:
        cli.main(sys.argv[2:], prog_name="trimatch")
    finally:
        out.write_text(json.dumps(spans))


if __name__ == "__main__":
    main()
