"""Command line surface: instance generation, metric validation, single
matching requests, and batch benchmarking.

Exit codes: 0 success, 2 usage or input error, 3 metric/data validation
failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from time import perf_counter

import click

from .bench import (DEFAULT_ELL_GRID, QueryRow, aggregate, row_to_dict,
                    run_queries, sample_query_lanes)
from .costshare import shapley_split
from .generate import generate_instance, write_instance
from .lanes import Lane, LaneIndex, build_index, load_lanes_csv
from .metric import (MetricSpace, UnknownBaseError, load_bases_csv,
                     load_matrix_csv, validate_metric)
from .search import BACKENDS, Query, enumerate_topk


class InputError(click.ClickException):
    exit_code = 2


@click.group()
def main():
    """Find triangular transports for full-truckload lanes."""


def _read_space(bases_path: str, matrix_path: str | None) -> MetricSpace:
    """Matrix distances when a matrix file is given, else great-circle ones."""
    try:
        bases = load_bases_csv(bases_path)
        if matrix_path is None:
            return MetricSpace.great_circle(bases)
        matrix = load_matrix_csv(matrix_path)
        if len(matrix) != len(bases):
            raise InputError(f"{matrix_path} has {len(matrix)} rows for the "
                             f"{len(bases)} bases in {bases_path}")
        return MetricSpace.from_matrix(bases, matrix)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_space(bases_path: str, matrix_path: str | None, force: bool) -> MetricSpace:
    space = _read_space(bases_path, matrix_path)
    if matrix_path is not None:
        # vets the user's data; the search is exact on any matrix, --force or not
        report = validate_metric(space)
        if not report.ok:
            click.echo(report.summary(), err=True)
            if not force:
                click.echo("metric validation failed (use --force to proceed)", err=True)
                sys.exit(3)
    return space


class _Float(click.ParamType):
    """A float flag whose typed value must pass `test`, checked before any
    file is read. click.FloatRange alone would let nan through."""

    name = "float"

    def __init__(self, test, want: str):
        self.test, self.want = test, want

    def convert(self, value, param, ctx):
        x = click.FLOAT.convert(value, param, ctx)
        if not self.test(x):
            self.fail(f"{self.want}, got {value}", param, ctx)
        return x


_RATE = _Float(lambda v: 0.0 < v <= 1.0, "ell must be in (0, 1]")
_CAP = _Float(lambda v: 0.0 < v < math.inf, "u must be positive and finite")


def _u_factor(u_km: float | None, u_factor: float | None) -> float:
    if u_km is not None and u_factor is not None:
        raise InputError("--u-km and --u-factor are mutually exclusive")
    return 4.0 if u_factor is None else u_factor


def _cap(u_km: float | None, u_factor: float, lane: Lane) -> float:
    """The mileage cap for a query on `lane`. A `--u-factor` whose product
    with the lane's length over- or underflows names the flag and the lane."""
    if u_km is not None:
        return u_km
    u = u_factor * lane.dist
    if not 0.0 < u < math.inf:
        raise InputError(f"--u-factor {u_factor!r} times lane {lane.id!r} of "
                         f"{lane.dist:.3f} km: u must be positive and finite, got {u}")
    return u


def _load_index(lanes_path: str, space: MetricSpace) -> LaneIndex:
    try:
        return build_index(load_lanes_csv(lanes_path, space), space)
    except (ValueError, UnknownBaseError) as exc:
        raise InputError(str(exc)) from exc


def _triangle_record(tr, shares=None, ell_star=None) -> dict:
    rec = {
        "t1": tr.t1, "t2": tr.t2, "t3": tr.t3,
        "d": [round(tr.d1, 3), round(tr.d2, 3), round(tr.d3, 3)],
        "e": [round(tr.e1, 3), round(tr.e2, 3), round(tr.e3, 3)],
        "ovr": round(tr.ovr, 6),
        "total": round(tr.total, 3),
    }
    if shares is not None:
        rec["shapley"] = [round(s, 3) for s in shares]
    if ell_star is not None:
        rec["ell_star"] = round(ell_star, 6)
    return rec


def _write_out(out: str, text: str) -> None:
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise InputError(f"--out: cannot write {out}: {exc.strerror or exc}") from exc


def _emit_records(records: list[dict], fmt: str, out: str | None,
                  shapley: bool, ranked: bool) -> None:
    if fmt == "jsonl":
        lines = [json.dumps(rec) for rec in records]
        text = "\n".join(lines) + ("\n" if lines else "")
    else:
        cols = ["t1", "t2", "t3", "d1", "d2", "d3", "e1", "e2", "e3", "ovr", "total"]
        if shapley:
            cols += ["shapley1", "shapley2", "shapley3"]
        if ranked:
            cols.append("ell_star")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(cols)
        for rec in records:
            row = [rec["t1"], rec["t2"], rec["t3"], *(f"{v:.3f}" for v in rec["d"] + rec["e"]),
                   f"{rec['ovr']:.6f}", f"{rec['total']:.3f}"]
            row += [f"{v:.3f}" for v in rec.get("shapley", ())]
            if "ell_star" in rec:
                row.append(f"{rec['ell_star']:.6f}")
            writer.writerow(row)
        text = buf.getvalue()
    if out:
        _write_out(out, text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--n-bases", type=int, required=True, help="Number of bases to place.")
@click.option("--n-lanes", type=int, default=None,
              help="Number of lanes (default: 3.5 per base).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True,
              help="Directory for bases.csv and lanes.csv.")
def gen(n_bases, n_lanes, seed, out):
    """Write a seeded synthetic instance (bases.csv + lanes.csv)."""
    outdir = Path(out)
    try:
        bases, rows = generate_instance(n_bases, n_lanes, seed)
        outdir.mkdir(parents=True, exist_ok=True)
        write_instance(bases, rows, outdir / "bases.csv", outdir / "lanes.csv")
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror or exc}") from exc
    click.echo(f"wrote {len(bases)} bases and {len(rows)} lanes to {outdir}")


@main.command()
@click.option("--bases", "bases_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--lanes", "lanes_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--matrix", "matrix_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="km distance grid to use in place of great-circle distances.")
@click.option("--samples", type=click.IntRange(min=0), default=1000, show_default=True,
              help="Random triples for the triangle-inequality check.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--force", is_flag=True, help="Report violations but exit 0.")
def validate(bases_path, lanes_path, matrix_path, samples, seed, force):
    """Check the metric axioms and lane-file integrity."""
    space = _read_space(bases_path, matrix_path)
    report = validate_metric(space, samples=samples, seed=seed)
    click.echo(report.summary())
    lane_trouble = None
    if lanes_path is not None:
        try:
            lanes = load_lanes_csv(lanes_path, space)
            click.echo(f"lanes: {len(lanes)} rows ok")
        except ValueError as exc:
            lane_trouble = str(exc)
            click.echo(f"lanes: {lane_trouble}")
    if (not report.ok or lane_trouble) and not force:
        sys.exit(3)
    click.echo("validation passed" if report.ok and not lane_trouble else "violations ignored (--force)")


@main.command()
@click.argument("lane_id")
@click.option("--bases", "bases_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--lanes", "lanes_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--matrix", "matrix_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="km distance grid to use in place of great-circle distances.")
@click.option("--l", "ell", type=_RATE, required=True, help="Desired occupied vehicle rate.")
@click.option("--u-km", type=_CAP, default=None, help="Absolute mileage cap in km.")
@click.option("--u-factor", type=_CAP, default=None,
              help="Cap as a multiple of the client lane length (default 4).")
@click.option("--k", type=click.IntRange(min=1), default=None,
              help="Return only the k best rates.")
@click.option("--algo", type=click.Choice(list(BACKENDS)), default=None,
              help="Backend (default: pruned, or topk when --k is given).")
@click.option("--shapley", is_flag=True, help="Attach fair mileage-savings shares.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--force", is_flag=True, help="Skip the metric gate on matrix inputs.")
def match(lane_id, bases_path, lanes_path, matrix_path, ell, u_km, u_factor,
          k, algo, shapley, fmt, out, force):
    """List feasible triangular transports containing LANE_ID."""
    u_factor = _u_factor(u_km, u_factor)
    algo = algo or ("topk" if k is not None else "pruned")
    if algo == "topk" and k is None:
        raise InputError("--algo topk requires --k")
    if algo != "topk" and k is not None:
        raise InputError("--k only applies to --algo topk")
    if out:
        _write_out(out, "")  # an unwritable path fails before any file is read

    space = _load_space(bases_path, matrix_path, force)
    index = _load_index(lanes_path, space)
    if lane_id not in index.by_id:
        raise InputError(f"unknown lane id {lane_id!r}")
    u = _cap(u_km, u_factor, index.by_id[lane_id])
    try:
        query = Query(lane_id, ell, u, k)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    if algo == "topk":  # called by name, so wrappers around cli.enumerate_topk see it
        rs = enumerate_topk(index, space, query)
    else:
        rs = BACKENDS[algo](index, space, query)

    records = []
    for tr in rs.triangles:
        shares = shapley_split(tr, index, space).shares if shapley else None
        records.append(_triangle_record(
            tr, shares, rs.ell_star if algo == "topk" else None))
    _emit_records(records, fmt, out, shapley, algo == "topk")
    click.echo(f"{len(records)} triangles (ell={ell}, u={u:.3f}, algo={algo})", err=True)


@main.command()
@click.option("--bases", "bases_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--lanes", "lanes_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--matrix", "matrix_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="km distance grid to use in place of great-circle distances.")
@click.option("--queries", type=click.IntRange(min=0), default=100, show_default=True,
              help="Client lanes sampled without replacement.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--algo", "algos", type=click.Choice(list(BACKENDS)),
              multiple=True, default=("pruned",), show_default=True)
@click.option("--l", "ells", type=_RATE, multiple=True,
              help="Rate grid (default 0.75..0.95 step 0.05).")
@click.option("--u-factor", type=_CAP, default=None,
              help="Cap as a multiple of the client lane length (default 4).")
@click.option("--u-km", type=_CAP, default=None, help="Absolute mileage cap in km.")
@click.option("--k", type=click.IntRange(min=1), default=20, show_default=True,
              help="k for the topk backend.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write per-query rows here.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--force", is_flag=True)
def bench(bases_path, lanes_path, matrix_path, queries, seed, algos, ells,
          u_factor, u_km, k, out, fmt, force):
    """Run a query batch over a rate grid and summarize per grid cell."""
    u_factor = _u_factor(u_km, u_factor)
    if out:
        _write_out(out, "")  # an unwritable path fails before any file is read
    space = _load_space(bases_path, matrix_path, force)
    build_start = perf_counter()
    index = _load_index(lanes_path, space)
    build_seconds = perf_counter() - build_start
    click.echo(f"index: {len(index.lanes)} lanes over {len(space)} bases, "
               f"built in {build_seconds:.3f}s")
    try:
        lane_ids = sample_query_lanes(index, queries, seed)
        for lane_id in lane_ids:  # every cap is checked before the batch runs
            _cap(u_km, u_factor, index.by_id[lane_id])
        rows = run_queries(index, space, lane_ids, algos, ells or DEFAULT_ELL_GRID,
                           u_factor=u_factor, u_km=u_km, k=k)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    if out:
        if fmt == "jsonl":
            text = "".join(json.dumps(row_to_dict(r)) + "\n" for r in rows)
        else:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, [f.name for f in fields(QueryRow)])
            writer.writeheader()
            for r in rows:
                writer.writerow({**row_to_dict(r), "u": f"{r.u:.3f}",
                                 "level_visits": "/".join(map(str, r.level_visits))})
            text = buf.getvalue()
        _write_out(out, text)
        click.echo(f"rows: {len(rows)} written to {out}")

    cells = aggregate(rows)
    click.echo(f"{'ell':>5} {'algo':>7} {'queries':>8} {'mean_s':>10} {'median_s':>10} "
               f"{'p95_s':>10} {'max_s':>10} {'mean_cand':>12} {'results':>8}")
    for (ell, algo) in sorted(cells):
        c = cells[(ell, algo)]
        click.echo(f"{ell:>5.2f} {algo:>7} {c.queries:>8} {c.mean_seconds:>10.4f} "
                   f"{c.median_seconds:>10.4f} {c.p95_seconds:>10.4f} {c.max_seconds:>10.4f} "
                   f"{c.mean_candidates:>12.1f} {c.total_results:>8}")


if __name__ == "__main__":
    main()
