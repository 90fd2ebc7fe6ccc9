import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from trimatch.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_tri4_files(root: Path):
    """TRI4 as on-disk matrix-mode files (line A=0, B=10, C=4, D=1)."""
    pts = {"A": 0.0, "B": 10.0, "C": 4.0, "D": 1.0}
    ids = list(pts)
    (root / "bases.csv").write_text("base_id\n" + "\n".join(ids) + "\n")
    rows = [",".join(str(abs(pts[a] - pts[b])) for b in ids) for a in ids]
    (root / "matrix.csv").write_text("\n".join(rows) + "\n")
    (root / "lanes.csv").write_text(
        "lane_id,origin_base_id,dest_base_id\nAB,A,B\nBC,B,C\nCD,C,D\nCA,C,A\n")


def tri4_args(root: Path):
    return ["--bases", str(root / "bases.csv"), "--lanes", str(root / "lanes.csv"),
            "--matrix", str(root / "matrix.csv"), "--provider", "matrix"]


# --- gen --------------------------------------------------------------------

def test_gen_is_deterministic(runner, tmp_path):
    for sub in ("one", "two"):
        res = runner.invoke(main, ["gen", "--n-bases", "10", "--n-lanes", "20",
                                   "--seed", "7", "--out", str(tmp_path / sub)])
        assert res.exit_code == 0, res.output
    assert (tmp_path / "one/bases.csv").read_bytes() == (tmp_path / "two/bases.csv").read_bytes()
    assert (tmp_path / "one/lanes.csv").read_bytes() == (tmp_path / "two/lanes.csv").read_bytes()


def test_gen_exhausts_all_ordered_pairs(runner, tmp_path):
    res = runner.invoke(main, ["gen", "--n-bases", "2", "--n-lanes", "2",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader((tmp_path / "lanes.csv").read_text().splitlines()))
    pairs = {(r["origin_base_id"], r["dest_base_id"]) for r in rows}
    assert len(pairs) == 2 and all(a != b for a, b in pairs)


def test_gen_scales_and_stays_in_box(runner, tmp_path):
    res = runner.invoke(main, ["gen", "--n-bases", "500", "--n-lanes", "1750",
                               "--seed", "3", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    bases = list(csv.DictReader((tmp_path / "bases.csv").read_text().splitlines()))
    assert len(bases) == 500
    for b in bases:
        assert 31.0 <= float(b["lat"]) <= 45.0
        assert 130.0 <= float(b["lon"]) <= 145.0
    lanes = list(csv.DictReader((tmp_path / "lanes.csv").read_text().splitlines()))
    pairs = [(r["origin_base_id"], r["dest_base_id"]) for r in lanes]
    assert len(pairs) == 1750 == len(set(pairs))
    assert all(a != b for a, b in pairs)


def test_gen_rejects_tiny_or_oversized(runner, tmp_path):
    res = runner.invoke(main, ["gen", "--n-bases", "1", "--out", str(tmp_path)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["gen", "--n-bases", "3", "--n-lanes", "7",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "6" in res.output  # names the pair budget


def test_gen_negative_lane_count_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["gen", "--n-bases", "5", "--n-lanes", "-3",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "-3" in res.output
    assert not (tmp_path / "lanes.csv").exists()


# --- validate ----------------------------------------------------------------

def test_validate_clean_great_circle(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "20", "--n-lanes", "50", "--out", str(tmp_path)])
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv"),
                               "--lanes", str(tmp_path / "lanes.csv")])
    assert res.exit_code == 0, res.output
    assert "validation passed" in res.output


def test_validate_asymmetric_matrix_exits_3(runner, tmp_path):
    (tmp_path / "bases.csv").write_text("base_id\np\nq\n")
    (tmp_path / "matrix.csv").write_text("0,1\n5,0\n")
    args = ["validate", "--bases", str(tmp_path / "bases.csv"),
            "--matrix", str(tmp_path / "matrix.csv"), "--provider", "matrix"]
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert "symmetry" in res.output
    res = runner.invoke(main, args + ["--force"])
    assert res.exit_code == 0


def test_validate_matrix_provider_without_matrix_exits_2(runner, tmp_path):
    (tmp_path / "bases.csv").write_text("base_id\np\nq\n")
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv"),
                               "--provider", "matrix"])
    assert res.exit_code == 2
    assert "requires --matrix" in res.output


def test_validate_negative_samples_exits_2(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "5", "--n-lanes", "6", "--out", str(tmp_path)])
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv"),
                               "--samples", "-1"])
    assert res.exit_code == 2
    assert "--samples" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("command", ["validate", "match"])
def test_matrix_without_matrix_provider_exits_2(runner, tmp_path, command):
    runner.invoke(main, ["gen", "--n-bases", "5", "--n-lanes", "6", "--out", str(tmp_path)])
    (tmp_path / "matrix.csv").write_text("\n".join(["0,1,1,1,1"] * 5) + "\n")
    args = ["--bases", str(tmp_path / "bases.csv"), "--matrix", str(tmp_path / "matrix.csv")]
    if command == "match":
        args = ["l0001", *args, "--lanes", str(tmp_path / "lanes.csv"), "--l", "0.8"]
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == 2
    assert "--matrix requires --provider matrix" in res.output


def test_bad_matrix_entry_exits_2_with_its_row(runner, tmp_path):
    write_tri4_files(tmp_path)
    matrix = tmp_path / "matrix.csv"
    rows = matrix.read_text().splitlines()
    rows[2] = rows[2].replace("6.0", "zz", 1)
    matrix.write_text("\n".join(rows) + "\n")
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path), "--l", "0.9"])
    assert res.exit_code == 2
    assert "matrix.csv row 3: bad distance 'zz'" in res.output


def test_ragged_matrix_error_names_its_file_line(runner, tmp_path):
    (tmp_path / "bases.csv").write_text("base_id\na\nb\n")
    (tmp_path / "matrix.csv").write_text("0,1\n1,0,2\n")
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv"),
                               "--matrix", str(tmp_path / "matrix.csv"),
                               "--provider", "matrix"])
    assert res.exit_code == 2
    assert "matrix.csv row 2 has 3 entries, expected 2" in res.output


@pytest.mark.parametrize("command", ["validate", "match"])
def test_matrix_row_count_error_names_both_files(runner, tmp_path, command):
    (tmp_path / "bases.csv").write_text("base_id\na\nb\n")
    (tmp_path / "matrix.csv").write_text("0,1,1\n1,0,1\n1,1,0\n")
    (tmp_path / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\nab,a,b\n")
    args = ["--bases", str(tmp_path / "bases.csv"), "--matrix", str(tmp_path / "matrix.csv"),
            "--provider", "matrix"]
    if command == "match":
        args = ["ab", *args, "--lanes", str(tmp_path / "lanes.csv"), "--l", "0.5"]
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == 2
    assert "matrix.csv has 3 rows for the 2 bases in" in res.output
    assert "bases.csv" in res.output


@pytest.mark.parametrize("command", ["validate", "validate-lanes", "match", "bench"])
def test_header_only_bases_exit_2(runner, tmp_path, command):
    bases = tmp_path / "bases.csv"
    bases.write_text("base_id,lat,lon\n")
    (tmp_path / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\n")
    files = ["--bases", str(bases), "--lanes", str(tmp_path / "lanes.csv")]
    args = {"validate": ["validate", "--bases", str(bases)],
            "validate-lanes": ["validate", *files],
            "match": ["match", "l0001", *files, "--l", "0.8"],
            "bench": ["bench", *files]}[command]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "bases.csv: no bases" in res.output
    assert "validation passed" not in res.output


def test_validate_reports_lane_row_numbers(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "5", "--n-lanes", "6", "--out", str(tmp_path)])
    lanes = tmp_path / "lanes.csv"
    lanes.write_text(lanes.read_text() + "zz,b001,missing\n")
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv"),
                               "--lanes", str(lanes)])
    assert res.exit_code == 3
    assert "row 8" in res.output and "missing" in res.output


# --- match -------------------------------------------------------------------

def test_match_pruned_on_tri4(runner, tmp_path):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path),
                               "--l", "0.9", "--u-factor", "4"])
    assert res.exit_code == 0, res.output
    records = [json.loads(line) for line in res.output.splitlines() if line.startswith("{")]
    assert len(records) == 2
    assert {(r["t2"], r["t3"]) for r in records} == {("BC", "CA"), ("BC", "CD")}


@pytest.mark.parametrize("algo", ["brute", "quad", "pruned"])
def test_match_every_backend_prints_the_same_set(runner, tmp_path, algo):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path), "--l", "0.9",
                               "--algo", algo])
    assert res.exit_code == 0, res.output
    assert f"algo={algo}" in res.output
    records = [json.loads(line) for line in res.output.splitlines() if line.startswith("{")]
    assert {(r["t2"], r["t3"]) for r in records} == {("BC", "CA"), ("BC", "CD")}


def test_match_topk_single(runner, tmp_path):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path),
                               "--l", "0.9", "--k", "1"])
    assert res.exit_code == 0, res.output
    records = [json.loads(line) for line in res.output.splitlines() if line.startswith("{")]
    assert len(records) == 1
    assert records[0]["ovr"] == 1.0
    assert records[0]["ell_star"] == 1.0


def test_match_unknown_lane_exits_2(runner, tmp_path):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "ZZ", *tri4_args(tmp_path), "--l", "0.9"])
    assert res.exit_code == 2
    assert "ZZ" in res.output


def write_zero_length_files(root: Path):
    """Three bases 0 km apart: a matrix the metric gate accepts, whose lanes
    a->b, b->c, c->a all have length 0."""
    (root / "bases.csv").write_text("base_id\na\nb\nc\n")
    (root / "matrix.csv").write_text("0,0,0\n0,0,0\n0,0,0\n")
    (root / "lanes.csv").write_text(
        "lane_id,origin_base_id,dest_base_id\nx,a,b\ny,b,c\nz,c,a\n")
    return ["--bases", str(root / "bases.csv"), "--lanes", str(root / "lanes.csv"),
            "--matrix", str(root / "matrix.csv"), "--provider", "matrix"]


def test_match_zero_length_lanes_exit_2(runner, tmp_path):
    args = write_zero_length_files(tmp_path)
    res = runner.invoke(main, ["match", "x", *args, "--u-km", "10", "--l", "0.5"])
    assert res.exit_code == 2, res.output
    assert "row 2: lane 'x' has zero length" in res.output
    assert "row 4: lane 'z' has zero length" in res.output


def test_validate_zero_length_lanes_exit_3(runner, tmp_path):
    args = write_zero_length_files(tmp_path)
    res = runner.invoke(main, ["validate", *args])
    assert res.exit_code == 3, res.output
    assert "violations=0" in res.output  # the metric itself passes
    assert "row 3: lane 'y' has zero length" in res.output


def test_match_rejects_bad_rate(runner, tmp_path):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path), "--l", "1.2"])
    assert res.exit_code == 2


def test_match_conflicting_u_modes(runner, tmp_path):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path),
                               "--l", "0.9", "--u-km", "40", "--u-factor", "4"])
    assert res.exit_code == 2


def test_match_shapley_shares_attached(runner, tmp_path):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path),
                               "--l", "0.9", "--shapley"])
    records = [json.loads(line) for line in res.output.splitlines() if line.startswith("{")]
    shares = {(r["t2"], r["t3"]): r["shapley"] for r in records}
    assert shares[("BC", "CD")] == [9.0, 6.0, 3.0]


def test_match_csv_output_parses(runner, tmp_path):
    write_tri4_files(tmp_path)
    out = tmp_path / "out.csv"
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path),
                               "--l", "0.9", "--format", "csv", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    assert {r["t2"] for r in rows} == {"BC"}


@pytest.mark.parametrize("flags", [["--shapley"], ["--k", "3"], ["--k", "3", "--shapley"]])
def test_match_csv_header_does_not_depend_on_the_result(runner, tmp_path, flags):
    write_tri4_files(tmp_path)
    headers = []
    for cap in ("40", "1"):  # two triangles, then none
        res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path), "--l", "0.9",
                                   "--u-km", cap, "--format", "csv", *flags])
        assert res.exit_code == 0, res.output
        headers.append(res.stdout.splitlines()[0])
    assert headers[0] == headers[1]
    assert ("shapley3" in headers[1]) == ("--shapley" in flags)
    assert ("ell_star" in headers[1]) == ("--k" in flags)


def test_match_records_roundtrip_to_printed_precision(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "25", "--n-lanes", "80",
                         "--seed", "5", "--out", str(tmp_path)])
    lanes = list(csv.DictReader((tmp_path / "lanes.csv").read_text().splitlines()))
    res = runner.invoke(main, ["match", lanes[0]["lane_id"],
                               "--bases", str(tmp_path / "bases.csv"),
                               "--lanes", str(tmp_path / "lanes.csv"),
                               "--l", "0.6", "--u-factor", "4"])
    assert res.exit_code == 0, res.output
    records = [json.loads(line) for line in res.output.splitlines() if line.startswith("{")]
    assert records, "expected at least one triangle"
    for r in records:
        legs = r["d"] + r["e"]
        total = sum(legs)
        # six legs each rounded to 3 decimals: worst case 6 * 0.0005 drift
        assert abs(total - r["total"]) <= 0.0035
        assert abs(sum(r["d"]) / total - r["ovr"]) <= 1e-4


# --- bench -------------------------------------------------------------------

def bench_args(tmp_path, *extra):
    return ["bench", "--bases", str(tmp_path / "bases.csv"),
            "--lanes", str(tmp_path / "lanes.csv"), *extra]


def test_bench_grid_row_count(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "20", "--n-lanes", "60",
                         "--seed", "2", "--out", str(tmp_path)])
    out = tmp_path / "rows.jsonl"
    res = runner.invoke(main, bench_args(
        tmp_path, "--queries", "10", "--algo", "pruned", "--algo", "topk",
        "--k", "5", "--out", str(out)))
    assert res.exit_code == 0, res.output
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 10 * 5 * 2  # queries x grid x algorithms
    cells = {(r["ell"], r["algo"]) for r in rows}
    assert len(cells) == 10


def test_bench_brute_and_pruned_sizes_agree(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "15", "--n-lanes", "45",
                         "--seed", "4", "--out", str(tmp_path)])
    out = tmp_path / "rows.jsonl"
    res = runner.invoke(main, bench_args(
        tmp_path, "--queries", "8", "--algo", "brute", "--algo", "pruned",
        "--l", "0.8", "--out", str(out)))
    assert res.exit_code == 0, res.output
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    sizes = {}
    for r in rows:
        sizes.setdefault(r["lane"], {})[r["algo"]] = r["result_size"]
    for lane, by_algo in sizes.items():
        assert by_algo["brute"] == by_algo["pruned"]


def test_bench_candidates_drop_with_rate(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "20", "--n-lanes", "70",
                         "--seed", "6", "--out", str(tmp_path)])
    out = tmp_path / "rows.jsonl"
    res = runner.invoke(main, bench_args(
        tmp_path, "--queries", "10", "--algo", "pruned",
        "--l", "0.75", "--l", "0.95", "--out", str(out)))
    assert res.exit_code == 0, res.output
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    per_lane = {}
    for r in rows:
        per_lane.setdefault(r["lane"], {})[r["ell"]] = r["candidates"]
    for lane, by_ell in per_lane.items():
        assert by_ell[0.95] <= by_ell[0.75]


def test_bench_deterministic_reruns_identically(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "15", "--n-lanes", "45",
                         "--seed", "9", "--out", str(tmp_path)])
    dumps = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        res = runner.invoke(main, bench_args(
            tmp_path, "--queries", "6", "--algo", "topk", "--k", "4",
            "--seed", "11", "--deterministic", "--l", "0.75", "--out", str(out)))
        assert res.exit_code == 0, res.output
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        for r in rows:
            r.pop("wall_seconds")
        dumps.append(rows)
    assert dumps[0] == dumps[1]


def test_bench_too_many_queries_exits_2(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "5", "--n-lanes", "8", "--out", str(tmp_path)])
    res = runner.invoke(main, bench_args(tmp_path, "--queries", "100"))
    assert res.exit_code == 2


def test_bench_conflicting_u_modes_exits_2(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "10", "--n-lanes", "20", "--out", str(tmp_path)])
    res = runner.invoke(main, bench_args(tmp_path, "--queries", "2",
                                         "--u-km", "100", "--u-factor", "2"))
    assert res.exit_code == 2
    assert "--u-km and --u-factor are mutually exclusive" in res.output


def test_bench_csv_rows_carry_the_jsonl_fields(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "15", "--n-lanes", "45",
                         "--seed", "9", "--out", str(tmp_path)])
    outs = {}
    for fmt in ("jsonl", "csv"):
        outs[fmt] = tmp_path / f"rows.{fmt}"
        res = runner.invoke(main, bench_args(
            tmp_path, "--queries", "4", "--algo", "pruned", "--algo", "topk", "--k", "3",
            "--l", "0.75", "--format", fmt, "--out", str(outs[fmt])))
        assert res.exit_code == 0, res.output
    records = [json.loads(line) for line in outs["jsonl"].read_text().splitlines()]
    with outs["csv"].open(newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["lane", "algo", "ell", "u", "k", "wall_seconds",
                                     "result_size", "candidates", "level_visits", "ell_star"]
        rows = list(reader)
    assert len(rows) == len(records) == 8
    for row, rec in zip(rows, records):
        assert (row["lane"], row["algo"]) == (rec["lane"], rec["algo"])
        assert float(row["ell"]) == rec["ell"] and float(row["u"]) == rec["u"]
        assert row["k"] == ("" if rec["k"] is None else str(rec["k"]))
        assert int(row["result_size"]) == rec["result_size"]
        assert int(row["candidates"]) == rec["candidates"]
        assert row["level_visits"] == "/".join(map(str, rec["level_visits"]))
        assert float(row["ell_star"]) == rec["ell_star"]
