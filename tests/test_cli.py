import csv
import json
import math
import random
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from trimatch import cli
from trimatch.cli import main

from test_search_pinned import LINE_LANES, LINE_POINTS


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
            "--matrix", str(root / "matrix.csv")]


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


def test_gen_out_it_cannot_create_exits_2(runner, tmp_path):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    res = runner.invoke(main, ["gen", "--n-bases", "5", "--out", str(out)])
    assert res.exit_code == 2
    assert f"cannot write {out}" in res.output
    assert "Traceback" not in res.output


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
            "--matrix", str(tmp_path / "matrix.csv")]
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert "symmetry" in res.output
    res = runner.invoke(main, args + ["--force"])
    assert res.exit_code == 2
    assert "No such option '--force'" in res.output


def test_validate_accepts_collinear_great_circle_bases(runner, tmp_path):
    rows = [f"b{i:02d},0.0,{130 + 1.25 * i!r}" for i in range(12)]
    (tmp_path / "bases.csv").write_text("base_id,lat,lon\n" + "\n".join(rows) + "\n")
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv"),
                               "--samples", "2000"])
    assert res.exit_code == 0, res.output
    assert "triangle=2000 violations=0" in res.output


def test_validate_negative_samples_exits_2(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "5", "--n-lanes", "6", "--out", str(tmp_path)])
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv"),
                               "--samples", "-1"])
    assert res.exit_code == 2
    assert "--samples" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("command", ["validate", "match"])
def test_bases_without_coordinates_need_a_matrix(runner, tmp_path, command):
    (tmp_path / "bases.csv").write_text("base_id\np\nq\n")
    (tmp_path / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\npq,p,q\n")
    args = ["--bases", str(tmp_path / "bases.csv")]
    if command == "match":
        args = ["pq", *args, "--lanes", str(tmp_path / "lanes.csv"), "--l", "0.8"]
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == 2
    assert "base 'p' has no coordinates" in res.output
    assert "Traceback" not in res.output


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
                               "--matrix", str(tmp_path / "matrix.csv")])
    assert res.exit_code == 2
    assert "matrix.csv row 2 has 3 entries, expected 2" in res.output


@pytest.mark.parametrize("command", ["validate", "match"])
def test_matrix_row_count_error_names_both_files(runner, tmp_path, command):
    (tmp_path / "bases.csv").write_text("base_id\na\nb\n")
    (tmp_path / "matrix.csv").write_text("0,1,1\n1,0,1\n1,1,0\n")
    (tmp_path / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\nab,a,b\n")
    args = ["--bases", str(tmp_path / "bases.csv"), "--matrix", str(tmp_path / "matrix.csv")]
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


@pytest.mark.parametrize("rows,message", [
    ("a,35,135\nb,36,135\na,37,135\n", "bases.csv row 4: duplicate base id 'a'"),
    ("a,35,135\nb,95,135\n", "bases.csv row 3: lat 95.0 outside [-90, 90]"),
    ("a,35,135\nb,36,190\n", "bases.csv row 3: lon 190.0 outside [-180, 180]"),
    ("a,35,135\n ,36,135\n", "bases.csv row 3: empty base_id"),
    ("a,35,135\nb,north,135\n", "bases.csv row 3: bad coordinates"),
], ids=["duplicate", "lat", "lon", "empty-id", "coordinates"])
def test_bad_bases_rows_exit_2_naming_the_file_row(runner, tmp_path, rows, message):
    (tmp_path / "bases.csv").write_text("base_id,lat,lon\n" + rows)
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv")])
    assert res.exit_code == 2, res.output
    assert message in res.output


@pytest.mark.parametrize("command", ["validate", "match"])
@pytest.mark.parametrize("name,text,message", [
    ("bases.csv", "id,lat,lon\na,35,135\nb,36,135\n", "bases.csv: missing base_id header"),
    ("lanes.csv", "lane,origin_base_id,dest_base_id\nab,a,b\n",
     "lanes.csv: header must contain ['dest_base_id', 'lane_id', 'origin_base_id']"),
    ("lanes.csv", "lane_id,origin_base_id,dest_base_id\nab,a,b\n,b,a\n",
     "lanes.csv: row 3: empty lane_id"),
    ("lanes.csv", "lane_id,origin_base_id,dest_base_id\nab,a,b\nab,b,a\n",
     "lanes.csv: row 3: duplicate lane id 'ab'"),
], ids=["bases-header", "lanes-header", "empty-lane-id", "duplicate-lane-id"])
def test_bad_headers_and_lane_ids_are_input_errors(runner, tmp_path, command,
                                                    name, text, message):
    """A bases.csv fault exits 2 from every command; a lanes.csv fault exits
    3 from `validate`, which reports it, and 2 from `match`."""
    (tmp_path / "bases.csv").write_text("base_id,lat,lon\na,35,135\nb,36,135\n")
    (tmp_path / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\nab,a,b\n")
    (tmp_path / name).write_text(text)
    args = ["--bases", str(tmp_path / "bases.csv"), "--lanes", str(tmp_path / "lanes.csv")]
    if command == "match":
        args = ["ab", *args, "--l", "0.5"]
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == (3 if command == "validate" and name == "lanes.csv" else 2), res.output
    assert message in res.output
    assert "Traceback" not in res.output and "validation passed" not in res.output


@pytest.mark.parametrize("command", ["validate", "match"])
@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_a_matrix_file_with_no_rows_exits_2(runner, tmp_path, command, text):
    write_tri4_files(tmp_path)
    (tmp_path / "matrix.csv").write_text(text)
    args = tri4_args(tmp_path)
    if command == "match":
        args = ["AB", *args, "--l", "0.9"]
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == 2, res.output
    assert "matrix.csv: empty matrix" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["validate", "match"])
def test_row_errors_name_the_file_line_past_blank_lines(runner, tmp_path, command):
    (tmp_path / "bases.csv").write_text("base_id,lat,lon\na,35,135\n\nb,36,135\n\nc,95,135\n")
    (tmp_path / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\nab,a,b\n")
    args = {"validate": ["validate", "--bases", str(tmp_path / "bases.csv")],
            "match": ["match", "ab", "--bases", str(tmp_path / "bases.csv"),
                      "--lanes", str(tmp_path / "lanes.csv"), "--l", "0.8"]}[command]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "bases.csv row 6: lat 95.0 outside [-90, 90]" in res.output


@pytest.mark.parametrize("command,name,line,code", [
    ("validate", "bases.csv", 6, 2),
    ("validate", "lanes.csv", 6, 3),  # validate reports every lanes.csv fault with exit 3
    ("match", "lanes.csv", 6, 2),
    ("validate", "matrix.csv", 5, 2),
], ids=["validate-bases", "validate-lanes", "match-lanes", "validate-matrix"])
def test_csv_field_over_the_size_limit_is_an_input_error(runner, tmp_path, command,
                                                         name, line, code):
    write_tri4_files(tmp_path)
    path = tmp_path / name
    path.write_text(path.read_text() + "x" * 200_000 + ",A,B\n")  # csv allows 131,072
    args = ["AB", *tri4_args(tmp_path), "--l", "0.9"] if command == "match" else tri4_args(tmp_path)
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == code
    assert f"{name} line {line}: field larger than field limit" in res.output
    assert "Traceback" not in res.output


def test_validate_reports_lane_row_numbers(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "5", "--n-lanes", "6", "--out", str(tmp_path)])
    lanes = tmp_path / "lanes.csv"
    lanes.write_text(lanes.read_text() + "zz,b001,missing\n")
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv"),
                               "--lanes", str(lanes)])
    assert res.exit_code == 3
    assert "row 8" in res.output and "missing" in res.output


def test_validate_names_empty_lane_endpoints(runner, tmp_path):
    (tmp_path / "bases.csv").write_text("base_id,lat,lon\na,35,135\nb,36,135\n")
    (tmp_path / "lanes.csv").write_text(
        "lane_id,origin_base_id,dest_base_id\nab,a\nab,,b\nba,b,a\n")
    res = runner.invoke(main, ["validate", "--bases", str(tmp_path / "bases.csv"),
                               "--lanes", str(tmp_path / "lanes.csv")])
    assert res.exit_code == 3, res.output
    assert "row 2: empty dest_base_id; row 3: empty origin_base_id" in res.output


@pytest.mark.parametrize("command,code", [("match", 2), ("validate", 3)])
def test_a_file_that_is_not_utf8_is_an_input_error_naming_it(runner, tmp_path, command, code):
    sjis = "lane_id,origin_base_id,dest_base_id\nab,a,b\nba,b,a\n東京,a,b\n"
    (tmp_path / "bases.csv").write_text("base_id,lat,lon\na,35,135\nb,36,135\n")
    (tmp_path / "lsj.csv").write_bytes(sjis.encode("shift_jis"))
    args = ["--bases", str(tmp_path / "bases.csv"), "--lanes", str(tmp_path / "lsj.csv")]
    if command == "match":
        args = ["ab", *args, "--l", "0.5"]
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == code, res.output
    assert "lsj.csv: not UTF-8 text" in res.output
    assert "Traceback" not in res.output


# --- match -------------------------------------------------------------------

def test_match_pruned_on_tri4(runner, tmp_path):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path),
                               "--l", "0.9", "--u-factor", "4"])
    assert res.exit_code == 0, res.output
    records = [json.loads(line) for line in res.output.splitlines() if line.startswith("{")]
    assert len(records) == 2
    assert {(r["t2"], r["t3"]) for r in records} == {("BC", "CA"), ("BC", "CD")}


@pytest.mark.parametrize("algo", ["brute", "pruned"])
def test_match_every_backend_prints_the_same_set(runner, tmp_path, algo):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path), "--l", "0.9",
                               "--algo", algo])
    assert res.exit_code == 0, res.output
    assert f"algo={algo}" in res.output
    records = [json.loads(line) for line in res.output.splitlines() if line.startswith("{")]
    assert {(r["t2"], r["t3"]) for r in records} == {("BC", "CA"), ("BC", "CD")}


def write_shrunk_pair_files(root: Path):
    """40 planar bases with one pair's distance shrunk to 0.2x: symmetric and,
    on `validate`'s 1,000 sampled triples, metric. The shrunk pair is a lane."""
    rng = random.Random(3)
    pts = [(round(rng.uniform(0, 100), 1), round(rng.uniform(0, 100), 1)) for _ in range(40)]
    d = [[round(math.dist(p, q), 3) for q in pts] for p in pts]
    i, j = rng.sample(range(40), 2)
    d[i][j] = d[j][i] = round(d[i][j] * 0.2, 3)
    pairs = {(i, j)}
    while len(pairs) < 60:
        pairs.add(tuple(rng.sample(range(40), 2)))
    (root / "bases.csv").write_text("base_id\n" + "".join(f"b{n:02d}\n" for n in range(40)))
    (root / "matrix.csv").write_text("".join(",".join(map(repr, row)) + "\n" for row in d))
    (root / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\n" + "".join(
        f"l{n:03d},b{a:02d},b{b:02d}\n" for n, (a, b) in enumerate(sorted(pairs))))


def test_match_on_a_validated_matrix_prints_what_brute_force_prints(runner, tmp_path):
    """l047 and l020 are the shrunk pair b32 -> b17 and back. After l047 the
    cycle is at b17, 88.863 from the client's start, with 54.017 spent of
    u = 130.752, yet it closes at 105.869 through b32. An exit that trusts
    the triangle inequality would drop it; every backend prints it."""
    write_shrunk_pair_files(tmp_path)
    args = ["--bases", str(tmp_path / "bases.csv"), "--lanes", str(tmp_path / "lanes.csv"),
            "--matrix", str(tmp_path / "matrix.csv")]
    res = runner.invoke(main, ["validate", *args])
    assert res.exit_code == 0, res.output
    assert "validation passed" in res.output

    def records(*flags):
        res = runner.invoke(main, ["match", "l001", *args, "--l", "0.6", *flags])
        assert res.exit_code == 0, res.output
        rows = [json.loads(line) for line in res.output.splitlines() if line.startswith("{")]
        return sorted((r["t2"], r["t3"], r["ovr"]) for r in rows)

    brute = records("--algo", "brute")
    assert brute == [("l023", "l008", 0.770701), ("l047", "l020", 0.644098)]
    assert records() == brute
    assert records("--k", "5") == brute


def test_match_and_bench_answer_on_a_matrix_validate_refuses(runner, tmp_path):
    """d(a,a) = 0.5, d(a,b) = 10 but d(b,a) = 12, and d(d,c) = 30 > 2 + 6 via
    b: identity, symmetry and the triangle inequality all fail. `validate`
    says so with exit 3; `match` and `bench` answer, since the search needs
    only non-negative distances."""
    (tmp_path / "bases.csv").write_text("base_id\na\nb\nc\nd\n")
    (tmp_path / "matrix.csv").write_text("0.5,10,4,7\n12,0,6,3\n1,9,0,20\n8,2,30,0\n")
    (tmp_path / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\n" + "".join(
        f"{o}{d},{o},{d}\n" for o, d in ("ab", "bc", "ca", "cd", "da", "bd")))
    args = tri4_args(tmp_path)
    assert runner.invoke(main, ["validate", *args]).exit_code == 3

    def records(*flags):
        res = runner.invoke(main, ["match", "ab", *args, "--l", "0.5", *flags])
        assert res.exit_code == 0, res.output
        assert re.fullmatch(r"\d+ triangles \(ell=0\.5, u=40\.000, algo=\w+\)\n", res.stderr)
        return [(r["t2"], r["t3"], r["ovr"]) for r in map(json.loads, res.stdout.splitlines())]

    brute = records("--algo", "brute")
    assert len(brute) == 8
    assert sorted(records()) == sorted(brute)
    ranked = sorted(brute, key=lambda r: (-r[2], r[0], r[1]))
    assert records("--k", "3") == ranked[:3]
    assert [r[:2] for r in ranked[:3]] == [("bd", "da"), ("bc", "ca"), ("bd", "bc")]

    res = runner.invoke(main, ["bench", *args, "--queries", "6", "--algo", "brute",
                               "--algo", "pruned", "--algo", "topk"])
    assert res.exit_code == 0, res.output
    for call in (["match", "ab", *args, "--l", "0.5"], ["bench", *args]):
        res = runner.invoke(main, [*call, "--force"])
        assert res.exit_code == 2
        assert "No such option '--force'" in res.output


def test_match_algo_quad_exits_2(runner, tmp_path):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path), "--l", "0.9",
                               "--algo", "quad"])
    assert res.exit_code == 2
    assert "'quad' is not one of 'brute', 'pruned', 'topk'" in res.output


@pytest.mark.parametrize("flags,message", [
    (["--algo", "topk"], "--algo topk requires --k"),
    (["--k", "5", "--algo", "pruned"], "--k only applies to --algo topk"),
], ids=["topk-without-k", "k-with-pruned"])
def test_match_k_and_algo_must_agree(runner, tmp_path, monkeypatch, flags, message):
    write_tri4_files(tmp_path)

    def no_read(path):
        raise AssertionError(f"read {path} before checking the flags")

    monkeypatch.setattr(cli, "load_bases_csv", no_read)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path), "--l", "0.9", *flags])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert "Traceback" not in res.output


def test_match_topk_single(runner, tmp_path):
    write_tri4_files(tmp_path)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path),
                               "--l", "0.9", "--k", "1"])
    assert res.exit_code == 0, res.output
    records = [json.loads(line) for line in res.output.splitlines() if line.startswith("{")]
    assert len(records) == 1
    assert records[0]["ovr"] == 1.0
    assert records[0]["ell_star"] == 1.0


def test_match_topk_ties_rank_by_lane_ids(runner, tmp_path):
    """L05 and L07 are the same lane, so their 8/9 triangles tie at the
    third rank; the smaller (t2, t3) is kept, as in the ranked brute output."""
    ids = list(LINE_POINTS)
    (tmp_path / "bases.csv").write_text("base_id\n" + "\n".join(ids) + "\n")
    (tmp_path / "matrix.csv").write_text("".join(
        ",".join(str(abs(LINE_POINTS[a] - LINE_POINTS[b])) for b in ids) + "\n" for a in ids))
    (tmp_path / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\n" + "".join(
        f"{lane},{a},{b}\n" for lane, a, b in LINE_LANES))
    ranked = {}
    for flags in (["--k", "3"], ["--algo", "brute"]):
        res = runner.invoke(main, ["match", "L01", *tri4_args(tmp_path), "--l", "0.75", *flags])
        assert res.exit_code == 0, res.output
        records = [json.loads(line) for line in res.stdout.splitlines()]
        ranked[flags[0]] = [(r["t2"], r["t3"], r["ovr"]) for r in records]
    want = sorted(ranked["--algo"], key=lambda r: (-r[2], r[0], r[1]))[:3]
    assert ranked["--k"] == want
    assert [r[:2] for r in want] == [("L05", "L06"), ("L07", "L06"), ("L05", "L04")]


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
            "--matrix", str(root / "matrix.csv")]


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


def test_match_out_into_missing_directory_exits_2(runner, tmp_path):
    write_tri4_files(tmp_path)
    out = tmp_path / "missing" / "out.csv"
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path),
                               "--l", "0.9", "--format", "csv", "--out", str(out)])
    assert res.exit_code == 2
    assert f"cannot write {out}" in res.output
    assert "Traceback" not in res.output


def test_match_checks_out_before_reading_any_file(runner, tmp_path):
    """With a malformed lanes file the error is still the --out one: the path
    is checked before the inputs are read, let alone searched."""
    write_tri4_files(tmp_path)
    (tmp_path / "lanes.csv").write_text("lane_id,origin_base_id,dest_base_id\nAB,A,nowhere\n")
    out = tmp_path / "missing" / "out.jsonl"
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path), "--l", "0.9",
                               "--out", str(out)])
    assert res.exit_code == 2
    assert f"--out: cannot write {out}" in res.output
    assert "nowhere" not in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("command,name", [
    ("match", "bases.csv"), ("match", "lanes.csv"), ("match", "matrix.csv"),
    ("bench", "lanes.csv"), ("bench", "alias.csv"),
])
def test_out_naming_an_input_exits_2_and_leaves_it(runner, tmp_path, monkeypatch,
                                                    command, name):
    """`alias.csv` is a hard link to lanes.csv: the same file by another name."""
    write_tri4_files(tmp_path)
    (tmp_path / "alias.csv").hardlink_to(tmp_path / "lanes.csv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def no_read(path):
        raise AssertionError(f"read {path} before checking --out")

    monkeypatch.setattr(cli, "load_bases_csv", no_read)
    call = ["match", "AB", "--l", "0.9"] if command == "match" else ["bench", "--queries", "1"]
    res = runner.invoke(main, [*call, *tri4_args(tmp_path), "--out", str(tmp_path / name)])
    assert res.exit_code == 2, res.output
    assert f"--out: {tmp_path / name} is also an input file" in res.output
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_an_input_files_os_error_is_not_blamed_on_out(runner, tmp_path, monkeypatch):
    write_tri4_files(tmp_path)

    def vanished(path):
        raise FileNotFoundError(2, "No such file or directory", path)

    monkeypatch.setattr(cli, "load_bases_csv", vanished)
    res = runner.invoke(main, ["match", "AB", *tri4_args(tmp_path), "--l", "0.9",
                               "--out", str(tmp_path / "out.jsonl")])
    assert isinstance(res.exception, FileNotFoundError)
    assert res.exception.filename == str(tmp_path / "bases.csv")
    assert "--out" not in res.output


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("call", [("match", "AB", "--l", "0.9"),
                                  ("bench", "--queries", "2", "--l", "0.9")])
def test_a_failed_write_to_out_exits_2(runner, tmp_path, call):
    """/dev/full opens but refuses every write: the error surfaces while the
    rows are written, after the inputs were read and searched."""
    write_tri4_files(tmp_path)
    res = runner.invoke(main, [*call, *tri4_args(tmp_path), "--out", "/dev/full"])
    assert res.exit_code == 2, res.output
    assert "--out: cannot write /dev/full" in res.output
    assert "Traceback" not in res.output


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


@pytest.fixture(scope="module")
def digest_instance(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    res = CliRunner().invoke(main, ["gen", "--n-bases", "40", "--n-lanes", "160",
                                    "--seed", "7", "--out", str(root)])
    assert res.exit_code == 0, res.output
    return root


@pytest.mark.parametrize("flags", [[], ["--shapley"], ["--k", "5"], ["--k", "5", "--shapley"]])
def test_match_csv_rows_print_the_jsonl_records(digest_instance, flags):
    out = {}
    for fmt in ("jsonl", "csv"):
        res = CliRunner().invoke(main, [
            "match", "l0010", "--bases", str(digest_instance / "bases.csv"),
            "--lanes", str(digest_instance / "lanes.csv"), "--l", "0.8", *flags,
            "--format", fmt])
        assert res.exit_code == 0, res.output
        out[fmt] = res.stdout
    records = [json.loads(line) for line in out["jsonl"].splitlines()]
    header, *rows = csv.reader(out["csv"].splitlines())
    assert header == ["t1", "t2", "t3", "d1", "d2", "d3", "e1", "e2", "e3", "ovr", "total",
                      *(["shapley1", "shapley2", "shapley3"] if "--shapley" in flags else []),
                      *(["ell_star"] if "--k" in flags else [])]
    assert records and len(rows) == len(records)
    for row, rec in zip(rows, records):
        want = [rec["t1"], rec["t2"], rec["t3"],
                *(f"{v:.3f}" for v in rec["d"] + rec["e"]),
                f"{rec['ovr']:.6f}", f"{rec['total']:.3f}",
                *(f"{v:.3f}" for v in rec.get("shapley", [])),
                *([f"{rec['ell_star']:.6f}"] if "ell_star" in rec else [])]
        assert row == want
        assert ("shapley" in rec) == ("--shapley" in flags)
        assert ("ell_star" in rec) == ("--k" in flags)


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
            "--seed", "11", "--l", "0.75", "--out", str(out)))
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


def test_bench_negative_queries_exits_2(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "10", "--n-lanes", "20", "--out", str(tmp_path)])
    res = runner.invoke(main, bench_args(tmp_path, "--queries", "-1"))
    assert res.exit_code == 2
    assert "--queries" in res.output and "x>=0" in res.output


def test_bench_out_into_missing_directory_exits_2(runner, tmp_path, monkeypatch):
    runner.invoke(main, ["gen", "--n-bases", "10", "--n-lanes", "20", "--out", str(tmp_path)])
    out = tmp_path / "missing" / "rows.jsonl"

    def no_batch(*args, **kwargs):
        raise AssertionError("the batch ran before the unwritable --out was found")

    monkeypatch.setattr(cli, "run_queries", no_batch)
    res = runner.invoke(main, bench_args(tmp_path, "--queries", "2", "--out", str(out)))
    assert res.exit_code == 2
    assert f"cannot write {out}" in res.output
    assert "Traceback" not in res.output


def test_bench_conflicting_u_modes_exits_2(runner, tmp_path):
    runner.invoke(main, ["gen", "--n-bases", "10", "--n-lanes", "20", "--out", str(tmp_path)])
    res = runner.invoke(main, bench_args(tmp_path, "--queries", "2",
                                         "--u-km", "100", "--u-factor", "2"))
    assert res.exit_code == 2
    assert "--u-km and --u-factor are mutually exclusive" in res.output


def write_unit_triangle_files(root: Path):
    """Great-circle bases a, b, c, d with lanes ab, bc, ca (a loop with no
    empty leg, rate 1) and ad."""
    (root / "bases.csv").write_text(
        "base_id,lat,lon\na,35,135\nb,35.5,135.5\nc,36,135\nd,35,136\n")
    (root / "lanes.csv").write_text(
        "lane_id,origin_base_id,dest_base_id\nab,a,b\nbc,b,c\nca,c,a\nad,a,d\n")


@pytest.mark.parametrize("call", [
    ("match", "ab", "--l", "1.0", "--u-km", "inf", "--algo", "brute"),
    ("match", "ab", "--l", "1.0", "--u-km", "inf", "--algo", "pruned"),
    ("match", "ab", "--l", "1.0", "--u-km", "inf", "--k", "3"),
    ("match", "ab", "--l", "1.0", "--u-factor", "inf"),
    ("bench", "--queries", "4", "--l", "1.0", "--u-km", "inf",
     "--algo", "brute", "--algo", "pruned"),
    ("match", "ab", "--l", "0.8", "--u-factor", "1e308"),
    ("bench", "--queries", "4", "--l", "0.8", "--u-factor", "1e308"),
])
def test_an_infinite_cap_exits_2(runner, tmp_path, call):
    write_unit_triangle_files(tmp_path)
    res = runner.invoke(main, [*call, "--bases", str(tmp_path / "bases.csv"),
                               "--lanes", str(tmp_path / "lanes.csv")])
    assert res.exit_code == 2, res.output
    assert "u must be positive and finite, got inf" in res.output
    flag = "--u-km" if "--u-km" in call else "--u-factor"
    assert flag in res.output
    if call[-1] == "1e308":  # a finite factor overflows only with a lane's length
        assert re.search(r"--u-factor 1e\+308 times lane '(ab|bc|ca|ad)' of \d+\.\d{3} km:",
                         res.output), res.output


@pytest.mark.parametrize("call,flag,typed", [
    pytest.param(("bench", "--queries", "0", "--u-km", "inf"), "--u-km", "inf", id="bench-u-km"),
    pytest.param(("bench", "--queries", "0", "--u-factor", "-1"), "--u-factor", "-1",
                 id="bench-u-factor"),
    pytest.param(("bench", "--queries", "0", "--l", "7"), "--l", "7", id="bench-l"),
    pytest.param(("bench", "--queries", "0", "--l", "0.8", "--l", "nan"), "--l", "nan",
                 id="bench-l-nan"),
    pytest.param(("bench", "--queries", "0", "--algo", "topk", "--k", "0"), "--k", "0",
                 id="bench-k"),
    pytest.param(("match", "ab", "--l", "0.8", "--u-factor", "-1"), "--u-factor", "-1",
                 id="match-u-factor"),
    pytest.param(("match", "ab", "--l", "0.8", "--u-km", "nan"), "--u-km", "nan",
                 id="match-u-km-nan"),
    pytest.param(("match", "ab", "--l", "0"), "--l", "0", id="match-l"),
    pytest.param(("match", "ab", "--l", "nan"), "--l", "nan", id="match-l-nan"),
    pytest.param(("match", "ab", "--l", "0.8", "--k", "0"), "--k", "0", id="match-k"),
])
def test_bad_request_flags_exit_2_before_any_file_is_read(runner, tmp_path, monkeypatch,
                                                          call, flag, typed):
    write_unit_triangle_files(tmp_path)

    def no_read(path):
        raise AssertionError(f"read {path} before checking the flags")

    monkeypatch.setattr(cli, "load_bases_csv", no_read)
    res = runner.invoke(main, [*call, "--bases", str(tmp_path / "bases.csv"),
                               "--lanes", str(tmp_path / "lanes.csv")])
    assert res.exit_code == 2, res.output
    message = res.output.split(f"Invalid value for '{flag}': ", 1)[1]
    assert typed in message.split(), message


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
