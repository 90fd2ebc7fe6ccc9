import gc
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimatch import (Base, MetricSpace, UnknownBaseError, load_bases_csv,
                      load_matrix_csv, validate_metric)
from trimatch.generate import generate_instance
from trimatch.metric import (EARTH_RADIUS_KM, _great_circle_matrix, _great_circle_row,
                             _haversine_km)

from conftest import gc_instance


def two_point_space():
    return MetricSpace.great_circle([Base("p", 0.0, 0.0), Base("q", 0.0, 180.0)])


def test_distance_to_self_is_zero():
    space = two_point_space()
    assert space.distance("p", "p") == 0.0
    assert space.distance("q", "q") == 0.0


def test_antipodal_distance_is_half_circumference():
    # half the mean-Earth circumference, by hand: pi * 6371.0088 = 20015.1144...
    space = two_point_space()
    assert space.distance("p", "q") == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)
    assert space.distance("p", "q") == pytest.approx(20015.114, abs=0.001)


def test_matrix_readback():
    space = MetricSpace.from_matrix([Base("0"), Base("1")], [[0.0, 3.0], [3.0, 0.0]])
    assert space.distance("0", "1") == 3.0
    assert space.distance("1", "0") == 3.0


def test_unknown_base_names_the_id():
    space = two_point_space()
    with pytest.raises(UnknownBaseError, match="nowhere"):
        space.distance("p", "nowhere")


def test_duplicate_base_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        MetricSpace.great_circle([Base("a", 0.0, 0.0), Base("a", 1.0, 1.0)])


@pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-90.5, 10.0), (0.0, 180.5), (45.0, -181.0)])
def test_coordinate_range_enforced(lat, lon):
    with pytest.raises(ValueError):
        MetricSpace.great_circle([Base("bad", lat, lon)])


def test_symmetry_is_bit_exact_on_random_pairs():
    space, _ = gc_instance(40, 80, seed=11)
    ids = space.base_ids
    import random
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.sample(ids, 2)
        assert space.distance(a, b) == space.distance(b, a)


def test_distance_matrix_is_bit_identical_to_pairwise_haversine():
    import random
    bases, _ = generate_instance(80, 10, seed=23)
    bases += [Base("anti1", 0.0, 0.0), Base("anti0", 0.0, 180.0),  # clamp path
              Base("twin", bases[0].lat, bases[0].lon)]
    random.Random(4).shuffle(bases)
    assert [b.id for b in bases] != sorted(b.id for b in bases)
    matrix = MetricSpace.great_circle(bases).distance_matrix()
    for i, a in enumerate(bases):
        for j, b in enumerate(bases):
            lo, hi = (a, b) if a.id < b.id else (b, a)
            want = _haversine_km(lo.lat, lo.lon, hi.lat, hi.lon)
            assert matrix[i][j].hex() == want.hex(), (a.id, b.id)
            assert matrix[i][j] is matrix[j][i]


def test_lazy_rows_are_bit_identical_to_the_matrix_and_pairwise_haversine():
    import random
    bases, _ = generate_instance(80, 10, seed=23)  # the instance of the test above
    bases += [Base("anti1", 0.0, 0.0), Base("anti0", 0.0, 180.0),
              Base("twin", bases[0].lat, bases[0].lon)]
    random.Random(4).shuffle(bases)
    matrix = _great_circle_matrix(tuple(bases))
    space = MetricSpace.great_circle(bases)
    for j, b in enumerate(bases):
        column = space.distances_to(b.id)
        assert [x.hex() for x in column] == [row[j].hex() for row in matrix], b.id
        for a, got in zip(bases, column):
            lo, hi = (a, b) if a.id < b.id else (b, a)
            assert got.hex() == _haversine_km(lo.lat, lo.lon, hi.lat, hi.lon).hex()
    assert space._dcache is None


def test_great_circle_distances_do_not_depend_on_argument_order():
    import random
    bases = [Base("n_pole", 90.0, 0.0), Base("n_pole2", 90.0, -120.0), Base("s_pole", -90.0, 45.0),
             Base("east", 12.5, 180.0), Base("west", 12.5, -180.0), Base("west2", -33.0, -179.999),
             Base("anti_a", 10.0, 20.0), Base("anti_b", -10.0, -160.0),  # clamp path
             Base("twin1", 35.7, 139.7), Base("twin2", 35.7, 139.7),
             Base("zero", -0.0, -0.0), Base("origin", 0.0, 0.0), Base("negz", -0.0, 1e-4),
             Base("tiny", 1e-300, -1e-300), Base("mid", 41.3, -73.9)]
    random.Random(8).shuffle(bases)
    assert [b.id for b in bases] != sorted(b.id for b in bases)
    space = MetricSpace.great_circle(bases)
    for a in bases:
        for b in bases:
            ab = _haversine_km(a.lat, a.lon, b.lat, b.lon)
            assert ab.hex() == _haversine_km(b.lat, b.lon, a.lat, a.lon).hex(), (a.id, b.id)
            assert space.distance(a.id, b.id).hex() == space.distance(b.id, a.id).hex() == ab.hex()
    points = [(b.lat, b.lon, math.cos(math.radians(b.lat))) for b in bases]
    for i, row in enumerate(space.distance_matrix()):
        assert [x.hex() for x in row] == [x.hex() for x in _great_circle_row(points[i], points)]


def test_distances_to_is_the_matrix_column():
    space = MetricSpace.from_matrix([Base("a"), Base("b")], [[0.0, 1.0], [5.0, 0.0]])
    assert space.distances_to("a") == [0.0, 5.0]
    assert space.distances_to("b") == [1.0, 0.0]
    with pytest.raises(UnknownBaseError):
        space.distances_to("ghost")


def test_distances_to_is_the_held_great_circle_row():
    space, _ = gc_instance(30, 10, seed=3)
    matrix = space.distance_matrix()
    for j, b in enumerate(space.base_ids):
        got = space.distances_to(b)
        assert [x.hex() for x in got] == [row[j].hex() for row in matrix]
        assert got is matrix[j]


def test_a_great_circle_row_is_built_per_call_and_kept_by_no_one():
    bases, _ = generate_instance(300, 10, seed=9)
    space = MetricSpace.great_circle(bases)
    first = space.distances_to(bases[0].id)  # builds the points every row reads
    again = space.distances_to(bases[0].id)
    assert [x.hex() for x in again] == [x.hex() for x in first]
    assert again is not first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for b in space.base_ids:
            space.distances_to(b)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one row is a list slot and a float per base, about 32 bytes each
    assert kept < len(bases) * 32
    assert space._dcache is None


def test_from_matrix_serves_the_callers_matrix():
    matrix = [[0.0, 3.0], [3.0, 0.0]]
    space = MetricSpace.from_matrix([Base("1"), Base("0")], matrix)
    assert space.distance_matrix() is matrix
    assert matrix == [[0.0, 3.0], [3.0, 0.0]]


def _reference_haversine(lat1, lon1, lat2, lon2):
    # atan2 formulation, deliberately different from the package's asin form
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return EARTH_RADIUS_KM * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def test_great_circle_within_half_percent_of_reference():
    import random
    rng = random.Random(99)
    coords = [(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(40)]
    bases = [Base(f"x{i}", lat, lon) for i, (lat, lon) in enumerate(coords)]
    space = MetricSpace.great_circle(bases)
    for _ in range(100):
        i, j = rng.sample(range(len(bases)), 2)
        want = _reference_haversine(*coords[i], *coords[j])
        got = space.distance(bases[i].id, bases[j].id)
        assert got == pytest.approx(want, rel=0.005)


@given(
    lat1=st.floats(-90, 90), lon1=st.floats(-180, 180),
    lat2=st.floats(-90, 90), lon2=st.floats(-180, 180),
)
@settings(max_examples=60, deadline=None)
def test_great_circle_axioms_hold_pointwise(lat1, lon1, lat2, lon2):
    space = MetricSpace.great_circle([Base("a", lat1, lon1), Base("b", lat2, lon2)])
    d = space.distance("a", "b")
    assert d >= 0.0
    assert space.distance("b", "a") == d
    assert space.distance("a", "a") == 0.0


def test_validate_great_circle_is_clean():
    space, _ = gc_instance(30, 60, seed=3)
    report = validate_metric(space, samples=500, seed=1)
    assert report.ok
    assert report.identity_checks == 30
    assert report.symmetry_checks == 30 * 29 // 2
    assert report.triangle_checks == 500


def test_validate_rejects_negative_samples():
    with pytest.raises(ValueError, match="samples must be >= 0"):
        validate_metric(two_point_space(), samples=-1)


def test_validate_samples_symmetry_past_1000_bases():
    """Up to 1000 bases every pair is checked; past that, `samples` pairs."""
    bases, _ = generate_instance(1001, 0, seed=4)
    report = validate_metric(MetricSpace.great_circle(bases), samples=20, seed=5)
    assert report.ok
    assert (report.identity_checks, report.symmetry_checks, report.triangle_checks) == (1001, 20, 20)


def test_validate_flags_asymmetry():
    space = MetricSpace.from_matrix([Base("0"), Base("1")], [[0.0, 1.0], [5.0, 0.0]])
    report = validate_metric(space, samples=10, seed=0)
    kinds = {(v.kind, v.ids) for v in report.violations}
    assert ("symmetry", ("0", "1")) in kinds


def test_validate_flags_triangle_violation():
    matrix = [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
    space = MetricSpace.from_matrix([Base("0"), Base("1"), Base("2")], matrix)
    report = validate_metric(space, samples=200, seed=0)
    triangle = [v for v in report.violations if v.kind == "triangle"]
    assert triangle
    assert {frozenset(v.ids) for v in triangle} == {frozenset(("0", "2"))}
    assert "via 1" in triangle[0].detail


def test_validate_details_name_the_pair_they_measured():
    """Each detail writes the ids of its own report line, with the distances
    between exactly those bases."""
    matrix = [[0.5, 10.0, 4.0, 7.0], [12.0, 0.0, 6.0, 3.0],
              [1.0, 9.0, 0.0, 20.0], [8.0, 2.0, 30.0, 0.0]]
    space = MetricSpace.from_matrix([Base(i) for i in "abcd"], matrix)
    report = validate_metric(space, samples=1000, seed=0)
    d = space.distance
    assert {v.kind for v in report.violations} == {"identity", "symmetry", "triangle"}
    for v in report.violations:
        if v.kind == "identity":
            (x,) = v.ids
            assert v.detail == f"d({x},{x}) = {d(x, x)!r}"
        elif v.kind == "symmetry":
            x, y = v.ids
            assert v.detail == f"d({x},{y}) = {d(x, y)!r} but d({y},{x}) = {d(y, x)!r}"
        else:
            x, z = v.ids
            y = v.detail.rsplit(" via ", 1)[1]
            assert v.detail == (f"d({x},{z}) = {d(x, z)!r} > d({x},{y}) + d({y},{z}) = "
                                f"{d(x, y)!r} + {d(y, z)!r} via {y}")
    lines = report.summary().splitlines()
    assert "  symmetry c/d: d(c,d) = 20.0 but d(d,c) = 30.0" in lines
    assert "  triangle d/c: d(d,c) = 30.0 > d(d,b) + d(b,c) = 2.0 + 6.0 via b" in lines


def test_validate_allows_rounding_on_collinear_great_circle_bases():
    # on the equator d(a,c) exceeds d(a,b) + d(b,c) by an ulp for some triples
    space = MetricSpace.great_circle([Base(f"b{i:02d}", 0.0, 130 + 1.25 * i) for i in range(12)])
    report = validate_metric(space, samples=2000, seed=0)
    assert report.ok, report.summary()
    assert report.triangle_checks == 2000
    # the tolerance is relative and tiny: a 1e-4 excess is still a violation
    matrix = [[0.0, 1.0, 2.0002], [1.0, 0.0, 1.0], [2.0002, 1.0, 0.0]]
    space = MetricSpace.from_matrix([Base("0"), Base("1"), Base("2")], matrix)
    assert not validate_metric(space, samples=200, seed=0).ok


def test_validate_flags_nonzero_diagonal():
    space = MetricSpace.from_matrix([Base("0"), Base("1")], [[0.5, 1.0], [1.0, 0.0]])
    report = validate_metric(space, samples=10, seed=0)
    assert any(v.kind == "identity" and v.ids == ("0",) for v in report.violations)


def test_matrix_shape_and_sign_checks():
    with pytest.raises(ValueError, match="rows"):
        MetricSpace.from_matrix([Base("0"), Base("1")], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="invalid"):
        MetricSpace.from_matrix([Base("0"), Base("1")], [[0.0, -1.0], [1.0, 0.0]])


def test_a_matrix_row_of_the_wrong_length_is_named():
    with pytest.raises(ValueError, match=r"^matrix row 1 has 1 entries, expected 2$"):
        MetricSpace.from_matrix([Base("0"), Base("1")], [[0.0, 1.0], [1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_a_bad_value_in_mid_row_is_named(tmp_path, bad):
    row = [0.0, 2.0, bad, 3.0]
    with pytest.raises(ValueError, match=rf"^matrix row 1 contains invalid distance {bad!r}$"):
        MetricSpace.from_matrix([Base(i) for i in "abcd"], [[0.0] * 4, row, [0.0] * 4, [0.0] * 4])
    path = tmp_path / "matrix.csv"
    path.write_text("0,0,0,0\n" + ",".join(map(repr, row)) + "\n0,0,0,0\n0,0,0,0\n")
    with pytest.raises(ValueError, match=rf"matrix.csv row 2: bad distance '{bad!r}'$"):
        load_matrix_csv(path)


@pytest.mark.parametrize("bad", ["3", None, 10**400], ids=["str", "none", "huge-int"])
def test_a_value_that_cannot_be_tested_is_an_invalid_distance(bad):
    with pytest.raises(ValueError,
                       match=rf"^matrix row 0 contains invalid distance {re.escape(repr(bad))}$"):
        MetricSpace.from_matrix([Base("a"), Base("b")], [[0.0, bad], [bad, 0.0]])


def test_rows_whose_sum_overflows_and_negative_zero_are_accepted(tmp_path):
    matrix = [[0.0, 1e308, 1e308], [1e308, -0.0, 1e308], [1e308, 1e308, 0.0]]
    space = MetricSpace.from_matrix([Base(i) for i in "abc"], matrix)
    assert space.distance("a", "c") == 1e308 and space.distance("b", "b") == 0.0
    path = tmp_path / "matrix.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in matrix))
    loaded = load_matrix_csv(path)
    assert [[x.hex() for x in row] for row in loaded] == [[x.hex() for x in row] for row in matrix]


def test_from_matrix_rejects_a_missing_matrix():
    with pytest.raises(ValueError, match="requires a matrix"):
        MetricSpace.from_matrix([Base("0"), Base("1")], None)


def test_space_is_great_circle_exactly_when_no_matrix_is_given():
    bases = [Base("p", 0.0, 0.0), Base("q", 0.0, 1.0)]
    assert MetricSpace(bases).distance("p", "q") == _haversine_km(0.0, 0.0, 0.0, 1.0)
    assert MetricSpace(bases, [[0.0, 7.0], [7.0, 0.0]]).distance("p", "q") == 7.0
    assert not hasattr(MetricSpace(bases), "provider")


def test_bases_csv_without_rows_is_rejected(tmp_path):
    path = tmp_path / "bases.csv"
    path.write_text("base_id,lat,lon\n")
    with pytest.raises(ValueError, match=r"bases.csv: no bases"):
        load_bases_csv(path)


def test_bases_csv_errors_name_the_file_line_past_blank_lines(tmp_path):
    path = tmp_path / "bases.csv"
    path.write_text("base_id,lat,lon\na,35,135\n\nb,36,135\n\nc,95,135\n")
    with pytest.raises(ValueError, match=r"bases.csv row 6: lat 95.0 outside"):
        load_bases_csv(path)


def test_bases_csv_roundtrip(tmp_path):
    p = tmp_path / "bases.csv"
    p.write_text("base_id,lat,lon\nn1,35.0,139.5\nn2,34.2,135.1\n")
    bases = load_bases_csv(p)
    assert [b.id for b in bases] == ["n1", "n2"]
    assert bases[0].lat == 35.0 and bases[1].lon == 135.1


def test_bases_csv_matrix_mode(tmp_path):
    (tmp_path / "bases.csv").write_text("base_id\nn1\nn2\n")
    (tmp_path / "matrix.csv").write_text("0,3\n3,0\n")
    bases = load_bases_csv(tmp_path / "bases.csv")
    matrix = load_matrix_csv(tmp_path / "matrix.csv")
    space = MetricSpace.from_matrix(bases, matrix)
    assert space.distance("n1", "n2") == 3.0


def test_bom_prefixed_bases_and_matrix_files_load_as_the_plain_ones(tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    texts = {"bases.csv": "base_id,lat,lon\nn1,35.0,139.5\nn2,34.2,135.1\n",
             "ids.csv": "base_id\nn1\nn2\n", "matrix.csv": "0,3\n3,0\n"}
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text.encode())
        (tmp_path / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + text.encode())
    for name in ("bases.csv", "ids.csv"):
        assert load_bases_csv(tmp_path / f"bom-{name}") == load_bases_csv(tmp_path / name)
    assert load_matrix_csv(tmp_path / "bom-matrix.csv") == load_matrix_csv(tmp_path / "matrix.csv")


def test_a_bases_file_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "sj.csv"
    path.write_bytes("base_id,lat,lon\n東京,35.68,139.76\n".encode("shift_jis"))
    with pytest.raises(ValueError, match=r"sj.csv: not UTF-8 text$"):
        load_bases_csv(path)


def test_matrix_csv_names_the_bad_row(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("0,3\n3,zz\n")
    with pytest.raises(ValueError, match=r"matrix.csv row 2: bad distance 'zz'"):
        load_matrix_csv(path)


@pytest.mark.parametrize("text,message", [
    ("0,1\n1,0,2\n", r"matrix.csv row 2 has 3 entries, expected 2"),
    ("0,1\n\n1,0,2\n", r"matrix.csv row 3 has 3 entries, expected 2"),
    ("0,3\n-3,0\n", r"matrix.csv row 2: bad distance '-3'"),
    ("0,nan\n3,0\n", r"matrix.csv row 1: bad distance 'nan'"),
    ("0,3\n\ninf,0\n", r"matrix.csv row 3: bad distance 'inf'"),
])
def test_matrix_csv_names_the_file_line_of_shape_and_value_errors(tmp_path, text, message):
    path = tmp_path / "matrix.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_matrix_csv(path)
