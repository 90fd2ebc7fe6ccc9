"""Pinned outputs of the bounded searches: the exact triangle list in emission
order, ell_star, the per-level visit counts and the top-k threshold trace.

The other search tests compare result sets with the brute-force oracle; these
also fix the order, the counters and the top-k tie choices, so a restructured
search loop must reproduce them exactly. On the integer line instance every
rate is a ratio of small integers, so `5 / 6` is the very float the search
computes.

The top-k tests keep the [False]/[True] ids of the two tie modes top-k once
had. Both are now the one rule, ties at the kth rate ranked by (t2, t3), and
every id must still give its pinned result.
"""

import pytest

from trimatch import (Query, build_index, enumerate_pruned, enumerate_topk,
                      make_lane)

from conftest import gc_instance, line_space

LINE_POINTS = {"A": 3.0, "B": 9.0, "C": 12.0, "D": 11.0, "E": 7.0, "F": 2.0}
LINE_LANES = [("L00", "E", "A"), ("L01", "C", "A"), ("L02", "D", "A"), ("L03", "D", "B"),
              ("L04", "B", "C"), ("L05", "A", "E"), ("L06", "E", "D"), ("L07", "A", "E"),
              ("L08", "E", "B"), ("L09", "E", "A"), ("L10", "C", "E"), ("L11", "E", "A")]


@pytest.fixture(scope="module")
def tied_line():
    """L05 and L07 are the same lane A->E, so every rate they reach is tied;
    top-3 for L01 at ell 0.75 cuts through the two 8/9 triangles."""
    space = line_space(LINE_POINTS)
    index = build_index([make_lane(i, a, b, space) for i, a, b in LINE_LANES], space)
    return space, index


@pytest.fixture(scope="module")
def great_circle():
    return gc_instance(40, 140, 42)


def summary(rs):
    return ([(t.t2, t.t3, t.ovr, t.total) for t in rs.triangles],
            rs.ell_star, rs.stats.level_visits, rs.stats.ell_trace)


def test_pruned_pinned_on_tied_line(tied_line):
    space, index = tied_line
    rs = enumerate_pruned(index, space, Query("L01", 0.75, 36.0))
    assert summary(rs) == (
        [("L05", "L08", 5 / 6, 18.0), ("L05", "L06", 17 / 18, 18.0),
         ("L05", "L04", 8 / 9, 18.0), ("L07", "L08", 5 / 6, 18.0),
         ("L07", "L06", 17 / 18, 18.0), ("L07", "L04", 8 / 9, 18.0),
         ("L08", "L04", 7 / 9, 18.0)],
        0.75, (5, 11, 30, 51), ())


@pytest.mark.parametrize("mode,third", [(True, "L05")])
def test_topk_pinned_on_tied_line(tied_line, mode, third):
    """Of the tied 8/9 candidates the smaller id holds the last slot, though
    L07 is found after L05."""
    space, index = tied_line
    rs = enumerate_topk(index, space, Query("L01", 0.75, 36.0, k=3))
    assert summary(rs) == (
        [("L05", "L06", 17 / 18, 18.0), ("L07", "L06", 17 / 18, 18.0),
         (third, "L04", 8 / 9, 18.0)],
        8 / 9, (2, 7, 14, 13), (5 / 6, 8 / 9))


@pytest.mark.parametrize("mode", [False, True])
def test_topk_above_the_result_size_returns_the_ranked_full_set(tied_line, mode):
    """With k past the 7 results the heap never fills: the threshold never
    rises, so topk scans what pruned scans and returns all of it ranked by
    (rate desc, t2, t3)."""
    space, index = tied_line
    rs = enumerate_topk(index, space, Query("L01", 0.75, 36.0, k=10))
    assert summary(rs) == (
        [("L05", "L06", 17 / 18, 18.0), ("L07", "L06", 17 / 18, 18.0),
         ("L05", "L04", 8 / 9, 18.0), ("L07", "L04", 8 / 9, 18.0),
         ("L05", "L08", 5 / 6, 18.0), ("L07", "L08", 5 / 6, 18.0),
         ("L08", "L04", 7 / 9, 18.0)],
        0.75, (5, 11, 30, 51), ())


def test_pruned_pinned_on_great_circle(great_circle):
    space, index = great_circle
    u = 4.0 * index.by_id["l0092"].dist
    rs = enumerate_pruned(index, space, Query("l0092", 0.8, u))
    assert [(t.t2, t.t3) for t in rs.triangles] == [
        ("l0071", "l0031"), ("l0071", "l0030"), ("l0042", "l0120"), ("l0042", "l0031"),
        ("l0055", "l0031"), ("l0030", "l0080"), ("l0075", "l0096"), ("l0075", "l0093"),
        ("l0051", "l0031"), ("l0111", "l0031")]
    assert [t.ovr for t in rs.triangles] == pytest.approx([
        0.965041791954672, 0.8107233032864163, 0.8088933588601762, 0.8783153723928238,
        0.8153937595397748, 0.8594386743191169, 0.9391580332799669, 0.8392228731024909,
        0.9335909799391834, 0.8638212354434017], rel=1e-12)
    assert rs.ell_star == 0.8
    assert rs.stats.level_visits == (12, 35, 120, 52)
    assert rs.stats.ell_trace == ()


@pytest.mark.parametrize("mode", [False, True])
def test_topk_pinned_on_great_circle(great_circle, mode):
    space, index = great_circle
    u = 4.0 * index.by_id["l0092"].dist
    rs = enumerate_topk(index, space, Query("l0092", 0.8, u, k=5))
    assert [(t.t2, t.t3) for t in rs.triangles] == [
        ("l0071", "l0031"), ("l0075", "l0096"), ("l0051", "l0031"), ("l0042", "l0031"),
        ("l0111", "l0031")]
    assert [t.ovr for t in rs.triangles] == pytest.approx([
        0.965041791954672, 0.9391580332799669, 0.9335909799391834, 0.8783153723928238,
        0.8638212354434017], rel=1e-12)
    assert rs.ell_star == pytest.approx(0.8638212354434017, rel=1e-12)
    assert rs.stats.level_visits == (7, 22, 85, 37)
    assert rs.stats.ell_trace == pytest.approx((
        0.8088933588601762, 0.8107233032864163, 0.8153937595397748, 0.8392228731024909,
        0.8594386743191169, 0.8638212354434017), rel=1e-12)
