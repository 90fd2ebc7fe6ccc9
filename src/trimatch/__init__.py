"""Triangular transport matching for full-truckload lanes."""

from .costshare import (CoalitionGame, ShapleySplit, coalition_game, pair_cost,
                        shapley_split, standalone_cost)
from .lanes import (Lane, LaneIndex, UnknownLaneError, build_index,
                    lanes_in_range, load_lanes_csv, make_lane, neighbors_within)
from .metric import (Base, MetricSpace, UnknownBaseError, ValidationReport,
                     load_bases_csv, load_matrix_csv, validate_metric)
from .search import (Query, ResultSet, SearchStats, Triangle, bound_d2,
                     bound_d3, bound_e1, bound_e2, enumerate_bruteforce,
                     enumerate_pruned, enumerate_topk, evaluate, is_feasible)

__all__ = [
    "Base", "MetricSpace", "UnknownBaseError", "ValidationReport",
    "load_bases_csv", "load_matrix_csv", "validate_metric",
    "Lane", "LaneIndex", "UnknownLaneError", "make_lane", "build_index",
    "neighbors_within", "lanes_in_range", "load_lanes_csv",
    "Query", "Triangle", "ResultSet", "SearchStats",
    "evaluate", "is_feasible",
    "bound_e1", "bound_d2", "bound_e2", "bound_d3",
    "enumerate_bruteforce", "enumerate_pruned", "enumerate_topk",
    "CoalitionGame", "ShapleySplit", "coalition_game",
    "standalone_cost", "pair_cost", "shapley_split",
]
