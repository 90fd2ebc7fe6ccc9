"""Fair three-way split of the mileage saved by a triangular transport.

The savings game: each lane alone runs a round trip with an empty backhaul,
any two lanes may run a two-lane cycle, and the grand coalition runs the
triangle. A coalition's value is the mileage its members save against going
alone, floored at zero so no coalition is forced to lose. Shares are Shapley
values. A lone lane saves nothing, so each lane's share is a closed form of
the three pair savings and the grand saving.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lanes import Lane, LaneIndex
from .metric import MetricSpace
from .search import Triangle

_PLAYERS = (0, 1, 2)


def standalone_cost(t: Lane) -> float:
    """Solo operation: out and back empty."""
    return 2.0 * t.dist


def pair_cost(ti: Lane, tj: Lane, space: MetricSpace) -> float:
    """Mileage of the two-lane cycle. Symmetric in its arguments."""
    if ti.id == tj.id:
        raise ValueError(f"pair needs two distinct lanes, got {ti.id!r} twice")
    if ti.id > tj.id:  # fixed evaluation order so both call orders give one float
        ti, tj = tj, ti
    return ti.dist + space.distance(ti.end, tj.start) + tj.dist + space.distance(tj.end, ti.start)


@dataclass(frozen=True)
class CoalitionGame:
    """Savings characteristic function for the three lanes of a triangle."""

    players: tuple[str, str, str]
    standalone: tuple[float, float, float]
    pair_costs: dict  # frozenset of player positions -> cycle mileage
    grand_cost: float

    def value(self, coalition: frozenset) -> float:
        if len(coalition) <= 1:
            return 0.0
        solo = sum(self.standalone[i] for i in coalition)
        if len(coalition) == 2:
            return max(0.0, solo - self.pair_costs[coalition])
        return max(0.0, solo - self.grand_cost)


@dataclass(frozen=True)
class ShapleySplit:
    lane_ids: tuple[str, str, str]
    shares: tuple[float, float, float]
    total_savings: float


def coalition_game(tr: Triangle, index: LaneIndex, space: MetricSpace) -> CoalitionGame:
    lanes = tuple(index.by_id[lid] for lid in (tr.t1, tr.t2, tr.t3))
    return CoalitionGame(
        players=(tr.t1, tr.t2, tr.t3),
        standalone=tuple(standalone_cost(l) for l in lanes),
        pair_costs={
            frozenset((i, j)): pair_cost(lanes[i], lanes[j], space)
            for i, j in ((0, 1), (0, 2), (1, 2))
        },
        grand_cost=tr.total,
    )


def shapley_split(tr: Triangle, index: LaneIndex, space: MetricSpace) -> ShapleySplit:
    """Shapley value of each lane i, with j and k the other two:
    (v(N) - v({j,k})) / 3 + (v({i,j}) + v({i,k})) / 6."""
    game = coalition_game(tr, index, space)
    grand = frozenset(_PLAYERS)
    whole = game.value(grand)
    without = [game.value(grand - {p}) for p in _PLAYERS]  # the pair lacking p
    shares = tuple((whole - without[i]) / 3.0 + (without[j] + without[k]) / 6.0
                   for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
    return ShapleySplit(game.players, shares, whole)
