"""Exact cost semantics: cost-of-response, play cost on lassos, strategy cost.

A play is represented as a lasso prefix·cycle^ω.  Every cost value
realized in a finite game is witnessed by a lasso of the relevant
product, so exact evaluation on lassos suffices; arbitrary infinite
plays are not represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (CostGame, StrategySpec, _least_bound, make_game, require_valid,
                   validate_strategy)

INF = math.inf

CostValue = float  # natural number or math.inf


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic play prefix·cycle^ω, as vertex-id sequences."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.prefix) + len(self.cycle)

    def vertex_at(self, j: int) -> int:
        p, c = len(self.prefix), len(self.cycle)
        return self.prefix[j] if j < p else self.cycle[(j - p) % c]


def validate_lasso(game: CostGame, lasso: Lasso) -> None:
    """The lasso starts at the initial vertex and follows edges of
    ``game`` (a CostGame or a CostStreettGame)."""
    if not lasso.cycle:
        raise ValueError("lasso cycle must be non-empty")
    seq = list(lasso.prefix) + list(lasso.cycle)
    if seq[0] != game.initial:
        raise ValueError(f"lasso must start at the initial vertex {game.initial}")
    costs = game.edge_cost
    closed = seq + [lasso.cycle[0]]
    for a, b in zip(closed, closed[1:]):
        if (a, b) not in costs:
            raise ValueError(f"lasso uses missing edge {a}->{b}")


def answers(request_color: int, candidate: int) -> bool:
    """True iff candidate ∈ Ans(request_color) = {c' even, c' ≥ request_color}."""
    return candidate % 2 == 0 and candidate >= request_color


def cor(game: CostGame, lasso: Lasso, j: int) -> CostValue:
    """Cost of the infix from position j to its first answer; ∞ if never answered.

    j must lie in the canonical range [0, |prefix|+|cycle|); later
    positions repeat one of these by periodicity.
    """
    validate_lasso(game, lasso)
    if not 0 <= j < len(lasso):
        raise ValueError(f"position {j} outside canonical range [0, {len(lasso)})")
    color = game.color
    request = color[lasso.vertex_at(j)]
    if answers(request, color[lasso.vertex_at(j)]):
        return 0
    costs = game.edge_cost
    return _response_cost(lasso, j, lambda u, w: costs[(u, w)],
                          lambda w: answers(request, color[w]))


def _response_cost(lasso: Lasso, j: int, cost, answered) -> CostValue:
    """Summed ``cost(u, w)`` from position j to the first later vertex
    w with ``answered(w)``; ∞ if there is none.  An answer, if any,
    occurs within one further full cycle unrolling."""
    total = 0
    for k in range(j, j + len(lasso) + len(lasso.cycle)):
        u, w = lasso.vertex_at(k), lasso.vertex_at(k + 1)
        total += cost(u, w)
        if answered(w):
            return total
    return INF


def play_cost(game: CostGame, lasso: Lasso) -> CostValue:
    """limsup of Cor over positions = max of Cor over one cycle period.

    Prefix positions occur once and are ignored by the limsup; each cycle
    position recurs with the same cost-of-response forever.
    """
    validate_lasso(game, lasso)
    p = len(lasso.prefix)
    return max(cor(game, lasso, p + i) for i in range(len(lasso.cycle)))


# --- strategy cost ----------------------------------------------------------

def _product_rows(game: CostGame, strat: StrategySpec
                  ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Reachable (vertex, state) pairs of ``game`` (a CostGame or a
    CostStreettGame) under ``strat``, breadth-first from the initial
    pair, with the owner's moves fixed; row i lists the successor ids
    of pair i in move order.  Raises ValueError on an ill-formed
    strategy.
    """
    report = validate_strategy(game, strat)
    if report:
        raise ValueError("ill-formed strategy: " + "; ".join(report))
    succ = game.successors
    owner = game.owner
    key = game.update_key
    index: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []

    def intern(v: int, m: int) -> int:
        pair = (v, m)
        if pair not in index:
            index[pair] = len(order)
            order.append(pair)
        return index[pair]

    intern(game.initial, strat.initial)
    rows: list[list[int]] = []
    head = 0
    while head < len(order):
        v, m = order[head]
        head += 1
        if owner[v] == strat.player:
            moves = [strat.next_move[(v, m)]]
        else:
            moves = [t for t, _ in succ[v]]
        rows.append([intern(t, strat.update[(m, key[(v, t)])]) for t in moves])
    return order, rows


def strategy_product(game: CostGame, strat: StrategySpec) -> tuple[CostGame, dict]:
    """Restrict the game by a finite-state strategy.

    Returns the reachable product arena in which the strategy owner's
    choices are fixed (their product vertices keep a single successor)
    and the opponent keeps all moves, plus the product-id → (vertex,
    state) map.  The product is itself a valid CostGame.
    """
    order, rows = _product_rows(game, strat)
    owner, color, cost = game.owner, game.color, game.edge_cost
    vertices = [(i, owner[v], color[v]) for i, (v, m) in enumerate(order)]
    edges = [(i, j, cost[(order[i][0], order[j][0])])
             for i, row in enumerate(rows) for j in row]
    product = make_game(vertices, edges, 0, game.encoding)
    return product, dict(enumerate(order))


def _least_achievable_bound(product: CostGame, cap: int) -> CostValue:
    """Least b ≤ cap with decide_bounded_cost(product, b) achievable; ∞ if none."""
    from . import solver

    def achieved(b):
        return solver.decide_bounded_cost(product, b).achievable or None

    if achieved(cap) is None:
        return INF
    return _least_bound(achieved, 0, cap)[0]


def strategy_cost(game: CostGame, strat: StrategySpec) -> CostValue:
    """Cst(σ) = sup over plays consistent with σ of the play cost.

    Computed as the least b for which the bounded-cost decision holds on
    the one-player game fixing Player 0's moves by σ; the search is
    capped at n·|M|·W by the pumping bound on the product.
    """
    require_valid(game)
    if strat.player != 0:
        raise ValueError("strategy_cost expects a Player 0 strategy")
    product, _ = strategy_product(game, strat)
    cap = product.n * max(1, product.max_cost)
    return _least_achievable_bound(product, cap)


def spoiler_cost(game: CostGame, strat: StrategySpec) -> CostValue:
    """Cst(τ) = inf over plays consistent with the Player 1 strategy τ.

    Dual of strategy_cost: in the τ-restricted product Player 0 is the
    sole mover, so the inf is the least b she can realize there.
    """
    require_valid(game)
    if strat.player != 1:
        raise ValueError("spoiler_cost expects a Player 1 strategy")
    product, _ = strategy_product(game, strat)
    cap = product.n * max(1, product.max_cost)
    return _least_achievable_bound(product, cap)
