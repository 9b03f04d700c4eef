"""Exact cost semantics: cost-of-response, play cost on lassos, strategy cost.

A play is represented as a lasso prefix·cycle^ω.  Every cost value
realized in a finite game is witnessed by a lasso of the relevant
product, so exact evaluation on lassos suffices; arbitrary infinite
plays are not represented.

Strategy costs come from one verifier for parity and Streett games,
which never calls the solver and builds the strategy's one-player arena
once (``_StrategyArena``).  A Player 0 strategy's cost is the most cost
of a response path inside the SCCs of that arena, found in one pass.  A
spoiler's is the least bound at which Player 0 finds a good lasso (SCC
checks) in the arena tracked at that bound by ``reduction._LevelProduct``,
the one search of tracked products for decisions and verification; on
a cost-parity game the search first tries just below the cost of a
cheap lasso of the untracked arena.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .core import (DEFAULT_PRODUCT_BUDGET, BudgetExceededError, CostGame, StrategySpec,
                   _exit_rows, _least_bound, _pass_through, make_game, require_valid,
                   validate_strategy)
from .reduction import Tracker, _LevelProduct

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
    return _cost_of_response(game, lasso, j, _shared_cost)


def _shared_cost(cost: int, c: int) -> int:
    return cost  # every pair of a parity game reads the edge's one cost


def _cost_of_response(game, lasso: Lasso, j: int, pair_cost) -> CostValue:
    """Max over the pairs c opened at position j (``request_mask`` less
    ``answer_mask``) of the summed ``pair_cost(edge cost, c)`` up to the
    next vertex answering c, ∞ if none does; ``game`` is a CostGame or a
    CostStreettGame.  An answer, if any, occurs within one further full
    cycle unrolling."""
    validate_lasso(game, lasso)
    if not 0 <= j < len(lasso):
        raise ValueError(f"position {j} outside canonical range [0, {len(lasso)})")
    amask, costs = game.answer_mask, game.edge_cost
    v = lasso.vertex_at(j)
    opened = game.request_mask[v] & ~amask[v]
    worst: CostValue = 0
    for c in range(game.d):
        if not opened >> c & 1:
            continue
        total = 0
        for k in range(j, j + len(lasso) + len(lasso.cycle)):
            u, w = lasso.vertex_at(k), lasso.vertex_at(k + 1)
            total += pair_cost(costs[(u, w)], c)
            if amask[w] >> c & 1:
                break
        else:
            return INF
        worst = max(worst, total)
    return worst


def play_cost(game: CostGame, lasso: Lasso) -> CostValue:
    """limsup of Cor over positions = max of Cor over one cycle period."""
    return _limsup(game, lasso, _shared_cost)


def _limsup(game, lasso: Lasso, pair_cost) -> CostValue:
    """limsup of ``_cost_of_response`` over positions = its max over one
    cycle period: prefix positions occur once, and each cycle position
    recurs with the same cost-of-response forever."""
    validate_lasso(game, lasso)
    p = len(lasso.prefix)
    return max(_cost_of_response(game, lasso, p + i, pair_cost)
               for i in range(len(lasso.cycle)))


# --- strategy cost ----------------------------------------------------------

class _StrategyArena:
    """``game`` (a CostGame or a CostStreettGame) restricted by ``strat``:
    a vertex per reachable (vertex, memory) pair ``states[i]``, numbered
    breadth-first, at arena vertex ``verts[i]``, with the arena's moves in
    move order, the owner's cut to ``next_move``; ``rows[i]`` holds the
    successor ids.  It carries what ``_LevelProduct`` and the trackers
    read of an arena, by id: ``initial``, ``successors``, ``exits`` (its
    walked rows, computed once for every probe), ``n``, ``d``,
    ``request_mask`` and ``answer_mask``.  Reaching
    ``DEFAULT_PRODUCT_BUDGET`` vertices raises ``BudgetExceededError``."""

    initial = 0

    def __init__(self, game, strat: StrategySpec):
        succ, owner, key, cost = game.successors, game.owner, game.update_key, game.edge_cost
        start = (game.initial, strat.initial)
        index = {start: 0}
        states = [start]
        successors: list[tuple] = []
        for v, m in states:  # grows while it is walked
            moves = succ[v]
            if owner[v] == strat.player:
                t = strat.next_move[(v, m)]
                moves = ((t, cost[(v, t)]),)
            row = []
            for t, w in moves:
                state = (t, strat.update[(m, key[(v, t)])])
                j = index.get(state)
                if j is None:
                    j = len(states)
                    if j >= DEFAULT_PRODUCT_BUDGET:
                        raise BudgetExceededError(
                            f"strategy product exceeds budget {DEFAULT_PRODUCT_BUDGET} states")
                    index[state] = j
                    states.append(state)
                row.append((j, w))
            successors.append(tuple(row))
        self.states = states
        self.verts = verts = [v for v, _ in states]
        self.successors = successors
        self.rows = [[j for j, _ in row] for row in successors]
        self.n, self.d = len(states), game.d
        request, answer = game.request_mask, game.answer_mask
        self.request_mask = {i: request[v] for i, v in enumerate(verts)}
        self.answer_mask = {i: answer[v] for i, v in enumerate(verts)}

    @cached_property
    def exits(self) -> dict[int, tuple]:
        rows = dict(enumerate(self.successors))
        return _exit_rows(rows, _pass_through(rows, self.request_mask, self.answer_mask))


def _require_well_formed(game, strat: StrategySpec) -> None:
    report = validate_strategy(game, strat)
    if report:
        raise ValueError("ill-formed strategy: " + "; ".join(report))


def strategy_product(game: CostGame, strat: StrategySpec) -> tuple[CostGame, dict]:
    """Restrict the game by a finite-state strategy.

    Returns the reachable product arena in which the strategy owner's
    choices are fixed (their product vertices keep a single successor)
    and the opponent keeps all moves, plus the product-id → (vertex,
    state) map.  The product is itself a valid CostGame.
    """
    _require_well_formed(game, strat)
    arena = _StrategyArena(game, strat)
    owner, color = game.owner, game.color
    vertices = [(i, owner[v], color[v]) for i, v in enumerate(arena.verts)]
    edges = [(i, j, w) for i, row in enumerate(arena.successors) for j, w in row]
    product = make_game(vertices, edges, 0, game.encoding)
    return product, dict(enumerate(arena.states))


# --- strategy cost: response paths and lasso analysis on one-player products --
#
# Both game classes share this verifier: a CostGame's odd colors act as
# Streett pairs (``CostGame.request_mask``/``answer_mask``), and the caller
# passes the request tracker of its class (``Tracker`` or
# ``streett.StreettTracker``).

def _sccs(n: int, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative: the strongly connected components,
    each emitted after every component it has an edge into."""
    indexv = [0] * n  # depth-first number + 1; 0 while unvisited
    low = [0] * n  # n + 1 once the vertex's component is emitted
    done = n + 1
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if indexv[root]:
            continue
        counter += 1
        indexv[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(rows[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:  # resumes where the last visit of v stopped
                if not indexv[w]:
                    counter += 1
                    indexv[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(rows[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                lv = low[v]
                if lv == indexv[v]:
                    k = len(stack) - 1
                    while stack[k] != v:
                        k -= 1
                    comp = stack[k:]
                    del stack[k:]
                    comp.reverse()
                    for w in comp:
                        low[w] = done
                    out.append(comp)
                elif low[work[-1][0]] > lv:  # v is no root, so its parent is on work
                    low[work[-1][0]] = lv
    return out


def _cyclic_sccs(n: int, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The SCCs of ``rows`` that contain a cycle."""
    return [c for c in _sccs(n, rows) if len(c) > 1 or c[0] in rows[c[0]]]


def _subgraph(rows: Sequence[Sequence[int]], keep: list[int]) -> list[list[int]]:
    """``rows`` restricted to the ids in ``keep``, renumbered by position."""
    pos = {i: k for k, i in enumerate(keep)}
    return [[pos[j] for j in rows[i] if j in pos] for i in keep]


def _good_components(game, verts, rows, ids=None):
    """The good components of ``rows``: by nested SCC decomposition, the
    cyclic components on which every requested pair is also answered,
    each yielded as a list of row ids (``ids[k]`` for row k, if given);
    row k sits at arena vertex verts[k].  A component that requests a
    pair it never answers is decomposed again without its vertices
    that request such a pair."""
    request, answer = game.request_mask, game.answer_mask
    for comp in _cyclic_sccs(len(rows), rows):
        qhit = phit = 0
        for k in comp:
            qhit |= request[verts[k]]
            phit |= answer[verts[k]]
        viol = qhit & ~phit
        if not viol:
            yield comp if ids is None else [ids[k] for k in comp]
            continue
        keep = [k for k in comp if not request[verts[k]] & viol]
        if keep:
            yield from _good_components(game, [verts[k] for k in keep], _subgraph(rows, keep),
                                        keep if ids is None else [ids[k] for k in keep])


def _good_cycle(game, verts, rows) -> bool:
    """A cycle of ``rows`` on which every requested pair is also answered."""
    return next(_good_components(game, verts, rows), None) is not None


def _cheapest_lasso(game: CostGame, arena: _StrategyArena) -> CostValue:
    """The cost of a cheap lasso of a cost-parity game's strategy arena,
    ∞ if it has no good cycle.  In each good component (see
    ``_good_components``) the top color is even, so a cycle through a
    vertex s of that color answers every request on it.  One Dijkstra
    from the component's least such s gives the least-weight cycle
    through s, and the lasso that reaches s and repeats that cycle costs
    its limsup (``_cycle_cost``).  The least over the components is the
    cost of a real play, so it bounds the arena's cost from above; it is
    not always the least."""
    color, verts, succ = game.color, arena.verts, arena.successors
    best: CostValue = INF
    for comp in _good_components(arena, range(arena.n), arena.rows):
        top = max(color[verts[k]] for k in comp)
        s = min(k for k in comp if color[verts[k]] == top)
        inside = set(comp)
        dist, parent, heap = {s: 0}, {}, [(0, s)]
        while heap:
            du, u = heapq.heappop(heap)
            if du == dist[u]:
                for j, w in succ[u]:
                    if j in inside and j != s and du + w < dist.get(j, INF):
                        dist[j], parent[j] = du + w, u
                        heapq.heappush(heap, (du + w, j))
        _, last = min((dist[u] + w, u) for u in dist for j, w in succ[u] if j == s)
        cycle = [last]
        while cycle[-1] != s:
            cycle.append(parent[cycle[-1]])
        best = min(best, _cycle_cost(arena, cycle[::-1]))
    return best


def _cycle_cost(arena: _StrategyArena, cycle: list[int]) -> int:
    """limsup cost of repeating ``cycle`` (arena ids, each with an edge
    to the next and the last to the first) in a cost-parity arena: the
    most cost from a request on it to its first answer.  The cycle
    passes a vertex that answers every request on it."""
    request, answer, n = arena.request_mask, arena.answer_mask, len(cycle)
    weight = [dict(arena.successors[u])[cycle[(k + 1) % n]] for k, u in enumerate(cycle)]
    worst = 0
    for k, v in enumerate(cycle):
        opened, total, j = request[v] & ~answer[v], 0, k
        while opened:
            total += weight[j % n]
            j += 1
            opened &= ~answer[cycle[j % n]]
        worst = max(worst, total)
    return worst


def _response_cost(game, verts, rows) -> CostValue:
    """Cst of a Player 0 strategy σ off its untracked σ-product ``rows``
    (row k at arena vertex verts[k]): the most pair-c cost of a response
    path, over the cyclic SCCs C and the pairs c.  Such a path starts at
    a c-request of C (``request_mask`` less ``answer_mask``), stays on
    vertices of C that do not answer c, and ends with its first edge
    into a c-answering vertex of C.  This is exact: a consistent play
    ends up inside one cyclic SCC C, its prefix costs nothing under the
    limsup, and every response path inside C can be repeated forever,
    since C is strongly connected and σ's opponent moves alone.  The
    cost is ∞ when a request reaches a cyclic component of C's
    non-answering vertices that holds a request (never answered) or has
    an edge of positive pair-c cost (taken as often as wanted).
    best[i], the most cost from i to an answer, is filled in the order
    ``_sccs`` emits the components, so successors come first.
    """
    request, answer, cost = game.request_mask, game.answer_mask, game.edge_cost
    pair_cost = _shared_cost if isinstance(game, CostGame) else operator.getitem
    worst: CostValue = 0
    for comp in _cyclic_sccs(len(rows), rows):
        inside = set(comp)
        opened = 0
        for k in comp:
            opened |= request[verts[k]] & ~answer[verts[k]]
        for c in range(game.d):
            if not opened >> c & 1:
                continue
            keep = [k for k in comp if not answer[verts[k]] >> c & 1]
            pos = {k: i for i, k in enumerate(keep)}
            best: list = [None] * len(keep)  # None until the component is walked
            for part in _sccs(len(keep), _subgraph(rows, keep)):
                value, cyclic = 0, False
                for i in part:
                    v = verts[keep[i]]
                    for j in rows[keep[i]]:
                        step = pair_cost(cost[(v, verts[j])], c)
                        y = pos.get(j)
                        if y is None:
                            if j in inside:  # an answer inside C
                                value = max(value, step)
                        elif best[y] is None:  # an edge inside the component
                            cyclic = True
                            if step:
                                value = INF
                        else:
                            value = max(value, step + best[y])
                for i in part:
                    best[i] = value
                if any(request[verts[keep[i]]] >> c & 1 for i in part):
                    if cyclic or value == INF:
                        return INF
                    worst = max(worst, value)
    return worst


def _verified_cost(game, strat: StrategySpec, player: int, require,
                   tracker_class) -> CostValue:
    """Cst of ``strat`` in ``game`` (a CostGame or a CostStreettGame):
    the one checked body of the four verifiers.  ``require`` validates
    the game and ``tracker_class`` is the request tracker of its class.
    The checks run in this order: the game is valid, the strategy is
    well-formed (so a player outside {0, 1} is reported as ill-formed),
    and it is a strategy of ``player``.

    A Player 0 strategy σ costs the sup over consistent plays, the most
    cost of a response path in the untracked σ-arena (``_response_cost``).
    A Player 1 strategy τ costs the inf: the least b at which Player 0
    reaches a cycle of the τ-arena tracked at b (a ``_LevelProduct``) that
    takes no overflow edge and answers every pair it requests, a good
    cycle of the product's ``pred`` (its other moves reversed, with the
    same cycles); overflows in the prefix are free.  It is ∞ if the
    untracked τ-arena has no good cycle, since every good tracked cycle
    projects to one.  Bounds are searched upward from 0
    (``core._least_bound``); a τ that fits none up to the pumping cap
    |arena|·W costs ∞.  On a cost-parity game the search starts from a
    guess: the cost U of a cheap lasso of the untracked τ-arena
    (``_cheapest_lasso``), a play consistent with τ, so τ costs at most
    U and needs no probe at U.  The probe at U − 1 comes first, and
    when it fails, as it mostly does, τ costs U after one tracked
    product.
    """
    require(game)
    _require_well_formed(game, strat)
    if strat.player != player:
        raise ValueError(f"expected a Player {player} strategy, got Player {strat.player}'s")
    arena = _StrategyArena(game, strat)
    if strat.player == 0:
        return _response_cost(game, arena.verts, arena.rows)
    if isinstance(game, CostGame):
        guess = _cheapest_lasso(game, arena)
    else:
        guess = None if _good_cycle(game, arena.verts, arena.rows) else INF
    if guess == INF:
        return INF

    def fits(b):
        level = _LevelProduct(arena, tracker_class(arena, b), DEFAULT_PRODUCT_BUDGET,
                              "strategy product")
        return _good_cycle(arena, [i for i, _ in level.nodes], level.pred), None
    value, _ = _least_bound(fits, 0, arena.n * max(1, game.max_cost), guess)
    return INF if value is None else value


def strategy_cost(game: CostGame, strat: StrategySpec) -> CostValue:
    """Cst(σ) = sup over plays consistent with σ of the play cost, by
    lasso analysis on the σ-restricted one-player product."""
    return _verified_cost(game, strat, 0, require_valid, Tracker)


def spoiler_cost(game: CostGame, strat: StrategySpec) -> CostValue:
    """Cst(τ) = inf over plays consistent with the Player 1 strategy τ:
    the least b for which Player 0 finds a good lasso in the τ-restricted
    product."""
    return _verified_cost(game, strat, 1, require_valid, Tracker)
