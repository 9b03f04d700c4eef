"""Streett games with costs: semantics, reduction, solving, verification.

A Streett pair (Q_c, P_c) opens a request at every Q_c-visit and
answers all standing c-requests at every P_c-visit; each pair carries
its own edge cost function.  Player 0 wins a play iff the limsup of the
per-position maximal pair cost is finite.

Bounded-cost existence reduces to a classical Streett game over the
arena extended with per-pair request tracking plus one extra pair that
fires once the overflow counter saturates.  Decisions solve that game
level by level over the overflow counter, on the layered engine shared
with parity games, whose level graph (``solver.BoundedCostResult``) is
the decision's result.  A decision builds only what it reads: the
nodes' pair masks once, shared by every level, and each level's
winners, with no strategy cells; certificates read the same level
games' classical solves with cells: playing optimally needs nothing
beyond winning each level.  The flat reduction
(``build_streett_reduction``), that level graph unrolled over the
counter, is kept as the tests' reference.  Classical Streett games are
solved directly by a Zielonka-tree recursion over the request/answer
membership patterns, whose attractors are the parity solver's: Player
1's condition is a disjunction, so his nodes are unary and his
synthesized strategies positional, while Player 0's nodes branch per
pair, giving her strategies of at most d! memory, matching the known
bounds.

The rest is shared with parity games: ``core`` derives the arena's
views and tabulates strategies (the classical solver's too, through
``StreettGame.update_key``); ``semantics`` evaluates lassos and
verifies strategies, given this module's tracker, whose step is
``reduction``'s; ``solver`` runs the layered decisions and the one
optimal-cost search.  This module adds the reductions and the solver.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .core import (DEFAULT_PRODUCT_BUDGET, CostGame, FormatError, StrategySpec,
                   Vertex, _Arena, _arena_report, _parse_vertex_line,
                   _read_header, _reset_spoiler, strategy_from_functions,
                   strategy_from_product)
from .reduction import _LevelProduct, _RequestTracker
from .semantics import Lasso, _cost_of_response, _limsup, _verified_cost
from .solver import (BoundedCostResult, OptimalResult, _attractor, _least_achievable,
                     _predecessors, _progress_moves)


@dataclass(frozen=True)
class StreettPair:
    requests: frozenset[int]  # Q_c
    answers: frozenset[int]   # P_c


@dataclass(frozen=True)
class StreettEdge:
    source: int
    target: int
    costs: tuple[int, ...]  # one cost per pair


@dataclass(frozen=True)
class CostStreettGame(_Arena):
    vertices: tuple[Vertex, ...]  # colors unused, conventionally 0
    edges: tuple[StreettEdge, ...]
    pairs: tuple[StreettPair, ...]
    initial: int

    @property
    def _triples(self) -> list[tuple[int, int, tuple[int, ...]]]:
        return [(e.source, e.target, tuple(e.costs)) for e in self.edges]

    @staticmethod
    def _key_cost(e: StreettEdge) -> int:
        return 0

    @property
    def d(self) -> int:
        return len(self.pairs)

    @cached_property
    def max_cost(self) -> int:
        return max((max(e.costs) for e in self.edges), default=0)

    @cached_property
    def request_mask(self) -> dict[int, int]:
        return _pair_masks([v.id for v in self.vertices], [p.requests for p in self.pairs])

    @cached_property
    def answer_mask(self) -> dict[int, int]:
        return _pair_masks([v.id for v in self.vertices], [p.answers for p in self.pairs])


def _pair_masks(ids, sides) -> dict[int, int]:
    """id → the bit set of the pairs c with the id in ``sides[c]``."""
    out = dict.fromkeys(ids, 0)
    for c, side in enumerate(sides):
        for v in side:
            out[v] |= 1 << c
    return out


@dataclass(frozen=True)
class StreettGame:
    """Classical Streett game (all costs implicitly zero), its d pairs
    given per vertex: bit c of ``qmask[v]`` (``pmask[v]``) is set iff v
    is in Q_c (P_c)."""

    owners: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    qmask: tuple[int, ...]
    pmask: tuple[int, ...]
    d: int
    initial: int

    @property
    def n(self) -> int:
        return len(self.owners)

    @cached_property
    def owner(self) -> dict[int, int]:
        return dict(enumerate(self.owners))

    @cached_property
    def update_key(self) -> dict[tuple[int, int], tuple[int, int, int]]:
        """(source, target) → (source, 0, target), as on CostStreettGame."""
        return {(u, t): (u, 0, t) for u in range(self.n) for t in self.succ[u]}

    @cached_property
    def pred(self) -> tuple[tuple[int, ...], ...]:
        return _predecessors(self.succ)

    @cached_property
    def patterns(self) -> tuple[list[int], list[int], list[int]]:
        """(pattern_of, pat_q, pat_p): the distinct (request, answer)
        mask pairs numbered in order of first appearance over the
        vertices, each vertex's number, and each number's two masks."""
        return _numbered_patterns(self.qmask, self.pmask)


def _numbered_patterns(qmask, pmask) -> tuple[list[int], list[int], list[int]]:
    """``StreettGame.patterns`` of the masks ``qmask`` and ``pmask``."""
    index: dict[tuple[int, int], int] = {}
    pattern_of = [index.setdefault(key, len(index)) for key in zip(qmask, pmask)]
    return pattern_of, [q for q, _ in index], [p for _, p in index]


def validate_streett_game(game: CostStreettGame) -> list[str]:
    """The arena rules (``core._arena_report``), then the pair count,
    the cost arity, negative costs and the pairs' vertices."""
    report, edges = _arena_report(game)
    if game.d < 1:
        report.append("game: needs at least one Streett pair")
    for e in edges:
        if len(e.costs) != game.d:
            report.append(f"edge {e.source}->{e.target}: expected {game.d} costs")
        if any(w < 0 for w in e.costs):
            report.append(f"edge {e.source}->{e.target}: negative cost")
    report.extend(f"pair {c}: unknown vertex {v}" for c, p in enumerate(game.pairs)
                  for v in p.requests | p.answers if v not in game.owner)
    return report


def require_valid_streett(game: CostStreettGame) -> None:
    game._require(validate_streett_game, "Streett game")


# --- cost semantics on lassos ------------------------------------------------

def stcor(game: CostStreettGame, lasso: Lasso, j: int) -> float:
    """max over pairs of the cost (under that pair's cost function) from
    position j to the first later answer of a request opened there; 0 if
    nothing is opened, ∞ if some opened request is never answered."""
    return _cost_of_response(game, lasso, j, operator.getitem)


def streett_play_cost(game: CostStreettGame, lasso: Lasso) -> float:
    """limsup of StCor over positions = max over one cycle period."""
    return _limsup(game, lasso, operator.getitem)


# --- per-pair request tracking ------------------------------------------------

class StreettTracker(_RequestTracker):
    """Request tracking with one counter per Streett pair.

    The state is (o, r) as in ``reduction.Tracker``, with r holding one
    entry per pair: ⊥, or the cost the oldest open request of that pair
    has incurred under the pair's own cost function, each in its field
    of the request word.  A target in P_c closes pair c, and one in Q_c
    (outside P_c) opens it.
    """


# --- reduction to a classical Streett game ------------------------------------

@dataclass(frozen=True)
class StreettReduction:
    game: CostStreettGame
    bound: int
    streett: StreettGame
    states: tuple[tuple[int, int, int], ...]  # (vertex, overflow, request word)
    index: Mapping[tuple[int, int, int], int]

    @property
    def size(self) -> int:
        return len(self.states)


def build_streett_reduction(game: CostStreettGame, bound: int,
                            budget: int = DEFAULT_PRODUCT_BUDGET) -> StreettReduction:
    """Reachable product with per-pair tracking; pairs are lifted and one
    extra pair (saturated states, ∅) dooms Player 0 past n overflows."""
    require_valid_streett(game)
    states, rows = _LevelProduct(game, StreettTracker(game, bound), budget,
                                 "streett reduction").unroll()
    owners = tuple(game.owner[v] for v, _, _ in states)
    request, answer, saturation = game.request_mask, game.answer_mask, 1 << game.d
    qmask = tuple(request[v] | saturation if o >= game.n else request[v] for v, o, _ in states)
    pmask = tuple(answer[v] for v, _, _ in states)
    sg = StreettGame(owners, rows, qmask, pmask, game.d + 1, 0)
    index = {state: i for i, state in enumerate(states)}
    return StreettReduction(game, bound, sg, states, index)


# --- classical Streett solving (Zielonka-tree recursion) -----------------------

# absorbing cell state for vertex-inconsistent update queries
DEAD_MEMORY = "<dead-memory>"


class _LeafCell:
    def __init__(self, moves: dict[int, int]):
        self.moves = moves

    def init(self, v):
        return 0

    def step(self, state, w):
        return 0

    def move(self, v, state):
        return self.moves.get(v)


class _RotateCell:
    """Round-robin over the node's children: attract toward colors
    outside the child label, rotate on hitting one, otherwise play the
    child subgame strategy inside its zone."""

    def __init__(self, children: list[dict]):
        self.children = children  # target_set, attr_moves, attr_region, zone, subcell, stay

    def _enter(self, idx, w):
        ch = self.children[idx]
        if ch["zone"] is not None and w in ch["zone"]:
            return (idx, ch["subcell"].init(w))
        return (idx, None)

    def init(self, v):
        return self._enter(0, v)

    def step(self, state, w):
        if state is DEAD_MEMORY:
            return DEAD_MEMORY
        idx, sub = state
        ch = self.children[idx]
        if w in ch["targets"]:
            return self._enter((idx + 1) % len(self.children), w)
        if ch["zone"] is not None and w in ch["zone"]:
            if sub is None:
                return (idx, ch["subcell"].init(w))
            return (idx, ch["subcell"].step(sub, w))
        if w in ch["attr_region"]:
            return (idx, None)
        return DEAD_MEMORY

    def move(self, v, state):
        if state is DEAD_MEMORY:
            return None
        idx, sub = state
        ch = self.children[idx]
        if v in ch["targets"]:
            return ch["stay"].get(v)
        if ch["zone"] is not None and v in ch["zone"]:
            # inconsistent (vertex, state) pairs can be probed during
            # tabulation; they never occur along consistent plays
            return ch["subcell"].move(v, sub) if sub is not None else None
        return ch["attr_moves"].get(v)


class _PieceCell:
    """Dominion pieces peeled for the non-favored player: per piece an
    attractor into the sub-region and the sub-region's own strategy."""

    def __init__(self, pieces: list[dict], piece_of: dict[int, int]):
        self.pieces = pieces  # sub_region, attr_moves, subcell
        self.piece_of = piece_of

    def _enter(self, v):
        idx = self.piece_of.get(v)
        if idx is None:
            return DEAD_MEMORY
        pc = self.pieces[idx]
        if v in pc["sub_region"]:
            return (idx, pc["subcell"].init(v))
        return (idx, None)

    def init(self, v):
        return self._enter(v)

    def step(self, state, w):
        idx2 = self.piece_of.get(w)
        if idx2 is None:
            return DEAD_MEMORY
        if state is DEAD_MEMORY or state[0] != idx2:
            return self._enter(w)
        idx, sub = state
        pc = self.pieces[idx]
        if w in pc["sub_region"]:
            if sub is None:
                return (idx, pc["subcell"].init(w))
            return (idx, pc["subcell"].step(sub, w))
        return (idx, None)

    def move(self, v, state):
        if state is DEAD_MEMORY or self.piece_of.get(v) != state[0]:
            return None
        idx, sub = state
        pc = self.pieces[idx]
        if v in pc["sub_region"]:
            return pc["subcell"].move(v, sub) if sub is not None else None
        return pc["attr_moves"].get(v)


class _StreettSolver:
    def __init__(self, sg: StreettGame, cells: bool):
        self.sg = sg
        self.pattern_of, self.pat_q, self.pat_p = sg.patterns
        self.cells = cells  # build both players' cells, or the winners only

    def _violated(self, colors: frozenset[int]) -> int:
        q = p = 0
        for pid in colors:
            q |= self.pat_q[pid]
            p |= self.pat_p[pid]
        return q & ~p

    def _children(self, colors: frozenset[int], fav: int) -> list[frozenset[int]]:
        if fav == 0:
            out = []
            for c in range(self.sg.d):
                cu = frozenset(p for p in colors if not self.pat_p[p] >> c & 1)
                if cu != colors and any(self.pat_q[p] >> c & 1 for p in cu):
                    out.append(cu)
            uniq = sorted(set(out), key=sorted)
            return [c for c in uniq if not any(c < c2 for c2 in uniq)]
        cur = colors
        while True:
            viol = self._violated(cur)
            if not viol:
                break
            cur = frozenset(p for p in cur if not self.pat_q[p] & viol)
        return [cur] if cur else []

    def solve(self, verts: list[int], colors: frozenset[int], active: list[bool]):
        """Returns (win0, win1, cell0, cell1) on the subgame on ``verts``;
        both cells are None when the solver builds no cells.

        ``verts`` is sorted, and ``active`` is a membership buffer shared
        by the whole recursion that marks exactly ``verts`` on entry; it
        is restored before returning, as in ``solver._zielonka``.
        """
        sg = self.sg
        if not verts:
            return set(), set(), None, None
        owners, succ, pattern_of, keep = sg.owners, sg.succ, self.pattern_of, self.cells
        fav = 0 if not self._violated(colors) else 1
        opp = 1 - fav
        children = self._children(colors, fav)
        cells = [None, None]
        if not children:
            if keep:
                cells[fav] = _LeafCell({v: min(s for s in succ[v] if active[s])
                                        for v in verts if owners[v] == fav})
            wins = [set(), set()]
            wins[fav] = set(verts)
            return wins[0], wins[1], cells[0], cells[1]

        pieces: list[dict] = []
        piece_of: dict[int, int] = {}
        opp_total: set = set()
        removed: list[int] = []  # opponent pieces peeled off in this call
        while True:
            progressed = False
            recorded: list[dict] = []
            for cu in children:
                targets = [v for v in verts if pattern_of[v] not in cu]
                attr, arank = _attractor(sg, fav, targets, active)
                for v in attr:
                    active[v] = False
                zone = [v for v in verts if active[v]]
                if keep:
                    entry = {"targets": set(targets), "attr_region": set(attr),
                             "attr_moves": _progress_moves(sg, fav, attr, arank),
                             "zone": set(zone) or None, "subcell": None}
                    recorded.append(entry)
                if zone:
                    w0, w1, c0, c1 = self.solve(zone, cu, active)
                for v in attr:
                    active[v] = True
                if zone:
                    wopp = (w0, w1)[opp]
                    if wopp:
                        region, drank = _attractor(sg, opp, sorted(wopp), active)
                        if keep:
                            piece_of.update(dict.fromkeys(region, len(pieces)))
                            pieces.append({"sub_region": set(wopp),
                                           "attr_moves": _progress_moves(sg, opp, region, drank),
                                           "subcell": (c0, c1)[opp]})
                        for v in region:
                            active[v] = False
                        opp_total.update(region)
                        removed.extend(region)
                        verts = [v for v in verts if active[v]]
                        progressed = True
                        break
                    if keep:
                        entry["subcell"] = (c0, c1)[fav]
            if not progressed:
                break
        if keep:
            for entry in recorded:
                entry["stay"] = {v: min(s for s in succ[v] if active[s])
                                 for v in entry["targets"] if owners[v] == fav}
            if verts:
                cells[fav] = _RotateCell(recorded)
            if opp_total:
                cells[opp] = _PieceCell(pieces, piece_of)
        wins = [None, None]
        wins[fav] = set(verts)
        wins[opp] = opp_total
        for v in removed:
            active[v] = True
        return wins[0], wins[1], cells[0], cells[1]


class StreettSolveResult:
    """Winner, regions, both players' cells (None for a player who wins
    nowhere, and both None after a winners-only solve, which has no
    strategies), and lazily materialized winner strategy."""

    def __init__(self, sg: StreettGame, winner: int, win0, win1, cells):
        self.sg = sg
        self.winner_from_initial = winner
        self.win0 = frozenset(win0)
        self.win1 = frozenset(win1)
        self.cells = cells

    @cached_property
    def player0_strategy(self) -> Optional[StrategySpec]:
        """Player 0's cell tabulated over the arena: memory states are
        the cell states reachable from the initial one under every edge."""
        if self.winner_from_initial != 0:
            return None
        sg, cell = self.sg, self.cells[0]
        return strategy_from_functions(sg, 0, cell.init(sg.initial),
                                       lambda state, ek: cell.step(state, ek[2]),
                                       lambda v, state: _cell_move(sg, cell, v, state))

    @cached_property
    def player1_strategy(self) -> Optional[StrategySpec]:
        """Positional: Player 1's cell states are functions of the current
        vertex (his condition being a disjunction, his tree nodes are
        unary, so nothing ever rotates)."""
        if self.winner_from_initial != 1:
            return None
        sg, cell = self.sg, self.cells[1]
        return strategy_from_functions(sg, 1, 0, lambda state, ek: 0,
                                       lambda v, _: _cell_move(sg, cell, v, cell.init(v)))


def _cell_move(sg: StreettGame, cell, v: int, state) -> int:
    mv = cell.move(v, state)
    return min(sg.succ[v]) if mv is None else mv


def solve_streett(sg: StreettGame, verts: Optional[list[int]] = None, *,
                  cells: bool = True) -> StreettSolveResult:
    """Winner and strategies of a classical Streett game, or of its
    subgame on ``verts`` (sorted, each vertex with a successor in it);
    with ``cells`` off, the same winners only, building no cell."""
    solver = _StreettSolver(sg, cells)
    colors = frozenset(range(len(solver.pat_q)))
    verts = list(range(sg.n)) if verts is None else verts
    active = [False] * sg.n
    for v in verts:
        active[v] = True
    w0, w1, c0, c1 = solver.solve(verts, colors, active)
    winner = 0 if sg.initial in w0 else 1
    return StreettSolveResult(sg, winner, w0, w1, (c0, c1))


# --- bounded-cost decision ------------------------------------------------------

def streett_regime_cap(game: CostStreettGame) -> int:
    """Cost cap nW·2^d·(2d)! beyond which the bound is immaterial."""
    return game.n * max(1, game.max_cost) * (2 ** game.d) * math.factorial(2 * game.d)


class _StreettLevels(BoundedCostResult):
    """The layered engine (``solver.BoundedCostResult``) on a
    cost-Streett game; the decision is made on construction.

    Each level's game is a classical Streett game over the level graph's
    nodes and two sinks: the game's pairs lifted to the nodes, plus the
    saturation pair of ``build_streett_reduction``, which only the lost
    sink requests and nothing answers; the won sink requests nothing.
    None of this depends on the level, so the nodes' request and answer
    masks and their numbered patterns are computed once per decision,
    from the arena's masks, and every level's game shares them.  The
    decision solves a level sink-first for the winners only, the rest by
    ``solve_streett`` on the rest's vertices with no cells built.  A
    certificate's whole solve of a level keeps Player 0's cell, and
    Player 1's positional moves: his cell's states are functions of the
    node, so the state he enters a node with carries his choice there.
    """

    def __init__(self, game: CostStreettGame, bound: int, budget: int):
        super().__init__(game, StreettTracker(game, bound), budget, "level graph")
        request, answer = game.request_mask, game.answer_mask
        # the nodes' masks, then the won sink's and the lost sink's
        self.qmask = tuple(map(request.__getitem__, self.vertex_of)) + (0, 1 << game.d)
        self.pmask = tuple(map(answer.__getitem__, self.vertex_of)) + (0, 0)
        self.patterns = _numbered_patterns(self.qmask, self.pmask)
        self.solve()

    def classical_game(self, succ, pred) -> StreettGame:
        sg = StreettGame(self.owners, succ, self.qmask, self.pmask, self.game.d + 1, 0)
        # seed the cached predecessor lists and patterns
        vars(sg).update(pred=pred, patterns=self.patterns)
        return sg

    @staticmethod
    def solve_rest(sg: StreettGame, rest: list[int], active: list[bool]) -> frozenset[int]:
        return solve_streett(sg, rest, cells=False).win0

    def solve_whole(self, succ, pred, prev):
        m, owners = self.size, self.owners
        res = solve_streett(self.classical_game(succ, pred))
        cell = res.cells[1]
        moves1 = self.project_moves(
            {i: j for i in res.win1 if owners[i] == 1
             for j in [cell.move(i, cell.init(i))] if j is not None}, prev)
        return frozenset(v for v in res.win0 if v < m), (res.cells[0], moves1)

    def move_function(self, player: int):
        if player == 0:
            raise ValueError("Player 0 has no positional Streett moves: read certificate")
        return super().move_function(player)

    @cached_property
    def certificate(self) -> StrategySpec:
        if self.achievable:
            return _compose_p0_certificate(self)
        return _extract_p1_certificate(self)


def decide_bounded_cost_streett(game: CostStreettGame, bound: int, *,
                                product_budget: int = DEFAULT_PRODUCT_BUDGET
                                ) -> BoundedCostResult:
    """Does Player 0 have a strategy of cost at most ``bound``?

    Decided level by level (``_StreettLevels``); ``product_budget`` caps
    the level graph, as in ``solver.decide_bounded_cost``.
    """
    require_valid_streett(game)
    return _StreettLevels(game, min(bound, streett_regime_cap(game)), product_budget)


def _compose_p0_certificate(levels: BoundedCostResult) -> StrategySpec:
    """Tracking memory × the memory of Player 0's cell in the level
    game that serves the overflow counter, with next moves projected.

    A label is (o, r, s), with s a state of the cell of level o.  A
    move into node j that does not overflow steps the cell; an overflow
    move restarts it at j in the cell of level o+1: the level game sent
    that move to the won sink, so j is won there.

    The level graph walks a move into a pass-through vertex on to its
    exit, and gives a pass-through node one move.  So a move from
    another vertex into a pass-through one steps the cell along the
    level moves up to the node of the next vertex that is not
    pass-through, and the labels on the way carry that cell state.  An
    overflow, on such a move or on the way, restarts the cell at that
    node: no request is open after it, so the node is the exit's with
    its fresh requests, and it is won one level up.
    """
    game, tr = levels.game, levels.tracker
    index, nodes, succ, overflow = levels.index, levels.nodes, levels.succ, levels.overflow
    successors, through, exits = game.successors, game.pass_through, game.exits
    hop = {(u, t): k for u, row in successors.items() for k, (t, _) in enumerate(row)}
    cells = {game.n: None}  # o → the cell of level o, looked up once

    def cell(o):
        if o not in cells:
            cells[o] = levels.level_solve(levels._iterate_index(o))[0]
        return cells[o]

    def restart(o, t):
        """The cell state of level o after an overflow move into t: its
        start at the node of t's exit (t's own past a cycle)."""
        if t in through and exits[t][0][0] not in through:
            t = exits[t][0][0]
        c, j = cell(o), index.get((t, tr.initial_r(t)))
        return None if c is None or j is None else c.init(j)

    def enter(o, s, i, j):
        """The cell state after the level move i → j at level o and the
        moves of the pass-through nodes that follow, if any."""
        walk = []
        while j not in walk:
            if j in overflow.get(i, ()):
                return restart(min(o + 1, game.n), nodes[j][0])
            walk.append(j)
            if nodes[j][0] not in through:
                break
            i, j = j, succ[j][0]
        c = cell(o)
        for j in walk:
            s = None if c is None or s is None else c.step(s, j)
        return s

    def upd(label, ek):
        o, r, s = label
        src, _, t = ek
        o2, r2, overflowed = tr.update(o, r, game.edge_cost[(src, t)], t)
        if overflowed:
            return (o2, r2, restart(o2, t))
        if src in through:
            return (o2, r2, s)
        i = index.get((src, r))
        return (o2, r2, None if i is None else enter(o, s, i, succ[i][hop[(src, t)]]))

    def nxt(v, label):
        o, r, s = label
        c, i = cell(o), index.get((v, r))
        j = None if v in through or c is None or i is None or s is None else c.move(i, s)
        if j is None:
            return successors[v][0][0]
        return levels.project(i, j, levels.prev(levels._iterate_index(o)))

    o0, r0 = tr.initial_state()
    s0 = cell(o0).init(0)
    if game.initial in through:
        s0 = enter(o0, s0, 0, succ[0][0])
    return strategy_from_product(game, 0, (o0, r0, s0), upd, nxt)


def _extract_p1_certificate(levels: BoundedCostResult) -> StrategySpec:
    """Spoiler memory with the overflow counter reset to the least value
    reachable under the level solves' positional moves
    (``core._reset_spoiler``)."""
    return _reset_spoiler(levels.game, levels.tracker, levels.move_function(1),
                          levels._iterate_index)


# --- strategy verification ---------------------------------------------------------

def streett_strategy_cost(game: CostStreettGame, strat: StrategySpec) -> float:
    """Cst(σ) = sup over consistent plays, by lasso analysis on the
    σ-restricted one-player product (``semantics._verified_cost``)."""
    return _verified_cost(game, strat, 0, require_valid_streett, StreettTracker)


def streett_spoiler_cost(game: CostStreettGame, strat: StrategySpec) -> float:
    """Cst(τ) = inf over consistent plays: least b for which Player 0
    finds a good lasso in the τ-restricted product."""
    return _verified_cost(game, strat, 1, require_valid_streett, StreettTracker)


# --- optimal cost ----------------------------------------------------------------

def optimal_cost_streett(game: CostStreettGame, *,
                         practical_cap: Optional[int] = None,
                         product_budget: int = DEFAULT_PRODUCT_BUDGET) -> OptimalResult:
    """Least achievable bound, searched upward from 0 (``solver._least_achievable``).

    The theoretical cap nW·2^d·(2d)! is astronomically large, so the
    search stops at a practical cap (default n·W·2^d) and reports
    ``cap_hit`` when even that bound is not achievable — the true value
    then exceeds the cap but Player 0 is not proven to lose.
    """
    require_valid_streett(game)
    regime_cap = streett_regime_cap(game)
    cap = practical_cap if practical_cap is not None else \
        game.n * max(1, game.max_cost) * 2 ** game.d
    return _least_achievable(
        lambda b: decide_bounded_cost_streett(game, b, product_budget=product_budget),
        min(cap, regime_cap), regime_cap)


# --- bridges and file format -------------------------------------------------------

def streett_from_cost_parity(game: CostGame) -> CostStreettGame:
    """Pairs from a parity coloring: Q_c = color-(2c+1) vertices, P_c =
    vertices of even color ≥ 2c+2, all pairs sharing the edge costs."""
    odd = game.odd_colors
    pairs = []
    for c in odd:
        q = frozenset(v.id for v in game.vertices if v.color == c)
        p = frozenset(v.id for v in game.vertices
                      if v.color % 2 == 0 and v.color >= c + 1)
        pairs.append(StreettPair(q, p))
    if not pairs:
        pairs.append(StreettPair(frozenset(), frozenset()))
    edges = tuple(StreettEdge(e.source, e.target, (e.cost,) * len(pairs))
                  for e in game.edges)
    return CostStreettGame(game.vertices, edges, tuple(pairs), game.initial)


def parse_cst(text: str) -> CostStreettGame:
    (n, initial, d), lines = _read_header(text, ".cst", "coststreett", (int,) * 3)
    if n < 0 or len(lines) != 1 + n + d:
        raise FormatError(f"expected {n} vertex and {d} pair lines")
    vertices: list[Vertex] = []
    edges: list[StreettEdge] = []
    for line in lines[1:1 + n]:
        v, succs = _parse_vertex_line(
            line, lambda field: tuple(int(w) for w in field.split("|")))
        vertices.append(v)
        for t, costs in succs:
            if len(costs) != d:
                raise FormatError(f"expected {d} costs on edge {v.id}->{t}")
            edges.append(StreettEdge(v.id, t, costs))
    pairs: list[StreettPair] = [None] * d  # type: ignore[list-item]
    for line in lines[1 + n:]:
        # pair <index> Q: <ids> P: <ids>
        parts = line.replace("Q:", " Q: ").replace("P:", " P: ").split()
        if parts[:1] != ["pair"] or parts[2:3] != ["Q:"] or "P:" not in parts:
            raise FormatError(f"bad pair line: {line!r}")
        pi = parts.index("P:")
        try:
            c = int(parts[1])
            q = frozenset(int(x) for x in parts[3:pi])
            p = frozenset(int(x) for x in parts[pi + 1:])
        except ValueError as exc:
            raise FormatError(f"bad pair line: {line!r}") from exc
        if not 0 <= c < d or pairs[c] is not None:
            raise FormatError(f"bad pair index {c}")
        pairs[c] = StreettPair(q, p)
    game = CostStreettGame(tuple(vertices), tuple(edges), tuple(pairs), initial)
    require_valid_streett(game)
    return game


def format_cst(game: CostStreettGame) -> str:
    lines = [f"coststreett {game.n} {game.initial} {game.d}"]
    for v in sorted(game.vertices, key=lambda v: v.id):
        succs = ",".join(f"{t}:" + "|".join(map(str, cs))
                         for t, cs in game.successors[v.id])
        lines.append(f"{v.id} {v.color} {v.owner} {succs}")
    for c, p in enumerate(game.pairs):
        q = " ".join(map(str, sorted(p.requests)))
        a = " ".join(map(str, sorted(p.answers)))
        lines.append(f"pair {c} Q: {q} P: {a}")
    return "\n".join(lines) + "\n"
