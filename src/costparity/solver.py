"""Bounded-cost decisions, optimal cost, and strategy extraction.

Decisions solve the parity game on the tracked product one overflow
level at a time on the layered engine, each level sink-first and for
the winners only, until a level wins the initial state; the engine's
level graph (``BoundedCostResult``, shared with Streett games) is the
decision's result, and it builds its certificate on first use.  The
optimal cost is the least achievable bound, searched upward; on parity
games one classical solve of the arena brackets it first.  An
alternating search over annotated play prefixes stopped at settled
prefixes (the finite-duration game, used as an oracle at small scale),
which runs ``reduction``'s settle and shortcut rules on one
``_PrefixStack``, serves the tests as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional, Sequence

from .core import (DEFAULT_PRODUCT_BUDGET, UNARY, CostGame, StrategySpec, _least_bound,
                   _reset_spoiler, require_valid, strategy_from_functions,
                   strategy_from_product)
from .reduction import Tracker, _LevelProduct, _PrefixStack
from .semantics import strategy_cost

INF = math.inf

DEFAULT_NODE_BUDGET = 10_000_000


# --- classical parity games -------------------------------------------------

@dataclass(frozen=True)
class ParityGame:
    """Max-parity game over dense vertex ids 0..n−1."""

    owners: tuple[int, ...]
    colors: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    initial: int

    @property
    def n(self) -> int:
        return len(self.owners)

    @cached_property
    def pred(self) -> tuple[tuple[int, ...], ...]:
        return _predecessors(self.succ)


def _predecessors(succ: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Predecessor lists of dense successor lists, each in source order."""
    pred: list[list[int]] = [[] for _ in succ]
    for u, row in enumerate(succ):
        for v in row:
            pred[v].append(u)
    return tuple(map(tuple, pred))


@dataclass(frozen=True)
class SolveResult:
    winner_from_initial: int
    player0_strategy: Optional[dict[int, int]]
    player1_strategy: Optional[dict[int, int]]
    win0: frozenset[int]
    win1: frozenset[int]


def _attractor(pg: ParityGame, player: int, targets: list[int],
               active: list[bool]) -> tuple[list[int], dict[int, int]]:
    """Player's attractor of targets within the active subgame, and the
    rank of each attracted vertex: the round it was attracted in, 0 for
    the targets (``_progress_moves`` reads moves off the ranks).

    The region doubles as the breadth-first queue, and the ranks and
    opponent escape counts live in dicts over it, so a call costs time
    in the region and its predecessors only.
    """
    owners, succ, pred = pg.owners, pg.succ, pg.pred
    rank: dict[int, int] = {}
    region: list[int] = []
    for t in targets:
        if active[t] and t not in rank:
            rank[t] = 0
            region.append(t)
    cnt: dict[int, int] = {}
    for w in region:  # the loop reaches the vertices appended below
        rw = rank[w] + 1
        for u in pred[w]:
            if u in rank or not active[u]:
                continue
            if owners[u] != player:
                k = cnt.get(u)
                if k is None:
                    k = sum(map(active.__getitem__, succ[u]))
                cnt[u] = k = k - 1
                if k:
                    continue
            rank[u] = rw
            region.append(u)
    return region, rank


def _progress_moves(pg: ParityGame, player: int, region: list[int],
                    rank: dict[int, int]) -> dict[int, int]:
    """Deterministic progress moves of the player's vertices in an
    attractor region above rank 0: the least successor of lower rank."""
    owners, succ = pg.owners, pg.succ
    moves: dict[int, int] = {}
    for u in region:
        ru = rank[u]
        if owners[u] == player and ru:
            moves[u] = min(s for s in succ[u] if rank.get(s, ru) < ru)
    return moves


def _zielonka(pg: ParityGame, verts: list[int], active: list[bool], moves: bool = True
              ) -> tuple[set[int], set[int], dict[int, int], dict[int, int]]:
    """Recursive attractor-based solve of the subgame on ``verts``.

    ``verts`` is sorted, and ``active`` is a membership buffer shared by
    the whole recursion that marks exactly ``verts`` on entry; it is
    restored before returning, so a call costs time in its subgame only.
    Returns winning sets and positional strategies for both players;
    with ``moves`` off, the same winning sets and empty strategies, for
    which no progress move is built.  The loop peels opponent dominions
    so recursion depth is bounded by the number of distinct colors.
    """
    colors, owners, succ = pg.colors, pg.owners, pg.succ
    win = ({}, {})  # accumulated strategies
    acc = (set(), set())  # accumulated winning sets
    removed: list[int] = []  # opponent dominions peeled off in this call
    while verts:
        c = max(map(colors.__getitem__, verts))
        sigma = c % 2
        tops = [v for v in verts if colors[v] == c]
        region_a, rank_a = _attractor(pg, sigma, tops, active)
        for v in region_a:
            active[v] = False
        w0, w1, s0, s1 = _zielonka(pg, [v for v in verts if active[v]], active, moves)
        for v in region_a:
            active[v] = True
        opp = w1 if sigma == 0 else w0
        if not opp:
            acc[sigma].update(verts)
            if moves:
                strat = win[sigma]
                strat.update((s0, s1)[sigma])
                strat.update(_progress_moves(pg, sigma, region_a, rank_a))
                for v in tops:
                    if owners[v] == sigma and v not in strat:
                        strat[v] = min(s for s in succ[v] if active[s])
            break
        region_b, rank_b = _attractor(pg, 1 - sigma, sorted(opp), active)
        theirs = acc[1 - sigma]
        for v in region_b:
            theirs.add(v)
            active[v] = False
        removed.extend(region_b)
        if moves:
            strat = win[1 - sigma]
            strat.update(_progress_moves(pg, 1 - sigma, region_b, rank_b))
            opp_strat = (s0, s1)[1 - sigma]
            for v in opp:
                if v in opp_strat:
                    strat[v] = opp_strat[v]
        verts = [v for v in verts if active[v]]
    for v in removed:
        active[v] = True
    return acc[0], acc[1], win[0], win[1]


def _solve_all(pg: ParityGame
               ) -> tuple[set[int], set[int], dict[int, int], dict[int, int]]:
    """``_zielonka`` on the whole game."""
    return _zielonka(pg, list(range(pg.n)), [True] * pg.n)


def _sink_first_winners(game, solve_rest) -> frozenset[int]:
    """Player 0's winning vertices of a level game below its two sinks,
    the won sink n−2 (won by Player 0) and the lost sink n−1, each
    looping on itself.  ``game`` has ``owners``, ``succ`` and ``pred``.

    Player 0's attractor of the won sink is taken over the whole game,
    then Player 1's attractor of the lost sink over what is left, and
    ``solve_rest(game, rest, active)`` returns Player 0's winners of the
    rest: the sorted undecided vertices, which ``active`` marks exactly
    (the buffer contract of ``_zielonka`` and ``_StreettSolver.solve``).
    It is not called when the sinks decide every vertex.

    The attracted parts are won by the attracting player, and the
    complement of a player's attractor is a trap for that player.  So
    every vertex of the rest keeps a successor in the rest, and a player
    who leaves it enters a region the opponent wins: the rest is a
    subgame with the winners it has in the whole game.
    """
    m = game.n - 2
    undecided = [True] * game.n
    won: list[int] = []
    for player in (0, 1):
        region, _ = _attractor(game, player, [m + player], undecided)
        for v in region:
            undecided[v] = False
        if player == 0:
            won = region[1:]  # the region starts with its target, the won sink
    rest = [v for v in range(m) if undecided[v]]
    if rest:
        won.extend(solve_rest(game, rest, undecided))
    return frozenset(won)


def solve_parity(pg: ParityGame) -> SolveResult:
    """Full winning-region partition with positional strategies."""
    w0, w1, s0, s1 = _solve_all(pg)
    winner = 0 if pg.initial in w0 else 1
    strat0 = {v: t for v, t in s0.items() if pg.owners[v] == 0} if winner == 0 else None
    strat1 = {v: t for v, t in s1.items() if pg.owners[v] == 1} if winner == 1 else None
    return SolveResult(winner, strat0, strat1, frozenset(w0), frozenset(w1))


# --- the layered explicit product -------------------------------------------

class BoundedCostResult(_LevelProduct):
    """The tracked product solved level by level over the overflow
    counter: the one layered engine for parity and Streett games, and
    the result of their bounded-cost decisions.  ``achievable`` says
    whether Player 0 wins from the initial state, and ``certificate``
    is a Player 0 strategy of cost at most ``bound`` when she does,
    else a Player 1 strategy of cost above it.

    Why the levels can be solved one at a time: the product is n+1
    copies of the level graph (``reduction._LevelProduct``), overflow
    edges go exactly one level up, and o never decreases.  A play thus
    either stays in one level forever, or leaves level o on an overflow
    edge, and from then on is won by whoever wins the state it enters
    at level o+1, because parity and Streett objectives are
    prefix-independent.  Level n is lost for Player 0: every saturated
    state has the odd color 1 (parity) or requests the saturation pair,
    which nothing answers (Streett).  So level o's game is the level
    graph with each overflow edge sent to a won or a lost sink,
    according to the winner of its target at level o+1, and the levels
    are solved from the saturated one downward.  A level's game depends
    on the next level's winning set only at the targets of overflow
    edges, so iteration stops as soon as the winning set restricted to
    those targets repeats; every lower level is served by the last
    iterate.

    A decision stops earlier, at the first iterate that wins node 0,
    the initial state.  That is sound because Player 0's winning sets
    only grow from one iterate to the next.  Iterate 0 starts from
    prev = ∅, so its winning set contains its prev.  A larger prev only
    sends more overflow edges to the won sink instead of the lost one,
    so each winning strategy of hers stays winning: its plays never
    enter the lost sink, those that enter the won sink still do, and
    the rest are unchanged.  By induction each iterate's winning set
    contains the one before.  Level 0 reads the last iterate, so node 0
    won in any iterate means ``achievable``.  The remaining iterates are
    solved by the same loop, resumed the first time anything reads
    ``iterates`` (``move_function``'s moves, ``level_solve``,
    certificates).

    Each level is solved sink-first for Player 0's winners only
    (``solve_level``): the sinks' attractors over the whole level graph
    decide most nodes, and only the undecided rest goes to the game
    class's own solver.  Each iterate keeps Player 0's winning set only.
    What certificates read is built on first use, level by level
    (``level_solve``): the level's game (``_level_game``) is rebuilt
    from the stored winning set one level up, which is all it depends
    on, and solved whole.

    A subclass solves one game class's levels: ``classical_game(succ,
    pred)`` is its classical game on a level's lists, ``solve_rest``
    solves the rest for the decision (see ``_sink_first_winners``), and
    ``solve_whole`` a whole level for certificates (see
    ``level_solve``); its ``certificate`` is built from the latter on
    first use.
    """

    def __init__(self, game, tracker, budget: int, what: str):
        super().__init__(game, tracker, budget, what)
        self.tracker = tracker  # the certificates' tracker too
        self.bound = tracker.bound
        self.product_states = self.size
        self.vertex_of = list(map(itemgetter(0), self.nodes))  # node → arena vertex
        # the nodes' owners, then the won sink's and the lost sink's
        self.owners = tuple(map(game.owner.__getitem__, self.vertex_of)) + (1, 0)
        self._solved: dict[int, tuple] = {}

    def _level_game(self, prev: frozenset[int]) -> tuple[tuple, tuple]:
        """Successor and predecessor lists of the level game whose
        overflow edges lead to the won sink m if their target is in
        ``prev``, else to the lost sink m+1; the sinks loop on themselves.
        Only the overflow rows and the sinks' predecessors are new."""
        m = len(self.nodes)
        succ = list(self.succ)
        to_sink: tuple[list[int], list[int]] = ([], [])
        for i, over in self.overflow.items():
            row = []
            for j in succ[i]:
                if j in over:
                    sink = 0 if j in prev else 1
                    to_sink[sink].append(i)
                    j = m + sink
                row.append(j)
            succ[i] = tuple(row)
        return (tuple(succ) + ((m,), (m + 1,)),
                self.pred + (tuple(to_sink[0]) + (m,), tuple(to_sink[1]) + (m + 1,)))

    def solve(self) -> None:
        """Solves the levels n−1, n−2, … until an iterate wins node 0 or
        the stop rule holds, then decides whether node 0, the initial
        state, is won at level 0: it is if the last iterate solved wins
        it (see the class docstring).

        ``solve_level(succ, pred, prev)`` solves one level's game
        (``_level_game``): its successor and predecessor lists cover the
        nodes 0..m−1, then the won sink m and the lost sink m+1, and
        ``prev`` is Player 0's winning set one level up.  It returns a
        tuple of Player 0's winning nodes (below m) at this level.
        """
        self._levels: list[tuple] = []
        # P0 wins nothing at the saturated level
        self._prev: Optional[frozenset[int]] = frozenset()
        self._run(stop_at_win=True)
        self.achievable = 0 in self._levels[-1][0]

    def _run(self, stop_at_win: bool) -> None:
        """Solves further levels until the stop rule holds, or, with
        ``stop_at_win``, until an iterate wins node 0.  ``_prev`` is the
        winning set the next level reads, None once the rule has held."""
        overflow_targets = frozenset().union(*self.overflow.values())
        levels, prev = self._levels, self._prev
        while prev is not None:
            level = self.solve_level(*self._level_game(prev), prev)
            levels.append(level)
            cur = level[0]
            if len(levels) == self.game.n or cur & overflow_targets == prev & overflow_targets:
                prev = None  # level 0 is solved, or the next level's game repeats this one
            else:
                prev = cur
            if stop_at_win and 0 in cur:
                break
        self._prev = prev

    @cached_property
    def iterates(self) -> list[tuple]:
        """What ``solve_level`` returned for each level solved, from
        level n−1 down to the fixpoint; the levels a decision skipped
        are solved on first read."""
        self._run(stop_at_win=False)
        return self._levels

    def solve_level(self, succ, pred, prev) -> tuple:
        """Player 0's winners of a level's game, solved sink-first."""
        return (_sink_first_winners(self.classical_game(succ, pred), self.solve_rest),)

    def project(self, i: int, j: int, prev: frozenset[int]) -> int:
        """The level-game move i → j as an arena successor, the first hop
        of a move walked on through pass-through vertices; a sink stands
        for the least first hop of the overflow moves sent there."""
        row, hops = self.succ[i], self.game.successors[self.vertex_of[i]]
        if j < len(self.nodes):
            return hops[row.index(j)][0]
        over, want0 = self.overflow[i], j == len(self.nodes)
        return min(t for (t, _), k in zip(hops, row) if k in over and (k in prev) == want0)

    def project_moves(self, strat: dict[int, int], prev: frozenset[int]) -> dict[int, int]:
        """Positional level-game choices of the nodes, projected."""
        m = len(self.nodes)
        return {i: self.project(i, j, prev) for i, j in strat.items() if i < m}

    def _iterate_index(self, o: int) -> int:
        return min(self.game.n - 1 - o, len(self.iterates) - 1)

    def prev(self, k: int) -> frozenset[int]:
        """Player 0's winning set one level up from iterate k's level."""
        return self.iterates[k - 1][0] if k else frozenset()

    def level_solve(self, k: int) -> tuple:
        """What ``solve_whole(succ, pred, prev)`` keeps of the game of
        the k-th iterate, whose overflow edges lead to the sinks by
        ``prev(k)``, built on first use: a pair, indexed by player, of
        what each player's certificate reads (``move_function`` reads
        positional moves from an entry by ``get(node)``).  The game is
        the one ``solve`` solved, predecessor lists included, so the
        whole solve picks the moves the level's solve would have picked,
        and the winners it returns with the pair must be the stored ones."""
        kept = self._solved.get(k)
        if kept is None:
            # solved whole: the sinks' attractor moves plus the rest's
            # strategies grew optimal certificates 25–54 times (README)
            prev = self.prev(k)
            won, kept = self.solve_whole(*self._level_game(prev), prev)
            if won != self.iterates[k][0]:
                raise RuntimeError(f"level {k} re-solved with winners other than the decision's")
            self._solved[k] = kept
        return kept

    def move_function(self, player: int):
        """The player's level-solve moves as a function: (v, o, r), r a
        request word, → the positional move there as an arena successor,
        None off the nodes.  It looks each level's moves up once per
        overflow value o.  On a Streett game Player 0 has none: her level
        strategies need memory, so ``move_function(0)`` raises
        ValueError there; ``certificate`` holds her moves."""
        n, index, tables = self.game.n, self.index, {}

        def move(v, o, r):
            node = index.get((v, r))
            if o >= n or node is None:
                return None
            table = tables.get(o)
            if table is None:
                table = tables[o] = self.level_solve(self._iterate_index(o))[player]
            return table.get(node)
        return move


class _ParityLevels(BoundedCostResult):
    """The layered engine on a cost-parity game, with the won sink
    colored 0 and the lost sink 1; the decision is made on construction.

    Each level is solved sink-first for Player 0's winners only, the
    rest by ``_zielonka`` with no moves built.  When a certificate asks,
    a level is solved whole by ``_solve_all`` for both players'
    positional moves.
    """

    def __init__(self, game: CostGame, bound: int, budget: int):
        super().__init__(game, Tracker(game, bound), budget, "level graph")
        self.colors = tuple(map(game.color.__getitem__, self.vertex_of)) + (0, 1)
        self.solve()

    def classical_game(self, succ, pred) -> ParityGame:
        pg = ParityGame(self.owners, self.colors, succ, 0)
        vars(pg)["pred"] = pred  # seed the cached predecessor lists
        return pg

    @staticmethod
    def solve_rest(pg: ParityGame, rest: list[int], active: list[bool]) -> set[int]:
        return _zielonka(pg, rest, active, moves=False)[0]

    def solve_whole(self, succ, pred, prev):
        m = self.size
        w0, _, s0, s1 = _solve_all(self.classical_game(succ, pred))
        return (frozenset(v for v in w0 if v < m),
                (self.project_moves(s0, prev), self.project_moves(s1, prev)))

    @cached_property
    def certificate(self) -> StrategySpec:
        if self.achievable:
            return extract_player0_strategy(self)
        return extract_player1_strategy(self)


def clamp_bound(game: CostGame, bound: int) -> int:
    """Bounds beyond the regime cap (n for unary, nW for binary) are
    equivalent to plain winning; clamp to the cap."""
    cap = game.n if game.encoding == UNARY else game.n * game.max_cost
    return min(bound, cap)


def decide_bounded_cost(game: CostGame, bound: int, *,
                        product_budget: int = DEFAULT_PRODUCT_BUDGET) -> BoundedCostResult:
    """Does Player 0 have a strategy of cost at most ``bound``?

    Solves the reachable tracked product as a parity game one overflow
    level at a time, stopping at the first level that wins the initial state,
    or else at the fixpoint (``_ParityLevels``).  The decision keeps the
    winners only; the certificate's moves are built on its first use.
    """
    require_valid(game)
    return _ParityLevels(game, clamp_bound(game, bound), product_budget)


def extract_player0_strategy(levels: BoundedCostResult) -> StrategySpec:
    """Finite-state strategy from a won decision on a cost-parity game:
    memory is the closure of the tracking states under Upd, next moves
    project the positional product strategy."""
    game, bound, tr = levels.game, levels.bound, levels.tracker
    move = levels.move_function(0)

    def upd(label, ek):
        s, w, t = ek
        o2, r2, _ = tr.update(label[0], label[1], w, t)
        return (o2, r2)

    def nxt(v, label):
        t = move(v, *label)
        return game.successors[v][0][0] if t is None else t

    strat = strategy_from_product(game, 0, tr.initial_state(), upd, nxt)
    # the merged states are classes of reachable tracking states, so
    # the raw bound holds
    limit = (game.n + 1) * (bound + 2) ** game.d
    if strat.size > limit:
        raise RuntimeError(f"certificate has {strat.size} memory states, "
                           f"above the bound {limit}")
    return strat


def extract_player1_strategy(levels: BoundedCostResult) -> StrategySpec:
    """Spoiler strategy with the overflow counter reset to the least
    value from which the product strategy still wins.

    Memory follows Upd except at overflow positions, where the counter
    restarts at o_v = min{o : (v, o, r_v) reachable under the product
    strategy} instead of incrementing (see ``core._reset_spoiler``).
    """
    return _reset_spoiler(levels.game, levels.tracker, levels.move_function(1),
                          levels._iterate_index)


# --- finite-duration engine ---------------------------------------------------

@dataclass(frozen=True)
class FiniteDurationResult:
    achievable: Optional[bool]  # None when the budget ran out
    nodes: int

    @property
    def exhausted(self) -> bool:
        return self.achievable is None


def decide_bounded_cost_finite_duration(game: CostGame, bound: int,
                                        node_budget: int = DEFAULT_NODE_BUDGET
                                        ) -> FiniteDurationResult:
    """Exhaustive alternating search over annotated prefixes.

    Each branch stops at its minimal settled prefix: an even dominating
    cycle wins the branch for Player 0, saturation or an odd dominating
    cycle wins it for Player 1.  Binary-encoded games apply the shortcut
    rule when generating successors.  Both rules run incrementally on
    one ``reduction._PrefixStack``: ``step`` applies the shortcut, and
    ``verdict`` is the winner of a settled prefix.  The search is exact
    but only intended for desk-scale oracle runs; it reports budget
    exhaustion instead of guessing.
    """
    require_valid(game)
    stack = _PrefixStack(game, clamp_bound(game, bound))
    succ, owner = game.successors, game.owner
    nodes = 0
    stack.push(game.initial, *stack.tracker.initial_state(), 0)

    # frames: [owner, moves, next-index, winner once the owner wins]
    frames: list[list] = [[owner[game.initial], succ[game.initial], 0, None]]
    result: Optional[bool] = None  # stays None when the budget runs out
    while frames:
        fr = frames[-1]
        own, moves, idx, winner = fr
        if winner is not None or idx >= len(moves):
            if winner is None:
                winner = 1 - own  # every move lost for the mover
            stack.pop()
            frames.pop()
            if not frames:
                result = winner == 0
                break
            if frames[-1][0] == winner:
                frames[-1][3] = winner
            continue
        fr[2] += 1
        t, w = moves[idx]
        nodes += 1
        if nodes > node_budget:
            break
        stack.push(t, *stack.step(t, w))
        winner = stack.verdict()
        if winner is not None:
            stack.pop()
            if winner == own:
                fr[3] = winner
        else:
            frames.append([owner[t], succ[t], 0, None])
    return FiniteDurationResult(result, nodes)


# --- optimal cost -------------------------------------------------------------

@dataclass(frozen=True)
class OptimalResult:
    """The least achievable bound up to ``searched_up_to``, natural or
    ∞, and its certificate; ``cap_hit`` (no witness) when a practical
    cap below the regime cap is not achievable either (Streett games)."""

    value: float
    witness: Optional[StrategySpec]
    cap_hit: bool = False
    searched_up_to: int = 0


def optimal_cost(game: CostGame, *,
                 product_budget: int = DEFAULT_PRODUCT_BUDGET) -> OptimalResult:
    """Least b with an achievable bound, up to the regime cap
    (``_least_achievable``), bracketed by the classical parity game of
    the arena (``_classical_bracket``); only the products the search
    probes are built."""
    require_valid(game)
    cap = clamp_bound(game, 10 ** 18)
    return _least_achievable(
        lambda b: decide_bounded_cost(game, b, product_budget=product_budget), cap, cap,
        _classical_bracket(game))


def _classical_bracket(game: CostGame) -> Optional[float]:
    """One solve of the arena's classical parity game, costs ignored:
    ∞ if Player 1 wins it, since a play that violates the parity
    condition leaves some request unanswered forever and costs ∞.  Else
    the exact cost of Player 0's positional winning strategy, an upper
    bound on the optimum, or None when that strategy lets costs grow."""
    ids = [v.id for v in game.vertices]
    pos = {v: i for i, v in enumerate(ids)}
    succ = tuple(tuple(pos[t] for t, _ in game.successors[v]) for v in ids)
    res = solve_parity(ParityGame(tuple(map(game.owner.__getitem__, ids)),
                                  tuple(map(game.color.__getitem__, ids)), succ,
                                  pos[game.initial]))
    if res.winner_from_initial == 1:
        return INF
    move = {ids[i]: ids[t] for i, t in res.player0_strategy.items()}
    sigma = strategy_from_functions(game, 0, 0, lambda label, ek: 0,
                                    lambda v, label: move.get(v, game.successors[v][0][0]))
    cost = strategy_cost(game, sigma)
    return None if cost == INF else cost


def _least_achievable(decide, cap: int, regime_cap: int,
                      guess: Optional[float] = None) -> OptimalResult:
    """Least b ≤ ``cap`` with ``decide(b)`` achievable, searched upward
    from 0 (``core._least_bound``; achievability is monotone in b), and
    the decision's certificate.  If the cap fails too: ∞ with the cap's
    certificate when it is ``regime_cap``, above which bounds are
    immaterial, else ``cap_hit``.  ``decide`` looks its decider up at
    call time, so wrappers installed on the module see every probe.

    ``guess`` is a game class's bracket of the value (parity games pass
    ``_classical_bracket``): a bound known to be achievable, which the
    search checks first (``core._least_bound``), or ∞ when the value is
    proven ∞, so only the cap is decided, for its certificate.  A value
    the search reads off its guess is decided once more, for the
    certificate; so every result is the one the plain search gives."""
    def achieved(b):
        res = decide(b)
        return res.achievable, res

    if guess == INF:
        value, best = None, decide(cap)
        if best.achievable:
            raise RuntimeError(f"bound {cap} achievable on a game proven to cost ∞")
    else:
        value, best = _least_bound(achieved, 0, cap, guess)
        if value is None and cap < regime_cap:
            return OptimalResult(INF, None, True, cap)
        if best is None:
            best = decide(value)
    return OptimalResult(INF if value is None else value, best.certificate, False, cap)
