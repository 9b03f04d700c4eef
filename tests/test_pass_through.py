"""Pass-through vertices: one successor, no request, no answer.

The level product walks a move into such a vertex on to its exit, the
first vertex that is not one, in one tracker step at the chain's summed
cost (``core._exit_rows``).  These tests check that step against the
walk that steps the tracker edge by edge, and the engine against the
full level product (``conftest.FullLevelProduct``), whose search makes a
node for every edge step: winners at every full state, decisions, and
certificate costs.
"""

import random
from collections import Counter

from conftest import (FullParityLevels, FullStreettLevels, layered_corpus, oracle_pass_through,
                      random_cost_game, random_cost_streett, stepwise_streett_certificate,
                      with_pass_through)
from costparity import decide_bounded_cost, streett
from costparity.core import DEFAULT_PRODUCT_BUDGET, Vertex
from costparity.reduction import Tracker
from costparity.semantics import spoiler_cost, strategy_cost
from costparity.streett import (CostStreettGame, StreettEdge, StreettTracker,
                                decide_bounded_cost_streett, streett_spoiler_cost,
                                streett_strategy_cost)


def _walk(game, hop, w):
    """The edges of the move into ``hop`` at cost ``w`` and on along the
    only successors of pass-through vertices: [(target, cost), ...],
    ending at the first vertex that is not one, or None on a cycle."""
    through = oracle_pass_through(game)
    edges, seen = [(hop, w)], {hop}
    while edges[-1][0] in through:
        t, w = game.successors[edges[-1][0]][0]
        if t in seen:
            return None
        seen.add(t)
        edges.append((t, w))
    return edges


def _words(rng, tracker, count):
    """Request words of ``tracker``: each entry ⊥ or a cost in [0, b]."""
    b = tracker.bound
    return [tracker.pack(tuple(rng.choice((None, rng.randint(0, b))) for _ in range(tracker.d)))
            for _ in range(count)]


def _with_list_costs(game: CostStreettGame) -> CostStreettGame:
    return CostStreettGame(game.vertices, tuple(StreettEdge(e.source, e.target, list(e.costs))
                                                for e in game.edges), game.pairs, game.initial)


def test_one_summed_step_equals_the_edge_by_edge_walk():
    # every exit row of both game classes against the walk along the
    # chain: a move keeps its target only on a cycle of pass-through
    # vertices or when its exit repeats another target of the row, and a
    # walked move's one summed tracker step from any (o, r) equals the
    # steps along the chain's edges, overflows in mid-chain included
    rng = random.Random(23)
    seen = Counter()
    for k in range(240):
        if k % 2:
            g = with_pass_through(rng, random_cost_streett(rng))
            games = [(g, StreettTracker), (_with_list_costs(g), StreettTracker)]
        else:
            binary = k % 4 == 0
            g = with_pass_through(rng, random_cost_game(
                rng, rng.randint(1, 4), 4, max_cost=3 if binary else 1,
                encoding="binary" if binary else "unary"))
            games = [(g, Tracker)]
        for g, tracker_class in games:
            assert g.pass_through == oracle_pass_through(g)
            for u, row in g.successors.items():
                walks = [_walk(g, t, w) for t, w in row]
                ends = Counter(t if walk is None else walk[-1][0]
                               for walk, (t, _) in zip(walks, row))
                for (t, w), (e, c), walk in zip(row, g.exits[u], walks):
                    if walk is None:
                        assert (e, c) == (t, w)
                        seen["cycle kept"] += 1
                        continue
                    if ends[walk[-1][0]] > 1 and len(walk) > 1:
                        assert (e, c) == (t, w)
                        seen["parallel exit kept"] += 1
                        continue
                    assert e == walk[-1][0]
                    if len(walk) == 1:
                        assert c == w
                        continue
                    assert isinstance(c, type(w)) and not isinstance(c, list)
                    seen["chain"] += 1
                    seen["chain into the initial vertex"] += e == g.initial
                    for b in range(4):
                        tracker = tracker_class(g, b)
                        for r in _words(rng, tracker, 6):
                            for o in (0, g.n - 1, g.n):
                                o2, r2, over = o, r, False
                                steps = []
                                for t2, w2 in walk:
                                    o2, r2, step_over = tracker.update(o2, r2, w2, t2)
                                    steps.append(step_over)
                                    over |= step_over
                                assert tracker.update(o, r, c, e) == (o2, r2, over)
                                seen["mid-chain overflow"] += over and not steps[0]
    assert min(seen.values()) >= 20, seen


def _differential_cases(rng, with_chains: bool):
    """(game, bound): 160 random cost-parity and 160 random cost-Streett
    games at bounds 0–5, with pass-through vertices added or not."""
    games = []
    for k in range(160):
        binary = k % 2 == 0
        games.append(random_cost_game(rng, rng.randint(1, 4), 4, max_cost=3 if binary else 1,
                                      encoding="binary" if binary else "unary"))
    games += [random_cost_streett(rng) for _ in range(160)]
    for g in games:
        g = with_pass_through(rng, g) if with_chains else g
        for b in range(6):
            yield g, b


def _compare(g, b):
    """Decides ``g`` at ``b`` on the engine and on the full level
    product; asserts that the decisions are equal, and so are the
    winners at every full state (v, o, r), where a state at a
    pass-through vertex that is no node is read at the state that
    stepping the tracker edge by edge along its chain reaches; and that
    both certificates hold their side of the bound.  Returns (the
    engine's result, its certificate's cost, the full product's
    certificate's cost, the number of full nodes skipped)."""
    if isinstance(g, CostStreettGame):
        res = decide_bounded_cost_streett(g, b)
        full = FullStreettLevels(g, res.bound, DEFAULT_PRODUCT_BUDGET)
        verify = streett_strategy_cost if res.achievable else streett_spoiler_cost
        old = stepwise_streett_certificate(full) if full.achievable else full.certificate
        tracker = StreettTracker(g, res.bound)
    else:
        res = decide_bounded_cost(g, b)
        full = FullParityLevels(g, res.bound, DEFAULT_PRODUCT_BUDGET)
        verify = strategy_cost if res.achievable else spoiler_cost
        old = full.certificate
        tracker = Tracker(g, res.bound)
    assert res.achievable == full.achievable, (g, b)
    through = oracle_pass_through(g)
    n = g.n
    won = [res.iterates[res._iterate_index(o)][0] for o in range(n)]
    full_won = [full.iterates[full._iterate_index(o)][0] for o in range(n)]
    skipped = 0
    for i, (v, r) in enumerate(full.nodes):
        up = 0  # the overflows on the chain, stepped from level 0
        if (v, r) not in res.index:
            skipped += 1
            for _ in range(n):
                assert v in through, (g, b, v)
                t, w = g.successors[v][0]
                up, r, _ = tracker.update(up, r, w, t)
                v = t
                if (v, r) in res.index:
                    break
        j = res.index[(v, r)]
        for o in range(n):
            assert (o + up < n and j in won[o + up]) == (i in full_won[o]), (g, b, v, o, r)
    cost, old_cost = verify(g, res.certificate), verify(g, old)
    for c in (cost, old_cost):
        assert c <= res.bound if res.achievable else c > res.bound, (g, b, c)
    return res, cost, old_cost, skipped


def test_engine_equals_the_full_level_product():
    # the differential oracle: the engine against the same engine on the
    # full level product, on the layered corpus and on random games of
    # both classes, a third of which have pass-through vertices of their
    # own; every certificate verifies at exactly the full product's cost
    seen = Counter()
    cases = list(layered_corpus()) + list(_differential_cases(random.Random(19), False))
    for g, b in cases:
        res, cost, old_cost, skipped = _compare(g, b)
        assert cost == old_cost, (g, b)
        seen["skipped"] += skipped
        seen["pass-through games"] += bool(g.pass_through)
        seen[type(g).__name__, res.achievable] += 1
    assert seen["skipped"] > 10_000 and min(seen.values()) >= 300, seen


def test_engine_equals_the_full_level_product_with_chains():
    # the same on random games with chains, cycles and parallel exits of
    # pass-through vertices added: winners and decisions are equal and
    # every certificate holds its side of the bound.  Their costs may
    # differ, since the level solves choose among moves by attractor
    # rank, which the skipped vertices no longer count.  They differ on
    # 96 of the 1,920 cases: 55 certificates are better for their player
    # than the full product's, 41 worse, all within their bound.
    seen, differs = Counter(), Counter()
    for g, b in _differential_cases(random.Random(37), True):
        res, cost, old_cost, skipped = _compare(g, b)
        seen["skipped"] += skipped
        if cost != old_cost:
            better = cost < old_cost if res.achievable else cost > old_cost
            differs["better" if better else "worse"] += 1
        seen[type(g).__name__, res.achievable] += 1
    assert seen["skipped"] > 10_000 and min(seen.values()) >= 100, seen
    assert differs == {"better": 55, "worse": 41}, differs


def _cells_along_level_moves(res, initial, upd, nxt) -> Counter:
    """Walks the plays consistent with Player 0's Streett certificate,
    given by its initial label and its functions ``upd`` and ``nxt``,
    beside an oracle that steps the cell of the level serving o once
    per level move, as the play leaves the move's source node: the
    move's target is ``succ[i][k]`` for the arena move's hop k, and a
    play inside a walked chain is at no node and steps nothing.  On an
    overflow it restarts as the certificate does, at the node of the
    target's exit.  At every vertex that is not pass-through the label
    must carry the oracle's (o, r, cell state).  Counts the oracle's
    steps out of a pass-through node, and of the initial node, that
    change the cell state."""
    g = res.game
    tr = StreettTracker(g, res.bound)
    through, exits, index = g.pass_through, g.exits, res.index
    hop = {(u, t): k for u, row in g.successors.items() for k, (t, _) in enumerate(row)}
    cells = {}

    def cell(o):
        if o not in cells:
            cells[o] = None if o >= g.n else res.level_solve(res._iterate_index(o))[0]
        return cells[o]

    def step(state, u, t):
        o, r, s, i = state
        o2, r2, overflowed = tr.update(o, r, g.edge_cost[(u, t)], t)
        if overflowed:
            if t in through and exits[t][0][0] not in through:
                t = exits[t][0][0]
            c, j = cell(o2), index.get((t, tr.initial_r(t)))
            return (o2, r2, None if c is None or j is None else c.init(j), j), None
        if i is None or res.nodes[i][0] != u:
            return (o2, r2, s, i), None
        c, j = cell(o), res.succ[i][hop[(u, t)]]
        s2 = None if c is None or s is None else c.step(s, j)
        changed = u in through and s2 != s and ("initial" if i == 0 else "kept node")
        return (o2, r2, s2, j), changed

    o0, r0 = tr.initial_state()
    start = (g.initial, initial, (o0, r0, cell(o0).init(0), 0))
    seen, stack, counts = {start}, [start], Counter()
    while stack:
        v, label, state = stack.pop()
        if v not in through:
            assert label == state[:3], (g, res.bound, v, label, state)
            counts["compared"] += 1
        targets = [nxt(v, label)] if g.owner[v] == 0 else [t for t, _ in g.successors[v]]
        for t in targets:
            state2, changed = step(state, v, t)
            counts[changed] += 1
            key = (t, upd(label, g.update_key[(v, t)]), state2)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return counts


def _with_initial_in_front(g: CostStreettGame) -> CostStreettGame:
    """``g`` with a new initial vertex, pass-through, leading to the old one."""
    v = g.n
    return CostStreettGame(g.vertices + (Vertex(v, 0, 0),),
                           g.edges + (StreettEdge(v, g.initial, (1,) * g.d),), g.pairs, v)


def test_player0_cells_step_along_every_level_move(monkeypatch):
    # Player 0's Streett certificate on games with chains: at every
    # vertex that is not pass-through, each label carries the cell state
    # that stepping the cell once per level move gives, also after the
    # moves of pass-through nodes that a move's chain keeps and after a
    # pass-through initial vertex
    tabulations = []
    real = streett.strategy_from_product

    def recorded(*args):
        tabulations.append(args)
        return real(*args)

    monkeypatch.setattr(streett, "strategy_from_product", recorded)
    rng = random.Random(61)
    seen = Counter()
    for k in range(800):
        # a step out of the initial node changes the cell state in about
        # 1% of the won decisions on the larger games, and was not seen
        # to on the small ones
        g = random_cost_streett(rng, 6, 3, 3) if k % 2 else random_cost_streett(rng)
        g = with_pass_through(rng, g)
        if g.initial not in g.pass_through:
            g = _with_initial_in_front(g)
        for b in range(6):
            res = decide_bounded_cost_streett(g, b)
            if res.achievable:
                assert res.certificate.player == 0
                (_, _, initial, upd, nxt), = tabulations
                seen += _cells_along_level_moves(res, initial, upd, nxt)
                tabulations.clear()
    assert seen["initial"] >= 10 and seen["kept node"] >= 100, seen
