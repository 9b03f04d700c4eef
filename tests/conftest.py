"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: parity
winners come from enumerating positional strategies and checking every
reachable cycle, play costs from literally unrolling the lasso, and
Streett winners from enumerating positional spoilers.
"""

import contextlib
import itertools
import operator
import random
from collections import Counter

import pytest

from costparity import (QbfFormula, core, generators, make_game, qbf_to_game, reduction, solver,
                        streett)
from costparity.core import (DEFAULT_PRODUCT_BUDGET, BudgetExceededError, StrategySpec, Vertex,
                             _least_bound, _reset_spoiler, strategy_from_product)
from costparity.reduction import Tracker, _LevelProduct, _PrefixStack
from costparity.semantics import INF, Lasso, _good_cycle, _sccs
from costparity.solver import (ParityGame, _least_achievable, _ParityLevels, _solve_all,
                               clamp_bound, decide_bounded_cost)
from costparity.streett import (CostStreettGame, StreettEdge, StreettGame, StreettPair,
                                StreettReduction, StreettTracker, _StreettLevels,
                                build_streett_reduction, solve_streett)


def delay_game(free_idling: bool):
    """Two three-vertex games: a color-1 entry, a color-0 middle vertex
    owned by Player 1, a color-2 exit.  With a free (cost-0) self-loop
    Player 1 can only idle harmlessly and Player 0 bounds every answer
    at cost 2; with a costly self-loop he delays answers forever."""
    return make_game(
        vertices=[(0, 0, 1), (1, 1, 0), (2, 0, 2)],
        edges=[(0, 1, 1), (1, 1, 0 if free_idling else 1), (1, 2, 1), (2, 0, 1)],
        initial=0)


@pytest.fixture
def delay_won():
    return delay_game(True)


@pytest.fixture
def delay_lost():
    return delay_game(False)


def random_cost_game(rng: random.Random, n: int, max_color: int,
                     max_cost: int = 1, encoding: str = "unary"):
    verts = [(i, rng.randint(0, 1), rng.randint(0, max_color)) for i in range(n)]
    edges = []
    for i in range(n):
        for t in rng.sample(range(n), rng.randint(1, n)):
            edges.append((i, t, rng.randint(0, max_cost)))
    return make_game(verts, edges, 0, encoding)


def layered_corpus():
    """The (game, bound) pairs whose layered solves ``LAYERED_DIGEST``
    pins: seeded QBF games at their target bounds, then seeded random
    unary and binary cost games."""
    rng = random.Random(5)
    # (variables, formulas, most clauses): the products grow fast with both
    for n, count, most in ((2, 22, 2), (3, 14, 1), (4, 4, 1)):
        for _ in range(count):
            prefix = tuple(rng.choice("ea") for _ in range(n))
            clauses = tuple(tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
                            for _ in range(rng.randint(1, most)))
            inst = qbf_to_game(QbfFormula(prefix, clauses))
            yield inst.game, inst.target_bound
    for _ in range(50):
        yield random_cost_game(rng, rng.randint(1, 4), 4), rng.randint(0, 4)
        yield (random_cost_game(rng, rng.randint(1, 4), 4, max_cost=3, encoding="binary"),
               rng.randint(0, 6))


def random_level_rows(rng, seen) -> tuple[tuple[int, ...], ...]:
    """Successor rows of a random level-shaped game: nodes 0..m−1, then
    the won sink m and the lost sink m+1, each looping on itself.  Rows
    have few successors, some a self-loop, and some reach only sinks;
    ``seen`` counts those two kinds of rows."""
    m = rng.randint(1, 9)
    rows = []
    for v in range(m):
        if rng.random() < 0.2:
            row = set(rng.sample((m, m + 1), rng.randint(1, 2)))
            seen["only sinks"] += 1
        else:  # few successors, so that the sinks' attractors reach far
            row = set(rng.sample(range(m + 2), rng.randint(1, 3)))
            if rng.random() < 0.2:
                row.add(v)
            seen["self-loop"] += v in row
        rows.append(tuple(sorted(row)))
    return tuple(rows) + ((m,), (m + 1,))


def random_streett_game(rng):
    n = rng.randint(1, 5)
    d = rng.randint(1, 2)
    owners = tuple(rng.randint(0, 1) for _ in range(n))
    succ = tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                 for _ in range(n))
    pairs_q = tuple(frozenset(v for v in range(n) if rng.random() < 0.4)
                    for _ in range(d))
    pairs_p = tuple(frozenset(v for v in range(n) if rng.random() < 0.4)
                    for _ in range(d))
    return StreettGame(owners, succ, pair_masks(n, pairs_q), pair_masks(n, pairs_p), d, 0)


def pair_masks(n: int, sides) -> tuple[int, ...]:
    """Per id 0..n−1, the bit set of the pairs c with the id in ``sides[c]``."""
    return tuple(sum(1 << c for c, side in enumerate(sides) if i in side) for i in range(n))


def random_cost_streett(rng, most: int = 4, pairs: int = 2, moves: int | None = None):
    """A random cost-Streett game of 1 to ``most`` vertices and 1 to
    ``pairs`` pairs, each vertex with 1 to ``moves`` successors (up to
    all of them by default), costs 0–2."""
    n = rng.randint(1, most)
    d = rng.randint(1, pairs)
    verts = [(i, rng.randint(0, 1)) for i in range(n)]
    edges = []
    for i in range(n):
        for t in rng.sample(range(n), rng.randint(1, min(n, moves or n))):
            edges.append((i, t, tuple(rng.randint(0, 2) for _ in range(d))))
    pairs = [(set(v for v in range(n) if rng.random() < 0.4),
              set(v for v in range(n) if rng.random() < 0.4)) for _ in range(d)]
    return CostStreettGame(
        tuple(Vertex(i, o, 0) for i, o in verts),
        tuple(StreettEdge(s, t, c) for s, t, c in edges),
        tuple(StreettPair(frozenset(q), frozenset(p)) for q, p in pairs),
        0)


def with_pass_through(rng, game):
    """``game`` (a CostGame or a CostStreettGame) with pass-through
    vertices added, each of a random owner, in no pair and of color 0,
    their edges' costs drawn like the game's: about a third of the
    edges, and every edge into the initial vertex, subdivided into
    chains of one to three; a chain of one beside a random edge to the
    same target (parallel exits); a cycle of two hung off a random
    vertex; and in about a third of the games a new initial vertex
    that leads to the old one."""
    streett_game = isinstance(game, CostStreettGame)
    if streett_game:
        def cost():
            return tuple(rng.randint(0, 2) for _ in range(game.d))
        old_edges = [(e.source, e.target, tuple(e.costs)) for e in game.edges]
    else:
        top = 1 if game.encoding == "unary" else 3
        def cost():
            return rng.randint(0, top)
        old_edges = [(e.source, e.target, e.cost) for e in game.edges]
    owners = dict(game.owner)
    colors = {v.id: v.color for v in game.vertices}
    edges = []

    def vertex():
        v = len(owners)
        owners[v], colors[v] = rng.randint(0, 1), 0
        return v

    def chain(u, t, length, w):
        for _ in range(length):
            p = vertex()
            edges.append((u, p, w))
            u, w = p, cost()
        edges.append((u, t, w))

    for u, t, w in old_edges:
        if t == game.initial or rng.random() < 0.3:
            chain(u, t, rng.randint(1, 3), w)
        else:
            edges.append((u, t, w))
    u, t, _ = rng.choice(old_edges)
    chain(u, t, 1, cost())
    u, p, q = rng.choice(sorted(game.owner)), vertex(), vertex()
    edges += [(u, p, cost()), (p, q, cost()), (q, p, cost())]
    initial = game.initial
    if rng.random() < 0.33:
        initial = vertex()
        edges.append((initial, game.initial, cost()))
    if streett_game:
        return CostStreettGame(tuple(Vertex(v, o, 0) for v, o in owners.items()),
                               tuple(StreettEdge(*e) for e in edges), game.pairs, initial)
    return make_game([(v, o, colors[v]) for v, o in owners.items()], edges, initial,
                     game.encoding)


def with_answering_chains(rng, game):
    """``game`` (a CostGame or a CostStreettGame) with forced chains
    added whose vertices answer requests: new vertices of a random owner
    that request nothing, their edges' costs drawn like the game's.
    About a third of the edges, and every edge into the initial vertex,
    are subdivided into chains of one to three whose vertices answer
    part of what the edge's target answers: in a cost-parity game an even
    color no higher than the target's, in a cost-Streett game a random
    part of the target's answer mask.  Such a vertex is walked when its
    answers lie within its exit's; the target may be walked itself, or
    odd, so some are not.  A random vertex leads into a chain of one
    that runs into a cycle of two, each of the three answering at
    random, and in about a third of the games a new initial vertex,
    answering nothing, leads to the old one."""
    streett_game = isinstance(game, CostStreettGame)
    owners = dict(game.owner)
    if streett_game:
        def cost():
            return tuple(rng.randint(0, 2) for _ in range(game.d))
        old_edges = [(e.source, e.target, tuple(e.costs)) for e in game.edges]
        answers = dict(game.answer_mask)
    else:
        top = 1 if game.encoding == "unary" else 3
        def cost():
            return rng.randint(0, top)
        old_edges = [(e.source, e.target, e.cost) for e in game.edges]
        colors = dict(game.color)
    edges = []

    def vertex(like=None):
        """A new vertex answering part of what ``like`` answers, or at
        random among all answers if ``like`` is None, or nothing if it
        is the new vertex itself (-1)."""
        v = len(owners)
        owners[v] = rng.randint(0, 1)
        if streett_game:
            most = (1 << game.d) - 1 if like is None else 0 if like == -1 else answers[like]
            answers[v] = rng.randint(0, (1 << game.d) - 1) & most
        else:
            most = max(colors.values()) if like is None else 0 if like == -1 else colors[like]
            colors[v] = 2 * rng.randint(0, most // 2)
        return v

    def chain(u, t, length, w):
        for _ in range(length):
            p = vertex(t)
            edges.append((u, p, w))
            u, w = p, cost()
        edges.append((u, t, w))

    for u, t, w in old_edges:
        if t == game.initial or rng.random() < 0.3:
            chain(u, t, rng.randint(1, 3), w)
        else:
            edges.append((u, t, w))
    u, p, q, x = rng.choice(sorted(game.owner)), vertex(), vertex(), vertex()
    edges += [(u, x, cost()), (x, p, cost()), (p, q, cost()), (q, p, cost())]
    initial = game.initial
    if rng.random() < 0.33:
        initial = vertex(-1)
        edges.append((initial, game.initial, cost()))
    if streett_game:
        pairs = tuple(StreettPair(pair.requests, frozenset(v for v, a in answers.items()
                                                           if a >> c & 1))
                      for c, pair in enumerate(game.pairs))
        return CostStreettGame(tuple(Vertex(v, o, 0) for v, o in owners.items()),
                               tuple(StreettEdge(*e) for e in edges), pairs, initial)
    return make_game([(v, o, colors[v]) for v, o in owners.items()], edges, initial,
                     game.encoding)


def random_strategy(rng, game, player: int, size: int) -> StrategySpec:
    """A random ``size``-state strategy of ``player`` in ``game`` (a
    CostGame or a CostStreettGame): random updates and moves."""
    keys = list(game.update_key.values())
    update = {(m, ek): rng.randrange(size) for m in range(size) for ek in keys}
    next_move = {(v, m): rng.choice(game.successors[v])[0]
                 for v, o in sorted(game.owner.items()) if o == player
                 for m in range(size)}
    return StrategySpec(player, tuple(range(size)), 0, update, next_move)


def tracker_queries(rng, tracker, steps):
    """A shuffled stream of update queries (o, r, cost, target): each
    request function a random walk over ``steps`` meets, paired with
    every step in ``steps``, under the overflow counters 0, n−1, n and
    one random value, so each (r, cost, target) repeats under several o."""
    n = tracker.n
    seen = {}  # ordered, unlike a set of tuples holding None
    o, r = tracker.initial_state()
    for _ in range(30):
        seen[r] = None
        cost, t = rng.choice(steps)
        o, r, _ = tracker.update(o, r, cost, t)
    queries = [(o, r, cost, t) for r in seen for cost, t in steps
               for o in (0, n - 1, n, rng.randint(0, n))]
    rng.shuffle(queries)
    return queries


def fresh_tracker(make_tracker, game, bound):
    """``make_tracker(game, bound)`` built against empty span tables, so
    every entry it reads it fills itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_SPANS", {})
        return make_tracker(game, bound)


def check_span_tables(rng, make_tracker, cases, monkeypatch):
    """Trackers made by ``make_tracker`` over ``cases`` ((game, bound,
    steps) triples) answer every ``tracker_queries`` query like a fresh
    tracker, through the span tables they share: one table per (d, field
    width), each entry the fields word of its mask, each table within
    ``_SPAN_LIMIT``.  Run once with the real limit and once with a limit
    of 2, past which the tables are cleared on the way.  Returns the
    shapes seen, each with one of its trackers."""
    for limit in (reduction._SPAN_LIMIT, 2):
        monkeypatch.setattr(reduction, "_SPANS", {})
        monkeypatch.setattr(reduction, "_SPAN_LIMIT", limit)
        shapes = {}
        cleared = False
        for g, b, steps in cases:
            queries = tracker_queries(rng, make_tracker(g, b), steps)
            shared = make_tracker(g, b)
            for q in queries:
                assert shared.update(*q) == fresh_tracker(make_tracker, g, b).update(*q), q
                assert len(shared._spans) <= limit
            # one charge entry per distinct edge cost queried
            assert len(shared._clamped) <= len({cost for _, _, cost, _ in queries})
            shape = (shared.d, shared._field.bit_length())
            assert shared._spans is reduction._SPANS[shape]
            shapes.setdefault(shape, shared)
            cleared |= len({r & shared._low for _, r, _, _ in queries}) > limit
        # trackers of different shapes never share a table
        assert set(reduction._SPANS) == set(shapes)
        assert len({id(table) for table in reduction._SPANS.values()}) == len(shapes)
        for shape, table in reduction._SPANS.items():
            tr = shapes[shape]
            assert all(0 <= mask <= tr._low and word == tr._fields(mask)
                       for mask, word in table.items())
        assert cleared == (limit == 2)
    # a full table is cleared before the next entry goes in
    tr = next(tr for tr in shapes.values() if tr.d >= 2)
    tr._spans.clear()
    spans = [tr._span(mask) for mask in (0, 1, 2)]
    assert spans == [tr._fields(mask) for mask in (0, 1, 2)]
    assert tr._spans == {2: tr._fields(2)}
    return shapes


# --- oracles: the tracked product and the parity tracker step ----------------

def oracle_quiet(game) -> frozenset[int]:
    """The vertices that request and answer nothing, read off colors
    and pairs: in a cost-parity game those of an even color with no odd
    color in use below it, in a cost-Streett game those in no pair."""
    if isinstance(game, CostStreettGame):
        paired = set().union(*(p.requests | p.answers for p in game.pairs))
        return frozenset(v for v in game.owner if v not in paired)
    return frozenset(v for v, c in game.color.items()
                     if c % 2 == 0 and not any(o < c for o in game.odd_colors))


def oracle_pass_through(game) -> frozenset[int]:
    """The pass-through vertices: quiet ones (``oracle_quiet``) with one
    successor."""
    return frozenset(v for v in oracle_quiet(game) if len(game.successors[v]) == 1)


def oracle_exit(v, forced_next, answer):
    """The exit of ``v`` if the walked rule walks it, else None, read
    off v's forced chain alone.  ``forced_next(u)`` is u's one successor
    if u is forced (one successor, no request), else None, and
    ``answer(u)`` is u's answer mask.  The chain is listed forward from
    v until it meets a vertex that is not forced, its end, or repeats
    one.  With an end, it is settled backward: each forced vertex is
    walked iff its answers lie within those of the first vertex after
    it that is not walked, which is its exit.  A chain that repeats a
    vertex runs into a cycle: there v is walked iff it answers nothing
    and some vertex ahead of it answers something, the first of which
    is its exit."""
    u = forced_next(v)
    if u is None:
        return None
    chain = [v]
    while forced_next(u) is not None and u not in chain:
        chain.append(u)
        u = forced_next(u)
    if u in chain:
        return None if answer(v) else next((x for x in chain[1:] if answer(x)), None)
    exit_of = {}
    for x in reversed(chain):
        if answer(x) & ~answer(u):
            u = x
        else:
            exit_of[x] = u
    return exit_of.get(v)


def _forced_next(game):
    request, succ = oracle_masks(game)[0], oracle_successors(game)
    return lambda u: succ[u][0][0] if len(succ[u]) == 1 and not request[u] else None


def oracle_walked(game) -> frozenset[int]:
    """The walked vertices, each settled on its own chain
    (``oracle_exit``), and the pass-through ones (``oracle_pass_through``),
    which count as walked also on a cycle of them, where moves into them
    keep their targets."""
    answer = oracle_masks(game)[1]
    forced_next = _forced_next(game)
    return frozenset(v for v in game.owner
                     if oracle_exit(v, forced_next, answer.__getitem__) is not None) \
        | oracle_pass_through(game)


def per_pair(charge, d: int) -> tuple:
    """A row charge of ``core._walk_rows`` as a tuple of one cost per
    pair: an int is every pair's and a Streett cost tuple has one
    already; of (total, cuts), each pair pays the total (the int, or its
    entry) less the cost of the first cut whose mask holds it, if any."""
    if isinstance(charge, int):
        return (charge,) * d
    if not isinstance(charge[-1], tuple):
        return tuple(charge)
    total, cuts = charge
    totals = (total,) * d if isinstance(total, int) else total
    out = []
    for c in range(d):
        cut = next((cut for m, cut in cuts if m >> c & 1), 0)
        out.append(totals[c] - (cut if isinstance(cut, int) else cut[c]))
    return tuple(out)


def oracle_charge_rows(successors, answer, d: int, through, initial=None) -> dict[int, tuple]:
    """``core._walk_rows`` of the rows ``successors`` (id → ((target,
    cost), ...)) with ``answer`` masks over the vertices ``through``,
    each charge per pair (``per_pair``): every move walked edge by edge
    to the first vertex that is not in ``through``, each pair charged
    the costs up to the first vertex on the way that answers it, or all
    of them.  A move whose walk meets a cycle, or whose end another move
    of the row reaches too, keeps its own target.  With ``initial``
    given, the row of a vertex of ``through`` is walked only if it is
    ``initial`` or a target that some row keeps, and is its successors
    row otherwise."""
    def costs(w):
        return per_pair(w, d)

    rows = {}
    for u, row in successors.items():
        walks = []
        for t, w in row:
            path, x, seen = [(t, costs(w))], t, {t}
            while x in through:
                x, w2 = successors[x][0]
                if x in seen:
                    path = None
                    break
                seen.add(x)
                path.append((x, costs(w2)))
            if path is None:
                walks.append(None)
                continue
            charge = []
            for c in range(d):
                total = 0
                for x, cs in path:
                    total += cs[c]
                    if answer[x] >> c & 1:
                        break
                charge.append(total)
            walks.append((path[-1][0], tuple(charge)))
        ends = Counter(t if walk is None else walk[0] for walk, (t, _) in zip(walks, row))
        rows[u] = tuple(walk if walk is not None and (walk[0] == t or ends[walk[0]] == 1)
                        else (t, costs(w)) for walk, (t, w) in zip(walks, row))
    if initial is not None:
        kept = {t for row in rows.values() for t, _ in row} | {initial}
        for u in through - kept:
            rows[u] = tuple((t, costs(w)) for t, w in successors[u])
    return rows


# --- the arena views derived one by one, straight from the vertices and
# edges: the oracles of ``core._Arena``'s shared passes and of the QBF
# distance audit's searches (test_arena_views) --------------------------------

def _oracle_plus(a, b):
    return a + b if isinstance(a, int) else tuple(map(operator.add, a, b))


def oracle_successors(game) -> dict[int, tuple]:
    """id → ((target, cost), ...), targets ascending: a list per vertex
    filled edge by edge and sorted; a Streett edge's cost is its cost
    tuple."""
    streett_game = isinstance(game, CostStreettGame)
    out = {v.id: [] for v in game.vertices}
    for e in game.edges:
        if e.source in out:
            out[e.source].append((e.target, tuple(e.costs) if streett_game else e.cost))
    return {u: tuple(sorted(ts)) for u, ts in out.items()}


def oracle_masks(game) -> tuple[dict, dict]:
    """(request mask, answer mask) per id: in a cost-parity game bit i
    is the i-th odd color in use, requested by a vertex of that color and
    answered by one of an even color above it; in a cost-Streett game
    bit c is pair c, requested (answered) by the vertices of Q_c (P_c)."""
    ids = [v.id for v in game.vertices]
    if isinstance(game, CostStreettGame):
        request, answer = dict.fromkeys(ids, 0), dict.fromkeys(ids, 0)
        for c, pair in enumerate(game.pairs):
            for v in pair.requests:
                request[v] |= 1 << c
            for v in pair.answers:
                answer[v] |= 1 << c
        return request, answer
    odd = sorted({v.color for v in game.vertices if v.color % 2 == 1})
    bit = {c: 1 << i for i, c in enumerate(odd)}
    color = {v.id: v.color for v in game.vertices}
    mask = {c: 0 if c % 2 else sum(1 << i for i, o in enumerate(odd) if o < c)
            for c in set(color.values())}
    return ({v.id: bit.get(v.color, 0) for v in game.vertices},
            {v: mask[c] for v, c in color.items()})


def oracle_exit_rows(successors, through) -> dict[int, tuple]:
    """``core._walk_rows`` the plain way: a chain walked from every
    pass-through vertex, and every row rebuilt move by move."""
    ahead = {}  # pass-through vertex → (its exit, the chain's cost from it), None on a cycle
    for p in through:
        path = []
        v = p
        while v in through and v not in ahead:
            ahead[v] = None  # met again on this walk, it closes a cycle
            path.append(v)
            v = successors[v][0][0]
        end = ahead[v] if v in through else (v, None)
        for q in reversed(path):
            if end is not None:
                w = successors[q][0][1]
                end = (end[0], w if end[1] is None else _oracle_plus(w, end[1]))
            ahead[q] = end
    rows = {}
    for u, row in successors.items():
        out = [(ahead[t][0], _oracle_plus(w, ahead[t][1])) if ahead.get(t) else (t, w)
               for t, w in row]
        targets = [t for t, _ in out]
        if len(set(targets)) < len(targets):
            out = [move if move[0] == t or targets.count(move[0]) == 1 else (t, w)
                   for move, (t, w) in zip(out, row)]
        rows[u] = tuple(out)
    return rows


def oracle_views(game) -> dict:
    """Every view of ``core._Arena`` (and a CostGame's odd colors), each
    derived on its own from the vertices and edges; the charges of
    ``walked_exits`` per pair (``per_pair``)."""
    successors = oracle_successors(game)
    request, answer = oracle_masks(game)
    through = frozenset(v for v, row in successors.items()
                        if len(row) == 1 and not request[v] and not answer[v])
    streett_game = isinstance(game, CostStreettGame)
    views = {
        "owner": {v.id: v.owner for v in game.vertices},
        "successors": successors,
        "request_mask": request,
        "answer_mask": answer,
        "pass_through": through,
        "exits": oracle_exit_rows(successors, through),
        "walked": oracle_walked(game),
        "edge_cost": {(e.source, e.target): tuple(e.costs) if streett_game else e.cost
                      for e in game.edges},
        "update_key": {(e.source, e.target): (e.source, 0 if streett_game else e.cost, e.target)
                       for e in game.edges},
    }
    views["walked_exits"] = oracle_charge_rows(successors, answer, game.d, views["walked"],
                                               game.initial)
    if not streett_game:
        views["color"] = {v.id: v.color for v in game.vertices}
        views["odd_colors"] = tuple(sorted({v.color for v in game.vertices if v.color % 2}))
    return views


def oracle_audit_maps(game) -> tuple[dict, dict]:
    """The QBF distance audit's two maps, built directly: id → the
    sources of the edges into it, and id → its successors' targets."""
    pred = {v.id: [] for v in game.vertices}
    for e in game.edges:
        pred[e.target].append(e.source)
    succ = {u: [t for t, _ in moves] for u, moves in oracle_successors(game).items()}
    return pred, succ


def oracle_bfs_dist(neighbours, source: int, depth: int) -> dict[int, int]:
    """Step distances from ``source`` along ``neighbours`` (vertex →
    vertices), one frontier list per step, up to ``depth`` steps."""
    dist = {source: 0}
    frontier = [source]
    for k in range(1, depth + 1):
        nxt = []
        for u in frontier:
            for t in neighbours[u]:
                if t not in dist:
                    dist[t] = k
                    nxt.append(t)
        frontier = nxt
    return dist


def walked_row(game, tracker, through, o, r, moves):
    """(target, o', r', overflowed) per move (t, w) from (o, r), each
    move into a vertex of ``through`` stepped on, edge by edge, to the
    first vertex that is not one; overflowed if any step did.  A move
    whose walk meets a cycle of them, or whose end another move of the
    row reaches too, keeps its own target."""
    first = [(t, *tracker.update(o, r, w, t)) for t, w in moves]
    walked = []
    for t, o2, r2, over in first:
        v, seen = t, {t}
        while v in through:
            v, w = game.successors[v][0]
            if v in seen:  # a cycle of pass-through vertices
                v = None
                break
            seen.add(v)
            o2, r2, step_over = tracker.update(o2, r2, w, v)
            over |= step_over
        walked.append(None if v is None else (v, o2, r2, over))
    ends = Counter(t if end is None else end[0] for end, (t, *_) in zip(walked, first))
    return [end if end is not None and (end[0] == t or ends[end[0]] == 1) else (t, *rest)
            for end, (t, *rest) in zip(walked, first)]


def direct_tracked_product(game, tracker, skip: bool = False):
    """The flat tracked product by a direct breadth-first search over
    (v, o, r) from (v_I, 0, r_{v_I}), stepping ``tracker`` on every
    edge: (states, successor rows, overflow edges (i, j)).  With
    ``skip``, moves are walked on through walked vertices
    (``oracle_walked``, ``walked_row``), as the level product
    takes them."""
    through = oracle_walked(game) if skip else frozenset()
    start = (game.initial, *tracker.initial_state())
    index = {start: 0}
    order = [start]
    succ, overflow_edges = [], set()
    for i, (v, o, r) in enumerate(order):  # grows while it is walked
        row = []
        for key in walked_row(game, tracker, through, o, r, game.successors[v]):
            key, overflowed = key[:3], key[3]
            if key not in index:
                index[key] = len(order)
                order.append(key)
            j = index[key]
            if overflowed:
                overflow_edges.add((i, j))
            row.append(j)
        succ.append(tuple(row))
    return tuple(order), tuple(succ), frozenset(overflow_edges)


class FullLevelProduct(_LevelProduct):
    """The level product searched without the pass-through skip: a node
    per (vertex, request word) that a step along one arena edge reaches,
    kept as the oracle of the search that walks moves on to their exits.
    It takes the rows argument of ``_LevelProduct`` and ignores it."""

    def __init__(self, game, tracker, budget: int, what: str, rows=None):
        self.game = game
        self.budget = budget
        self.what = what
        moves = game.successors
        update = tracker.update
        _, r0 = tracker.initial_state()
        index: dict[tuple[int, int], int] = {(game.initial, r0): 0}
        order: list[tuple[int, int]] = [(game.initial, r0)]
        succ: list[tuple[int, ...]] = []
        pred: list[list[int]] = [[]]
        over: dict[int, list[int]] = {}  # the rows with an overflow move
        for i, (v, r) in enumerate(order):  # grows while it is walked
            row = []
            for t, w in moves[v]:
                _, r2, ovf = update(0, r, w, t)
                key = (t, r2)
                j = index.get(key)
                if j is None:
                    j = len(order)
                    if j >= budget:
                        raise BudgetExceededError(f"{what} exceeds budget {budget} states")
                    index[key] = j
                    order.append(key)
                    pred.append([])
                if ovf:
                    over.setdefault(i, []).append(j)
                else:
                    pred[j].append(i)
                row.append(j)
            succ.append(tuple(row))
        self.nodes = order
        self.index = index
        self.succ = tuple(succ)
        self.pred = tuple(pred)
        self.overflow = {i: frozenset(js) for i, js in over.items()}


def full_level_product(game, tracker) -> FullLevelProduct:
    return FullLevelProduct(game, tracker, DEFAULT_PRODUCT_BUDGET, "full level product")


class FullParityLevels(_ParityLevels, FullLevelProduct):
    """The layered parity engine on the full level product, which its
    certificates read too."""

    certified = property(lambda self: self)


class FullStreettLevels(_StreettLevels, FullLevelProduct):
    """The layered Streett engine on the full level product, which its
    certificates read too."""

    certified = property(lambda self: self)


def full_streett_reduction(game: CostStreettGame, bound: int) -> StreettReduction:
    """``build_streett_reduction`` on the full level product."""
    states, rows = full_level_product(game, StreettTracker(game, bound)).unroll()
    request, answer, saturation = game.request_mask, game.answer_mask, 1 << game.d
    qmask = tuple(request[v] | saturation if o >= game.n else request[v] for v, o, _ in states)
    pmask = tuple(answer[v] for v, _, _ in states)
    sg = StreettGame(tuple(game.owner[v] for v, _, _ in states), rows, qmask, pmask,
                     game.d + 1, 0)
    return StreettReduction(game, bound, sg, states, {st: i for i, st in enumerate(states)})


def pushed_play(game, bound: int, vertices) -> _PrefixStack:
    """The play ``vertices`` from the initial vertex on a
    ``reduction._PrefixStack``, each step tracked at its edge's cost and
    no shortcut taken."""
    assert vertices[0] == game.initial
    stack = _PrefixStack(game, bound)
    o, r = stack.tracker.initial_state()
    stack.push(game.initial, o, r, 0)
    for u, v in zip(vertices, vertices[1:]):
        w = game.edge_cost[(u, v)]
        o, r, _ = stack.tracker.update(o, r, w, v)
        stack.push(v, o, r, w)
    return stack


def eight_vertex_trace_game():
    """A Player 0 path 0 → 1 → … → 7 with a self-loop at 7: colors
    3, 0, 1, 1, 2, 4, 1, 0 and edge costs 0, 1, 1, 0, 1, 1, 1 (and 1)."""
    colors = [3, 0, 1, 1, 2, 4, 1, 0]
    costs = [0, 1, 1, 0, 1, 1, 1]
    verts = [(i, 0, c) for i, c in enumerate(colors)]
    edges = [(i, i + 1, w) for i, w in enumerate(costs)] + [(7, 7, 1)]
    return make_game(verts, edges, 0)


def check_tracking_trace() -> None:
    """The play 0, 1, …, 7 of ``eight_vertex_trace_game`` pushed at
    bound 2 (``pushed_play``) reproduces the reference trace: the
    overflow count and the entries of the odd colors 1 and 3 at every
    position, and the cumulative costs."""
    stack = pushed_play(eight_vertex_trace_game(), 2, range(8))
    table = [  # (o, r(1), r(3)) row for row
        (0, None, 0), (0, None, 0), (0, 0, 1), (0, 1, 2),
        (0, None, 2), (1, None, None), (1, 0, None), (1, 1, None)]
    for i, (o, r1, r3) in enumerate(table):
        assert (stack.overflows[i], stack.tracker.unpack(stack.requests[i])) == \
            (o, (r1, r3)), i
    assert stack.cum == [0, 0, 1, 2, 2, 3, 4, 5]


def dominated(a, b) -> bool:
    """(o, r) ⊑ (o', r') on memory states with request tuples."""
    (oa, ra), (ob, rb) = a, b
    return oa < ob or oa == ob and reduction._r_dominated(ra, rb)


def check_domination_stability(rng: random.Random) -> int:
    """⊑ is kept by every memory step: for 50 random games from ``rng``
    with n ≤ 3, colors ≤ 4 (so d ≤ 2) and b ≤ 2, every pair of memory
    states (o1, r1) ⊑ (o2, r2), o2 below saturation, steps along every
    edge to a pair in ⊑.  Returns the number of ⊑-pairs checked."""
    checked = 0
    for _ in range(50):
        g = random_cost_game(rng, rng.randint(1, 3), 4)
        b = rng.randint(0, 2)
        tr = Tracker(g, b)
        values = [None] + list(range(b + 1))
        rs = list(itertools.product(values, repeat=tr.d))
        states = [(o, r) for o in range(g.n + 1) for r in rs]
        for o1, r1 in states:
            for o2, r2 in states:
                if o2 >= g.n or not dominated((o1, r1), (o2, r2)):
                    continue
                checked += 1
                for e in g.edges:
                    o1n, r1n, _ = tr.update(o1, tr.pack(r1), e.cost, e.target)
                    o2n, r2n, _ = tr.update(o2, tr.pack(r2), e.cost, e.target)
                    assert dominated((o1n, tr.unpack(r1n)), (o2n, tr.unpack(r2n))), \
                        (r1, r2, o1, o2, e)
    return checked


def parity_initial_r(game, vertex):
    """r_v on colors: Ω(v) ↦ 0 for an odd Ω(v), every other color ⊥."""
    return tuple(0 if c == game.color[vertex] else None for c in game.odd_colors)


def parity_step(game, bound, o, r, cost, target):
    """The tracker step of a cost-parity game on colors, in four parts:
    add the cost to the open requests; reset r and bump o on an excess
    over the bound; close the odd colors below an even target color;
    open the target's own odd color.  Returns (o', r', overflowed)."""
    colors = game.odd_colors
    r = [x if x is None else x + cost for x in r]
    overflowed = any(x is not None and x > bound for x in r)
    if overflowed:
        r = [None] * len(colors)
        o = min(o + 1, game.n)
    tc = game.color[target]
    if tc % 2 == 0:
        r = [None if c < tc else x for c, x in zip(colors, r)]
    elif r[colors.index(tc)] is None:
        r[colors.index(tc)] = 0
    return o, tuple(r), overflowed


def streett_initial_r(game, vertex):
    """r_v on pairs: pair c ↦ 0 if v requests c without answering it,
    every other pair ⊥."""
    return tuple(0 if vertex in p.requests and vertex not in p.answers else None
                 for p in game.pairs)


def streett_step(game, bound, o, r, costs, target):
    """The tracker step of a cost-Streett game on its pairs, in four
    parts: add each pair's own cost to its open entry; reset r and bump
    o on an excess over the bound; close the pairs the target answers;
    open the pairs it requests and leaves unanswered.  Returns (o', r',
    overflowed)."""
    r = [x if x is None else x + w for x, w in zip(r, costs)]
    overflowed = any(x is not None and x > bound for x in r)
    if overflowed:
        r = [None] * game.d
        o = min(o + 1, game.n)
    for c, pair in enumerate(game.pairs):
        if target in pair.answers:
            r[c] = None
        elif target in pair.requests and r[c] is None:
            r[c] = 0
    return o, tuple(r), overflowed


# --- oracle: the flat explicit product solved all at once ------------------

def flat_parity_game(game, bound: int):
    """The tracked product at ``bound`` as one classical parity game,
    read off ``direct_tracked_product``: (its states (v, o, r), the
    ParityGame), each state with its vertex's owner and color Ω(v), or
    color 1 once o = n."""
    states, succ, _ = direct_tracked_product(game, Tracker(game, bound))
    owners = tuple(game.owner[v] for v, _, _ in states)
    colors = tuple(game.color[v] if o < game.n else 1 for v, o, _ in states)
    return states, ParityGame(owners, colors, succ, 0)


def product_winner(res, v: int, o: int, r: int) -> int:
    """Who wins the state (v, o, r) of a layered decision ``res`` (parity
    or Streett), r a request word of its tracker, read off the iterate
    that serves level o.  A state at a walked vertex that is no node is
    read where its chain leads, stepped edge by edge; KeyError if that
    is not a node.  The walked vertices include the pass-through ones,
    so this reads an engine on either kind of rows."""
    game = res.game
    through = game.walked  # equal to ``oracle_walked`` (test_arena_views)
    if (v, r) not in res.index and v in through:
        tracker = (StreettTracker if isinstance(game, CostStreettGame) else Tracker)(
            game, res.bound)
        seen = {v}
        while (v, r) not in res.index and v in through:
            t, w = game.successors[v][0]
            o, r, _ = tracker.update(o, r, w, t)
            v = t
            if v in seen:
                break
            seen.add(v)
    if o >= game.n:
        return 1
    node = res.index.get((v, r))
    if node is None:
        raise KeyError(f"state ({v},{o},{r}) not reachable in the product")
    return 0 if node in res.iterates[res._iterate_index(o)][0] else 1


class FlatSolveInfo:
    """``product_winner`` of the layered engine, backed by the flat
    product of every overflow level (``flat_parity_game``), solved whole."""

    def __init__(self, game, bound: int):
        self.states, pg = flat_parity_game(game, bound)
        self._w0 = _solve_all(pg)[0]
        self._index = {st: i for i, st in enumerate(self.states)}

    def winner(self, v: int, o: int, r: tuple) -> int:
        i = self._index.get((v, o, r))
        if i is None:
            raise KeyError(f"state ({v},{o},{r}) not reachable in the product")
        return 0 if i in self._w0 else 1


class _EagerParityLevels(_ParityLevels):
    """The layered engine with every level game solved whole by
    ``_solve_all``, keeping both players' moves in the iterates."""

    def solve_level(self, succ, pred, prev):
        w0, _, s0, s1 = _solve_all(self.classical_game(succ, pred))
        return (frozenset(v for v in w0 if v < self.size),
                self.project_moves(s0, prev), self.project_moves(s1, prev))


def eager_parity_levels(game, bound: int) -> list[tuple]:
    """The layered engine's iterates with every level game solved whole
    by ``_solve_all``: (Player 0's winners, Player 0's moves, Player 1's
    moves) per level, the moves projected to arena successors."""
    return _EagerParityLevels(game, bound, DEFAULT_PRODUCT_BUDGET).iterates


class _EagerStreettLevels(_StreettLevels):
    """The layered Streett engine with every level game solved whole by
    ``solve_streett``."""

    def solve_level(self, succ, pred, prev):
        return (frozenset(v for v in solve_streett(self.classical_game(succ, pred)).win0
                          if v < self.size),)


def eager_streett_levels(game, bound: int) -> list[tuple]:
    """The layered Streett engine's iterates with every level game
    solved whole by ``solve_streett``: (Player 0's winners,) per level."""
    return _EagerStreettLevels(game, bound, DEFAULT_PRODUCT_BUDGET).iterates


def lifted_pairs(game: CostStreettGame, vertices, saturated) -> tuple[tuple, tuple]:
    """(Q, P): the game's pairs lifted to the product ids i with arena
    vertex ``vertices[i]`` as frozensets, then the saturation pair
    (``saturated``, ∅)."""
    def lift(mask):
        return tuple(frozenset(i for i, v in enumerate(vertices) if mask[v] >> c & 1)
                     for c in range(game.d))
    return (lift(game.request_mask) + (frozenset(saturated),),
            lift(game.answer_mask) + (frozenset(),))


def lifted_streett_view(n: int, pairs_q, pairs_p) -> dict:
    """What a classical Streett game on ids 0..n−1 with the pairs
    (``pairs_q[c]``, ``pairs_p[c]``) shows its readers, derived from the
    pairs' sets alone: d, each id's request and answer masks, and the
    (request, answer) patterns numbered in order of first appearance
    over the ids, with each id's number."""
    qmask, pmask = pair_masks(n, pairs_q), pair_masks(n, pairs_p)
    number: dict[tuple[int, int], int] = {}
    pattern_of = [number.setdefault(key, len(number)) for key in zip(qmask, pmask)]
    return {"d": len(pairs_q), "qmask": qmask, "pmask": pmask,
            "patterns": (pattern_of, [q for q, _ in number], [p for _, p in number])}


def streett_view(sg: StreettGame) -> dict:
    """``lifted_streett_view``'s fields as ``sg`` reads them."""
    return {"d": sg.d, "qmask": sg.qmask, "pmask": sg.pmask, "patterns": sg.patterns}


# --- oracle: play cost by unrolling ------------------------------------------

def unrolled_play_cost(game, lasso: Lasso, horizon_factor: int = 4):
    """limsup of Cor computed on a long explicit unrolling."""
    p, c = len(lasso.prefix), len(lasso.cycle)
    start = p + horizon_factor * c
    horizon = start + 3 * c

    def color(j):
        return game.color[lasso.vertex_at(j)]

    def cost(j):
        return game.edge_cost[(lasso.vertex_at(j), lasso.vertex_at(j + 1))]

    def cor_at(j):
        req = color(j)
        if req % 2 == 0:
            return 0
        total = 0
        for k in range(j, horizon + 2 * c):
            if color(k) % 2 == 0 and color(k) >= req:
                return total
            total += cost(k)
        return INF

    return max(cor_at(j) for j in range(start, start + c))


def unrolled_streett_play_cost(game, lasso: Lasso, horizon_factor: int = 4):
    """limsup of StCor computed on a long explicit unrolling, pair by
    pair: each pair's own edge costs from a position that requests it
    (and does not answer it on the spot) to the pair's next answer."""
    p, c = len(lasso.prefix), len(lasso.cycle)
    start = p + horizon_factor * c
    horizon = start + 3 * c
    costs = {(e.source, e.target): e.costs for e in game.edges}

    def pair_cor_at(j, i, pair):
        v = lasso.vertex_at(j)
        if v not in pair.requests or v in pair.answers:
            return 0
        total = 0
        for k in range(j, horizon + 2 * c):
            if k > j and lasso.vertex_at(k) in pair.answers:
                return total
            total += costs[(lasso.vertex_at(k), lasso.vertex_at(k + 1))][i]
        return INF

    return max(pair_cor_at(j, i, pair) for j in range(start, start + c)
               for i, pair in enumerate(game.pairs))


def random_lasso(rng, game, most: int = 7):
    """A lasso of ``game`` from a random walk of 1..``most`` steps from
    the initial vertex, closed at the walk's last vertex where it first
    occurred; None when that vertex occurs only once."""
    walk = [game.initial]
    for _ in range(rng.randint(1, most)):
        walk.append(rng.choice(game.successors[walk[-1]])[0])
    first = walk.index(walk[-1])
    if first == len(walk) - 1:
        return None
    return Lasso(tuple(walk[:first]), tuple(walk[first:-1]))


# --- oracle: parity winner by positional enumeration --------------------------

def brute_parity_winner(owners, colors, succ, initial) -> int:
    """0 iff some positional Player 0 strategy makes every reachable
    cycle even-dominated."""
    n = len(owners)
    p0 = [v for v in range(n) if owners[v] == 0]
    for combo in itertools.product(*[succ[v] for v in p0]) if p0 else [()]:
        choice = dict(zip(p0, combo))
        rows = [[choice[v]] if v in choice else list(succ[v]) for v in range(n)]
        if _all_reachable_cycles_even(rows, colors, initial):
            return 0
    return 1


def _all_reachable_cycles_even(rows, colors, initial) -> bool:
    seen = {initial}
    stack = [initial]
    while stack:
        v = stack.pop()
        for w in rows[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    # peel colors from the top: a cycle whose maximum is odd loses
    active = set(seen)
    while active:
        top = max(colors[v] for v in active)
        tops = {v for v in active if colors[v] == top}
        if top % 2 == 1 and _has_cycle_through(rows, active, tops):
            return False
        active -= tops
    return True


def _has_cycle_through(rows, active, targets) -> bool:
    from costparity.semantics import _sccs

    ids = sorted(active)
    index = {v: i for i, v in enumerate(ids)}
    sub = [[index[w] for w in rows[v] if w in active] for v in ids]
    for comp in _sccs(len(sub), sub):
        cyclic = len(comp) > 1 or any(x in sub[comp[0]] for x in comp)
        if cyclic and any(ids[k] in targets for k in comp):
            return True
    return False


# --- oracle: Streett winner by positional spoiler enumeration -----------------

def good_streett_cycle_exists(n, rows, qmask, pmask, ids=None) -> bool:
    from costparity.semantics import _sccs

    ids = list(range(n)) if ids is None else ids
    for comp in _sccs(n, rows):
        cyclic = len(comp) > 1 or any(x in rows[comp[0]] for x in comp)
        if not cyclic:
            continue
        q = p = 0
        for k in comp:
            q |= qmask[ids[k]]
            p |= pmask[ids[k]]
        viol = q & ~p
        if not viol:
            return True
        keep = [k for k in comp if not qmask[ids[k]] & viol]
        if not keep:
            continue
        pos = {k: i for i, k in enumerate(keep)}
        sub = [[pos[j] for j in rows[k] if j in pos] for k in keep]
        if good_streett_cycle_exists(len(keep), sub, qmask, pmask,
                                     [ids[k] for k in keep]):
            return True
    return False


def brute_streett_winner(sg) -> int:
    p1 = [v for v in range(sg.n) if sg.owners[v] == 1]
    for combo in itertools.product(*[sg.succ[v] for v in p1]) if p1 else [()]:
        tau = dict(zip(p1, combo))
        rows = [[tau[v]] if v in tau else list(sg.succ[v]) for v in range(sg.n)]
        seen = {sg.initial}
        stack = [sg.initial]
        while stack:
            v = stack.pop()
            for w in rows[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        ids = sorted(seen)
        pos = {v: i for i, v in enumerate(ids)}
        sub = [[pos[w] for w in rows[v]] for v in ids]
        if not good_streett_cycle_exists(len(ids), sub, sg.qmask, sg.pmask, ids):
            return 1
    return 0


# --- oracle: strategy cost by bisecting the bounded-cost decision -------------

def bisected_cost(decide, product) -> float:
    """Least b ≤ |product|·W with ``decide(product, b).achievable`` on the
    one-player product of a strategy; ∞ if even that cap fails.  On such
    a product the decision is the strategy's own bounded cost."""
    cap = product.n * max(1, product.max_cost)
    if not decide(product, cap).achievable:
        return INF
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if decide(product, mid).achievable:
            hi = mid
        else:
            lo = mid + 1
    return lo


# --- oracles: strategy costs by bound searches on walked strategy products ---

def strategy_walk(game, strat: StrategySpec, tracker=None, skip: bool = False):
    """Reachable product of ``game`` (a CostGame or a CostStreettGame)
    under ``strat``, breadth-first from the initial state, with the
    owner's moves fixed: states (vertex, memory, r), rows of successor
    ids in move order, and the matching overflow flags.  r is the
    request word of ``tracker`` at its bound, with the overflow
    counter held at 0 (``Tracker`` or ``streett.StreettTracker``), or
    None without a tracker.  Every edge is explored, overflow edges too.
    With ``skip``, a move into a walked (vertex, memory) pair walks on
    edge by edge to its exit, overflowing if any step does: the walked
    rule (``oracle_exit``) on the pairs, a pair forced if it has a
    single move and its vertex requests nothing, with its vertex's
    answers; a move whose end another move of the row reaches too keeps
    its own target.  Reaching
    ``DEFAULT_PRODUCT_BUDGET`` states raises ``BudgetExceededError``.
    The oracles' own BFS, independent of the verifier's
    ``reduction._LevelProduct``.
    """
    succ = game.successors
    owner = game.owner
    key = game.update_key
    cost = game.edge_cost
    request, answer = oracle_masks(game)

    def moves_of(v, m):
        return [strat.next_move[(v, m)]] if owner[v] == strat.player else [t for t, _ in succ[v]]

    def forced_next(pair):
        moves = moves_of(*pair)
        if len(moves) != 1 or request[pair[0]]:
            return None
        return moves[0], strat.update[(pair[1], key[(pair[0], moves[0])])]

    def step(v, m, r, t):
        r2, over = r, False
        if tracker is not None:
            _, r2, over = tracker.update(0, r, cost[(v, t)], t)
        return (t, strat.update[(m, key[(v, t)])], r2), over

    def walk(state, over):
        end = oracle_exit(state[:2], forced_next, lambda pair: answer[pair[0]]) if skip else None
        if end is None:
            return None
        while state[:2] != end:
            state, step_over = step(*state, moves_of(*state[:2])[0])
            over |= step_over
        return state, over

    start = (game.initial, strat.initial,
             None if tracker is None else tracker.initial_state()[1])
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = []
    ovf: list[list[bool]] = []
    for v, m, r in order:  # grows while it is walked
        first = [step(v, m, r, t) for t in moves_of(v, m)]
        ends = [walk(*move) for move in first]
        hits = Counter((state if end is None else end[0])[:2]
                       for end, (state, _) in zip(ends, first))
        row, orow = [], []
        for end, move in zip(ends, first):
            if end is not None and (end[0][:2] == move[0][:2] or hits[end[0][:2]] == 1):
                move = end
            state, over = move
            j = index.get(state)
            if j is None:
                j = len(order)
                if j >= DEFAULT_PRODUCT_BUDGET:
                    raise BudgetExceededError(
                        f"strategy product exceeds budget {DEFAULT_PRODUCT_BUDGET} states")
                index[state] = j
                order.append(state)
            row.append(j)
            orow.append(over)
        rows.append(row)
        ovf.append(orow)
    return order, rows, ovf


def walked_spoiler_cost(game, strat: StrategySpec, tracker_class) -> float:
    """Cst of the Player 1 strategy ``strat`` by the upward bound search
    on walked products: ∞ if the untracked τ-product has no good cycle,
    else the least b ≤ |product|·W (``core._least_bound``) at which a
    cycle of the τ-product tracked by ``tracker_class(game, b)`` takes
    no overflow edge and answers every pair it requests, ∞ if none."""
    order, rows, _ = strategy_walk(game, strat)
    if not _good_cycle(game, [s[0] for s in order], rows):
        return INF

    def fits(b):
        order, rows, ovf = strategy_walk(game, strat, tracker_class(game, b))
        calm = [[j for j, over in zip(row, orow) if not over]
                for row, orow in zip(rows, ovf)]
        return _good_cycle(game, [s[0] for s in order], calm), None

    value, _ = _least_bound(fits, 0, len(order) * max(1, game.max_cost))
    return INF if value is None else value


def searched_optimal_cost(game, decisions=None):
    """``optimal_cost``'s result by the plain upward search of
    ``solver._least_achievable``, with no classical bracket: every bound
    it probes is decided, and appended to ``decisions`` if given."""
    cap = clamp_bound(game, 10 ** 18)

    def decide(b):
        if decisions is not None:
            decisions.append(b)
        return decide_bounded_cost(game, b)

    return _least_achievable(decide, cap, cap)


def parity_optimal_corpus(unary: int = 400, binary: int = 200):
    """The parity games of the classical bracket's corpus: the 11
    family games (p0mem d=1–3, p1mem d=1–4, p1trade d=2–3, bintrade
    d=2–3), then the first ``unary`` of 400 unary games from
    ``random.Random(7)`` and the first ``binary`` of 200 binary ones
    from ``random.Random(8)``."""
    for family, ds in ((generators.p0_memory_family, (1, 2, 3)),
                       (generators.p1_memory_family, (1, 2, 3, 4)),
                       (generators.p1_tradeoff_family, (2, 3)),
                       (generators.binary_tradeoff_family, (2, 3))):
        for d in ds:
            yield family(d).game
    rng = random.Random(7)
    for _ in range(unary):
        yield random_cost_game(rng, rng.randint(3, 8), 4)
    rng = random.Random(8)
    for _ in range(binary):
        yield random_cost_game(rng, rng.randint(3, 6), 4, max_cost=3, encoding="binary")


def spoiler_corpus():
    """(game, Player 1 strategy) pairs of the lasso guess's corpus:
    3,000 random 1–3-state strategies on ``random_cost_game(rng, 3–7,
    5)`` from ``random.Random(11)``, alternately unary and binary with
    costs up to 3."""
    rng = random.Random(11)
    for k in range(3000):
        if k % 2:
            game = random_cost_game(rng, rng.randint(3, 7), 5, max_cost=3, encoding="binary")
        else:
            game = random_cost_game(rng, rng.randint(3, 7), 5)
        yield game, random_strategy(rng, game, 1, rng.randint(1, 3))


def tracked_strategy_cost(game, strat: StrategySpec, tracker_class) -> float:
    """Cst of the Player 0 strategy ``strat`` by a bound search over
    tracked products: ∞ if a cycle of the untracked σ-product opens some
    pair's request and never answers it; else the least b ≤ |product|·W
    (``core._least_bound``) at which no overflow edge of the σ-product
    tracked by ``tracker_class(game, b)`` lies on a cycle, ∞ if none."""
    order, rows, _ = strategy_walk(game, strat)
    verts = [s[0] for s in order]
    request, answer = game.request_mask, game.answer_mask
    for c in range(game.d):
        keep = [k for k, v in enumerate(verts) if not answer[v] >> c & 1]
        pos = {k: i for i, k in enumerate(keep)}
        sub = [[pos[j] for j in rows[k] if j in pos] for k in keep]
        for comp in _sccs(len(sub), sub):
            cyclic = len(comp) > 1 or comp[0] in sub[comp[0]]
            if cyclic and any(request[verts[keep[i]]] >> c & 1 for i in comp):
                return INF

    def fits(b):
        order, rows, ovf = strategy_walk(game, strat, tracker_class(game, b))
        comp_of = [0] * len(order)
        for k, comp in enumerate(_sccs(len(order), rows)):
            for i in comp:
                comp_of[i] = k
        return not any(over and comp_of[i] == comp_of[j]
                       for i, row in enumerate(rows) for j, over in zip(row, ovf[i])), None

    value, _ = _least_bound(fits, 0, len(order) * max(1, game.max_cost))
    return INF if value is None else value


def streett_strategy_product(game: CostStreettGame, strat: StrategySpec) -> CostStreettGame:
    """The reachable product of ``game`` with ``strat``, the owner's moves
    fixed, as a CostStreettGame whose pairs and costs are the arena's."""
    index = {(game.initial, strat.initial): 0}
    order = [(game.initial, strat.initial)]
    edges = []
    for i, (v, m) in enumerate(order):  # grows while it is walked
        moves = [strat.next_move[(v, m)]] if game.owner[v] == strat.player \
            else [t for t, _ in game.successors[v]]
        for t in moves:
            nxt = (t, strat.update[(m, game.update_key[(v, t)])])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            edges.append(StreettEdge(i, index[nxt], game.edge_cost[(v, t)]))
    pairs = tuple(StreettPair(frozenset(i for i, (v, _) in enumerate(order) if v in p.requests),
                              frozenset(i for i, (v, _) in enumerate(order) if v in p.answers))
                  for p in game.pairs)
    vertices = tuple(Vertex(i, game.owner[v], 0) for i, (v, _) in enumerate(order))
    return CostStreettGame(vertices, tuple(edges), pairs, 0)


# --- oracle: Streett certificates on the flat reduction ---------------------

def flat_streett_certificate(game: CostStreettGame, bound: int) -> StrategySpec:
    """The winner's certificate read off the full flat reduction at ``bound``
    (``full_streett_reduction``, pass-through vertices included),
    solved whole by ``solve_streett``.  Player 0's memory is the tracker
    state × her cell's state over the flat product, with her moves
    projected to the arena; Player 1 plays his cell's positional flat
    moves, with the overflow counter reset as in ``core._reset_spoiler``,
    each level a class of its own."""
    red = full_streett_reduction(game, bound)
    sol = solve_streett(red.streett)
    tr = StreettTracker(game, bound)
    succ = game.successors
    if sol.winner_from_initial == 1:
        cell = sol.cells[1]

        def move(v, o, r):
            i = red.index.get((v, o, r))
            j = None if i is None else cell.move(i, cell.init(i))
            return None if j is None else red.states[j][0]

        return _reset_spoiler(game, tr, move, lambda o: o)
    cell = sol.cells[0]

    def upd(label, ek):
        o, r, s = label
        src, _, t = ek
        o2, r2, _ = tr.update(o, r, game.edge_cost[(src, t)], t)
        j = red.index.get((t, o2, r2))
        return (o2, r2, None if j is None or s is None else cell.step(s, j))

    def nxt(v, label):
        o, r, s = label
        i = red.index.get((v, o, r))
        j = None if i is None or s is None else cell.move(i, s)
        return succ[v][0][0] if j is None else red.states[j][0]

    o0, r0 = tr.initial_state()
    return strategy_from_product(game, 0, (o0, r0, cell.init(0)), upd, nxt)


def stepwise_streett_certificate(levels) -> StrategySpec:
    """Player 0's certificate of a won layered Streett decision with her
    cell stepped at the node each edge enters, as on a level product
    with a node per edge step (``FullStreettLevels``): tracking memory ×
    the cell state of the level serving o; an overflow move restarts the
    cell at the node entered, in the cell one level up."""
    game = levels.game
    tr = StreettTracker(game, levels.bound)
    index = levels.index
    cells = {game.n: None}

    def cell(o):
        if o not in cells:
            cells[o] = levels.level_solve(levels._iterate_index(o))[0]
        return cells[o]

    def upd(label, ek):
        o, r, s = label
        src, _, t = ek
        o2, r2, overflowed = tr.update(o, r, game.edge_cost[(src, t)], t)
        c, j = cell(o2), index.get((t, r2))
        if c is None or j is None or (s is None and not overflowed):
            return (o2, r2, None)
        return (o2, r2, c.init(j) if overflowed else c.step(s, j))

    def nxt(v, label):
        o, r, s = label
        c, i = cell(o), index.get((v, r))
        j = None if c is None or i is None or s is None else c.move(i, s)
        if j is None:
            return game.successors[v][0][0]
        return levels.project(i, j, levels.prev(levels._iterate_index(o)))

    o0, r0 = tr.initial_state()
    return strategy_from_product(game, 0, (o0, r0, cell(o0).init(0)), upd, nxt)


# --- oracles: the spoiler's o_min in one walk, and the merge with sorted unions --

def walked_o_min(game, tracker, move, entries=None) -> dict[int, int]:
    """o_min as ``core._reset_spoiler`` found it before it searched level
    by level: v → the least o with (v, o, r_v) reachable under ``move``,
    in one walk over every reachable (v, o, r) state, one copy of the
    level graph per overflow value.  If ``entries`` is a dict, it
    collects per level o the entry set the per-level search starts
    from: the (t, r) pairs that overflow steps from level o−1 reach
    ((v_I, r_{v_I}) at level 0)."""
    succ = game.successors
    owner = game.owner
    cost = game.edge_cost
    n = game.n
    o0, r0 = tracker.initial_state()
    start = (game.initial, o0, r0)
    if entries is not None:
        entries.setdefault(o0, set()).add((game.initial, r0))
    seen = {start}
    stack = [start]
    o_min: dict[int, int] = {}
    while stack:
        v, o, r = stack.pop()
        if r == tracker.initial_r(v):
            o_min[v] = min(o, o_min.get(v, n))
        if o >= n:
            continue
        if owner[v] == 1:
            t = move(v, o, r)
            moves = [t] if t is not None else [succ[v][0][0]]
        else:
            moves = [t for t, _ in succ[v]]
        for t in moves:
            o2, r2, ovf = tracker.update(o, r, cost[(v, t)], t)
            if ovf and entries is not None:
                entries.setdefault(o2, set()).add((t, r2))
            key = (t, o2, r2)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return o_min


def walked_reset_spoiler(game, tracker, move, entries=None) -> StrategySpec:
    """``core._reset_spoiler`` with o_min from ``walked_o_min``."""
    succ, cost, n = game.successors, game.edge_cost, game.n
    o_min = walked_o_min(game, tracker, move, entries)

    def upd(label, ek):
        s, _, t = ek
        o2, r2, ovf = tracker.update(label[0], label[1], cost[(s, t)], t)
        return (o_min.get(t, n), r2) if ovf else (o2, r2)

    def nxt(v, label):
        t = move(v, *label)
        return t if t is not None else succ[v][0][0]

    return strategy_from_product(game, 1, (0, tracker.initial_r(game.initial)), upd, nxt)


def reference_merge(moves: list[dict], steps: list[dict]) -> list[int]:
    """``core._merge_compatible`` with a ``find`` function and a sorted
    pair per union: the merge the inlined loop replaced.  It reads the
    work factor from ``core._MERGE_WORK`` on each call, as the merge does."""
    parent = list(range(len(moves)))
    budget = core._MERGE_WORK * sum(len(m) + len(s) for m, s in zip(moves, steps))
    work = 0
    log: list = []  # undo: (table, key) of an added entry, (None, label) of a parent set

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def union(a, b) -> bool:
        nonlocal work
        pending = [(a, b)]
        while pending:
            a, b = sorted(map(find, pending.pop()))
            if a == b:
                continue
            work += 1
            if work > budget:
                return False
            parent[b] = a
            log.append((None, b))
            move, step = moves[a], steps[a]
            for v, t in moves[b].items():
                u = move.get(v)
                if u is None:
                    move[v] = t
                    log.append((move, v))
                elif u != t:
                    return False
            for ek, j in steps[b].items():
                k = step.get(ek)
                if k is None:
                    step[ek] = j
                    log.append((step, ek))
                else:
                    pending.append((k, j))
        return True

    classes: list[int] = []
    for x in range(len(moves)):
        if work > budget:
            break
        if find(x) != x:
            continue  # forced into the class of an earlier label
        for c in classes:
            if parent[c] == c and union(c, x):
                break
            while log:
                table, k = log.pop()
                if table is None:
                    parent[k] = k
                else:
                    del table[k]
            if work > budget:
                break
        else:
            classes.append(x)
        log.clear()
    return [find(i) for i in range(len(moves))]


# --- oracle: certificates tabulated without merging ---------------------------

DEAD_LABEL = "<dead>"


def dead_state_tabulation(game, player: int, initial_label, update_fn,
                          next_move_fn) -> StrategySpec:
    """``core.strategy_from_product`` before it merged memory states:
    the labels that consistent plays visit, numbered in discovery order,
    and a table total over M × E.  An update whose result is not a
    collected label goes to an absorbing dead state, labelled
    ``DEAD_LABEL``; the moves at pairs the DFS never reached are
    ``next_move_fn``'s own."""
    succ, key, owner = game.successors, game.update_key, game.owner
    edges = list(key.values())
    index = {initial_label: 0}
    labels = [initial_label]
    moves = {}
    seen = {(game.initial, initial_label)}
    stack = [(game.initial, initial_label)]
    while stack:
        v, m = stack.pop()
        if owner[v] == player:
            t = moves[(v, m)] = next_move_fn(v, m)
            targets = (t,)
        else:
            targets = [t for t, _ in succ[v]]
        for t in targets:
            m2 = update_fn(m, key[(v, t)])
            if m2 not in index:
                if (len(labels) + 1) * len(edges) > DEFAULT_PRODUCT_BUDGET:
                    raise BudgetExceededError(
                        f"strategy update table exceeds budget {DEFAULT_PRODUCT_BUDGET} entries")
                index[m2] = len(labels)
                labels.append(m2)
            if (t, m2) not in seen:
                seen.add((t, m2))
                stack.append((t, m2))
    dead = len(labels)
    update = {(i, ek): index.get(update_fn(m, ek), dead)
              for i, m in enumerate(labels) for ek in edges}
    owned = [v for v, o in owner.items() if o == player]
    next_move = {(v, i): moves[(v, m)] if (v, m) in moves else next_move_fn(v, m)
                 for v in owned for i, m in enumerate(labels)}
    if dead in update.values():
        labels.append(DEAD_LABEL)
        update.update(((dead, ek), dead) for ek in edges)
        next_move.update(((v, dead), succ[v][0][0]) for v in owned)
    return StrategySpec(player, tuple(labels), 0, update, next_move)


@contextlib.contextmanager
def unmerged_certificates():
    """Within the block, every certificate is tabulated by
    ``dead_state_tabulation`` instead of ``strategy_from_product``."""
    modules = (core, solver, streett)
    saved = [m.strategy_from_product for m in modules]
    for m in modules:
        m.strategy_from_product = dead_state_tabulation
    try:
        yield
    finally:
        for m, fn in zip(modules, saved):
            m.strategy_from_product = fn


# --- check: certificate move tables -------------------------------------------

def check_move_tables(res, players) -> int:
    """``res.move_function(player)`` of a layered decision answers like
    a direct read of the table of the level solve that serves o, at
    every node and overflow level and off the nodes, and it reads each
    level's table once.  Returns how many of its answers were moves."""
    n = res.game.n
    words = {r for _, r in res.nodes}
    off = [(v, r) for v in res.game.owner for r in sorted(words) if (v, r) not in res.index][:20]
    states = [(v, o, r) for o in reversed(range(n + 2)) for v, r in list(res.nodes) + off]
    moves = 0
    for player in players:
        reads = Counter()
        level_solve = res.level_solve

        def counted(k):
            reads[k] += 1
            return level_solve(k)

        res.level_solve = counted  # shadows the method on this instance
        try:
            move = res.move_function(player)
            got = [move(v, o, r) for v, o, r in states]
        finally:
            del res.level_solve
        assert sum(reads.values()) <= n
        moves += sum(t is not None for t in got)
        for (v, o, r), t in zip(states, got):
            node = res.index.get((v, r))
            want = None if o >= n or node is None else \
                res.level_solve(res._iterate_index(o))[player].get(node)
            assert t == want, (player, v, o, r)
    return moves
