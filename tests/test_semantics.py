import random

import pytest

from conftest import (bisected_cost, random_cost_game, random_cost_streett, random_strategy,
                      spoiler_corpus, strategy_walk, tracked_strategy_cost, unrolled_play_cost,
                      walked_spoiler_cost)
from costparity import (INF, Lasso, answers, cor, decide_bounded_cost, generators, make_game,
                        optimal_cost, parse_cpg, play_cost, semantics, streett_from_cost_parity)
from costparity.core import strategy_from_functions
from costparity.reduction import Tracker
from costparity.streett import (CostStreettGame, StreettTracker, decide_bounded_cost_streett,
                                streett_spoiler_cost, streett_strategy_cost)
from costparity.semantics import (_sccs, spoiler_cost, strategy_cost, strategy_product,
                                  validate_lasso)


def test_answers():
    assert answers(1, 2)
    assert not answers(3, 2)
    assert answers(2, 2)  # an even request is answered on the spot
    assert not answers(2, 3)
    assert answers(0, 0)


def test_cor_delay_won(delay_won):
    lasso = Lasso((), (0, 1, 2))
    assert cor(delay_won, lasso, 0) == 2
    assert cor(delay_won, lasso, 1) == 0  # even color
    assert cor(delay_won, lasso, 2) == 0


def test_cor_unanswered_is_infinite():
    g = make_game([(0, 0, 1), (1, 1, 0)], [(0, 1, 0), (1, 1, 0)], 0)
    assert cor(g, Lasso((0,), (1,)), 0) == INF
    assert play_cost(g, Lasso((0,), (1,))) == 0  # the one request is in the prefix


def test_cor_position_range(delay_won):
    with pytest.raises(ValueError):
        cor(delay_won, Lasso((), (0, 1, 2)), 3)


def test_play_cost_delay_game(delay_won):
    assert play_cost(delay_won, Lasso((0, 1), (1,))) == 0
    assert play_cost(delay_won, Lasso((), (0, 1, 2))) == 2


def test_play_cost_trivial_cycle():
    g = make_game([(0, 0, 0)], [(0, 0, 1)], 0)
    assert play_cost(g, Lasso((), (0,))) == 0


def test_lasso_validation(delay_won):
    with pytest.raises(ValueError):
        validate_lasso(delay_won, Lasso((), ()))
    with pytest.raises(ValueError):
        validate_lasso(delay_won, Lasso((), (1, 2)))  # wrong start
    with pytest.raises(ValueError):
        validate_lasso(delay_won, Lasso((), (0, 2)))  # missing edge


def test_play_cost_matches_unrolling_on_random_lassos():
    rng = random.Random(31)
    checked = 0
    while checked < 120:
        g = random_cost_game(rng, rng.randint(1, 4), 4, max_cost=2, encoding="binary")
        walk = [g.initial]
        for _ in range(rng.randint(1, 7)):
            walk.append(rng.choice(g.successors[walk[-1]])[0])
        # close the lasso at the last repeated vertex, if any
        tail = walk[-1]
        first = walk.index(tail)
        if first == len(walk) - 1:
            continue
        lasso = Lasso(tuple(walk[:first]), tuple(walk[first:-1]))
        assert play_cost(g, lasso) == unrolled_play_cost(g, lasso)
        checked += 1


def test_cor_antitone_in_answers():
    # removing the answering vertex from the cycle never decreases cor
    g = make_game([(0, 0, 1), (1, 1, 0), (2, 0, 2)],
                  [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 0, 1)], 0)
    with_answer = Lasso((), (0, 1, 2))
    without = Lasso((), (0, 1))
    assert cor(g, with_answer, 0) <= cor(g, without, 0)
    assert cor(g, without, 0) == INF


def stay_strategy(game, player):
    """Positional: always the lowest successor."""
    return strategy_from_functions(
        game, player, 0, lambda m, e: 0, lambda v, m: game.successors[v][0][0])


def test_strategy_cost_trivial_game():
    g = make_game([(0, 0, 0)], [(0, 0, 1)], 0)
    assert strategy_cost(g, stay_strategy(g, 0)) == 0



def test_zero_cost_cycle_between_request_and_answer_is_finite(delay_won):
    # Player 1 may idle forever on the free self-loop of vertex 1: the
    # request before it stays open, but only in the prefix
    assert strategy_cost(delay_won, stay_strategy(delay_won, 0)) == 2


def test_reachable_positive_cycle_without_an_answer_is_infinite(delay_lost):
    # the costly self-loop holds no request, but the request of vertex 0
    # reaches it unanswered, and Player 1 loops there ever longer
    assert strategy_cost(delay_lost, stay_strategy(delay_lost, 0)) == INF
    # the same loop behind the answer costs nothing: the request of
    # vertex 2 is answered on the next step
    g = make_game([(0, 0, 2), (1, 1, 0), (2, 0, 1)],
                  [(0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 0, 1)], 0)
    assert strategy_cost(g, stay_strategy(g, 0)) == 1


def test_binary_strategy_cost_is_exact_at_a_large_edge_cost():
    # Player 1 picks the dearer of two answers: 5 + 10^9
    g = make_game([(0, 0, 1), (1, 1, 0), (2, 0, 2), (3, 0, 2)],
                  [(0, 1, 5), (1, 2, 10**9), (1, 3, 7), (2, 0, 0), (3, 0, 0)], 0, "binary")
    assert strategy_cost(g, stay_strategy(g, 0)) == 5 + 10**9


def _spy_products(monkeypatch):
    """Records each strategy arena and each level product (its tracker's
    bound and its size) that the verifier builds, and each bound its
    search probes."""
    from costparity import semantics

    arenas, levels, probed = [], [], []

    class Arena(semantics._StrategyArena):
        def __init__(self, game, strat):
            super().__init__(game, strat)
            arenas.append(self)

    class Level(semantics._LevelProduct):
        def __init__(self, arena, tracker, budget, what, rows):
            super().__init__(arena, tracker, budget, what, rows)
            levels.append((tracker.bound, self.size))

    def search(probe, lo, hi, guess=None, real=semantics._least_bound):
        return real(lambda b: probed.append(b) or probe(b), lo, hi, guess)

    monkeypatch.setattr(semantics, "_StrategyArena", Arena)
    monkeypatch.setattr(semantics, "_LevelProduct", Level)
    monkeypatch.setattr(semantics, "_least_bound", search)
    return arenas, levels, probed


def test_player0_verifiers_build_one_untracked_product(monkeypatch):
    # one strategy arena, and no tracked product at any bound
    arenas, levels, probed = _spy_products(monkeypatch)
    cases = [(strategy_cost, generators.p0_memory_family(2).game),
             (strategy_cost, generators.binary_tradeoff_family(2).game),
             (streett_strategy_cost, generators.streett_counter_family(1).game)]
    for verify, g in cases:
        if isinstance(g, CostStreettGame):
            strat = decide_bounded_cost_streett(g, 5).certificate
        else:
            strat = optimal_cost(g).witness
        assert strat.player == 0
        arenas.clear()
        assert 0 < verify(g, strat) < INF
        assert len(arenas) == 1
        assert levels == probed == []


def test_spoiler_verifier_builds_one_level_product_per_probed_bound(monkeypatch):
    # one strategy arena per verification and one level product per
    # probed bound, each as large as the walked τ-product at that bound
    # with its own skip of pass-through (vertex, memory) pairs, and so
    # smaller than the walk without it.
    # A family spoiler's cheapest lasso costs exactly its value, so its
    # one probe is at the value − 1; the Streett spoiler keeps the plain
    # upward search.
    arenas, levels, probed = _spy_products(monkeypatch)
    cases = [(spoiler_cost, inst.game, ref.strategy, Tracker)
             for inst in (generators.p1_memory_family(3), generators.p1_memory_family(4),
                          generators.p1_tradeoff_family(3))
             for ref in inst.reference_strategies]
    counter = generators.streett_counter_family(2).game
    cases.append((streett_spoiler_cost, counter,
                  decide_bounded_cost_streett(counter, 10).certificate, StreettTracker))
    costs, skipped = [], 0
    for k, (verify, g, tau, tracker_class) in enumerate(cases):
        assert tau.player == 1
        del arenas[:], levels[:], probed[:]
        cost = verify(g, tau)
        costs.append(cost)
        assert len(arenas) == 1
        assert [b for b, _ in levels] == probed
        if verify is spoiler_cost:
            assert probed == [cost - 1], k
        else:
            assert probed == [0, 1, 2, 4, 8, 16, 12, 10, 11]
        for b, size in levels:
            walked = strategy_walk(g, tau, tracker_class(g, b), skip=True)[0]
            assert size == len(walked), (k, b)
            skipped += len(strategy_walk(g, tau, tracker_class(g, b))[0]) - size
    assert costs == [17, 22, 7, 12, 17, 11]
    assert skipped > 0


def test_spoiler_costs_equal_the_upward_search_below_their_lasso():
    # the guess-first verifier against the walked upward search on 3,000
    # random spoilers; the cheapest lasso's cost U is never below the
    # value, and ∞ exactly when the value is
    exact = infinite = 0
    for g, tau in spoiler_corpus():
        cost = spoiler_cost(g, tau)
        assert cost == walked_spoiler_cost(g, tau, Tracker)
        u = semantics._cheapest_lasso(g, semantics._StrategyArena(g, tau))
        assert u >= cost and (u == INF) == (cost == INF)
        exact += u == cost < INF
        infinite += cost == INF
    assert (infinite, exact) == (889, 1954)


def test_strategy_cost_rejects_wrong_player(delay_won):
    with pytest.raises(ValueError):
        strategy_cost(delay_won, stay_strategy(delay_won, 1))
    with pytest.raises(ValueError):
        spoiler_cost(delay_won, stay_strategy(delay_won, 0))


def test_spoiler_loop_forever_in_left_game(delay_lost):
    # the middle vertex's lowest successor is its self-loop: the single
    # consistent play pays one unanswered request, then nothing
    tau = stay_strategy(delay_lost, 1)
    assert tau.next_move[(1, 0)] == 1
    assert spoiler_cost(delay_lost, tau) == 0


def test_spoiler_all_even_colors():
    g = make_game([(0, 0, 0), (1, 1, 2)], [(0, 1, 1), (1, 0, 1), (1, 1, 1)], 0)
    assert spoiler_cost(g, stay_strategy(g, 1)) == 0


def test_strategy_cost_monotone_under_p1_restriction():
    # deleting a Player 1 edge never increases strategy_cost
    rng = random.Random(77)
    for _ in range(30):
        g = random_cost_game(rng, rng.randint(2, 4), 3)
        sigma = stay_strategy(g, 0)
        base = strategy_cost(g, sigma)
        p1_edges = [e for e in g.edges
                    if g.owner[e.source] == 1
                    and sum(1 for t, _ in g.successors[e.source]) > 1]
        if not p1_edges:
            continue
        drop = rng.choice(p1_edges)
        restricted = make_game(
            [(v.id, v.owner, v.color) for v in g.vertices],
            [(e.source, e.target, e.cost) for e in g.edges if e != drop],
            g.initial, g.encoding)
        assert strategy_cost(restricted, sigma) <= base


def test_strat_file_verify_roundtrip(delay_won):
    from costparity import format_strat, parse_strat

    sigma = stay_strategy(delay_won, 0)
    back = parse_strat(format_strat(sigma))
    assert strategy_cost(delay_won, back) == strategy_cost(delay_won, sigma)


def test_verifier_matches_bisected_decisions():
    # the lasso analysis against the bounded-cost solver bisected on the
    # one-player product: random strategies of both players, certificates
    rng = random.Random(89)
    for i in range(550):
        if i % 2:
            g = random_cost_game(rng, rng.randint(1, 4), 4)
        else:
            g = random_cost_game(rng, rng.randint(1, 4), 4, max_cost=3, encoding="binary")
        sg = streett_from_cost_parity(g)
        assert (g.request_mask, g.answer_mask) == (sg.request_mask, sg.answer_mask)
        strats = [random_strategy(rng, g, player, rng.randint(1, 3)) for player in (0, 1)]
        strats.append(decide_bounded_cost(g, rng.randint(0, 4)).certificate)
        for strat in strats:
            verify = (strategy_cost, spoiler_cost)[strat.player]
            assert verify(g, strat) == bisected_cost(decide_bounded_cost,
                                                     strategy_product(g, strat)[0])


def test_spoiler_without_good_cycle_is_infinite_at_once():
    # Player 0 has no good cycle in the witness's product, so no bound
    # is probed: a tracked product at the cap 297 would not fit in memory
    g = parse_cpg("costparity 4 0 binary\n0 3 1 3:3\n1 3 1 3:3\n"
                  "2 4 1 0:0,1:2,2:3\n3 1 0 0:0,1:2,3:3\n")
    witness = optimal_cost(g).witness
    assert witness.player == 1
    assert spoiler_cost(g, witness) == INF


def test_sccs_are_the_reachability_classes_bottom_up():
    """``_sccs`` partitions the vertices into the classes of mutual
    reachability, and lists each after every class it has an edge into."""
    rng = random.Random(71)
    for _ in range(2000):
        n = rng.randint(1, 10)
        rows = [rng.sample(range(n), rng.randint(0, min(n, 3))) for _ in range(n)]
        reach = []
        for v in range(n):
            seen, todo = {v}, [v]
            while todo:
                for w in rows[todo.pop()]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            reach.append(seen)
        comps = _sccs(n, rows)
        assert sorted(v for c in comps for v in c) == list(range(n))
        pos = {v: k for k, c in enumerate(comps) for v in c}
        for v in range(n):
            assert {w for w in reach[v] if v in reach[w]} == set(comps[pos[v]])
            assert all(pos[w] <= pos[v] for w in rows[v])


def _player0_strategies():
    """(game, Player 0 strategy) pairs: random strategies of unary,
    binary and cost-Streett games, optimal witnesses of random unary
    games, the families' optimal certificates and Player 0 reference
    strategies, and Streett counter certificates."""
    rng = random.Random(11)
    for i in range(1500):
        if i % 3 == 0:
            g = random_cost_game(rng, rng.randint(1, 4), 4)
        elif i % 3 == 1:
            g = random_cost_game(rng, rng.randint(1, 4), 4, max_cost=3, encoding="binary")
        else:
            g = random_cost_streett(rng)
        yield g, random_strategy(rng, g, 0, rng.randint(1, 3))
    rng, witnesses = random.Random(7), 0
    while witnesses < 200:  # about 60% of these games have a finite value
        g = random_cost_game(rng, rng.randint(3, 8), 4)
        witness = optimal_cost(g).witness
        witnesses += witness.player == 0
        yield g, witness
    for family, ds in ((generators.p0_memory_family, (2, 3)), (generators.p1_memory_family, (3, 4)),
                       (generators.p1_tradeoff_family, (3,)),
                       (generators.binary_tradeoff_family, (2, 3))):
        for d in ds:
            inst = family(d)
            yield inst.game, optimal_cost(inst.game).witness
            for ref in inst.reference_strategies:
                yield inst.game, ref.strategy
    for d, b in ((2, 11), (3, 23)):
        g = generators.streett_counter_family(d).game
        yield g, decide_bounded_cost_streett(g, b).certificate


def test_player0_cost_matches_the_tracked_bound_search():
    """Every Player 0 strategy costs what the bound search over tracked
    products (``tracked_strategy_cost``) gives."""
    checked = finite = 0
    for g, strat in _player0_strategies():
        if strat.player != 0:
            continue
        if isinstance(g, CostStreettGame):
            cost, oracle = streett_strategy_cost(g, strat), tracked_strategy_cost(g, strat,
                                                                                  StreettTracker)
        else:
            cost, oracle = strategy_cost(g, strat), tracked_strategy_cost(g, strat, Tracker)
        assert cost == oracle
        checked += 1
        finite += cost < INF
    assert checked >= 1700 and finite >= 900


def test_verifiers_match_the_walked_bound_searches():
    """Random strategies of both players in unary, binary and cost-Streett
    games cost what the bound searches over walked products give: the
    spoiler search (``walked_spoiler_cost``) for Player 1 strategies and
    ``tracked_strategy_cost`` for Player 0 strategies."""
    rng = random.Random(23)
    finite = [0, 0]
    for i in range(1500):
        if i % 3 == 0:
            g = random_cost_game(rng, rng.randint(3, 6), 5)
        elif i % 3 == 1:
            g = random_cost_game(rng, rng.randint(3, 6), 5, max_cost=3, encoding="binary")
        else:
            g = random_cost_streett(rng)
        streett = isinstance(g, CostStreettGame)
        tracker_class = StreettTracker if streett else Tracker
        for player, verify, oracle in (
                (0, (strategy_cost, streett_strategy_cost)[streett], tracked_strategy_cost),
                (1, (spoiler_cost, streett_spoiler_cost)[streett], walked_spoiler_cost)):
            strat = random_strategy(rng, g, player, rng.randint(1, 3))
            cost = verify(g, strat)
            assert cost == oracle(g, strat, tracker_class), (i, player)
            finite[player] += cost < INF
    assert min(finite) >= 500, finite
