import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from conftest import (FlatSolveInfo, brute_parity_winner, check_move_tables, eager_parity_levels,
                      flat_parity_game, full_level_product, layered_corpus, parity_optimal_corpus, product_winner,
                      random_cost_game, random_level_rows, searched_optimal_cost,
                      with_pass_through)
from costparity import (INF, BoundedCostResult, BudgetExceededError, ParityGame,
                        binary_tradeoff_family, decide_bounded_cost,
                        decide_bounded_cost_finite_duration, decide_bounded_cost_streett,
                        format_strat, make_game, optimal_cost, p0_memory_family, p1_memory_family,
                        p1_tradeoff_family, semantics, solve_parity, solver,
                        streett_from_cost_parity, subdivide_costs)
from costparity.generators import QbfFormula, qbf_to_game
from costparity.semantics import spoiler_cost, strategy_cost
from costparity.reduction import Tracker
from costparity.solver import _ParityLevels, _sink_first_winners, _solve_all, clamp_bound


def test_solve_parity_single_vertex():
    assert solve_parity(ParityGame((0,), (0,), ((0,),), 0)).winner_from_initial == 0
    assert solve_parity(ParityGame((0,), (1,), ((0,),), 0)).winner_from_initial == 1


def test_solve_parity_matches_brute_force():
    rng = random.Random(3)
    for _ in range(250):
        n = rng.randint(1, 6)
        owners = tuple(rng.randint(0, 1) for _ in range(n))
        colors = tuple(rng.randint(0, 3) for _ in range(n))
        succ = tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                     for _ in range(n))
        pg = ParityGame(owners, colors, succ, 0)
        res = solve_parity(pg)
        assert res.winner_from_initial == brute_parity_winner(owners, colors, succ, 0)
        assert res.win0 | res.win1 == frozenset(range(n))
        assert not res.win0 & res.win1
        # exactly the winner's strategy is present, and it stays in its region
        strat = (res.player0_strategy, res.player1_strategy)[res.winner_from_initial]
        other = (res.player1_strategy, res.player0_strategy)[res.winner_from_initial]
        assert strat is not None and other is None
        region = (res.win0, res.win1)[res.winner_from_initial]
        for v, t in strat.items():
            assert v in region and t in region


def test_solve_parity_winner_strategy_wins():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(1, 6)
        owners = tuple(rng.randint(0, 1) for _ in range(n))
        colors = tuple(rng.randint(0, 4) for _ in range(n))
        succ = tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                     for _ in range(n))
        pg = ParityGame(owners, colors, succ, 0)
        res = solve_parity(pg)
        p = res.winner_from_initial
        strat = (res.player0_strategy, res.player1_strategy)[p]
        rows = [[strat[v]] if v in strat else list(succ[v]) for v in range(n)]
        from conftest import _all_reachable_cycles_even

        if p == 0:
            assert _all_reachable_cycles_even(rows, colors, 0)
        else:
            flipped = tuple(c + 1 for c in colors)
            assert _all_reachable_cycles_even(rows, flipped, 0)


def test_sink_first_winners_equal_the_whole_solve():
    """Sink-first winners against ``_solve_all``: on seeded random
    level-shaped parity games (the won sink, owner 1 and color 0, and the
    lost sink, owner 0 and color 1, last), with self-loops and rows that
    reach only sinks, both where the sinks decide every node and where a
    rest is left; and on every level game the ``LAYERED_DIGEST`` corpus
    solves."""
    rng = random.Random(61)
    seen = Counter()

    def solve_rest(pg, rest, active):
        seen["rest solved"] += 1
        return _ParityLevels.solve_rest(pg, rest, active)

    for _ in range(3000):
        rows = random_level_rows(rng, seen)
        m = len(rows) - 2
        pg = ParityGame(tuple(rng.randint(0, 1) for _ in range(m)) + (1, 0),
                        tuple(rng.randint(0, 5) for _ in range(m)) + (0, 1), rows, 0)
        whole = frozenset(v for v in _solve_all(pg)[0] if v < m)
        assert _sink_first_winners(pg, solve_rest) == whole, pg
    seen["sinks decide all"] = 3000 - seen["rest solved"]
    assert min(seen.values()) >= 1000, seen
    for game, bound in layered_corpus():
        res = decide_bounded_cost(game, bound)
        eager = eager_parity_levels(game, res.bound)
        assert [w for w, in res.iterates] == [w for w, _, _ in eager]


def test_parity_decisions_compute_no_sccs(monkeypatch):
    """A parity decision never computes SCCs and builds no progress
    move, and on one fixed QBF decision it calls ``_zielonka`` and
    ``_attractor`` no more often than the SCC-by-SCC solve did (10 times
    each).  Its level graph has 440 nodes: the 1,030 of the full level
    product less the 590 at pass-through vertices.  A certificate does
    build progress moves, so the spy sees them."""
    def no_sccs(*args):
        raise AssertionError("a parity decision computed SCCs")

    monkeypatch.setattr(semantics, "_sccs", no_sccs)
    assert not hasattr(solver, "_sccs")
    calls = Counter()
    for name in ("_zielonka", "_attractor", "_progress_moves"):
        def spy(*args, _name=name, _original=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(solver, name, spy)
    inst = qbf_to_game(QbfFormula(("e", "e", "a"), ((-3, -2, 3), (-3, -2, 2), (3, -1, 3),
                                                   (-2, -1, 1), (1, -1, 1))))
    res = decide_bounded_cost(inst.game, inst.target_bound)
    assert res.achievable and res.product_states == 440 and len(res.iterates) == 2
    full = full_level_product(inst.game, Tracker(inst.game, inst.target_bound))
    assert full.size == 1030
    assert sum(v in inst.game.pass_through for v, _ in full.nodes) == 590
    assert calls["_zielonka"] <= 10 and calls["_attractor"] <= 10, calls
    rests = calls["_zielonka"]
    for game, bound in layered_corpus():
        decide_bounded_cost(game, bound)
    assert calls["_zielonka"] > rests and calls["_progress_moves"] == 0, calls
    assert res.certificate.player == 0 and calls["_progress_moves"] > 0


def test_winners_only_zielonka_equals_the_full_solve():
    """``_zielonka`` with ``moves`` off: the full solve's winning sets,
    empty strategies and no progress move, and the membership buffer
    restored, on seeded random parity games, whole and on subgames."""
    rng = random.Random(41)
    subgames = 0
    for _ in range(1200):
        n = rng.randint(1, 9)
        succ = tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, min(n, 3)))))
                     for _ in range(n))
        pg = ParityGame(tuple(rng.randint(0, 1) for _ in range(n)),
                        tuple(rng.randint(0, 5) for _ in range(n)), succ, 0)
        verts = list(range(n))
        if rng.random() < 0.3:  # a trap for Player 1 of a random target set
            region, _ = solver._attractor(pg, 0, rng.sample(verts, rng.randint(1, n)),
                                          [True] * n)
            verts = sorted(set(verts) - set(region))
            subgames += bool(verts)
        if not verts:
            continue
        active = [v in verts for v in range(n)]
        w0, w1, s0, s1 = solver._zielonka(pg, verts, active)
        assert active == [v in verts for v in range(n)]
        assert solver._zielonka(pg, verts, active, moves=False) == (w0, w1, {}, {})
        assert active == [v in verts for v in range(n)]
        assert w0 | w1 == set(verts) and not w0 & w1
        if len(verts) == n and n <= 5:
            assert (0 if 0 in w0 else 1) == brute_parity_winner(pg.owners, pg.colors, succ, 0)
    assert subgames >= 100


def test_moves_on_demand_equal_the_eager_solve():
    """Every kept level's moves, built on first use from the stored
    winning set one level up, against the eager solve that kept both
    players' moves at every level."""
    rng = random.Random(67)
    for i in range(300):
        if i % 2:
            g = random_cost_game(rng, rng.randint(1, 5), 4)
        else:
            g = random_cost_game(rng, rng.randint(1, 4), 4, max_cost=3, encoding="binary")
        res = decide_bounded_cost(g, rng.randint(0, 6))
        eager = eager_parity_levels(g, res.bound)
        assert len(res.iterates) == len(eager)
        move0, move1 = res.move_function(0), res.move_function(1)
        for k, (_, s0, s1) in enumerate(eager):
            o = g.n - 1 - k
            for node, (v, r) in enumerate(res.nodes):
                assert move0(v, o, r) == s0.get(node)
                assert move1(v, o, r) == s1.get(node)


def test_move_tables_answer_like_move_on_parity_decisions():
    rng = random.Random(71)
    seen = Counter()
    for i in range(60):
        if i % 2:
            g = random_cost_game(rng, rng.randint(1, 5), 4)
        else:
            g = random_cost_game(rng, rng.randint(1, 4), 4, max_cost=3, encoding="binary")
        res = decide_bounded_cost(g, rng.randint(0, 6))
        seen[res.achievable] += 1
        seen["moves"] += check_move_tables(res, (0, 1))
    assert min(seen.values()) >= 15, seen


@pytest.mark.parametrize("decide", [decide_bounded_cost, decide_bounded_cost_finite_duration,
                                    decide_bounded_cost_streett])
def test_deciders_reject_a_negative_bound(decide, delay_won):
    # the tracker each decider builds makes the one bound check
    game = streett_from_cost_parity(delay_won) if decide is decide_bounded_cost_streett \
        else delay_won
    with pytest.raises(ValueError, match="^bound must be non-negative$"):
        decide(game, -1)


def test_decisions_are_level_graphs(delay_won):
    for res in (decide_bounded_cost(delay_won, 2),
                decide_bounded_cost_streett(streett_from_cost_parity(delay_won), 2)):
        assert isinstance(res, BoundedCostResult)
        assert res.achievable and res.bound == 2 and res.product_states == res.size


def test_decide_delay_games(delay_won, delay_lost):
    assert decide_bounded_cost(delay_won, 2).achievable
    assert not decide_bounded_cost(delay_won, 1).achievable
    for b in range(delay_lost.n + 1):
        assert not decide_bounded_cost(delay_lost, b).achievable


def test_decide_layered_equals_flat():
    # the flat product is the full one, pass-through vertices included;
    # a state at one that is no node is read where its chain leads
    # (``product_winner``).  Half the games get chains, cycles and
    # parallel exits of such vertices.
    rng = random.Random(6)
    skipped = 0
    for k in range(120):
        if rng.random() < 0.5:
            g = random_cost_game(rng, rng.randint(1, 4), 4)
        else:
            g = random_cost_game(rng, rng.randint(1, 4), 4, max_cost=3,
                                 encoding="binary")
        if k % 2:
            g = with_pass_through(rng, g)
        b = rng.randint(0, 4)
        layered = decide_bounded_cost(g, b)
        flat = FlatSolveInfo(g, layered.bound)
        initial = flat.states[0]  # the product's BFS starts there
        assert layered.achievable == (flat.winner(*initial) == 0)
        # every overflow level, the ones the last fixpoint iterate serves included
        for v, o, r in flat.states:
            assert product_winner(layered, v, o, r) == flat.winner(v, o, r)
            skipped += (v, r) not in layered.index
    assert skipped > 1000


def test_decide_clamps_to_regime_bound():
    rng = random.Random(8)
    for _ in range(60):
        g = random_cost_game(rng, rng.randint(1, 3), 3)
        base = decide_bounded_cost(g, g.n).achievable
        for extra in (1, 5):
            assert decide_bounded_cost(g, g.n + extra).achievable == base
    gb = random_cost_game(rng, 3, 3, max_cost=3, encoding="binary")
    assert clamp_bound(gb, 10 ** 9) == gb.n * gb.max_cost


def test_decide_rejects_bad_input(delay_won):
    with pytest.raises(ValueError):
        decide_bounded_cost(delay_won, -1)
    with pytest.raises(BudgetExceededError):
        decide_bounded_cost(delay_won, 2, product_budget=1)


def test_finite_duration_delay_game(delay_won):
    assert decide_bounded_cost_finite_duration(delay_won, 2).achievable is True
    assert decide_bounded_cost_finite_duration(delay_won, 1).achievable is False


def test_finite_duration_odd_epsilon_cycle():
    # initial vertex sits in a forced 1-colored ε-cycle: an odd
    # dominating cycle settles every branch for Player 1 at b = 0
    g = make_game([(0, 0, 1), (1, 1, 1)], [(0, 1, 0), (1, 0, 0)], 0)
    res = decide_bounded_cost_finite_duration(g, 0)
    assert res.achievable is False


def test_finite_duration_budget_exhaustion(delay_won):
    res = decide_bounded_cost_finite_duration(delay_won, 2, node_budget=2)
    assert res.exhausted and res.achievable is None


def test_first_cycle_oracle_triangle():
    """decide == finite-duration == first-cycle minimax over the flat product."""

    def first_cycle_minimax(game, b, node_budget=400_000):
        _, pg = flat_parity_game(game, b)
        budget = [node_budget]

        def rec(path, seen):
            budget[0] -= 1
            if budget[0] <= 0:
                raise TimeoutError
            cur = path[-1]
            if cur in seen:
                k = path.index(cur)
                top = max(pg.colors[i] for i in path[k:])
                return top % 2 == 0
            owner = pg.owners[cur]
            seen = seen | {cur}
            results = (rec(path + [j], seen) for j in pg.succ[cur])
            return any(results) if owner == 0 else all(results)

        return rec([pg.initial], frozenset())

    rng = random.Random(12)
    checked = 0
    for _ in range(120):
        g = random_cost_game(rng, rng.randint(1, 3), 4)
        b = rng.randint(0, 1)
        try:
            brute = first_cycle_minimax(g, b)
        except TimeoutError:
            continue
        want = decide_bounded_cost(g, b).achievable
        fd = decide_bounded_cost_finite_duration(g, b)
        assert brute == want
        assert fd.achievable == want
        checked += 1
    assert checked >= 60


def test_optimal_delay_games(delay_won, delay_lost):
    assert optimal_cost(delay_won).value == 2
    assert optimal_cost(delay_lost).value == INF


def test_optimal_trivial():
    g = make_game([(0, 0, 0)], [(0, 0, 1)], 0)
    res = optimal_cost(g)
    assert res.value == 0 and res.witness is not None


def test_optimal_bisect_equals_sweep():
    rng = random.Random(19)
    for _ in range(50):
        g = random_cost_game(rng, rng.randint(1, 4), 4)
        # unary: every bound beyond n is n
        sweep = next((b for b in range(g.n + 1) if decide_bounded_cost(g, b).achievable), INF)
        assert optimal_cost(g).value == sweep


def test_optimal_witness_is_the_certificate_at_the_value():
    # the value is the least achievable bound of a full scan, and the
    # witness is byte for byte the decision's certificate at the value,
    # or at the cap when the value is ∞
    rng = random.Random(53)
    for i in range(400):
        if i % 2:
            g = random_cost_game(rng, rng.randint(1, 4), 4)
        else:
            g = random_cost_game(rng, rng.randint(1, 4), 3, max_cost=3, encoding="binary")
        cap = clamp_bound(g, 10 ** 18)
        scan = next((b for b in range(cap + 1) if decide_bounded_cost(g, b).achievable), INF)
        res = optimal_cost(g)
        assert res.value == scan
        at = cap if scan == INF else scan
        assert format_strat(res.witness) == format_strat(decide_bounded_cost(g, at).certificate)


def _counted_decisions(monkeypatch) -> list[int]:
    """The bounds of the decisions ``optimal_cost`` makes from now on."""
    bounds: list[int] = []
    real = solver.decide_bounded_cost

    def decide(game, bound, **kw):
        bounds.append(bound)
        return real(game, bound, **kw)

    monkeypatch.setattr(solver, "decide_bounded_cost", decide)
    return bounds


def test_optimal_equals_the_plain_search_in_half_the_decisions(monkeypatch):
    # the classical bracket against the guess-free search on a slice of
    # the 611-game parity corpus (the whole corpus: 1,776 → 733
    # decisions): the same value and witness bytes, U at least the
    # value, ∞ wherever Player 1 wins the classical game, and at most
    # half the decisions, a count that is the same on every machine
    decisions = _counted_decisions(monkeypatch)
    searched: list[int] = []
    proven = exact = 0
    for g in parity_optimal_corpus(unary=100, binary=50):
        res = optimal_cost(g)
        ref = searched_optimal_cost(g, searched)
        assert res.value == ref.value
        assert format_strat(res.witness) == format_strat(ref.witness)
        u = solver._classical_bracket(g)
        if u == INF:
            assert ref.value == INF
            proven += 1
        elif u is not None:
            assert u >= ref.value
            exact += u == ref.value
    assert proven >= 40 and exact >= 60
    assert 2 * len(decisions) <= len(searched)


def test_optimal_decisions_around_the_classical_bracket(monkeypatch):
    decisions = _counted_decisions(monkeypatch)
    # Player 1 wins the arena's parity game by returning to the request
    # at vertex 0: ∞ at once, from one decision at the cap n·W = 15
    # (the plain search decides at 0, 1, 2, 4, 8 and 15)
    g = make_game([(0, 0, 1), (1, 1, 0), (2, 0, 2)],
                  [(0, 1, 4), (1, 0, 5), (1, 2, 1), (2, 2, 0)], 0, "binary")
    res = optimal_cost(g)
    assert (res.value, decisions) == (INF, [15])
    assert res.witness.player == 1
    assert format_strat(res.witness) == format_strat(searched_optimal_cost(g).witness)
    # a positional strategy as cheap as the optimum leaves one decision
    # below it and the one at it (the plain search makes 11 each)
    for inst in (p1_memory_family(3), p1_memory_family(4), p1_tradeoff_family(3)):
        decisions.clear()
        value = optimal_cost(inst.game).value
        assert decisions == [value - 1, value]
    # one above it (U = 17, value 15) decides at 16 first, then searches
    # below, reusing 16: the plain search's 9 decisions in another order
    decisions.clear()
    assert optimal_cost(p0_memory_family(3).game).value == 15
    assert decisions == [16, 0, 1, 2, 4, 8, 12, 14, 15]


def test_certificates_verify():
    rng = random.Random(21)
    for _ in range(60):
        if rng.random() < 0.5:
            g = random_cost_game(rng, rng.randint(1, 3), 3)
        else:
            g = random_cost_game(rng, rng.randint(1, 3), 3, max_cost=2,
                                 encoding="binary")
        b = rng.randint(0, 2)
        res = decide_bounded_cost(g, b)
        cert = res.certificate
        if res.achievable:
            assert cert.player == 0
            assert strategy_cost(g, cert) <= res.bound
        else:
            assert cert.player == 1
            assert spoiler_cost(g, cert) > res.bound
        assert cert.size <= (g.n + 1) * (res.bound + 2) ** g.d


def test_inf_witness_is_spoiler(delay_lost):
    res = optimal_cost(delay_lost)
    assert res.value == INF
    assert res.witness.player == 1
    assert spoiler_cost(delay_lost, res.witness) > delay_lost.n


def test_monotone_in_bound():
    rng = random.Random(25)
    for _ in range(50):
        g = random_cost_game(rng, rng.randint(1, 4), 4)
        vals = [decide_bounded_cost(g, b).achievable for b in range(g.n + 1)]
        assert all(b or not a for a, b in zip(vals, vals[1:]))


def test_binary_matches_subdivision():
    rng = random.Random(27)
    for _ in range(60):
        g = random_cost_game(rng, rng.randint(1, 3), 3, max_cost=3, encoding="binary")
        sub = subdivide_costs(g)
        for b in range(5):
            assert decide_bounded_cost(g, b).achievable == \
                decide_bounded_cost(sub, b).achievable


@pytest.mark.parametrize("family, d, states", [
    (p0_memory_family, 2, 2), (p1_memory_family, 3, 1), (binary_tradeoff_family, 2, 2)])
def test_optimal_certificates_hold_the_memory_consistent_plays_visit(family, d, states):
    """Pinned memory sizes of the optimal certificates, which hold only
    what plays consistent with them visit, with compatible states
    merged: a change that collects memory under moves the certificate
    never makes, or merges less, fails here."""
    witness = optimal_cost(family(d).game).witness
    assert (witness.player, witness.size) == (0, states)


def test_certificates_meet_the_papers_memory_bounds():
    """The merged certificates of the lower-bound families sit near the
    paper's memory bounds: p0mem d=3's optimal certificate within 10
    states (the bound is 2^(d−1) = 4), every p1mem optimal certificate
    positional, as Player 0 needs no memory there, and the p1mem
    spoilers one below the optimum within 2^d states."""
    witness = optimal_cost(p0_memory_family(3).game).witness
    assert witness.player == 0 and witness.size <= 10
    for d in (1, 2, 3, 4):
        game = p1_memory_family(d).game
        opt = optimal_cost(game)
        assert (opt.witness.player, opt.witness.size) == (0, 1)
        if d <= 3:
            spoiler = decide_bounded_cost(game, opt.value - 1).certificate
            assert spoiler.player == 1 and spoiler.size <= 2 ** d, d
            assert spoiler_cost(game, spoiler) == opt.value


def test_dropped_results_free_their_level_graphs(delay_won, delay_lost):
    # a level graph holds no reference cycle, its certificate cache
    # included, so dropping a result frees its product at once instead
    # of at the next run of the cyclic garbage collector
    from costparity.generators import streett_counter_family

    counter = streett_counter_family(1).game
    decisions = [lambda: decide_bounded_cost(delay_won, 2),
                 lambda: decide_bounded_cost(delay_lost, 2),
                 lambda: decide_bounded_cost_streett(counter, 4),
                 lambda: decide_bounded_cost_streett(counter, 5)]
    gc.disable()
    try:
        for decide in decisions:
            res = decide()
            res.certificate  # fills the per-level cache
            graph = weakref.ref(res)
            del res
            assert graph() is None
    finally:
        gc.enable()


def test_decisions_stop_at_the_first_iterate_that_wins_node_0():
    """The answer of a decision that stopped early is the one the last
    iterate of the whole fixpoint gives, and the iterates it completes on
    first read are the eager engine's."""
    rng = random.Random(71)
    stopped = 0
    for i in range(400):
        if i % 2:
            g = random_cost_game(rng, rng.randint(1, 5), 4)
        else:
            g = random_cost_game(rng, rng.randint(1, 4), 4, max_cost=3, encoding="binary")
        res = decide_bounded_cost(g, rng.randint(0, 6))
        assert "iterates" not in vars(res)
        solved = len(res._levels)
        eager = eager_parity_levels(g, res.bound)
        assert res.achievable == (0 in eager[-1][0])
        assert [w for w, in res.iterates] == [w for w, _, _ in eager]
        won = [w for w, in res.iterates]
        assert all(a <= b for a, b in zip(won, won[1:]))  # the soundness argument
        if solved < len(eager):
            assert [0 in w for w in won[:solved]] == [False] * (solved - 1) + [True]
            stopped += 1
    assert stopped >= 40, stopped


def test_qbf_decisions_solve_one_level(monkeypatch):
    """Every decision of a seeded round of QBF games (every quantifier
    prefix of 2–4 variables × 2–5 clauses) solves exactly one level: the
    true formulas win node 0 in the first iterate, and the false ones
    reach the fixpoint there."""
    calls = []
    original = _ParityLevels.solve_level

    def solve_level(self, *args):
        calls[-1] += 1
        return original(self, *args)

    monkeypatch.setattr(_ParityLevels, "solve_level", solve_level)
    rng = random.Random(1)
    answers = Counter()
    for n in (2, 3, 4):
        for prefix in itertools.product("ea", repeat=n):
            for m in (2, 3, 4, 5):
                clauses = tuple(tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
                                for _ in range(m))
                inst = qbf_to_game(QbfFormula(prefix, clauses))
                calls.append(0)
                answers[decide_bounded_cost(inst.game, inst.target_bound).achievable] += 1
    assert len(calls) == 112 and set(calls) == {1}
    assert min(answers.values()) >= 30, answers


def test_reads_after_an_early_stop_match_the_completed_fixpoint():
    """A hand-made game whose fixpoint needs three iterates.  At bound 1
    Player 0 wins only by moving on to the cost-0 loop at vertex 2 while
    vertex 0's request is open, which overflows once.  Iterate 0 sends
    that overflow to the lost sink, so node 0 is first won in iterate 1,
    and the decision stops there.  Whichever of a state's winner
    (``product_winner``), ``move`` and ``certificate`` is read first
    completes the fixpoint, and all three
    read as on a decision whose iterates were completed before any read."""
    g = make_game([(0, 1, 3), (1, 0, 2), (2, 0, 0)],
                  [(0, 1, 1), (1, 2, 1), (1, 0, 1), (2, 2, 0)], 0)
    flat = FlatSolveInfo(g, 1)
    complete = decide_bounded_cost(g, 1)
    assert len(complete.iterates) == 3
    states = flat.states
    for first in ("winner", "move", "certificate"):
        res = decide_bounded_cost(g, 1)
        assert res.achievable and len(res._levels) == 2 and "iterates" not in vars(res)
        if first == "winner":
            product_winner(res, *states[0])
        elif first == "move":
            res.move_function(1)(*states[0])
        cert = res.certificate
        assert len(res._levels) == 3
        assert cert == complete.certificate and strategy_cost(g, cert) <= 1
        for v, o, r in states:
            assert product_winner(res, v, o, r) == product_winner(complete, v, o, r) \
                == flat.winner(v, o, r)
            for player in (0, 1):
                assert res.move_function(player)(v, o, r) == \
                    complete.move_function(player)(v, o, r)
