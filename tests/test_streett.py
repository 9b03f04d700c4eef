import random
from collections import Counter
from dataclasses import replace

import pytest
from conftest import (DEAD_LABEL, bisected_cost, brute_streett_winner, check_move_tables,
                      check_span_tables, direct_tracked_product, flat_streett_certificate,
                      full_level_product, lifted_pairs, lifted_streett_view,
                      oracle_pass_through, pair_masks, product_winner, random_cost_game,
                      random_cost_streett, random_level_rows, random_strategy,
                      random_streett_game, streett_initial_r, streett_step,
                      streett_strategy_product, streett_view, unmerged_certificates,
                      with_answering_chains, with_pass_through)
from costparity import (INF, BudgetExceededError, Lasso, StrategySpec, core,
                        decide_bounded_cost, format_strat, streett)
from costparity.reduction import Tracker, _LevelProduct
from costparity.streett import (CostStreettGame, StreettEdge, StreettGame,
                                StreettPair, StreettTracker, _StreettLevels,
                                build_streett_reduction, decide_bounded_cost_streett, format_cst,
                                optimal_cost_streett, parse_cst, solve_streett,
                                stcor, streett_regime_cap, streett_from_cost_parity,
                                streett_play_cost, streett_spoiler_cost,
                                streett_strategy_cost, validate_streett_game)
from costparity.generators import streett_counter_family
from costparity.solver import _least_achievable, _sink_first_winners
from conftest import eager_streett_levels


def tiny_streett(pairs, edges, owners, initial=0):
    n = 1 + max(max(e[0] for e in edges), max(e[1] for e in edges))
    from costparity.core import Vertex

    verts = tuple(Vertex(i, owners[i], 0) for i in range(n))
    d = len(pairs)
    es = tuple(StreettEdge(s, t, (w,) * d if isinstance(w, int) else w)
               for s, t, w in edges)
    ps = tuple(StreettPair(frozenset(q), frozenset(p)) for q, p in pairs)
    return CostStreettGame(verts, es, ps, initial)


def test_stcor_examples():
    g = tiny_streett(
        pairs=[({1}, {2}), ({1}, {3})],
        edges=[(0, 1, (1, 1)), (1, 2, (2, 1)), (2, 3, (1, 4)), (3, 0, (1, 1))],
        owners=[0, 0, 0, 0])
    lasso = Lasso((), (0, 1, 2, 3))
    assert stcor(g, lasso, 0) == 0  # no requests at vertex 0
    # both pairs open at vertex 1: pair 0 answered at cost 2 (its own
    # cost function), pair 1 at cost 1+4=5; the maximum wins
    assert stcor(g, lasso, 1) == 5
    assert streett_play_cost(g, lasso) == 5


def test_stcor_self_answer_is_free():
    g = tiny_streett(pairs=[({0}, {0})], edges=[(0, 0, 1)], owners=[0])
    assert stcor(g, Lasso((), (0,)), 0) == 0
    assert streett_play_cost(g, Lasso((), (0,))) == 0


def test_stcor_unanswered_pair_is_infinite():
    g = tiny_streett(pairs=[({0}, set())], edges=[(0, 1, 1), (1, 0, 1)],
                     owners=[0, 0])
    assert stcor(g, Lasso((), (0, 1)), 0) == INF
    assert streett_play_cost(g, Lasso((), (0, 1))) == INF


def test_counter_optimal_play_cost():
    inst = streett_counter_family(1)
    g = inst.game
    # P Q m a0 r0 m a1 t1 -> P: one full counter round
    lasso = Lasso((), (0, 1, 2, 3, 5, 2, 6, 7))
    assert streett_play_cost(g, lasso) == 5


def test_solve_streett_trivial():
    sg = StreettGame((0,), ((0,),), (0,), (0,), 1, 0)
    assert solve_streett(sg).winner_from_initial == 0
    for cells in (True, False):  # the subgame on no vertex: no region and no cell
        res = solve_streett(sg, [], cells=cells)
        assert (res.win0, res.win1, res.cells) == (frozenset(), frozenset(), (None, None))
    sg2 = StreettGame((0,), ((0,),), (1,), (0,), 1, 0)
    assert solve_streett(sg2).winner_from_initial == 1


def test_solve_streett_matches_brute_force():
    rng = random.Random(41)
    for _ in range(300):
        sg = random_streett_game(rng)
        assert solve_streett(sg).winner_from_initial == brute_streett_winner(sg)


def test_solve_streett_strategies_win():
    from conftest import good_streett_cycle_exists
    from costparity.semantics import _sccs

    rng = random.Random(43)
    for _ in range(200):
        sg = random_streett_game(rng)
        res = solve_streett(sg)
        player = res.winner_from_initial
        strat = (res.player0_strategy, res.player1_strategy)[player]
        assert strat is not None
        if player == 1:
            assert strat.size == 1  # uniform positional
        index = {(sg.initial, strat.initial): 0}
        order = [(sg.initial, strat.initial)]
        rows = []
        head = 0
        while head < len(order):
            v, m = order[head]
            head += 1
            moves = [strat.next_move[(v, m)]] if sg.owners[v] == player \
                else list(sg.succ[v])
            row = []
            for t in moves:
                m2 = strat.update[(m, (v, 0, t))]
                if (t, m2) not in index:
                    index[(t, m2)] = len(order)
                    order.append((t, m2))
                row.append(index[(t, m2)])
            rows.append(row)
        ids = [v for v, _ in order]
        good = good_streett_cycle_exists(len(order), rows, sg.qmask, sg.pmask, ids)
        if player == 0:
            # every consistent cycle must satisfy all pairs
            bad = False
            for c in range(sg.d):
                keep = [i for i, (v, _) in enumerate(order)
                        if not sg.pmask[v] >> c & 1]
                pos = {i: k for k, i in enumerate(keep)}
                sub = [[pos[j] for j in rows[i] if j in pos] for i in keep]
                for comp in _sccs(len(keep), sub):
                    cyclic = len(comp) > 1 or any(x in sub[comp[0]] for x in comp)
                    if cyclic and any(sg.qmask[order[keep[k]][0]] >> c & 1
                                      for k in comp):
                        bad = True
            assert not bad
        else:
            assert not good


def test_validate_streett():
    g = tiny_streett(pairs=[({0}, {1})], edges=[(0, 1, 1), (1, 0, 1)],
                     owners=[0, 1])
    assert validate_streett_game(g) == []
    bad = CostStreettGame(g.vertices, (StreettEdge(0, 1, (1, 1)),),
                          g.pairs, 0)
    report = validate_streett_game(bad)
    assert any("expected 1 costs" in r for r in report)
    assert any("terminal" in r for r in report)
    # duplicate ids and owners outside {0, 1}, worded as for .cpg games
    v0, v1 = g.vertices
    dup = CostStreettGame((v0, v1, v1), g.edges, g.pairs, 0)
    assert validate_streett_game(dup) == ["vertex 1: duplicate id"]
    owners = CostStreettGame((v0._replace(owner=2), v1._replace(owner=5)),
                             g.edges, g.pairs, 0)
    assert validate_streett_game(owners) == ["vertex 0: owner must be 0 or 1, got 2",
                                             "vertex 1: owner must be 0 or 1, got 5"]


def test_validate_streett_names_unknown_endpoints_as_for_cpg_games():
    g = tiny_streett(pairs=[({0}, {1})], edges=[(0, 1, 1), (1, 0, 1)], owners=[0, 1])
    for edge, message in ((StreettEdge(7, 0, (1,)), "edge 7->0: unknown source"),
                          (StreettEdge(0, 7, (-1,)), "edge 0->7: unknown target")):
        assert validate_streett_game(replace(g, edges=g.edges + (edge,))) == [message]


@pytest.mark.parametrize("body, message", [
    ("0 0 0 0:1\npair 0 Q: 0 P:\npair 1 Q: P:\n", "expected 2 costs on edge 0->0"),
    ("0 0 0 0:1|1\npair 0 Q: 0 P:\npair 0 Q: P:\n", "bad pair index 0"),
    ("0 0 0 0:1|1\npair 0 Q: 0 P:\npair 2 Q: P:\n", "bad pair index 2"),
    ("0 0 0 0:-1|0\npair 0 Q: 0 P:\npair 1 Q: P:\n",
     "invalid Streett game: edge 0->0: negative cost"),
])
def test_cst_error_messages(body, message):
    with pytest.raises(ValueError) as err:
        parse_cst("coststreett 1 0 2\n" + body)
    assert str(err.value) == message


def test_streett_verifiers_reject_the_other_players_strategy():
    inst = streett_counter_family(1)
    sigma = inst.reference_strategies[0].strategy
    assert sigma.player == 0 and streett_strategy_cost(inst.game, sigma) == inst.target_bound
    with pytest.raises(ValueError, match=r"^expected a Player 1 strategy, got Player 0's$"):
        streett_spoiler_cost(inst.game, sigma)
    tau = decide_bounded_cost_streett(inst.game, inst.target_bound - 1).certificate
    assert tau.player == 1
    with pytest.raises(ValueError, match=r"^expected a Player 0 strategy, got Player 1's$"):
        streett_strategy_cost(inst.game, tau)


def test_solve_streett_without_cells_gives_the_full_solves_winners():
    rng = random.Random(89)
    for _ in range(1000):
        sg = random_streett_game(rng)
        full, lean = solve_streett(sg), solve_streett(sg, cells=False)
        assert (lean.winner_from_initial, lean.win0, lean.win1) == \
            (full.winner_from_initial, full.win0, full.win1), sg
        assert lean.cells == (None, None)


def test_level_games_show_the_lifted_pairs():
    """The level games share masks and patterns computed once per
    decision, and the flat reduction computes its masks directly; both
    show their readers what the pairs lifted as frozensets over the
    nodes show (``conftest.lifted_pairs``): the pairs, d, the masks and
    the patterns' numbering."""
    rng = random.Random(97)
    cases = [(streett_counter_family(d).game, b, d < 3)
             for d, bounds in ((1, (3, 4, 5, 6)), (2, (9, 10, 11, 12)), (3, (22, 23)))
             for b in bounds]
    cases += [(random_cost_streett(rng), rng.randint(0, 4), True) for _ in range(200)]
    for g, b, flat in cases:
        res = decide_bounded_cost_streett(g, b)
        m = res.size
        want = lifted_streett_view(m + 2, *lifted_pairs(g, res.vertex_of, {m + 1}))
        for k in range(len(res.iterates)):
            assert streett_view(res.classical_game(*res._level_game(res.prev(k)))) == want
        if flat:
            red = build_streett_reduction(g, res.bound)
            saturated = (i for i, (_, o, _) in enumerate(red.states) if o >= g.n)
            lifted = lifted_pairs(g, [v for v, _, _ in red.states], saturated)
            assert streett_view(red.streett) == lifted_streett_view(red.size, *lifted)


def test_decisions_build_no_cell(monkeypatch):
    """A decision solves the rest of its levels for the winners only: no
    cell and no progress move is built until a certificate is read."""
    counts = Counter()

    def counting(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapped

    builders = ("_LeafCell", "_RotateCell", "_PieceCell", "_progress_moves")
    for name in builders[:3]:
        cls = getattr(streett, name)
        monkeypatch.setattr(cls, "__init__", counting(name, cls.__init__))
    for name in builders[3:] + ("solve_streett",):
        monkeypatch.setattr(streett, name, counting(name, getattr(streett, name)))
    rests = 0
    for d, b in ((1, 5), (2, 10), (2, 11), (3, 22), (3, 23)):
        counts.clear()
        res = decide_bounded_cost_streett(streett_counter_family(d).game, b)
        assert not any(counts[name] for name in builders), (d, b, counts)
        rests += counts["solve_streett"]
        if d < 3 or not res.achievable:
            res.certificate
            assert counts["_progress_moves"] > 0 and any(counts[name] for name in builders[:3])
    assert rests > 0


def test_move_tables_answer_like_move_on_streett_spoilers():
    for d, bounds in ((2, (9, 10)), (3, (22,))):
        g = streett_counter_family(d).game
        for b in bounds:
            res = decide_bounded_cost_streett(g, b)
            assert not res.achievable
            assert check_move_tables(res, (1,)) > 0
            with pytest.raises(ValueError, match="read certificate"):
                res.move_function(0)


def test_player0_has_no_positional_streett_move():
    # Player 0's level strategies are cells with memory: her moves are
    # read off the certificate; Player 1's stay positional
    g = streett_counter_family(1).game
    for bound in (4, 5):
        res = decide_bounded_cost_streett(g, bound)
        with pytest.raises(ValueError, match="read certificate"):
            res.move_function(0)
        move = res.move_function(1)
        moves = {(v, r): move(v, 0, r) for v, r in res.nodes if g.owner[v] == 1}
        assert all(t is None or (v, t) in g.edge_cost for (v, _), t in moves.items())
        assert any(t is not None for t in moves.values()) == (not res.achievable)


def test_reduction_shape():
    inst = streett_counter_family(1)
    red = build_streett_reduction(inst.game, 5)
    assert red.streett.d == inst.game.d + 1
    n = inst.game.n
    assert red.size <= n * (n + 1) * (5 + 2) ** inst.game.d
    assert red.states[0][1] == 0
    # the extra pair fires exactly on saturated states and has no answers
    saturation = 1 << inst.game.d
    assert [bool(q & saturation) for q in red.streett.qmask] == [o >= n for _, o, _ in red.states]
    assert not any(p & saturation for p in red.streett.pmask)


def test_counter_family_decide():
    inst = streett_counter_family(1)
    assert decide_bounded_cost_streett(inst.game, 5).achievable
    assert not decide_bounded_cost_streett(inst.game, 4).achievable


def test_counter_family_optimal_d1():
    inst = streett_counter_family(1)
    res = optimal_cost_streett(inst.game)
    assert res.value == 5 and not res.cap_hit


def test_optimal_streett_searches_without_a_guess(monkeypatch):
    # Streett games pass no classical bracket: the plain upward search,
    # probe for probe
    bounds = []
    real = streett.decide_bounded_cost_streett

    def decide(game, bound, **kw):
        bounds.append(bound)
        return real(game, bound, **kw)

    monkeypatch.setattr(streett, "decide_bounded_cost_streett", decide)
    for d, want in ((1, [0, 1, 2, 4, 8, 6, 5]), (2, [0, 1, 2, 4, 8, 16, 12, 10, 11])):
        bounds.clear()
        assert optimal_cost_streett(streett_counter_family(d).game).value == want[-1]
        assert bounds == want


def test_streett_decide_monotone():
    rng = random.Random(47)
    for _ in range(25):
        g = random_cost_streett(rng)
        vals = [decide_bounded_cost_streett(g, b).achievable for b in range(4)]
        assert all(b or not a for a, b in zip(vals, vals[1:]))


def _levels_against_flat(g, b) -> tuple[int, int]:
    """Asserts that the layered decision's winner equals the flat
    reduction's at every reduction state; returns the number of states
    and of those at levels below the lowest one solved."""
    res = decide_bounded_cost_streett(g, b)
    red = build_streett_reduction(g, res.bound)
    flat = solve_streett(red.streett)
    assert res.achievable == (flat.winner_from_initial == 0)
    assert res.product_states == len({(v, r) for v, _, r in red.states})
    lowest = g.n - len(res.iterates)
    served = 0
    for i, (v, o, r) in enumerate(red.states):
        assert product_winner(res, v, o, r) == (0 if i in flat.win0 else 1), (b, v, o, r)
        served += o < lowest
    return len(red.states), served


def test_layered_streett_winners_equal_flat_at_every_state():
    states = served = 0
    for d, bounds in ((1, (3, 4, 5, 6)), (2, (10, 11, 12))):
        g = streett_counter_family(d).game
        for b in bounds:
            count, below = _levels_against_flat(g, b)
            states, served = states + count, served + below
    rng = random.Random(79)
    for k in range(300):
        if k % 2:
            g = streett_from_cost_parity(random_cost_game(
                rng, rng.randint(1, 4), 4, max_cost=rng.choice([1, 2]), encoding="binary"))
        else:
            g = random_cost_streett(rng)
        for b in range(7):
            count, below = _levels_against_flat(g, b)
            states, served = states + count, served + below
    assert served > 0 and states > served


def test_sink_first_winners_equal_the_whole_streett_solve(monkeypatch):
    """Sink-first winners against ``solve_streett(sg).win0``: on seeded
    random level-shaped Streett games (the won sink requests nothing,
    the lost sink requests a pair nothing answers), both where the sinks
    decide every node and where a rest is left, where the winners-only
    solve also gives the full solve's regions; and at every level the
    counter family's decisions solve, with a rest left at some."""
    rng = random.Random(83)
    seen = Counter()
    original = _StreettLevels.solve_rest

    def solve_rest(sg, rest, active):
        seen["rest solved"] += 1
        return original(sg, rest, active)

    for _ in range(1500):
        rows = random_level_rows(rng, seen)
        m = len(rows) - 2
        d = rng.randint(1, 2)
        q, p = ([frozenset(v for v in range(m) if rng.random() < 0.4) for _ in range(d)]
                for _ in range(2))
        sg = StreettGame(tuple(rng.randint(0, 1) for _ in range(m)) + (1, 0), rows,
                         pair_masks(m + 2, q + [frozenset({m + 1})]),
                         pair_masks(m + 2, p + [frozenset()]), d + 1, 0)
        full, lean = solve_streett(sg), solve_streett(sg, cells=False)
        assert (lean.win0, lean.win1) == (full.win0, full.win1), sg
        whole = frozenset(v for v in full.win0 if v < m)
        assert _sink_first_winners(sg, solve_rest) == whole, sg
    seen["sinks decide all"] = 1500 - seen["rest solved"]
    assert min(seen.values()) >= 500, seen
    monkeypatch.setattr(_StreettLevels, "solve_rest", staticmethod(solve_rest))
    seen["rest solved"] = 0
    for d, bounds in ((1, (3, 4, 5, 6)), (2, (9, 10, 11, 12))):
        g = streett_counter_family(d).game
        for b in bounds:
            res = decide_bounded_cost_streett(g, b)
            for k, (won,) in enumerate(res.iterates):
                sg = res.classical_game(*res._level_game(res.prev(k)))
                assert won == frozenset(v for v in solve_streett(sg).win0 if v < res.size)
    assert seen["rest solved"] > 0


def test_budget_caps_the_decision_and_the_certificate(monkeypatch):
    g = streett_counter_family(1).game
    res = decide_bounded_cost_streett(g, 5)
    # the budget counts the level graph's nodes, which skip the one
    # pass-through vertex: 2 of the 22 full nodes sit there
    assert g.pass_through == oracle_pass_through(g) == {5}
    assert full_level_product(g, StreettTracker(g, 5)).size == 22
    assert (res.product_states, build_streett_reduction(g, 5).size) == (20, 200)
    # the flat reduction's budget caps the unrolled product, past the level graph
    assert build_streett_reduction(g, 5, budget=200).size == 200
    with pytest.raises(BudgetExceededError, match="^streett reduction exceeds budget 199 states$"):
        build_streett_reduction(g, 5, budget=199)
    assert decide_bounded_cost_streett(g, 5, product_budget=20).product_states == 20
    with pytest.raises(BudgetExceededError):
        decide_bounded_cost_streett(g, 5, product_budget=19)
    res = decide_bounded_cost_streett(g, 5, product_budget=100)
    assert res.achievable and res.product_states == 20
    # the certificate reads the level solves, under the decision's
    # budget; its update table meets the table budget
    assert streett_strategy_cost(g, res.certificate) <= 5
    monkeypatch.setattr(core, "DEFAULT_PRODUCT_BUDGET", 100)
    res = decide_bounded_cost_streett(g, 5, product_budget=100)
    with pytest.raises(BudgetExceededError) as exc:
        res.certificate
    assert str(exc.value) == "strategy update table exceeds budget 100 entries"


def test_streett_certificates_verify():
    rng = random.Random(53)
    for _ in range(40):
        g = random_cost_streett(rng)
        b = rng.randint(0, 3)
        res = decide_bounded_cost_streett(g, b)
        cert = res.certificate
        if res.achievable:
            assert cert.player == 0
            assert streett_strategy_cost(g, cert) <= res.bound
        else:
            assert cert.player == 1
            assert streett_spoiler_cost(g, cert) > res.bound


def _overflow_landings(g, res) -> int:
    """Checks that Player 0's certificate restarts its memory on every
    overflow move: the memory after the move depends only on the state
    (t, o, r) it lands in, as the cell restarts at the node entered, or
    at the node of t's exit when t is a pass-through vertex.  The
    certificate is tabulated without merging, so that its states
    are the labels (o, r, cell state).  Returns the number of overflow
    moves checked."""
    with unmerged_certificates():
        cert = streett._compose_p0_certificate(res)
    tr = StreettTracker(g, res.bound)
    landed: dict = {}
    for m, label in enumerate(cert.states):
        if label is DEAD_LABEL:
            continue
        o, r, _ = label
        for (src, t), ek in g.update_key.items():
            o2, r2, overflowed = tr.update(o, r, g.edge_cost[(src, t)], t)
            if overflowed:
                after = cert.update[(m, ek)]
                assert landed.setdefault((t, o2, r2), after) == after, (label, src, t)
    return len(landed)


def test_layered_certificates_against_the_flat_route():
    # every certificate read off the level solves holds its side of the
    # bound, and Player 0's restarts its memory on overflow moves, on
    # random games and on the same games with pass-through vertices
    # added; on the counter each costs what the full flat reduction's
    # certificate costs, and every optimal witness costs the value
    def cost(g, cert):
        verify = streett_strategy_cost if cert.player == 0 else streett_spoiler_cost
        return verify(g, cert)

    rng = random.Random(97)
    checked = [0, 0]
    landings = 0
    for k in range(300):
        g = random_cost_streett(rng)
        if k % 2:
            g = with_pass_through(rng, g)
        for b in range(7):
            res = decide_bounded_cost_streett(g, b)
            c = cost(g, res.certificate)
            assert c <= res.bound if res.achievable else c > res.bound, (b, c)
            checked[res.certificate.player] += 1
            if res.achievable:
                landings += _overflow_landings(g, res)
        opt = optimal_cost_streett(g)
        if opt.witness is not None:
            assert cost(g, opt.witness) == opt.value
    assert min(checked) > 500
    for d in (1, 2):
        g = streett_counter_family(d).game
        opt = optimal_cost_streett(g)
        assert cost(g, opt.witness) == opt.value
        for b in (opt.value - 1, opt.value):
            res = decide_bounded_cost_streett(g, b)
            assert res.achievable == (b == opt.value)
            assert cost(g, res.certificate) == cost(g, flat_streett_certificate(g, b))
        landings += _overflow_landings(g, res)
    assert landings > 400


def test_spoiler_cost_counts_prefix_overflows_as_free():
    # the Streett image of a 3-vertex parity game: the play 0·1^ω leaves
    # its one request in the prefix and costs 0, though its step 0→1
    # overflows every bound below 2
    g = tiny_streett(pairs=[({0}, {2})],
                     edges=[(0, 0, 0), (0, 1, 2), (1, 1, 3), (2, 0, 0), (2, 2, 3)],
                     owners=[0, 0, 0])
    tau = StrategySpec(1, (0,), 0, {(0, ek): 0 for ek in g.update_key.values()}, {})
    assert streett_play_cost(g, Lasso((0,), (1,))) == 0
    assert optimal_cost_streett(g).value == 0
    assert streett_spoiler_cost(g, tau) == 0


def test_streett_verifier_matches_bisected_decisions():
    # random strategies of both players against the layered decision,
    # bisected on their one-player products
    rng = random.Random(83)
    for _ in range(300):
        g = random_cost_streett(rng)
        for player, verify in ((0, streett_strategy_cost), (1, streett_spoiler_cost)):
            strat = random_strategy(rng, g, player, rng.randint(1, 3))
            expected = bisected_cost(decide_bounded_cost_streett,
                                     streett_strategy_product(g, strat))
            assert verify(g, strat) == expected


def test_list_costs_decide_like_tuple_costs():
    # StreettEdge.costs is typed as a tuple but not enforced; the tracker
    # memo keys on the costs, so the game must hand them out as tuples
    rng = random.Random(67)
    for _ in range(30):
        g = random_cost_streett(rng)
        lg = CostStreettGame(g.vertices,
                             tuple(StreettEdge(e.source, e.target, list(e.costs))
                                   for e in g.edges), g.pairs, g.initial)
        for b in range(3):
            res, lres = decide_bounded_cost_streett(g, b), decide_bounded_cost_streett(lg, b)
            assert lres.achievable == res.achievable
            assert (lres.nodes, lres.succ) == (res.nodes, res.succ)
            assert format_strat(lres.certificate) == format_strat(res.certificate)
            verify = streett_strategy_cost if res.achievable else streett_spoiler_cost
            assert verify(lg, lres.certificate) == verify(g, res.certificate)


def test_streett_reduction_equals_the_direct_search():
    # the flat reduction against a search that steps the tracker on
    # every edge, walking moves on through walked vertices by its own
    # rule, and the decision's level product against a fresh one; a
    # quarter of the games have chains, cycles and parallel exits of
    # pass-through vertices, a quarter forced answering chains
    rng = random.Random(31)
    games = [random_cost_streett(rng) for _ in range(120)]
    games = [(g, with_pass_through(rng, g), g, with_answering_chains(rng, g))[k % 4]
             for k, g in enumerate(games)]
    cases = [(g, b) for g in games for b in range(5)]
    cases.append((streett_counter_family(2).game, 11))
    def overflow_edges(red, levels):
        # the flat edges (i, k) whose move overflows in the level row
        # that state i unrolls; the reduction keeps no edge set itself
        overflow = levels.overflow
        return frozenset(
            (i, k) for i, (v, _, r) in enumerate(red.states)
            for node in [levels.index[(v, r)]]
            for j, k in zip(levels.succ[node], red.streett.succ[i])
            if j in overflow.get(node, ()))

    skipped = 0
    for g, b in cases:
        expected = direct_tracked_product(g, StreettTracker(g, b), skip=True)
        skipped += len(direct_tracked_product(g, StreettTracker(g, b))[0]) > len(expected[0])
        red = build_streett_reduction(g, b)
        levels = _LevelProduct(g, StreettTracker(g, b), 10 ** 6, "level product",
                               g.walked_exits)
        assert (red.states, red.streett.succ, overflow_edges(red, levels)) == expected, b
        decided = decide_bounded_cost_streett(g, b)
        assert (decided.nodes, decided.index, decided.succ, decided.pred, decided.overflow) == \
            (levels.nodes, levels.index, levels.succ, levels.pred, levels.overflow), b
    assert skipped > 200


def test_streett_tracker_tables_answer_like_a_fresh_tracker(monkeypatch):
    rng = random.Random(71)
    cases = []
    for _ in range(40):
        g = random_cost_streett(rng)
        cases.append((g, rng.randint(0, 3), [(e.costs, e.target) for e in g.edges]))
    check_span_tables(rng, StreettTracker, cases, monkeypatch)


def test_streett_tracker_steps_like_the_pair_based_step():
    # the one mask-based step against the Streett step written on pairs,
    # on walks with per-pair costs; many steps overflow at exactly b+1
    rng = random.Random(79)
    walked = exact = 0
    for _ in range(300):
        g = random_cost_streett(rng)
        b = rng.randint(0, 3)
        tr = StreettTracker(g, b)
        assert all(tr.unpack(tr.initial_r(v)) == streett_initial_r(g, v) for v in g.owner)
        o, r = tr.initial_state()
        v = g.initial
        for _ in range(50):
            t, w = rng.choice(g.successors[v])
            o2, r2, overflowed = tr.update(o, r, w, t)
            step = o2, tr.unpack(r2), overflowed
            values = tr.unpack(r)
            assert step == streett_step(g, b, o, values, w, t), (o, values, w, t)
            charged = [x + c for x, c in zip(values, w) if x is not None]
            exact += overflowed and max(charged) == b + 1
            o, r, v = o2, r2, t
            walked += 1
    assert walked > 10_000
    assert exact > 500


def test_streett_tracker_agrees_with_parity_tracker():
    # on the embedding the Streett tracker steps exactly as the parity one
    rng = random.Random(73)
    walked = 0
    for _ in range(320):
        g = random_cost_game(rng, rng.randint(1, 5), 5,
                             max_cost=rng.choice([1, 3]), encoding="binary")
        if not g.odd_colors:
            continue  # the embedding adds one empty pair: r has another length
        b = rng.randint(0, 3)
        sg = streett_from_cost_parity(g)
        tp, tst = Tracker(g, b), StreettTracker(sg, b)
        state = tp.initial_state()
        assert tst.initial_state() == state
        v = g.initial
        for _ in range(50):
            t, w = rng.choice(g.successors[v])
            step = tp.update(*state, w, t)
            assert tst.update(*state, sg.edge_cost[(v, t)], t) == step
            state, v = step[:2], t
            walked += 1
    assert walked > 10_000


def test_streett_generalizes_cost_parity():
    # pairs from a parity coloring give the same bounded-cost answers
    rng = random.Random(59)
    for _ in range(60):
        g = random_cost_game(rng, rng.randint(1, 4), 4,
                             max_cost=rng.choice([1, 2]), encoding="binary")
        sg = streett_from_cost_parity(g)
        assert validate_streett_game(sg) == []
        for b in range(0, 3):
            assert decide_bounded_cost_streett(sg, b).achievable == \
                decide_bounded_cost(g, b).achievable


def test_cst_roundtrip():
    g = streett_counter_family(1).game
    text = format_cst(g)
    back = parse_cst(text)
    assert back.pairs == g.pairs
    assert set(back.edges) == set(g.edges)
    assert format_cst(back) == text


def test_all_pairs_empty_optimal_zero():
    g = tiny_streett(pairs=[(set(), set())], edges=[(0, 0, 1)], owners=[0])
    res = optimal_cost_streett(g)
    assert res.value == 0


def test_streett_optimal_proven_loss_vs_cap_hit():
    # a permanently unanswerable pair: every bound fails
    g = tiny_streett(pairs=[({0}, set())], edges=[(0, 0, 1)], owners=[0])
    capped = optimal_cost_streett(g)  # practical cap < regime cap
    assert capped.cap_hit and capped.value == INF and capped.witness is None
    regime = streett_regime_cap(g)
    proven = _least_achievable(lambda b: decide_bounded_cost_streett(g, b), regime, regime)
    assert not proven.cap_hit and proven.value == INF
    assert proven.witness is not None and proven.witness.player == 1
    assert streett_spoiler_cost(g, proven.witness) == INF


def test_streett_optimal_witness_is_the_certificate_at_the_value():
    # the value is a full scan's up to the practical cap; the witness is
    # byte for byte the decision's certificate at the value.  Past the
    # practical cap the value is unknown (cap_hit, no witness); past
    # the regime cap Player 0 provably loses, and the certificate at the
    # cap is the witness.  Regime caps above 192 are left out: their
    # products reach 10^5–10^6 states.
    rng = random.Random(59)
    for _ in range(150):
        g = random_cost_streett(rng)
        cap = g.n * max(1, g.max_cost) * 2 ** g.d
        scan = next((b for b in range(cap + 1)
                     if decide_bounded_cost_streett(g, b).achievable), INF)
        res = optimal_cost_streett(g)
        assert (res.value, res.searched_up_to) == (scan, cap)
        if scan == INF:
            assert res.cap_hit and res.witness is None
        else:
            assert not res.cap_hit
            assert format_strat(res.witness) == format_strat(
                decide_bounded_cost_streett(g, scan).certificate)
            continue
        regime = streett_regime_cap(g)
        if regime > 192:
            continue
        proven = _least_achievable(lambda b: decide_bounded_cost_streett(g, b), regime, regime)
        top = decide_bounded_cost_streett(g, regime)
        assert not proven.cap_hit and proven.searched_up_to == regime
        if top.achievable:
            value = proven.value
            assert cap < value <= regime
            assert not decide_bounded_cost_streett(g, value - 1).achievable
            top = decide_bounded_cost_streett(g, value)
        else:
            assert proven.value == INF
        assert format_strat(proven.witness) == format_strat(top.certificate)


def test_streett_decisions_stop_at_the_first_iterate_that_wins_node_0():
    """On random cost-Streett games, the answer of a decision that
    stopped early is the one the last iterate of the whole fixpoint
    gives, and the iterates it completes on first read are those of the
    engine that solves every level whole."""
    rng = random.Random(73)
    stopped = 0
    for _ in range(300):
        g = random_cost_streett(rng)
        res = decide_bounded_cost_streett(g, rng.randint(0, 6))
        assert "iterates" not in vars(res)
        solved = len(res._levels)
        eager = eager_streett_levels(g, res.bound)
        assert res.achievable == (0 in eager[-1][0])
        assert res.iterates == eager
        won = [w for w, in res.iterates]
        assert all(a <= b for a, b in zip(won, won[1:]))
        stopped += solved < len(eager)
    assert stopped >= 20, stopped


def test_counter_decision_solves_one_level(monkeypatch):
    """At d=3 and b=23 the counter's decision wins node 0 in the first
    iterate and solves no other level; the second, which the fixpoint
    needs, is solved when ``iterates`` is first read."""
    calls = Counter()
    original = _StreettLevels.solve_level

    def solve_level(self, *args):
        calls["levels"] += 1
        return original(self, *args)

    monkeypatch.setattr(_StreettLevels, "solve_level", solve_level)
    res = decide_bounded_cost_streett(streett_counter_family(3).game, 23)
    assert res.achievable and calls["levels"] == 1
    assert len(res.iterates) == 2 and calls["levels"] == 2


def test_streett_certificates_after_an_early_stop():
    """The counter's Player 0 certificate at d=2, b=11, built from a
    decision that stopped at its first iterate, equals the one built
    after the fixpoint was completed, and so do the winners."""
    g = streett_counter_family(2).game
    early = decide_bounded_cost_streett(g, 11)
    complete = decide_bounded_cost_streett(g, 11)
    assert len(complete.iterates) == 2
    assert early.achievable and len(early._levels) == 1
    assert early.certificate == complete.certificate
    assert streett_strategy_cost(g, early.certificate) == 11
    for v, r in early.nodes:
        for o in range(g.n + 1):
            assert product_winner(early, v, o, r) == product_winner(complete, v, o, r)
