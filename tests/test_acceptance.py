"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time

from conftest import (check_domination_stability, check_tracking_trace, delay_game,
                      random_cost_game)
from costparity import (INF, QbfFormula, binary_tradeoff_family,
                        decide_bounded_cost, decide_bounded_cost_finite_duration,
                        eval_qbf, optimal_cost, p0_memory_family,
                        p1_memory_family, p1_tradeoff_family, qbf_to_game,
                        streett_counter_family, subdivide_costs)
from costparity.core import strategy_from_functions
from costparity.reduction import Tracker, _PrefixStack, _r_dominated
from costparity.semantics import spoiler_cost, strategy_cost
from costparity.streett import (decide_bounded_cost_streett,
                                optimal_cost_streett, streett_spoiler_cost,
                                streett_strategy_cost)


def report(num, text, t0):
    print(f"ACCEPTANCE {num:2d} PASS: {text}  [{time.time() - t0:.1f}s]")


def test_01_delay_game_optimal_costs():
    t0 = time.time()
    right = optimal_cost(delay_game(True))
    left = optimal_cost(delay_game(False))
    assert right.value == 2
    assert left.value == INF
    assert time.time() - t0 < 1
    report(1, "delay games: optimal 2 when idling is free, inf otherwise", t0)


def test_02_tracking_trace():
    t0 = time.time()
    check_tracking_trace()
    assert time.time() - t0 < 1
    report(2, "request tracking reproduces the eight-step reference trace", t0)


def _qbf_grid():
    """Deterministic exhaustive-slice grid over n ≤ 3 variables, m ≤ 3.

    One variable: every clause-set of size 1..3 over the 4 canonical
    clauses (fully exhaustive).  Two variables (both quantifier orders,
    padded to three variables by normalization): every single clause,
    every clause pair, every 25th triple.  Three variables (∃∀∃): every
    single clause, every 8th pair, every 120th triple.
    """
    grid = []
    cl1 = sorted(set(tuple(sorted(c)) for c in itertools.product((1, -1), repeat=3)))
    for k in (1, 2, 3):
        for chosen in itertools.combinations(cl1, k):
            grid.append(QbfFormula(("e",), chosen))
    lits2 = (1, -1, 2, -2)
    cl2 = sorted(set(tuple(sorted(c)) for c in itertools.product(lits2, repeat=3)))
    for prefix in (("e", "a"), ("a", "e")):
        for c in cl2:
            grid.append(QbfFormula(prefix, (c,)))
        for pair in itertools.combinations(cl2, 2):
            grid.append(QbfFormula(prefix, pair))
        for triple in list(itertools.combinations(cl2, 3))[::25]:
            grid.append(QbfFormula(prefix, triple))
    lits3 = (1, -1, 2, -2, 3, -3)
    cl3 = sorted(set(tuple(sorted(c)) for c in itertools.product(lits3, repeat=3)))
    for c in cl3:
        grid.append(QbfFormula(("e", "a", "e"), (c,)))
    for pair in list(itertools.combinations(cl3, 2))[::8]:
        grid.append(QbfFormula(("e", "a", "e"), pair))
    for triple in list(itertools.combinations(cl3, 3))[::120]:
        grid.append(QbfFormula(("e", "a", "e"), triple))
    return grid


def test_03_qbf_reduction_grid():
    t0 = time.time()
    grid = _qbf_grid()
    for phi in grid:
        inst = qbf_to_game(phi)
        got = decide_bounded_cost(inst.game, inst.target_bound).achievable
        assert got == eval_qbf(phi), phi
    assert time.time() - t0 < 300
    report(3, f"qbf grid: decide == eval_qbf on {len(grid)} formulas", t0)


def test_04_p0_memory_family():
    t0 = time.time()
    for d in (1, 2):
        inst = p0_memory_family(d)
        assert optimal_cost(inst.game).value == d * d + 2 * d
    for d in (1, 2, 3):  # strategy verification only for d = 3
        inst = p0_memory_family(d)
        for j, ref in enumerate(inst.reference_strategies, start=1):
            assert strategy_cost(inst.game, ref.strategy) == d * d + 3 * d - j
            assert ref.strategy.size == ref.claimed_size
    assert time.time() - t0 < 120
    report(4, "p0 family: optimal d²+2d (d≤2), Cst(σ_j)=d²+3d−j (d≤3)", t0)


def test_05_positional_insufficiency_d2():
    t0 = time.time()
    inst = p0_memory_family(2)
    g = inst.game
    choice_vertices = [v.id for v in g.vertices
                       if v.owner == 0 and len(g.successors[v.id]) > 1]
    assert len(choice_vertices) == 2
    costs = []
    options = [[t for t, _ in g.successors[v]] for v in choice_vertices]
    for combo in itertools.product(*options):
        pick = dict(zip(choice_vertices, combo))

        def nxt(v, m, pick=pick):
            return pick.get(v, g.successors[v][0][0])

        sigma = strategy_from_functions(g, 0, 0, lambda m, e: 0, nxt)
        costs.append(strategy_cost(g, sigma))
    assert len(costs) == 4
    assert all(c > 8 for c in costs)
    assert min(costs) == 9  # the best positional strategy realizes d²+3d−1
    assert time.time() - t0 < 60
    report(5, f"no positional strategy on G_2 reaches 8 (best: {min(costs)})", t0)


def test_06_p1_family_and_tradeoff():
    t0 = time.time()
    for d in (1, 2):
        inst = p1_memory_family(d)
        (tau,) = inst.reference_strategies
        assert spoiler_cost(inst.game, tau.strategy) == 5 * (d - 1) + 7
    union = p1_tradeoff_family(2)
    chain = [spoiler_cost(union.game, r.strategy)
             for r in union.reference_strategies]
    assert chain == [7, 12]
    sizes = [r.strategy.size for r in union.reference_strategies]
    assert sizes == [2, 4]
    assert time.time() - t0 < 60
    report(6, "p1 family: Cst(τ)=5(d−1)+7 for d∈{1,2}; union chain 7<12", t0)


def test_07_binary_tradeoff_family():
    t0 = time.time()
    inst = binary_tradeoff_family(2)
    by_name = {r.name: r for r in inst.reference_strategies}
    c1 = strategy_cost(inst.game, by_name["sigma1"].strategy)
    c2 = strategy_cost(inst.game, by_name["sigma2"].strategy)
    assert (c1, c2) == (14, 12)
    assert time.time() - t0 < 60
    report(7, "binary tradeoff d=2: Cst(σ1)=14, Cst(σ2)=12", t0)


def test_08_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(801)
    total, exhausted = 0, 0
    while total < 200:
        g = random_cost_game(rng, rng.randint(1, 3), rng.randint(0, 4))
        b = rng.randint(0, 1)
        total += 1
        fd = decide_bounded_cost_finite_duration(g, b, node_budget=10_000_000)
        if fd.exhausted:
            exhausted += 1
            continue
        assert fd.achievable == decide_bounded_cost(g, b).achievable
    assert exhausted / total < 0.10
    assert time.time() - t0 < 600
    report(8, f"decide == finite-duration on {total - exhausted}/{total} games"
              f" ({exhausted} budget-exhausted)", t0)


def test_09_encoding_equivalence():
    t0 = time.time()
    rng = random.Random(901)
    games = 0
    while games < 100:
        g = random_cost_game(rng, rng.randint(1, 3), rng.randint(0, 4),
                             max_cost=3, encoding="binary")
        sub = subdivide_costs(g)
        for b in range(5):
            assert decide_bounded_cost(g, b).achievable == \
                decide_bounded_cost(sub, b).achievable
        games += 1
    assert time.time() - t0 < 300
    report(9, f"binary decide == subdivision decide on {games} games x 5 bounds", t0)


def test_10_cost_cap():
    t0 = time.time()
    rng = random.Random(1001)
    winners = 0
    attempts = 0
    while winners < 500 and attempts < 5000:
        attempts += 1
        if rng.random() < 0.5:
            g = random_cost_game(rng, rng.randint(1, 4), rng.randint(0, 4))
            cap = g.n
        else:
            g = random_cost_game(rng, rng.randint(1, 3), rng.randint(0, 4),
                                 max_cost=3, encoding="binary")
            cap = g.n * g.max_cost
        res = optimal_cost(g)
        if res.value == INF:
            continue
        winners += 1
        assert res.value <= cap, (res.value, cap)
    assert winners >= 500
    assert time.time() - t0 < 300
    report(10, f"optimal ≤ n (unary) / nW (binary) on {winners} won games", t0)


def test_11_domination_stability():
    t0 = time.time()
    checked_pairs = check_domination_stability(random.Random(1101))
    assert time.time() - t0 < 120
    report(11, f"⊑ stability under every edge, {checked_pairs} ⊑-pairs checked", t0)


def _walk_settles(game, bound, rng, max_len, stack=None):
    """Random annotated walk with incremental settledness detection;
    returns the number of steps taken before settling and the winner
    (1 at saturation or on an odd dominating cycle, 0 on an even one),
    or None.  A ``_PrefixStack`` given as ``stack`` takes every move too,
    and its verdict must be the walk's at every step."""
    tr = Tracker(game, bound)
    o, r = tr.initial_state()
    verts = [game.initial]
    rs = [tr.unpack(r)]
    buckets = {(game.initial, o): [0]}
    color = game.color
    if stack is not None:
        stack.push(game.initial, o, r, 0)
    for step in range(1, max_len + 1):
        t, w = rng.choice(game.successors[verts[-1]])
        o, r, _ = tr.update(o, r, w, t)
        verts.append(t)
        rs.append(tr.unpack(r))
        i = len(verts) - 1
        winner = 1 if o == game.n else None
        for k in buckets.get((t, o), ()) if winner is None else ():
            odd = max(color[verts[j]] for j in range(k, i + 1)) % 2
            if _r_dominated(rs[k], rs[i]) if odd else _r_dominated(rs[i], rs[k]):
                winner = odd
                break
        if stack is not None:
            stack.push(t, *stack.step(t, w))
            assert stack.verdict() == winner, (step, winner)
        if winner is not None:
            return step, winner
        buckets.setdefault((t, o), []).append(i)
    return None


def test_12_settledness_bound():
    t0 = time.time()
    rng = random.Random(1201)
    walks = 0
    for _ in range(20):
        g = random_cost_game(rng, rng.randint(1, 3), rng.randint(0, 4))
        b = rng.randint(0, 2)
        limit = (g.n + 1) ** 6 + 1  # ℓ + 1 for a unary game
        for _ in range(1000):
            assert _walk_settles(g, b, rng, limit) is not None
            walks += 1
    assert walks == 20_000
    assert time.time() - t0 < 300
    report(12, "20k random walks all settled within (n+1)^6 + 1 steps", t0)


def test_12b_prefix_stack_verdicts_match_the_walk_oracle():
    # the engine's prefix stack beside the oracle: no verdict, then its winner
    t0 = time.time()
    rng = random.Random(1202)
    winners = [0, 0]
    while sum(winners) < 2_000:
        g = random_cost_game(rng, rng.randint(1, 4), rng.randint(0, 5))
        b = rng.randint(0, 3)
        for _ in range(40):
            _, winner = _walk_settles(g, b, rng, (g.n + 1) ** 6 + 1, _PrefixStack(g, b))
            winners[winner] += 1
    assert min(winners) > 300, winners
    assert time.time() - t0 < 120
    report(12, f"prefix stack settles {sum(winners)} walks as the oracle does"
               f" (winners 0/1: {winners[0]}/{winners[1]})", t0)


def test_13_streett_counter_family():
    t0 = time.time()
    assert optimal_cost_streett(streett_counter_family(1).game).value == 5
    assert optimal_cost_streett(streett_counter_family(2).game).value == 11
    inst3 = streett_counter_family(3)  # strategy verification only
    assert streett_strategy_cost(
        inst3.game, inst3.reference_strategies[0].strategy) == 23
    assert time.time() - t0 < 300
    report(13, "streett counter: optimal 5 (d=1), 11 (d=2); σ_d3 verified at 23", t0)


def test_14_certificate_soundness():
    t0 = time.time()
    rng = random.Random(1401)
    count = 0

    def check(game, res):
        nonlocal count
        cert = res.certificate
        if res.achievable:
            assert strategy_cost(game, cert) <= res.bound
        else:
            assert spoiler_cost(game, cert) > res.bound
        count += 1

    for b in range(4):
        check(delay_game(True), decide_bounded_cost(delay_game(True), b))
        check(delay_game(False), decide_bounded_cost(delay_game(False), b))
    for _ in range(40):
        g = random_cost_game(rng, rng.randint(1, 3), 4)
        check(g, decide_bounded_cost(g, rng.randint(0, 2)))
    for _ in range(20):
        g = random_cost_game(rng, rng.randint(1, 3), 4, max_cost=3,
                             encoding="binary")
        check(g, decide_bounded_cost(g, rng.randint(0, 4)))
    for d in (1, 2):
        inst = p0_memory_family(d)
        res = decide_bounded_cost(inst.game, inst.target_bound)
        assert res.achievable
        check(inst.game, res)
    inst = qbf_to_game(QbfFormula(("e",), ((1, 1, 1), (-1, -1, -1))))
    check(inst.game, decide_bounded_cost(inst.game, inst.target_bound))

    streett_inst = streett_counter_family(1)
    for b, want in ((5, True), (4, False)):
        res = decide_bounded_cost_streett(streett_inst.game, b)
        assert res.achievable == want
        cert = res.certificate
        if want:
            assert streett_strategy_cost(streett_inst.game, cert) <= b
        else:
            assert streett_spoiler_cost(streett_inst.game, cert) > b
        count += 1
    assert time.time() - t0 < 300
    report(14, f"{count} certificates verified against their bounds", t0)
