import itertools
import random

import pytest
from conftest import walked_spoiler_cost

from costparity import (QbfFormula, binary_tradeoff_family,
                        decide_bounded_cost, eval_qbf, format_qdimacs, make_game,
                        normalize_qbf, optimal_cost, p0_memory_family,
                        p1_memory_family, p1_tradeoff_family, parse_qdimacs,
                        qbf_to_game, streett_counter_family, validate_game)
from costparity.core import FormatError
from costparity.generators import _qbf_arena, _qbf_distance_audit
from costparity.reduction import Tracker
from costparity.semantics import spoiler_cost, strategy_cost
from costparity.streett import (streett_strategy_cost, validate_streett_game)


def test_eval_qbf_trivials():
    assert eval_qbf(QbfFormula(("e",), ((1, 1, 1),)))
    assert not eval_qbf(QbfFormula(("e",), ((1, 1, 1), (-1, -1, -1))))
    assert eval_qbf(QbfFormula(("e", "a", "e"), ((-2, 3, 3),)))
    assert not eval_qbf(QbfFormula(("e", "a", "e"), ((2, 2, 2),)))


def test_qbf_normalization():
    phi = normalize_qbf(QbfFormula(("e", "e"), ((1, 2, 2),)))
    assert phi.normalized
    assert phi.prefix == ("e", "a", "e")
    assert phi.clauses == ((1, 3, 3),)
    phi2 = normalize_qbf(QbfFormula(("a",), ((1, 1, 1),)))
    assert phi2.prefix == ("e", "a", "e")
    assert phi2.clauses == ((2, 2, 2),)
    assert eval_qbf(phi2) == eval_qbf(QbfFormula(("a",), ((1, 1, 1),)))


def test_qbf_normalization_preserves_value():
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randint(1, 4)
        prefix = tuple(rng.choice("ea") for _ in range(n))
        clauses = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3))
            for _ in range(rng.randint(1, 3)))
        phi = QbfFormula(prefix, clauses)
        assert eval_qbf(phi) == eval_qbf(normalize_qbf(phi))


def test_qbf_rejects_malformed_clauses():
    with pytest.raises(ValueError):
        QbfFormula(("e",), ((1, 1),)).check()
    with pytest.raises(ValueError):
        QbfFormula(("e",), ((1, 2, 1),)).check()
    with pytest.raises(ValueError, match="at least one clause"):
        QbfFormula(("e",), ()).check()
    with pytest.raises(ValueError, match="^bad quantifier 'x'$"):
        QbfFormula(("e", "x"), ((1, 2, 1),)).check()
    with pytest.raises(ValueError, match="at least one clause"):
        qbf_to_game(QbfFormula(("e", "a"), ()))


def test_qbf_game_bounds_and_size():
    inst = qbf_to_game(QbfFormula(("e",), ((1, 1, 1),)))
    assert inst.target_bound == 8
    assert validate_game(inst.game) == []
    assert decide_bounded_cost(inst.game, 8).achievable
    inst2 = qbf_to_game(QbfFormula(("e",), ((1, 1, 1), (-1, -1, -1))))
    assert not decide_bounded_cost(inst2.game, 8).achievable
    inst3 = qbf_to_game(QbfFormula(("e", "a", "e"), ((1, 2, 3),)))
    assert inst3.target_bound == 14
    assert decide_bounded_cost(inst3.game, 14).achievable == eval_qbf(
        QbfFormula(("e", "a", "e"), ((1, 2, 3),)))
    # all edges cost one; size O(n² + m)
    assert all(e.cost == 1 for e in inst3.game.edges)
    n = 3
    assert inst3.game.n <= 20 * n * n + 10


def test_qbf_distance_audit_runs_for_n_up_to_4():
    for n in (1, 3):
        prefix = tuple("eae"[:n]) if n == 3 else ("e",)
        lits = [v for i in range(1, n + 1) for v in (i, -i)]
        clauses = tuple((l, l, l) for l in lits[:3])
        qbf_to_game(QbfFormula(prefix, clauses))  # audit raises on mismatch
    # n = 4 via normalization padding (becomes 5 variables)
    phi = QbfFormula(("e", "a", "e", "a"), ((1, 2, 3), (4, 4, 4)))
    inst = qbf_to_game(phi)
    assert inst.target_bound == 3 * 5 + 5


def test_narrowed_distance_audit_catches_tampered_maps():
    phi = normalize_qbf(QbfFormula(("e", "a", "e"), ((1, -2, 3), (-1, 2, -3))))
    game, psi, treq, fneg, entry_of = _qbf_arena(phi)
    _qbf_distance_audit(game, phi, psi, treq, fneg, entry_of)
    with pytest.raises(AssertionError, match="true-request distance broken at 1"):
        _qbf_distance_audit(game, phi, psi, fneg, treq, entry_of)
    # the last false-request vertex moved to its own true-request vertex
    moved = {**fneg, phi.n: treq[phi.n]}
    with pytest.raises(AssertionError, match=f"false-request distance broken at {phi.n}"):
        _qbf_distance_audit(game, phi, psi, treq, moved, entry_of)
    # each literal's entry pointing at its negation's gadget, then at
    # another variable's gadget
    swapped = {lit: entry_of[-lit] for lit in entry_of}
    with pytest.raises(AssertionError, match="check gadget broken for literal 1"):
        _qbf_distance_audit(game, phi, psi, treq, fneg, swapped)
    shifted = {lit: entry_of[1] if lit == 3 else e for lit, e in entry_of.items()}
    with pytest.raises(AssertionError, match="check gadget broken for literal 3"):
        _qbf_distance_audit(game, phi, psi, treq, fneg, shifted)


def test_distance_audit_catches_a_gadget_chain_one_step_short():
    # each gadget of the game in turn loses the last vertex of its
    # approach chain: the game stays valid, and the audit, reading the
    # tampered game's own views, finds the literal's first answer a step
    # early.  An answer at exactly the right distance would not show it:
    # a negative literal's gadget answers on two vertices in a row, and
    # the last variable's positive gadget has w2's color on w3 too.
    phi = normalize_qbf(QbfFormula(("e", "a", "e"), ((1, -2, 3), (-1, 2, -3))))
    game, psi, treq, fneg, entry_of = _qbf_arena(phi)
    for lit, entry in entry_of.items():
        last = entry + 3 * abs(lit)  # the approach's last vertex, before w1
        vertices = [v for v in game.vertices if v.id != last]
        edges = [(s, t, w) for s, t, w in game.edges if last not in (s, t)]
        edges.append((last - 1, last + 1, 1))
        short = make_game(vertices, edges, game.initial, game.encoding)
        assert validate_game(short) == []
        with pytest.raises(AssertionError, match=f"check gadget broken for literal {lit}$"):
            _qbf_distance_audit(short, phi, psi, treq, fneg, entry_of)
    assert len(entry_of) == 6


def test_qdimacs_roundtrip():
    phi = QbfFormula(("e", "a", "e"), ((1, -2, 3), (3, 3, 3)))
    assert parse_qdimacs(format_qdimacs(phi)) == phi
    with pytest.raises(FormatError):
        parse_qdimacs("e 1 0\n1 0\n")  # missing problem line
    with pytest.raises(FormatError):
        parse_qdimacs("p cnf 1 1\ne 1 0\n1 1 1 1 0\n")  # 4 literals
    with pytest.raises(FormatError, match="at least one clause"):
        parse_qdimacs("p cnf 1 0\ne 1 0\n")
    padded = parse_qdimacs("p cnf 2 1\ne 1 2 0\n1 -2 0\n")
    assert padded.clauses == ((1, -2, -2),)
    # blank lines and c comment lines are skipped wherever they stand
    commented = "c a comment\n\np cnf 3 2\n  \ne 1 0\nc another\na 2 0\ne 3 0\n1 -2 3 0\n3 3 3 0\n\n"
    assert parse_qdimacs(commented) == phi


def test_p0_family_published_values():
    inst1 = p0_memory_family(1)
    assert validate_game(inst1.game) == []
    assert inst1.target_bound == 3
    (s1,) = inst1.reference_strategies
    assert s1.strategy.size == 1
    assert strategy_cost(inst1.game, s1.strategy) == 3

    inst2 = p0_memory_family(2)
    assert inst2.target_bound == 8
    by_name = {r.name: r for r in inst2.reference_strategies}
    assert strategy_cost(inst2.game, by_name["sigma2"].strategy) == 8
    assert strategy_cost(inst2.game, by_name["sigma1"].strategy) == 9
    assert by_name["sigma2"].strategy.size == 2
    assert by_name["sigma1"].strategy.size == 1


def test_p0_family_gadget_path_length():
    # every path through a gadget takes d+2 steps, so a full round is
    # 2d(d+2) steps long and |G_d| = 6d²
    for d in (1, 2, 3):
        inst = p0_memory_family(d)
        assert inst.game.n == 6 * d * d


def test_p1_family_published_values():
    for d in (1, 2):
        inst = p1_memory_family(d)
        assert validate_game(inst.game) == []
        (tau,) = inst.reference_strategies
        assert tau.strategy.size == 2 ** d
        assert spoiler_cost(inst.game, tau.strategy) == 5 * (d - 1) + 7


def test_p1_family_p0_keeps_cost_finite():
    # Player 1 cannot unbound the cost: Player 0 wins the game outright
    inst = p1_memory_family(1)
    res = optimal_cost(inst.game)
    assert res.value == 7


def test_p1_tradeoff_union():
    inst = p1_tradeoff_family(2)
    assert validate_game(inst.game) == []
    costs = {}
    for ref in inst.reference_strategies:
        from costparity.core import validate_strategy

        assert validate_strategy(inst.game, ref.strategy) == []
        costs[ref.name] = spoiler_cost(inst.game, ref.strategy)
        assert ref.strategy.size == ref.claimed_size
    assert costs == {"tau1": 7, "tau2": 12}

    single = p1_tradeoff_family(1)
    assert single.game.owner[0] == 1
    assert len(single.game.successors[0]) == 1  # d=1: the fan is one edge


def test_binary_tradeoff_published_values():
    inst = binary_tradeoff_family(2)
    assert validate_game(inst.game) == []
    assert inst.game.encoding == "binary"
    by_name = {r.name: r for r in inst.reference_strategies}
    assert strategy_cost(inst.game, by_name["sigma1"].strategy) == 14
    assert strategy_cost(inst.game, by_name["sigma2"].strategy) == 12
    assert by_name["sigma1"].strategy.size < by_name["sigma2"].strategy.size
    assert inst.game.max_cost == 2 ** 2


def test_synthesized_certificates_trade_memory_for_cost():
    # Player 0's gradual trade-off, read off the decisions' own
    # certificates: a larger bound needs fewer memory states, and each
    # certificate costs exactly its bound.  The sizes are what the
    # certificate merge reaches today; a stronger merge may shrink them.
    for d, curve in ((3, {36: 6, 38: 4, 40: 2, 42: 1}), (2, {12: 2, 14: 1})):
        game = binary_tradeoff_family(d).game
        for b, size in curve.items():
            res = decide_bounded_cost(game, b)
            assert res.achievable, (d, b)
            cert = res.certificate
            assert (cert.size, strategy_cost(game, cert)) == (size, b), (d, b)


def test_p1trade_references_are_not_a_tradeoff_frontier():
    # τ1 (2 states) and τ2 (4 states) force 7 and 12, but a positional
    # spoiler forces more than either: the decisions at 10 and 15 are
    # lost, and their 1-state certificates force 11 and 16
    inst = p1_tradeoff_family(3)
    claims = {r.name: (r.claimed_cost, r.claimed_size) for r in inst.reference_strategies}
    assert claims == {"tau1": (7, 2), "tau2": (12, 4), "tau3": (17, 8)}
    for name, b, forced in (("tau1", 10, 11), ("tau2", 15, 16)):
        res = decide_bounded_cost(inst.game, b)
        assert not res.achievable
        spoiler = res.certificate
        assert (spoiler.player, spoiler.size) == (1, 1)
        assert spoiler_cost(inst.game, spoiler) == forced
        assert walked_spoiler_cost(inst.game, spoiler, Tracker) == forced
        assert forced > claims[name][0]


def test_binary_tradeoff_d1_degenerate():
    inst = binary_tradeoff_family(1)
    (s1,) = inst.reference_strategies
    assert strategy_cost(inst.game, s1.strategy) == s1.claimed_cost == 3


def test_binary_tradeoff_uniform_gadget_cost():
    # every colored vertex costs 2^c to enter and 2^d − 2^c to leave,
    # so all gadget traversals cost exactly 2^d
    for d in (1, 2, 3):
        g = binary_tradeoff_family(d).game
        cost = g.edge_cost
        for v in g.vertices:
            if v.color == 0:
                continue
            c = (v.color + 1) // 2
            into = [w for (s, t), w in cost.items() if t == v.id]
            outof = [w for (s, t), w in cost.items() if s == v.id]
            assert into == [2 ** c]
            assert outof == [2 ** d - 2 ** c]


def test_qbf_agrees_with_eval_on_grid():
    lits = [1, -1]
    clauses = sorted(set(tuple(sorted(c)) for c in itertools.product(lits, repeat=3)))
    for k in (1, 2):
        for chosen in itertools.combinations(clauses, k):
            phi = QbfFormula(("e",), chosen)
            inst = qbf_to_game(phi)
            assert decide_bounded_cost(inst.game, inst.target_bound).achievable \
                == eval_qbf(phi)


def test_generated_games_pass_validation():
    for inst in (p0_memory_family(3), p1_memory_family(3), p1_tradeoff_family(3),
                 binary_tradeoff_family(3)):
        assert validate_game(inst.game) == []
    for d in (0, 1, 2, 3):
        assert validate_streett_game(streett_counter_family(d).game) == []


def test_counter_family_reference_costs():
    for d in (0, 1, 2):
        inst = streett_counter_family(d)
        assert inst.target_bound == 3 * (2 ** d - 1) + 2
        ref = inst.reference_strategies[0]
        assert streett_strategy_cost(inst.game, ref.strategy) == inst.target_bound


def test_counter_family_branch_sequence_d3():
    # the binary-counter round for d=3 visits branches 0,1,0,2,0,1,0,3,...
    inst = streett_counter_family(3)
    game = inst.game
    strat = inst.reference_strategies[0].strategy
    m_vertex = 2
    ans_of = {3 + 3 * c: c for c in range(4)}
    state = strat.initial
    v = game.initial
    seq = []
    while len(seq) < 8:
        if game.owner[v] == 0:
            t = strat.next_move[(v, state)]
        else:
            # Player 1 cooperates, returning via ret_c (the larger id)
            t = max(w for w, _ in game.successors[v])
        if v == m_vertex and t in ans_of:
            seq.append(ans_of[t])
        state = strat.update[(state, (v, 0, t))]
        v = t
    assert seq == [0, 1, 0, 2, 0, 1, 0, 3]


def test_manifest_format():
    inst = p0_memory_family(2)
    line = inst.manifest()
    assert line.startswith("family=p0mem d=2 bound=8 strategies=")
    assert "sigma1:9:1" in line and "sigma2:8:2" in line


def test_reference_strategies_wellformed_and_confirmed():
    # the module's defining property: every bundled strategy is
    # well-formed and realizes exactly its claimed cost and size
    from costparity.core import validate_strategy

    for inst in (p0_memory_family(1), p0_memory_family(2),
                 p1_memory_family(1), p1_memory_family(2),
                 p1_tradeoff_family(2),
                 binary_tradeoff_family(1), binary_tradeoff_family(2)):
        for ref in inst.reference_strategies:
            assert validate_strategy(inst.game, ref.strategy) == []
            assert ref.strategy.size == ref.claimed_size
            fn = strategy_cost if ref.strategy.player == 0 else spoiler_cost
            assert fn(inst.game, ref.strategy) == ref.claimed_cost, ref.name


def test_p1_game_values_match_spoiler_bounds():
    # the spoiler's guarantee is tight: the game value equals it
    for d in (1, 2):
        inst = p1_memory_family(d)
        assert optimal_cost(inst.game).value == 5 * (d - 1) + 7


class _Tabulating(Exception):
    """Raised in place of the first strategy table a family builds."""


@pytest.mark.parametrize("family, d, refused", [
    (p0_memory_family, 11, False), (binary_tradeoff_family, 11, False),
    (p1_memory_family, 11, False), (p1_tradeoff_family, 11, False),
    (p0_memory_family, 12, True), (binary_tradeoff_family, 12, True),
    (p1_memory_family, 12, False), (p1_tradeoff_family, 12, True),
])
def test_family_budget_is_checked_before_any_table(monkeypatch, family, d, refused):
    # the reference strategies' claimed states × |E|, summed: 5,812,224
    # (p0mem, bintrade) and 6,079,590 (p1trade) at d=11, 15,015,936 and
    # 14,398,020 at d=12, against a family budget of 10^7
    from costparity import BudgetExceededError, generators

    def tabulating(*args):
        raise _Tabulating

    monkeypatch.setattr(generators, "strategy_from_functions", tabulating)
    with pytest.raises(BudgetExceededError if refused else _Tabulating) as info:
        family(d)
    if refused:
        assert str(info.value).endswith("update entries together, budget 10000000")


def test_incseq_sizes_in_closed_form():
    # the claimed size of σ_j, |IncSeq_d^j| in closed form, is the size
    # of the table built, beyond the d ≤ 3 that the cost checks reach;
    # σ_d needs the 2^(d−1) states of the paper's lower bound
    for d in range(1, 7):
        refs = p0_memory_family(d).reference_strategies
        assert [r.claimed_size for r in refs] == [r.strategy.size for r in refs]
        assert refs[-1].claimed_size == 2 ** (d - 1)
