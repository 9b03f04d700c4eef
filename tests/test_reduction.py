import dataclasses
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_span_tables, direct_tracked_product, flat_parity_game,
                      fresh_tracker, oracle_pass_through, parity_initial_r, parity_step,
                      random_cost_game, random_cost_streett, streett_step, tracker_queries,
                      walked_row, with_pass_through)
from costparity import (INF, Edge, Vertex, classify_cycle, dominates, make_game, reduction,
                        relevant_requests, semantics, settled, settled_bound, shortcut_step,
                        track_play)
from costparity.generators import (QbfFormula, p1_memory_family, qbf_to_game,
                                    streett_counter_family)
from costparity.reduction import Tracker, _LevelProduct, start_prefix
from costparity.solver import decide_bounded_cost
from costparity.semantics import spoiler_cost
from costparity.streett import (CostStreettGame, StreettEdge, StreettPair, StreettTracker,
                                decide_bounded_cost_streett, streett_spoiler_cost)


def test_initial_request_function():
    # r_v on the odd colors (1, 3): Ω(v) ↦ 0 for an odd Ω(v), else all ⊥
    g = make_game([(0, 0, 0), (1, 1, 3), (2, 0, 2), (3, 1, 1)],
                  [(i, (i + 1) % 4, 1) for i in range(4)], 0)
    tr = Tracker(g, 0)
    assert tr.colors == (1, 3)
    assert tr.unpack(tr.initial_r(0)) == (None, None)
    assert tr.unpack(tr.initial_r(1)) == (None, 0)
    assert tr.unpack(tr.initial_r(2)) == (None, None)


def eight_vertex_trace_game():
    colors = [3, 0, 1, 1, 2, 4, 1, 0]
    costs = [0, 1, 1, 0, 1, 1, 1]
    verts = [(i, 0, c) for i, c in enumerate(colors)]
    edges = [(i, i + 1, w) for i, w in enumerate(costs)] + [(7, 7, 1)]
    return make_game(verts, edges, 0)


def test_update_track_state_steps():
    g = eight_vertex_trace_game()
    tr = Tracker(g, 2)
    assert tr.colors == (1, 3)

    def step(o, r, w, t):
        o2, r2, overflowed = tr.update(o, tr.pack(r), w, t)
        return o2, tr.unpack(r2), overflowed

    # column 0 -> 1: ε-edge to a color-0 vertex leaves (0, {1:⊥,3:0}) alone
    assert step(0, (None, 0), 0, 1) == (0, (None, 0), False)
    # column 3 -> 4: ε-edge to the color-2 vertex closes the request for 1
    assert step(0, (1, 2), 0, 4) == (0, (None, 2), False)
    # column 4 -> 5: increment to the color-4 vertex overflows, then answers
    assert step(0, (None, 2), 1, 5) == (1, (None, None), True)


def test_track_play_reproduces_reference_rows():
    g = eight_vertex_trace_game()
    prefix = track_play(g, 2, range(8))
    want_o = [0, 0, 0, 0, 0, 1, 1, 1]
    want_r1 = [None, None, 0, 1, None, None, 0, 1]
    want_r3 = [0, 0, 1, 2, 2, None, None, None]
    for i in range(8):
        assert prefix.state_at(i) == (want_o[i], (want_r1[i], want_r3[i]))


def test_relevant_requests():
    assert relevant_requests({1: 2, 3: 1}) == {1, 3}
    assert relevant_requests({1: 1, 3: 2}) == {3}
    assert relevant_requests({1: None, 3: None}) == set()
    assert relevant_requests({1: 1, 3: 1}) == {3}  # equal cost: larger dominates


def test_dominates_examples():
    # states (o, r) with r over the odd colors (1,) or (1, 3)
    assert dominates((0, (None,)), (0, (0,)))
    assert dominates((0, (2,)), (1, (None,)))
    assert dominates((0, (2, None)), (0, (None, 2)))
    assert not dominates((0, (None, 2)), (0, (2, None)))
    with pytest.raises(ValueError):
        dominates((0, (None,)), (0, (None, 2)))


reqvals = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
COLORS = (1, 3)


@st.composite
def states(draw):
    o = draw(st.integers(min_value=0, max_value=3))
    return o, tuple(draw(reqvals) for _ in COLORS)


@settings(max_examples=200, deadline=None)
@given(states())
def test_domination_reflexive(a):
    assert dominates(a, a)


@settings(max_examples=200, deadline=None)
@given(states(), states(), states())
def test_domination_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


@settings(max_examples=200, deadline=None)
@given(states(), states())
def test_equivalent_states_share_relevant_requests(a, b):
    if a[0] == b[0] and dominates(a, b) and dominates(b, a):
        ra, rb = dict(zip(COLORS, a[1])), dict(zip(COLORS, b[1]))
        rel = relevant_requests(ra)
        assert rel == relevant_requests(rb)
        assert all(ra[c] == rb[c] for c in rel)


def test_largest_and_costliest_requests_always_relevant():
    rng = random.Random(9)
    for _ in range(300):
        vals = {c: rng.choice([None, 0, 1, 2, 3]) for c in (1, 3, 5)}
        if all(v is None for v in vals.values()):
            continue
        rel = relevant_requests(vals)
        open_colors = [c for c, v in vals.items() if v is not None]
        assert max(open_colors) in rel
        costliest = max(open_colors, key=lambda c: (vals[c], c))
        assert costliest in rel


def test_stability_under_concatenation_exhaustive():
    # domination is preserved by every memory step, enumerated over all state pairs and
    # all edges of random games with d ≤ 2, b ≤ 2, n ≤ 3
    rng = random.Random(11)
    for _ in range(50):
        g = random_cost_game(rng, rng.randint(1, 3), 4)
        b = rng.randint(0, 2)
        tr = Tracker(g, b)
        values = [None] + list(range(b + 1))
        rs = [()]
        for _ in tr.colors:
            rs = [r + (v,) for r in rs for v in values]
        states_all = [(o, r) for o in range(g.n + 1) for r in rs]
        for o1, r1 in states_all:
            for o2, r2 in states_all:
                if o2 >= g.n:
                    continue
                if not dominates((o1, r1), (o2, r2)):
                    continue
                for e in g.edges:
                    o1n, r1n, _ = tr.update(o1, tr.pack(r1), e.cost, e.target)
                    o2n, r2n, _ = tr.update(o2, tr.pack(r2), e.cost, e.target)
                    assert dominates((o1n, tr.unpack(r1n)), (o2n, tr.unpack(r2n))), \
                        (r1, r2, o1, o2, e)


def test_update_never_exceeds_bounds():
    rng = random.Random(13)
    for _ in range(60):
        g = random_cost_game(rng, rng.randint(1, 4), 5, max_cost=3,
                             encoding="binary")
        b = rng.randint(0, 3)
        tr = Tracker(g, b)
        o, r = tr.initial_state()
        for _ in range(60):
            e = rng.choice([e for e in g.edges])
            o, r, _ = tr.update(o, r, e.cost, e.target)
            assert o <= g.n
            assert all(x is None or 0 <= x <= b for x in tr.unpack(r))


def test_tracker_tables_answer_like_a_fresh_tracker(monkeypatch):
    rng = random.Random(17)
    cases = []
    for _ in range(40):
        g = random_cost_game(rng, rng.randint(1, 4), 5, max_cost=3, encoding="binary")
        cases.append((g, rng.randint(0, 3), [(e.cost, e.target) for e in g.edges]))
    shapes = check_span_tables(rng, Tracker, cases, monkeypatch)
    # bounds 2 and 3 share a field width, so their trackers share a table
    assert len(shapes) < len({(g.d, b) for g, b, _ in cases})


def test_trackers_on_threads_answer_like_a_fresh_tracker(monkeypatch):
    # threads step trackers of one shape at once; with a limit of 2 they
    # clear the shared span table under each other, and every answer
    # must still be a fresh tracker's
    monkeypatch.setattr(reduction, "_SPANS", {})
    monkeypatch.setattr(reduction, "_SPAN_LIMIT", 2)
    rng = random.Random(29)
    cases = []
    while len(cases) < 6:
        g = random_cost_game(rng, 4, 7, max_cost=3, encoding="binary")
        if g.d == 3:
            queries = tracker_queries(rng, fresh_tracker(Tracker, g, 3),
                                      [(e.cost, e.target) for e in g.edges])
            expected = [fresh_tracker(Tracker, g, 3).update(*q) for q in queries]
            cases.append((g, queries, expected))
    answers: dict[int, list] = {}

    def work(k):
        answers[k] = [[Tracker(g, 3).update(*q) for q in queries] for g, queries, _ in cases]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert answers == {k: [expected for _, _, expected in cases] for k in range(4)}
    (table,) = reduction._SPANS.values()
    assert len(table) <= 2 + len(threads)
    fields = Tracker(cases[0][0], 3)._fields
    assert all(word == fields(mask) for mask, word in table.items())


def test_fields_equals_the_all_shifts_formula():
    # the set-bit walk against the sum over all d shifts, for every
    # open mask at d ≤ 10 and bounds of several field widths
    for d in range(1, 11):
        g = make_game([(i, 0, 2 * i + 1) for i in range(d)],
                      [(i, (i + 1) % d, 1) for i in range(d)], 0)
        for b in (0, 1, 5, 300):
            tr = Tracker(g, b)
            assert tr.d == d
            for mask in range(1 << d):
                spread = mask | sum(tr._field << s for i, s in enumerate(tr._shifts)
                                    if mask >> i & 1)
                assert tr._fields(mask) == spread, (d, b, mask)


def test_tracker_steps_like_the_color_based_parity_step():
    # the one mask-based step, read through the Streett image, against
    # the parity step written on colors
    rng = random.Random(37)
    walked = 0
    for _ in range(300):
        g = random_cost_game(rng, rng.randint(1, 5), 5, max_cost=3, encoding="binary")
        b = rng.randint(0, 3)
        tr = Tracker(g, b)
        assert all(tr.unpack(tr.initial_r(v)) == parity_initial_r(g, v) for v in g.color)
        o, r = tr.initial_state()
        v = g.initial
        for _ in range(50):
            t, w = rng.choice(g.successors[v])
            o2, r2, overflowed = tr.update(o, r, w, t)
            step, values = (o2, tr.unpack(r2), overflowed), tr.unpack(r)
            assert step == parity_step(g, b, o, values, w, t), (o, values, w, t)
            o, r, v = o2, r2, t
            walked += 1
    assert walked > 10_000


def _pairless_streett_game(d: int) -> CostStreettGame:
    """One vertex with a self-loop and d pairs that request and answer
    nothing: a tracker of width d with nothing else in the way."""
    return CostStreettGame((Vertex(0, 0, 0),), (StreettEdge(0, 0, (0,) * d),),
                           (StreettPair(frozenset(), frozenset()),) * d, 0)


def _request_tuples(rng, d: int, values: list, most: int = 40) -> list[tuple]:
    """Every tuple over ⊥ and ``values`` of length d, or ``most`` random ones."""
    choices = [None] + values
    if len(choices) ** d <= most:
        return list(itertools.product(choices, repeat=d))
    return [tuple(rng.choice(choices) for _ in range(d)) for _ in range(most)]


@pytest.mark.parametrize("b", [0, 1, 7, 8, 10 ** 6])
def test_word_step_matches_the_tuple_oracles_at_the_edges(b):
    # the packed step against the tuple steps written on colors and
    # pairs, from entries at 0, b−1 and b, under edge costs of 0, b, b+1
    # and far above b (the clamp), with Streett costs of mixed size per
    # pair; bounds of the form 2^k−1 and 2^k change the field width
    rng = random.Random(b)
    values = sorted({0, b // 2, max(b - 1, 0), b})
    costs = sorted({0, 1, b, b + 1, b + 2, 2 * b + 3, 10 ** 7})
    parity = [random_cost_game(rng, rng.randint(1, 4), 5) for _ in range(12)]
    parity.append(make_game([(0, 0, 0), (1, 1, 2)], [(0, 1, 1), (1, 0, 0)], 0))  # d = 0
    streett = [random_cost_streett(rng) for _ in range(12)] + [_pairless_streett_game(0),
                                                                streett_counter_family(3).game]
    checked = overflowed = 0
    for games, tracker_class, oracle in ((parity, Tracker, parity_step),
                                         (streett, StreettTracker, streett_step)):
        for g in games:
            tr = tracker_class(g, b)
            for r in _request_tuples(rng, g.d, values):
                word = tr.pack(r)
                assert tr.unpack(word) == r
                edge_costs = costs if tracker_class is Tracker else \
                    [tuple(rng.choice(costs) for _ in range(g.d)) for _ in costs]
                for t in g.owner:
                    for w in edge_costs:
                        for o in (0, g.n - 1, g.n):
                            o2, r2, ovf = tr.update(o, word, w, t)
                            assert (o2, tr.unpack(r2), ovf) == oracle(g, b, o, r, w, t), \
                                (b, o, r, w, t)
                            checked += 1
                            overflowed += ovf
    assert checked > 2_000 and 0 < overflowed < checked


def test_pack_is_one_to_one_and_unpack_inverts_it():
    # every tuple over ({⊥} ∪ [0, b])^d for d ≤ 3 and b ≤ 4 has its own
    # word, and entries outside [0, b] have none
    for d in range(4):
        g = _pairless_streett_game(d)
        for b in range(5):
            tr = StreettTracker(g, b)
            tuples = list(itertools.product([None, *range(b + 1)], repeat=d))
            words = [tr.pack(r) for r in tuples]
            assert len(set(words)) == len(tuples), (d, b)
            assert [tr.unpack(word) for word in words] == tuples, (d, b)
            if d:
                for bad in (-1, b + 1):
                    with pytest.raises(ValueError, match="outside"):
                        tr.pack((bad,) + (None,) * (d - 1))


def test_prefixes_with_request_tuples_of_the_wrong_length_are_rejected():
    # pack checks the length as dominates does, so neither a settle
    # verdict nor a shortcut step is read off a truncated or padded word
    g = make_game([(0, 0, 1), (1, 1, 3), (2, 0, 0)],
                  [(0, 1, 1), (1, 2, 1), (2, 1, 0), (2, 0, 1)], 0, "binary")
    prefix = track_play(g, 3, [0, 1, 2, 1])
    assert prefix.requests[-1] == (2, 1)
    for bad in ((0, None, 5), (0,), ()):
        wrong = dataclasses.replace(prefix, requests=prefix.requests[:-1] + (bad,))
        with pytest.raises(ValueError, match=f"length {len(bad)} for 2 pairs"):
            settled(g, 3, wrong)
        with pytest.raises(ValueError, match=f"length {len(bad)} for 2 pairs"):
            shortcut_step(g, 3, wrong, Edge(1, 2, 1))
    assert settled(g, 3, prefix).kind == "odd_cycle"
    assert shortcut_step(g, 3, prefix, Edge(1, 2, 1)).requests[-1] == (3, 2)


def _count_updates(monkeypatch) -> dict:
    """Counts the calls of each tracker class's update, as the traced
    benchmark does by wrapping it."""
    calls = {Tracker: 0, StreettTracker: 0}
    for cls in calls:
        def counted(self, *args, update=cls.update, cls=cls):
            calls[cls] += 1
            return update(self, *args)
        monkeypatch.setattr(cls, "update", counted)
    return calls


def test_decisions_step_the_tracker_once_per_product_move(monkeypatch):
    # the traced benchmark counts tracker steps by wrapping the trackers'
    # update: a decision's product must call it once per level-graph move
    calls = _count_updates(monkeypatch)
    formula = QbfFormula(("e", "a", "e"), ((1, -2, 3), (-1, 2, 3), (-3, 2, 1)))
    inst = qbf_to_game(formula)
    counter = streett_counter_family(2).game
    for decide, game, bound, cls in ((decide_bounded_cost, inst.game, inst.target_bound, Tracker),
                                     (decide_bounded_cost_streett, counter, 8, StreettTracker)):
        calls.update({Tracker: 0, StreettTracker: 0})
        res = decide(game, bound)
        moves = sum(len(row) for row in res.succ)
        assert moves > 50
        assert calls[cls] == sum(calls.values()) == moves


def test_spoiler_probes_step_the_tracker_once_per_product_move(monkeypatch):
    # the verifier's tracked probes count alike: a parity and a Streett
    # spoiler call update once per move of each level product they build
    calls = _count_updates(monkeypatch)
    moves = []

    class Level(semantics._LevelProduct):
        def __init__(self, arena, tracker, budget, what):
            super().__init__(arena, tracker, budget, what)
            moves.append(sum(len(row) for row in self.succ))

    monkeypatch.setattr(semantics, "_LevelProduct", Level)
    family = p1_memory_family(3)
    counter = streett_counter_family(2).game
    for verify, game, strat, cls in (
            (spoiler_cost, family.game, family.reference_strategies[0].strategy, Tracker),
            (streett_spoiler_cost, counter,
             decide_bounded_cost_streett(counter, 10).certificate, StreettTracker)):
        assert strat.player == 1
        calls.update({Tracker: 0, StreettTracker: 0})
        del moves[:]
        assert verify(game, strat) < INF
        assert moves and min(moves) > 10
        assert calls[cls] == sum(calls.values()) == sum(moves)


def test_level_product_rows_are_the_arena_moves():
    # succ lists one node per arena move in move order: the state that
    # stepping the tracker edge by edge along the move reaches, walked on
    # through pass-through vertices (the oracle's own skip); overflow
    # holds exactly the ids of the moves with an overflowing step, pred
    # the other moves' sources in ascending order.  Half the games get
    # chains, cycles and parallel exits of pass-through vertices.
    rng = random.Random(83)
    games = []
    for k in range(150):
        binary = k % 2
        g = random_cost_game(rng, rng.randint(1, 5), 5, max_cost=3 if binary else 1,
                             encoding="binary" if binary else "unary")
        games.append((with_pass_through(rng, g) if k % 4 > 1 else g, Tracker))
        g = random_cost_streett(rng)
        games.append((with_pass_through(rng, g) if k % 4 > 1 else g, StreettTracker))
    overflowing = walked = kept = 0
    for g, tracker_class in games:
        through = oracle_pass_through(g)
        assert g.pass_through == through
        for b in range(4):
            tracker = tracker_class(g, b)
            levels = _LevelProduct(g, tracker, 10 ** 6, "level product")
            nodes, succ, overflow = levels.nodes, levels.succ, levels.overflow
            assert len(succ) == len(nodes) == len(levels.pred)
            pred = [[] for _ in nodes]
            for i, ((v, r), row) in enumerate(zip(nodes, succ)):
                moves = g.successors[v]
                ends = walked_row(g, tracker, through, 0, r, moves)
                assert [nodes[j] for j in row] == [(t, r2) for t, _, r2, _ in ends]
                assert [t for t, _ in g.exits[v]] == [t for t, *_ in ends]
                assert len(set(row)) == len(row)
                over = overflow.get(i, frozenset())
                assert over <= set(row) and (i not in overflow or over)
                for j, (t, _, _, overflowed), (hop, _) in zip(row, ends, moves):
                    assert (j in over) == overflowed
                    walked += t != hop
                    kept += t == hop in through
                    if j not in over:
                        pred[j].append(i)
            assert list(map(list, levels.pred)) == pred
            overflowing += len(overflow)
    assert overflowing > 200 and walked > 1000 and kept > 100, (overflowing, walked, kept)


def test_unrolled_level_product_equals_the_direct_search():
    # the flat product is the level product unrolled over o, with no
    # tracker step; a search that steps the tracker on every edge of the
    # flat product, walking moves on through pass-through vertices by
    # its own skip, must find the same states in the same order, for
    # both game classes, on games with and without such vertices
    rng = random.Random(29)
    games = []
    for k in range(200):
        binary = k % 2
        g = random_cost_game(rng, rng.randint(1, 5), 5, max_cost=3 if binary else 1,
                             encoding="binary" if binary else "unary")
        games.append((with_pass_through(rng, g) if k % 4 > 1 else g, Tracker))
    streett_rng = random.Random(31)
    for k in range(160):
        g = random_cost_streett(streett_rng)
        games.append((with_pass_through(streett_rng, g) if k % 2 else g, StreettTracker))
    for k, (g, tracker_class) in enumerate(games):
        for b in range(5):
            unrolled = _LevelProduct(g, tracker_class(g, b), 10 ** 6, "level product").unroll()
            assert unrolled == direct_tracked_product(g, tracker_class(g, b), skip=True)[:2], \
                (k, b)
            if tracker_class is Tracker:  # n vertices x (n+1) overflows x (b+2)^d requests
                assert len(unrolled[0]) <= g.n * (g.n + 1) * (b + 2) ** g.d, (k, b)


def test_classify_cycle():
    g = eight_vertex_trace_game()
    # artificial annotated prefix via a real walk on the color-0 tail
    walk = track_play(g, 2, [0, 1, 2, 3, 4, 5, 6, 7, 7, 7])
    assert classify_cycle(g, 2, walk, 8, 9) in ("even", "odd", "none")
    with pytest.raises(IndexError):
        classify_cycle(g, 2, walk, 5, 99)


def test_classify_cycle_equal_states_even():
    g = make_game([(0, 0, 0), (1, 1, 0)], [(0, 1, 0), (1, 0, 0)], 0)
    walk = track_play(g, 1, [0, 1, 0])
    assert classify_cycle(g, 1, walk, 0, 2) == "even"


def test_classify_cycle_odd_growth():
    g = make_game([(0, 0, 1), (1, 1, 0)], [(0, 1, 1), (1, 0, 1)], 0)
    walk = track_play(g, 3, [0, 1, 0])
    # request for 1 grows from 0 to 2 across the cycle; max color 1 odd
    assert classify_cycle(g, 3, walk, 0, 2) == "odd"


def test_classify_cycle_overflow_mismatch():
    g = make_game([(0, 0, 1), (1, 1, 0)], [(0, 1, 1), (1, 0, 1)], 0)
    walk = track_play(g, 0, [0, 1, 0, 1, 0])
    for k in range(2):
        for k2 in range(k + 1, 5):
            if walk.overflows[k] != walk.overflows[k2]:
                assert classify_cycle(g, 0, walk, k, k2) == "none"


def test_settled_saturation_and_verdicts():
    g = make_game([(0, 0, 1), (1, 1, 0)], [(0, 1, 1), (1, 0, 1)], 0)
    walk = track_play(g, 0, [0, 1] * (g.n + 2))
    verdict = settled(g, 0, walk)
    assert verdict.settled
    walk1 = start_prefix(g, 0)
    assert settled(g, 0, walk1).kind == "unsettled"


def test_settled_bound_values():
    g4 = make_game([(i, 0, 0) for i in range(4)],
                   [(i, (i + 1) % 4, 1) for i in range(4)], 0)
    assert settled_bound(g4) == 15625
    g4b = make_game([(i, 0, 0) for i in range(4)],
                    [(i, (i + 1) % 4, 2) for i in range(4)], 0, "binary")
    assert settled_bound(g4b) == 4 * 15625
    g1 = make_game([(0, 0, 0)], [(0, 0, 1)], 0)
    assert settled_bound(g1) == 64


def test_long_prefixes_are_settled():
    # walks in tiny games never stay unsettled past ℓ
    rng = random.Random(17)
    for _ in range(20):
        g = random_cost_game(rng, rng.randint(1, 2), 3)
        b = rng.randint(0, 1)
        bound = settled_bound(g)
        walk = [g.initial]
        prefix = start_prefix(g, b)
        tr = Tracker(g, b)
        for _ in range(bound + 1):
            t, w = rng.choice(g.successors[walk[-1]])
            o, r, _ = tr.update(prefix.overflows[-1], tr.pack(prefix.requests[-1]), w, t)
            prefix = prefix.extended(t, o, tr.unpack(r), w)
            walk.append(t)
            if settled(g, b, prefix).settled:
                break
        else:
            pytest.fail("prefix exceeded the settled bound")


def test_shortcut_fastforward_near_bound():
    g = make_game([(0, 0, 1), (1, 1, 0), (2, 1, 0)],
                  [(0, 1, 2), (1, 2, 1), (2, 1, 0), (1, 0, 0)], 0, "binary")
    b = 10
    prefix = track_play(g, b, [0, 1, 2])
    assert prefix.requests[-1] == (3,)
    extended = shortcut_step(g, b, prefix, Edge(2, 1, 0))
    # infix 1,2,1 repeats vertex 1 with stable relevant requests, cost 1:
    # the open request fast-forwards as close to b as full traversals allow
    assert extended.via_shortcut[-1]
    s, cstar = 1, 3
    t = (b - cstar) // s
    assert t == 7
    assert extended.requests[-1] == (cstar + s * t,)
    assert extended.requests[-1][0] == b
    assert extended.costs[-1] == 0 + s * t  # transition cost Cst(v_j,v') + s·t


def test_shortcut_multiplier_arithmetic():
    # the fast-forward multiplier from the criterion: with b=10, an open
    # maximum of 2 and an infix cost of 3, two more traversals fit
    b, cstar, s = 10, 2, 3
    t = (b - cstar) // s
    assert t == max(t2 for t2 in range(1, b + 1) if cstar + s * t2 <= b)
    assert t == 2 and cstar + s * t == 8


def test_shortcut_zero_cost_infix_is_ordinary():
    g = make_game([(0, 0, 1), (1, 1, 0), (2, 1, 0)],
                  [(0, 1, 2), (1, 2, 0), (2, 1, 0), (1, 0, 0)], 0, "binary")
    prefix = track_play(g, 10, [0, 1, 2])
    extended = shortcut_step(g, 10, prefix, Edge(2, 1, 0))
    assert not extended.via_shortcut[-1]


def test_shortcut_rejects_unary_games(delay_won):
    prefix = start_prefix(delay_won, 2)
    with pytest.raises(ValueError):
        shortcut_step(delay_won, 2, prefix, Edge(0, 1, 1))


def test_saturated_region_stays_color_one():
    # any play that reaches o = n stays in color-1 product states
    rng = random.Random(23)
    for _ in range(20):
        g = random_cost_game(rng, rng.randint(1, 3), 3)
        states, pg = flat_parity_game(g, 0)
        for i, (v, o, r) in enumerate(states):
            if o == g.n:
                for j in pg.succ[i]:
                    assert states[j][1] == g.n
                    assert pg.colors[j] == 1
