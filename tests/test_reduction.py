import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_span_tables, direct_tracked_product, flat_parity_game,
                      fresh_tracker, oracle_pass_through, parity_initial_r, parity_step,
                      pushed_play, random_cost_game, random_cost_streett, streett_step,
                      tracker_queries, walked_row, with_pass_through)
from costparity import INF, Vertex, make_game, reduction, semantics
from costparity.generators import (QbfFormula, p1_memory_family, qbf_to_game,
                                    streett_counter_family)
from costparity.reduction import (Tracker, _cycle_kind, _LevelProduct, _PrefixStack,
                                  _r_dominated, _relevant_mask)
from costparity.solver import decide_bounded_cost
from costparity.semantics import spoiler_cost
from costparity.streett import (CostStreettGame, StreettEdge, StreettPair, StreettTracker,
                                decide_bounded_cost_streett, streett_spoiler_cost)


def test_initial_request_function():
    # r_v on the odd colors (1, 3): Ω(v) ↦ 0 for an odd Ω(v), else all ⊥
    g = make_game([(0, 0, 0), (1, 1, 3), (2, 0, 2), (3, 1, 1)],
                  [(i, (i + 1) % 4, 1) for i in range(4)], 0)
    tr = Tracker(g, 0)
    assert g.odd_colors == (1, 3)
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
    assert g.odd_colors == (1, 3)

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
    stack = pushed_play(g, 2, range(8))
    unpack = stack.tracker.unpack
    want_o = [0, 0, 0, 0, 0, 1, 1, 1]
    want_r1 = [None, None, 0, 1, None, None, 0, 1]
    want_r3 = [0, 0, 1, 2, 2, None, None, None]
    for i in range(8):
        assert (stack.overflows[i], unpack(stack.requests[i])) == \
            (want_o[i], (want_r1[i], want_r3[i]))
    assert stack.cum == [0, 0, 1, 2, 2, 3, 4, 5]


def test_relevant_requests():
    # entries over the odd colors (1, 3); bit i is the i-th color
    assert _relevant_mask((2, 1)) == 0b11
    assert _relevant_mask((1, 2)) == 0b10
    assert _relevant_mask((None, None)) == 0
    assert _relevant_mask((1, 1)) == 0b10  # equal cost: larger dominates


def dominated(a, b) -> bool:
    """(o, r) ⊑ (o', r') on memory states with request tuples."""
    (oa, ra), (ob, rb) = a, b
    return oa < ob or oa == ob and _r_dominated(ra, rb)


def test_dominates_examples():
    # states (o, r) with r over the odd colors (1,) or (1, 3)
    assert dominated((0, (None,)), (0, (0,)))
    assert dominated((0, (2,)), (1, (None,)))
    assert not dominated((1, (None,)), (0, (2,)))
    assert dominated((0, (2, None)), (0, (None, 2)))
    assert not dominated((0, (None, 2)), (0, (2, None)))
    assert dominated((0, (1, 2)), (0, (None, 2)))  # 1 at cost 1 is not relevant
    assert not dominated((0, (3, 2)), (0, (None, 2)))


reqvals = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
COLORS = (1, 3)


@st.composite
def states(draw):
    o = draw(st.integers(min_value=0, max_value=3))
    return o, tuple(draw(reqvals) for _ in COLORS)


@settings(max_examples=200, deadline=None)
@given(states())
def test_domination_reflexive(a):
    assert dominated(a, a)


@settings(max_examples=200, deadline=None)
@given(states(), states(), states())
def test_domination_transitive(a, b, c):
    if dominated(a, b) and dominated(b, c):
        assert dominated(a, c)


@settings(max_examples=200, deadline=None)
@given(states(), states())
def test_equivalent_states_share_relevant_requests(a, b):
    if a[0] == b[0] and dominated(a, b) and dominated(b, a):
        rel = _relevant_mask(a[1])
        assert rel == _relevant_mask(b[1])
        assert all(a[1][i] == b[1][i] for i in range(len(COLORS)) if rel >> i & 1)


def test_largest_and_costliest_requests_always_relevant():
    # entries over the odd colors (1, 3, 5), by index
    rng = random.Random(9)
    for _ in range(300):
        vals = tuple(rng.choice([None, 0, 1, 2, 3]) for _ in range(3))
        if all(v is None for v in vals):
            continue
        rel = _relevant_mask(vals)
        open_entries = [i for i, v in enumerate(vals) if v is not None]
        assert rel >> max(open_entries) & 1
        costliest = max(open_entries, key=lambda i: (vals[i], i))
        assert rel >> costliest & 1


def test_stability_under_concatenation_exhaustive():
    # domination is preserved by every memory step, enumerated over all state pairs and
    # all edges of random games with d ≤ 2, b ≤ 2, n ≤ 3
    rng = random.Random(11)
    for _ in range(50):
        g = random_cost_game(rng, rng.randint(1, 3), 4)
        b = rng.randint(0, 2)
        tr = Tracker(g, b)
        values = [None] + list(range(b + 1))
        rs = list(itertools.product(values, repeat=tr.d))
        states_all = [(o, r) for o in range(g.n + 1) for r in rs]
        for o1, r1 in states_all:
            for o2, r2 in states_all:
                if o2 >= g.n:
                    continue
                if not dominated((o1, r1), (o2, r2)):
                    continue
                for e in g.edges:
                    o1n, r1n, _ = tr.update(o1, tr.pack(r1), e.cost, e.target)
                    o2n, r2n, _ = tr.update(o2, tr.pack(r2), e.cost, e.target)
                    assert dominated((o1n, tr.unpack(r1n)), (o2n, tr.unpack(r2n))), \
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
    # pack checks the length, so no request word is made of a truncated
    # or padded tuple; the prefix rules read the stack's own words
    g = make_game([(0, 0, 1), (1, 1, 3), (2, 0, 0)],
                  [(0, 1, 1), (1, 2, 1), (2, 1, 0), (2, 0, 1)], 0, "binary")
    stack = pushed_play(g, 3, [0, 1, 2, 1])
    tr = stack.tracker
    assert tr.unpack(stack.requests[-1]) == (2, 1)
    for bad in ((0, None, 5), (0,), ()):
        with pytest.raises(ValueError, match=f"length {len(bad)} for 2 pairs"):
            tr.pack(bad)
    assert stack.verdict() == 1  # the odd cycle 1, 2, 1
    _, r, cost, _ = stack.step(2, 1)
    assert tr.unpack(r) == (3, 2) and cost == 1


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


def test_classify_cycle_equal_states_even():
    g = make_game([(0, 0, 0), (1, 1, 0)], [(0, 1, 0), (1, 0, 0)], 0)
    stack = pushed_play(g, 1, [0, 1, 0])
    assert stack.requests[0] == stack.requests[2]
    assert _cycle_kind(g.color, stack.vertices, 0, 2, (), ()) == 0
    assert stack.verdict() == 0
    # an even cycle needs the end dominated by the start, not the reverse
    even = {0: 2, 1: 1}
    assert _cycle_kind(even, [0, 1, 0], 0, 2, (None, 2), (0, None)) == 0
    assert _cycle_kind(even, [0, 1, 0], 0, 2, (0, None), (None, 2)) is None


def test_classify_cycle_odd_growth():
    g = make_game([(0, 0, 1), (1, 1, 0)], [(0, 1, 1), (1, 0, 1)], 0)
    stack = pushed_play(g, 3, [0, 1, 0])
    # request for 1 grows from 0 to 2 across the cycle; max color 1 odd
    assert list(map(stack.tracker.unpack, stack.requests)) == [(0,), (1,), (2,)]
    assert _cycle_kind(g.color, stack.vertices, 0, 2, (0,), (2,)) == 1
    assert _cycle_kind(g.color, stack.vertices, 0, 2, (2,), (0,)) is None
    assert stack.verdict() == 1


def test_classify_cycle_overflow_mismatch():
    # positions 0 and 2 share vertex 0 but not the overflow, so they close
    # no cycle, though their colors and requests make the infix odd
    g = make_game([(0, 0, 1), (1, 1, 0)], [(0, 1, 1), (1, 0, 1)], 0)
    stack = pushed_play(g, 0, [0, 1, 0])
    assert stack.overflows == [0, 1, 1]
    start, end = map(stack.tracker.unpack, (stack.requests[0], stack.requests[2]))
    assert _cycle_kind(g.color, stack.vertices, 0, 2, start, end) == 1
    assert stack.verdict() is None


def test_verdict_takes_the_earliest_cycle_start():
    # colors 0, 3, 0, 2, 0, requests (None,), (0,) from position 1 on: the
    # odd cycle 0..4 and the even cycle 2..4 end at the top.  Only a
    # non-minimal prefix can end two such cycles (0..2 settles this one)
    g = make_game([(0, 0, 0), (1, 0, 3), (2, 0, 2)],
                  [(0, 1, 0), (1, 0, 0), (0, 2, 0), (2, 0, 0)], 0)
    stack = pushed_play(g, 0, [0, 1, 0, 2, 0])
    assert _cycle_kind(g.color, stack.vertices, 0, 4, (None,), (0,)) == 1
    assert _cycle_kind(g.color, stack.vertices, 2, 4, (0,), (0,)) == 0
    assert list(map(stack.tracker.unpack, stack.requests)) == [(None,)] + [(0,)] * 4
    assert stack.verdict() == 1 == pushed_play(g, 0, [0, 1, 0]).verdict()


def test_settled_saturation_and_verdicts():
    g = make_game([(0, 0, 1), (1, 1, 0)], [(0, 1, 1), (1, 0, 1)], 0)
    walk = [0, 1] * (g.n + 2)
    verdicts = [pushed_play(g, 0, walk[:i + 1]).verdict() for i in range(len(walk))]
    # the overflow reaches n = 2 at position 3, before any cycle closes
    assert verdicts[:4] == [None, None, None, 1]
    assert pushed_play(g, 0, walk[:4]).overflows == [0, 1, 1, 2]


def test_long_prefixes_are_settled():
    # walks in tiny unary games never stay unsettled past ℓ = (n+1)^6
    rng = random.Random(17)
    for _ in range(20):
        g = random_cost_game(rng, rng.randint(1, 2), 3)
        stack = _PrefixStack(g, rng.randint(0, 1))
        stack.push(g.initial, *stack.tracker.initial_state(), 0)
        for _ in range((g.n + 1) ** 6 + 1):
            t, w = rng.choice(g.successors[stack.vertices[-1]])
            stack.push(t, *stack.step(t, w))
            if stack.verdict() is not None:
                break
        else:
            pytest.fail("prefix exceeded ℓ = (n+1)^6")


def test_shortcut_fastforward_near_bound():
    verts = [(0, 0, 1), (1, 1, 0), (2, 1, 0)]
    g = make_game(verts, [(0, 1, 2), (1, 2, 1), (2, 1, 0), (1, 0, 0)], 0, "binary")
    b = 10
    stack = pushed_play(g, b, [0, 1, 2])
    tr = stack.tracker
    assert tr.unpack(stack.requests[-1]) == (3,)
    # infix 1,2,1 repeats vertex 1 with stable relevant requests, cost
    # s = 1: the open request c* = 3 fast-forwards by s·t, t = (b − c*) // s
    # = 7, to b, and the step is charged Cst(v_j, v') + s·t = 0 + 7
    o, r, cost, m = stack.step(1, 0)
    assert (o, tr.unpack(r), cost, m) == (0, (b,), 7, 0b1)
    unary = make_game(verts, [(0, 1, 1), (1, 2, 1), (2, 1, 0), (1, 0, 0)], 0)
    _, r, cost, m = pushed_play(unary, b, [0, 1, 2]).step(1, 0)  # a unary game steps plainly
    assert (r, cost, m) == (Tracker(unary, b).pack((2,)), 0, 0)


def test_shortcut_multiplier_arithmetic():
    # the multiplier is the largest t with c* + s·t ≤ b: on the cycle
    # 1, 2, 1 of cost s = 3 the open request stands at c* = 4 once back
    # at 1; at b = 11 two more traversals fit (10) and a third would not
    # (13), and at b = 7 exactly one fits, reaching b
    g = make_game([(0, 0, 1), (1, 1, 0), (2, 1, 0)],
                  [(0, 1, 1), (1, 2, 2), (2, 1, 1), (1, 0, 0)], 0, "binary")
    for b, t in ((11, 2), (7, 1)):
        _, r, cost, _ = pushed_play(g, b, [0, 1, 2]).step(1, 1)
        assert (r, cost) == (Tracker(g, b).pack((4 + 3 * t,)), 1 + 3 * t), b


def test_shortcut_zero_cost_infix_is_ordinary():
    g = make_game([(0, 0, 1), (1, 1, 0), (2, 1, 0)],
                  [(0, 1, 2), (1, 2, 0), (2, 1, 0), (1, 0, 0)], 0, "binary")
    stack = pushed_play(g, 10, [0, 1, 2])
    o, r, cost, _ = stack.step(1, 0)
    assert (o, r, cost) == (*stack.tracker.update(0, stack.requests[-1], 0, 1)[:2], 0)


def test_shortcut_steps_follow_the_rule_on_random_walks():
    # every step of random walks in binary games against the rule read
    # off its definition, relevance recomputed at every position: the
    # latest j' at (t, o') with the same non-empty relevant requests from
    # j' on and after the step, infix cost s > 0 and c* + s ≤ b adds s·k
    # to every open request, k maximal with c* + s·k ≤ b
    def relevant(r):
        return {c for c, x in enumerate(r)
                if x is not None and all(y is None or y < x for y in r[c + 1:])}

    rng = random.Random(43)
    steps = fired = 0
    for _ in range(400):
        g = random_cost_game(rng, rng.randint(1, 4), 5, max_cost=3, encoding="binary")
        stack = _PrefixStack(g, rng.randint(0, 12))
        tr, b = stack.tracker, stack.tracker.bound
        o, r = tr.initial_state()
        stack.push(g.initial, o, r, 0)
        seen = [(g.initial, o, tr.unpack(r), 0)]  # (v, o, r tuple, charged cost)
        for _ in range(rng.randint(1, 30)):
            t, w = rng.choice(g.successors[stack.vertices[-1]])
            o2, r2, _ = tr.update(o, tr.pack(seen[-1][2]), w, t)
            want = o2, tr.unpack(r2), w
            rel, cstar = relevant(want[1]), max((x for x in want[1] if x is not None), default=0)
            for j in range(len(seen) - 1, -1, -1):
                if not rel or relevant(seen[j][2]) != rel:
                    break
                s = sum(cost for *_, cost in seen[j + 1:]) + w
                if seen[j][:2] == (t, o2) and s > 0 and cstar + s <= b:
                    k = max(k for k in range(1, b + 1) if cstar + s * k <= b)
                    want = o2, tuple(x if x is None else x + s * k for x in want[1]), w + s * k
                    break
            o, r, cost, m = stack.step(t, w)
            assert (o, tr.unpack(r), cost, m) == (*want, _relevant_mask(want[1]))
            stack.push(t, o, r, cost, m)
            seen.append((t, *want))
            fired += cost != w
            steps += 1
    assert steps > 4_000 and fired > 200, (steps, fired)


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
