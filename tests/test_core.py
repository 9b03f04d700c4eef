import copy
import itertools
import math
import random
from collections import Counter

import pytest

from conftest import (dead_state_tabulation, parity_optimal_corpus, random_cost_game,
                      random_cost_streett, reference_merge, walked_o_min,
                      walked_reset_spoiler, with_pass_through)
from costparity import (BudgetExceededError, Edge, FormatError, Vertex, cli, core,
                        decide_bounded_cost, export_dot, format_cpg, format_strat,
                        generators, make_game, optimal_cost, parse_cpg, parse_strat,
                        solver, streett, subdivide_costs, validate_game)
from costparity.core import CostGame, strategy_from_functions, validate_strategy
from costparity.reduction import Tracker
from costparity.semantics import spoiler_cost, strategy_cost


def test_minimal_legal_game_is_clean():
    g = make_game([(0, 0, 0)], [(0, 0, 0)], 0)
    assert validate_game(g) == []


def test_terminal_vertex_reported():
    g = make_game([(0, 0, 0), (1, 1, 1)], [(0, 1, 0)], 0)
    report = validate_game(g)
    assert any("terminal" in line and "1" in line for line in report)


def test_unary_flag_rejects_large_costs():
    g = make_game([(0, 0, 0)], [(0, 0, 3)], 0, encoding="unary")
    assert any("non-abstract cost" in line for line in validate_game(g))
    assert validate_game(make_game([(0, 0, 0)], [(0, 0, 3)], 0, "binary")) == []


def test_validate_catches_structural_problems():
    g = CostGame((Vertex(0, 0, 0), Vertex(0, 1, 2)), (Edge(0, 5, 0),), 9)
    report = validate_game(g)
    assert any("duplicate id" in line for line in report)
    assert any("unknown target" in line for line in report)
    assert any("initial vertex 9" in line for line in report)
    # a negative color is named even where a later vertex repeats its id
    hidden = CostGame((Vertex(0, 0, -1), Vertex(0, 0, 2)), (Edge(0, 0, 0),), 0)
    assert validate_game(hidden) == ["vertex 0: duplicate id", "vertex 0: negative color -1"]
    # a negative cost is named in either encoding, before a unary game's cost above 1
    for encoding in ("unary", "binary"):
        costly = make_game([(0, 0, 0), (1, 0, 0)], [(0, 1, -1), (1, 0, 2)], 0, encoding)
        assert validate_game(costly) == ["edge 0->1: negative cost -1"] + \
            ["edge 1->0: non-abstract cost 2 in unary game"] * (encoding == "unary")


def test_validate_rejects_parallel_edges():
    g = make_game([(0, 0, 0), (1, 0, 0)],
                  [(0, 1, 0), (0, 1, 1), (1, 0, 0)], 0, "binary")
    assert any("parallel edge" in line for line in validate_game(g))


def test_subdivide_identity_on_small_costs():
    g = make_game([(0, 0, 1), (1, 1, 2)], [(0, 1, 1), (1, 0, 0)], 0)
    sub = subdivide_costs(g)
    assert sub.n == 2 and len(sub.edges) == 2
    assert sub.encoding == "unary"


def test_subdivide_cost3_arithmetic():
    # one cost-3 edge and a cost-0 back edge: 2 fresh color-0 vertices,
    # the cost-3 edge becomes a 3-edge unit path
    g = make_game([(0, 0, 1), (1, 1, 2)], [(0, 1, 3), (1, 0, 0)], 0, "binary")
    sub = subdivide_costs(g)
    assert sub.n == 4
    assert len(sub.edges) == 4
    assert all(e.cost <= 1 for e in sub.edges)
    assert validate_game(sub) == []
    fresh = [v for v in sub.vertices if v.id >= 2]
    assert all(v.color == 0 for v in fresh)
    assert all(v.owner == 0 for v in fresh)  # source's owner


def test_subdivide_always_valid_and_color_preserving():
    import random

    rng = random.Random(5)
    from conftest import random_cost_game

    for _ in range(40):
        g = random_cost_game(rng, rng.randint(1, 4), 4, max_cost=4,
                             encoding="binary")
        sub = subdivide_costs(g)
        assert validate_game(sub) == []
        assert sub.n == g.n + sum(e.cost - 1 for e in g.edges if e.cost >= 2)
        # original vertices keep their colors
        for v in g.vertices:
            assert sub.color[v.id] == g.color[v.id]


def test_subdivide_budget():
    g = make_game([(0, 0, 0), (1, 0, 0)], [(0, 1, 100), (1, 0, 0)], 0, "binary")
    with pytest.raises(BudgetExceededError):
        subdivide_costs(g, vertex_budget=10)


def test_export_dot_deterministic(delay_won):
    out = export_dot(delay_won)
    assert out == export_dot(delay_won)
    assert out.count("->") == 4
    assert out.count("shape=circle") == 2 and out.count("shape=box") == 1


def test_export_dot_single_vertex():
    g = make_game([(0, 0, 0)], [(0, 0, 0)], 0)
    out = export_dot(g)
    assert "v0 -> v0" in out


def test_cpg_roundtrip(delay_won):
    text = format_cpg(delay_won)
    g = parse_cpg(text)
    assert g.vertices == delay_won.vertices
    assert set(g.edges) == set(delay_won.edges)
    assert g.initial == delay_won.initial
    assert format_cpg(g) == text


def test_cpg_parse_errors():
    with pytest.raises(FormatError):
        parse_cpg("")
    with pytest.raises(FormatError):
        parse_cpg("costparity 1 0 unary\n0 0 0 junk\n")
    with pytest.raises(FormatError):
        parse_cpg("costparity 2 0 unary\n0 0 0 0:0\n")
    with pytest.raises(FormatError):
        parse_cpg("costparity 1 0 trinary\n0 0 0 0:0\n")


@pytest.mark.parametrize("text, message", [
    ("costparity x 0 unary\n", "bad header numbers: 'costparity x 0 unary'"),
    ("# nothing but a comment\n", "empty .cpg file"),
    ("costparity 1 0 unary\n0 -1 0 0:0\n", "invalid game: vertex 0: negative color -1"),
])
def test_cpg_error_messages(text, message):
    with pytest.raises(ValueError) as err:
        parse_cpg(text)
    assert str(err.value) == message


def test_validate_names_unknown_sources_and_encodings():
    assert validate_game(make_game([(0, 0, 0)], [(0, 0, 0), (4, 0, 0)], 0)) == [
        "edge 4->0: unknown source"]
    assert validate_game(make_game([(0, 0, 0)], [(0, 0, 0)], 0, "ternary")) == [
        "game: unknown encoding 'ternary'"]
    # an edge with an unknown end gets no cost check of its own
    assert validate_game(make_game([(0, 0, 0)], [(0, 0, 0), (0, 4, -3)], 0, "binary")) == [
        "edge 0->4: unknown target"]


def test_strat_initial_state_out_of_range():
    g = make_game([(0, 0, 0)], [(0, 0, 0)], 0)
    strat = parse_strat("strategy 0 1 3\nu 0 0 0 0 0\nn 0 0 0\n")
    assert validate_strategy(g, strat) == ["initial state 3 out of range"]
    with pytest.raises(ValueError, match=r"^ill-formed strategy: initial state 3 out of range$"):
        strategy_cost(g, strat)


def test_cpg_comments_ignored():
    g = parse_cpg("# a game\ncostparity 1 0 unary\n0 0 0 0:0  # self loop\n")
    assert g.n == 1


def test_strat_roundtrip(delay_won):
    strat = strategy_from_functions(
        delay_won, 0, "only", lambda m, e: m, lambda v, m: delay_won.successors[v][0][0])
    text = format_strat(strat)
    back = parse_strat(text)
    assert back.player == 0 and back.size == 1
    assert back.update == dict(strat.update)
    assert back.next_move == dict(strat.next_move)


# --- certificates over the plays consistent with them -------------------------

def _spy_tabulations(monkeypatch):
    """Records every ``strategy_from_product`` call from here on as
    ((game, player, initial label, update_fn, next_move_fn), result)."""
    calls = []
    real = core.strategy_from_product

    def spy(*args):
        strat = real(*args)
        calls.append((args, strat))
        return strat

    for module in (core, solver, streett):
        monkeypatch.setattr(module, "strategy_from_product", spy)
    return calls


def _verified_cost(game, strat):
    if isinstance(game, streett.CostStreettGame):
        fn = streett.streett_strategy_cost if strat.player == 0 else streett.streett_spoiler_cost
    else:
        fn = strategy_cost if strat.player == 0 else spoiler_cost
    return fn(game, strat)


def _certify_around_optimum(game):
    """Builds the optimum's witness and the spoiler one bound below it."""
    if isinstance(game, streett.CostStreettGame):
        value = streett.optimal_cost_streett(game).value
        decide = streett.decide_bounded_cost_streett
    else:
        value = optimal_cost(game).value
        decide = decide_bounded_cost
    if 0 < value < math.inf:
        assert decide(game, int(value) - 1).certificate.player == 1


def _dense_table(game, player, initial_label, update_fn, next_move_fn):
    """A dense table of the same functions: memory collected under every
    move of both players, made total over M × E by
    ``strategy_from_functions``, with every update that leaves the
    collected labels sent to an absorbing dead label.  (Closing over
    every edge from every label instead does not fit in memory on p1mem
    d=2.)"""
    succ, key = game.successors, game.update_key
    labels = {initial_label}
    seen = {(game.initial, initial_label)}
    stack = [(game.initial, initial_label)]
    while stack:
        v, m = stack.pop()
        for t, _ in succ[v]:
            m2 = update_fn(m, key[(v, t)])
            labels.add(m2)
            if (t, m2) not in seen:
                seen.add((t, m2))
                stack.append((t, m2))
    dead = object()

    def upd(m, ek):
        m2 = dead if m is dead else update_fn(m, ek)
        return m2 if m2 in labels else dead

    def nxt(v, m):
        return succ[v][0][0] if m is dead else next_move_fn(v, m)

    return strategy_from_functions(game, player, initial_label, upd, nxt)


def test_certificates_verify_like_their_dense_tables(monkeypatch):
    """Each certificate keeps only the memory that consistent plays
    visit.  The dense table of the same update and move functions, read
    back from its .strat text, verifies at exactly the certificate's
    cost and has at least as many states."""
    families = [generators.p0_memory_family(1), generators.p0_memory_family(2),
                generators.p1_memory_family(1), generators.p1_memory_family(2),
                generators.p1_tradeoff_family(2), generators.binary_tradeoff_family(2),
                generators.streett_counter_family(1)]
    games = [inst.game for inst in families]
    rng = random.Random(83)
    # binary costs up to 2: the verifiers decide first at the pumping cap
    # n·|M|·W, which with costs of 3 can exhaust memory on an ∞ spoiler
    for _ in range(100):
        games.append(random_cost_game(rng, rng.randint(1, 4), 4))
        games.append(random_cost_game(rng, rng.randint(1, 4), 4, max_cost=2,
                                      encoding="binary"))
        games.append(random_cost_streett(rng))
    calls = _spy_tabulations(monkeypatch)
    kinds = Counter()
    for g in games:
        _certify_around_optimum(g)
        _check_against(_dense_table, calls, kinds)
    smaller = kinds.pop("smaller")
    assert len(kinds) == 4 and smaller > sum(kinds.values()) // 4


def _check_against(reference, calls, kinds):
    """Each recorded certificate and the table ``reference`` builds of
    the same functions, read back from its .strat text, are valid and
    verify at exactly the same cost, and the certificate has at most as
    many states.  Counts the certificates per (game class, player), and
    the strictly smaller ones under "smaller"."""
    for (game, player, label, upd, nxt), cert in calls:
        table = parse_strat(format_strat(reference(game, player, label, upd, nxt)))
        assert validate_strategy(game, cert) == validate_strategy(game, table) == []
        assert _verified_cost(game, cert) == _verified_cost(game, table)
        assert cert.size <= table.size
        kinds[(type(game), player)] += 1
        kinds["smaller"] += cert.size < table.size
    calls.clear()  # the closures hold the solved products


def test_merged_certificates_cost_what_their_unmerged_tables_cost(monkeypatch):
    """The differential test of the merge: over half of
    ``parity_optimal_corpus`` (the 11 family games, 200 unary and 100
    binary ones), each game's optimal witness and one decision at a
    random bound in 0–12; and 100 games of ``random_cost_streett`` from
    ``random.Random(5)``, one decision each."""
    calls = _spy_tabulations(monkeypatch)
    kinds = Counter()
    bounds = random.Random(29)
    for g in parity_optimal_corpus(unary=200, binary=100):
        optimal_cost(g)
        decide_bounded_cost(g, bounds.randint(0, 12)).certificate
        _check_against(dead_state_tabulation, calls, kinds)
    rng = random.Random(5)
    for _ in range(100):
        g = random_cost_streett(rng)
        streett.decide_bounded_cost_streett(g, bounds.randint(0, 12)).certificate
        _check_against(dead_state_tabulation, calls, kinds)
    assert len(kinds) == 5 and min(kinds.values()) >= 20, kinds


def test_a_merge_out_of_work_stays_exact(monkeypatch):
    """The Streett counter d=2 witness runs the merge out of its work
    bound: it keeps more states than an unbounded merge, fewer than the
    unmerged table, and costs what the unmerged table costs."""
    calls = _spy_tabulations(monkeypatch)
    g = generators.streett_counter_family(2).game
    opt = streett.optimal_cost_streett(g)
    (args, cert), = [(args, cert) for args, cert in calls if cert is opt.witness]
    unmerged = dead_state_tabulation(*args)
    monkeypatch.setattr(core, "_MERGE_WORK", 10 ** 9)
    unbounded = core.strategy_from_product(*args)
    assert unbounded.size < cert.size < unmerged.size
    assert streett.streett_strategy_cost(g, cert) == \
        streett.streett_strategy_cost(g, unmerged) == opt.value


def _merged(merge, moves, steps):
    """``merge`` run on copies of the tables: (the roots, the merged
    moves and steps as item lists, in their order)."""
    moves, steps = copy.deepcopy(moves), copy.deepcopy(steps)
    root = merge(moves, steps)
    return root, [list(m.items()) for m in moves], [list(s.items()) for s in steps]


def _random_merge_tables(rng):
    """Random tabulation input: per label a few moves out of two per
    vertex and a few steps to random labels, so that some merges hold
    and some conflict."""
    size = rng.randint(2, 40)
    moves = [{v: rng.randrange(2) for v in rng.sample(range(6), rng.randint(0, 4))}
             for _ in range(size)]
    steps = [{(0, 0, ek): rng.randrange(size) for ek in rng.sample(range(8), rng.randint(0, 4))}
             for _ in range(size)]
    return moves, steps


def test_merge_equals_the_reference_merge(monkeypatch):
    """The merge against ``conftest.reference_merge``, the loop with a
    ``find`` function and sorted pairs that it replaced: equal roots and
    equal merged tables on the tabulation inputs of every certificate
    the ``families-cli`` benchmark writes (the families' optimal
    witnesses), of the Streett counter's d=2 optimal search and of its
    d=3 spoiler at 22, and on 600 random tables, two thirds of them with
    a work factor of 1 or 2 instead of 4.  An input runs out of work
    when an unbounded merge gives other roots: the d=2 witness does,
    and so do some random tables."""
    inputs = []
    real = core._merge_compatible

    def recorded(moves, steps):
        inputs.append(copy.deepcopy((moves, steps)))
        return real(moves, steps)

    monkeypatch.setattr(core, "_merge_compatible", recorded)
    for family, d in (("p0mem", 1), ("p0mem", 2), ("p0mem", 3), ("p1mem", 3), ("p1mem", 4),
                      ("p1trade", 3), ("bintrade", 2), ("bintrade", 3)):
        optimal_cost(parse_cpg(format_cpg(cli._FAMILIES[family](d).game)))
    witness = streett.optimal_cost_streett(generators.streett_counter_family(2).game).witness
    witness_input = inputs[-1]
    spoiler = streett.decide_bounded_cost_streett(generators.streett_counter_family(3).game, 22)
    assert spoiler.certificate.player == 1 and witness.player == 0
    monkeypatch.setattr(core, "_merge_compatible", real)

    def out_of_work(moves, steps, root):
        with monkeypatch.context() as m:
            m.setattr(core, "_MERGE_WORK", 10 ** 9)
            return _merged(reference_merge, moves, steps)[0] != root

    seen = Counter()
    for moves, steps in inputs:
        got = _merged(real, moves, steps)
        assert got == _merged(reference_merge, moves, steps)
        seen["merged", len(set(got[0])) < len(moves)] += 1
    assert out_of_work(*witness_input, _merged(real, *witness_input)[0])
    rng = random.Random(71)
    for k in range(600):
        moves, steps = _random_merge_tables(rng)
        with monkeypatch.context() as m:
            m.setattr(core, "_MERGE_WORK", (1, 2, 4)[k % 3])
            got = _merged(real, moves, steps)
            assert got == _merged(reference_merge, moves, steps)
            seen["random merged", len(set(got[0])) < len(moves)] += 1
            seen["random out of work"] += out_of_work(moves, steps, got[0])
    assert len(inputs) == seen["merged", True] == 10, seen
    assert seen["random merged", True] >= 300 and seen["random out of work"] >= 50, seen


class _CountedTracker:
    """A tracker that counts its update steps."""

    def __init__(self, tracker):
        self.tracker = tracker
        self.updates = 0

    def update(self, *args):
        self.updates += 1
        return self.tracker.update(*args)

    def __getattr__(self, name):
        return getattr(self.tracker, name)


def _stop(entries, share, n):
    """Where the per-level search stops, read off the walk's entry sets:
    (the first level below n whose entry set repeats one of an earlier
    level of its class of ``share``, the distance between the two), or
    None if it walks every level up to n or to an empty entry set."""
    cls, first = None, {}
    for o in range(n):
        entry = frozenset(entries.get(o, ()))
        if not entry:
            return None
        if share(o) != cls:
            cls, first = share(o), {}
        if entry in first:
            return o, o - first[entry]
        first[entry] = o
    return None


def _lost_decisions(rng, count):
    """(game, lost decision) pairs: random cost-parity (unary and
    binary) and cost-Streett games, half with pass-through vertices
    added, at bounds 0–4, until ``count`` decisions are lost."""
    lost = 0
    for k in itertools.count():
        streett_game = k % 2
        if streett_game:
            g = random_cost_streett(rng)
        elif k % 3:
            g = random_cost_game(rng, rng.randint(1, 5), 4)
        else:
            g = random_cost_game(rng, rng.randint(1, 5), 4, max_cost=3, encoding="binary")
        if k % 4 < 2:
            g = with_pass_through(rng, g)
        decide = streett.decide_bounded_cost_streett if streett_game else decide_bounded_cost
        res = decide(g, rng.randint(0, 4))
        if not res.achievable:
            yield g, res
            lost += 1
            if lost == count:
                return


def _check_o_min(g, tracker, move, share, *certs):
    """Checks the spoiler certificate of ``move``, and ``certs``, against
    the walk's (``conftest.walked_reset_spoiler``), and that the
    per-level search makes fewer tracker steps than the walk exactly
    when it stops at a repeated entry set: else it expands the same
    states.  Returns where it stops (``_stop``) and the walk's o_min."""
    walked, levelled = _CountedTracker(tracker), _CountedTracker(tracker)
    entries: dict = {}
    old = walked_reset_spoiler(g, walked, move, entries)
    new = core._reset_spoiler(g, levelled, move, share)
    for cert in (new, *certs):
        assert (cert.player, cert.initial) == (old.player, old.initial) == (1, 0)
        assert (cert.states, cert.update, cert.next_move) == \
            (old.states, old.update, old.next_move)
    # both tabulate the same table, so the difference is the searches'
    saved = walked.updates - levelled.updates
    stop = _stop(entries, share, g.n)
    assert saved > 0 if stop else saved == 0, (g, stop, saved)
    return stop, walked_o_min(g, tracker, move)


def test_spoiler_o_min_level_by_level_equals_the_walk():
    """The spoiler certificate, with o_min found one overflow level at a
    time, against the walk over every (v, o, r) state: equal states,
    updates and moves on 1,200 random lost decisions and on the Streett
    counter d=3 at 22, the decisions' own certificates included.
    Decisions of 1, 2 and 3 iterates, stops at repeats of period 1 and
    2 and decisions that walk every level all occur."""
    seen = Counter()
    cases = list(_lost_decisions(random.Random(67), 1200))
    counter = generators.streett_counter_family(3).game
    cases.append((counter, streett.decide_bounded_cost_streett(counter, 22)))
    for g, res in cases:
        make = streett.StreettTracker if isinstance(g, streett.CostStreettGame) else Tracker
        stop, _ = _check_o_min(g, make(g, res.bound), res.move_function(1), res._iterate_index,
                               res.certificate)
        seen["iterates", len(res.iterates)] += 1
        seen["period", stop and stop[1]] += 1
    assert stop == (2, 1)  # the counter: level 2 repeats level 1
    assert all(seen["iterates", k] >= 20 for k in (1, 2, 3)), seen
    assert all(seen["period", p] >= 10 for p in (1, 2, None)), seen


def test_spoiler_o_min_stops_within_any_level_classes():
    """The same against the walk on 2,000 random games, with and without
    pass-through vertices, at bounds 0–2: Player 1's moves a fixed
    function of (v, r) and the level's class, the levels partitioned
    at random into runs.  Searches stop at repeats of period 1 and 2,
    in classes after the first, and before levels where the walk still
    meets vertices first: the spoiler's plays never reach them."""
    rng = random.Random(73)
    seen = Counter()
    for k in range(2000):
        if k % 2:
            g = random_cost_streett(rng)
            make = streett.StreettTracker
        else:
            g = random_cost_game(rng, rng.randint(1, 5), 4)
            make = Tracker
        if k % 4 < 2:
            g = with_pass_through(rng, g)
        cuts = sorted(rng.sample(range(1, g.n + 1), rng.randint(0, min(3, g.n))))

        def share(o, cuts=cuts):
            return sum(o >= c for c in cuts)

        def move(v, o, r, g=g, salt=k):
            row = g.successors[v]
            return row[hash((salt, v, r, share(o))) % len(row)][0]

        stop, o_min = _check_o_min(g, make(g, rng.randint(0, 2)), move, share)
        if stop:
            level, period = stop
            seen["period", period] += 1
            seen["stop in a later class"] += share(level) > 0
            seen["met first after the stop"] += max(o_min.values()) > level
    assert seen["period", 1] >= 100 and seen["period", 2] >= 5, seen
    assert seen["stop in a later class"] >= 100 and seen["met first after the stop"] >= 50, seen


def test_least_bound_searches_upward_with_few_probes():
    # monotone predicates "b >= t" with t in [lo, hi], or failing
    # everywhere (t = hi + 1); compared with a linear scan, and the
    # probes counted, which is the same on every machine
    rng = random.Random(41)
    cases = [(0, 0), (3, 3), (5, 6)]
    cases += [(0, rng.randint(0, 2000)) for _ in range(150)]
    cases += [(lo, lo + rng.randint(0, 500)) for lo in (rng.randint(1, 100) for _ in range(150))]
    for lo, hi in cases:
        for t in {lo, hi, hi + 1, rng.randint(lo, hi), rng.randint(lo, hi + 1)}:
            probes = []

            def probe(b):
                probes.append(b)
                return b >= t, ("result", b)

            b, res = core._least_bound(probe, lo, hi)
            scan = next((c for c in range(lo, hi + 1) if c >= t), None)
            assert b == scan, (lo, hi, t)
            assert res == ("result", hi if b is None else b)
            assert all(lo <= p <= hi for p in probes)
            assert len(set(probes)) == len(probes)
            if b is not None:
                assert max(probes) <= min(hi, lo + 2 * (b - lo))
                assert len(probes) <= 2 * math.ceil(math.log2(b - lo + 2)) + 1
                # a guess g ≥ b, known to succeed: the same answer, the
                # first probe at g − 1, none above it, and an exact guess
                # answered from that one probe (none when it is lo)
                for g in {b, rng.randint(b, hi), hi}:
                    probes.clear()
                    assert core._least_bound(probe, lo, hi, g) == \
                        (b, None if g == b else ("result", b))
                    assert probes[:1] == ([] if g == lo else [g - 1])
                    assert len(set(probes)) == len(probes)
                    assert all(lo <= p < g for p in probes)
                    if g == b:
                        assert len(probes) == (b > lo)


def test_a_game_is_validated_once(monkeypatch):
    """``require_valid`` remembers a passed check on the frozen game:
    building a QBF game and deciding it validates it once, and so does
    an ``optimal`` search over all its probes; likewise for a Streett
    game."""
    calls = Counter()
    for module, name in ((core, "validate_game"), (streett, "validate_streett_game")):
        def spy(game, _original=getattr(module, name)):
            calls[id(game)] += 1
            return _original(game)
        monkeypatch.setattr(module, name, spy)
    games = []
    for clauses in (((1, -2, 2), (-1, 2, 2)), ((1, 1, 1), (-1, -1, -1))):
        inst = generators.qbf_to_game(generators.QbfFormula(("e", "a"), clauses))
        decide_bounded_cost(inst.game, inst.target_bound)
        games.append(inst.game)
    family = generators.p1_memory_family(3)
    assert optimal_cost(family.game).value == family.target_bound
    counter = generators.streett_counter_family(1)
    assert streett.optimal_cost_streett(counter.game).value == counter.target_bound
    family, counter = family.game, counter.game
    games += [family, counter]
    assert [calls[id(g)] for g in games] == [1, 1, 1, 1]
    assert len(calls) == len(games)


def test_an_invalid_game_raises_on_every_check(monkeypatch):
    calls = Counter()
    original = core.validate_game

    def spy(game):
        calls["validate"] += 1
        return original(game)

    monkeypatch.setattr(core, "validate_game", spy)
    bad = make_game([(0, 0, 0), (1, 1, 2)], [(0, 1, 1)], 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="^invalid game: vertex 1: terminal vertex"):
            decide_bounded_cost(bad, 1)
    assert calls["validate"] == 2
    bad_streett = streett.CostStreettGame((Vertex(0, 0, 0),), (), (), 0)
    messages = set()
    for _ in range(2):
        with pytest.raises(ValueError, match="^invalid Streett game: ") as err:
            streett.decide_bounded_cost_streett(bad_streett, 1)
        messages.add(str(err.value))
    assert len(messages) == 1
