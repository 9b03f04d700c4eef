"""The arena views against the view-by-view oracles of conftest.

``core._Arena`` derives its views from shared passes: validation reads
``successors``, a pass-through vertex's exit row is the chain end its
walk computed, and the QBF distance audit searches ``successors`` and
the in-edges.  Every view must equal the one derived on its own from
the vertices and edges (``conftest.oracle_views``), in the same key
order where the view is a dict, on random games of both classes with
and without pass-through chains, cycles and parallel exits, on parsed
files whose ids are scattered, and on the QBF games the benchmark
decides.
"""

import importlib.util
import random
import sys
from pathlib import Path

from conftest import (oracle_audit_maps, oracle_bfs_dist, oracle_exit_rows, oracle_views,
                      random_cost_game, random_cost_streett, random_strategy,
                      with_pass_through)

import costparity
from costparity import format_cpg, make_game, parse_cpg
from costparity.generators import _bfs_dist, _in_edges, _qbf_arena, normalize_qbf, qbf_to_game
from costparity.semantics import _StrategyArena
from costparity.streett import (CostStreettGame, StreettEdge, StreettPair, format_cst,
                                parse_cst)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def check_views(game) -> None:
    for name, want in oracle_views(game).items():
        got = getattr(game, name)
        assert got == want, name
        if isinstance(want, dict):
            assert list(got) == list(want), name


def random_games(seed: int, count: int):
    """``count`` random games of each kind: unary and binary cost-parity
    games and cost-Streett games, every other one with pass-through
    chains, a cycle of them and a parallel exit added."""
    rng = random.Random(seed)
    for k in range(count):
        games = (random_cost_game(rng, rng.randint(1, 7), 6),
                 random_cost_game(rng, rng.randint(1, 7), 6, max_cost=4, encoding="binary"),
                 random_cost_streett(rng, most=6, pairs=rng.randint(1, 3)))
        for g in games:
            yield with_pass_through(rng, g) if k % 2 else g


def test_views_match_the_oracles_on_random_games():
    kinds = set()
    for g in random_games(31, 150):
        check_views(g)
        kinds.add((type(g).__name__, bool(g.pass_through)))
    assert kinds == {(cls, chains) for cls in ("CostGame", "CostStreettGame")
                     for chains in (False, True)}


def test_strategy_arena_exits_match_the_oracle():
    # the verifier's one-player products walk their chains the same way
    rng = random.Random(32)
    walked = 0
    for g in random_games(33, 60):
        arena = _StrategyArena(g, random_strategy(rng, g, rng.randint(0, 1), rng.randint(1, 3)))
        rows = dict(enumerate(arena.successors))
        through = frozenset(i for i, row in rows.items() if len(row) == 1
                            and not arena.request_mask[i] and not arena.answer_mask[i])
        assert arena.exits == oracle_exit_rows(rows, through)
        walked += arena.exits != rows
    assert walked > 20


def scattered(rng, game):
    """``game`` with its ids mapped to distinct random ids up to 10⁶."""
    new = dict(zip(game.owner, rng.sample(range(10 ** 6), len(game.owner))))
    if isinstance(game, CostStreettGame):
        return CostStreettGame(
            tuple(v._replace(id=new[v.id]) for v in game.vertices),
            tuple(StreettEdge(new[e.source], new[e.target], e.costs) for e in game.edges),
            tuple(StreettPair(frozenset(map(new.get, p.requests)),
                              frozenset(map(new.get, p.answers))) for p in game.pairs),
            new[game.initial])
    return make_game([(new[i], o, c) for i, o, c in game.vertices],
                     [(new[s], new[t], w) for s, t, w in game.edges],
                     new[game.initial], game.encoding)


def shuffled_vertex_lines(rng, text: str, tail: int = 0) -> str:
    """``text`` with its vertex lines (between the header and the last
    ``tail`` lines) in random order."""
    lines = text.splitlines()
    body = lines[1:len(lines) - tail]
    rng.shuffle(body)
    return "\n".join([lines[0], *body, *lines[len(lines) - tail:]]) + "\n"


def test_views_match_the_oracles_on_parsed_files_with_scattered_ids():
    rng = random.Random(34)
    unsorted = 0
    for g in random_games(35, 60):
        g = scattered(rng, g)
        if isinstance(g, CostStreettGame):
            parsed = parse_cst(shuffled_vertex_lines(rng, format_cst(g), g.d))
        else:
            parsed = parse_cpg(shuffled_vertex_lines(rng, format_cpg(g)))
        check_views(parsed)
        unsorted += list(parsed.owner) != sorted(parsed.owner)
    assert unsorted > 120  # of 180 files


def qbf_decide_round():
    """The formulas of round 0 of the ``qbf-decide`` workload, seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    workload = module.QbfDecide(1, Path("."))
    workload.setup(costparity)
    return workload.pool[0]


def test_views_and_audit_searches_match_the_oracles_on_a_qbf_decide_round():
    formulas = qbf_decide_round()
    assert len(formulas) == 192
    through = 0
    for phi in formulas:
        game = qbf_to_game(phi).game
        check_views(game)
        through += len(game.pass_through)
        # the audit's searches, backward from ψ and forward from each
        # gadget entry, against the maps and the search it used to build
        normal = normalize_qbf(phi)
        arena, psi, _, _, entry_of = _qbf_arena(normal)
        assert arena == game
        pred, succ = oracle_audit_maps(game)
        depth = 3 * normal.n - 1
        assert _bfs_dist(_in_edges(game), psi, depth) == oracle_bfs_dist(pred, psi, depth)
        for lit, entry in entry_of.items():
            steps = 3 * abs(lit) + 2
            assert (_bfs_dist(game.successors, entry, steps)
                    == oracle_bfs_dist(succ, entry, steps))
    # most of these games' vertices are pass-through (about 60%)
    assert through > 10_000
