"""Level-graph nodes and tracker steps of the benchmark's decisions.

For round 0 of the ``qbf-decide`` workload at a seed, its formulas read
from ``perfbench/workloads.py`` (loaded by ``bench_workloads.py`` beside
this file: imported, not changed, and no bytecode is written there),
and for the Streett counter's d=3 decisions at the bounds 21–24 of the
``streett-counter`` workload, it prints the nodes and the moves of two
level graphs per decision: the decision's own, which walks past every
walked vertex (``walked_exits``), and the one on the pass-through rows
(``exits``) that certificates read.  A decision steps the tracker once
per move of its level graph, so the moves are its tracker steps.
Stdlib only; run it from anywhere as

    python tools/product_counts.py [--seed N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "src")]

import costparity  # noqa: E402
from bench_workloads import load_workloads  # noqa: E402
from costparity.core import DEFAULT_PRODUCT_BUDGET  # noqa: E402
from costparity.generators import streett_counter_family  # noqa: E402
from costparity.reduction import Tracker, _LevelProduct  # noqa: E402
from costparity.solver import clamp_bound  # noqa: E402
from costparity.streett import StreettTracker, streett_regime_cap  # noqa: E402

ROWS = {"walked": "walked_exits", "pass-through": "exits"}


def totals(cases) -> dict[str, tuple[int, int]]:
    """Per kind of rows (``ROWS``), the level-graph nodes and moves
    summed over ``cases``, (game, tracker) pairs."""
    out = {}
    for kind, rows in ROWS.items():
        nodes = moves = 0
        for game, tracker in cases:
            level = _LevelProduct(game, tracker, DEFAULT_PRODUCT_BUDGET, "level graph",
                                  getattr(game, rows))
            nodes += level.size
            moves += sum(map(len, level.succ))
        out[kind] = (nodes, moves)
    return out


def qbf_cases(formulas):
    """(game, tracker) of each formula's decision at its target bound."""
    for phi in formulas:
        inst = costparity.qbf_to_game(phi)
        yield inst.game, Tracker(inst.game, clamp_bound(inst.game, inst.target_bound))


def qbf_round(seed: int) -> list:
    """The formulas of round 0 of the ``qbf-decide`` workload at ``seed``."""
    workload = load_workloads().QbfDecide(seed, Path("."))
    workload.setup(costparity)
    return workload.pool[0]


def report(title: str, counts: dict[str, tuple[int, int]]) -> None:
    print(title)
    for kind, (nodes, moves) in counts.items():
        print(f"  {kind + ':':14} level-graph nodes {nodes:>9,}  tracker steps {moves:>9,}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    formulas = qbf_round(seed)
    report(f"qbf-decide round 0 (seed {seed}), {len(formulas)} decisions",
           totals(list(qbf_cases(formulas))))
    game = streett_counter_family(3).game
    for b in (21, 22, 23, 24):
        report(f"streett counter d=3, bound {b}",
               totals([(game, StreettTracker(game, min(b, streett_regime_cap(game))))]))


if __name__ == "__main__":
    main()
