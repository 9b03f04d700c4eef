"""Lasso costs of Streett games against independent oracles.

``streett_play_cost`` is checked against a literal unrolling of the
lasso, pair by pair, and ``stcor`` of a parity game's Streett image
against the parity game's own ``cor`` at every canonical position.
"""

import random

from conftest import (random_cost_game, random_cost_streett, random_lasso,
                      unrolled_streett_play_cost)
from costparity import INF, cor, stcor, streett_from_cost_parity, streett_play_cost


def test_streett_play_cost_matches_unrolling_on_random_lassos():
    rng = random.Random(37)
    checked, finite = 0, 0
    while checked < 300:
        g = random_cost_streett(rng)
        lasso = random_lasso(rng, g)
        if lasso is None:
            continue
        value = streett_play_cost(g, lasso)
        assert value == unrolled_streett_play_cost(g, lasso), (g, lasso)
        checked += 1
        finite += 0 < value < INF
    assert finite >= 20  # positive finite costs, not only 0 and ∞


def test_stcor_of_the_streett_image_is_cor():
    rng = random.Random(31)
    lassos, positions = 0, 0
    while lassos < 300:
        g = random_cost_game(rng, rng.randint(1, 4), 4, max_cost=2, encoding="binary")
        lasso = random_lasso(rng, g)
        if lasso is None:
            continue
        sg = streett_from_cost_parity(g)
        for j in range(len(lasso)):
            assert stcor(sg, lasso, j) == cor(g, lasso, j), (g, lasso, j)
            positions += 1
        lassos += 1
    assert positions >= 1000
