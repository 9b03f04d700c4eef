"""Parity and Streett games with costs: solvers, verifiers, generators."""

from .core import (BINARY, UNARY, BudgetExceededError, CostGame, Edge,
                   FormatError, StrategySpec, Vertex, export_dot, format_cpg,
                   format_strat, make_game, parse_cpg, parse_strat,
                   subdivide_costs, validate_game, validate_strategy)
from .semantics import (INF, Lasso, answers, cor, play_cost, spoiler_cost,
                        strategy_cost)
from .solver import (BoundedCostResult, FiniteDurationResult, OptimalResult,
                     ParityGame, SolveResult, decide_bounded_cost,
                     decide_bounded_cost_finite_duration,
                     extract_player0_strategy, extract_player1_strategy,
                     optimal_cost, solve_parity)
from .streett import (CostStreettGame, StreettEdge, StreettGame, StreettPair,
                      build_streett_reduction, decide_bounded_cost_streett,
                      format_cst, optimal_cost_streett, parse_cst, solve_streett,
                      stcor, streett_from_cost_parity, streett_play_cost,
                      streett_spoiler_cost, streett_strategy_cost,
                      validate_streett_game)
from .generators import (GeneratedInstance, QbfFormula, ReferenceStrategy,
                         binary_tradeoff_family, eval_qbf, format_qdimacs,
                         normalize_qbf, p0_memory_family, p1_memory_family,
                         p1_tradeoff_family, parse_qdimacs, qbf_to_game,
                         streett_counter_family)

__version__ = "0.1.0"
