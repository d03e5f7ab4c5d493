"""Distributed computation of variational generalized Nash equilibria in
monotone games with affine equality or inequality coupling constraints."""

from .admm import State, StopRule, initial_state, run_admm
from .benchgames import (benchmark_graph, quadratic_game, rate_control_game,
                         rate_control_params, task_allocation_game,
                         task_allocation_params)
from .diagnostics import KktReport, consensus_error, kkt_residual
from .errors import (ConfigError, DivergenceError, GnesolveError,
                     InexactnessError, MonotonicityError, NumericError,
                     StructuralError, ValidationError)
from .games import (Box, EQUALITY, Game, INEQUALITY, Player, game_from_dict,
                    game_to_dict, load_game, save_game)
from .graphs import CommGraph, build_incidence, path_graph
from .operators import check_step_sizes_equality, inequality_preconditioner
from .params import AlgoParams
from .splitting import run_splitting
from .subgames import InnerSolver
from .trace import TraceRow, write_trace_csv

__version__ = "0.1.0"
