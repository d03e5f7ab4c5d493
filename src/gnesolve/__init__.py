"""Distributed computation of variational generalized Nash equilibria in
monotone games with affine equality or inequality coupling constraints."""

from .admm import AdmmState, StopRule, admm_iterate, initial_state, run_admm
from .benchgames import (benchmark_graph, quadratic_game, rate_control_game,
                         rate_control_params, task_allocation_game,
                         task_allocation_params)
from .diagnostics import (FejerReport, KktReport, consensus_error,
                          fejer_check, kkt_residual)
from .errors import (ConfigError, DivergenceError, GnesolveError,
                     InexactnessError, NumericError, StructuralError,
                     ValidationError)
from .games import (Box, EQUALITY, Game, INEQUALITY, MonotonicityReport,
                    Player, check_monotonicity_samples,
                    game_from_dict, game_to_dict, load_game, save_game)
from .graphs import CommGraph, build_incidence, path_graph
from .operators import (check_step_sizes_equality, inequality_preconditioner,
                        residual_equality, residual_inequality)
from .params import AlgoParams
from .proxpoint import (InequalityResolvent, LiftedEqualityResolvent,
                        correspondence_check, pppa_step, run_proxpoint)
from .splitting import run_splitting, splitting_iterate
from .subgames import (InnerCertificate, InnerSolver, Subgame,
                       equality_subgame, inequality_subgame)
from .trace import TraceRow, read_trace_csv, write_trace_csv

__version__ = "0.1.0"
