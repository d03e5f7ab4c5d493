"""Python calls into the package per outer iteration of the toy games.

The count is deterministic and independent of the machine and of numpy:
only frames whose code lives under ``src/gnesolve`` are counted, so numpy's
own Python-level functions never enter it.  The budgets are the counts
since each run binds its sweep, residual and subgame solve once, sweeps
into the idle one of two states (`admm.iterate_to_tolerance`), and its
residual builds the products the sweep reads: 19 for both algorithms.
They were 38 (ADMM) and 36 (splitting) when every iteration built a
subgame and a state and walked the wrapper chains of the game's maps, and
21 and 20 while the residual called a products binder and the ADMM sweep
a price binder.
Raising a budget is a decision: declare it in CHANGES.md with the calls it
adds and why they are worth their cost.
"""

import os
import sys

import pytest

import gnesolve as gs

PACKAGE_DIR = os.path.dirname(gs.__file__) + os.sep

#: Python calls into the package per outer iteration, exact inner solves
BUDGET = {"admm": 19, "splitting": 19}


def package_calls(run) -> int:
    """Python function calls into the package made by ``run()``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("algorithm", sorted(BUDGET))
def test_package_calls_per_outer_iteration(algorithm):
    kind, runner = {"admm": (gs.EQUALITY, gs.run_admm),
                    "splitting": (gs.INEQUALITY, gs.run_splitting)}[algorithm]
    game, _ = gs.quadratic_game(kind=kind)
    graph = gs.path_graph(2)
    params = gs.AlgoParams.uniform(game, graph, r=10.0, h=0.5, w=0.5,
                                   rho=1.1, mu0=0.0)
    inner = gs.InnerSolver("exact")

    def calls(iterations):
        return package_calls(lambda: runner(game, graph, params, inner,
                                            gs.StopRule(iterations, 0.0)))

    # the per-run calls cancel in the differences; every iteration of the
    # window costs the same
    counts = [calls(k) for k in (10, 20, 30)]
    per_iteration = (counts[1] - counts[0]) / 10
    assert counts[2] - counts[1] == counts[1] - counts[0]
    assert per_iteration <= BUDGET[algorithm]
