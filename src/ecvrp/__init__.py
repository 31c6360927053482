"""Bilevel solver library for the electric capacitated VRP.

Every public name loads on first use: `import ecvrp` imports no
submodule, and `ecvrp.run_blahc` (or `from ecvrp import run_blahc`)
imports `ecvrp.search` then, so a process that only loads an instance
never compiles the search, the moves or the analysis.  Each name is the
object its submodule defines.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DistanceOracle", "EvaluationBudget", "InstanceSpec", "load_instance",
        "max_evals_budget", "max_time_budget", "parse_instance",
    ), "instance"),
    **dict.fromkeys((
        "CompleteSolution", "RoutingPlan", "battery_feasible",
        "check_upper_feasible", "evaluate_solution", "expand_route",
        "surrogate_cost", "total_cost",
    ), "solution"),
    **dict.fromkeys((
        "ChargingQueryResult", "build_best_station_table", "solve_exhaustive",
        "solve_se",
    ), "charging"),
    **dict.fromkeys((
        "Move", "apply_move", "delta_phi", "enumerate_positions",
    ), "moves"),
    **dict.fromkeys((
        "AblationToggles", "SearchParams", "SearchTrace", "run_blahc",
    ), "search"),
    **dict.fromkeys((
        "SamplePair", "brute_force_optimum", "collect_pairs", "kendall_tau_b",
        "recall_at_k",
    ), "analysis"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}",
                                                __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *__all__])
