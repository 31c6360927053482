"""Bilevel solver library for the electric capacitated VRP."""

__version__ = "0.1.0"

from .instance import (
    DistanceOracle,
    EvaluationBudget,
    InstanceSpec,
    load_instance,
    max_evals_budget,
    max_time_budget,
    parse_instance,
)
from .solution import (
    ChargingPlan,
    CompleteSolution,
    RoutingPlan,
    battery_feasible,
    check_upper_feasible,
    expand_route,
    surrogate_cost,
    total_cost,
)
from .charging import (
    ChargingQueryResult,
    build_best_station_table,
    solve_exhaustive,
    solve_se,
)
from .moves import Move, apply_move, delta_phi, enumerate_positions
from .search import (
    AblationToggles,
    SearchParams,
    SearchTrace,
    run_blahc,
)
from .analysis import (
    SamplePair,
    brute_force_optimum,
    collect_pairs,
    kendall_tau_b,
    recall_at_k,
)

__all__ = [name for name in dir() if not name.startswith("_")]
