"""Exact solvers for tiny instances and surrogate-vs-full cost analysis.

brute_force_optimum() enumerates every way to partition the customers
into at most fleet_size ordered routes, prices each route with the
exhaustive charging solver, and returns the cheapest battery-feasible
complete solution.  It is the ground truth the search is tested against,
so it stays deliberately independent: no budget, no shared search code
beyond the charging solver itself.

The correlation half collects unique (surrogate, full cost) pairs seen
by the follower during a search run and summarizes how well the cheap
surrogate ranks solutions: Kendall tau-b with tie correction, plus the
overlap of the top-k percent sets under either cost.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import NamedTuple

from .charging import solve_exhaustive
from .instance import DistanceOracle, EvaluationBudget, InstanceSpec
from .solution import CompleteSolution, RoutingPlan
from .search import InstanceInfeasible, SearchParams, run_blahc

BRUTE_FORCE_MAX_CUSTOMERS = 8
BRUTE_FORCE_MAX_STATIONS = 3


class InstanceTooLarge(ValueError):
    pass


class DegenerateInput(ValueError):
    pass


class SamplePair(NamedTuple):
    surrogate: float    # phi(x)
    full_cost: float    # F(x, y*(x)) from the follower


# ---------------------------------------------------------------------------
# Exact reference solver
# ---------------------------------------------------------------------------

def _best_route_over_orderings(block, inst, oracle):
    """Cheapest ordered route serving a customer set, costed with optimal
    charging; None when no ordering is battery-feasible under the visit
    bound.  Reversals are skipped: costs are symmetric."""
    best = None
    for order in permutations(block):
        if len(order) > 1 and order[0] > order[-1]:
            continue
        result = solve_exhaustive([list(order)], inst, oracle)
        if not result.feasible:
            continue
        total = result.surrogate + result.detour_cost
        if best is None or total < best[0]:
            best = (total, order, result.plan[0],
                    result.detour_cost, result.surrogate)
    return best


def _partitions_upto(items, max_blocks):
    """Yield set partitions of items into at most max_blocks blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in _partitions_upto(rest, max_blocks):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + (first,)] + partial[i + 1:]
        if len(partial) < max_blocks:
            yield partial + [(first,)]


def brute_force_optimum(inst: InstanceSpec) -> CompleteSolution:
    """Globally optimal complete solution of a tiny instance.

    Guarded to 8 customers and 3 stations; raises InstanceTooLarge beyond
    that and InstanceInfeasible when no battery-feasible solution exists.
    Charges no budget: solve_exhaustive never charges the oracle's.
    """
    if inst.num_customers > BRUTE_FORCE_MAX_CUSTOMERS:
        raise InstanceTooLarge(
            f"{inst.num_customers} customers > {BRUTE_FORCE_MAX_CUSTOMERS}")
    if inst.num_stations > BRUTE_FORCE_MAX_STATIONS:
        raise InstanceTooLarge(
            f"{inst.num_stations} stations > {BRUTE_FORCE_MAX_STATIONS}")
    oracle = DistanceOracle.for_instance(inst)

    cache: dict[frozenset, tuple | None] = {}

    def block_best(block):
        key = frozenset(block)
        if key not in cache:
            cache[key] = _best_route_over_orderings(block, inst, oracle)
        return cache[key]

    units, cap = inst.cargo_units
    best_total = math.inf
    best_blocks = None
    for partition in _partitions_upto(tuple(inst.customers), inst.fleet_size):
        total = 0.0
        blocks = []
        feasible = True
        for block in partition:
            if sum(units[c] for c in block) > cap:
                feasible = False
                break
            entry = block_best(block)
            if entry is None:
                feasible = False
                break
            total += entry[0]
            blocks.append(entry)
        if feasible and total < best_total:
            best_total = total
            best_blocks = blocks
    if best_blocks is None:
        raise InstanceInfeasible("no battery-feasible partition exists")

    detour = sum(entry[3] for entry in best_blocks)
    surrogate = sum(entry[4] for entry in best_blocks)
    return CompleteSolution(
        routing=RoutingPlan.from_lists(entry[1] for entry in best_blocks),
        charging=tuple(entry[2] for entry in best_blocks),
        total_cost=best_total,
        detour_cost=detour,
        surrogate=surrogate,
    )


# ---------------------------------------------------------------------------
# Rank statistics
# ---------------------------------------------------------------------------

def _merge_count(values) -> int:
    """Inversions in values via merge sort; O(n log n)."""
    work = list(values)
    buf = [0.0] * len(work)
    inversions = 0
    width = 1
    n = len(work)
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if work[j] < work[i]:
                    inversions += mid - i
                    buf[k] = work[j]
                    j += 1
                else:
                    buf[k] = work[i]
                    i += 1
                k += 1
            buf[k:hi] = work[i:mid] if i < mid else work[j:hi]
            work[lo:hi] = buf[lo:hi]
        width *= 2
    return inversions


def _tie_count(sorted_values) -> int:
    total = 0
    run = 1
    for prev, cur in zip(sorted_values, sorted_values[1:]):
        if cur == prev:
            run += 1
        else:
            total += run * (run - 1) // 2
            run = 1
    total += run * (run - 1) // 2
    return total


def kendall_tau_b(pairs) -> float:
    """Kendall rank correlation of (phi, F) pairs, SamplePairs or plain
    tuples, with the standard tie correction on both coordinates.  Raises
    DegenerateInput when either coordinate is constant (the coefficient is
    undefined)."""
    n = len(pairs)
    if n < 2:
        raise DegenerateInput("need at least two pairs")
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]

    order = sorted(range(n), key=lambda i: (xs[i], ys[i]))
    x_sorted = [xs[i] for i in order]
    y_by_x = [ys[i] for i in order]

    n0 = n * (n - 1) // 2
    ties_x = _tie_count(x_sorted)
    ties_y = _tie_count(sorted(ys))
    ties_xy = _tie_count(sorted(zip(xs, ys)))
    if ties_x == n0 or ties_y == n0:
        raise DegenerateInput("constant coordinate: tau undefined")

    discordant = _merge_count(y_by_x)
    numerator = n0 - ties_x - ties_y + ties_xy - 2 * discordant
    return numerator / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def recall_at_k(pairs, k: float) -> float:
    """Overlap of the k%-best sets under the surrogate and the full cost:
    |Top_k(phi) & Top_k(F)| / |Top_k(F)|, Top_k holding the ceil(k*n/100)
    lowest values with ties broken by input order."""
    if not 0 < k <= 100:
        raise ValueError("k must be a percentage in (0, 100]")
    n = len(pairs)
    if n == 0:
        raise ValueError("need at least one pair")
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    top = math.ceil(k * n / 100.0)
    by_x = sorted(range(n), key=lambda i: xs[i])[:top]
    by_y = sorted(range(n), key=lambda i: ys[i])[:top]
    return len(set(by_x) & set(by_y)) / len(by_y)


# ---------------------------------------------------------------------------
# Pair collection during search
# ---------------------------------------------------------------------------

def canonical_plan_key(routes) -> tuple:
    """Route order inside a plan is irrelevant: sort non-empty routes by
    their leading customer so relabeled plans hash identically."""
    return tuple(sorted(tuple(r) for r in routes if r))


def collect_pairs(inst: InstanceSpec, params: SearchParams,
                  budget: EvaluationBudget) -> list[SamplePair]:
    """Run the search and record one (phi, F) pair per unique routing plan
    for which the follower produced a feasible charging plan."""
    seen: set = set()
    pairs: list[SamplePair] = []

    def on_pair(routes, phi, full):
        key = canonical_plan_key(routes)
        if key not in seen:
            seen.add(key)
            pairs.append(SamplePair(phi, full))

    run_blahc(inst, params, budget, hooks={"on_pair": on_pair})
    return pairs


def pairs_to_csv(pairs) -> str:
    lines = ["phi,F"]
    lines += [f"{p.surrogate!r},{p.full_cost!r}" for p in pairs]
    return "\n".join(lines) + "\n"


def correlation_report_row(name: str, pairs) -> dict:
    """One analysis-report row; statistics are blank when undefined."""
    row = {"instance": name, "n_samples": len(pairs), "tau_b": "",
           "recall_1": "", "recall_5": "", "recall_10": "", "recall_20": ""}
    if len(pairs) >= 2:
        try:
            row["tau_b"] = f"{kendall_tau_b(pairs):.4f}"
        except DegenerateInput:
            return row
        for k in (1, 5, 10, 20):
            row[f"recall_{k}"] = f"{recall_at_k(pairs, k):.4f}"
    return row
