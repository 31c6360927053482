"""Lower-level charging solvers for fixed routes.

Two followers are provided.  solve_se() is the cheap one used during
search: per route it chooses a set of gaps of one of the two admissible
sizes and fills every chosen gap with the precomputed best detour
station.  Because a recharge is always full, the battery check splits
into independent legs between consecutive stops, and a dynamic program
over (stops used, last stop) finds the set in O(k * n^2) per route (n
gaps, k = lb + 1).  It returns exactly what enumerating every subset in
lexicographic order would: the same subset and the same detour bits.
This is the single-station, full-recharge case of the fixed-route
vehicle charging problem (Montoya et al. 2017; Froger et al. 2019).
solve_exhaustive() additionally ranges over every station and every
ordered station pair per gap; it is reserved for final refinement and
validation because it costs far more arc reads.

Only solve_se is metered: it runs during search, where the paper's budget
counts every arc read.  solve_exhaustive runs after search, outside that
budget, and never charges one.

Both bound the number of station visits on route v to [lb_v, lb_v + 1]
where lb_v = floor(route_length / full_charge_range).  Plans needing more
visits than that are reported infeasible, mirroring the model assumption
that at most two consecutive stops ever suffice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import DistanceOracle, InstanceSpec
from .solution import ChargingPlan, RoutingPlan, Slot


class BudgetExhausted(RuntimeError):
    """Raised by solve_se when its oracle's budget runs out mid-call."""


@dataclass(frozen=True)
class BestStationTable:
    """For every ordered pair of non-charging nodes, the station whose
    detour path d(i,s) + d(s,j) is shortest.

    Ties break toward the lowest station id, so results are reproducible.
    Construction is not metered: the table is immutable instance data
    shared across runs, like the distance matrix itself.
    """

    station_for: tuple  # (n+1) x (n+1) nested tuples of station ids


def build_best_station_table(inst: InstanceSpec,
                             oracle: DistanceOracle) -> BestStationTable:
    if inst.num_stations < 1:
        raise ValueError("instance has no charging stations")
    matrix = np.asarray(oracle.matrix)
    nc = 1 + inst.num_customers
    node_to_station = matrix[:nc, nc:]
    best_len = np.full((nc, nc), np.inf)
    best_sta = np.full((nc, nc), -1, dtype=np.int64)
    for s_idx in range(inst.num_stations):
        col = node_to_station[:, s_idx]
        cand = col[:, None] + col[None, :]
        better = cand < best_len
        best_len[better] = cand[better]
        best_sta[better] = nc + s_idx
    return BestStationTable(
        station_for=tuple(tuple(row) for row in best_sta.tolist()))


def visits_lower_bound(route_cost: float, inst: InstanceSpec) -> int:
    """Minimum station visits needed by a route of surrogate cost
    route_cost: its length divided by the full-charge driving range,
    rounded down."""
    return math.floor(route_cost * inst.consumption_rate / inst.battery_capacity)


@dataclass(frozen=True)
class ChargingQueryResult:
    feasible: bool
    plan: ChargingPlan | None
    detour_cost: float | None
    enumeration_count: int
    surrogate: float = 0.0   # direct route cost summed from the arcs read

    def __bool__(self) -> bool:
        return self.feasible


def solve_se(plan, inst: InstanceSpec, oracle: DistanceOracle,
             table: BestStationTable) -> ChargingQueryResult:
    """Simple-enumeration follower: at most one station per gap, station
    fixed to the gap's best detour station.

    Per route it returns the plan the enumeration of all gap subsets of
    size lb and lb+1 in lexicographic order would return: the first
    battery-feasible subset of minimum detour, size lb before lb+1, with
    the detour summed bit for bit as that enumeration sums it.  The
    subset is found by the dynamic program of _best_gap_subset in
    O(k * n^2) per route (n gaps, k = lb + 1) instead of C(n, lb) +
    C(n, lb+1) subset walks.  enumeration_count keeps its meaning: the
    product over routes of C(n, lb) + C(n, lb+1), the size of the
    restricted configuration space, cut off at the first infeasible route.

    It charges the oracle's budget, when there is one, 3 arcs per gap
    (direct arc and both station legs) and raises BudgetExhausted before a
    gap once that budget is exceeded.
    """
    routes = plan.routes if isinstance(plan, RoutingPlan) else plan
    budget = oracle.budget
    matrix = oracle.matrix
    rate = inst.consumption_rate
    full = inst.battery_capacity

    slots_out: list[tuple[Slot, ...]] = []
    detour_total = 0.0
    surrogate_total = 0.0
    examined_product = 1
    for route in routes:
        if not route:
            slots_out.append((None,))
            continue
        nodes = [0, *route, 0]
        n_gaps = len(route) + 1

        directs = []
        legs_in = []
        legs_out = []
        for g in range(n_gaps):
            u, w = nodes[g], nodes[g + 1]
            station = table.station_for[u][w]
            if budget is not None:
                if budget.exceeded():
                    raise BudgetExhausted
                budget.arc_access_count += 3
            directs.append(matrix[u][w])
            legs_in.append(matrix[u][station])
            legs_out.append(matrix[station][w])

        route_cost = 0.0
        for d in directs:
            route_cost += d
        surrogate_total += route_cost
        lb = visits_lower_bound(route_cost, inst)

        examined_product *= math.comb(n_gaps, lb) + math.comb(n_gaps, lb + 1)
        best = _best_gap_subset(directs, legs_in, legs_out, lb, rate, full)
        if best is None:
            return ChargingQueryResult(False, None, None, examined_product)
        best_f, best_combo = best
        chosen = set(best_combo)
        slots_out.append(tuple(
            table.station_for[nodes[g]][nodes[g + 1]] if g in chosen else None
            for g in range(n_gaps)))
        detour_total += best_f

    return ChargingQueryResult(
        True, ChargingPlan(tuple(slots_out)), detour_total, examined_product,
        surrogate_total)


def _best_gap_subset(directs, legs_in, legs_out, lb: int, rate: float,
                     full: float) -> tuple[float, tuple[int, ...]] | None:
    """Minimum-detour battery-feasible set of recharge gaps of size lb or
    lb + 1 for one route, as (detour, gaps), or None if there is none.

    A recharge at gap g replaces the direct arc directs[g] with the legs
    legs_in[g] and legs_out[g] through the gap's station and leaves with a
    full battery, so feasibility splits into independent legs between
    consecutive stops.  reach[q + 1] lists the stops p reachable from stop
    q (q = -1 and p = n are the depot), computed with the same float
    operations as a gap-by-gap battery simulation.

    The detour of a subset is summed left to right over its gaps as
    detour + legs_in[g] + legs_out[g] - directs[g].  A layered program
    over (stops used, last stop) extends prefixes in that order.  Float
    addition is monotone but not strictly so: a prefix whose value exceeds
    a state's minimum by less than the rounding the remaining additions
    can absorb may still tie it at the end and win on lexicographic order.
    So each state keeps every distinct value within that window of its
    minimum, each with its lexicographically first prefix.  The result is
    the minimum final detour, lexicographically first among exact ties,
    and size lb + 1 replaces size lb only with a strictly smaller detour.
    """
    n = len(directs)
    top = lb + 1
    if lb > n:
        return None

    reach = []
    for q in range(-1, n):
        charge = full if q < 0 else full - rate * legs_out[q]
        nxt = []
        if charge >= 0.0:
            for p in range(q + 1, n):
                if charge - rate * legs_in[p] >= 0.0:
                    nxt.append(p)
                charge -= rate * directs[p]
                if charge < 0.0:
                    break
            else:
                nxt.append(n)
        reach.append(nxt)

    # Every partial detour lies within +-scale, so each remaining addition
    # moves two prefixes' values closer by at most one ulp of 2 * scale.
    scale = 0.0
    for g in range(n):
        scale += legs_in[g] + legs_out[g] + directs[g]
    ulp = math.ulp(2.0 * scale)

    best = None
    layer = {-1: [(0.0, ())]}
    for k in range(top + 1):
        if k >= lb:
            finals = [cands[0] for q, cands in layer.items()
                      if reach[q + 1] and reach[q + 1][-1] == n]
            if finals:
                size_best = min(finals)
                if best is None or size_best[0] < best[0]:
                    best = size_best
        if k == top:
            break
        # three additions per remaining stop, plus slack for the rounding
        # of the window test itself
        window = (3 * (top - k - 1) + 2) * ulp
        need = lb - k - 1            # stops still needed after the next one
        grown: dict[int, list] = {}
        for q, cands in layer.items():
            for p in reach[q + 1]:
                if p == n or n - 1 - p < need:
                    continue
                a, b, c = legs_in[p], legs_out[p], directs[p]
                bucket = grown.setdefault(p, [])
                for v, combo in cands:
                    # same association as solve_exhaustive, so the plans
                    # both can return cost bit-identical detours
                    bucket.append((v + a + b - c, combo + (p,)))
        layer = {}
        for p, bucket in grown.items():
            bucket.sort()
            limit = bucket[0][0] + window
            kept = [bucket[0]]
            for item in bucket:
                if item[0] > limit:
                    break
                if item[0] != kept[-1][0]:
                    kept.append(item)
            layer[p] = kept
    return best


def solve_exhaustive(plan, inst: InstanceSpec,
                     oracle: DistanceOracle) -> ChargingQueryResult:
    """Exhaustive follower: every gap may hold nothing, any single station,
    or any ordered pair of distinct stations, with per-route visits bounded
    to [lb, lb + 1].  Returns the global minimum-detour feasible plan.

    Depth-first enumeration goes gap by gap in option order NIL, then
    stations ascending, then pairs in lexicographic order, so among equal
    detours the first configuration found is kept deterministically.
    Branches are cut when the battery dies, when the visit bound cannot be
    met, or when the partial detour already matches the best found.
    It reads the matrix without charging the oracle's budget.
    """
    routes = plan.routes if isinstance(plan, RoutingPlan) else plan
    matrix = oracle.matrix
    rate = inst.consumption_rate
    full = inst.battery_capacity
    stations = list(inst.stations)
    n_sta = len(stations)
    sta_sta = [[matrix[a][b] for b in stations] for a in stations]

    slots_out: list[tuple[Slot, ...]] = []
    detour_total = 0.0
    surrogate_total = 0.0
    examined_total = 0
    for route in routes:
        if not route:
            slots_out.append((None,))
            continue
        nodes = [0, *route, 0]
        n_gaps = len(nodes) - 1
        directs = [matrix[nodes[g]][nodes[g + 1]] for g in range(n_gaps)]
        route_cost = 0.0
        for d in directs:
            route_cost += d
        surrogate_total += route_cost
        lb = visits_lower_bound(route_cost, inst)
        ub = lb + 1
        if lb > 2 * n_gaps:
            return ChargingQueryResult(False, None, None, examined_total)
        legs_in = [[matrix[u][s] for s in stations] for u in nodes[:-1]]
        legs_out = [[matrix[s][w] for s in stations] for w in nodes[1:]]

        best: list = [None, None]   # [detour, slot assignment]
        assign: list[Slot] = [None] * n_gaps
        examined = 0

        def descend(g: int, visits: int, charge: float, detour: float) -> None:
            nonlocal examined
            if best[0] is not None and detour >= best[0]:
                return
            if g == n_gaps:
                if visits >= lb:
                    examined += 1
                    best[0] = detour
                    best[1] = assign.copy()
                return
            if visits + 2 * (n_gaps - g) < lb:
                return
            after_nil = charge - rate * directs[g]
            if after_nil >= 0.0:
                assign[g] = None
                descend(g + 1, visits, after_nil, detour)
            if visits < ub:
                f_in = legs_in[g]
                f_out = legs_out[g]
                direct = directs[g]
                for si in range(n_sta):
                    arrive = charge - rate * f_in[si]
                    if arrive < 0.0:
                        continue
                    onward = full - rate * f_out[si]
                    if onward < 0.0:
                        continue
                    assign[g] = stations[si]
                    descend(g + 1, visits + 1, onward,
                            detour + f_in[si] + f_out[si] - direct)
                if visits + 1 < ub:
                    for ui in range(n_sta):
                        arrive = charge - rate * f_in[ui]
                        if arrive < 0.0:
                            continue
                        hop_row = sta_sta[ui]
                        for wi in range(n_sta):
                            if wi == ui:
                                continue
                            if full - rate * hop_row[wi] < 0.0:
                                continue
                            onward = full - rate * f_out[wi]
                            if onward < 0.0:
                                continue
                            assign[g] = (stations[ui], stations[wi])
                            descend(g + 1, visits + 2, onward,
                                    detour + f_in[ui] + hop_row[wi]
                                    + f_out[wi] - direct)
            assign[g] = None

        descend(0, 0, full, 0.0)
        examined_total += examined
        if best[0] is None:
            return ChargingQueryResult(False, None, None, examined_total)
        slots_out.append(tuple(best[1]))
        detour_total += best[0]

    return ChargingQueryResult(
        True, ChargingPlan(tuple(slots_out)), detour_total, examined_total,
        surrogate_total)
