"""Lower-level charging solvers for fixed routes.

Two followers are provided.  solve_se() is the cheap one used during
search: per route it chooses a set of gaps of one of the two admissible
sizes and fills every chosen gap (u, w) with the precomputed best detour
station table[u][w], a nested tuple from build_best_station_table.
Because a recharge is always full, the battery check splits into
independent legs between consecutive stops, and a dynamic program over
(stops used, last stop) finds the set in O(k * n^2) per route (n gaps,
k = lb + 1).  It returns exactly what enumerating every subset in
lexicographic order would: the same subset and the same detour bits.
This is the single-station, full-recharge case of the fixed-route
vehicle charging problem (Montoya et al. 2017; Froger et al. 2019).
solve_exhaustive() additionally ranges over every station and every
ordered station pair per gap.  It is a depth-first branch-and-bound over
the options of each gap: a battery relaxation, in which every stop leaves
with a full battery, gives a lower bound on what the rest of a route can
add to the detour, built once per route in O((lb + 2) * n^2) (_route_bounds),
and a node is cut when its partial detour plus that bound cannot beat the
best plan found.  The bound only cuts subtrees without a better leaf, so
the result is that of the unpruned search, bit for bit.

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
from bisect import bisect_right
from dataclasses import dataclass
from operator import add

import numpy as np

from .instance import DistanceOracle, InstanceSpec
from .solution import ChargingPlan, Slot


class BudgetExhausted(RuntimeError):
    """Raised by solve_se when its oracle's budget runs out mid-call."""


def build_best_station_table(inst: InstanceSpec,
                             oracle: DistanceOracle) -> tuple:
    """The best detour station of inst, as (n+1) x (n+1) nested tuples:
    table[i][j] is the station s whose detour path d(i,s) + d(s,j) is
    shortest, for every ordered pair of non-charging nodes, and -1 when
    the instance has no station.

    Ties break toward the lowest station id, so results are reproducible.
    Construction is not metered: the table is immutable instance data
    shared across runs, like the distance matrix itself.
    """
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
    return tuple(tuple(row) for row in best_sta.tolist())


def visits_lower_bound(route_cost: float, inst: InstanceSpec) -> int:
    """Minimum station visits needed by a route of surrogate cost
    route_cost: its length divided by the full-charge driving range,
    rounded down.  A ratio that overflows is capped at 2**53, far beyond
    any route's gaps, so such a route stays infeasible."""
    visits = route_cost * inst.consumption_rate / inst.battery_capacity
    return math.floor(min(visits, 2.0 ** 53))


@dataclass(frozen=True)
class ChargingQueryResult:
    feasible: bool
    plan: ChargingPlan | None
    detour_cost: float | None
    enumeration_count: int
    surrogate: float = 0.0   # direct route cost summed from the arcs read

    def __bool__(self) -> bool:
        return self.feasible


def solve_se(routes, inst: InstanceSpec, oracle: DistanceOracle,
             table: tuple, memo: dict | None = None
             ) -> ChargingQueryResult:
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

    For a fixed instance and table a route's result depends only on its
    customer sequence.  memo maps the routes of the previous call, as
    tuples, to their results (_price_route); a route found there is not
    priced again, and the call leaves in memo the routes it priced or
    reused, and nothing else.  Totals are still summed route by route in
    plan order, so a reused result changes no bit of the return value.
    Pass the same dict to successive calls on one instance and table;
    without one, every route is priced.

    It charges the oracle's budget 3 arcs per gap (direct arc and both
    station legs), for reused routes too, and raises BudgetExhausted
    before a gap once that budget is exceeded.
    """
    budget = oracle.budget
    if memo is None:
        memo = {}
    priced = {}

    slots_out: list[tuple[Slot, ...]] = []
    detour_total = 0.0
    surrogate_total = 0.0
    examined_product = 1
    feasible = True
    for route in routes:
        if not route:
            slots_out.append((None,))
            continue
        for _ in range(len(route) + 1):
            if budget.exceeded():
                raise BudgetExhausted
            budget.arc_access_count += 3
        key = tuple(route)
        entry = memo.get(key)
        if entry is None:
            entry = _price_route(key, inst, oracle.matrix, table)
        priced[key] = entry
        route_cost, size, detour, slots = entry
        surrogate_total += route_cost
        examined_product *= size
        if slots is None:
            feasible = False
            break
        slots_out.append(slots)
        detour_total += detour

    memo.clear()
    memo.update(priced)
    if not feasible:
        return ChargingQueryResult(False, None, None, examined_product)
    return ChargingQueryResult(
        True, ChargingPlan(tuple(slots_out)), detour_total, examined_product,
        surrogate_total)


def _price_route(route: tuple, inst: InstanceSpec, matrix,
                 table: tuple) -> tuple:
    """solve_se's result for one non-empty route: (route cost, C(n, lb) +
    C(n, lb + 1), detour, slots), with detour and slots None when no
    subset is feasible."""
    nodes = [0, *route, 0]
    n_gaps = len(nodes) - 1
    directs = []
    legs_in = []
    legs_out = []
    for g in range(n_gaps):
        u, w = nodes[g], nodes[g + 1]
        station = table[u][w]
        directs.append(matrix[u][w])
        if station < 0:
            # no station: infinite legs make the gap no stop option
            legs_in.append(math.inf)
            legs_out.append(math.inf)
        else:
            legs_in.append(matrix[u][station])
            legs_out.append(matrix[station][w])

    route_cost = 0.0
    for d in directs:
        route_cost += d
    lb = visits_lower_bound(route_cost, inst)
    size = math.comb(n_gaps, lb) + math.comb(n_gaps, lb + 1)
    best = _best_gap_subset(directs, legs_in, legs_out, lb,
                            inst.consumption_rate, inst.battery_capacity)
    if best is None:
        return route_cost, size, None, None
    best_f, best_combo = best
    chosen = set(best_combo)
    return route_cost, size, best_f, tuple(
        table[nodes[g]][nodes[g + 1]] if g in chosen else None
        for g in range(n_gaps))


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


def solve_exhaustive(routes, inst: InstanceSpec,
                     oracle: DistanceOracle) -> ChargingQueryResult:
    """Exhaustive follower: every gap may hold nothing, any single station,
    or any ordered pair of distinct stations, with per-route visits bounded
    to [lb, lb + 1].  Returns the global minimum-detour feasible plan.

    Per route a depth-first search goes gap by gap in option order NIL,
    then stations ascending, then pairs in lexicographic order, and a leaf
    replaces the best plan only with a strictly smaller detour, so among
    equal detours the first configuration found is kept.  Each option's
    detour is summed as detour + leg in (+ hop) + leg out - direct, the
    association solve_se uses.  enumeration_count is the number of times
    the best plan was replaced, summed over routes.

    It is a branch-and-bound: a node is cut when its partial detour plus a
    lower bound on what the rest of the route adds is >= the best detour
    found.  The bound is _route_bounds' battery relaxation, which treats
    every stop as a full recharge.  Cutting a subtree that holds no leaf
    < best cannot change the result: best only decreases, so none of its
    leaves would ever have replaced the best plan, and the other leaves
    are visited in the same order with the same floats.  So the slots,
    the detour and surrogate bits and enumeration_count are those of the
    plain depth-first search (tests/helpers.solve_exhaustive_dfs).

    The bound is compared in floats, so it carries two allowances for
    rounding, both multiples of an ulp (n gaps, R the route length):

    Reach slack.  A node at gap g with charge c looks for its next stop
    among the gaps k whose prefix sum satisfies prefix[k] <= prefix[g] +
    c / rate + slack.  The search reaches node k only if each of its
    m = k - g <= n steps c -= rate * d leaves c >= 0.  Each step rounds
    twice, by at most ulp(full) / 2 each, since the charge stays in
    [0, full].  So sum(d) <= c / rate + m ulp(full) / rate, and
    ulp(full) / rate < 2 ulp(span), span = full / rate.  Each prefix is
    off its exact value by at most n ulp(2 R) / 2, so prefix[k] -
    prefix[g] overstates sum(d) by at most n ulp(2 R).  The test rounds
    c / rate by ulp(span) / 2 and its two additions by ulp(2 (R + span))
    / 2 each.  A slack of (3 n + 2) ulp(2 (R + span)) covers all of it.

    Detour margin.  Let S be R plus ub times the longest hop plus twice
    the longest leg between the route and a station, and u = ulp(2 S).  Every partial detour lies
    within +-S, so every float operation on a detour rounds by at most
    u / 2.  Below a node at most ub visits remain, each adding at most 3
    operations to the search's sum, so a leaf's float detour is at least
    the node's plus the exact increments, less 1.5 ub u.  The table's
    value overstates the exact least increments by at most 2 u per stop
    (3 operations for an increment and 1 to add it), 2 ub u in all.
    Subtracting the margin and adding the node's detour round by u / 2
    each.  With a margin of (4 ub + 2) u >= 3.5 ub u + u, detour + bound
    >= best therefore implies that no leaf below the node has a detour
    < best.

    It reads the matrix without charging the oracle's budget.
    """
    matrix = oracle.matrix
    rate = inst.consumption_rate
    full = inst.battery_capacity
    span = full / rate
    stations = list(inst.stations)
    first = 1 + inst.num_customers       # stations are the last node ids
    sta_sta = [matrix[s][first:] for s in stations]
    # per first station, the second stations a full battery reaches
    hops = [[(wi, (stations[ui], stations[wi]), hop)
             for wi, hop in enumerate(row)
             if wi != ui and full - rate * hop >= 0.0]
            for ui, row in enumerate(sta_sta)]
    hop_min = min((h for row in hops for _, _, h in row), default=math.inf)
    hop_max = max(map(max, sta_sta), default=0.0)

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
        prefix = [0.0]
        for d in directs:
            prefix.append(prefix[-1] + d)
        route_cost = prefix[-1]
        surrogate_total += route_cost
        lb = visits_lower_bound(route_cost, inst)
        ub = lb + 1
        if lb > 2 * n_gaps:
            return ChargingQueryResult(False, None, None, examined_total)
        # the matrix is exactly symmetric: row w holds the legs into w
        legs_in = [matrix[u][first:] for u in nodes[:-1]]
        legs_out = [matrix[w][first:] for w in nodes[1:]]

        # The charge-independent half of every option.  singles[g] holds
        # (station, leg in, rate * leg in, leg out, charge on leaving) in
        # station order, for the stations whose onward leg a full battery
        # covers: the others fail at every charge.  Pairs are listed the
        # same way by _gap_pairs, the first time the search tries them at
        # a gap.
        rate_directs = [rate * d for d in directs]
        onwards = []
        singles = []
        inc1 = []
        inc2 = []
        for f_in, f_out, direct in zip(legs_in, legs_out, directs):
            onward = [full - rate * b for b in f_out]
            onwards.append(onward)
            singles.append([(s, a, rate * a, b, c) for s, a, b, c
                            in zip(stations, f_in, f_out, onward) if c >= 0.0])
            # the bounds may range over every station: that only weakens them
            inc1.append(min(map(add, f_in, f_out), default=math.inf) - direct)
            if ub >= 2:
                inc2.append(min(f_in, default=math.inf) + hop_min
                            + min(f_out, default=math.inf) - direct)
        pairs: list = [None] * n_gaps

        leg_max = max(map(max, legs_in + legs_out)) if stations else 0.0
        scale = route_cost + ub * (2.0 * leg_max + hop_max)
        reach_from, bound_rows, single_rows, pair_rows = _route_bounds(
            prefix, inc1, inc2 or [math.inf] * n_gaps, lb, ub, span, scale)

        best = math.inf
        best_assign: list[Slot] = []
        assign: list[Slot] = [None] * n_gaps
        examined = 0

        def descend(g: int, visits: int, charge: float, detour: float) -> None:
            nonlocal best, best_assign, examined
            if g == n_gaps:
                if visits >= lb:
                    examined += 1
                    best = detour
                    best_assign = assign.copy()
                return
            # the next stop lies before top, which is n_gaps + 1 when the
            # charge may reach the end of the route
            top = bisect_right(prefix, reach_from[g] + charge / rate, g)
            if detour + min(bound_rows[visits][g:top]) >= best:
                return
            after_nil = charge - rate_directs[g]
            if after_nil >= 0.0 and detour < best:
                descend(g + 1, visits, after_nil, detour)
            direct = directs[g]
            if detour + single_rows[visits][g] < best:
                for station, a, ra, b, onward in singles[g]:
                    if charge - ra >= 0.0:
                        value = detour + a + b - direct
                        if value < best:
                            assign[g] = station
                            descend(g + 1, visits + 1, onward, value)
            if detour + pair_rows[visits][g] < best:
                gap_pairs = pairs[g]
                if gap_pairs is None:
                    gap_pairs = pairs[g] = _gap_pairs(
                        legs_in[g], legs_out[g], onwards[g], hops, rate)
                for ra, a, seconds in gap_pairs:
                    if charge - ra >= 0.0:
                        for slot, hop, b, onward in seconds:
                            value = detour + a + hop + b - direct
                            if value < best:
                                assign[g] = slot
                                descend(g + 1, visits + 2, onward, value)
            assign[g] = None

        descend(0, 0, full, 0.0)
        # descend holds itself through its closure cell: dropping the name
        # empties the cell, so the route's tables go now, not at the next
        # cyclic collection
        del descend
        examined_total += examined
        if best == math.inf:
            return ChargingQueryResult(False, None, None, examined_total)
        slots_out.append(tuple(best_assign))
        detour_total += best

    return ChargingQueryResult(
        True, ChargingPlan(tuple(slots_out)), detour_total, examined_total,
        surrogate_total)


def _gap_pairs(f_in, f_out, onward, hops, rate: float) -> list:
    """The station pairs of one gap in lexicographic order, grouped by
    first station as (rate * leg in, leg in, [(slot, hop, leg out, charge
    on leaving)]), keeping those whose hop and onward leg a full battery
    covers."""
    out = []
    for ui, seconds in enumerate(hops):
        kept = [(slot, hop, f_out[wi], onward[wi])
                for wi, slot, hop in seconds if onward[wi] >= 0.0]
        if kept:
            out.append((rate * f_in[ui], f_in[ui], kept))
    return out


def _route_bounds(prefix, inc1, inc2, lb: int, ub: int, span: float,
                  scale: float):
    """Lower bounds for solve_exhaustive's search on one route.

    prefix[k] is the float sum of the first k direct arcs, inc1[g] and
    inc2[g] lower bounds on the detour a single station or a station pair
    adds at gap g, span the driving range of a full battery and scale a
    bound on every partial detour.

    Returns (reach_from, bound_rows, single_rows, pair_rows).  A search
    node at gap g with charge c can make its next stop only at gaps
    g .. top - 1, top = bisect_right(prefix, reach_from[g] + c / rate, g),
    where index n_gaps stands for the end of the route.  With v visits
    made, single_rows[v][k] and pair_rows[v][k] bound from below what the
    rest of the route adds to the detour when the next stop is a single
    station or a pair at gap k, and bound_rows[v][k] is the smaller of the
    two, or for k = n_gaps the bound for ending the route there.  The relaxation
    behind them lets every stop leave with a full battery and ignores the
    legs to and from the station when checking the charge.  The reach
    slack and the detour margin are derived in solve_exhaustive.
    """
    n = len(inc1)
    slack = (3 * n + 2) * math.ulp(2.0 * (prefix[-1] + span))
    reach_from = [p + slack for p in prefix]
    margin = (4 * ub + 2) * math.ulp(2.0 * scale)
    full_top = [bisect_right(prefix, reach_from[g] + span, g)
                for g in range(n + 1)]

    # after1[k] and after2[k]: the least detour the rest of the route adds
    # after a stop that leaves node k with v + 1 or v + 2 visits made
    inf_row = [math.inf] * (n + 1)
    after1 = after2 = inf_row
    bound_rows = [inf_row] * (ub + 1)
    single_rows = [inf_row] * (ub + 1)
    pair_rows = [inf_row] * (ub + 1)
    for v in range(ub, -1, -1):
        singles = list(map(add, inc1, after1[1:]))
        pairs = list(map(add, inc2, after2[1:]))
        nxt = list(map(min, singles, pairs))
        nxt.append(0.0 if v >= lb else math.inf)
        single_rows[v] = [x - margin for x in singles]
        pair_rows[v] = [x - margin for x in pairs]
        bound_rows[v] = [x - margin for x in nxt]
        after = [min(nxt[g:full_top[g]]) for g in range(n + 1)]
        after1, after2 = after, after1
    return reach_from, bound_rows, single_rows, pair_rows
