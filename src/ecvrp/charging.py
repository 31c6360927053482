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
the options of each gap: a battery relaxation gives lower bounds on what
the rest of a route can add to the detour, two tables built once per
route in O((lb + 2) * n) (_route_bounds) from the least detour of the
stops the search can take at each gap.  Between two stops the relaxation
charges the direct arcs and, at both ends, the node's shortest leg to any
station, so a stop leaves with at most a full battery less its nearest
leg, and the next one lies within a window of gaps (_reach_tops).  One
table bounds any stop at a gap, the other what the route adds after a
stop, from which the bound of a single stop or of a pair there is summed
when the search tries one.  The stops at a gap are cut when the
partial detour plus their bound cannot beat the best plan found.  A gap's
list of single stops and of station pairs is built the first time the
search tries a stop there.  The search keeps its open work on one list,
not in recursive calls, so no stop count meets Python's recursion limit,
and it walks each run of gaps without a stop in one loop.  Each test is
made when its item is popped, against a best that only falls, so the
bound only cuts subtrees without a better leaf and the result is that of
the unpruned search, bit for bit.  The bound cuts nothing before a first
leaf, so a route whose search finds none within _REACH_GATE walks is
handed to an exact forward pass (_reaches_end), which ends the search
when no plan exists.

Only solve_se is metered: it runs during search, where the paper's budget
counts every arc read.  solve_exhaustive runs after search, outside that
budget, and never charges one.

Both bound the number of station visits on route v to [lb_v, lb_v + 1]
where lb_v = max(0, ceil(route_length / full_charge_range) - 1), the
fewest stops any plan can make: a charge that reaches exactly 0 is
feasible, so a route exactly k ranges long needs k - 1.  Plans needing
more visits than that are reported infeasible, mirroring the model
assumption that at most two consecutive stops ever suffice.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .instance import DistanceOracle, InstanceSpec
from .solution import Slot, depot_walk


# walks a route's search makes without a leaf before the reach pass decides
# whether the route has a plan at all
_REACH_GATE = 64
# the kinds of solve_exhaustive's work items
_WALK, _SINGLES, _PAIRS = range(3)
# floats _increments' pair temporary may hold, unless one first station's
# block alone is larger
_PAIR_BLOCK = 1 << 16


class BudgetExhausted(RuntimeError):
    """Raised by solve_se when its oracle's budget runs out mid-call."""


def build_best_station_table(inst: InstanceSpec,
                             oracle: DistanceOracle) -> tuple:
    """The best detour station of inst, as (n+1) x (n+1) nested tuples:
    table[i][j] is the station s whose detour path d(i,s) + d(s,j) is
    shortest, for every ordered pair of non-charging nodes, and -1 when
    the instance has no station.

    Ties break toward the lowest station id, so results are reproducible.
    Construction is not metered: it computes the node-to-station block
    with oracle.arcs, so it never builds the oracle's array, and the table
    is immutable instance data shared across runs, like the distances
    themselves.
    """
    nc = 1 + inst.num_customers
    node_to_station = oracle.arcs(np.arange(nc)[:, None],
                                  np.arange(nc, inst.pz))
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
    rounded up, less one, and at least 0.  With s stops a route drives s +
    1 legs of at most one range each, so s >= ceil(length / range) - 1,
    and a route exactly k ranges long needs k - 1 stops.  A ratio that
    overflows is capped at 2**53, far beyond any route's gaps, so such a
    route stays infeasible."""
    visits = route_cost * inst.consumption_rate / inst.battery_capacity
    return min(max(0, math.ceil(min(visits, 2.0 ** 54)) - 1), 2 ** 53)


@dataclass(frozen=True)
class ChargingQueryResult:
    feasible: bool
    # per route, one slot per gap (route len + 1); None when infeasible
    plan: tuple[tuple[Slot, ...], ...] | None
    detour_cost: float | None
    # how many times solve_exhaustive's search replaced its best plan,
    # summed over routes; 0 from solve_se
    enumeration_count: int = 0
    surrogate: float = 0.0   # direct route cost summed from the arcs read
    # index in routes of the route solve_exhaustive found no plan for
    failed_route: int | None = None


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
    C(n, lb+1) subset walks.

    For a fixed instance and table a route's result depends only on its
    customer sequence.  memo caches results (_price_route) by route, as a
    tuple: a route found there is not computed again, and one that is
    gets stored.  Totals are still summed route by route in plan order,
    so a cached result changes no bit of the return value.  Pass the same
    dict to successive calls on one instance and table, and empty it to
    bound it; without one, every route is computed.

    It charges the oracle's budget 3 arcs per gap (direct arc and both
    station legs), for cached routes too, and raises BudgetExhausted
    before a gap once that budget is exceeded.  A route's gaps are
    charged in one step, after one check of the budget (one clock read):
    with count c below the arc limit M, the gaps before the limit are the
    first ceil((M - c) / 3), so the count and the gap where
    BudgetExhausted is raised are those of checking before every gap.
    """
    budget = oracle.budget
    limit = budget.max_arc_accesses
    if memo is None:
        memo = {}

    slots_out: list[tuple[Slot, ...]] = []
    detour_total = 0.0
    surrogate_total = 0.0
    feasible = True
    for route in routes:
        if not route:
            slots_out.append((None,))
            continue
        if budget.exceeded():
            raise BudgetExhausted
        gaps = len(route) + 1
        if limit is not None:
            room = (limit - budget.arc_access_count + 2) // 3
            if room < gaps:
                budget.arc_access_count += 3 * room
                raise BudgetExhausted
        budget.arc_access_count += 3 * gaps
        key = tuple(route)
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = _price_route(key, inst, oracle.matrix, table)
        route_cost, detour, slots = entry
        surrogate_total += route_cost
        if slots is None:
            feasible = False
            break
        slots_out.append(slots)
        detour_total += detour

    if not feasible:
        return ChargingQueryResult(False, None, None)
    return ChargingQueryResult(True, tuple(slots_out), detour_total,
                               surrogate=surrogate_total)


def _price_route(route: tuple, inst: InstanceSpec, matrix,
                 table: tuple) -> tuple:
    """solve_se's result for one non-empty route: (route cost, detour,
    slots), with detour and slots None when no subset is feasible."""
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
    best = _best_gap_subset(directs, legs_in, legs_out, lb,
                            inst.consumption_rate, inst.battery_capacity)
    if best is None:
        return route_cost, None, None
    best_f, best_combo = best
    chosen = set(best_combo)
    return route_cost, best_f, tuple(
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

    A layer is grown in one pass: every label of every state goes, with
    its value extended, into the bucket of each next stop the state
    reaches.  Each bucket is then sorted once, and only the labels it
    keeps build their prefix tuples.  All prefixes of one layer have the
    same length, so sorting (value, prefix) breaks ties as sorting (value,
    prefix + (p,)) would.  The last layer builds only stops from which the
    depot is reachable, but it keeps its window too: the last stop's three
    additions can round two labels of one state to the same final detour,
    and then the lexicographically first prefix, not the state's first
    label, must win the tie.
    """
    n = len(directs)
    top = lb + 1
    if lb > n:
        return None

    # the products the reach loop reads, each computed once
    rate_in = [rate * leg for leg in legs_in]
    rate_directs = [rate * leg for leg in directs]
    reach = []
    for q in range(-1, n):
        charge = full if q < 0 else full - rate * legs_out[q]
        nxt = []
        if charge >= 0.0:
            for p in range(q + 1, n):
                if charge - rate_in[p] >= 0.0:
                    nxt.append(p)
                charge -= rate_directs[p]
                if charge < 0.0:
                    break
            else:
                nxt.append(n)
        reach.append(nxt)
    # ends[q + 1]: the depot is reachable from stop q
    ends = [bool(nxt) and nxt[-1] == n for nxt in reach]

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
            finals = [cands[0] for q, cands in layer.items() if ends[q + 1]]
            if finals:
                size_best = min(finals)
                if best is None or size_best[0] < best[0]:
                    best = size_best
        if k == top:
            break
        # three additions per remaining stop, plus slack for the rounding
        # of the window test itself
        window = (3 * (top - k - 1) + 2) * ulp
        # stops still needed after the next one leave it at most pmax
        pmax = n - 1 - max(lb - k - 1, 0)
        last = k == top - 1          # the layer only the finals read
        buckets: dict[int, list] = {}
        for q, cands in layer.items():
            for p in reach[q + 1]:
                if p > pmax:
                    break
                if last and not ends[p + 1]:
                    continue
                bucket = buckets.get(p)
                if bucket is None:
                    bucket = buckets[p] = []
                for v, combo in cands:
                    # same association as solve_exhaustive, so the plans
                    # both can return cost bit-identical detours
                    bucket.append(
                        (v + legs_in[p] + legs_out[p] - directs[p], combo))
        # each stop keeps its distinct values within the window of its least
        layer = {}
        for p, bucket in buckets.items():
            bucket.sort()
            limit = bucket[0][0] + window
            kept = []
            prev = None
            for value, combo in bucket:
                if value > limit:
                    break
                if value != prev:
                    kept.append((value, combo + (p,)))
                    prev = value
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

    It is a branch-and-bound: the single stops (or the pairs) at a gap are
    tried only when the partial detour plus a lower bound on what such a
    stop and the rest of the route add is < the best detour found, and
    each stop only when its own partial detour is.  The bounds are
    _route_bounds' battery relaxation, in which a stop leaves node k with
    at most full - rate * near[k] and the next stop at gap j needs a leg in
    of at least near[j], near[u] being node u's shortest leg to any
    station, whichever stations the stops take.  Cutting a subtree that
    holds no leaf < best cannot change the result: best only decreases, so
    none of its leaves would ever have replaced the best plan, and the
    other leaves are visited in the same order with the same floats.  So
    the slots, the detour and surrogate bits and enumeration_count are
    those of the plain depth-first search
    (tests/helpers.solve_exhaustive_dfs).

    The search pops items (kind, g, v, charge, detour, path) from the end
    of one work list; path links the stops made as (gap, slot, earlier
    path), and the best leaf's path gives the route's slots.  A walk item
    drives on from gap g with no stop while the charge lasts, one loop
    step per gap (charge -= rate * direct, as the plain search steps), and
    queues a singles item at each gap k where detour + bound_rows[v][k] <
    best, the deepest on top; reaching the end with v >= lb is a leaf.  A
    singles item queues the gap's pairs item, then its single stops as
    walk items, the last station first; a pairs item queues its pairs the
    same way.  A singles item tries its stops when detour + (inc1[k] +
    after_rows[v + 1][k + 1] - margin) < best, and a pairs item, at its
    push and at its pop, when detour + (inc2[k] + after_rows[v + 2][k + 1]
    - margin) < best.  So the leaves are the plain search's in its order:
    while a walk runs, best, detour and v are fixed, and bound_rows[v][k]
    is exactly the smaller of those two sums, the same floats in the same
    order.  Each test a recursive form would make before a call is made
    when its item is popped, against the same best, and a push-time test
    only drops items whose pop-time test would fail too, as best only
    falls.  Only walk items are skipped on detour >= best: an increment
    can round below 0.

    Before its search each route builds only its windows (_reach_tops, in
    O(n)) and the two bound tables, from its stretch of the plan's
    increments and nearest legs (_increments, built once per call), in
    O((lb + 2) * n) (_route_bounds: the rows for ub visits in closed form,
    the others by a sliding minimum).  The option lists of a gap, its
    single stops (gap_singles) and its station pairs (gap_pairs), are
    built the first time the search or the reach pass asks for them
    (_gap_singles, _gap_pairs), and most gaps never see one.

    The bound cuts nothing while best is inf, so a route with no plan
    would be searched to the last subtree.  When a route's search makes
    its _REACH_GATE-th walk without a leaf, _reaches_end decides in one
    forward pass whether any plan of lb..ub visits reaches the route's
    end.  If none does, the search stops and the route is infeasible: it
    had no leaf to keep.  If one does, the search goes on unchanged (the
    pass only builds option lists through the search's own builders),
    so the result is that of the search without the pass, bit for bit.
    failed_route names the first route with no plan.

    The bound is compared in floats, so it carries two allowances for
    rounding, both multiples of an ulp (n gaps, R the route length):

    Detour margin.  Let S (scale) be R plus ub times the longest hop plus
    twice the longest leg between the route and a station, and u = ulp(2
    S).  Every partial detour lies within +-S, so every float operation on
    a detour rounds by at most u / 2.  Below a node at most ub visits
    remain, each adding at most 3 operations to the search's sum, so a
    leaf's float detour is at least the node's plus the exact increments,
    less 1.5 ub u.  The table's value overstates the exact least increments
    by at most 2 u per stop (3 operations for an increment and 1 to add
    it), 2 ub u in all.  Subtracting the margin and adding the node's
    detour round by u / 2 each.  With a margin of (4 ub + 2) u >= 3.5 ub u
    + u, detour + bound >= best therefore implies that no leaf below the
    node has a detour < best.

    Reach slack.  Only _reach_tops uses it: the search itself keeps no
    window.  A stop that arrives at node k leaves it with c = full - rate *
    b, b >= near[k] the leg from its (second) station.  The search makes
    the next stop at gap j >= k only if each of its m = j - k steps c -=
    rate * d leaves c >= 0 and then c - rate * a >= 0, a >= near[j] the leg
    to the stop's (first) station; it reaches the end only if all m = n - k
    steps leave c >= 0.  Every charge and every product the passing tests
    hold lies in [0, full], so each of those 2 m + 3 operations rounds by
    at most U / 2, U = ulp(full), and the exact legs satisfy rate (b +
    sum(d) + a) <= full + (m + 1.5) U, or rate (b + sum(d)) <= full + (m +
    1) U for the end.  U / rate <= 2 ulp(span), span = full / rate, which
    itself rounds by ulp(span) / 2, so b + sum(d) + a <= span + (2 m + 3.5)
    ulp(span).  Each prefix rounds by at most ulp(R) / 2 per addition, so
    prefix[j] - prefix[k] overstates sum(d) by at most (j + k) ulp(R) / 2.
    With Q = ulp(2 (S + span)), ulp(R) and ulp(span) are at most Q / 2, and
    so prefix[j] + near[j] <= prefix[k] - near[k] + span + (m + 1.75 + (j +
    k) / 4) Q, where m + (j + k) / 4 = 1.25 j - 0.75 k <= 1.25 n.  The
    window test adds near[j] (Q / 4, as the sum stays within S), subtracts
    near[k] (Q / 4) and adds span + slack (Q / 2), which itself rounds by
    Q / 2.  A slack of (1.25 n + 3.25) Q = (5 n + 13) Q / 4 covers all of
    it.

    It charges no budget and computes two blocks with oracle.arcs, so it
    never builds the oracle's array: the direct arcs of the plan's
    depot-closed walk (depot_walk), and the station legs of every walk
    node, of which each route reads its own stretch, followed by the hops
    between stations.
    """
    rate = inst.consumption_rate
    full = inst.battery_capacity
    span = full / rate
    stations = list(inst.stations)
    first = 1 + inst.num_customers       # stations are the last node ids
    station_ids = np.arange(first, inst.pz)
    walk = np.array(depot_walk(routes))
    # One block, one call: the station legs of every walk node, then the
    # hops between stations.  Distances are exactly symmetric, so node u's
    # row holds both the legs out of u and the legs into u: gap g leaves
    # through row g and arrives through row g + 1.
    legs = oracle.arcs(np.concatenate((walk, station_ids))[:, None],
                       station_ids)
    leg_block, sta_sta = legs[:len(walk)], legs[len(walk):]
    # the hop of every ordered pair of distinct stations a full battery
    # covers, inf for the others
    covered = full - rate * sta_sta >= 0.0
    pair_hops = np.where(covered & ~np.eye(len(stations), dtype=bool),
                         sta_sta, math.inf)
    # per first station, the second stations a full battery reaches
    hops = [[(wi, (stations[ui], stations[wi]), hop)
             for wi, hop in enumerate(row) if hop < math.inf]
            for ui, row in enumerate(pair_hops.tolist())]
    hop_max = float(sta_sta.max(initial=0.0))
    direct_block = oracle.arcs(walk[:-1], walk[1:])
    direct_all, rows_all = direct_block.tolist(), leg_block.tolist()
    inc1_all, inc2_all, leg_maxes, near_all = _increments(
        leg_block, direct_block, pair_hops, rate, full)
    start = 0

    slots_out: list[tuple[Slot, ...]] = []
    detour_total = 0.0
    surrogate_total = 0.0
    examined_total = 0
    for index, route in enumerate(routes):
        if not route:
            slots_out.append((None,))
            continue
        n_gaps = len(route) + 1
        stop = start + n_gaps
        directs = direct_all[start:stop]
        rows = rows_all[start:stop + 1]
        prefix = [0.0]
        for d in directs:
            prefix.append(prefix[-1] + d)
        route_cost = prefix[-1]
        surrogate_total += route_cost
        lb = visits_lower_bound(route_cost, inst)
        ub = lb + 1
        if lb > 2 * n_gaps:
            return ChargingQueryResult(False, None, None, examined_total,
                                       failed_route=index)

        # The charge-independent half of every option, per gap, is built
        # the first time the search or the reach pass asks for it.
        rate_directs = [rate * d for d in directs]
        singles: list = [None] * n_gaps
        pairs: list = [None] * n_gaps

        def gap_singles(g: int) -> list:
            if singles[g] is None:
                singles[g] = _gap_singles(stations, rows[g], rows[g + 1],
                                          rate, full)
            return singles[g]

        def gap_pairs(g: int) -> list:
            if pairs[g] is None:
                pairs[g] = _gap_pairs(rows[g], rows[g + 1], hops, rate, full)
            return pairs[g]

        scale = route_cost + ub * (2.0 * max(leg_maxes[start:stop + 1])
                                   + hop_max)
        margin = (4 * ub + 2) * math.ulp(2.0 * scale)
        inc1, inc2 = inc1_all[start:stop], inc2_all[start:stop]
        tops = _reach_tops(prefix, near_all[start:stop + 1], span, scale)
        bound_rows, after_rows = _route_bounds(inc1, inc2, tops, lb, ub,
                                               margin)
        start = stop

        best = math.inf
        best_path = None
        examined = 0
        walks = 0
        work = [(_WALK, 0, 0, full, 0.0, None)]
        while work:
            kind, g, visits, charge, detour, path = work.pop()
            if kind == _WALK:
                if detour >= best:
                    continue
                walks += 1
                if walks == _REACH_GATE and best == math.inf and not \
                        _reaches_end(rate_directs, gap_singles, gap_pairs,
                                     full, lb, ub):
                    break
                # Drive on from gap g with no further stop while the charge
                # lasts, queueing the gaps where a stop may still beat best,
                # so the deepest is tried first.
                bound_row = bound_rows[visits]
                while g < n_gaps:
                    if detour + bound_row[g] < best:
                        work.append((_SINGLES, g, visits, charge, detour,
                                     path))
                    charge -= rate_directs[g]
                    if charge < 0.0:
                        break
                    g += 1
                else:
                    if visits >= lb:
                        examined += 1
                        best = detour
                        best_path = path
            elif kind == _SINGLES:
                # the gap's pairs come after its single stops' subtrees
                if detour + (inc2[g] + after_rows[visits + 2][g + 1]
                             - margin) < best:
                    work.append((_PAIRS, g, visits, charge, detour, path))
                if detour + (inc1[g] + after_rows[visits + 1][g + 1]
                             - margin) < best:
                    direct = directs[g]
                    for station, a, ra, b, onward in reversed(gap_singles(g)):
                        if charge - ra >= 0.0:
                            value = detour + a + b - direct
                            if value < best:
                                work.append((_WALK, g + 1, visits + 1, onward,
                                             value, (g, station, path)))
            elif detour + (inc2[g] + after_rows[visits + 2][g + 1]
                           - margin) < best:   # a pairs item
                direct = directs[g]
                for ra, a, seconds in reversed(gap_pairs(g)):
                    if charge - ra >= 0.0:
                        for slot, hop, b, onward in reversed(seconds):
                            value = detour + a + hop + b - direct
                            if value < best:
                                work.append((_WALK, g + 1, visits + 2, onward,
                                             value, (g, slot, path)))
        examined_total += examined
        if best == math.inf:
            return ChargingQueryResult(False, None, None, examined_total,
                                       failed_route=index)
        assign: list[Slot] = [None] * n_gaps
        while best_path is not None:
            g, slot, best_path = best_path
            assign[g] = slot
        slots_out.append(tuple(assign))
        detour_total += best

    return ChargingQueryResult(True, tuple(slots_out), detour_total,
                               examined_total, surrogate_total)


def _increments(rows, directs, pair_hops, rate: float, full: float):
    """(inc1, inc2, leg_maxes, near) for solve_exhaustive's bounds, from
    the station legs rows[u] of each node u of a walk, its direct arcs and
    the station hops pair_hops (inf where _gap_pairs takes no pair).
    inc1[g] is the least (leg in + leg out) - direct over the single stops
    _gap_singles keeps at gap g, and inc2[g] the least ((leg in + hop) +
    leg out) - direct over the station pairs _gap_pairs keeps, each inf
    where the gap has no such stop: lower bounds on the detour a stop the
    search can take adds there.  A route with ub < 2 gets no pair row from
    _route_bounds, whatever inc2 holds.  leg_maxes[u] is node u's longest
    leg, 0.0 with no station, and near[u] its shortest, inf with no
    station.

    Built once per plan as arrays over its whole walk (np.asarray, so an
    array block is not copied), the pair sums one block of first stations
    at a time, so the temporary holds about _PAIR_BLOCK floats whatever the
    station count.  Each elementwise operation rounds as its Python float
    form does, and min and max are exact, so every value keeps its bits."""
    legs = np.asarray(rows)
    direct = np.asarray(directs)
    legs_in = legs[:-1]
    # a station whose onward leg a full battery cannot cover is no stop
    legs_out = np.where(full - rate * legs[1:] >= 0.0, legs[1:], math.inf)
    inc1 = np.min(legs_in + legs_out, axis=1, initial=math.inf) - direct
    step = max(1, _PAIR_BLOCK // max(legs.size, 1))
    least = reduce(np.minimum, (
        ((legs_in[:, u:u + step, None] + pair_hops[u:u + step])
         + legs_out[:, None, :]).min(axis=(1, 2))
        for u in range(0, legs.shape[1], step)),
        np.full(len(direct), math.inf))
    return inc1.tolist(), (least - direct).tolist(), \
        legs.max(axis=1, initial=0.0).tolist(), \
        legs.min(axis=1, initial=math.inf).tolist()


def _reaches_end(rate_directs, gap_singles, gap_pairs, full: float,
                 lb: int, ub: int) -> bool:
    """Whether some charging plan of lb..ub visits takes a route to its
    end, decided in one forward pass with the search's own float steps.

    reach[v] is the highest charge at the current node with v visits made
    (below 0 when no plan gets there).  Gap g moves it on by driving
    through (charge - rate_directs[g] >= 0), by a single stop (charge -
    rate * leg in >= 0, then leave with its onward charge) or by a station
    pair (the same test on the first station's leg in, then leave with the
    best onward charge of its second stations); gap_singles(g) and
    gap_pairs(g) give gap g's lists as _gap_singles and _gap_pairs build
    them.  A stop leaves with a charge that does not depend on the charge
    it came with, and fl(c - x) is monotone in c, so a higher charge at the
    same (gap, visits) passes every test a lower one passes: keeping only
    the highest is exact.  O(n * ub * S) per route for n gaps and S stations,
    plus the option lists it builds."""
    reach = [full] + [-math.inf] * ub
    for g, step in enumerate(rate_directs):
        nxt = [charge - step for charge in reach]
        singles = gap_singles(g)
        tops = [(ra, max(second[3] for second in seconds))
                for ra, _, seconds in gap_pairs(g)]
        for v, charge in enumerate(reach):
            if charge < 0.0:
                continue
            if v < ub:
                for _, _, ra, _, onward in singles:
                    if charge - ra >= 0.0 and onward > nxt[v + 1]:
                        nxt[v + 1] = onward
            if v + 1 < ub:
                for ra, onward in tops:
                    if charge - ra >= 0.0 and onward > nxt[v + 2]:
                        nxt[v + 2] = onward
        if max(nxt) < 0.0:
            return False
        reach = nxt
    return max(reach[lb:]) >= 0.0


def _gap_singles(stations, f_in, f_out, rate: float, full: float) -> list:
    """The single stops of one gap in station order, as (station, leg in,
    rate * leg in, leg out, charge on leaving), keeping those whose onward
    leg a full battery covers: the others fail at every charge."""
    return [(s, a, rate * a, b, onward)
            for s, a, b in zip(stations, f_in, f_out)
            if (onward := full - rate * b) >= 0.0]


def _gap_pairs(f_in, f_out, hops, rate: float, full: float) -> list:
    """The station pairs of one gap in lexicographic order, grouped by
    first station as (rate * leg in, leg in, [(slot, hop, leg out, charge
    on leaving)]), keeping those whose hop and onward leg a full battery
    covers."""
    onward = [full - rate * b for b in f_out]
    out = []
    for ui, seconds in enumerate(hops):
        kept = [(slot, hop, f_out[wi], onward[wi])
                for wi, slot, hop in seconds if onward[wi] >= 0.0]
        if kept:
            out.append((rate * f_in[ui], f_in[ui], kept))
    return out


def _reach_tops(prefix, near, span: float, scale: float) -> list[int]:
    """For each node k of a route with direct-arc prefix sums prefix, the
    window of gaps where the stop after one that arrives at node k can lie:
    k .. top[k] - 1, where index n_gaps stands for the end of the route.

    span is a full battery's driving range and near[u] node u's shortest
    station leg.  A stop leaves node k with at most span - near[k] of range,
    and a stop at gap j needs a leg in of at least near[j].  So a next stop
    at gap j needs prefix[j] + near[j] <= limit[k] = prefix[k] - near[k] +
    span + slack, and the end needs prefix[n_gaps] <= limit[k].  The slack,
    derived in solve_exhaustive from the route's detour scale, covers the
    rounding of these sums against the search's battery steps.
    top[k] is one past the last index that passes, widened so that every
    window is non-empty and the tops never fall: _window_min needs both,
    and a wider window only lowers a bound.  One pass builds the suffix
    minima of the keys, and one moves the top forward over them."""
    n = len(prefix) - 1
    reach = span + (5 * n + 13) * math.ulp(2.0 * (scale + span)) / 4
    # least[j]: the smallest key of a next stop at gap j or later, or the end
    low = prefix[n]
    least = [low] * (n + 1)
    for j in range(n - 1, -1, -1):
        key = prefix[j] + near[j]
        if key < low:
            low = key
        least[j] = low
    tops = []
    top = 0
    for k in range(n + 1):
        if top <= k:
            top = k + 1
        limit = prefix[k] - near[k] + reach
        while top <= n and least[top] <= limit:
            top += 1
        tops.append(top)
    return tops


def _route_bounds(inc1, inc2, tops, lb: int, ub: int, margin: float):
    """Lower bounds for solve_exhaustive's search on one route.

    inc1[g] and inc2[g] are lower bounds on the detour a single station or
    a station pair adds at gap g, tops the windows of _reach_tops and
    margin the detour margin derived in solve_exhaustive.

    Returns (bound_rows, after_rows).  after_rows[w][k], for w = 1 .. ub,
    bounds from below what the rest of the route adds to the detour after
    a stop that leaves node k with w visits made; row ub + 1 is inf, as no
    plan makes that many visits, and row 0 is None, as no stop leaves
    with 0.  With v visits made, inc1[k] + after_rows[v + 1][k + 1] - margin
    bounds what a single station at gap k and the rest of the route add,
    and inc2[k] + after_rows[v + 2][k + 1] - margin what a pair there and
    the rest add.  bound_rows[v][k] is the smaller of the two, with the
    same bits, or for k = n_gaps the bound for ending the route there:
    -margin once v reaches lb, inf below it.  The relaxation behind them
    charges only the direct arcs between two stops and the nearest-station
    legs at both ends of that stretch, so after a stop that leaves node k
    the next one lies within k .. tops[k] - 1, where n_gaps is the end.

    Rows are built from v = ub down: bound row v from after rows v + 1 and
    v + 2, then after row v as the least of bound row v, before the margin,
    over every window.  The rows for v = ub are closed-form: no stop may
    follow, so bound_rows[ub] is inf at every gap and -margin at the end,
    and after_rows[ub][k] is 0 if node k's window holds the end, inf if
    not.  Each other after row's window minima take O(n) (_window_min), so
    the build is O((lb + 2) * n).
    """
    n = len(inc1)
    bound_rows = [[math.inf] * n + [-margin]] * (ub + 1)
    after_rows = [None] * ub + [[0.0 if top > n else math.inf
                                 for top in tops], [math.inf] * (n + 1)]
    for v in range(ub - 1, -1, -1):
        nxt = list(map(min, map(add, inc1, after_rows[v + 1][1:]),
                       map(add, inc2, after_rows[v + 2][1:])))
        nxt.append(0.0 if v >= lb else math.inf)
        bound_rows[v] = [x - margin for x in nxt]
        if v:
            after_rows[v] = _window_min(nxt, tops)
    return bound_rows, after_rows


def _window_min(values, top) -> list:
    """[min(values[g:top[g]]) for each g], the same floats, for windows
    whose two ends only move forward (top non-decreasing, top[g] > g), in
    O(len(values)).  window holds, in index order, the indices of the
    values that are still the least of some later window: a new value
    drops the ones strictly above it, so among equal values the first
    stays in front, the one min returns."""
    out = []
    window: deque[int] = deque()
    end = 0
    for g, stop in enumerate(top):
        while end < stop:
            x = values[end]
            while window and values[window[-1]] > x:
                window.pop()
            window.append(end)
            end += 1
        if window[0] < g:
            window.popleft()
        out.append(values[window[0]])
    return out
