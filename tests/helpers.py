"""Shared test utilities: random plan generators and full-recompute oracles."""

import math
from itertools import combinations, permutations
from operator import add

import numpy as np

from ecvrp.analysis import _partitions_upto, brute_force_optimum
from ecvrp.charging import (
    BudgetExhausted,
    ChargingQueryResult,
    _gap_pairs,
    _gap_singles,
    build_best_station_table,
    solve_se,
    visits_lower_bound,
)
from ecvrp.instance import (
    _HEADER_KEYS,
    _SECTIONS,
    DistanceOracle,
    DuplicateNodeId,
    InstanceError,
    InstanceSpec,
    MissingSection,
    _finite_header,
    _int_header,
)
from ecvrp.moves import ALL_OPERATORS, INTRA_ROUTE, Move, enumerate_positions
from ecvrp.search import (
    ALL,
    IMPROVE_EPS,
    M2,
    M4,
    M6,
    M7,
    M8,
    InstanceInfeasible,
)
from ecvrp.solution import RoutingPlan

from conftest import make_instance


def full_surrogate(routes, inst):
    """Budget-free recomputation of the surrogate cost from coordinates."""
    total = 0.0
    for route in routes:
        prev = 0
        for node in list(route) + [0]:
            if route:
                total += math.dist(inst.coords[prev], inst.coords[node])
                prev = node
    return total


def random_partition_plan(rng, inst, n_routes=None):
    """A random customer partition into exactly fleet_size route slots.

    Capacity is ignored; useful for operators, which only promise to
    preserve the partition.
    """
    customers = list(inst.customers)
    rng.shuffle(customers)
    slots = n_routes if n_routes is not None else inst.fleet_size
    routes = [[] for _ in range(slots)]
    for c in customers:
        routes[rng.randrange(slots)].append(c)
    return routes


def random_feasible_plan(rng, inst, max_tries=200):
    """A capacity-feasible random partition into at most fleet_size routes."""
    demands, cap = inst.cargo_units
    for _ in range(max_tries):
        customers = list(inst.customers)
        rng.shuffle(customers)
        routes = [[] for _ in range(inst.fleet_size)]
        loads = [0] * inst.fleet_size
        ok = True
        for c in customers:
            fits = [v for v in range(inst.fleet_size)
                    if loads[v] + demands[c] <= cap]
            if not fits:
                ok = False
                break
            v = fits[rng.randrange(len(fits))]
            routes[v].append(c)
            loads[v] += demands[c]
        if ok:
            return routes
    raise AssertionError("could not build a capacity-feasible plan")


def disc_point(rng, radius):
    while True:
        x, y = rng.uniform(-radius, radius), rng.uniform(-radius, radius)
        if x * x + y * y <= radius * radius:
            return (x, y)


def x143_like(rng):
    """142 customers and 8 stations uniform in a 500 x 500 square with the
    depot at its corner; battery 700: routes need 0 to 3 recharges."""
    customers = [(rng.uniform(0, 500), rng.uniform(0, 500))
                 for _ in range(142)]
    stations = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(8)]
    return make_instance(customers=customers, stations=stations,
                         battery=700, rate=1.0, fleet=7)


def e22_like(rng):
    """21 customers and 8 stations in discs around the depot; battery 94
    at rate 1.2."""
    customers = [disc_point(rng, 30) for _ in range(21)]
    stations = [disc_point(rng, 26) for _ in range(8)]
    return make_instance(customers=customers, stations=stations,
                         battery=94, rate=1.2, fleet=4)


def random_tiny_instance(rng):
    """Small instance with a gently binding battery: every out-and-back fits
    in one charge, longer routes need single-station stops."""
    spread = rng.uniform(40, 60)
    battery = rng.uniform(2.3, 3.0) * spread
    n = rng.randrange(3, 7)
    customers = [disc_point(rng, spread) for _ in range(n)]
    angle = rng.uniform(0, 2 * math.pi)
    stations = []
    for k in range(2):
        rho = rng.uniform(0.45, 0.75) * spread
        theta = angle + k * math.pi + rng.uniform(-0.6, 0.6)
        stations.append((rho * math.cos(theta), rho * math.sin(theta)))
    demands = [rng.randrange(1, 4) for _ in range(n)]
    cap = max(demands) + rng.randrange(2, 5)
    return make_instance(customers=customers, stations=stations,
                         demands=demands, capacity=cap,
                         battery=battery, rate=1.0, fleet=3)


def route_length(order, inst):
    total = 0.0
    prev = 0
    for c in list(order) + [0]:
        total += math.dist(inst.coords[prev], inst.coords[c])
        prev = c
    return total


def min_routing_cost(inst):
    """Optimal surrogate cost ignoring the battery entirely (pure CVRP)."""
    best = math.inf
    for partition in _partitions_upto(tuple(inst.customers), inst.fleet_size):
        total = 0.0
        ok = True
        for block in partition:
            if sum(inst.demands[c] for c in block) > inst.cargo_capacity:
                ok = False
                break
            total += min(route_length(p, inst) for p in permutations(block))
        if ok and total < best:
            best = total
    return best


def certified_tiny_fixture(rng):
    """A random tiny instance together with its exact optimum, filtered to
    the search's certification envelope: the optimum must be priceable at
    its exact cost by the restricted follower and sit within half a percent
    of the battery-free routing floor (inside the follower window and the
    late-acceptance noise band)."""
    while True:
        inst = random_tiny_instance(rng)
        try:
            exact = brute_force_optimum(inst)
        except InstanceInfeasible:
            continue
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        priced = solve_se([list(r) for r in exact.routing.routes], inst,
                          oracle, table)
        if not priced.feasible or \
                priced.detour_cost > exact.detour_cost + 1e-9:
            continue
        if exact.surrogate > 1.005 * min_routing_cost(inst):
            continue
        return inst, exact


def random_move(rng, routes, ops=ALL_OPERATORS):
    """Draw a random valid (op, target, a, b) for the plan, or None."""
    op = ops[rng.randrange(len(ops))]
    nonempty = [i for i, r in enumerate(routes) if r]
    if not nonempty:
        return None
    if op in INTRA_ROUTE or op is Move.SEED_EMPTY_ROUTE:
        target = nonempty[rng.randrange(len(nonempty))]
        route = routes[target]
        a = route[rng.randrange(len(route))]
    else:
        if len(nonempty) < 2:
            return None
        i = rng.randrange(len(nonempty))
        j = rng.randrange(len(nonempty) - 1)
        if j >= i:
            j += 1
        target = (nonempty[i], nonempty[j])
        route = routes[target[0]]
        a = route[rng.randrange(len(route))]
    candidates = enumerate_positions(op, routes, target, a)
    if not candidates:
        return None
    return op, target, a, candidates[rng.randrange(len(candidates))]


def se_meter_reference(routes, budget):
    """solve_se's meter as it was, one check of the budget before every
    gap: 3 arcs per gap of each non-empty route, in plan order, raising
    BudgetExhausted before the first gap the exceeded budget reaches.
    The oracle for solve_se's charge of a whole route in one step, on a
    plan whose routes all have a charging plan."""
    for route in routes:
        if not route:
            continue
        for _ in range(len(route) + 1):
            if budget.exceeded():
                raise BudgetExhausted
            budget.arc_access_count += 3


def solve_se_enumeration(routes, inst, oracle, table):
    """Reference SE follower by plain enumeration: per route every gap
    subset of size lb and lb+1 in lexicographic order, each simulated gap
    by gap; the first battery-feasible subset of minimum detour wins.
    Exponential in the visit bound, so only an oracle for solve_se."""
    matrix = oracle.matrix
    rate = inst.consumption_rate
    full = inst.battery_capacity

    slots_out = []
    detour_total = 0.0
    surrogate_total = 0.0
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
            station = table[u][w]
            directs.append(matrix[u][w])
            legs_in.append(matrix[u][station])
            legs_out.append(matrix[station][w])

        route_cost = 0.0
        for d in directs:
            route_cost += d
        surrogate_total += route_cost
        lb = visits_lower_bound(route_cost, inst)

        best_f = None
        best_combo = None
        for size in (lb, lb + 1):
            if size < 0 or size > n_gaps:
                continue
            for combo in combinations(range(n_gaps), size):
                charge = full
                detour = 0.0
                pos = 0
                ok = True
                for g in range(n_gaps):
                    if pos < size and combo[pos] == g:
                        pos += 1
                        charge -= rate * legs_in[g]
                        if charge < 0.0:
                            ok = False
                            break
                        charge = full - rate * legs_out[g]
                        if charge < 0.0:
                            ok = False
                            break
                        detour = detour + legs_in[g] + legs_out[g] - directs[g]
                    else:
                        charge -= rate * directs[g]
                        if charge < 0.0:
                            ok = False
                            break
                if ok and (best_f is None or detour < best_f):
                    best_f = detour
                    best_combo = combo
        if best_f is None:
            return ChargingQueryResult(False, None, None)
        chosen = set(best_combo)
        slots_out.append(tuple(
            table[nodes[g]][nodes[g + 1]] if g in chosen else None
            for g in range(n_gaps)))
        detour_total += best_f

    return ChargingQueryResult(True, tuple(slots_out), detour_total,
                               surrogate=surrogate_total)


def solve_exhaustive_dfs(plan, inst, oracle):
    """Reference exhaustive follower by plain depth-first search: gap by
    gap in option order NIL, then stations ascending, then pairs in
    lexicographic order, cutting a branch only when the battery dies, the
    visit bound cannot be met, or the partial detour already matches the
    best found.  The oracle for solve_exhaustive, which must return the
    same slots, detour and surrogate bits and enumeration_count."""
    routes = plan.routes if isinstance(plan, RoutingPlan) else plan
    matrix = oracle.matrix
    rate = inst.consumption_rate
    full = inst.battery_capacity
    stations = list(inst.stations)
    n_sta = len(stations)
    sta_sta = [[matrix[a][b] for b in stations] for a in stations]

    slots_out = []
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

        best = [None, None]   # [detour, slot assignment]
        assign = [None] * n_gaps
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

    return ChargingQueryResult(True, tuple(slots_out), detour_total,
                               examined_total, surrogate_total)



def reach_tops_reference(prefix, near, span, scale):
    """Reference for charging._reach_tops, by a scan of every index: gap j
    lies in node k's window when prefix[j] + near[j] <= limit, the end when
    prefix[n] <= limit, limit = prefix[k] - near[k] + span + slack; each
    top is one past the last index that passes, raised to k + 1 and to
    the top before it."""
    n = len(prefix) - 1
    reach = span + (5 * n + 13) * math.ulp(2.0 * (scale + span)) / 4
    keys = [p + x for p, x in zip(prefix, near[:n])] + [prefix[n]]
    tops = []
    for k in range(n + 1):
        limit = prefix[k] - near[k] + reach
        passing = [j for j in range(k, n + 1) if keys[j] <= limit]
        tops.append(max([k + 1, *tops[-1:], *(j + 1 for j in passing)]))
    return tops


def route_bounds_reference(prefix, near, inc1, inc2, lb, ub, span, scale):
    """Reference for charging._route_bounds over the windows of
    _reach_tops: every row, the one for ub visits included, built the same
    way, each window found by reach_tops_reference and its least bound
    taken by min over a slice.  The oracle the closed-form top row and the
    sliding minimum must match bit for bit."""
    n = len(inc1)
    margin = (4 * ub + 2) * math.ulp(2.0 * scale)
    tops = reach_tops_reference(prefix, near, span, scale)
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
        after = [min(nxt[g:tops[g]]) for g in range(n + 1)]
        after1, after2 = after, after1
    return bound_rows, single_rows, pair_rows


def station_hops(sta_sta, rate, full):
    """The station pairs of the exhaustive follower, built pair by pair in
    Python floats from the station-to-station distances: per first station
    the (second station, slot, hop) triples _gap_pairs takes, and the same
    hops as an array with inf for every other pair, as _increments takes
    them."""
    hops = [[(wi, (ui, wi), hop) for wi, hop in enumerate(row)
             if wi != ui and full - rate * hop >= 0.0]
            for ui, row in enumerate(sta_sta)]
    pair_hops = np.full((len(sta_sta), len(sta_sta)), math.inf)
    for ui, seconds in enumerate(hops):
        for wi, _, hop in seconds:
            pair_hops[ui, wi] = hop
    return hops, pair_hops


def increments_reference(rows, directs, hops, rate, full):
    """Reference for charging._increments, gap by gap in Python floats over
    the option lists the search itself takes there (_gap_singles and
    _gap_pairs): (inc1, inc2, leg_maxes, near) from the station legs
    rows[u] of each walk node."""
    stations = range(len(rows[0]))
    inc1, inc2 = [], []
    for f_in, f_out, direct in zip(rows, rows[1:], directs):
        singles = _gap_singles(stations, f_in, f_out, rate, full)
        inc1.append(min((a + b for _, a, _, b, _ in singles),
                        default=math.inf) - direct)
        pairs = _gap_pairs(f_in, f_out, hops, rate, full)
        inc2.append(min((a + hop + b for _, a, seconds in pairs
                         for _, hop, b, _ in seconds),
                        default=math.inf) - direct)
    return inc1, inc2, [max(row, default=0.0) for row in rows], \
        [min(row, default=math.inf) for row in rows]


def surrogate_cost_reference(routes, oracle):
    """Reference for solution.surrogate_cost, reading oracle.matrix one
    arc at a time in the same order and association."""
    matrix = oracle.matrix
    total = 0.0
    for route in routes:
        if not route:
            continue
        prev = 0
        cost = 0.0
        for node in route:
            cost += matrix[prev][node]
            prev = node
        total += cost + matrix[prev][0]
    return total


def battery_feasible_reference(expanded, inst, oracle):
    """Reference for solution.battery_feasible, reading oracle.matrix one
    arc at a time: (ok, failed_at, deficit) and the charge trace."""
    matrix = oracle.matrix
    rate = inst.consumption_rate
    full = inst.battery_capacity
    charge = full
    trace = [(expanded[0], charge)]
    prev = expanded[0]
    for node in expanded[1:]:
        charge -= rate * matrix[prev][node]
        trace.append((node, charge))
        if charge < 0.0:
            return (False, node, -charge), trace
        if node == 0 or inst.is_station(node):
            charge = full
        prev = node
    return (True, None, 0.0), trace


def total_cost_reference(routes, slot_lists, oracle):
    """Reference for solution.total_cost on shape-matched plans, reading
    oracle.matrix gap by gap: (F, f, phi)."""
    matrix = oracle.matrix
    phi = 0.0
    detour = 0.0
    for route, slots in zip(routes, slot_lists):
        if not route:
            continue
        prev = 0
        for gap, nxt in enumerate(list(route) + [0]):
            direct = matrix[prev][nxt]
            phi += direct
            slot = slots[gap]
            if slot is not None:
                if isinstance(slot, tuple):
                    u, w = slot
                    path = matrix[prev][u] + matrix[u][w] + matrix[w][nxt]
                else:
                    path = matrix[prev][slot] + matrix[slot][nxt]
                detour += path - direct
            prev = nxt
    return phi + detour, detour, phi


def explore_reference(self, phi_vi):
    """Reference exploration call: every attempt runs the operator's kernel,
    repeats included.  The oracle for _Engine.explore, which must leave the
    same plan, phi bits, arc count and generator state; call it as
    explore_reference(engine, phi_vi) or patch it in as _Engine.explore.
    Its index draws stay int(random() * n) where the engine's use
    math.floor: as the independent judge it shows that floor-based draws
    consume the same stream and pick the same indices.  It reads routes
    and nonempty directly, not the engine's per-slot ids, row keys or
    anchor counts."""
    draw = self.rng.random
    ops = self.explore_ops
    op = ops[int(draw() * len(ops))]
    scan = self.kernels[op]
    budget = self.budget
    limit = self.arc_limit
    nonempty = self.nonempty
    inter = op == M2 or op == M4 or op == M6 or op == M7
    # single-route operators take no partner; m8 seeds the first empty
    dest = self.empties[0] if op == M8 and self.empties else -1
    on_accept = self.hooks.get("on_accept")
    bar = max(phi_vi, self.phi - IMPROVE_EPS)
    for _ in range(self.params.max_attempts):
        if budget.arc_access_count >= limit:
            return False
        count = len(nonempty)
        if inter:
            if count < 2:
                return False    # no partner route: no attempt can draw
            i = int(draw() * count)
            j = int(draw() * (count - 1))
            if j >= i:
                j += 1
            t1 = nonempty[i]
            t2 = nonempty[j]
        else:
            t1 = nonempty[int(draw() * count)]
            t2 = dest
        route = self.routes[t1]
        pa = int(draw() * len(route))
        phi_before = self.phi
        if scan(self, t1, t2, pa, bar):
            if on_accept is not None:
                on_accept(self.phi, phi_before, phi_vi)
            if self.trace_full:
                self._emit("accept")
            return True
    return False


def descend_reference(self, op, t1, t2):
    """Reference descent of one target: every anchor runs the operator's
    kernel, whatever the engine's memo holds.  The oracle for
    _Engine._descend_target, which must leave the same plan, phi bits, arc
    count and generator state; patch it in as _Engine._descend_target.
    Like the engine it reads the wall clock once per pass."""
    budget = self.budget
    limit = self.arc_limit
    wall = self.wall_limited
    scan = self.kernels[op]
    improved = False
    while True:
        moved = False
        r1 = self.routes[t1]
        if not r1 or (t2 >= 0 and not self.routes[t2]):
            return improved
        if wall and budget.exceeded():
            return improved
        for pa in range(len(r1)):
            if budget.arc_access_count >= limit:
                return improved
            if scan(self, t1, t2, pa, self.phi - IMPROVE_EPS):
                moved = True
                improved = True
                break
        if not moved:
            return improved


def m1_reference(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
    """PlanState._m1 as it was when it priced the before and after sides of
    each customer by two copies of the insertion delta.  The oracle for
    _m1, which must return the same value and leave the same routes, phi
    and dmin bits and arc count under every bar, candidate range and arc
    limit."""
    route = self.routes[t1]
    length = len(route)
    if length < 2:
        self.dmin = math.inf
        return False
    matrix = self.matrix
    budget = self.budget
    limit = self.arc_limit
    phi = self.phi
    a = route[pa]
    prev_a = route[pa - 1] if pa else 0
    next_a = route[pa + 1] if pa + 1 < length else 0
    if budget.arc_access_count >= limit:
        return False
    budget.arc_access_count += 3
    dmin = math.inf
    row_a = matrix[a]
    removal = matrix[prev_a][next_a] - matrix[prev_a][a] - row_a[next_a]
    # a range may open on an after side (lo odd) and close on a before
    # side (hi odd); the other side of that customer lies outside it
    first = lo >> 1
    skip_before = first if lo & 1 else -1
    skip_after = hi >> 1 if hi & 1 else -1
    stop = (hi + 1) >> 1
    for pb in range(first, stop if stop < length else length):
        if pb == pa:
            continue
        b = route[pb]
        # structural no-ops (reinserting a beside itself) are skipped:
        # their float-noise deltas could masquerade as improvements
        if pb != pa + 1 and pb != skip_before:
            left = route[pb - 1] if pb else 0
            if budget.arc_access_count >= limit:
                return False
            budget.arc_access_count += 3
            delta = removal + matrix[left][a] + row_a[b] \
                - matrix[left][b]
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    _apply_m1_reference(self, t1, pa, pb, False, phi_new)
                    return True
                dmin = delta
        if pb != pa - 1 and pb != skip_after:
            right = route[pb + 1] if pb + 1 < length else 0
            if budget.arc_access_count >= limit:
                return False
            budget.arc_access_count += 3
            delta = removal + matrix[b][a] + row_a[right] \
                - matrix[b][right]
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    _apply_m1_reference(self, t1, pa, pb, True, phi_new)
                    return True
                dmin = delta
    self.dmin = dmin
    return False


def _apply_m1_reference(self, t, pa, pb, after, phi_new):
    route = self.routes[t]
    a = route.pop(pa)
    pb_adj = pb - 1 if pa < pb else pb
    route.insert(pb_adj + 1 if after else pb_adj, a)
    self.phi = phi_new


def parse_instance_reference(text: str) -> InstanceSpec:
    """The instance parser as it was before data lines skipped the keyword
    and header tests: every line runs them all.  The oracle for
    instance.parse_instance, which must return an equal InstanceSpec or
    raise the same exception type with the same message."""
    headers: dict[str, str] = {}
    coords: dict[int, tuple[float, float]] = {}
    coord_order: list[int] = []
    demands: dict[int, float] = {}
    station_ids: list[int] = []
    depot_id: int | None = None

    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("EOF"):
            break
        matched_section = next((s for s in _SECTIONS if upper.startswith(s)), None)
        if matched_section:
            section = matched_section
            continue
        if ":" in line:
            key = line.split(":", 1)[0].strip().upper()
            if key in _HEADER_KEYS:
                headers[key] = line.split(":", 1)[1].strip()
                continue
        if section is None:
            raise InstanceError(f"line {lineno}: unexpected content {line!r}")
        parts = line.split()
        try:
            if section == "NODE_COORD_SECTION":
                nid, x, y = int(parts[0]), float(parts[1]), float(parts[2])
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise InstanceError(
                        f"line {lineno}: non-finite coordinate in {line!r}")
                if nid in coords:
                    raise DuplicateNodeId(f"line {lineno}: node id {nid} repeated")
                coords[nid] = (x, y)
                coord_order.append(nid)
            elif section == "DEMAND_SECTION":
                nid, dem = int(parts[0]), float(parts[1])
                if not math.isfinite(dem):
                    raise InstanceError(
                        f"line {lineno}: non-finite demand in {line!r}")
                if nid in demands:
                    raise DuplicateNodeId(f"line {lineno}: demand for {nid} repeated")
                demands[nid] = dem
            elif section == "STATIONS_COORD_SECTION":
                station_ids.append(int(parts[0]))
            elif section == "DEPOT_SECTION":
                val = int(parts[0])
                if val == -1:
                    section = None
                elif depot_id is None:
                    depot_id = val
                else:
                    raise InstanceError(f"line {lineno}: multiple depot entries")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, InstanceError):
                raise
            raise InstanceError(f"line {lineno}: cannot parse {line!r}") from exc

    for key in ("DIMENSION", "STATIONS", "CAPACITY", "ENERGY_CAPACITY",
                "ENERGY_CONSUMPTION", "VEHICLES"):
        if key not in headers:
            raise MissingSection(f"header {key} is missing")
    if not coords:
        raise MissingSection("NODE_COORD_SECTION is missing")
    if not demands:
        raise MissingSection("DEMAND_SECTION is missing")
    if depot_id is None:
        raise MissingSection("DEPOT_SECTION is missing")

    dimension = _int_header(headers, "DIMENSION")
    n_stations = _int_header(headers, "STATIONS")
    if n_stations > 0 and not station_ids:
        raise MissingSection("STATIONS_COORD_SECTION is missing")
    if len(station_ids) != n_stations:
        raise InstanceError(
            f"STATIONS says {n_stations} but STATIONS_COORD_SECTION "
            f"lists {len(station_ids)}"
        )
    if len(coords) != dimension + n_stations:
        raise InstanceError(
            f"NODE_COORD_SECTION lists {len(coords)} nodes, expected "
            f"DIMENSION + STATIONS = {dimension + n_stations}"
        )
    if len(set(station_ids)) != len(station_ids):
        raise DuplicateNodeId("station id repeated in STATIONS_COORD_SECTION")
    for sid in station_ids:
        if sid not in coords:
            raise InstanceError(f"station id {sid} has no coordinates")
    if depot_id not in coords:
        raise InstanceError(f"depot id {depot_id} has no coordinates")
    if depot_id in station_ids:
        raise InstanceError(f"depot id {depot_id} is also listed as a station")

    station_set = set(station_ids)
    customer_ids = [nid for nid in coord_order
                    if nid != depot_id and nid not in station_set]
    if len(customer_ids) != dimension - 1:
        raise InstanceError(
            f"found {len(customer_ids)} customers, expected DIMENSION - 1 "
            f"= {dimension - 1}"
        )

    cargo, battery, rate = (_finite_header(headers, key) for key in (
        "CAPACITY", "ENERGY_CAPACITY", "ENERGY_CONSUMPTION"))
    fleet = _int_header(headers, "VEHICLES")
    for cid in customer_ids:
        if cid not in demands:
            raise MissingSection(f"customer {cid} missing from DEMAND_SECTION")
    if demands.get(depot_id, 0) != 0:
        raise InstanceError(f"depot {depot_id} must have zero demand")

    ordered = [depot_id] + customer_ids + station_ids
    return InstanceSpec(
        name=headers.get("NAME", "unnamed"),
        coords=tuple(coords[nid] for nid in ordered),
        demands=tuple(float(demands.get(nid, 0.0)) for nid in ordered),
        num_customers=len(customer_ids),
        num_stations=n_stations,
        cargo_capacity=cargo,
        battery_capacity=battery,
        consumption_rate=rate,
        fleet_size=fleet,
        upper_bound=_finite_header(headers, "OPTIMAL_VALUE")
        if "OPTIMAL_VALUE" in headers else None,
        original_ids=tuple(ordered),
    )
