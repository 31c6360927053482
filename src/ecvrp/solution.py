"""Routing plans, charging plans, feasibility checks and cost evaluation.

A routing plan is a list of customer routes, at most fleet_size of them;
an empty route is an unused vehicle.  Only the search engine pads a plan
with empty routes to inst.route_slots, so route-creating moves have an
insertion slot; every function here takes a plan of any length.  A
charging plan assigns one slot to every gap of every route: None (no
stop), a station id, or an ordered pair of distinct station ids; a plan
with no stop is [None] * (len(route) + 1) per route.  A CompleteSolution
holds its routes in a RoutingPlan record and its charging plan as a plain
tuple of slot tuples, the shape every function here takes back in.
Capacity is decided exactly on InstanceSpec.cargo_units.
split_expanded_route rejects station runs no slot holds (three stations
in a row, or one station twice) and routes of stations alone.

None of these functions charges the oracle's budget: they price and check
plans outside search, where the budget does not count, and compute the arcs
they read with one oracle.arcs call each, so they never build the oracle's
pz x pz array.

Feasibility checking and cost evaluation are deliberately decoupled:
search evaluates plenty of capacity-feasible plans whose battery
feasibility is never established.  Infeasibility is an expected outcome,
so checks return verdict values instead of raising.  battery_feasible
walks one expanded route, or a solution file's route lines joined at the
depot, which recharges like a station, and returns its verdict alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import DistanceOracle, InstanceSpec

Slot = None | int | tuple[int, int]


class SlotLengthMismatch(ValueError):
    """Charging plan does not shape-match its routing plan."""


@dataclass(frozen=True)
class RoutingPlan:
    """Upper-level decision of a CompleteSolution: its customer routes."""

    routes: tuple[tuple[int, ...], ...]

    @classmethod
    def from_lists(cls, routes) -> "RoutingPlan":
        return cls(tuple(tuple(r) for r in routes))


@dataclass(frozen=True)
class CompleteSolution:
    routing: RoutingPlan
    # lower-level decision: per route, one slot per gap (route len + 1)
    charging: tuple[tuple[Slot, ...], ...]
    total_cost: float      # F = surrogate + detour
    detour_cost: float     # f >= 0
    surrogate: float       # phi, routing distance alone


@dataclass(frozen=True)
class UpperVerdict:
    ok: bool
    # MissingCustomer | DuplicateCustomer | NotACustomer | CapacityExceeded |
    # TooManyRoutes
    violation: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class BatteryVerdict:
    ok: bool
    failed_at: int | None = None   # node where the charge went negative
    deficit: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


UPPER_OK = UpperVerdict(True)


def check_upper_feasible(routes, inst: InstanceSpec) -> UpperVerdict:
    """Verify the partition, per-route capacity and route-count constraints."""
    if len(routes) > inst.fleet_size:
        return UpperVerdict(False, "TooManyRoutes",
                            f"{len(routes)} route slots > fleet size {inst.fleet_size}")
    units, cap = inst.cargo_units
    customers = inst.customers
    seen = set()
    for v, route in enumerate(routes):
        load = 0
        for c in route:
            if c in seen:
                return UpperVerdict(False, "DuplicateCustomer",
                                    f"customer {c} served more than once")
            if c not in customers:
                return UpperVerdict(False, "NotACustomer",
                                    f"node {c} is not a customer")
            seen.add(c)
            load += units[c]
        if load > cap:
            return UpperVerdict(False, "CapacityExceeded",
                                _capacity_detail(v, route, inst))
    if len(seen) != inst.num_customers:
        missing = sorted(set(inst.customers) - seen)
        return UpperVerdict(False, "MissingCustomer",
                            f"customers {missing} are not served")
    return UPPER_OK


def _capacity_detail(v: int, route, inst: InstanceSpec) -> str:
    """Why route v exceeds the cargo capacity, in file units: its float
    load where exact, else the capacity plus the exact excess to 17
    digits, as a float sum may round to the capacity or overflow."""
    # imported here: this error path is their only user
    from decimal import Context
    from fractions import Fraction

    cap = inst.cargo_capacity
    demands = [inst.demands[c] for c in route]
    load = sum(map(Fraction, demands))
    if sum(demands) == load:
        return f"route {v} load {sum(demands)} > capacity {cap}"
    excess = load - Fraction(cap)
    shown = Context(prec=17).divide(excess.numerator, excess.denominator)
    return f"route {v} load {cap} + {shown:g} > capacity {cap}"


def depot_walk(routes) -> list[int]:
    """The non-empty routes as one walk 0, route, 0, route, ..., 0: its
    consecutive pairs are the plan's arcs, route after route."""
    walk = [0]
    for route in routes:
        if route:
            walk += route
            walk.append(0)
    return walk


def surrogate_cost(routes, oracle: DistanceOracle) -> float:
    """Total routing distance ignoring charging; empty routes contribute 0."""
    walk = depot_walk(routes)
    arcs = oracle.arcs(walk[:-1], walk[1:]).tolist()
    total = 0.0
    end = 0
    for route in routes:
        if route:
            cost = 0.0
            for d in arcs[end:end + len(route)]:
                cost += d
            end += len(route) + 1
            total += cost + arcs[end - 1]
    return total


def expand_route(route, slots) -> list[int]:
    """Weave charging decisions into a route: depot, gap 0 stop(s), node, ...

    slots must have exactly len(route) + 1 entries.
    """
    if len(slots) != len(route) + 1:
        raise SlotLengthMismatch(
            f"route of {len(route)} customers needs {len(route) + 1} slots, "
            f"got {len(slots)}")
    expanded = [0]
    for gap, nxt in enumerate(list(route) + [0]):
        slot = slots[gap]
        if slot is not None:
            if isinstance(slot, tuple):
                u, w = slot
                if u == w:
                    raise SlotLengthMismatch(f"slot pair ({u}, {w}) must be distinct")
                expanded.append(u)
                expanded.append(w)
            else:
                expanded.append(slot)
        expanded.append(nxt)
    return expanded


def battery_feasible(expanded, inst: InstanceSpec,
                     oracle: DistanceOracle) -> BatteryVerdict:
    """Simulate the state of charge along an expanded walk.

    Charge is full on departure from the depot and every station and drops
    by h * d_ij per arc; the verdict fails at the first node reached with
    negative charge, short by the deficit.  The depot resets the charge
    like a station, so route lines joined at the depot (0, route, 0, route,
    ..., 0) get the verdict of the first line that fails, walked alone.
    """
    arcs = oracle.arcs(expanded[:-1], expanded[1:]).tolist()
    rate = inst.consumption_rate
    full = inst.battery_capacity
    charge = full
    for node, d in zip(expanded[1:], arcs):
        charge -= rate * d
        if charge < 0.0:
            return BatteryVerdict(False, failed_at=node, deficit=-charge)
        if node == 0 or inst.is_station(node):
            charge = full
    return BatteryVerdict(True)


def total_cost(routes, slot_lists, oracle: DistanceOracle
               ) -> tuple[float, float, float]:
    """Evaluate (F, f, phi) for a shape-matched plan pair.

    Cost is computable for battery-infeasible plans too; feasibility is a
    separate concern.  f is accumulated per gap so that F = phi + f holds
    exactly in floating point.

    One oracle.arcs call reads every arc costed: the direct arcs of
    depot_walk(routes), then the arcs of each stop path (prev, s, next) or
    (prev, u, w, next) in gap order.  They are summed in the order and
    association of a gap-by-gap walk.
    """
    if len(slot_lists) != len(routes):
        raise SlotLengthMismatch(
            f"{len(routes)} routes but {len(slot_lists)} slot lists")
    gaps: list[Slot] = []
    for route, slots in zip(routes, slot_lists):
        if not route:
            if len(slots) not in (0, 1) or (len(slots) == 1 and slots[0] is not None):
                raise SlotLengthMismatch("empty route must carry a single empty slot")
            continue
        if len(slots) != len(route) + 1:
            raise SlotLengthMismatch(
                f"route of {len(route)} customers needs {len(route) + 1} slots, "
                f"got {len(slots)}")
        gaps += slots
    walk = depot_walk(routes)
    tails, heads = walk[:-1], walk[1:]
    for g, slot in enumerate(gaps):
        if slot is not None:
            stops = slot if isinstance(slot, tuple) else (slot,)
            tails += (walk[g], *stops)
            heads += (*stops, walk[g + 1])
    arcs = oracle.arcs(tails, heads).tolist()
    stop_arcs = iter(arcs[len(gaps):])
    phi = 0.0
    detour = 0.0
    for direct, slot in zip(arcs, gaps):
        phi += direct
        if slot is not None:
            if isinstance(slot, tuple):
                path = next(stop_arcs) + next(stop_arcs) + next(stop_arcs)
            else:
                path = next(stop_arcs) + next(stop_arcs)
            detour += path - direct
    return phi + detour, detour, phi


def evaluate_solution(routes, slot_lists, oracle) -> CompleteSolution:
    """The CompleteSolution record of a plan pair, costed by total_cost."""
    f_total, f_detour, phi = total_cost(routes, slot_lists, oracle)
    return CompleteSolution(RoutingPlan.from_lists(routes),
                            tuple(tuple(s) for s in slot_lists),
                            f_total, f_detour, phi)


# ---------------------------------------------------------------------------
# Solution text format: one comma-separated expanded route per line,
# then "COST <F>" with F rounded to 2 decimals.
# ---------------------------------------------------------------------------

def format_solution(sol: CompleteSolution, header_lines=()) -> str:
    lines = [f"# {h}" for h in header_lines]
    for route, slots in zip(sol.routing.routes, sol.charging):
        if not route:
            continue
        expanded = expand_route(route, slots)
        lines.append(",".join(str(n) for n in expanded))
    lines.append(f"COST {sol.total_cost:.2f}")
    return "\n".join(lines) + "\n"


def parse_solution_file(text: str
                        ) -> tuple[list[tuple[int, list[int]]], float | None]:
    """Read the expanded routes, each as (line number, nodes), and the
    reported cost from solution text."""
    expanded_routes: list[tuple[int, list[int]]] = []
    reported = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.upper().startswith("COST"):
            try:
                _, value = line.split()
                reported = float(value)
            except ValueError:
                reported = math.nan
            if not math.isfinite(reported):
                raise ValueError(f"line {lineno}: COST needs one finite "
                                 f"number, got {line!r}")
            continue
        try:
            nodes = [int(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad route line {line!r}") from exc
        if len(nodes) < 2 or nodes[0] != 0 or nodes[-1] != 0:
            raise ValueError(f"line {lineno}: route must start and end at depot 0")
        if 0 in nodes[1:-1]:
            raise ValueError(f"line {lineno}: depot 0 inside a route; "
                             "give each route its own line")
        expanded_routes.append((lineno, nodes))
    return expanded_routes, reported


def split_expanded_route(expanded, inst: InstanceSpec) -> tuple[list[int], list[Slot]]:
    """Recover (customers, gap slots) from an expanded route."""
    route: list[int] = []
    slots: list[Slot] = []
    pending: list[int] = []
    pz = inst.pz
    for node in expanded:
        if not 0 <= node < pz:
            raise ValueError(f"node id {node} outside this instance "
                             f"(0..{pz - 1})")
    for node in expanded[1:]:
        if node != 0 and inst.is_station(node):
            pending.append(node)
            continue
        if len(pending) > 2:
            raise ValueError(f"more than two consecutive stations: {pending}")
        if len(pending) == 2 and pending[0] == pending[1]:
            raise ValueError(f"station {pending[0]} twice in a row")
        slots.append(None if not pending else
                     pending[0] if len(pending) == 1 else (pending[0], pending[1]))
        pending = []
        if node != 0:
            route.append(node)
    if not route and any(slots):
        raise ValueError("route visits stations but no customer")
    return route, slots
