"""Routing plans, charging plans, feasibility checks and cost evaluation.

A routing plan is a list of customer routes, at most fleet_size of them;
an empty route is an unused vehicle.  Only the search engine pads a plan
with empty routes to inst.route_slots, so route-creating moves have an
insertion slot; every function here takes a plan of any length.  A
charging plan assigns one slot to every gap of every route: None (no
stop), a station id, or an ordered pair of distinct station ids; a plan
with no stop is [None] * (len(route) + 1) per route.  RoutingPlan and
ChargingPlan are only the immutable records a CompleteSolution holds.
Capacity is decided exactly on InstanceSpec.cargo_units.
split_expanded_route rejects station runs no slot holds (three stations
in a row, or one station twice) and routes of stations alone.

None of these functions charges the oracle's budget: they price and check
plans outside search, where the budget does not count.

Feasibility checking and cost evaluation are deliberately decoupled:
search evaluates plenty of capacity-feasible plans whose battery
feasibility is never established.  Infeasibility is an expected outcome,
so checks return verdict values instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context
from fractions import Fraction

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
class ChargingPlan:
    """Lower-level decision of a CompleteSolution: per route, one slot per
    gap (len = route len + 1)."""

    slots: tuple[tuple[Slot, ...], ...]


@dataclass(frozen=True)
class CompleteSolution:
    routing: RoutingPlan
    charging: ChargingPlan
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
    seen = set()
    for v, route in enumerate(routes):
        load = 0
        for c in route:
            if c in seen:
                return UpperVerdict(False, "DuplicateCustomer",
                                    f"customer {c} served more than once")
            if c not in inst.customers:
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
    cap = inst.cargo_capacity
    demands = [inst.demands[c] for c in route]
    load = sum(map(Fraction, demands))
    if sum(demands) == load:
        return f"route {v} load {sum(demands)} > capacity {cap}"
    excess = load - Fraction(cap)
    shown = Context(prec=17).divide(excess.numerator, excess.denominator)
    return f"route {v} load {cap} + {shown:g} > capacity {cap}"


def surrogate_cost(routes, oracle: DistanceOracle) -> float:
    """Total routing distance ignoring charging; empty routes contribute 0."""
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
                     oracle: DistanceOracle) -> tuple[BatteryVerdict, list]:
    """Simulate the state of charge along an expanded route.

    Charge is full on departure from the depot and every station and drops
    by h * d_ij per arc; the verdict fails at the first node reached with
    negative charge.  The trace records the charge on arrival at each node
    (full at the starting depot) and is returned for diagnostics either way.
    """
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
            return BatteryVerdict(False, failed_at=node, deficit=-charge), trace
        if node == 0 or inst.is_station(node):
            charge = full
        prev = node
    return BatteryVerdict(True), trace


def total_cost(routes, slot_lists, oracle: DistanceOracle
               ) -> tuple[float, float, float]:
    """Evaluate (F, f, phi) for a shape-matched plan pair.

    Cost is computable for battery-infeasible plans too; feasibility is a
    separate concern.  f is accumulated per gap so that F = phi + f holds
    exactly in floating point.
    """
    if len(slot_lists) != len(routes):
        raise SlotLengthMismatch(
            f"{len(routes)} routes but {len(slot_lists)} slot lists")
    matrix = oracle.matrix
    phi = 0.0
    detour = 0.0
    for route, slots in zip(routes, slot_lists):
        if not route:
            if len(slots) not in (0, 1) or (len(slots) == 1 and slots[0] is not None):
                raise SlotLengthMismatch("empty route must carry a single empty slot")
            continue
        if len(slots) != len(route) + 1:
            raise SlotLengthMismatch(
                f"route of {len(route)} customers needs {len(route) + 1} slots, "
                f"got {len(slots)}")
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


def evaluate_solution(routes, slot_lists, oracle) -> CompleteSolution:
    """The CompleteSolution record of a plan pair, priced by total_cost."""
    f_total, f_detour, phi = total_cost(routes, slot_lists, oracle)
    return CompleteSolution(RoutingPlan.from_lists(routes),
                            ChargingPlan(tuple(tuple(s) for s in slot_lists)),
                            f_total, f_detour, phi)


# ---------------------------------------------------------------------------
# Solution text format: one comma-separated expanded route per line,
# then "COST <F>" with F rounded to 2 decimals.
# ---------------------------------------------------------------------------

def format_solution(sol: CompleteSolution, header_lines=()) -> str:
    lines = [f"# {h}" for h in header_lines]
    for route, slots in zip(sol.routing.routes, sol.charging.slots):
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
    for node in expanded:
        if not 0 <= node < inst.pz:
            raise ValueError(f"node id {node} outside this instance "
                             f"(0..{inst.pz - 1})")
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
