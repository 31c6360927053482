"""Output checks written against the problem definition, not the program.

A solution file is re-read here line by line and re-evaluated from the
instance coordinates; nothing from ecvrp's own validation is trusted
(its `validate` command exits 0 on a COST mismatch).
"""

from __future__ import annotations

from workloads import dist

COST_TOLERANCE = 0.005   # COST lines carry F rounded to two decimals
BATTERY_SLACK = 1e-9     # hypot and the program's matrix may differ by an ulp


class CheckFailed(Exception):
    pass


def parse_solution_text(text: str):
    """(expanded routes, COST value) from the solution text format."""
    routes, cost = [], None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("COST"):
            cost = float(line.split()[1])
            continue
        routes.append([int(tok) for tok in line.split(",")])
    if cost is None:
        raise CheckFailed("no COST line")
    return routes, cost


def check_solution(inst, text: str, routes=None) -> float:
    """Check a complete solution and return its total cost recomputed here.

    Checks the depot at both ends, node ids, at most two consecutive
    stations (distinct), the customer partition, the fleet size, the cargo
    capacity of every route, the battery along every route, and the COST
    line against the recomputed cost.  With routes given, the customer
    sequences must also equal them.
    """
    expanded, reported = parse_solution_text(text)
    if len(expanded) > inst.fleet_size:
        raise CheckFailed(f"{len(expanded)} routes > fleet {inst.fleet_size}")
    full = inst.battery_capacity
    rate = inst.consumption_rate
    seen: list[int] = []
    customer_routes = []
    total = 0.0
    for nodes in expanded:
        if (len(nodes) < 3 or nodes[0] != 0 or nodes[-1] != 0
                or nodes.count(0) != 2):
            raise CheckFailed(f"route {nodes} must hold the depot at its "
                              "ends only")
        customers, run, load, charge = [], 0, 0.0, full
        for prev, node in zip(nodes, nodes[1:]):
            if not 0 <= node < inst.pz:
                raise CheckFailed(f"node {node} outside the instance")
            leg = dist(inst, prev, node)
            total += leg
            charge -= rate * leg
            if charge < -BATTERY_SLACK:
                raise CheckFailed(f"battery empty on arrival at {node}")
            if inst.is_station(node):
                run += 1
                if run > 2 or prev == node:
                    raise CheckFailed(f"bad station sequence in {nodes}")
                charge = full
                continue
            run = 0
            if node != 0:
                customers.append(node)
                load += inst.demands[node]
        if not customers:
            raise CheckFailed(f"route {nodes} serves no customer")
        if load > inst.cargo_capacity:
            raise CheckFailed(f"route load {load} > {inst.cargo_capacity}")
        seen.extend(customers)
        customer_routes.append(customers)
    if sorted(seen) != list(inst.customers):
        raise CheckFailed("routes do not partition the customers")
    if routes is not None and \
            customer_routes != [list(r) for r in routes if r]:
        raise CheckFailed("customer sequences differ from the input plan")
    if abs(total - reported) > COST_TOLERANCE + 1e-9:
        raise CheckFailed(f"COST {reported} but recomputed {total:.6f}")
    return total
