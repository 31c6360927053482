"""Instance recipes, the refine-plan constructor and the workload table.

Everything here is built from fixed recipes and a workload seed, with no
import from the repository's tests, so the benchmark's inputs stay the same
whatever the tests do.  The program only ever sees the generated files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from ecvrp import InstanceSpec

EXPECTED_PATH = Path(__file__).with_name("expected_refine.json")


# ---------------------------------------------------------------------------
# Instance recipes
# ---------------------------------------------------------------------------

def _spec(name, customers, stations, demands, *, capacity, battery, rate,
          fleet) -> InstanceSpec:
    """Depot at the origin, then customers, then stations."""
    coords = [(0.0, 0.0)] + list(customers) + list(stations)
    return InstanceSpec(
        name=name,
        coords=tuple((float(x), float(y)) for x, y in coords),
        demands=tuple([0.0] + [float(d) for d in demands]
                      + [0.0] * len(stations)),
        num_customers=len(customers),
        num_stations=len(stations),
        cargo_capacity=float(capacity),
        battery_capacity=float(battery),
        consumption_rate=float(rate),
        fleet_size=fleet,
    )


def e22_synth() -> InstanceSpec:
    """E22 scale: 21 customers and 8 stations in discs around the depot,
    pz 30, so the standard budget is 25,000 * 30^2 = 22.5M arcs."""
    rng = random.Random(22)

    def disc(radius):
        while True:
            x, y = rng.uniform(-radius, radius), rng.uniform(-radius, radius)
            if x * x + y * y <= radius * radius:
                return (x, y)

    customers = [disc(30) for _ in range(21)]
    stations = [disc(26) for _ in range(8)]
    demands = [rng.randrange(100, 2200) for _ in range(21)]
    return _spec("synth22", customers, stations, demands,
                 capacity=6000, battery=94, rate=1.2, fleet=4)


def x143_synth() -> InstanceSpec:
    """X143 scale: 142 customers, then 8 stations, uniform in a 500 x 500
    square with the depot at its corner, then demands 1..99.  The battery
    binds: routes need 0 to 2 recharges."""
    rng = random.Random(7)
    customers = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(142)]
    stations = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(8)]
    demands = [rng.randint(1, 99) for _ in range(142)]
    return _spec("synth143", customers, stations, demands,
                 capacity=1190, battery=700, rate=1, fleet=7)


INSTANCES = {"e22": e22_synth, "x143": x143_synth}

RECIPES = {
    "e22": "random.Random(22): 21 customers in a radius-30 disc, 8 stations "
           "in a radius-26 disc, demands randrange(100, 2200); cargo 6000, "
           "battery 94, rate 1.2, fleet 4; depot at the centre",
    "x143": "random.Random(7): 142 customers, then 8 stations, uniform in "
            "[0, 500]^2, then demands randint(1, 99); cargo 1190, battery 700, "
            "rate 1, fleet 7; depot at the corner (0, 0)",
}


def dist(inst: InstanceSpec, i: int, j: int) -> float:
    (xi, yi), (xj, yj) = inst.coords[i], inst.coords[j]
    return math.hypot(xi - xj, yi - yj)


# ---------------------------------------------------------------------------
# Refine plans: sweep with capacity cuts, nearest neighbour inside each route
# ---------------------------------------------------------------------------

def sweep_plan(inst: InstanceSpec, start: int, reverse: bool):
    """Customers sorted by angle around the depot (reversed if asked),
    rotated to begin at position start, cut into routes whenever the next
    customer would overflow the cargo; each route then visits its customers
    in nearest-neighbour order from the depot.  None if the cuts need more
    routes than the fleet has."""
    x0, y0 = inst.coords[0]
    order = sorted(inst.customers, key=lambda c: (
        math.atan2(inst.coords[c][1] - y0, inst.coords[c][0] - x0), c))
    if reverse:
        order.reverse()
    order = order[start:] + order[:start]
    groups, load = [[]], 0.0
    for c in order:
        if load + inst.demands[c] > inst.cargo_capacity:
            groups.append([])
            load = 0.0
        groups[-1].append(c)
        load += inst.demands[c]
    if len(groups) > inst.fleet_size:
        return None
    routes = []
    for group in groups:
        left, here, route = set(group), 0, []
        while left:
            here = min(left, key=lambda c: (dist(inst, here, c), c))
            route.append(here)
            left.remove(here)
        routes.append(route)
    return routes


def plan_catalogue(inst: InstanceSpec) -> list[tuple[str, list]]:
    """Every valid sweep plan, keyed "<start><+|->"."""
    out = []
    for reverse in (False, True):
        for start in range(inst.num_customers):
            routes = sweep_plan(inst, start, reverse)
            if routes is not None:
                out.append((f"{start}{'-' if reverse else '+'}", routes))
    return out


def load_expected() -> dict:
    """Stored exact optimum per catalogue plan: refined F, or None for an
    INFEASIBLE verdict.  Written by record_expected.py."""
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A search stage over fixed seeds, then a refine stage over plans.

    The search seeds are fixed rather than drawn from the workload seed:
    on X143 one search seed can take 1.7 times as long as another over the
    same arc slice, more than a run of a few seeds can average out.  A seed
    listed twice runs twice, and its outputs must match.  The workload seed
    orders the refine plans.
    """

    name: str
    instance: str                  # key of INSTANCES
    search_seeds: tuple[int, ...]  # run_blahc seeds, one run each
    arc_slice: int | None          # arc limit per run; None = 25,000 pz^2
    refine_every: int              # refine every k-th catalogue plan
    refine_requests: int           # requests per set, cycling those plans

    def refine_keys(self, keys: list[str], seed: int) -> list[str]:
        chosen = keys[::self.refine_every]
        random.Random(f"{self.name}/refine/{seed}").shuffle(chosen)
        return [chosen[i % len(chosen)] for i in range(self.refine_requests)]


# Every workload reports every metric, so each has both stages; the mix
# decides which layer dominates.  Why each was chosen is in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("e22-search", "e22", search_seeds=(1, 2, 3), arc_slice=None,
             refine_every=1, refine_requests=1500),
    Workload("x143-charging", "x143", search_seeds=(1, 2, 3, 1),
             arc_slice=5_000_000, refine_every=6, refine_requests=96),
    Workload("x143-refine", "x143", search_seeds=(1, 1), arc_slice=3_000_000,
             refine_every=1, refine_requests=284),
)}
