import os
import random
from pathlib import Path

import pytest

import ecvrp
from ecvrp.instance import DistanceOracle, EvaluationBudget, InstanceSpec


def fresh_env() -> dict:
    """The environment for a fresh interpreter that imports this
    checkout's ecvrp first."""
    env = dict(os.environ)
    src = str(Path(ecvrp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        src, env.get("PYTHONPATH")]))
    return env


def make_instance(customers, stations, *, demands=None, capacity=100.0,
                  battery=1e9, rate=1.0, fleet=3, name="fixture"):
    """Build an InstanceSpec from depot-relative coordinates.

    customers/stations are (x, y) lists; the depot sits at the origin.
    A huge default battery makes charging irrelevant unless a test says
    otherwise.
    """
    if demands is None:
        demands = [1.0] * len(customers)
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


def long_route_instance(customers=1100):
    """One vehicle serving customers on a grid, with a battery far beyond
    the route: the single route needs no stop."""
    return make_instance(
        customers=[(1 + i % 40, 1 + i // 40) for i in range(customers)],
        stations=[(-50, -50), (90, 90)], capacity=customers, battery=1e6,
        fleet=1, name="long-route")


def alternating_stops_instance(customers=1100):
    """One vehicle shuttling between (0, 0) and (100, 0): its customers
    alternate between the two points, first (100, 0), and a station sits
    on each.  The route is customers arcs of 100 against a battery of
    100 * (customers + 1) / customers, so it needs a stop at every point
    between two arcs, customers - 1 in all, at zero detour, and its visit
    bound is customers - 1: 1,099 for 1,100 customers."""
    n = customers
    return make_instance(
        customers=[(100 * (1 - i % 2), 0) for i in range(n)],
        stations=[(0, 0), (100, 0)], capacity=n,
        battery=100 * (n + 1) / n, fleet=1, name="alternating-stops")


def x1001_synth_instance():
    """The paper's largest scale: 1,000 customers, then 20 stations,
    uniform in [0, 1000]^2, then demands 1..99, with the depot at the
    corner (0, 0); pz is 1021."""
    rng = random.Random(1001)
    customers = [(rng.uniform(0, 1000), rng.uniform(0, 1000))
                 for _ in range(1000)]
    stations = [(rng.uniform(0, 1000), rng.uniform(0, 1000))
                for _ in range(20)]
    return make_instance(customers, stations,
                         demands=[rng.randint(1, 99) for _ in range(1000)],
                         capacity=1200, battery=1400, rate=1.0, fleet=46,
                         name="x1001-synth")


def midpoint_line_instance(out=10):
    """A route that needs more stops than its visit bound allows: it runs
    out along y = 0 to x = 60 * out and back along y = 1, each of its 2 *
    out arcs about 60 long, with a station at the middle of each arc and a
    battery of 100.  After a stop the vehicle reaches the next arc's middle
    only through a stop on that arc, so the route needs a stop in every arc
    but its first and last, 2 * out - 2 in all, while its visit bound is
    floor(120 * out / 100) + 1: out = 3 fits, out >= 4 does not.  Customer 1
    at (0, 30) sits off the line for a second, charge-free route; the line
    route is customers 2 .. 2 * out in order."""
    line = [(60 * k, 0) for k in range(1, out + 1)]
    line += [(60 * k, 1) for k in range(out - 1, 0, -1)]
    nodes = [(0, 0), *line, (0, 0)]
    stations = [((x0 + x1) / 2, (y0 + y1) / 2)
                for (x0, y0), (x1, y1) in zip(nodes, nodes[1:])]
    return make_instance(customers=[(0, 30), *line], stations=stations,
                         capacity=100, battery=100, rate=1.0, fleet=2,
                         name=f"midpoint-line{out}")


def beside_line_instance(out=10):
    """midpoint_line_instance's routes with each station 1 beside a line
    customer instead of at an arc's middle.  A stop beside a customer
    leaves the vehicle about 40 at the next one, short of the arc after,
    so the line route needs more stops than its visit bound allows for
    out >= 3.  But every customer's nearest station leg is 1, so a
    relaxation that charges only the nearest legs lets the vehicle stop in
    every other arc, and cannot rule the route out."""
    line = [(60 * k, 0) for k in range(1, out + 1)]
    line += [(60 * k, 1) for k in range(out - 1, 0, -1)]
    stations = [(x, -1 if y == 0 else 2) for x, y in line]
    return make_instance(customers=[(0, 30), *line], stations=stations,
                         capacity=100, battery=100, rate=1.0, fleet=2,
                         name=f"beside-line{out}")


@pytest.fixture
def quad_instance():
    """Four customers with hand-checkable arc lengths, one far-off station."""
    return make_instance(
        customers=[(3, 4), (3, 10), (-6, 8), (-6, 0)],
        stations=[(50, 50)],
        demands=[2, 3, 1, 2],
        capacity=5,
        fleet=3,
    )


@pytest.fixture
def metered(quad_instance):
    budget = EvaluationBudget(max_arc_accesses=10**9)
    return DistanceOracle.for_instance(quad_instance, budget), budget
