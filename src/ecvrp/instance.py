"""Problem instances, the metered distance oracle, and evaluation budgets.

The budget counts arc reads made during search, as the paper's budget
counts evaluations: the giant-tour split, plan loading, the move kernels
and the SE follower charge it, reading the oracle's nested-list matrix one
arc at a time.  Final refinement, validation and cost evaluation charge
nothing and compute the arcs they need from the coordinates (arcs), in a
few numpy calls, without building the pz x pz array.

Instances follow the keyword-section text format of the IEEE WCCI-2020
benchmark distribution.  Internally every instance is renumbered so that
node 0 is the depot, 1..n are the customers and n+1..pz-1 are the
charging stations, with pz = 1 + n + |stations|.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

EVALS_FACTOR = 25_000  # benchmark grants 25,000 solution evaluations of O(pz) arcs each


class InstanceError(ValueError):
    """Malformed or inconsistent instance data."""


class MissingSection(InstanceError):
    pass


class DuplicateNodeId(InstanceError):
    pass


class NonPositiveDemand(InstanceError):
    pass


class DemandExceedsCapacity(InstanceError):
    pass


@dataclass(frozen=True)
class InstanceSpec:
    """Immutable problem definition.

    coords and demands are indexed by internal node id: 0 is the depot,
    1..n the customers and n+1..pz-1 the stations.  Demands are zero
    for the depot and the stations; customer demands are strictly positive
    and never exceed the cargo capacity.
    """

    name: str
    coords: tuple[tuple[float, float], ...]
    demands: tuple[float, ...]
    num_customers: int
    num_stations: int
    cargo_capacity: float
    battery_capacity: float
    consumption_rate: float
    fleet_size: int
    upper_bound: float | None = None
    original_ids: tuple[int, ...] = ()

    def __post_init__(self):
        n, s = self.num_customers, self.num_stations
        if n < 1:
            raise InstanceError("instance has no customers")
        if len(self.coords) != 1 + n + s:
            raise InstanceError(
                f"expected {1 + n + s} coordinates, got {len(self.coords)}"
            )
        if len(self.demands) != len(self.coords):
            raise InstanceError("demand table size does not match node count")
        values = [v for xy in self.coords for v in xy]
        values += [*self.demands, self.cargo_capacity, self.battery_capacity,
                   self.consumption_rate]
        if not all(map(math.isfinite, values)):
            raise InstanceError("coordinates, demands, capacities and the "
                                "consumption rate must be finite")
        # no pair lies farther apart than the bounding box's corners, so
        # every distance is finite when its diagonal is
        xs, ys = zip(*self.coords)
        dx, dy = max(xs) - min(xs), max(ys) - min(ys)
        if not math.isfinite(dx * dx + dy * dy):
            raise InstanceError("coordinates lie too far apart: distances "
                                "overflow")
        if self.cargo_capacity <= 0 or self.battery_capacity <= 0:
            raise InstanceError("capacities must be positive")
        if self.consumption_rate <= 0:
            raise InstanceError("consumption rate must be positive")
        if self.fleet_size <= 0:
            raise InstanceError("fleet size must be positive")
        ids = self.original_ids or range(self.pz)    # as the file names them
        for c in self.customers:
            if self.demands[c] <= 0:
                raise NonPositiveDemand(f"customer {ids[c]} has demand {self.demands[c]}")
            if self.demands[c] > self.cargo_capacity:
                raise DemandExceedsCapacity(
                    f"customer {ids[c]} demand {self.demands[c]} exceeds "
                    f"capacity {self.cargo_capacity}"
                )

    @cached_property
    def cargo_units(self) -> tuple[tuple[float, ...], float]:
        """(demands, cargo capacity) as exact integers, read by every
        capacity decision: each float is p/q with q a power of two, scaled
        here by the largest q (1 on integer-valued instances), so a load
        depends on its customers alone, not on the order they were added.
        While their total stays within 2**53 they are held as floats, which
        add and subtract such integers exactly, and faster than ints do."""
        ratios = [v.as_integer_ratio() for v in (*self.demands, self.cargo_capacity)]
        scale = max(q for _, q in ratios)
        units = [p * (scale // q) for p, q in ratios]
        if sum(units) <= 2**53:
            units = [float(u) for u in units]
        return tuple(units[:-1]), units[-1]

    @property
    def pz(self) -> int:
        return 1 + self.num_customers + self.num_stations

    @property
    def route_slots(self) -> int:
        """Route slots a plan needs: the fleet, but at most one more than
        the customers.  No plan fills more than n routes, so n + 1 slots
        always leave an empty one for a new route, and a huge VEHICLES
        header costs nothing."""
        return min(self.fleet_size, self.num_customers + 1)

    @property
    def customers(self) -> range:
        return range(1, 1 + self.num_customers)

    @property
    def stations(self) -> range:
        return range(1 + self.num_customers, self.pz)

    def is_station(self, node: int) -> bool:
        return node > self.num_customers

    def max_arc_accesses(self) -> int:
        """Arc-access limit equivalent to the benchmark evaluation budget.

        One solution evaluation costs pz arc accesses, so the limit is
        pre-multiplied to EVALS_FACTOR * pz * pz raw accesses.
        """
        return EVALS_FACTOR * self.pz * self.pz


class EvaluationBudget:
    """Arc-access counter implementing the competition cost model.

    Each access to an arc weight d_ij costs one unit; the counter only
    ever increases.  A budget belongs to exactly one run.
    """

    __slots__ = ("arc_access_count", "max_arc_accesses", "wall_clock_limit", "_t0")

    def __init__(self, max_arc_accesses: int | None = None,
                 wall_clock_limit: float | None = None):
        self.arc_access_count = 0
        self.max_arc_accesses = max_arc_accesses
        self.wall_clock_limit = wall_clock_limit
        self._t0 = time.monotonic()

    def restart_clock(self) -> None:
        self._t0 = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def exceeded(self) -> bool:
        if self.max_arc_accesses is not None and \
                self.arc_access_count >= self.max_arc_accesses:
            return True
        if self.wall_clock_limit is not None and \
                self.elapsed() >= self.wall_clock_limit:
            return True
        return False


class DistanceOracle:
    """Symmetric Euclidean distances with an attached budget.

    The oracle keeps the x and y coordinate vectors xs and ys.  arcs(tails,
    heads) computes the distances array[tails, heads] would hold, with
    numpy's indexing and broadcasting: arcs(walk[:-1], walk[1:]) for the
    arcs of a walk, arcs(rows[:, None], cols) for a block.  Code outside
    search prices plans through it, without charging, so it never builds
    the pz x pz array.  array, those distances as float64, and matrix, the
    same doubles as nested lists (array.tolist()), are cached properties,
    built on first read and kept; building them is not charged either.
    Search code reads matrix[i][j] and charges the attached budget one
    access per arc read, and its numpy blocks read array.  An oracle built
    without a budget gets a fresh unlimited one, so metered code never asks
    whether there is one.

    Each distance is sqrt(dx*dx + dy*dy), dx = xi - xj: two rounded
    products, one rounded sum and a correctly rounded root, the same
    operations as math.sqrt((xi-xj)*(xi-xj) + (yi-yj)*(yi-yj)), so arcs,
    array and matrix all hold that double bit for bit.  xi - xj is exactly
    -(xj - xi), so distances are exactly symmetric with a zero diagonal.
    """

    def __init__(self, coords, budget: EvaluationBudget | None = None):
        self.xs, self.ys = np.asarray(coords, dtype=float).T
        self.budget = EvaluationBudget() if budget is None else budget

    def arcs(self, tails, heads) -> np.ndarray:
        """array[tails, heads], computed from the coordinates alone."""
        # each index list is converted once, not once per coordinate
        tails = np.asarray(tails, dtype=np.intp)
        heads = np.asarray(heads, dtype=np.intp)
        dx = self.xs[tails] - self.xs[heads]
        dy = self.ys[tails] - self.ys[heads]
        dx *= dx
        dy *= dy
        dx += dy
        # two scalar indexes give a numpy scalar, which has no buffer to
        # write the root into
        return np.sqrt(dx, out=dx if dx.ndim else None)

    @cached_property
    def array(self) -> np.ndarray:
        """The pz x pz distances, built on first read and kept."""
        nodes = np.arange(len(self.xs))
        array = self.arcs(nodes[:, None], nodes)
        array.flags.writeable = False    # matrix must stay its copy
        return array

    @cached_property
    def matrix(self) -> list:
        """array.tolist(), built on first read and kept."""
        return self.array.tolist()

    @classmethod
    def for_instance(cls, inst: InstanceSpec,
                     budget: EvaluationBudget | None = None) -> "DistanceOracle":
        return cls(inst.coords, budget)


def max_evals_budget(inst: InstanceSpec) -> EvaluationBudget:
    return EvaluationBudget(max_arc_accesses=inst.max_arc_accesses())


def max_time_budget(inst: InstanceSpec, omega: float) -> float:
    """Wall-clock allowance in hours: omega * (customers + stations) / 100."""
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, not {omega!r}")
    return omega * (inst.num_customers + inst.num_stations) / 100.0


def time_budget(inst: InstanceSpec, omega: float) -> EvaluationBudget:
    return EvaluationBudget(wall_clock_limit=max_time_budget(inst, omega) * 3600.0)


# ---------------------------------------------------------------------------
# Instance file parsing
# ---------------------------------------------------------------------------

_HEADER_KEYS = {
    "NAME", "TYPE", "COMMENT", "OPTIMAL_VALUE", "DIMENSION", "STATIONS",
    "CAPACITY", "ENERGY_CAPACITY", "ENERGY_CONSUMPTION", "VEHICLES",
    "EDGE_WEIGHT_FORMAT", "EDGE_WEIGHT_TYPE",
}
_SECTIONS = (
    "NODE_COORD_SECTION", "DEMAND_SECTION", "STATIONS_COORD_SECTION",
    "DEPOT_SECTION",
)


def parse_instance(text: str) -> InstanceSpec:
    """Parse one benchmark instance file into a validated InstanceSpec.

    Raises MissingSection / DuplicateNodeId / NonPositiveDemand /
    DemandExceedsCapacity (all InstanceError) naming the offending
    line or field.

    Inside a section, a line that starts with an ASCII digit goes straight
    to the section's data branch.  No section keyword, EOF mark or header
    key starts with a digit, so the tests it skips could match no such
    line, and the result or error is the one that running them gives.
    """
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
        if section is None or not "0" <= line[0] <= "9":
            upper = line.upper()
            if upper.startswith("EOF"):
                break
            matched_section = next(
                (s for s in _SECTIONS if upper.startswith(s)), None)
            if matched_section:
                section = matched_section
                continue
            if ":" in line:
                key = line.split(":", 1)[0].strip().upper()
                if key in _HEADER_KEYS:
                    headers[key] = line.split(":", 1)[1].strip()
                    continue
            if section is None:
                raise InstanceError(
                    f"line {lineno}: unexpected content {line!r}")
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


def _int_header(headers: dict[str, str], key: str) -> int:
    try:
        return int(headers[key])
    except ValueError as exc:
        raise InstanceError(f"header {key}: cannot parse "
                            f"{headers[key]!r} as an integer") from exc


def _finite_header(headers: dict[str, str], key: str) -> float:
    try:
        value = float(headers[key])
    except ValueError as exc:
        raise InstanceError(f"header {key}: cannot parse "
                            f"{headers[key]!r}") from exc
    if not math.isfinite(value):
        raise InstanceError(f"header {key}: non-finite value {headers[key]!r}")
    return value


def load_instance(path) -> InstanceSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def serialize_instance(inst: InstanceSpec) -> str:
    """Render an InstanceSpec back to the benchmark text format.

    parse_instance(serialize_instance(inst)) reproduces inst exactly.
    """
    ids = inst.original_ids or tuple(range(1, inst.pz + 1))
    lines = [
        f"NAME: {inst.name}",
        "TYPE: EVRP",
    ]
    if inst.upper_bound is not None:
        lines.append(f"OPTIMAL_VALUE: {inst.upper_bound!r}")
    lines += [
        f"VEHICLES: {inst.fleet_size}",
        f"DIMENSION: {1 + inst.num_customers}",
        f"STATIONS: {inst.num_stations}",
        f"CAPACITY: {inst.cargo_capacity!r}",
        f"ENERGY_CAPACITY: {inst.battery_capacity!r}",
        f"ENERGY_CONSUMPTION: {inst.consumption_rate!r}",
        "NODE_COORD_SECTION",
    ]
    for node in range(inst.pz):
        x, y = inst.coords[node]
        lines.append(f"{ids[node]} {x!r} {y!r}")
    lines.append("DEMAND_SECTION")
    for node in range(1 + inst.num_customers):
        lines.append(f"{ids[node]} {inst.demands[node]!r}")
    lines.append("STATIONS_COORD_SECTION")
    for node in inst.stations:
        lines.append(f"{ids[node]}")
    lines += ["DEPOT_SECTION", f"{ids[0]}", "-1", "EOF", ""]
    return "\n".join(lines)
