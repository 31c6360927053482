import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecvrp.instance import (
    DemandExceedsCapacity,
    DistanceOracle,
    DuplicateNodeId,
    EvaluationBudget,
    InstanceError,
    InstanceSpec,
    MissingSection,
    NonPositiveDemand,
    load_instance,
    max_evals_budget,
    max_time_budget,
    parse_instance,
    serialize_instance,
)


def file_text(n_customers=3, n_stations=2, capacity=10, battery=50.0,
              rate=1.0, vehicles=2, demands=None, mutate=None):
    demands = demands or [1] * n_customers
    lines = [
        "NAME: synthetic",
        "TYPE: EVRP",
        f"VEHICLES: {vehicles}",
        f"DIMENSION: {n_customers + 1}",
        f"STATIONS: {n_stations}",
        f"CAPACITY: {capacity}",
        f"ENERGY_CAPACITY: {battery}",
        f"ENERGY_CONSUMPTION: {rate}",
        "NODE_COORD_SECTION",
    ]
    total = 1 + n_customers + n_stations
    for i in range(total):
        lines.append(f"{i + 1} {i * 3} {(i * 7) % 5}")
    lines.append("DEMAND_SECTION")
    lines.append("1 0")
    for i, d in enumerate(demands):
        lines.append(f"{i + 2} {d}")
    lines.append("STATIONS_COORD_SECTION")
    for i in range(n_stations):
        lines.append(f"{n_customers + 2 + i}")
    lines += ["DEPOT_SECTION", "1", "-1", "EOF"]
    text = "\n".join(lines)
    if mutate:
        text = mutate(text)
    return text


class TestParsing:
    def test_wcci_shaped_header(self):
        # header constants of the smallest benchmark instance
        text = file_text(n_customers=21, n_stations=8, capacity=6000,
                         battery=94, rate=1.2, vehicles=4,
                         demands=[100 * (i + 1) for i in range(21)])
        inst = parse_instance(text)
        assert inst.num_customers == 21
        assert inst.num_stations == 8
        assert inst.fleet_size == 4
        assert inst.cargo_capacity == 6000
        assert inst.battery_capacity == 94
        assert inst.consumption_rate == 1.2
        assert inst.pz == 30
        assert inst.max_arc_accesses() == 22_500_000

    def test_minimal_instance(self):
        text = file_text(n_customers=1, n_stations=1, capacity=1, demands=[1])
        inst = parse_instance(text)
        assert list(inst.customers) == [1]
        assert list(inst.stations) == [2]

    def test_internal_renumbering(self):
        inst = parse_instance(file_text())
        assert list(inst.customers) == [1, 2, 3]
        assert list(inst.stations) == [4, 5]
        assert inst.original_ids == (1, 2, 3, 4, 5, 6)

    def test_zero_demand_rejected(self):
        # the message names the file's node id 3, not the internal id 2
        with pytest.raises(NonPositiveDemand) as err:
            parse_instance(file_text(demands=[1, 0, 2]))
        assert str(err.value) == "customer 3 has demand 0.0"

    def test_demand_above_capacity_rejected(self):
        with pytest.raises(DemandExceedsCapacity) as err:
            parse_instance(file_text(capacity=5, demands=[1, 9, 2]))
        assert str(err.value) == "customer 3 demand 9.0 exceeds capacity 5.0"

    def test_duplicate_node_id_rejected(self):
        text = file_text(mutate=lambda t: t.replace("2 3 2", "1 3 2", 1))
        with pytest.raises(DuplicateNodeId):
            parse_instance(text)

    def test_missing_header_rejected(self):
        text = file_text(mutate=lambda t: t.replace("ENERGY_CAPACITY: 50.0\n", ""))
        with pytest.raises(MissingSection) as err:
            parse_instance(text)
        assert "ENERGY_CAPACITY" in str(err.value)

    def test_missing_depot_rejected(self):
        text = file_text(mutate=lambda t: t.replace("DEPOT_SECTION\n1\n-1", ""))
        with pytest.raises(MissingSection):
            parse_instance(text)

    def test_depot_listed_as_station_rejected(self):
        text = file_text(mutate=lambda t: t.replace(
            "STATIONS_COORD_SECTION\n5", "STATIONS_COORD_SECTION\n1"))
        with pytest.raises(InstanceError):
            parse_instance(text)

    def test_no_customers_rejected(self):
        with pytest.raises(InstanceError, match="no customers"):
            parse_instance(file_text(n_customers=0, n_stations=1))

    @pytest.mark.parametrize("old, new, where", [
        ("\n2 3 2\n", "\n2 nan 2\n", "line 11"),
        ("\n3 6 4\n", "\n3 6 -inf\n", "line 12"),
        ("\n3 1\n", "\n3 inf\n", "line 19"),
        ("CAPACITY: 10\n", "CAPACITY: nan\n", "header CAPACITY"),
        ("ENERGY_CAPACITY: 50.0", "ENERGY_CAPACITY: inf",
         "header ENERGY_CAPACITY"),
        ("ENERGY_CONSUMPTION: 1.0", "ENERGY_CONSUMPTION: nan",
         "header ENERGY_CONSUMPTION"),
    ])
    def test_non_finite_value_rejected(self, old, new, where):
        text = file_text(mutate=lambda t: t.replace(old, new, 1))
        assert new in text
        with pytest.raises(InstanceError, match=where):
            parse_instance(text)

    @pytest.mark.parametrize("old, new, where", [
        ("DIMENSION: 4", "DIMENSION: two", "header DIMENSION"),
        ("STATIONS: 2", "STATIONS: 2.0", "header STATIONS"),
        ("VEHICLES: 2", "VEHICLES: 1.5", "header VEHICLES"),
        ("TYPE: EVRP", "OPTIMAL_VALUE: n/a", "header OPTIMAL_VALUE"),
    ])
    def test_unparsable_header_named(self, old, new, where):
        text = file_text(mutate=lambda t: t.replace(old, new, 1))
        assert new in text
        with pytest.raises(InstanceError, match=where):
            parse_instance(text)

    def test_round_trip(self):
        inst = parse_instance(file_text(n_customers=4, n_stations=2,
                                        demands=[3, 1, 4, 1]))
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "tiny.evrp"
        path.write_text(file_text())
        assert load_instance(path).num_customers == 3


class TestDistanceOracle:
    def test_three_four_five(self):
        oracle = DistanceOracle([(0.0, 0.0), (3.0, 4.0)])
        assert oracle.matrix[0][1] == oracle.matrix[1][0] == 5.0

    def test_self_distance_zero(self):
        oracle = DistanceOracle([(2.0, 7.0), (3.0, 4.0)])
        assert oracle.matrix[1][1] == 0.0

    def test_matrix_is_the_array_as_lists_built_once(self):
        oracle = DistanceOracle([(2.0, 7.0), (3.0, 4.0), (-1.5, 0.25)])
        assert oracle.matrix == oracle.array.tolist()
        assert oracle.matrix is oracle.matrix
        # matrix is a copy, so the array it was built from stays fixed
        assert not oracle.array.flags.writeable

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
                    min_size=3, max_size=8))
    def test_metric_properties(self, points):
        oracle = DistanceOracle(points)
        m = oracle.matrix
        n = len(points)
        for i in range(n):
            assert m[i][i] == 0.0
            for j in range(n):
                assert m[i][j] == m[j][i] >= 0.0
                for k in range(n):
                    assert m[i][k] <= m[i][j] + m[j][k] + 1e-9


class TestBudget:
    def test_exceeded_on_count(self):
        budget = EvaluationBudget(max_arc_accesses=10)
        budget.arc_access_count += 9
        assert not budget.exceeded()
        budget.arc_access_count += 1
        assert budget.exceeded()

    def test_exceeded_on_clock(self):
        budget = EvaluationBudget(wall_clock_limit=0.01)
        assert not budget.exceeded()
        time.sleep(0.02)
        assert budget.exceeded()

    def test_max_evals_budget(self):
        inst = parse_instance(file_text(n_customers=3, n_stations=2))
        assert max_evals_budget(inst).max_arc_accesses == 25_000 * 36

    def test_max_time_hours(self):
        e22_like = parse_instance(file_text(n_customers=21, n_stations=8,
                                            capacity=6000))
        assert max_time_budget(e22_like, 1.0) == pytest.approx(0.29)
        x1001_like_nodes = (1000 + 9) / 100
        assert 3 * x1001_like_nodes == pytest.approx(30.27)
        with pytest.raises(ValueError):
            max_time_budget(e22_like, 0.0)


COORDINATE = st.one_of(st.floats(-1e150, 1e150),
                       st.floats(-1e-150, 1e-150),
                       st.integers(-1000, 1000).map(float))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(COORDINATE, COORDINATE), min_size=1, max_size=8))
@example([(0.0, 0.0), (3.0, 4.0), (-2.5, 1.0), (7.0, -1.0)])
def test_distances_match_math_dist(points):
    """Every entry is the textbook formula's double, bit for bit, with
    an exactly symmetric matrix and a zero diagonal."""
    m = DistanceOracle(points).matrix
    for i, (xi, yi) in enumerate(points):
        assert m[i][i] == 0.0
        for j, (xj, yj) in enumerate(points):
            expected = math.sqrt((xi - xj) * (xi - xj) + (yi - yj) * (yi - yj))
            assert m[i][j].hex() == expected.hex()
            assert m[i][j].hex() == m[j][i].hex()


# within +-GUARD every coordinate difference squares and sums to a finite
# double, as InstanceSpec's overflow guard asks of an instance's points
GUARD = 4.7e153
NEAR_GUARD = st.floats(1e153, GUARD).flatmap(
    lambda v: st.sampled_from((v, -v)))


def ulps_away(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def oracle_reads(draw):
    """(points, tails, heads, rows, cols): points of any magnitude up to
    the overflow guard, some a few ulps from the first; index lists of one
    length, read as pairs, and two lists read as a block (rows[:, None],
    cols)."""
    coordinate = st.one_of(NEAR_GUARD, COORDINATE)
    cx, cy = draw(coordinate), draw(coordinate)
    steps = st.integers(-3, 3)
    near = draw(st.lists(st.tuples(steps, steps), max_size=5))
    far = draw(st.lists(st.tuples(coordinate, coordinate), max_size=4))
    points = [(cx, cy), *((ulps_away(cx, i), ulps_away(cy, j))
                          for i, j in near), *far]
    node = st.integers(0, len(points) - 1)
    tails = draw(st.lists(node, max_size=12))
    heads = draw(st.lists(node, min_size=len(tails), max_size=len(tails)))
    rows = np.array(draw(st.lists(node, max_size=6)), dtype=int)
    cols = np.array(draw(st.lists(node, max_size=6)), dtype=int)
    return points, tails, heads, rows, cols


def hexes(values) -> list[str]:
    return [x.hex() for x in np.ravel(values).tolist()]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(oracle_reads())
def test_arcs_compute_the_arrays_bits(case):
    """arcs gives the doubles array holds, and the textbook formula's,
    for pairs, blocks and a scalar pair, read either way round."""
    points, tails, heads, rows, cols = case
    oracle = DistanceOracle(points)
    pairs = oracle.arcs(tails, heads)
    assert hexes(pairs) == hexes(oracle.array[tails, heads])
    assert hexes(pairs) == hexes(oracle.arcs(heads, tails))
    assert hexes(pairs) == [math.sqrt(
        (points[i][0] - points[j][0]) * (points[i][0] - points[j][0])
        + (points[i][1] - points[j][1]) * (points[i][1] - points[j][1])
    ).hex() for i, j in zip(tails, heads)]
    block = oracle.arcs(rows[:, None], cols)
    assert block.shape == (len(rows), len(cols))
    assert hexes(block) == hexes(oracle.array[rows[:, None], cols])
    assert hexes(block) == hexes(oracle.arcs(cols[:, None], rows).T)
    last = len(points) - 1
    assert hexes(oracle.arcs(0, last)) == hexes(oracle.array[0, last]) == \
        hexes(oracle.arcs(last, 0))


class TestInstanceSpec:
    def base(self, **changes):
        fields = dict(name="spec", coords=((0.0, 0.0), (3.0, 4.0), (6.0, 0.0)),
                      demands=(0.0, 1.0, 0.0), num_customers=1,
                      num_stations=1, cargo_capacity=5.0,
                      battery_capacity=50.0, consumption_rate=1.0,
                      fleet_size=1)
        fields.update(changes)
        return InstanceSpec(**fields)

    def test_valid(self):
        assert self.base().pz == 3

    def test_no_customers_rejected(self):
        with pytest.raises(InstanceError, match="no customers"):
            self.base(coords=((0.0, 0.0), (6.0, 0.0)), demands=(0.0, 0.0),
                      num_customers=0)

    @pytest.mark.parametrize("changes", [
        {"coords": ((0.0, 0.0), (math.nan, 4.0), (6.0, 0.0))},
        {"coords": ((0.0, 0.0), (3.0, 4.0), (6.0, math.inf))},
        {"demands": (0.0, 1.0, math.nan)},
        {"cargo_capacity": math.inf},
        {"battery_capacity": math.inf},
        {"consumption_rate": math.nan},
    ])
    def test_non_finite_value_rejected(self, changes):
        with pytest.raises(InstanceError, match="finite"):
            self.base(**changes)

    @pytest.mark.parametrize("coords", [
        ((0.0, 0.0), (1e200, 0.0), (6.0, 0.0)),
        ((0.0, -1e154), (3.0, 4.0), (0.0, 1e154)),
    ])
    def test_overflowing_distance_rejected(self, coords):
        with pytest.raises(InstanceError, match="overflow"):
            self.base(coords=coords)

    def test_largest_finite_spread_accepted(self):
        inst = self.base(coords=((0.0, 0.0), (1.3e154, 0.0), (6.0, 0.0)))
        assert all(map(math.isfinite, DistanceOracle.for_instance(inst)
                       .matrix[1]))

    def test_route_slots_capped_by_customers(self):
        assert self.base().route_slots == 1
        assert self.base(fleet_size=10**6).route_slots == 2
