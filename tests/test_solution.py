import argparse
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecvrp import cli
from ecvrp.charging import solve_exhaustive
from ecvrp.instance import DistanceOracle, serialize_instance
from ecvrp.solution import (
    SlotLengthMismatch,
    battery_feasible,
    check_upper_feasible,
    evaluate_solution,
    expand_route,
    format_solution,
    parse_solution_file,
    split_expanded_route,
    surrogate_cost,
    total_cost,
)
from conftest import make_instance
from helpers import (
    battery_failure_per_line,
    battery_feasible_reference,
    full_surrogate,
    random_partition_plan,
    surrogate_cost_reference,
    total_cost_reference,
)


class TestSurrogate:
    def test_out_and_back(self):
        inst = make_instance(customers=[(3, 4)], stations=[(9, 9)])
        oracle = DistanceOracle.for_instance(inst)
        assert surrogate_cost([[1]], oracle) == pytest.approx(10.0)

    def test_all_empty_routes(self, quad_instance):
        oracle = DistanceOracle.for_instance(quad_instance)
        assert surrogate_cost([[], [], []], oracle) == 0.0

    def test_two_route_plan_matches_hand_sum(self, quad_instance):
        # six arcs summed by hand from the fixture coordinates
        expected = (5.0 + 6.0 + math.sqrt(109)) + (10.0 + 8.0 + 6.0)
        oracle = DistanceOracle.for_instance(quad_instance)
        assert surrogate_cost([[1, 2], [3, 4]], oracle) == pytest.approx(expected)

    # pricing and checking sit outside search, so they read arcs for free
    @pytest.mark.parametrize("call", [
        lambda inst, oracle: surrogate_cost([[1, 2], [3, 4], []], oracle),
        lambda inst, oracle: battery_feasible([0, 1, 5, 2, 0], inst, oracle),
        lambda inst, oracle: total_cost(
            [[1, 2], [3, 4], []], [[None, 5, None], [None] * 3, [None]],
            oracle),
        lambda inst, oracle: solve_exhaustive([[1, 2], [3, 4], []], inst,
                                              oracle),
    ], ids=["surrogate_cost", "battery_feasible", "total_cost",
            "solve_exhaustive"])
    def test_budget_left_uncharged(self, quad_instance, metered, call):
        oracle, budget = metered
        call(quad_instance, oracle)
        assert budget.arc_access_count == 0


class TestUpperFeasible:
    def test_valid_partition(self, quad_instance):
        verdict = check_upper_feasible([[1, 2], [3, 4], []], quad_instance)
        assert verdict.ok

    def test_duplicate_customer(self, quad_instance):
        verdict = check_upper_feasible([[1, 2], [2, 3, 4]], quad_instance)
        assert not verdict.ok
        assert verdict.violation == "DuplicateCustomer"

    def test_station_or_depot_is_not_a_customer(self):
        inst = make_instance(customers=[(1, 0), (2, 0), (3, 0)],
                             stations=[(4, 0), (5, 0)], fleet=3)
        verdict = check_upper_feasible([[1, 2, 3, 4]], inst)
        assert verdict.violation == "NotACustomer"
        assert verdict.detail == "node 4 is not a customer"
        verdict = check_upper_feasible([[1, 2], [0, 3]], inst)
        assert verdict.violation == "NotACustomer"
        assert verdict.detail == "node 0 is not a customer"

    def test_missing_customer(self, quad_instance):
        verdict = check_upper_feasible([[1, 2], [4]], quad_instance)
        assert verdict.violation == "MissingCustomer"
        assert "3" in verdict.detail

    def test_capacity_boundary(self):
        inst = make_instance(customers=[(1, 0), (2, 0)], stations=[(5, 5)],
                             demands=[3, 3], capacity=6, fleet=2)
        assert check_upper_feasible([[1, 2], []], inst).ok
        tight = make_instance(customers=[(1, 0), (2, 0)], stations=[(5, 5)],
                              demands=[3, 4], capacity=6, fleet=2)
        verdict = check_upper_feasible([[1, 2], []], tight)
        assert verdict.violation == "CapacityExceeded"
        assert verdict.detail == "route 0 load 7.0 > capacity 6.0"
        # the rule is exact on the binary values: ten demands of 0.1, each
        # a little above 1/10, exceed 1.0, though their float sum in route
        # order rounds to 0.9999999999999999
        tenths = make_instance(customers=[(k, 0) for k in range(1, 11)],
                               stations=[(5, 5)], demands=[0.1] * 10,
                               capacity=1.0, fleet=2)
        route = list(tenths.customers)
        assert sum(tenths.demands[c] for c in route) <= 1.0
        verdict = check_upper_feasible([route, []], tenths)
        assert verdict.violation == "CapacityExceeded"
        assert check_upper_feasible([route[:9], route[9:]], tenths).ok

    def test_capacity_detail_shows_the_exact_excess(self):
        # float sums in route order read 0.9999999999999999 > 1.0 and
        # 1e+308 > 1e+308 here, though each route exceeds its capacity
        tenths = make_instance(customers=[(k, 0) for k in range(1, 11)],
                               stations=[(5, 5)], demands=[0.1] * 10,
                               capacity=1.0, fleet=2)
        verdict = check_upper_feasible([list(tenths.customers), []], tenths)
        assert verdict.detail == \
            "route 0 load 1.0 + 5.5511151231257827e-17 > capacity 1.0"
        extremes = make_instance(customers=[(1, 0), (2, 0), (3, 0)],
                                 stations=[(5, 5)],
                                 demands=[5e-324, 1e308, 1e308],
                                 capacity=1e308, fleet=3)
        verdict = check_upper_feasible([[1, 2], [3], []], extremes)
        assert verdict.detail == \
            "route 0 load 1e+308 + 4.9406564584124654e-324 > capacity 1e+308"
        # a float sum that overflows
        verdict = check_upper_feasible([[2, 3], [1], []], extremes)
        assert verdict.detail == "route 0 load 1e+308 + " \
            "1.0000000000000000e+308 > capacity 1e+308"

    def test_too_many_route_slots(self, quad_instance):
        verdict = check_upper_feasible([[1], [2], [3], [4]], quad_instance)
        assert verdict.violation == "TooManyRoutes"


class TestExpandRoute:
    def test_no_insertions(self):
        assert expand_route([4], [None, None]) == [0, 4, 0]

    def test_single_station_mid_route(self):
        # gap layout 0 > s0 > 3 > s1 > 1 > s2 > 2 > s3 > 0 with s1 = 5
        assert expand_route([3, 1, 2], [None, 5, None, None]) \
            == [0, 3, 5, 1, 2, 0]

    def test_ordered_pair(self):
        assert expand_route([4], [(5, 6), None]) == [0, 5, 6, 4, 0]

    def test_all_nil_is_identity_wrap(self):
        route = [2, 4, 1]
        assert expand_route(route, [None] * 4) == [0, 2, 4, 1, 0]

    def test_slot_length_mismatch(self):
        with pytest.raises(SlotLengthMismatch):
            expand_route([1, 2], [None, None])

    def test_round_trip_with_split(self):
        inst = make_instance(customers=[(1, 0), (2, 0), (3, 0)],
                             stations=[(4, 0), (5, 0)])
        expanded = expand_route([1, 3, 2], [4, None, (5, 4), None])
        route, slots = split_expanded_route(expanded, inst)
        assert route == [1, 3, 2]
        assert slots == [4, None, (5, 4), None]

    def test_stations_without_a_customer_rejected(self):
        inst = make_instance(customers=[(1, 0), (2, 0), (3, 0)],
                             stations=[(4, 0), (5, 0)])
        assert split_expanded_route([0, 0], inst) == ([], [None])
        for expanded in ([0, 4, 0], [0, 4, 5, 0]):
            with pytest.raises(ValueError, match="stations but no customer"):
                split_expanded_route(expanded, inst)


class TestBattery:
    def test_within_range(self):
        # the walk 0, 1, 0 uses exactly 100: a battery of 100 comes back
        # empty, which is feasible, and one ulp less runs flat at the depot
        for battery in (120.0, 100.0):
            inst = make_instance(customers=[(50, 0)], stations=[(99, 99)],
                                 battery=battery, rate=1.0)
            oracle = DistanceOracle.for_instance(inst)
            assert battery_feasible([0, 1, 0], inst, oracle).ok
        short = math.nextafter(100.0, 0.0)
        inst = make_instance(customers=[(50, 0)], stations=[(99, 99)],
                             battery=short, rate=1.0)
        verdict = battery_feasible([0, 1, 0], inst,
                                   DistanceOracle.for_instance(inst))
        assert (verdict.ok, verdict.failed_at, verdict.deficit) == \
            (False, 0, 100.0 - short)

    def test_depleted_on_return(self):
        inst = make_instance(customers=[(70, 0)], stations=[(99, 99)],
                             battery=120, rate=1.0)
        oracle = DistanceOracle.for_instance(inst)
        verdict = battery_feasible([0, 1, 0], inst, oracle)
        assert not verdict.ok
        assert verdict.failed_at == 0
        assert verdict.deficit == pytest.approx(20.0)

    def test_station_recharge(self):
        # station detour geometry: each leg of 0, 2, 1, 2, 0 is sqrt(2600),
        # and a station recharges fully, so a battery need only cover two
        # legs in a row; one ulp less runs flat at the second station, and
        # the route without its stops runs flat at the depot
        leg = math.sqrt(2600.0)
        enough = 2 * leg
        short = math.nextafter(enough, 0.0)

        def walk(expanded, battery):
            inst = make_instance(customers=[(100, 0)], stations=[(50, 10)],
                                 battery=battery, rate=1.0)
            verdict = battery_feasible(expanded, inst,
                                       DistanceOracle.for_instance(inst))
            return verdict.ok, verdict.failed_at, verdict.deficit

        assert walk([0, 2, 1, 2, 0], enough) == (True, None, 0.0)
        assert walk([0, 2, 1, 2, 0], short) == (False, 2, enough - short)
        assert walk([0, 1, 0], enough) == (False, 0, 200.0 - enough)

    def test_reversal_invariance_sampled(self):
        rng = random.Random(7)
        inst = make_instance(
            customers=[(10, 0), (20, 5), (5, 15), (-8, 3), (0, -12)],
            stations=[(15, 15)], battery=55, rate=1.0, fleet=5)
        oracle = DistanceOracle.for_instance(inst)
        for _ in range(40):
            k = rng.randrange(1, 6)
            route = rng.sample(list(inst.customers), k)
            expanded = [0] + route + [0]
            fwd = battery_feasible(expanded, inst, oracle)
            bwd = battery_feasible(expanded[::-1], inst, oracle)
            assert fwd.ok == bwd.ok


class TestTotalCost:
    def test_all_nil_means_f_zero(self, quad_instance):
        oracle = DistanceOracle.for_instance(quad_instance)
        plan = [[1, 2], [3, 4], []]
        no_stops = [[None] * (len(r) + 1) for r in plan]
        f_total, f_detour, phi = total_cost(plan, no_stops, oracle)
        assert f_detour == 0.0
        assert f_total == phi == pytest.approx(surrogate_cost(plan, oracle))

    def test_station_detour_hand_sum(self):
        inst = make_instance(customers=[(10, 0)], stations=[(5, 5)],
                             battery=1e9)
        oracle = DistanceOracle.for_instance(inst)
        f_total, f_detour, phi = total_cost([[1]], [[2, None]], oracle)
        hop = math.dist((0, 0), (5, 5)) + math.dist((5, 5), (10, 0))
        assert phi == pytest.approx(20.0)
        assert f_detour == pytest.approx(hop - 10.0)
        assert f_total == pytest.approx(phi + f_detour)

    def test_matches_arc_sum_over_expanded_route(self):
        # independent oracle: walk the expanded sequence and add up arcs
        inst = make_instance(customers=[(9, 2), (-4, 7), (6, -5)],
                             stations=[(3, 3)], fleet=2)
        oracle = DistanceOracle.for_instance(inst)
        plan = [[3, 1, 2], []]
        slots = [[None, 4, None, None], [None]]
        expanded = expand_route(plan[0], slots[0])
        expected = sum(
            math.dist(inst.coords[u], inst.coords[v])
            for u, v in zip(expanded, expanded[1:]))
        f_total, _, _ = total_cost(plan, slots, oracle)
        assert f_total == pytest.approx(expected, abs=1e-9)

    def test_cost_of_battery_infeasible_plan_still_defined(self):
        inst = make_instance(customers=[(1000, 0)], stations=[(5, 5)],
                             battery=10, rate=1.0)
        oracle = DistanceOracle.for_instance(inst)
        f_total, _, _ = total_cost([[1]], [[None, None]], oracle)
        assert f_total == pytest.approx(2000.0)

    def test_decomposition_on_random_plans(self):
        rng = random.Random(3)
        inst = make_instance(
            customers=[(4, 1), (9, -2), (-3, 7), (2, 12), (-6, -5)],
            stations=[(6, 6), (-4, 2)], fleet=4, capacity=1e9)
        oracle = DistanceOracle.for_instance(inst)
        stations = list(inst.stations)
        for _ in range(30):
            routes = random_partition_plan(rng, inst)
            slots = []
            for r in routes:
                row = []
                for _g in range(len(r) + 1 if r else 1):
                    pick = rng.random()
                    if pick < 0.5 or not r:
                        row.append(None)
                    elif pick < 0.8:
                        row.append(rng.choice(stations))
                    else:
                        u, w = rng.sample(stations, 2)
                        row.append((u, w))
                slots.append(row)
            f_total, f_detour, phi = total_cost(routes, slots, oracle)
            assert f_detour >= -1e-12
            assert f_total == pytest.approx(phi + f_detour)
            assert phi == pytest.approx(full_surrogate(routes, inst))

    def test_shape_mismatch_raises(self, quad_instance):
        oracle = DistanceOracle.for_instance(quad_instance)
        with pytest.raises(SlotLengthMismatch):
            total_cost([[1, 2], [3, 4], []], [[None], [None, None, None]],
                       oracle)


@st.composite
def priced_plans(draw):
    """(inst, routes, slot lists): 1 to 7 customers and 0 to 3 stations at
    float coordinates, so the association of every sum shows in its bits;
    routes cut from one customer order, empty ones among them; per gap no
    stop, a station or an ordered pair of distinct stations; a battery
    that some routes run out of."""
    coord = st.floats(-100, 100)
    point = st.tuples(coord, coord)
    customers = draw(st.lists(point, min_size=1, max_size=7))
    stations = draw(st.lists(point, max_size=3))
    inst = make_instance(customers=customers, stations=stations,
                         battery=draw(st.floats(20, 400)),
                         rate=draw(st.floats(0.5, 2.0)), fleet=10)
    order = draw(st.permutations(list(inst.customers)))
    cuts = sorted(draw(st.lists(st.integers(0, len(order)), max_size=3)))
    routes = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
    slot = st.none()
    if stations:
        slot |= st.sampled_from(list(inst.stations))
    if len(stations) > 1:
        slot |= st.permutations(list(inst.stations)).map(lambda p: (p[0], p[1]))
    slot_lists = [draw(st.lists(slot, min_size=len(r) + 1, max_size=len(r) + 1))
                  if r else draw(st.sampled_from([[None], []]))
                  for r in routes]
    return inst, routes, slot_lists


class TestArrayPricing:
    # the pricing functions compute their arcs with oracle.arcs; the
    # list-reading references in helpers fix every bit they return
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(priced_plans())
    def test_matches_list_pricing_bit_for_bit(self, case):
        inst, routes, slot_lists = case
        oracle = DistanceOracle.for_instance(inst)
        want = [x.hex() for x in total_cost_reference(routes, slot_lists,
                                                      oracle)]
        assert [x.hex() for x in total_cost(routes, slot_lists,
                                            oracle)] == want
        sol = evaluate_solution(routes, slot_lists, oracle)
        assert [sol.total_cost.hex(), sol.detour_cost.hex(),
                sol.surrogate.hex()] == want
        assert surrogate_cost(routes, oracle).hex() == \
            surrogate_cost_reference(routes, oracle).hex()
        for route, slots in zip(routes, slot_lists):
            if not route:
                continue
            expanded = expand_route(route, slots)
            verdict = battery_feasible(expanded, inst, oracle)
            ok, node, deficit = battery_feasible_reference(expanded, inst,
                                                           oracle)
            assert (verdict.ok, verdict.failed_at, verdict.deficit.hex()) \
                == (ok, node, deficit.hex())


class TestJoinedWalk:
    # validate and refine check the battery once, on the file's route lines
    # joined at the depot; the depot recharges like a station, so the walk
    # fails where the first failing line, walked alone, fails
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(priced_plans())
    def test_matches_the_per_line_verdict(self, tmp_path_factory, case):
        inst, routes, slot_lists = case
        root = tmp_path_factory.getbasetemp() / "joined-walk"
        root.mkdir(exist_ok=True)
        lines = [expand_route(route, slots) if route else [0, 0]
                 for route, slots in zip(routes, slot_lists)]
        (root / "inst.evrp").write_text(serialize_instance(inst))
        (root / "plan.sol").write_text(
            "".join(",".join(map(str, line)) + "\n" for line in lines))
        loaded, _, _, _, linenos, walk = cli._load_inputs(argparse.Namespace(
            instance=root / "inst.evrp", solution=root / "plan.sol"))
        oracle = DistanceOracle.for_instance(loaded)
        verdict = battery_feasible(walk, loaded, oracle)
        want = battery_failure_per_line(loaded, zip(linenos, lines), oracle)
        if want is None:
            assert verdict.ok
        else:
            assert (verdict.ok, verdict.failed_at, verdict.deficit.hex()) == \
                (False, want.failed_at, want.deficit.hex())


class TestSerialization:
    def test_round_trip(self, quad_instance):
        oracle = DistanceOracle.for_instance(quad_instance)
        plan = [[1, 2], [3, 4], []]
        charging = [[None, 5, None], [None, None, None], [None]]
        sol = evaluate_solution(plan, charging, oracle)
        text = format_solution(sol, header_lines=["seed 1"])
        expanded, reported = parse_solution_file(text)
        assert expanded == [(2, [0, 1, 5, 2, 0]), (3, [0, 3, 4, 0])]
        assert reported == pytest.approx(round(sol.total_cost, 2))

    def test_cost_printed_to_two_decimals(self, quad_instance):
        oracle = DistanceOracle.for_instance(quad_instance)
        plan = [[1, 2], [3, 4], []]
        no_stops = [[None] * (len(r) + 1) for r in plan]
        sol = evaluate_solution(plan, no_stops, oracle)
        assert f"COST {sol.total_cost:.2f}" in format_solution(sol)

    def test_bad_route_line_rejected(self):
        with pytest.raises(ValueError):
            parse_solution_file("0,1,2\nCOST 10.0\n")
