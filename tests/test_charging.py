import gc
import math
import random
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecvrp import charging
from ecvrp.charging import (
    BudgetExhausted,
    _gap_pairs,
    _gap_singles,
    _increments,
    _reach_tops,
    _route_bounds,
    build_best_station_table,
    solve_exhaustive,
    solve_se,
    visits_lower_bound,
)
from ecvrp.instance import DistanceOracle, EvaluationBudget
from ecvrp.solution import battery_feasible, expand_route, surrogate_cost
from conftest import (
    alternating_stops_instance,
    beside_line_instance,
    long_route_instance,
    make_instance,
    midpoint_line_instance,
)
from helpers import (
    e22_like,
    increments_reference,
    random_feasible_plan,
    reach_tops_reference,
    route_bounds_reference,
    se_meter_reference,
    solve_exhaustive_dfs,
    solve_se_enumeration,
    station_hops,
    x143_like,
)


def sim_ok(expanded, inst):
    """Independent battery simulation straight from coordinates."""
    full = inst.battery_capacity
    charge = full
    for prev, node in zip(expanded, expanded[1:]):
        charge -= inst.consumption_rate * math.dist(
            inst.coords[prev], inst.coords[node])
        if charge < 0.0:
            return False
        if node == 0 or inst.is_station(node):
            charge = full
    return True


def station_visits(slots):
    count = 0
    for slot in slots:
        if slot is None:
            continue
        count += 2 if isinstance(slot, tuple) else 1
    return count


@pytest.fixture
def detour_instance():
    # out-and-back of length 200 against a range of 120: exactly one
    # recharge required, both gaps must host the lone station
    return make_instance(customers=[(100, 0)], stations=[(50, 10)],
                         battery=120, rate=1.0, fleet=1)


@pytest.fixture
def pair_instance():
    # the long gap is traversable only through two stations in sequence
    return make_instance(customers=[(200, 0)], stations=[(60, 5), (145, 0)],
                         battery=120, rate=1.0, fleet=1)


class TestMinVisits:
    @pytest.mark.parametrize("x,expected", [(50, 0), (100, 1), (180, 3)])
    def test_floor_of_cost_over_range(self, x, expected):
        inst = make_instance(customers=[(x, 0)], stations=[(999, 999)],
                             battery=120, rate=1.0)
        oracle = DistanceOracle.for_instance(inst)
        assert visits_lower_bound(surrogate_cost([[1]], oracle), inst) \
            == expected

    def test_exact_multiple(self):
        inst = make_instance(customers=[(1, 0)], stations=[(9, 9)],
                             battery=120, rate=1.0)
        assert visits_lower_bound(360.0, inst) == 3
        assert visits_lower_bound(100.0, inst) == 0
        assert visits_lower_bound(200.0, inst) == 1

    def test_overflowing_ratio_is_capped(self):
        # 1e300 / 1e-300 overflows to inf, which has no floor
        inst = make_instance(customers=[(1, 0)], stations=[(9, 9)],
                             battery=1e-300, rate=1.0)
        assert visits_lower_bound(1e300, inst) == 2 ** 53


class TestBestStationTable:
    def test_picks_smaller_detour(self):
        inst = make_instance(customers=[(10, 0)], stations=[(5, 1), (5, 5)])
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        assert table[0][1] == 2

    def test_single_station_everywhere(self):
        inst = make_instance(customers=[(10, 0), (0, 10)], stations=[(7, 7)])
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert table[i][j] == 3

    def test_tie_breaks_to_lowest_id(self):
        inst = make_instance(customers=[(10, 0)], stations=[(5, 1), (5, -1)])
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        assert table[0][1] == 2
        assert table[1][0] == 2

    def test_symmetry(self):
        rng = random.Random(11)
        inst = make_instance(
            customers=[(rng.uniform(-40, 40), rng.uniform(-40, 40))
                       for _ in range(6)],
            stations=[(rng.uniform(-40, 40), rng.uniform(-40, 40))
                      for _ in range(3)])
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        for i in range(7):
            for j in range(7):
                assert table[i][j] == table[j][i]


class TestSimpleEnumeration:
    def test_charge_free_route_stays_nil(self):
        inst = make_instance(customers=[(10, 0), (20, 0)], stations=[(15, 2)],
                             battery=1000, rate=1.0, fleet=1)
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        result = solve_se([[1, 2]], inst, oracle, table)
        assert result.feasible
        assert result.detour_cost == 0.0
        assert result.plan == ((None, None, None),)

    @pytest.mark.parametrize("battery", [1000, 30])
    def test_without_stations(self, battery):
        # no gap has a stop option: a route is feasible exactly when it
        # needs no visit, as in solve_exhaustive
        inst = make_instance(customers=[(10, 0), (0, 10)], stations=[],
                             battery=battery, rate=1.0, fleet=2)
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        assert {s for row in table for s in row} == {-1}
        plan = [[1, 2], []]
        se = solve_se(plan, inst, oracle, table)
        assert se.feasible == (battery == 1000)
        assert se_fingerprint(se)[:4] == se_fingerprint(
            solve_exhaustive(plan, inst, oracle))[:4]

    def test_forced_double_visit(self, detour_instance):
        inst = detour_instance
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        result = solve_se([[1]], inst, oracle, table)

        # oracle: brute-force every gap subset of the admissible sizes
        leg = math.sqrt(2600.0)
        best = None
        for size in (1, 2):
            for combo in combinations(range(2), size):
                expanded = expand_route([1], [2 if g in combo else None
                                              for g in range(2)])
                if sim_ok(expanded, inst):
                    f = sum(2 * leg - 100.0 for _ in combo)
                    best = f if best is None else min(best, f)
        assert best == pytest.approx(4 * leg - 200.0)

        assert result.feasible
        assert result.plan == ((2, 2),)
        assert result.detour_cost == pytest.approx(best)
        assert result.detour_cost == pytest.approx(3.96, abs=5e-3)

    def test_pair_needing_gap_is_infeasible_for_se(self, pair_instance):
        inst = pair_instance
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        result = solve_se([[1]], inst, oracle, table)
        assert not result.feasible

    def test_budget_charged(self):
        inst = make_instance(customers=[(10, 0), (20, 0)], stations=[(15, 2)],
                             battery=1000, rate=1.0, fleet=1)
        budget = EvaluationBudget()
        oracle = DistanceOracle.for_instance(inst, budget)
        table = build_best_station_table(inst, oracle)
        solve_se([[1, 2]], inst, oracle, table)
        # 3 reads per gap: direct arc plus both best-station legs
        assert budget.arc_access_count == 9

    def test_exceeded_budget_raises(self):
        inst = make_instance(customers=[(10, 0), (20, 0)], stations=[(15, 2)],
                             battery=1000, rate=1.0, fleet=1)
        budget = EvaluationBudget(max_arc_accesses=9)
        budget.arc_access_count = 9
        oracle = DistanceOracle.for_instance(inst, budget)
        table = build_best_station_table(inst, oracle)
        with pytest.raises(BudgetExhausted):
            solve_se([[1, 2]], inst, oracle, table)
        assert budget.arc_access_count == 9

    def test_meter_matches_per_gap_checks(self):
        # solve_se charges each route's gaps in one step, after one check
        # of the budget; at every arc limit across a call the count and
        # the outcome must be those of checking before every gap
        inst = make_instance(
            customers=[(10, 0), (20, 0), (20, 10), (-10, 5), (-15, -5)],
            stations=[(15, 2), (-12, 0)], battery=1000, rate=1.0, fleet=3)
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        plan = [[1, 2, 3], [], [4, 5]]
        start = 7
        total = 3 * (4 + 3)

        class Counted(EvaluationBudget):
            reads = 0

            def exceeded(self):
                self.reads += 1
                return super().exceeded()

        def run(call, limit):
            budget = Counted(max_arc_accesses=limit)
            budget.arc_access_count = start
            try:
                call(budget)
                raised = False
            except BudgetExhausted:
                raised = True
            return raised, budget.arc_access_count, budget.reads

        def se(budget):
            oracle.budget = budget
            assert solve_se(plan, inst, oracle, table).feasible

        outcomes = set()
        for limit in range(start - 1, start + total + 2):
            raised, count, reads = run(se, limit)
            expected = run(lambda b: se_meter_reference(plan, b), limit)
            assert (raised, count) == expected[:2], limit
            # one clock read per route reached
            assert reads == (1 if count - start < 12 else 2), limit
            outcomes.add((raised, count))
        # the call stops before each of the seven gaps, or not at all
        assert (True, start) in outcomes and (False, start + total) in outcomes
        assert len(outcomes) == 4 + 3 + 1


class TestExhaustive:
    def test_charge_free_route(self):
        inst = make_instance(customers=[(10, 0)], stations=[(5, 5), (7, 1)],
                             battery=1000, rate=1.0, fleet=1)
        oracle = DistanceOracle.for_instance(inst)
        result = solve_exhaustive([[1]], inst, oracle)
        assert result.feasible
        assert result.detour_cost == 0.0
        assert result.plan == ((None, None),)

    def test_matches_se_when_singles_suffice(self, detour_instance):
        inst = detour_instance
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        se = solve_se([[1]], inst, oracle, table)
        ex = solve_exhaustive([[1]], inst, oracle)
        assert ex.feasible
        assert ex.plan == se.plan
        assert ex.detour_cost == se.detour_cost

    def test_pair_restores_feasibility(self, pair_instance):
        inst = pair_instance
        oracle = DistanceOracle.for_instance(inst)
        result = solve_exhaustive([[1]], inst, oracle)
        assert result.feasible
        assert result.plan == (((2, 3), (3, 2)),)
        hop = math.dist((0, 0), (60, 5)) + math.dist((60, 5), (145, 0)) + 55.0
        assert result.detour_cost == pytest.approx(2 * (hop - 200.0))
        expanded = expand_route([1], result.plan[0])
        assert sim_ok(expanded, inst)

    def test_visit_bound_keeps_result_infeasible_beyond_pairs(self):
        # customer 500 away, stations only near the depot: nothing helps
        inst = make_instance(customers=[(500, 0)], stations=[(10, 0), (20, 0)],
                             battery=120, rate=1.0, fleet=1)
        oracle = DistanceOracle.for_instance(inst)
        assert not solve_exhaustive([[1]], inst, oracle).feasible

    def test_long_route_within_the_recursion_limit(self):
        # a route of 1,101 gaps and no stop: the search walks each run of
        # gaps without a stop in one loop, not one step per gap
        inst = long_route_instance()
        oracle = DistanceOracle.for_instance(inst)
        route = list(inst.customers)
        result = solve_exhaustive([route], inst, oracle)
        assert result.feasible
        assert result.plan == ((None,) * (len(route) + 1),)
        assert result.detour_cost == 0.0

    def test_more_stops_than_the_recursion_limit(self):
        # the search keeps its open work on one list, so its depth in stops
        # is not bounded by Python's recursion limit
        inst = alternating_stops_instance()
        oracle = DistanceOracle.for_instance(inst)
        route = list(inst.customers)
        lb = visits_lower_bound(surrogate_cost([route], oracle), inst)
        assert lb > sys.getrecursionlimit()
        result = solve_exhaustive([route], inst, oracle)
        assert result.feasible
        assert result.detour_cost == 0.0
        slots = result.plan[0]
        assert lb <= station_visits(slots) <= lb + 1
        assert battery_feasible(expand_route(route, slots), inst, oracle)

    def test_bound_tables_of_a_long_route_stay_small(self):
        # a route of 300 customers with lb = 299: its bound tables hold
        # (lb + 2) rows of 301 floats each, so the peak of the call is
        # mostly tables.  Two of them peak near 6 MiB; a third would take
        # the peak past 8.5 MiB.
        inst = alternating_stops_instance(300)
        oracle = DistanceOracle.for_instance(inst)
        route = list(inst.customers)
        assert visits_lower_bound(surrogate_cost([route], oracle), inst) \
            == 299
        tracemalloc.start()
        try:
            result = solve_exhaustive([route], inst, oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.feasible and result.detour_cost == 0.0
        assert peak <= 7.5 * 2 ** 20

    def test_calls_leave_no_reference_cycle(self):
        # with the collector off, a call that left its search state in a
        # reference cycle would leave each route's tables for the cyclic
        # collector
        rng = random.Random(8)
        inst = e22_like(rng)
        oracle = DistanceOracle.for_instance(inst)
        plans = [random_feasible_plan(rng, inst) for _ in range(10)]
        gc.collect()
        gc.disable()
        try:
            feasible = sum(solve_exhaustive(plan, inst, oracle).feasible
                           for plan in plans)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert feasible


@pytest.fixture
def charged_instance():
    rng = random.Random(21)
    customers = [(rng.uniform(-70, 70), rng.uniform(-70, 70))
                 for _ in range(8)]
    stations = [(45, 45), (-45, -45), (50, -40), (-40, 50)]
    return make_instance(customers=customers, stations=stations,
                         demands=[2, 1, 3, 2, 1, 2, 3, 1], capacity=6,
                         battery=150, rate=1.0, fleet=4)


class TestFollowerProperties:
    def test_dominance_and_soundness(self, charged_instance):
        inst = charged_instance
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        rng = random.Random(5)
        feasible_seen = 0
        for _ in range(60):
            plan = random_feasible_plan(rng, inst)
            se = solve_se(plan, inst, oracle, table)
            ex = solve_exhaustive(plan, inst, oracle)
            if se.feasible:
                feasible_seen += 1
                assert ex.feasible
                assert ex.detour_cost <= se.detour_cost
                for route, slots in zip(plan, se.plan):
                    if route:
                        assert battery_feasible(
                            expand_route(route, slots), inst, oracle).ok
            if ex.feasible:
                for route, slots in zip(plan, ex.plan):
                    if route:
                        assert battery_feasible(
                            expand_route(route, slots), inst, oracle).ok
        assert feasible_seen > 25

    def test_min_visit_lower_bound_holds_on_samples(self, charged_instance):
        inst = charged_instance
        oracle = DistanceOracle.for_instance(inst)
        stations = list(inst.stations)
        rng = random.Random(9)
        checked = 0
        for _ in range(600):
            route = rng.sample(list(inst.customers), rng.randrange(1, 5))
            slots = []
            for _g in range(len(route) + 1):
                roll = rng.random()
                if roll < 0.4:
                    slots.append(None)
                elif roll < 0.8:
                    slots.append(rng.choice(stations))
                else:
                    slots.append(tuple(rng.sample(stations, 2)))
            expanded = expand_route(route, slots)
            if sim_ok(expanded, inst):
                lb = visits_lower_bound(
                    surrogate_cost([route], oracle), inst)
                assert station_visits(slots) >= lb
                checked += 1
        assert checked > 50

    def test_determinism(self, charged_instance):
        inst = charged_instance
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        plan = random_feasible_plan(random.Random(2), inst)
        first = solve_se(plan, inst, oracle, table)
        second = solve_se(plan, inst, oracle, table)
        assert first.plan == second.plan
        assert first.detour_cost == second.detour_cost
        ex1 = solve_exhaustive(plan, inst, oracle)
        ex2 = solve_exhaustive(plan, inst, oracle)
        assert ex1.plan == ex2.plan

    def test_empty_routes_skipped(self, charged_instance):
        inst = charged_instance
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        plan = [[1, 2, 3], [4, 5, 6], [7, 8], []]
        result = solve_se(plan, inst, oracle, table)
        if result.feasible:
            assert result.plan[3] == (None,)


def tie_grid(rng):
    """Integer-grid points with duplicated stations, one of them on a
    customer: many gaps share legs, so detours tie exactly or within an
    ulp."""
    side = rng.randrange(3, 7)

    def point():
        return (rng.randrange(-side, side + 1), rng.randrange(-side, side + 1))

    customers = [point() for _ in range(12)]
    distinct = [point() for _ in range(3)] + [customers[0]]
    battery = rng.choice([2 * side, 2 * side + 1, 3 * side, 4 * side])
    return make_instance(customers=customers,
                         stations=distinct + distinct[:2],
                         battery=battery, rate=rng.choice([0.5, 1.0, 1.5]),
                         fleet=4)


def sweep_route(rng, inst, oracle, sizes):
    """A sweep sector in nearest-neighbour order, like a real route,
    lengthened by a few random swaps."""
    by_angle = sorted(inst.customers, key=lambda c: math.atan2(
        inst.coords[c][1], inst.coords[c][0]))
    start = rng.randrange(len(by_angle))
    left = set((by_angle * 2)[start:start + rng.randrange(*sizes)])
    route, here = [], 0
    while left:
        here = min(left, key=lambda c: (oracle.matrix[here][c], c))
        route.append(here)
        left.remove(here)
    for _ in range(rng.randrange(3)):
        i, j = rng.sample(range(len(route)), 2)
        route[i], route[j] = route[j], route[i]
    return route


def se_fingerprint(result):
    """Everything the follower returns, floats compared by their bits."""
    return (result.feasible,
            result.plan,
            None if result.detour_cost is None else result.detour_cost.hex(),
            result.surrogate.hex(), result.enumeration_count)


class TestSeMatchesEnumeration:
    """solve_se must return exactly what the subset enumeration returns:
    feasibility, slots, detour and surrogate bits and enumeration_count."""

    @pytest.mark.parametrize("recipe,instances,plans,max_len", [
        (x143_like, 3, 200, 10),
        (e22_like, 10, 60, 10),
        (tie_grid, 60, 15, 10),
    ])
    def test_random_plans(self, recipe, instances, plans, max_len):
        rng = random.Random(recipe.__name__)
        routes = 0
        for _ in range(instances):
            inst = recipe(rng)
            oracle = DistanceOracle.for_instance(inst)
            table = build_best_station_table(inst, oracle)
            for _ in range(plans):
                # mostly single routes; two-route plans check the product
                # and its cut-off at the first infeasible route
                customers = rng.sample(
                    list(inst.customers),
                    min(rng.randrange(2, 2 * max_len + 1), inst.num_customers))
                cut = rng.randrange(1, len(customers)) \
                    if len(customers) <= max_len else max_len
                plan = [customers[:cut]] if rng.random() < 0.7 else \
                    [customers[:cut], customers[cut:cut + max_len]]
                routes += len(plan)
                assert se_fingerprint(solve_se(plan, inst, oracle, table)) \
                    == se_fingerprint(
                        solve_se_enumeration(plan, inst, oracle, table)), plan
        assert routes >= 600

    def test_long_x143_routes(self):
        rng = random.Random(143)
        inst = x143_like(rng)
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        feasible = 0
        for _ in range(20):
            # the swaps make routes need up to 3 recharges
            plan = [sweep_route(rng, inst, oracle, (15, 21))]
            se = solve_se(plan, inst, oracle, table)
            feasible += se.feasible
            assert se_fingerprint(se) == se_fingerprint(
                solve_se_enumeration(plan, inst, oracle, table)), plan
        assert feasible >= 5

    def test_tie_within_rounding_window(self):
        # Two subsets reach the same last stop with detours one ulp apart;
        # the larger one is lexicographically first and ties the smaller
        # after the remaining additions, so it must be kept and win.
        coords = [(3, 4), (3, -5), (-5, 4), (-3, 1), (-3, -3), (-2, 2),
                  (-2, -3), (-5, -3), (-5, 2), (-4, 2), (-5, 2), (3, 2)]
        stations = [(-2, 5), (-2, -3), (-1, 3), (3, 4), (-2, 5), (-2, -3)]
        inst = make_instance(customers=coords, stations=stations,
                             battery=10, rate=0.5, fleet=4)
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        plan = [[3, 5, 1, 10, 2, 11, 7]]
        se = solve_se(plan, inst, oracle, table)
        assert se.plan == ((None, 14, 16, None, 14, 14, None, None),)
        assert se_fingerprint(se) == se_fingerprint(
            solve_se_enumeration(plan, inst, oracle, table))


def edit_plan(rng, plan):
    """plan with 0, 1 or 2 of its routes edited, the way accepted moves
    edit them: a swap or a segment reversal inside a route, or one
    customer moved between two routes."""
    plan = [list(r) for r in plan]
    edits = rng.choice([0, 1, 2])
    picked = rng.sample(range(len(plan)), edits)
    if edits == 2 and len(plan[picked[0]]) > 1 and rng.random() < 0.5:
        source, dest = picked
        plan[dest].insert(rng.randrange(len(plan[dest]) + 1),
                          plan[source].pop(rng.randrange(len(plan[source]))))
        return plan
    for t in picked:
        route = plan[t]
        if len(route) < 2:
            continue
        i, j = sorted(rng.sample(range(len(route)), 2))
        if rng.random() < 0.5:
            route[i], route[j] = route[j], route[i]
        else:
            route[i:j + 1] = route[i:j + 1][::-1]
    return plan


class TestSeMemo:
    """A call that finds routes in the memo, left there by any earlier
    call, must return what a call without a memo returns, and leave the
    meter at the same count, also when the budget runs out partway
    through it."""

    def test_route_seen_two_calls_ago_not_priced_again(self, monkeypatch):
        rng = random.Random("se-memo/aba")
        inst = x143_like(rng)
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)
        plan_a = [sweep_route(rng, inst, oracle, (5, 16)) for _ in range(3)]
        plan_b = [sweep_route(rng, inst, oracle, (5, 16)) for _ in range(3)]
        assert not {tuple(r) for r in plan_a} & {tuple(r) for r in plan_b}
        calls = []
        price = charging._price_route
        monkeypatch.setattr(charging, "_price_route",
                            lambda *args: calls.append(1) or price(*args))

        def call(plan, memo):
            oracle.budget = EvaluationBudget()
            result = se_fingerprint(solve_se(plan, inst, oracle, table, memo))
            return result, oracle.budget.arc_access_count

        memo = {}
        call(plan_a, memo)
        call(plan_b, memo)
        before = len(calls)
        again = call(plan_a, memo)
        assert before and len(calls) == before
        assert again == call(plan_a, None)

    @pytest.mark.parametrize("recipe,sizes,steps", [
        (x143_like, (5, 16), 150),
        (e22_like, (4, 13), 400),
    ])
    def test_random_plan_sequences(self, recipe, sizes, steps):
        rng = random.Random(recipe.__name__ + "/memo")
        inst = recipe(rng)
        oracle = DistanceOracle.for_instance(inst)
        table = build_best_station_table(inst, oracle)

        def call(plan, memo, start, limit):
            oracle.budget = EvaluationBudget(max_arc_accesses=limit)
            oracle.budget.arc_access_count = start
            try:
                result = se_fingerprint(
                    solve_se(plan, inst, oracle, table, memo))
            except BudgetExhausted:
                result = "exhausted"
            return result, oracle.budget.arc_access_count

        memo = {}
        plan = [sweep_route(rng, inst, oracle, sizes) for _ in range(4)]
        hits = misses = infeasible = cut_after_hit = 0
        for step in range(steps):
            plan = edit_plan(rng, plan)
            gaps = [len(r) + 1 for r in plan]
            start = rng.randrange(1000)
            limit = 10**9
            if step % 4 == 3:
                # run out before a gap of the second or a later route
                limit = start + 3 * rng.randrange(gaps[0] + 1, sum(gaps))
            reused = [tuple(r) in memo for r in plan]
            fresh = call(plan, None, start, limit)
            assert call(plan, memo, start, limit) == fresh, (step, plan)
            if fresh[0] == "exhausted":
                cut_after_hit += reused[0]
            else:
                infeasible += not fresh[0][0]
                hits += sum(reused)
                misses += reused.count(False)
        assert hits >= 100 and misses >= 100
        assert infeasible >= 10 and cut_after_hit >= 10


class TestExhaustiveMatchesDfs:
    """solve_exhaustive's branch-and-bound must return exactly what the
    plain depth-first search returns: feasibility, slots, detour and
    surrogate bits and enumeration_count."""

    @pytest.mark.parametrize("recipe,instances,plans,max_len", [
        (x143_like, 3, 100, 8),
        (e22_like, 10, 60, 8),
        (tie_grid, 80, 20, 7),
    ])
    def test_random_plans(self, recipe, instances, plans, max_len):
        # short routes: the depth-first oracle is exponential in their length
        rng = random.Random(recipe.__name__ + "/exhaustive")
        for _ in range(instances):
            inst = recipe(rng)
            oracle = DistanceOracle.for_instance(inst)
            for _ in range(plans):
                customers = rng.sample(
                    list(inst.customers),
                    min(rng.randrange(2, 2 * max_len + 1), inst.num_customers))
                cut = rng.randrange(1, min(max_len, len(customers)) + 1)
                plan = [customers[:cut]] if rng.random() < 0.6 else \
                    [customers[:cut], customers[cut:cut + max_len]]
                assert se_fingerprint(solve_exhaustive(plan, inst, oracle)) \
                    == se_fingerprint(
                        solve_exhaustive_dfs(plan, inst, oracle)), plan

    def test_long_x143_routes(self):
        # 20 routes that need 2 or 3 recharges, where the pair branch is
        # open and the bound cuts most of the tree
        rng = random.Random("exhaustive/x143")
        inst = x143_like(rng)
        oracle = DistanceOracle.for_instance(inst)
        lbs, feasible = [], 0
        while len(lbs) < 20:
            route = sweep_route(rng, inst, oracle, (14, 20))
            lb = visits_lower_bound(surrogate_cost([route], oracle), inst)
            if lb not in (2, 3):
                continue
            lbs.append(lb)
            plan = [route]
            result = solve_exhaustive(plan, inst, oracle)
            feasible += result.feasible
            assert se_fingerprint(result) == se_fingerprint(
                solve_exhaustive_dfs(plan, inst, oracle)), plan
        assert lbs.count(3) >= 5 and 10 <= feasible < 20, (lbs, feasible)

    def test_pair_below_twice_the_best_single(self):
        # The best plan stops at a station pair in gap 2 whose detour (about
        # 6.41) is below twice the gap's cheapest single stop (about 7.06):
        # a pair bound of twice the single one would cut it off.
        customers = [(0, -4), (1, 0), (2, 1), (-1, 2), (0, -2), (2, 1),
                     (-2, 1), (-4, -2), (1, -1), (3, 2), (1, 3), (3, -1)]
        stations = [(3, 0), (0, 4), (-4, -1), (0, -4), (3, 0), (0, 4)]
        inst = make_instance(customers=customers, stations=stations,
                             battery=8, rate=1.0, fleet=4)
        oracle = DistanceOracle.for_instance(inst)
        plan = [[8, 4, 2, 5, 9]]
        result = solve_exhaustive(plan, inst, oracle)
        assert result.plan == ((None, 15, (14, 13), None, None, None),)
        assert se_fingerprint(result) == se_fingerprint(
            solve_exhaustive_dfs(plan, inst, oracle))

    def test_pair_where_one_single_cannot_finish(self):
        # The route needs 3 visits.  The best plan stops once at gap 0 and
        # then at a pair in the last gap, where a single stop would leave
        # the route one visit short: that gap's single bound is inf, so a
        # walk that kept gaps by their single bound alone would drop it.
        inst = make_instance(customers=[(0, 150), (10, 150)],
                             stations=[(0, 75), (10, 140), (5, 70)],
                             battery=100, rate=1.0, fleet=1)
        oracle = DistanceOracle.for_instance(inst)
        plan = [[1, 2]]
        result = solve_exhaustive(plan, inst, oracle)
        assert result.plan == ((3, None, (4, 5)),)
        assert result.detour_cost < 0.03
        assert se_fingerprint(result) == se_fingerprint(
            solve_exhaustive_dfs(plan, inst, oracle))

    @pytest.mark.parametrize("battery", [1000, 30])
    def test_without_stations(self, battery):
        inst = make_instance(customers=[(10, 0), (0, 10)], stations=[],
                             battery=battery, rate=1.0, fleet=2)
        oracle = DistanceOracle.for_instance(inst)
        plan = [[1, 2], [1]]
        result = solve_exhaustive(plan, inst, oracle)
        assert result.feasible == (battery == 1000)
        assert se_fingerprint(result) == se_fingerprint(
            solve_exhaustive_dfs(plan, inst, oracle))


@pytest.fixture
def reach_verdicts(monkeypatch):
    """Runs the reach pass at the first step of every route's search and
    records what it returns, route by route."""
    verdicts = []
    reaches_end = charging._reaches_end

    def spy(*args):
        verdicts.append(reaches_end(*args))
        return verdicts[-1]

    monkeypatch.setattr(charging, "_reaches_end", spy)
    monkeypatch.setattr(charging, "_REACH_GATE", 1)
    return verdicts


def battery_variants(inst, oracle, route):
    """inst with and without its stations, at its own battery and at one
    ulp below, at and one ulp above route's consumption with no stop,
    where the charge left at the route's end rounds to about 0."""
    nc = inst.num_customers
    customers = inst.coords[1:1 + nc]
    stations = inst.coords[1 + nc:]
    need = inst.consumption_rate * surrogate_cost([route], oracle)
    for battery in (inst.battery_capacity, math.nextafter(need, 0.0), need,
                    math.nextafter(need, math.inf)):
        for sta in (stations, []):
            yield make_instance(customers=customers, stations=sta,
                                battery=battery, rate=inst.consumption_rate,
                                fleet=1)


class TestReachPass:
    """The reach pass decides whether a route has a plan within its visit
    bound; solve_exhaustive's result must not depend on whether it ran."""

    @pytest.mark.parametrize("recipe,instances,routes,max_len", [
        (x143_like, 2, 40, 8),
        (e22_like, 6, 20, 8),
        (tie_grid, 30, 6, 7),
    ])
    def test_agrees_with_dfs_on_feasibility(self, reach_verdicts, recipe,
                                            instances, routes, max_len):
        rng = random.Random(recipe.__name__ + "/reach")
        verdicts = []
        for _ in range(instances):
            base = recipe(rng)
            base_oracle = DistanceOracle.for_instance(base)
            for _ in range(routes):
                route = rng.sample(list(base.customers),
                                   rng.randrange(1, max_len + 1))
                for inst in battery_variants(base, base_oracle, route):
                    oracle = DistanceOracle.for_instance(inst)
                    reach_verdicts.clear()
                    result = solve_exhaustive([route], inst, oracle)
                    want = solve_exhaustive_dfs([route], inst, oracle)
                    assert se_fingerprint(result) == se_fingerprint(want)
                    # the pass runs unless lb > 2 * n_gaps settles the route
                    assert reach_verdicts in ([want.feasible], [])
                    verdicts += reach_verdicts
        assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20

    @pytest.mark.parametrize("out", [2, 3, 4, 5])
    def test_routes_beyond_their_visit_bound(self, reach_verdicts, out):
        # out >= 4: every stop sits where the battery needs one, but the
        # route needs more of them than lb + 1
        inst = midpoint_line_instance(out)
        oracle = DistanceOracle.for_instance(inst)
        plan = [[1], list(inst.customers)[1:]]
        result = solve_exhaustive(plan, inst, oracle)
        assert reach_verdicts == [True, out <= 3]
        assert se_fingerprint(result) == se_fingerprint(
            solve_exhaustive_dfs(plan, inst, oracle))

    @pytest.mark.parametrize("recipe,instances,plans,max_len", [
        (x143_like, 2, 60, 8),
        (e22_like, 6, 40, 8),
        (tie_grid, 40, 15, 7),
    ])
    def test_random_plans_match_dfs_when_it_always_runs(
            self, reach_verdicts, recipe, instances, plans, max_len):
        # the pass runs on every route, and where it finds a plan the
        # search goes on as if it had not run
        rng = random.Random(recipe.__name__ + "/exhaustive")
        for _ in range(instances):
            inst = recipe(rng)
            oracle = DistanceOracle.for_instance(inst)
            for _ in range(plans):
                customers = rng.sample(
                    list(inst.customers),
                    min(rng.randrange(2, 2 * max_len + 1), inst.num_customers))
                cut = rng.randrange(1, min(max_len, len(customers)) + 1)
                plan = [customers[:cut]] if rng.random() < 0.6 else \
                    [customers[:cut], customers[cut:cut + max_len]]
                assert se_fingerprint(solve_exhaustive(plan, inst, oracle)) \
                    == se_fingerprint(
                        solve_exhaustive_dfs(plan, inst, oracle)), plan
        assert True in reach_verdicts

    def test_settles_a_route_beyond_its_visit_bound(self, monkeypatch):
        # With the gate as shipped, the search of the beside-line route
        # makes _REACH_GATE walks without a leaf; the pass then ends it.
        # The charge-free route before it finds a leaf at once, so the pass
        # never runs there.  On the midpoint line the bound alone rules the
        # line route out before the gate: a stop leaves each customer with
        # at most 70, less than the next arc's 30 to its station plus 60,
        # so each window holds one gap and the stops needed pass ub.
        verdicts = []
        reaches_end = charging._reaches_end

        def spy(rate_directs, gap_singles, gap_pairs, full, lb, ub):
            verdicts.append((len(rate_directs), lb, ub,
                             reaches_end(rate_directs, gap_singles, gap_pairs,
                                         full, lb, ub)))
            return verdicts[-1][-1]

        monkeypatch.setattr(charging, "_reaches_end", spy)
        for inst, want in ((beside_line_instance(10), [(20, 12, 13, False)]),
                           (midpoint_line_instance(10), [])):
            verdicts.clear()
            oracle = DistanceOracle.for_instance(inst)
            result = solve_exhaustive([[1], list(inst.customers)[1:]], inst,
                                      oracle)
            assert verdicts == want, inst.name
            assert not result.feasible and result.failed_route == 1


def stop_bounds(inc1, inc2, after_rows, v, margin):
    """The bounds solve_exhaustive's search sums from _route_bounds'
    after_rows for a single stop and for a pair at each gap, with v visits
    made, as two lists.  A row past ub + 1, which the search never reads,
    counts as row ub + 1: no plan makes that many visits."""
    def row(w):
        return after_rows[min(w, len(after_rows) - 1)][1:]
    return ([inc + after - margin for inc, after in zip(inc1, row(v + 1))],
            [inc + after - margin for inc, after in zip(inc2, row(v + 2))])


def bound_margin(ub, scale):
    """solve_exhaustive's detour margin for a route with visit bound ub
    and detour bound scale."""
    return (4 * ub + 2) * math.ulp(2.0 * scale)


class TestRouteBounds:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_bound_rows_are_the_smaller_stop_bound(self, data):
        # solve_exhaustive keeps the gaps a walk passes by their bound_rows
        # entry and then tries them by the single-stop and pair bounds it
        # sums from after_rows: the two tests agree only if each entry is
        # exactly the smaller of the two
        n = data.draw(st.integers(1, 8))
        length = st.floats(0.0, 100.0)
        inc = st.one_of(st.floats(-1.0, 100.0), st.just(math.inf))
        directs = data.draw(st.lists(length, min_size=n, max_size=n))
        inc1 = data.draw(st.lists(inc, min_size=n, max_size=n))
        inc2 = data.draw(st.lists(inc, min_size=n, max_size=n))
        near = data.draw(st.lists(length, min_size=n + 1, max_size=n + 1))
        lb = data.draw(st.integers(0, 3))
        span = data.draw(st.floats(0.5, 400.0))
        scale = data.draw(st.floats(1.0, 1e4))
        prefix = [0.0]
        for d in directs:
            prefix.append(prefix[-1] + d)
        ub = lb + 1
        margin = bound_margin(ub, scale)
        tops = _reach_tops(prefix, near, span, scale)
        bound_rows, after_rows = _route_bounds(inc1, inc2, tops, lb, ub,
                                               margin)
        assert len(bound_rows) == ub + 1 and len(after_rows) == ub + 2
        assert after_rows[ub + 1] == [math.inf] * (n + 1)
        for v in range(ub + 1):
            assert len(bound_rows[v]) == n + 1
            singles, pairs = stop_bounds(inc1, inc2, after_rows, v, margin)
            for k in range(n):
                assert bound_rows[v][k] == min(singles[k], pairs[k]), (v, k)
            assert bound_rows[v][n] == (-margin if v >= lb else math.inf)


def float_bits(rows):
    return [[x.hex() for x in row] for row in rows]


@st.composite
def bound_inputs(draw):
    """(prefix, near, inc1, inc2, lb, span, scale) for _reach_tops and
    _route_bounds: routes of 1 to 10 gaps, nearest-station legs that may
    put a later gap's key below an earlier one's, increments and legs that
    may all be inf (no station), and ranges from under one gap to past the
    end of the route."""
    n = draw(st.integers(1, 10))
    directs = draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        inc = st.one_of(st.floats(-1.0, 100.0), st.just(math.inf))
        inc1 = draw(st.lists(inc, min_size=n, max_size=n))
        inc2 = draw(st.lists(inc, min_size=n, max_size=n))
        near = draw(st.lists(st.floats(0.0, 200.0), min_size=n + 1,
                             max_size=n + 1))
    else:
        inc1 = inc2 = [math.inf] * n
        near = [math.inf] * (n + 1)
    prefix = [0.0]
    for d in directs:
        prefix.append(prefix[-1] + d)
    return (prefix, near, inc1, inc2, draw(st.integers(0, 4)),
            draw(st.floats(0.5, 1500.0)), draw(st.floats(1.0, 1e4)))


class TestRouteBoundsMatchReference:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(bound_inputs())
    # lb = 0 on one gap; no station; every window past the end of the
    # route; a far station at node 1 whose window would end before node 0's
    @example(([0.0, 5.0], [0.0, 0.0], [1.0], [2.0], 0, 3.0, 10.0))
    @example(([0.0, 4.0, 9.0, 9.5], [math.inf] * 4, [math.inf] * 3,
              [math.inf] * 3, 1, 6.0, 50.0))
    @example(([0.0, 1.0, 3.0, 6.0], [0.0] * 4, [0.5, -0.25, 2.0],
              [1.0, 0.0, math.inf], 2, 100.0, 20.0))
    @example(([0.0, 1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 0.25, 0.0, 0.5],
              [0.5, 0.25, 1.0, 0.0], [1.0, 0.5, math.inf, 2.0], 1, 3.0,
              20.0))
    def test_rows_equal_the_slice_minimum(self, inputs):
        # The windows must be those of a scan of every index, and the
        # closed-form rows for ub visits and the sliding window minimum must
        # give every float of the slice-min build over them, bit for bit:
        # the bound rows, and the single-stop and pair bounds the search
        # sums from the after rows.
        prefix, near, inc1, inc2, lb, span, scale = inputs
        ub = lb + 1
        margin = bound_margin(ub, scale)
        tops = _reach_tops(prefix, near, span, scale)
        assert tops == reach_tops_reference(prefix, near, span, scale)
        bound_rows, after_rows = _route_bounds(inc1, inc2, tops, lb, ub,
                                               margin)
        want_bounds, want_singles, want_pairs = route_bounds_reference(
            prefix, near, inc1, inc2, lb, ub, span, scale)
        assert float_bits(bound_rows) == float_bits(want_bounds)
        for v in range(ub + 1):
            got = stop_bounds(inc1, inc2, after_rows, v, margin)
            assert float_bits(got) == float_bits(
                [want_singles[v], want_pairs[v]]), v


def increment_inputs(data):
    """(rows, directs, hops, pair_hops, rate, full) of one drawn route:
    grid points, a station possibly on a customer, and a battery that may
    equal some leg's or hop's consumption exactly, so that it leaves a
    charge of exactly 0.0."""
    point = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
    customers = data.draw(st.lists(point, min_size=1, max_size=8))
    stations = data.draw(st.lists(point, max_size=4))
    if stations and data.draw(st.booleans()):
        stations[0] = data.draw(st.sampled_from(customers))
    rate = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
    inst = make_instance(customers=customers, stations=stations)
    matrix = DistanceOracle.for_instance(inst).matrix
    first = 1 + inst.num_customers
    legs = [x for row in matrix for x in row[first:] if x > 0.0]
    full = data.draw(st.one_of(
        st.sampled_from([rate * x for x in legs] or [1.0]),
        st.floats(1.0, 80.0)))
    route = data.draw(st.permutations(list(inst.customers)))
    nodes = [0, *route, 0]
    directs = [matrix[u][w] for u, w in zip(nodes, nodes[1:])]
    rows = [matrix[u][first:] for u in nodes]
    hops, pair_hops = station_hops([row[first:] for row in matrix[first:]],
                                   rate, full)
    return rows, directs, hops, pair_hops, rate, full


class TestIncrements:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_array_build_keeps_every_bit(self, data):
        # _increments builds inc1, inc2, leg_maxes and near as numpy arrays
        # over
        # the stops the search can take; each value must carry the bits of
        # the gap-by-gap minimum over _gap_singles' and _gap_pairs' lists.
        rows, directs, hops, pair_hops, rate, full = increment_inputs(data)
        got = _increments(rows, directs, pair_hops, rate, full)
        want = increments_reference(rows, directs, hops, rate, full)
        assert float_bits(got) == float_bits(want)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_bounds_every_option_the_search_forms(self, data):
        # inc1[g] and inc2[g] must be at most the detour every single stop
        # and every pair the search can take at gap g adds, formed as the
        # search forms it from a detour of 0.0, and inf only where it can
        # take none.
        rows, directs, hops, pair_hops, rate, full = increment_inputs(data)
        inc1, inc2, *_ = _increments(rows, directs, pair_hops, rate, full)
        stations = range(len(rows[0]))
        for g, direct in enumerate(directs):
            singles = [0.0 + a + b - direct for _, a, _, b, _ in _gap_singles(
                stations, rows[g], rows[g + 1], rate, full)]
            pairs = [0.0 + a + hop + b - direct
                     for _, a, seconds in _gap_pairs(
                         rows[g], rows[g + 1], hops, rate, full)
                     for _, hop, b, _ in seconds]
            for inc, values in ((inc1[g], singles), (inc2[g], pairs)):
                assert all(inc <= value for value in values), (g, inc)
                assert (inc == math.inf) == (not values), (g, inc)

    @pytest.mark.parametrize("stations,full,ub", [
        # a station on customer 1; an unlimited battery keeps every option
        ([(3, 4), (0, 5)], math.inf, 2),
        # station 3 lies exactly 5 from customer 2: a battery of 5 leaves a
        # charge of exactly 0.0 there; ub = 1 allows no pair
        ([(3, 4), (0, 5)], 5.0, 1),
        ([(3, 4), (0, 5)], 5.0, 3),
        ([], math.inf, 2),                      # no station
        ([(-30, -40), (40, -30)], 50.5, 2),     # gap 1 has no stop
    ])
    def test_fixed_corners(self, stations, full, ub):
        inst = make_instance(customers=[(3, 4), (6, 8)], stations=stations)
        matrix = DistanceOracle.for_instance(inst).matrix
        nodes = [0, 1, 2, 0]
        directs = [matrix[u][w] for u, w in zip(nodes, nodes[1:])]
        rows = [matrix[u][3:] for u in nodes]
        hops, pair_hops = station_hops([row[3:] for row in matrix[3:]],
                                       1.0, full)
        got = _increments(rows, directs, pair_hops, 1.0, full)
        want = increments_reference(rows, directs, hops, 1.0, full)
        assert float_bits(got) == float_bits(want)
        inc1, inc2, _, near = got
        if (3, 4) in stations:
            assert 0.0 in rows[1] and near[1] == 0.0
        if not stations:
            assert inc1 == inc2 == [math.inf] * 3
        if full == 5.0:
            assert inc1[1] == rows[1][0] + rows[2][0] - directs[1]
        if full == 50.5:
            # both stations lie 50 from the depot and more than 50.5 from
            # customer 2, so no onward leg into customer 2 fits: gap 1 has
            # no single stop, and the hop of 70.7 allows no pair anywhere
            assert inc1[1] == math.inf
            assert inc1[0] < math.inf and inc1[2] < math.inf
            assert inc2 == [math.inf] * 3
        # inc2 prices pairs whatever the route's visit bound: with ub = 1,
        # every pair bound the search sums from _route_bounds is inf
        prefix = [0.0]
        for d in directs:
            prefix.append(prefix[-1] + d)
        margin = bound_margin(ub, 100.0)
        tops = _reach_tops(prefix, near, full, 100.0)
        _, after_rows = _route_bounds(inc1, inc2, tops, ub - 1, ub, margin)
        if ub == 1:
            assert inc2 != [math.inf] * 3
            assert all(x == math.inf for v in range(ub + 1)
                       for x in stop_bounds(inc1, inc2, after_rows, v,
                                            margin)[1])


class TestReachWindow:
    def test_window_holds_every_next_stop_the_search_takes(self):
        # After every stop the search can take, its own battery steps decide
        # where the next one can be: onward = full - rate * b, then c -=
        # rate * d per gap, then the stop test c - ra >= 0.  Every gap where
        # a next stop passes, and the end when the charge gets there, must
        # lie below the window's top.  A battery of exactly the consumption
        # of one stretch between nearest-station legs, give or take an ulp,
        # sits where those steps and the window's sums round apart; on_edge
        # counts the stops that only the slack keeps inside.
        rng = random.Random("reach")
        on_edge = 0
        for _ in range(1500):
            def point():
                return rng.randrange(-9, 10), rng.randrange(-9, 10)
            customers = [point() for _ in range(rng.randrange(2, 6))]
            stations = [point() for _ in range(rng.randrange(1, 4))]
            if rng.random() < 0.5:
                stations[0] = rng.choice(customers)
            points = [(0, 0), *customers, (0, 0)]
            n = len(points) - 1
            directs = [math.dist(p, q) for p, q in zip(points, points[1:])]
            rows = [[math.dist(p, s) for s in stations] for p in points]
            near = [min(row) for row in rows]
            rate = rng.choice([0.5, 0.7, 1.0, 1.2, 1.5])
            prefix = [0.0]
            for d in directs:
                prefix.append(prefix[-1] + d)
            k = rng.randrange(1, n + 1)
            j = rng.randrange(k, n + 1)
            need = rate * (near[k] + (prefix[j] - prefix[k])
                           + (near[j] if j < n else 0.0))
            full = rng.choice([need, math.nextafter(need, 0.0),
                               math.nextafter(need, math.inf)])
            if full <= 0.0:
                continue
            span = full / rate
            # the least scale solve_exhaustive passes: one visit, no hop
            scale = prefix[-1] + 2.0 * max(map(max, rows))
            tops = _reach_tops(prefix, near, span, scale)
            for k in range(1, n + 1):
                bare = prefix[k] - near[k] + span
                for b in rows[k]:
                    c = full - rate * b
                    if c < 0.0:
                        continue
                    g = k
                    while g < n:
                        if any(c - rate * a >= 0.0 for a in rows[g]):
                            assert g < tops[k], (k, g)
                            on_edge += prefix[g] + near[g] > bare
                        c -= rate * directs[g]
                        if c < 0.0:
                            break
                        g += 1
                    else:
                        assert n < tops[k], k
                        on_edge += prefix[n] > bare
        assert on_edge >= 20
