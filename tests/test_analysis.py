import math
import random

import pytest

from ecvrp.analysis import (
    DegenerateInput,
    InstanceTooLarge,
    SamplePair,
    brute_force_optimum,
    canonical_plan_key,
    collect_pairs,
    correlation_report_row,
    kendall_tau_b,
    pairs_to_csv,
    recall_at_k,
)
from ecvrp.instance import DistanceOracle, EvaluationBudget
from ecvrp.search import InstanceInfeasible, SearchParams
from ecvrp.solution import battery_feasible, check_upper_feasible, expand_route
from conftest import make_instance
from helpers import certified_tiny_fixture


def naive_tau_b(pairs):
    """Direct O(n^2) pair counting straight from the definition."""
    n = len(pairs)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = pairs[i][0] - pairs[j][0]
            dy = pairs[i][1] - pairs[j][1]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt(
        (n0 - ties_x) * (n0 - ties_y))


class TestKendall:
    def test_perfect_concordance(self):
        assert kendall_tau_b([(1, 10), (2, 20), (3, 30)]) == 1.0

    def test_perfect_discordance(self):
        assert kendall_tau_b([(1, 30), (2, 20), (3, 10)]) == -1.0

    def test_tied_pairs_hand_counted(self):
        # one concordant pair, one tie on each coordinate:
        # tau = 1 / sqrt(2 * 2)
        assert kendall_tau_b([(1, 1), (1, 2), (2, 2)]) == pytest.approx(0.5)

    def test_matches_naive_definition(self):
        rng = random.Random(13)
        for trial in range(25):
            n = rng.randrange(2, 40)
            pairs = [(rng.randrange(6), rng.randrange(6)) for _ in range(n)]
            try:
                expected = naive_tau_b(pairs)
            except ZeroDivisionError:
                continue
            if all(p[0] == pairs[0][0] for p in pairs) or \
                    all(p[1] == pairs[0][1] for p in pairs):
                continue
            assert kendall_tau_b(pairs) == pytest.approx(expected, abs=1e-12)

    def test_antisymmetric_under_negation(self):
        rng = random.Random(3)
        pairs = [(rng.random(), rng.random()) for _ in range(60)]
        flipped = [(x, -y) for x, y in pairs]
        assert kendall_tau_b(flipped) == pytest.approx(
            -kendall_tau_b(pairs), abs=1e-12)

    def test_degenerate_coordinate_rejected(self):
        with pytest.raises(DegenerateInput):
            kendall_tau_b([(1, 5), (1, 7), (1, 2)])
        with pytest.raises(DegenerateInput):
            kendall_tau_b([(1, 5)])

    def test_accepts_sample_pairs(self):
        pairs = [SamplePair(1.0, 2.0), SamplePair(2.0, 3.0),
                 SamplePair(3.0, 9.0)]
        assert kendall_tau_b(pairs) == 1.0


class TestRecall:
    def test_identical_rankings(self):
        pairs = [(float(i), float(i) * 2) for i in range(10)]
        for k in (1, 5, 10, 20, 50, 100):
            assert recall_at_k(pairs, k) == 1.0

    def test_reversed_rankings_half(self):
        pairs = [(float(i), float(9 - i)) for i in range(10)]
        assert recall_at_k(pairs, 50) == 0.0

    def test_one_misaligned_top_item(self):
        # 20 points; top-2 by phi are items 0,1 but full cost of item 1
        # is pushed to the bottom: overlap 1 of 2
        pairs = [(float(i), float(i)) for i in range(20)]
        pairs[1] = (1.0, 99.0)
        assert recall_at_k(pairs, 10) == 0.5

    def test_full_percentage_is_always_one(self):
        rng = random.Random(5)
        pairs = [(rng.random(), rng.random()) for _ in range(17)]
        assert recall_at_k(pairs, 100) == 1.0

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([(1, 1)], 0)
        with pytest.raises(ValueError):
            recall_at_k([(1, 1)], 101)


class TestBruteForce:
    def test_single_customer_out_and_back(self):
        inst = make_instance(customers=[(30, 40)], stations=[(10, 10)],
                             battery=1e9)
        sol = brute_force_optimum(inst)
        assert sol.total_cost == pytest.approx(100.0)
        assert sum(map(bool, sol.routing.routes)) == 1

    def test_two_customers_classic_minimum(self):
        inst = make_instance(customers=[(20, 0), (0, 30)], stations=[(9, 9)],
                             demands=[1, 1], capacity=5, battery=1e9, fleet=2)
        sol = brute_force_optimum(inst)
        d1, d2 = 40.0, 60.0
        joint = 20.0 + math.dist((20, 0), (0, 30)) + 30.0
        assert sol.total_cost == pytest.approx(min(d1 + d2, joint))

    def test_guards(self):
        big = make_instance(customers=[(i, 1) for i in range(1, 10)],
                            stations=[(5, 5)], fleet=9)
        with pytest.raises(InstanceTooLarge):
            brute_force_optimum(big)
        many_stations = make_instance(customers=[(5, 5)],
                                      stations=[(1, 1), (2, 2), (3, 3),
                                                (4, 4)])
        with pytest.raises(InstanceTooLarge):
            brute_force_optimum(many_stations)

    def test_infeasible_instance_raises(self):
        inst = make_instance(customers=[(500, 0)], stations=[(5, 5)],
                             battery=100, rate=1.0)
        with pytest.raises(InstanceInfeasible):
            brute_force_optimum(inst)

    def test_pair_insertion_found(self):
        inst = make_instance(customers=[(200, 0)], stations=[(60, 5), (145, 0)],
                             battery=120, rate=1.0, fleet=1)
        sol = brute_force_optimum(inst)
        assert sol.charging == (((2, 3), (3, 2)),)

    def test_result_is_feasible_and_dominates_samples(self):
        rng = random.Random(40)
        inst, exact = certified_tiny_fixture(rng)
        oracle = DistanceOracle.for_instance(inst)
        assert check_upper_feasible(exact.routing.routes, inst).ok
        for route, slots in zip(exact.routing.routes, exact.charging):
            if route:
                assert battery_feasible(expand_route(route, slots), inst,
                                        oracle).ok
        assert exact.total_cost == pytest.approx(
            exact.surrogate + exact.detour_cost)


class TestPairCollection:
    def test_canonical_key_ignores_route_order(self):
        a = [[3, 1], [2], []]
        b = [[], [2], [3, 1]]
        assert canonical_plan_key(a) == canonical_plan_key(b)
        assert canonical_plan_key([[1, 3], [2]]) != canonical_plan_key(a)

    def test_charge_free_instance_perfectly_correlated(self):
        rng = random.Random(2)
        pts = [(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(7)]
        inst = make_instance(customers=pts, stations=[(15, 15)],
                             demands=[1] * 7, capacity=3, battery=1e9,
                             fleet=4)
        budget = EvaluationBudget(max_arc_accesses=400_000)
        pairs = collect_pairs(
            inst, SearchParams(seed=3, history_length=60, max_attempts=10,
                               follower_threshold=1.10), budget)
        assert len(pairs) >= 5
        for p in pairs:
            assert p.full_cost == pytest.approx(p.surrogate, abs=1e-6)
        assert kendall_tau_b(pairs) > 0.999

    def test_pairs_unique_and_f_dominates_phi(self):
        rng = random.Random(8)
        inst, _ = certified_tiny_fixture(rng)
        budget = EvaluationBudget(max_arc_accesses=300_000)
        pairs = collect_pairs(inst, SearchParams(seed=4, history_length=60,
                                                 max_attempts=10), budget)
        assert pairs
        for p in pairs:
            assert p.full_cost >= p.surrogate - 1e-6

    def test_csv_shape(self):
        text = pairs_to_csv([SamplePair(1.5, 2.5)])
        assert text.splitlines()[0] == "phi,F"
        assert "1.5" in text

    def test_report_row_blank_when_degenerate(self):
        row = correlation_report_row("x", [])
        assert row["n_samples"] == 0
        assert row["tau_b"] == ""
        row = correlation_report_row("x", [SamplePair(1, 1),
                                           SamplePair(1, 2)])
        assert row["tau_b"] == ""
