import gc
import math
import random
import weakref
from collections import Counter

import pytest

import ecvrp.moves
from ecvrp.instance import DistanceOracle, EvaluationBudget
from ecvrp.moves import (
    ALL_OPERATORS,
    DESCENT_OPERATORS,
    INTER_ROUTE,
    INTRA_ROUTE,
    InvalidTarget,
    Move,
    NoEmptyRoute,
    apply_move,
    delta_phi,
    enumerate_positions,
)
from ecvrp.search import ALL, IMPROVE_EPS, M6, M7, PlanState
from ecvrp.solution import surrogate_cost
from conftest import make_instance
from helpers import (
    decimal_demands,
    disc_point,
    e22_tight,
    m1_per_candidate_reference,
    m1_reference,
    m6_reference,
    m7_reference,
    random_feasible_plan,
    random_move,
    random_partition_plan,
)


@pytest.fixture
def seven_instance():
    rng = random.Random(42)
    customers = [(rng.uniform(-30, 30), rng.uniform(-30, 30))
                 for _ in range(7)]
    return make_instance(customers=customers, stations=[(40, 40)],
                         fleet=4, capacity=1e9)


class TestApplyExamples:
    def test_swap_within_endpoints(self):
        assert apply_move(Move.SWAP_WITHIN, [[1, 2, 3]], 0, 1, 3) == [[3, 2, 1]]

    def test_seed_empty_route(self):
        out = apply_move(Move.SEED_EMPTY_ROUTE, [[1, 2], [3], []], 0, 2, 2)
        assert out == [[1], [3], [2]]

    def test_reverse_segment(self):
        out = apply_move(Move.REVERSE_SEGMENT, [[1, 2, 3, 4]], 0, 1, 3)
        assert out == [[1, 3, 2, 4]]

    def test_relocate_within_before_and_after(self):
        assert apply_move(Move.RELOCATE_WITHIN, [[1, 2, 3]], 0, 2,
                          (1, "before")) == [[2, 1, 3]]
        assert apply_move(Move.RELOCATE_WITHIN, [[1, 2, 3]], 0, 2,
                          (3, "after")) == [[1, 3, 2]]
        # degenerate variants reproduce the plan
        assert apply_move(Move.RELOCATE_WITHIN, [[1, 2, 3]], 0, 2,
                          (1, "after")) == [[1, 2, 3]]

    def test_relocate_across_goes_after_b(self):
        out = apply_move(Move.RELOCATE_ACROSS, [[1, 2], [3, 4]], (0, 1), 1, 3)
        assert out == [[2], [3, 1, 4]]

    def test_swap_across(self):
        out = apply_move(Move.SWAP_ACROSS, [[1, 2], [3, 4]], (0, 1), 2, 3)
        assert out == [[1, 3], [2, 4]]

    def test_cross_reversed_merges_on_empty_tails(self):
        out = apply_move(Move.CROSS_REVERSED, [[1, 2], [3, 4]], (0, 1), 2, 4)
        assert out == [[1, 2, 4, 3], []]

    def test_cross_straight_exchanges_tails(self):
        out = apply_move(Move.CROSS_STRAIGHT, [[1, 2, 3], [4, 5]], (0, 1), 1, 4)
        assert out == [[1, 5], [4, 2, 3]]

    def test_input_plan_unchanged(self):
        plan = [[1, 2], [3, 4]]
        apply_move(Move.SWAP_ACROSS, plan, (0, 1), 1, 4)
        assert plan == [[1, 2], [3, 4]]


class TestApplyErrors:
    def test_intra_with_pair_target(self):
        with pytest.raises(InvalidTarget):
            apply_move(Move.SWAP_WITHIN, [[1, 2], [3]], (0, 1), 1, 3)

    def test_customer_not_on_route(self):
        with pytest.raises(InvalidTarget):
            apply_move(Move.SWAP_WITHIN, [[1, 2], [3]], 0, 1, 3)

    def test_seed_without_empty_route(self):
        with pytest.raises(NoEmptyRoute):
            apply_move(Move.SEED_EMPTY_ROUTE, [[1, 2], [3]], 0, 1, 1)

    def test_seed_to_nonempty_route(self):
        with pytest.raises(InvalidTarget):
            apply_move(Move.SEED_EMPTY_ROUTE, [[1, 2], [3], []], 0, 1, 1)

    def test_segment_end_before_start(self):
        with pytest.raises(InvalidTarget):
            apply_move(Move.REVERSE_SEGMENT, [[1, 2, 3]], 0, 3, 1)

    @pytest.mark.parametrize("call", ["apply_move", "delta_phi",
                                      "enumerate_positions"])
    @pytest.mark.parametrize("op,plan,target,a,b", [
        # -2 is route 0 of a two-route plan: not a distinct pair
        (Move.RELOCATE_ACROSS, [[1, 2, 3], [4, 5]], (0, -2), 1, 3),
        (Move.SWAP_ACROSS, [[1, 2, 3], [4, 5]], (0, 5), 1, 4),
        (Move.CROSS_STRAIGHT, [[1, 2, 3], [4, 5]], ("1", 0), 4, 1),
        (Move.SWAP_WITHIN, [[1, 2, 3], [4, 5]], 7, 4, 5),
        (Move.SWAP_WITHIN, [[1, 2, 3], [4, 5]], -1, 4, 5),
        (Move.RELOCATE_WITHIN, [[1, 2, 3], [4, 5]], 1.0, 4, (5, "after")),
        (Move.SEED_EMPTY_ROUTE, [[1, 2, 3], [4, 5], []], 3, 4, 2),
        # bool is an int subclass: True would name route 1
        (Move.SWAP_WITHIN, [[1, 2], [3, 4]], True, 3, 4),
        (Move.RELOCATE_ACROSS, [[1, 2], [3, 4]], (False, True), 1, 3),
    ])
    def test_route_index_outside_plan(self, seven_instance, call, op, plan,
                                      target, a, b):
        oracle = DistanceOracle.for_instance(seven_instance)
        run = {"apply_move": lambda: apply_move(op, plan, target, a, b),
               "delta_phi": lambda: delta_phi(op, plan, target, a, b,
                                              oracle),
               "enumerate_positions": lambda: enumerate_positions(
                   op, plan, target, a)}[call]
        with pytest.raises(InvalidTarget, match="route index"):
            run()
        assert oracle.budget.arc_access_count == 0


class TestEnumerate:
    def test_relocate_within_lists_both_sides(self):
        got = enumerate_positions(Move.RELOCATE_WITHIN, [[1, 2, 3]], 0, 2)
        assert got == [(1, "before"), (1, "after"), (3, "before"), (3, "after")]

    def test_seed_with_no_empty_route(self):
        assert enumerate_positions(Move.SEED_EMPTY_ROUTE, [[1, 2], [3]],
                                   0, 1) == []

    def test_seed_lists_empty_slots(self):
        assert enumerate_positions(Move.SEED_EMPTY_ROUTE,
                                   [[1, 2], [], [3], []], 0, 1) == [1, 3]

    def test_inter_route_single_route_target_rejected(self):
        # as in apply_move and delta_phi: an inter-route operator needs a
        # route pair, never a single route index
        plan = [[1, 2], [3, 4], [5]]
        for op in INTER_ROUTE:
            with pytest.raises(InvalidTarget):
                enumerate_positions(op, plan, 0, 1)
            with pytest.raises(InvalidTarget):
                apply_move(op, plan, 0, 1, 3)

    def test_swap_across_pair_target_stays_in_pair(self):
        plan = [[1, 2], [3, 4], [5]]
        assert enumerate_positions(Move.SWAP_ACROSS, plan, (0, 2), 1) == [5]

    def test_segment_candidates_follow_a(self):
        got = enumerate_positions(Move.REVERSE_SEGMENT, [[1, 2, 3, 4]], 0, 2)
        assert got == [4]

    def test_cross_straight_skips_identity(self):
        # both tails empty: reconnecting the final arcs changes nothing
        got = enumerate_positions(Move.CROSS_STRAIGHT, [[1, 2], [3, 4]],
                                  (0, 1), 2)
        assert got == [3]


class TestPartitionPreservation:
    def test_random_moves_preserve_partition(self, seven_instance):
        rng = random.Random(17)
        inst = seven_instance
        reference = Counter(inst.customers)
        for _ in range(400):
            routes = random_partition_plan(rng, inst)
            drawn = random_move(rng, routes)
            if drawn is None:
                continue
            op, target, a, b = drawn
            before_nonempty = sum(1 for r in routes if r)
            out = apply_move(op, routes, target, a, b)
            assert Counter(c for r in out for c in r) == reference
            after_nonempty = sum(1 for r in out if r)
            if op is not Move.SEED_EMPTY_ROUTE:
                assert after_nonempty <= before_nonempty
            else:
                src = routes[target]
                if len(src) >= 2:
                    assert after_nonempty == before_nonempty + 1


class TestDelta:
    def test_matches_full_recomputation(self, seven_instance):
        inst = seven_instance
        oracle = DistanceOracle.for_instance(inst)
        rng = random.Random(23)
        checked = Counter()
        while sum(checked.values()) < 800:
            routes = random_partition_plan(rng, inst)
            drawn = random_move(rng, routes)
            if drawn is None:
                continue
            op, target, a, b = drawn
            delta = delta_phi(op, routes, target, a, b, oracle)
            out = apply_move(op, routes, target, a, b)
            full = surrogate_cost(out, oracle) - surrogate_cost(routes, oracle)
            assert abs(delta - full) < 1e-9, (op, target, a, b)
            checked[op] += 1
        assert set(checked) == set(ALL_OPERATORS)

    def test_noop_relocate_is_zero(self):
        inst = make_instance(customers=[(1, 2), (5, 1), (3, 7)],
                             stations=[(9, 9)])
        oracle = DistanceOracle.for_instance(inst)
        assert delta_phi(Move.RELOCATE_WITHIN, [[1, 2, 3]], 0, 2,
                         (1, "after"), oracle) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_deltas_cancel(self, seven_instance):
        oracle = DistanceOracle.for_instance(seven_instance)
        plan = [[1, 2, 3], [4, 5, 6, 7]]
        fwd = delta_phi(Move.SWAP_ACROSS, plan, (0, 1), 2, 5, oracle)
        swapped = apply_move(Move.SWAP_ACROSS, plan, (0, 1), 2, 5)
        back = delta_phi(Move.SWAP_ACROSS, swapped, (0, 1), 5, 2, oracle)
        assert fwd + back == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("op,target,a,b,reads", [
        (Move.RELOCATE_WITHIN, 0, 1, (3, "after"), 6),
        (Move.SWAP_WITHIN, 0, 1, 2, 4),      # adjacent swap
        (Move.SWAP_WITHIN, 0, 1, 3, 8),      # distant swap
        (Move.REVERSE_SEGMENT, 0, 1, 3, 4),
        (Move.RELOCATE_ACROSS, (0, 1), 1, 4, 6),
        (Move.SWAP_ACROSS, (0, 1), 1, 4, 8),
        (Move.CROSS_REVERSED, (0, 1), 1, 4, 4),
        (Move.CROSS_STRAIGHT, (0, 1), 1, 4, 4),
    ])
    def test_budget_charges_per_formula(self, seven_instance, op, target,
                                        a, b, reads):
        budget = EvaluationBudget()
        oracle = DistanceOracle.for_instance(seven_instance, budget)
        delta_phi(op, [[1, 2, 3], [4, 5], [6, 7], []], target, a, b, oracle)
        assert budget.arc_access_count == reads

    def test_seed_empty_charge(self, seven_instance):
        budget = EvaluationBudget()
        oracle = DistanceOracle.for_instance(seven_instance, budget)
        delta_phi(Move.SEED_EMPTY_ROUTE, [[1, 2, 3], [4, 5], [6, 7], []],
                  0, 2, 3, oracle)
        assert budget.arc_access_count == 4


class TestScanMinimum:
    def test_failed_scan_publishes_least_candidate(self):
        # for every scan that fails, phi + dmin must equal, bit for bit, the
        # least phi_new over the single-candidate runs of the same kernel:
        # the candidates enumerate_positions lists, less those that break
        # capacity and the structural no-ops the scan skips
        rng = random.Random(8)
        customers = [disc_point(rng, 30) for _ in range(13)]
        inst = make_instance(customers=customers, stations=[(40, 40)],
                             demands=[rng.randint(1, 3) for _ in customers],
                             capacity=9, fleet=4)
        oracle = DistanceOracle.for_instance(inst)
        cap = inst.cargo_capacity
        checked = Counter()
        for _ in range(12):
            routes = random_feasible_plan(rng, inst) + [[]]
            phi = surrogate_cost(routes, oracle)
            nonempty = [t for t, r in enumerate(routes) if r]
            for op_id, op in enumerate(ALL_OPERATORS):
                if op in INTER_ROUTE:
                    targets = [(t1, t2) for t1 in nonempty for t2 in nonempty
                               if t1 != t2]
                else:           # m8 fills the empty last route
                    t2 = -1 if op in INTRA_ROUTE else len(routes) - 1
                    targets = [(t1, t2) for t1 in nonempty]
                for t1, t2 in targets:
                    for pa, a in enumerate(routes[t1]):
                        state = PlanState([list(r) for r in routes],
                                          oracle.matrix, list(inst.demands),
                                          cap, EvaluationBudget(), math.inf)
                        state.phi = phi
                        if state.kernels[op_id](state, t1, t2, pa,
                                                phi - IMPROVE_EPS):
                            continue
                        target = (t1, t2) if op in INTER_ROUTE else t1
                        phis = []
                        for b in enumerate_positions(op, routes, target, a):
                            out = apply_move(op, routes, target, a, b)
                            if out == routes or any(
                                    sum(inst.demands[c] for c in r) > cap
                                    for r in out):
                                continue
                            phis.append(phi + delta_phi(op, routes, target,
                                                        a, b, oracle))
                        assert (phi + state.dmin).hex() == \
                            min(phis, default=math.inf).hex(), (op, t1, t2, a)
                        checked[op] += bool(phis)
        assert set(checked) == set(ALL_OPERATORS) and \
            min(checked.values()) >= 20, checked


class TestM1MatchesReference:
    """_m1 prices each insertion gap with one delta; m1_reference is the
    kernel that priced the before and after sides of each customer with
    two.  From the same state, under every bar, candidate range and arc
    limit, both must return the same value and leave the same routes, phi
    and dmin bits and arc count."""

    @staticmethod
    def run(kernel, route, matrix, pa, phi, bar, lo, hi, start, limit):
        state = PlanState([list(route)], matrix, [0] * len(matrix),
                          math.inf, EvaluationBudget(), limit)
        state.budget.arc_access_count = start
        state.phi = phi
        state.dmin = 0.5            # a cut scan leaves dmin as it was
        moved = kernel(state, 0, -1, pa, bar, lo, hi)
        return (moved, state.routes, state.phi.hex(), state.dmin.hex(),
                state.budget.arc_access_count)

    def test_same_outcome_as_two_sided_kernel(self):
        rng = random.Random(26)
        inst = make_instance(
            customers=[disc_point(rng, 30) for _ in range(12)],
            stations=[(40, 40)], fleet=12, capacity=1e9)
        matrix = DistanceOracle.for_instance(inst).matrix
        outcomes = Counter()
        for length in range(1, 13):
            for _ in range(2):
                route = rng.sample(range(1, 13), length)
                phi = rng.uniform(100, 400)
                start = rng.randrange(1000)
                bars = (-math.inf, math.inf, phi + rng.uniform(-40, 5))
                ranges = [(lo, hi) for lo in range(2 * length + 1)
                          for hi in [*range(lo, 2 * length + 2), ALL]]
                for pa in range(length):
                    for bar in bars:
                        for lo, hi in ranges:
                            args = (route, matrix, pa, phi, bar, lo, hi,
                                    start, math.inf)
                            want = self.run(m1_reference, *args)
                            assert self.run(PlanState._m1, *args) == want, \
                                (route, pa, bar, lo, hi)
                            outcomes[want[0], hi - lo == 1] += 1
                        full = self.run(m1_reference, route, matrix, pa, phi,
                                        bar, 0, ALL, start, math.inf)[-1]
                        for limit in range(start, full + 1):
                            args = (route, matrix, pa, phi, bar, 0, ALL,
                                    start, limit)
                            assert self.run(PlanState._m1, *args) == \
                                self.run(m1_reference, *args), \
                                (route, pa, bar, limit)
        # single candidates and wider ranges both accept and fail
        assert min(outcomes.values()) > 100, outcomes

    def test_same_outcome_as_per_candidate_kernel(self):
        # the kernel before it priced each gap once: at every arc limit
        # from the scan's start to past its end, over full and partial
        # candidate ranges, including ranges that hold one copy of a gap
        rng = random.Random(27)
        inst = make_instance(
            customers=[disc_point(rng, 30) for _ in range(9)],
            stations=[(40, 40)], fleet=9, capacity=1e9)
        matrix = DistanceOracle.for_instance(inst).matrix
        outcomes = Counter()
        for length in range(1, 10):
            route = rng.sample(range(1, 10), length)
            phi = rng.uniform(100, 300)
            start = rng.randrange(1000)
            bars = (-math.inf, math.inf, phi + rng.uniform(-30, 5))
            ranges = [(0, ALL), *((lo, hi) for lo in range(2 * length + 1)
                                  for hi in range(lo, 2 * length + 2, 3))]
            for pa in range(length):
                for bar in bars:
                    for lo, hi in ranges:
                        full = self.run(m1_per_candidate_reference, route,
                                        matrix, pa, phi, bar, lo, hi, start,
                                        math.inf)[-1]
                        for limit in range(start, full + 2):
                            args = (route, matrix, pa, phi, bar, lo, hi,
                                    start, limit)
                            want = self.run(m1_per_candidate_reference, *args)
                            assert self.run(PlanState._m1, *args) == want, \
                                (route, pa, bar, lo, hi, limit)
                            outcomes[want[0], limit < full] += 1
        # scans accept, fail and are cut by the limit
        assert len(outcomes) == 4 and min(outcomes.values()) > 100, outcomes


class TestCrossMatchesReference:
    """m6 and m7 share one kernel, _cross; m6_reference and m7_reference
    are the two kernels it replaced.  From the same state, under every
    bar, full and partial candidate range and arc limit from the scan's
    start to past its end, each operator's kernel must return the same
    value and leave the same routes, loads, route lists, phi and dmin bits
    and arc count as its reference."""

    @staticmethod
    def run(kernel, plan, inst, matrix, t1, t2, pa, phi, bar, lo, hi, start,
            limit):
        state = PlanState([list(r) for r in plan], matrix,
                          *inst.cargo_units, EvaluationBudget(), limit)
        state.budget.arc_access_count = start
        state.phi = phi
        state.dmin = 0.5            # a cut scan leaves dmin as it was
        moved = kernel(state, t1, t2, pa, bar, lo, hi)
        return (moved, state.routes, state.loads, state.nonempty,
                state.empties, state.phi.hex(), state.dmin.hex(),
                state.budget.arc_access_count)

    @pytest.mark.parametrize("make", [e22_tight, decimal_demands])
    def test_same_outcome_as_separate_kernels(self, make):
        # plans of four to seven routes, some over capacity, so that the
        # windows bind at both ends; lo > 0 starts head2 from the demand
        # ahead of the range
        rng = random.Random(33)
        inst = make(rng)
        matrix = DistanceOracle.for_instance(inst).matrix
        outcomes = Counter()
        emptied = Counter()
        for _ in range(3):
            plan = random_partition_plan(rng, inst, rng.randint(4, 7))
            phi = rng.uniform(200, 400)
            used = [t for t, r in enumerate(plan) if r]
            for t1 in used:
                for t2 in range(len(plan)):
                    if t2 == t1:
                        continue
                    length2 = len(plan[t2])
                    ranges = [(0, ALL), *((lo, hi) for lo in range(length2)
                                          for hi in (lo + 1, lo + 2, ALL))]
                    for pa in range(len(plan[t1])):
                        start = rng.randrange(1000)
                        bars = (-math.inf, math.inf,
                                phi + rng.uniform(-30, 5))
                        for op, reference in ((M6, m6_reference),
                                              (M7, m7_reference)):
                            kernel = PlanState.kernels[op]
                            for bar in bars:
                                for lo, hi in ranges:
                                    args = (plan, inst, matrix, t1, t2, pa,
                                            phi, bar, lo, hi, start)
                                    full = self.run(reference, *args,
                                                    math.inf)
                                    for limit in range(start, full[-1] + 2):
                                        want = self.run(reference, *args,
                                                        limit)
                                        assert self.run(kernel, *args,
                                                        limit) == want, \
                                            (op, plan, t1, t2, pa, bar, lo,
                                             hi, limit)
                                        outcomes[op, want[0],
                                                 limit < full[-1]] += 1
                                    emptied[op] += \
                                        full[0] and not full[1][t2]
        # both kernels accept and fail, within and at the limit, and only
        # m6 empties a route
        assert len(outcomes) == 8 and min(outcomes.values()) > 20, outcomes
        assert emptied[M6] and not emptied[M7], emptied


class TestKernelStateLifetime:
    def test_single_candidate_state_freed(self, monkeypatch, seven_instance):
        # with the collector off, a state that is part of a reference cycle
        # would outlive every delta_phi and apply_move call
        states = []

        class Tracked(PlanState):
            def __init__(self, *args):
                super().__init__(*args)
                states.append(weakref.ref(self))

        monkeypatch.setattr(ecvrp.moves, "PlanState", Tracked)
        oracle = DistanceOracle.for_instance(seven_instance)
        plan = [[1, 2, 3], [4, 5], [6, 7], []]
        gc.collect()
        gc.disable()
        try:
            delta_phi(Move.SWAP_ACROSS, plan, (0, 1), 2, 5, oracle)
            apply_move(Move.REVERSE_SEGMENT, plan, 0, 1, 3)
            assert len(states) == 2 and all(ref() is None for ref in states)
        finally:
            gc.enable()


def test_operator_classification():
    assert INTRA_ROUTE == (Move.RELOCATE_WITHIN, Move.SWAP_WITHIN,
                           Move.REVERSE_SEGMENT)
    assert INTER_ROUTE == (Move.RELOCATE_ACROSS, Move.SWAP_ACROSS,
                           Move.CROSS_REVERSED, Move.CROSS_STRAIGHT)
    assert set(ALL_OPERATORS) == set(INTRA_ROUTE + INTER_ROUTE) | {
        Move.SEED_EMPTY_ROUTE}
    assert DESCENT_OPERATORS == ALL_OPERATORS[:-1]
    assert [op.value for op in ALL_OPERATORS] == [
        "m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8"]
