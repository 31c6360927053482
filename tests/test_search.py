import gc
import math
import random
import sys
import time
import weakref
from collections import Counter
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

import pytest

from ecvrp import search
from ecvrp.instance import DistanceOracle, EvaluationBudget
from ecvrp.moves import (
    DESCENT_OPERATORS,
    INTRA_ROUTE,
    apply_move,
    delta_phi,
    enumerate_positions,
)
from ecvrp.search import (
    M1,
    M2,
    M3,
    M4,
    M5,
    M6,
    M7,
    PARAM_MAX,
    AblationToggles,
    IncumbentInfeasible,
    InstanceInfeasible,
    PlanState,
    SearchParams,
    _Engine,
    run_blahc,
    split_giant_tour,
)
from ecvrp.solution import check_upper_feasible, surrogate_cost
from conftest import make_instance
from helpers import (
    certified_tiny_fixture,
    decimal_demands,
    descend_reference,
    e22_like,
    e22_tight,
    explore_reference,
    full_surrogate,
    random_feasible_plan,
    random_partition_plan,
    x143_like,
)


def all_segmentations(perm, max_parts):
    if not perm:
        yield []
        return
    for first_len in range(1, len(perm) + 1):
        if max_parts == 0:
            return
        head = perm[:first_len]
        for rest in all_segmentations(perm[first_len:], max_parts - 1):
            yield [head] + rest


def best_segmentation_cost(perm, inst):
    best = math.inf
    for seg in all_segmentations(list(perm), inst.fleet_size):
        if any(sum(inst.demands[c] for c in part) > inst.cargo_capacity
               for part in seg):
            continue
        best = min(best, full_surrogate(seg, inst))
    return best


class TestSplit:
    def test_two_customers_picks_cheaper_of_both_splits(self):
        inst = make_instance(customers=[(10, 0), (12, 0)], stations=[(5, 5)],
                             demands=[1, 1], capacity=5, fleet=2)
        oracle = DistanceOracle.for_instance(inst)
        plan = split_giant_tour([1, 2], inst, oracle)
        joint = full_surrogate([[1, 2]], inst)
        separate = full_surrogate([[1], [2]], inst)
        assert surrogate_cost(plan, oracle) == pytest.approx(
            min(joint, separate))

    def test_full_demand_forces_singletons(self):
        inst = make_instance(customers=[(10, 0), (0, 10), (-10, 0)],
                             stations=[(5, 5)], demands=[4, 4, 4], capacity=4,
                             fleet=3)
        oracle = DistanceOracle.for_instance(inst)
        plan = split_giant_tour([2, 1, 3], inst, oracle)
        assert sorted(len(r) for r in plan) == [1, 1, 1]

    def test_matches_exhaustive_segmentation_oracle(self):
        rng = random.Random(31)
        inst = make_instance(
            customers=[(rng.uniform(-30, 30), rng.uniform(-30, 30))
                       for _ in range(6)],
            stations=[(40, 40)], demands=[2, 3, 1, 2, 3, 1], capacity=6,
            fleet=3)
        oracle = DistanceOracle.for_instance(inst)
        for _ in range(25):
            perm = list(inst.customers)
            rng.shuffle(perm)
            routes = split_giant_tour(perm, inst, oracle)
            got = full_surrogate(routes, inst)
            assert got == pytest.approx(best_segmentation_cost(perm, inst))
            assert check_upper_feasible(routes, inst).ok

    def test_budget_charge(self):
        inst = make_instance(customers=[(10, 0), (0, 10), (-10, 0)],
                             stations=[(5, 5)], fleet=2)
        budget = EvaluationBudget()
        oracle = DistanceOracle.for_instance(inst, budget)
        split_giant_tour([1, 2, 3], inst, oracle)
        assert budget.arc_access_count == 2 * 3 - 1

    def test_split_infeasible_when_fleet_too_small(self):
        inst = make_instance(customers=[(10, 0), (0, 10), (-10, 0)],
                             stations=[(5, 5)], demands=[5, 5, 5], capacity=5,
                             fleet=2)
        oracle = DistanceOracle.for_instance(inst)
        with pytest.raises(InstanceInfeasible):
            split_giant_tour([1, 2, 3], inst, oracle)


def engine_on(plan, inst, seed, max_attempts=60):
    """An engine holding plan, its generator seeded with seed."""
    engine = _Engine(inst, SearchParams(max_attempts=max_attempts, seed=seed),
                     EvaluationBudget())
    engine.load_plan(plan)
    return engine


def descended(plan, inst, seed):
    engine = engine_on(plan, inst, seed)
    engine.descend()
    return engine.routes


def assert_slots_current(engine):
    """The per-slot state _intern keeps matches the routes: each slot's
    content id, its memo row key, its anchor count and, where _slot has
    built them since, its block arrays.  Returns how many slots held
    arrays."""
    matrix = engine.matrix
    built = 0
    for t, route in enumerate(engine.routes):
        assert engine.ids[t] == engine.content_ids[tuple(route)], t
        assert engine.row_keys[t] == engine.ids[t] * engine.stride, t
        assert engine.lengths[t] == len(route), t
        arrays = engine.slot_arrays[t]
        if arrays is None:
            continue
        built += 1
        ext, own, skip, units, heads = (x.tolist() for x in arrays)
        padded = [0, *route, 0]
        assert ext == padded, t
        assert own == [matrix[u][w] for u, w in zip(padded, padded[1:])], t
        assert skip == [matrix[u][w] for u, w in zip(padded, padded[2:])], t
        assert units == [engine.demands[c] for c in route], t
        assert heads == list(accumulate(units)), t
    return built


class TestSearchParams:
    def test_history_and_attempts_capped(self):
        SearchParams(history_length=PARAM_MAX, max_attempts=PARAM_MAX)
        for name in ("history_length", "max_attempts"):
            with pytest.raises(ValueError, match=str(PARAM_MAX)):
                SearchParams(**{name: PARAM_MAX + 1})

    @pytest.mark.parametrize("name, value", [
        ("follower_threshold", math.nan), ("follower_threshold", math.inf),
        ("follower_threshold", 0.5), ("alpha_lb", math.nan),
        ("alpha_lb", -math.inf), ("alpha_ub", math.nan),
        ("alpha_ub", math.inf), ("alpha_ub", 0.99)])
    def test_non_finite_or_out_of_range_rejected(self, name, value):
        # nan passed the old `follower_threshold < 1.0` test, and an infinite
        # alpha_ub made every history threshold infinite
        with pytest.raises(ValueError, match="must be finite"):
            SearchParams(**{name: value})

    def test_negative_seed_rejected(self):
        # random.Random(-3) draws the stream of random.Random(3), so a
        # negative seed would rerun its positive twin
        SearchParams(seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SearchParams(seed=-3)


class TestGreedyDescent:
    @pytest.fixture
    def mid_instance(self):
        rng = random.Random(4)
        return make_instance(
            customers=[(rng.uniform(-40, 40), rng.uniform(-40, 40))
                       for _ in range(8)],
            stations=[(20, 20)], demands=[2, 1, 3, 2, 1, 2, 3, 1],
            capacity=7, fleet=3)

    def test_never_worsens(self, mid_instance):
        inst = mid_instance
        rng = random.Random(8)
        for trial in range(10):
            plan = random_feasible_plan(rng, inst)
            before = full_surrogate(plan, inst)
            out = descended(plan, inst, trial)
            assert full_surrogate(out, inst) <= before + 1e-9

    def test_output_is_local_optimum(self, mid_instance):
        inst = mid_instance
        oracle = DistanceOracle.for_instance(inst)
        plan = random_feasible_plan(random.Random(1), inst)
        routes = descended(plan, inst, 2)
        for op in DESCENT_OPERATORS:
            for t1 in range(len(routes)):
                if not routes[t1]:
                    continue
                targets = [t1] if op in INTRA_ROUTE else [
                    (t1, t2) for t2 in range(len(routes))
                    if t2 != t1 and routes[t2]]
                for target in targets:
                    for a in routes[t1]:
                        for b in enumerate_positions(op, routes, target, a):
                            candidate = [list(r) for r in routes]
                            moved = apply_move(op, candidate, target, a, b)
                            if not check_upper_feasible(moved, inst).ok:
                                continue
                            delta = delta_phi(op, routes, target, a, b, oracle)
                            assert delta >= -1e-9, (op, target, a, b)

    def test_fixpoint_when_already_optimal(self, mid_instance):
        inst = mid_instance
        plan = random_feasible_plan(random.Random(3), inst)
        once = descended(plan, inst, 5)
        again = descended(once, inst, 6)
        assert full_surrogate(again, inst) == pytest.approx(
            full_surrogate(once, inst))

    def test_wall_clock_limit_stops_descent(self, mid_instance):
        inst = mid_instance
        plan = random_feasible_plan(random.Random(1), inst)
        spent = {}
        for limit in (3600.0, 0.0):
            budget = EvaluationBudget(wall_clock_limit=limit)
            engine = _Engine(inst, SearchParams(), budget)
            engine.load_plan(plan)
            loaded = budget.arc_access_count
            engine.descend()
            spent[limit] = budget.arc_access_count - loaded
            if limit == 0.0:
                assert engine.routes == plan
        # with time left descent runs on an infinite arc limit; an expired
        # clock stops it at its first poll, before any scan
        assert spent[3600.0] > 0
        assert spent[0.0] == 0

    def test_clock_read_once_per_pass(self):
        # a wall-clock descent reads the clock before each operator and at
        # the top of each pass over a target's anchors, right before the
        # pass looks up its memo row, which marks the pass's start in the
        # log.  Every pass start follows a read and no read falls inside a
        # pass.  Whichever read first finds the deadline passed, no pass
        # starts and no kernel runs after it, the passes and kernel runs
        # before it are those of the untimed descent, and the rescanning
        # reference, which runs every anchor's kernel, stops at the same
        # read in the same state
        inst = e22_like(random.Random(5))
        plan = random_partition_plan(random.Random(6), inst, 4)

        class Deadline(EvaluationBudget):
            """Time left for the first `left` clock reads, none after."""

            def __init__(self, left, log):
                super().__init__(wall_clock_limit=3600.0)
                self.left = left
                self.reads = 0
                self.log = log

            def exceeded(self):
                self.reads += 1
                self.log.append(("read", self.reads))
                return self.reads > self.left

        def descend(cls, left):
            log = []
            budget = Deadline(left, log)
            engine = cls(inst, SearchParams(seed=2), budget)
            engine.load_plan(plan)

            class Memo(dict):
                """One operator's memo, logging each row lookup."""

                def __init__(self, op):
                    super().__init__()
                    self.op = op

                def get(self, key, default=None):
                    log.append(("pass", self.op, budget.reads))
                    return super().get(key, default)

            def logged(op, kernel):
                def scan(state, t1, t2, pa, *args):
                    log.append(("kernel", op, t1, t2, pa, budget.reads))
                    return kernel(state, t1, t2, pa, *args)
                return scan

            engine.memo = [Memo(op) for op in range(8)]
            engine.kernels = tuple(logged(op, kernel)
                                   for op, kernel in enumerate(cls.kernels))
            engine.descend()
            return log, (engine.routes, engine.phi.hex(),
                         budget.arc_access_count, budget.reads)

        untimed, (_, _, _, reads) = descend(_Engine, math.inf)
        passes = [event for event in untimed if event[0] == "pass"]
        kernels = [event for event in untimed if event[0] == "kernel"]
        # every read starts a pass but those before an operator, which
        # no pass follows at once
        tops = [event for event, after in zip(untimed, untimed[1:] + [None])
                if event[0] == "read" and (after is None or after[0] != "pass")]
        assert kernels and reads == len(passes) + len(tops)
        assert len(tops) <= 7 * len(passes)
        last = None
        for prev, event in zip(untimed, untimed[1:]):
            if event[0] == "pass":
                # one read right before each pass
                assert prev == ("read", event[2]), event
            if event[0] != "kernel":
                last = event
            else:
                # no read inside a pass: a kernel runs in the pass of its
                # operator, at the read that started it
                assert last[0] == "pass" and last[1] == event[1], event
                assert last[2] == event[5], event
        untimed_runs = [event for event in untimed if event[0] != "read"]
        for left in range(reads):
            log, state = descend(_Engine, left)
            runs = [event for event in log if event[0] != "read"]
            assert runs == untimed_runs[:len(runs)], left
            assert all(run[-1] <= left for run in runs), left
            assert state == descend(ReferenceEngine, left)[1], left


class TestNeighborhoodExplore:
    @pytest.fixture
    def frozen_instance(self):
        return frozen_like(None)

    def test_vacuous_threshold_accepts_first_candidate(self, frozen_instance):
        # the operator is drawn once per call; draws with no candidates on
        # singleton routes return unmoved, so sample a few seeds
        plan = [[1], [2]]
        outcomes = [engine_on(plan, frozen_instance, s).explore(math.inf)
                    for s in range(8)]
        assert any(outcomes)

    def test_zero_threshold_accepts_nothing(self, frozen_instance):
        plan = [[1], [2]]
        for seed in range(5):
            engine = engine_on(plan, frozen_instance, seed)
            assert not engine.explore(0.0)
            assert engine.routes == [[1], [2]]

    def test_deterministic_replay(self):
        rng_inst = random.Random(12)
        inst = make_instance(
            customers=[(rng_inst.uniform(-30, 30), rng_inst.uniform(-30, 30))
                       for _ in range(7)],
            stations=[(25, 25)], demands=[1] * 7, capacity=4, fleet=3)
        plan = random_feasible_plan(random.Random(9), inst)
        phi = full_surrogate(plan, inst)
        outcomes = []
        for _ in range(2):
            engine = engine_on(plan, inst, 77)
            outcomes.append((engine.explore(phi * 1.01), engine.routes))
        assert outcomes[0] == outcomes[1]

    def test_inter_route_operator_without_partner_returns_at_once(self):
        # with one non-empty route no inter-route attempt draws or reads an
        # arc, so a call must end at once, not loop over max_attempts (ten
        # calls of 10**6 attempts took about 1 s when it looped)
        inst = make_instance(customers=[(10, 0), (0, 10)], stations=[(5, 5)],
                             fleet=2)
        engine = engine_on([[1, 2], []], inst, 1, max_attempts=PARAM_MAX)
        engine.explore_ops = [M2, M4, M6, M7]
        start = time.perf_counter()
        for _ in range(10):
            assert not engine.explore(math.inf)
        assert time.perf_counter() - start < 0.25
        assert engine.budget.arc_access_count == 3

    def test_calls_without_arcs_draw_and_return(self, monkeypatch):
        # one customer on one vehicle: m8 has no empty route and m1, m3 and
        # m5 no second customer, so no attempt reads an arc.  Each call
        # still draws its floats but must not loop over them one attempt at
        # a time (the run took 3.4 s when it did)
        inst = make_instance(customers=[(10, 0)], stations=[(5, 5)], fleet=1)
        check_calls_without_arcs(monkeypatch, inst)

    def test_m5_calls_without_arcs_draw_and_return(self, monkeypatch):
        # two customers on one vehicle: m5 has no segment of two or more
        # customers after a, so none of its attempts reads an arc (the run
        # took 0.9 s when its calls looped over every attempt)
        inst = make_instance(customers=[(10, 0), (0, 10)], stations=[(5, 5)],
                             fleet=1)
        check_calls_without_arcs(monkeypatch, inst)


def check_calls_without_arcs(monkeypatch, inst):
    """A run at max_attempts PARAM_MAX ends in under 0.5 s, and at 10**4
    leaves the same solution, trace and generator state after every
    exploration call as explore_reference."""
    def solve(attempts):
        return run_blahc(
            inst, SearchParams(history_length=5, max_attempts=attempts),
            EvaluationBudget(max_arc_accesses=20_000))

    start = time.perf_counter()
    solve(PARAM_MAX)
    assert time.perf_counter() - start < 0.5

    def recorded(explore, states):
        def call(engine, phi_vi):
            moved = explore(engine, phi_vi)
            states.append((moved, engine.rng.getstate()))
            return moved
        return call

    outputs = []
    for explore in (_Engine.explore, explore_reference):
        states = []
        monkeypatch.setattr(_Engine, "explore", recorded(explore, states))
        sol, trace = solve(10**4)
        outputs.append((sol, trace.to_csv(), states))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][2]) > 1


def frozen_like(rng):
    """Two collinear opposite customers: every inter-route candidate is an
    exact zero-delta move, so thresholds decide acceptance alone."""
    return make_instance(customers=[(-50, 0), (50, 0)],
                         stations=[(999, 999)], demands=[1, 1],
                         capacity=9, fleet=2)


def huge_units(rng):
    """e22_like on eight vehicles with demands of k = 2**59 + 128 or 2 k
    and cargo 16 k: the cargo units are Python ints, a plan's loads pass
    what int64 holds, and a sum of three or more k need not fit a float64,
    while a head load of 16 k meets the cargo exactly."""
    base = e22_like(rng)
    k = 2 ** 59 + 128
    return replace(base, cargo_capacity=float(16 * k), fleet_size=8,
                   demands=tuple(rng.choice((float(k), float(2 * k)))
                                 if node in base.customers else 0.0
                                 for node in range(len(base.demands))))


class TestExploreMatchesReference:
    """_Engine.explore against explore_reference, which rescans every
    repeated target: twin engines on the same plan, generator state, arc
    limit and threshold must end in the same state, bit for bit."""

    @staticmethod
    def run(explore, inst, plan, seed, attempts, op, phi_vi, headroom):
        """The end state of one call, and per kernel call (target, arcs
        read before it, arcs it read, moved)."""
        calls = []
        engine = _Engine(
            inst, SearchParams(max_attempts=attempts, seed=seed),
            EvaluationBudget(), trace_level="full",
            hooks={"on_accept": lambda *phis: calls.append(
                tuple(p.hex() for p in phis))})
        engine.load_plan(plan)
        engine.explore_ops = [op]
        budget = engine.budget
        loaded = budget.arc_access_count
        engine.arc_limit = loaded + headroom
        log = []

        def logged(kernel):
            def scan(state, t1, t2, pa, threshold):
                start = budget.arc_access_count
                moved = kernel(state, t1, t2, pa, threshold)
                log.append(((t1, t2, pa), start - loaded,
                            budget.arc_access_count - start, moved))
                return moved
            return scan

        engine.kernels = tuple(logged(k) for k in engine.kernels)
        moved = explore(engine, phi_vi)
        return (moved, engine.routes, engine.loads, engine.nonempty,
                engine.empties, engine.phi.hex(), budget.arc_access_count,
                engine.rng.getstate(), calls, engine.trace.to_csv()), log

    @staticmethod
    def crossing_headrooms(log):
        """Arc limits at which the first repeat of a failed target that
        read arcs cannot be skipped: its recorded arcs would pass the
        limit, so the reference's rescan stops short or just finishes."""
        failed = set()
        for target, start, arcs, moved in log:
            if target in failed and arcs > 0:
                return [start + 1, start + arcs // 2, start + arcs - 1,
                        start + arcs]
            if not moved:
                failed.add(target)
        return []

    @pytest.mark.parametrize("make, plans", [
        (e22_like, 2), (e22_tight, 2), (x143_like, 1), (frozen_like, 2)])
    def test_same_state_as_rescanning(self, make, plans):
        rng = random.Random(17)
        inst = make(rng)
        repeats = crossings = 0
        for p in range(plans):
            if make is frozen_like:
                plan = [[1], [2]] if p == 0 else [[1, 2], []]
            else:
                # a random plan accepts at once; on a descended one most
                # attempts fail, so targets repeat
                plan = random_partition_plan(
                    rng, inst, rng.randint(1, inst.route_slots))
                if p % 2 == 0:
                    plan = descended(plan, inst, p)
            phi = engine_on(plan, inst, 0).phi
            for op in range(8):
                for phi_vi in (math.inf, 1.01 * phi, phi, 0.0):
                    for attempts in (1, 60, 500):
                        args = (inst, plan, rng.randrange(1 << 30), attempts,
                                op, phi_vi)
                        expected, log = self.run(explore_reference, *args,
                                                 math.inf)
                        targets = [entry[0] for entry in log]
                        repeats += len(targets) - len(set(targets))
                        limits = self.crossing_headrooms(log)
                        crossings += bool(limits)
                        for headroom in [math.inf, 0, *limits]:
                            if headroom != math.inf:
                                expected, _ = self.run(explore_reference,
                                                       *args, headroom)
                            got, _ = self.run(_Engine.explore, *args,
                                              headroom)
                            assert got == expected, (op, phi_vi, attempts,
                                                     headroom)
        assert repeats > 0 and crossings > 0


class ReferenceEngine(_Engine):
    """Runs every kernel again: neither descent nor exploration reads the
    memo."""
    explore = explore_reference
    _descend_target = descend_reference


class TestMemoMatchesReference:
    """The memo lives across exploration calls, descent passes and plans:
    twin engines, one with it and one rescanning, go through plan loads,
    descents and hundreds of exploration calls under history-like
    thresholds and arc limits, and must agree bit for bit after every
    call."""

    @staticmethod
    def twin(cls, inst, seed, outcomes=None):
        """An engine with its kernel runs counted; with outcomes, a dict,
        every failed full scan is logged there as (op, a, routes read) ->
        [(loads read, arcs, dmin), ...]."""
        accepts = []
        engine = cls(inst, SearchParams(seed=seed), EvaluationBudget(),
                     trace_level="full",
                     hooks={"on_accept": lambda *phis: accepts.append(
                         tuple(p.hex() for p in phis))})
        scans = [0, 0]              # kernel runs; those cut at the limit

        def counted(op, kernel):
            def scan(state, t1, t2, pa, *args):
                start = state.budget.arc_access_count
                read = (op, state.routes[t1][pa], tuple(state.routes[t1]),
                        tuple(state.routes[t2]) if t2 >= 0 else None)
                loads = (state.loads[t1], state.loads[t2] if t2 >= 0 else 0)
                moved = kernel(state, t1, t2, pa, *args)
                end = state.budget.arc_access_count
                scans[0] += 1
                scans[1] += end >= state.arc_limit
                if outcomes is not None and not moved \
                        and end < state.arc_limit:
                    outcomes.setdefault(read, []).append(
                        (loads, end - start, state.dmin))
                return moved
            return scan

        engine.kernels = tuple(counted(op, kernel)
                               for op, kernel in enumerate(engine.kernels))
        return engine, accepts, scans

    @staticmethod
    def state(engine, accepts, scans):
        return (engine.routes, engine.loads, engine.nonempty, engine.empties,
                engine.phi.hex(), engine.budget.arc_access_count,
                engine.rng.getstate(), accepts, engine.trace.to_csv())

    def check(self, make, calls):
        """Run the twins through three plans; returns both engines' kernel
        runs and the rescanning twin's scan outcomes."""
        rng = random.Random(31)
        inst = make(rng)
        outcomes = {}
        twins = [self.twin(_Engine, inst, 7),
                 self.twin(ReferenceEngine, inst, 7, outcomes)]
        memo_engine = twins[0][0]
        for cycle in range(3):
            plan = random_partition_plan(
                rng, inst, rng.randint(1, inst.route_slots))
            # the second descent stops at an arc limit partway through
            headroom = 3000 if cycle == 1 else math.inf
            for engine, _, _ in twins:
                engine.load_plan(plan)
                engine.arc_limit = engine.budget.arc_access_count + headroom
                engine.descend()
            assert self.state(*twins[0]) == self.state(*twins[1]), cycle
            for call in range(calls):
                phi = memo_engine.phi
                u = rng.random()
                phi_vi = math.inf if u < 0.04 else 0.0 if u < 0.08 else \
                    phi * rng.uniform(0.98, 1.02)
                # a limit close ahead lands inside recorded charges
                limit = memo_engine.budget.arc_access_count \
                    + rng.randrange(200) if rng.random() < 0.25 else math.inf
                for engine, _, _ in twins:
                    engine.arc_limit = limit
                    engine.explore(phi_vi)
                assert self.state(*twins[0]) == self.state(*twins[1]), \
                    (cycle, call)
                # under a tiny cap resets land mid-call, renumbering ids
                assert_slots_current(memo_engine)
            # a last descent records the current routes, which the next
            # plan mostly lacks
            for engine, _, _ in twins:
                engine.arc_limit = math.inf
                engine.descend()
            assert self.state(*twins[0]) == self.state(*twins[1]), cycle
        return twins[0][2], twins[1][2], outcomes

    @pytest.mark.parametrize("make, calls", [
        (e22_like, 400), (e22_tight, 400), (x143_like, 150),
        (decimal_demands, 400)])
    def test_same_state_as_rescanning(self, make, calls):
        (ran, cut), (rescans, _), outcomes = self.check(make, calls)
        assert ran < rescans and cut > 0
        if make is decimal_demands:
            # loads are exact sums of cargo_units: every scan of the same
            # contents read the same loads and had the same outcome, so the
            # key needs the contents alone
            assert any(len(seen) > 1 for seen in outcomes.values())
            assert all(len(set(seen)) == 1 for seen in outcomes.values())

    @pytest.mark.parametrize("make, calls", [
        (e22_like, 400), (x143_like, 60), (decimal_demands, 400)])
    def test_same_state_under_a_tiny_cap(self, monkeypatch, make, calls):
        # a cap of a few dozen slots clears the memo over and over, often
        # right before a row is recorded; the live routes are interned
        # afresh each time
        resets = []
        reset = _Engine._reset_memo

        def counted(engine):
            resets.append(engine.memo_slots)
            reset(engine)

        monkeypatch.setattr(search, "memo_cap", lambda inst: 40)
        monkeypatch.setattr(_Engine, "_reset_memo", counted)
        (ran, _), (rescans, _), _ = self.check(make, calls)
        assert ran < rescans and len(resets) > 100

    def test_reloaded_plan_descends_without_a_kernel(self):
        # entries are keyed by content, so they outlive plan loads: once a
        # descent from a loaded plan has scanned it in vain, every later
        # load of that plan descends without running a kernel
        rng = random.Random(5)
        inst = decimal_demands(rng)
        twins = [self.twin(cls, inst, 3) for cls in (_Engine,
                                                     ReferenceEngine)]
        plan = random_partition_plan(rng, inst, inst.route_slots)
        runs = []
        for _ in range(4):
            for engine, _, _ in twins:
                engine.load_plan(plan)
                engine.descend()
            assert self.state(*twins[0]) == self.state(*twins[1])
            plan = twins[0][0].routes
            runs.append((twins[0][2][0], twins[1][2][0]))
        (ran0, _), (ran1, rescans1), (ran2, rescans2), (ran3, rescans3) = runs
        assert ran0 > 0 and ran1 == ran2 == ran3
        assert rescans3 > rescans2 > rescans1

    @pytest.mark.parametrize("make", [e22_like, e22_tight, huge_units])
    def test_every_operator_descends_by_blocks(self, monkeypatch, make):
        # descents from plans of one to three routes price targets of all
        # seven operators as blocks and end where rescanning ends; past
        # 2**53 the cargo units are Python ints, whose sums here pass what
        # int64 holds, priced over object arrays
        blocked = Counter()
        block_row = _Engine._block_row

        def counted(engine, op, t1, t2):
            blocked[op] += 1
            return block_row(engine, op, t1, t2)

        monkeypatch.setattr(_Engine, "_block_row", counted)
        rng = random.Random(12)
        inst = make(rng)
        if make is huge_units:
            units, cap = inst.cargo_units
            assert type(cap) is int and sum(units) >= 2 ** 63
        twins = [self.twin(cls, inst, 6) for cls in (_Engine,
                                                     ReferenceEngine)]
        for _ in range(4):
            plan = random_partition_plan(rng, inst, rng.randint(1, 3))
            for engine, _, _ in twins:
                engine.load_plan(plan)
                engine.descend()
            assert self.state(*twins[0]) == self.state(*twins[1])
        assert set(blocked) == {M1, M2, M3, M4, M5, M6, M7}, blocked

    @pytest.mark.parametrize("make", [e22_like, e22_tight, decimal_demands])
    def test_descent_scans_only_to_accept_or_at_the_limit(self, make):
        # a fresh engine's memo holds no exploration row, so every target a
        # descent pass reads has a complete block: a kernel runs only at an
        # anchor whose recorded dmin passes, and accepts, or where a
        # recorded charge would cross the arc limit, and stops at it
        rng = random.Random(17)
        inst = make(rng)
        runs = Counter()
        for _ in range(4):
            plan = random_partition_plan(rng, inst, rng.randint(1, 3))
            for headroom in (math.inf, 40, 400, 4000):
                engine = engine_on(plan, inst, 2)
                limit = engine.budget.arc_access_count + headroom
                engine.arc_limit = limit

                def checked(kernel):
                    def scan(*args):
                        moved = kernel(*args)
                        cut = engine.budget.arc_access_count >= limit
                        assert moved or cut, args[1:3]
                        runs["accepted" if moved else "cut"] += 1
                        return moved
                    return scan

                engine.kernels = tuple(map(checked, engine.kernels))
                engine.descend()
        assert runs["accepted"] and runs["cut"], runs


def with_short_routes(rng, routes, slots, size=1):
    """routes with customers taken out into routes of size customers until
    slots routes are in use."""
    routes = [list(r) for r in routes if r]
    while len(routes) < slots:
        donors = [r for r in routes if len(r) > size]
        if not donors:
            break
        donor = rng.choice(donors)
        routes.append([donor.pop(rng.randrange(len(donor)))
                       for _ in range(size)])
    return routes


class TestBlockMatchesKernels:
    """_Engine._block_row prices every anchor of a target at once: for
    each target (t1, t2) of an inter-route operator and each route t1 of
    m1, m3 and m5, and each anchor, its dmin must equal, bit for bit, and
    its arcs, as an int, what the scalar kernel leaves after a full scan
    on a copy of the plan that accepts nothing and meets no arc limit."""

    @pytest.mark.parametrize("make", [e22_like, e22_tight, x143_like,
                                      decimal_demands, huge_units])
    def test_rows_equal_full_scans(self, make):
        rng = random.Random(43)
        inst = make(rng)
        slots = inst.route_slots
        plans = [random_partition_plan(rng, inst, slots),
                 with_short_routes(rng, random_partition_plan(rng, inst, 2),
                                   slots),
                 with_short_routes(rng, random_partition_plan(rng, inst, 2),
                                   slots, 2),
                 descended(random_partition_plan(rng, inst, slots), inst, 1),
                 with_short_routes(rng, descended(random_partition_plan(
                     rng, inst, 2), inst, 2), slots)]
        seen = {"no room for a": 0, "final arcs": 0, "no m5 candidate": 0}
        lengths = Counter()
        for plan in plans:
            engine = engine_on(plan, inst, 0)
            routes = engine.routes
            used = engine.nonempty
            lengths.update(len(routes[t]) for t in used)
            for op in (M1, M2, M3, M4, M5, M6, M7):
                targets = [(t1, t2) for t1 in used for t2 in used
                           if t1 != t2]
                if op in (M1, M3, M5):
                    targets = [(t1, -1) for t1 in used]
                for t1, t2 in targets:
                    row = engine._block_row(op, t1, t2)
                    for pa in range(len(routes[t1])):
                        state = PlanState(
                            [list(r) for r in routes], engine.matrix,
                            engine.demands, engine.cap, EvaluationBudget(),
                            math.inf)
                        state.dmin = math.nan
                        assert not state.kernels[op](
                            state, t1, t2, pa, -math.inf)
                        arcs = state.budget.arc_access_count
                        assert row[pa].hex() == state.dmin.hex(), \
                            (op, t1, t2, pa)
                        assert type(row[~pa]) is int and \
                            row[~pa] == arcs, (op, t1, t2, pa)
                        seen["no room for a"] += op == M2 and arcs == 0
                        seen["no m5 candidate"] += op == M5 and arcs == 0 \
                            and len(routes[t1]) > 2
                        # with a last, the last b would cut after both
                        # final customers: skipped, though it fits
                        seen["final arcs"] += (
                            op == M7 and pa == len(routes[t1]) - 1
                            and max(state.loads[t1],
                                    state.loads[t2]) <= state.cap)
        assert lengths[1] and lengths[2] and max(lengths) >= 8, \
            lengths
        assert seen["final arcs"] and seen["no m5 candidate"], seen
        if make in (e22_tight, decimal_demands):
            assert seen["no room for a"], seen


@pytest.fixture(scope="module")
def searchable_instance():
    rng = random.Random(100)
    pts = []
    while len(pts) < 9:
        x, y = rng.uniform(-55, 55), rng.uniform(-55, 55)
        if x * x + y * y <= 55 * 55:
            pts.append((x, y))
    return make_instance(
        customers=pts, stations=[(30, 25), (-25, -30)],
        demands=[2, 1, 3, 2, 1, 2, 3, 1, 2], capacity=7,
        battery=150, rate=1.0, fleet=4)


def small_params(seed, **overrides):
    base = dict(history_length=60, max_attempts=10, seed=seed)
    base.update(overrides)
    return SearchParams(**base)


class TestRunBlahc:
    def test_matches_exact_optimum_on_certified_fixtures(self):
        rng = random.Random(123)
        for trial in range(3):
            inst, exact = certified_tiny_fixture(rng)
            budget = EvaluationBudget(max_arc_accesses=3_000_000)
            sol, _ = run_blahc(inst, small_params(trial), budget)
            assert sol.total_cost == pytest.approx(exact.total_cost, abs=1e-6)

    def test_deterministic_solution_and_trace(self, searchable_instance):
        inst = searchable_instance
        runs = []
        for _ in range(2):
            budget = EvaluationBudget(max_arc_accesses=300_000)
            sol, trace = run_blahc(inst, small_params(5), budget,
                                   trace_level="full")
            runs.append((sol, trace.to_csv(), budget.arc_access_count))
        assert runs[0][0].routing == runs[1][0].routing
        assert runs[0][0].total_cost == runs[1][0].total_cost
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_incumbent_monotone_in_trace(self, searchable_instance):
        budget = EvaluationBudget(max_arc_accesses=400_000)
        _, trace = run_blahc(searchable_instance, small_params(6), budget)
        values = [r.f_best for r in trace.events("incumbent")]
        assert values, "no incumbent was ever recorded"
        assert all(b < a for a, b in zip(values, values[1:]))
        arcs = [r.arc_accesses for r in trace.records]
        assert arcs == sorted(arcs)

    def test_follower_gated_by_threshold(self, searchable_instance):
        inst = searchable_instance
        params = small_params(7)
        budget = EvaluationBudget(max_arc_accesses=400_000)
        _, trace = run_blahc(inst, params, budget, trace_level="full")
        hits = trace.events("follower_hit")
        assert hits
        for record in hits:
            assert record.phi_current < \
                params.follower_threshold * record.phi_best

    def test_acceptance_soundness_via_hook(self, searchable_instance):
        failures = []

        def on_accept(phi_new, phi_prev, phi_vi):
            if not (phi_new < phi_vi or phi_new < phi_prev - 1e-9):
                failures.append((phi_new, phi_prev, phi_vi))

        budget = EvaluationBudget(max_arc_accesses=300_000)
        run_blahc(searchable_instance, small_params(8), budget,
                  hooks={"on_accept": on_accept})
        assert not failures

    def test_budget_compliance(self, searchable_instance):
        inst = searchable_instance
        for seed in range(3):
            budget = EvaluationBudget(max_arc_accesses=150_000)
            run_blahc(inst, small_params(seed), budget)
            assert budget.arc_access_count <= 150_000 + inst.pz

    def test_solution_is_feasible_and_consistent(self, searchable_instance):
        inst = searchable_instance
        budget = EvaluationBudget(max_arc_accesses=400_000)
        sol, _ = run_blahc(inst, small_params(9), budget)
        assert check_upper_feasible(sol.routing.routes, inst).ok
        from ecvrp.solution import battery_feasible, expand_route, total_cost
        oracle = DistanceOracle.for_instance(inst)
        for route, slots in zip(sol.routing.routes, sol.charging):
            if route:
                assert battery_feasible(expand_route(route, slots), inst,
                                        oracle).ok
        full, detour, phi = total_cost(sol.routing.routes,
                                       sol.charging, oracle)
        assert full == pytest.approx(sol.total_cost)
        assert detour == pytest.approx(sol.detour_cost)
        assert phi == pytest.approx(sol.surrogate)

    def test_incumbent_infeasible_raised(self):
        inst = make_instance(customers=[(500, 0), (510, 0)],
                             stations=[(10, 0), (20, 0)], demands=[1, 1],
                             capacity=5, battery=120, rate=1.0, fleet=2)
        budget = EvaluationBudget(max_arc_accesses=2_000)
        with pytest.raises(IncumbentInfeasible):
            run_blahc(inst, small_params(1, history_length=20), budget)

    @staticmethod
    def _count_failed_splits(monkeypatch):
        failed = []

        def split(perm, inst, oracle):
            try:
                return split_giant_tour(perm, inst, oracle)
            except InstanceInfeasible:
                failed.append(tuple(perm))
                raise

        monkeypatch.setattr(search, "split_giant_tour", split)
        return failed

    def test_unsplittable_order_is_resampled(self, monkeypatch):
        # {1, 3} and {2, 4} fill two vehicles, but an order putting both
        # demand-2 customers, or both demand-1 ones, first cuts into three
        inst = make_instance(customers=[(10, 0), (0, 10), (-10, 0), (0, -10)],
                             stations=[(5, 5)], demands=[2, 2, 1, 1],
                             capacity=3, fleet=2)
        failed = self._count_failed_splits(monkeypatch)
        budget = EvaluationBudget(max_arc_accesses=20_000)
        sol, _ = run_blahc(inst, small_params(1, history_length=20,
                                              max_attempts=5), budget)
        assert failed
        assert check_upper_feasible(sol.routing.routes, inst).ok

    def test_no_splittable_order_raises(self, monkeypatch):
        # two demand-2 customers need two vehicles of capacity 3; one exists
        inst = make_instance(customers=[(10, 0), (0, 10)], stations=[(5, 5)],
                             demands=[2, 2], capacity=3, fleet=1)
        failed = self._count_failed_splits(monkeypatch)
        budget = EvaluationBudget(max_arc_accesses=20_000)
        with pytest.raises(InstanceInfeasible,
                           match="no sampled permutation"):
            run_blahc(inst, small_params(1, history_length=20,
                                         max_attempts=5), budget)
        assert len(failed) == 64


class TestAblation:
    def test_all_off_is_identical_to_baseline(self, searchable_instance):
        inst = searchable_instance
        b1 = EvaluationBudget(max_arc_accesses=250_000)
        sol1, trace1 = run_blahc(inst, small_params(11), b1,
                                 trace_level="full")
        b2 = EvaluationBudget(max_arc_accesses=250_000)
        sol2, trace2 = run_blahc(inst, small_params(11), b2,
                                 toggles=AblationToggles(), trace_level="full")
        assert sol1 == sol2
        assert trace1.to_csv() == trace2.to_csv()
        assert b1.arc_access_count == b2.arc_access_count

    def test_no_m8_restricts_operator_pool(self, searchable_instance):
        eng = _Engine(searchable_instance, small_params(1),
                      EvaluationBudget(), AblationToggles(no_m8=True))
        assert len(eng.explore_ops) == 7
        eng_full = _Engine(searchable_instance, small_params(1),
                           EvaluationBudget())
        assert len(eng_full.explore_ops) == 8

    def test_gamma_zero_calls_follower_only_after_descent(
            self, searchable_instance):
        calls = []
        budget = EvaluationBudget(max_arc_accesses=300_000)
        _, trace = run_blahc(
            searchable_instance, small_params(13), budget,
            toggles=AblationToggles(gamma_zero=True),
            hooks={"on_follower": lambda *a: calls.append(a)})
        restarts = len(trace.events("restart"))
        assert len(calls) == restarts + 1

    def test_no_greedy_descent_skips_phase(self, searchable_instance):
        budget = EvaluationBudget(max_arc_accesses=200_000)
        _, trace = run_blahc(searchable_instance, small_params(14), budget,
                             toggles=AblationToggles(no_greedy_descent=True))
        assert not trace.events("descent_done")

    def test_no_final_refinement_skips_event(self, searchable_instance):
        budget = EvaluationBudget(max_arc_accesses=200_000)
        sol, trace = run_blahc(searchable_instance, small_params(15), budget,
                               toggles=AblationToggles(no_final_refinement=True))
        assert not trace.events("refined")
        assert sol.total_cost > 0


class TestEngineInvariants:
    @pytest.mark.parametrize("make", [None, decimal_demands],
                             ids=["searchable_instance", "decimal_demands"])
    def test_state_stays_consistent_after_every_move(self, make,
                                                     searchable_instance):
        # every kernel call goes through a wrapper that, after each applied
        # move of descent or exploration, checks the engine's incremental
        # state against a recomputation from the routes.  With decimal
        # demands a load summed as floats would depend on the edits that
        # built its route, and could pass the kernels' capacity tests yet
        # fail check_upper_feasible
        inst = searchable_instance if make is None else make(random.Random(9))
        units, cap = inst.cargo_units
        free = DistanceOracle.for_instance(inst)
        engine = _Engine(inst, small_params(3), EvaluationBudget())
        applied = [0] * 8

        def check():
            routes = engine.routes
            assert abs(engine.phi - surrogate_cost(routes, free)) < 1e-9
            # the running loads equal a fresh recount, exactly
            assert engine.loads == [sum(units[c] for c in r) for r in routes]
            assert max(engine.loads) <= cap
            assert check_upper_feasible(routes, inst).ok
            assert sorted(c for r in routes for c in r) == \
                list(inst.customers)
            assert engine.nonempty == [t for t, r in enumerate(routes) if r]
            assert engine.empties == [
                t for t, r in enumerate(routes) if not r]

        def checked(op, kernel):
            def run(*args):
                moved = kernel(*args)
                if moved:
                    applied[op] += 1
                    check()
                return moved
            return run

        engine.kernels = tuple(checked(op, kernel)
                               for op, kernel in enumerate(engine.kernels))
        # a kernel edits the routes and its caller then interns them, so
        # the per-slot state is checked once _touch returns; a memo reset
        # drops every slot's arrays
        touch = engine._touch
        reset = engine._reset_memo
        touches = []
        built = [0]

        def touched(t1, t2):
            touch(t1, t2)
            touches.append((t1, t2))
            built[0] += assert_slots_current(engine)

        def reset_checked():
            reset()
            assert assert_slots_current(engine) == 0

        engine._touch = touched
        engine._reset_memo = reset_checked
        rng = random.Random(5)
        for cycle in range(6):
            engine.load_plan(random_feasible_plan(rng, inst))
            check()
            assert_slots_current(engine)
            engine.descend()
            for _ in range(400):
                engine.explore(engine.phi * 1.03)
            if cycle == 3:
                engine._reset_memo()
        assert all(applied), applied
        assert len(touches) == sum(applied)
        assert built[0] > 0


class TestMemoBound:
    def test_entries_bounded_by_customers_and_slots(self, monkeypatch):
        # the memo's rows (a slot per anchor) and the intern table (a slot
        # per customer, plus one, per content) hold at most memo_cap slots,
        # max(MEMO_FLOOR, 8 n route_slots), however long the run: past it
        # every table is cleared.  Cargo for 25 customers a route keeps the
        # descent short, and a battery that never binds lets every run find
        # an incumbent
        inst = replace(x143_like(random.Random(17)), cargo_capacity=25.0,
                       battery_capacity=1e9)
        cap = search.memo_cap(inst)
        assert cap == max(search.MEMO_FLOOR,
                          8 * inst.num_customers * inst.route_slots)
        peaks = []

        def peak(method):
            def run(engine, *args):
                result = method(engine, *args)
                peaks[-1] = max(peaks[-1], engine.memo_slots,
                                len(engine.content_ids))
                return result
            return run

        for name in ("_new_row", "_intern_routes"):
            monkeypatch.setattr(_Engine, name, peak(getattr(_Engine, name)))
        resets = []
        for arcs in (3_000_000, 10_000_000):
            engine = _Engine(inst, SearchParams(history_length=200, seed=2),
                             EvaluationBudget(max_arc_accesses=arcs))
            peaks.append(0)
            reset = engine._reset_memo
            engine._reset_memo = lambda: (resets.append(arcs), reset())
            engine.run()
            held = sum(len(row) // 2 for memo in engine.memo
                       for row in memo.values()) \
                + sum(len(route) + 1 for route in engine.content_ids)
            assert held == engine.memo_slots
            assert engine.ids[:-1] == [
                engine.content_ids[tuple(route)] for route in engine.routes]
            assert max(engine.content_ids.values()) < engine.ids[-1]
            assert_slots_current(engine)
        assert 0 < min(peaks) and max(peaks) <= cap, (peaks, cap)
        # the longer run passed the cap: the bound held through clears
        assert resets.count(10_000_000) > 0

    def test_reset_empties_se_cache(self, searchable_instance):
        # solve_se's route cache is emptied with the memo, so it holds only
        # routes interned since the last reset and memo_cap bounds it too
        engine = _Engine(searchable_instance, small_params(1),
                         EvaluationBudget(max_arc_accesses=50_000))
        engine.run()
        assert engine.se_memo
        assert set(engine.se_memo) <= set(engine.content_ids)
        engine._reset_memo()
        assert engine.se_memo == {}


class TestEngineLifetime:
    def test_engine_freed_when_run_returns(self, monkeypatch,
                                           searchable_instance):
        # with the collector off, an engine that is part of a reference
        # cycle (plan, memo, trace) would outlive the run
        engines = []
        run = _Engine.run

        def tracked(engine):
            engines.append(weakref.ref(engine))
            return run(engine)

        monkeypatch.setattr(_Engine, "run", tracked)
        gc.collect()
        gc.disable()
        try:
            run_blahc(searchable_instance, small_params(1),
                      EvaluationBudget(max_arc_accesses=50_000))
            assert len(engines) == 1 and engines[0]() is None
        finally:
            gc.enable()


class TestBenchmarkTracer:
    def test_every_traced_name_exists(self, monkeypatch):
        # bench/tracing.py patches program names by string; one that is
        # gone drops its per-layer metrics without an error
        bench = Path(__file__).resolve().parents[1] / "bench"
        monkeypatch.syspath_prepend(str(bench))
        monkeypatch.delitem(sys.modules, "tracing", raising=False)
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert tracer.missing == set()
        finally:
            tracer.uninstall()
            del sys.modules["tracing"]
