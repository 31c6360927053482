"""Golden fixed-seed outputs: `ecvrp solve` must keep writing the same
solution and trace files, byte for byte, at a fixed (instance, params,
seed, arc budget), and `ecvrp refine` the same refined solution file for
a fixed (instance, plan).

The digests pin the whole trajectory, arc meter included.  A change that
moves them on purpose re-records them here and says which ones moved and
why; any other change must leave them untouched.
"""

import functools
import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from ecvrp import (
    build_best_station_table, search, solve_exhaustive, total_cost)
from ecvrp.cli import main
from ecvrp.instance import DistanceOracle, EvaluationBudget, serialize_instance
from ecvrp.solution import parse_solution_file, split_expanded_route
from conftest import make_instance, x1001_synth_instance

# SHA-256 of (solution file, full trace) per seed
GOLDEN = {
    1: ("9b6b0825b4d1c55687c66a388c32a13658eae45588aeecbf5b531624b94dbbf3",
        "aa64f49d2bc7f617f853be3a85b9f65da8f6b9adfa4b28c7b95c57a2d51e86ae"),
    2: ("a67f213af599be73323ce6412fc232b2a89b592d9d454c02e68f65f1c3a32c4d",
        "5224dd9a6cd8215e2c0fd9c3c60a1d79794e25adeb770a47c6dde835d4b6696d"),
    3: ("780049a87ea90900bbd5db76099891e3676f8c769ca113994a4445e8273943d8",
        "36e4cb2a4c05ea58929504a1ae3b149dcd9e111cd3dae2debd62180e00ffae96"),
}

# the same at --eta-max 60, the paper's attempt cap: there an exploration
# call most often draws a target it already scanned in vain, which it must
# charge but need not rescan
GOLDEN_ETA60 = {
    1: ("d723fca2b209d5c8beeabca271111ed30cd15b00f4f75f35a85446dbc7b99127",
        "37212a0298ca4eb16311cfa7de4a85260e4a5fd545adf8852f0255e1e5c1235e"),
    2: ("4425af44fdd047f3f89d16e5ed2d7069bf8f0c453bff20928c40f19762740145",
        "2c32626e717a138ecac7b128ebd5d1dcf26333511b9c9cb436c2862c3868c45a"),
    3: ("ff07b67e554c200d29ab547abbfa9e6ece29ab020feb0ca4f72b0d1b82bf1da2",
        "ec4ccb56570a8e81d10493b6c20ffd29902f6726bcfe71df8ee9de245b36b04d"),
}

# SHA-256 of the refined solution file per plan, None where refine
# finds no charging plan
REFINE_GOLDEN = {
    0: "5b4b4dfad2c0888de6a48d12eee0cd46d41ba0860f936d2e8857c8b7620df0cc",
    1: None,
    2: "50920d1182fcac880a91e5957dbaabf41ea981efbdd757f579e3d68c3e260be0",
    3: "24656112b1bf918f391cb6489bbcf2fef13253673ff7b9536dcc513ecb22a470",
    4: "602a9fb53e98a0220c654b1c9747665f167615ac2c892aa38f62b6968127f595",
    5: "965256921e79ee82844bee0999b4851b6465f7d079e29f98dabadb5cb162f273",
    6: "54e0140f4bba6baa4423722a06d53da11f019cb46e7a6b4c9c5f5677e8686e51",
    7: "b5d38aa5d7417c2061b9a0abd2459057f4adbd6ff9e9d9ad80fe3fa0c0654ce9",
    8: "5ebb5728c8377f3849ac89ece3d49a2b66bd7d4489f00d7baac14bbe56c7475e",
    9: None,
}

# SHA-256 of solve_exhaustive's results on the benchmark's 314 catalogue
# plans (test_bench_refine_plans_keep_every_output_bit)
CATALOGUE_GOLDEN = (
    "69fda0882ba6ad4b713ff14263929278802b68ca12ed7bb002f32b837857b27e")

# SHA-256 of `ecvrp oracle` stdout per instance
ORACLE_GOLDEN = {
    "tiny3": "c93f02652491d91a68e889d960dcf358f844641edbec4a042459277cd02847d1",
    "bare": "8b43cd36573eb29487b7cbad8cad7a143e155eb02c1469c2b2b0d048834a066e",
}

# the oracle instances: tiny3 fills its fleet of 2, bare (no station)
# leaves one of its 3 vehicles unused
ORACLE_INSTANCES = {
    "tiny3": dict(customers=[(30, 0), (0, 40), (-25, -25)],
                  stations=[(20, 20)], demands=[2, 1, 2], capacity=4,
                  battery=120, rate=1.0, fleet=2),
    "bare": dict(customers=[(10, 0), (0, 12), (-8, -6), (15, 9)],
                 stations=[], demands=[1, 1, 1, 1], capacity=2, battery=1e9,
                 rate=1.0, fleet=3),
}


def solve_golden(root):
    """Solve the golden instance at --eta-max 10 and 60 into root/eta10 and
    root/eta60."""
    # six customers, one station, binding cargo and battery: every
    # operator, the SE follower and the exhaustive refinement all run
    rng = random.Random(3)
    inst = make_instance(
        customers=[(rng.randrange(-60, 61), rng.randrange(-60, 61))
                   for _ in range(6)],
        stations=[(40, 40)], demands=[rng.randrange(1, 6) for _ in range(6)],
        capacity=9, battery=180, rate=1.0, fleet=3, name="golden6")
    path = root / "golden6.evrp"
    path.write_text(serialize_instance(inst))
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ECVRP_THREADS", raising=False)
        for eta in (10, 60):
            code = main(["solve", str(path), "--seeds", "1..3", "--lh", "50",
                         "--eta-max", str(eta), "--trace-level", "full",
                         "--out", str(root / f"eta{eta}")])
            assert code == 0


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    solve_golden(root)
    return root


@pytest.fixture(scope="module")
def golden_runs_clearing_memo(tmp_path_factory):
    """The golden runs with the memo of failed scans capped at 40 slots,
    and the number of times it was cleared."""
    root = tmp_path_factory.mktemp("golden_cap40")
    clears = []
    reset = search._Engine._reset_memo

    def counted(engine):
        clears.append(engine.memo_slots)
        reset(engine)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "memo_cap", lambda inst: 40)
        mp.setattr(search._Engine, "_reset_memo", counted)
        solve_golden(root)
    return root, len(clears)


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def solve_digests(out, seed):
    return (digest(out / f"golden6_seed{seed}.sol"),
            digest(out / f"golden6_seed{seed}.trace.csv"))


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_solve_outputs_match_golden_digests(golden_runs, seed):
    assert solve_digests(golden_runs / "eta10", seed) == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_ETA60))
def test_solve_at_paper_attempt_cap_matches_golden_digests(golden_runs,
                                                           seed):
    assert solve_digests(golden_runs / "eta60", seed) == GOLDEN_ETA60[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_memo_clears_keep_golden_digests(golden_runs_clearing_memo, seed):
    # a cap of 40 slots clears the memo about 20,000 times over the six
    # runs; the memo only skips scans whose outcome it knows, so the
    # outputs stay the same
    root, clears = golden_runs_clearing_memo
    assert clears > 6000
    assert solve_digests(root / "eta10", seed) == GOLDEN[seed]
    assert solve_digests(root / "eta60", seed) == GOLDEN_ETA60[seed]


def write_refine_plans(root):
    """Write golden8.evrp and plan0.sol .. plan9.sol to root; return the
    instance.  Eight customers, four stations and a battery tight enough
    that some refined gaps need an ordered station pair and some plans have
    no charging plan at all; plans are random tours cut first-fit by cargo,
    written without any charging stop."""
    rng = random.Random(3)
    inst = make_instance(
        customers=[(rng.randrange(-90, 91), rng.randrange(-90, 91))
                   for _ in range(8)],
        stations=[(rng.randrange(-90, 91), rng.randrange(-90, 91))
                  for _ in range(4)],
        demands=[rng.randrange(1, 6) for _ in range(8)],
        capacity=10, battery=140, rate=1.0, fleet=4, name="golden8")
    (root / "golden8.evrp").write_text(serialize_instance(inst))
    for k in range(10):
        perm = list(inst.customers)
        rng.shuffle(perm)
        routes = [[]]
        load = 0.0
        for c in perm:
            if load + inst.demands[c] > inst.cargo_capacity:
                routes.append([])
                load = 0.0
            routes[-1].append(c)
            load += inst.demands[c]
        (root / f"plan{k}.sol").write_text("".join(
            ",".join(map(str, [0, *r, 0])) + "\n" for r in routes))
    return inst


def run_cli_in(root, argv) -> int:
    # relative paths keep the tmp directory out of the file header
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        return main(argv)


@pytest.fixture(scope="module")
def refine_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("refine")
    inst = write_refine_plans(root)
    codes = {k: run_cli_in(root, ["refine", "golden8.evrp", f"plan{k}.sol",
                                  "--out", f"plan{k}.refined.sol"])
             for k in range(10)}
    return root, inst, codes


@pytest.mark.parametrize("plan", sorted(REFINE_GOLDEN))
def test_refine_outputs_match_golden_digests(refine_runs, plan):
    root, _, codes = refine_runs
    refined = root / f"plan{plan}.refined.sol"
    if REFINE_GOLDEN[plan] is None:
        assert codes[plan] == 1 and not refined.exists()
    else:
        assert codes[plan] == 0 and digest(refined) == REFINE_GOLDEN[plan]


def test_refine_golden_uses_station_pairs(refine_runs):
    root, inst, _ = refine_runs
    pairs = 0
    for refined in root.glob("plan*.refined.sol"):
        for line in refined.read_text().splitlines():
            if line.startswith(("#", "COST")):
                continue
            nodes = [int(tok) for tok in line.split(",")]
            pairs += sum(inst.is_station(a) and inst.is_station(b)
                         for a, b in zip(nodes, nodes[1:]) if a and b)
    assert pairs > 0


def never_build_the_distances(monkeypatch):
    """Make a read of the oracle's array or matrix fail the test."""
    for name in ("array", "matrix"):
        def unbuilt(oracle, name=name):
            raise AssertionError(f"DistanceOracle.{name} read outside search")
        monkeypatch.setattr(DistanceOracle, name, property(unbuilt))


def test_refine_and_validate_never_build_the_matrix(tmp_path, monkeypatch):
    # outside search, pricing, checking, the exhaustive follower and the
    # station table compute their arcs with oracle.arcs; only search
    # builds the pz x pz array and its nested-list matrix
    never_build_the_distances(monkeypatch)
    inst = write_refine_plans(tmp_path)
    build_best_station_table(inst, DistanceOracle.for_instance(inst))
    stops = set()
    for k, want in REFINE_GOLDEN.items():
        refined = tmp_path / f"plan{k}.refined.sol"
        code = run_cli_in(tmp_path, ["refine", "golden8.evrp", f"plan{k}.sol",
                                     "--out", refined.name])
        if want is None:
            # INFEASIBLE: its visit bound prices the route with surrogate_cost
            assert code == 1 and not refined.exists()
            continue
        assert code == 0 and digest(refined) == want
        # the refined plans hold single and pair stops: check and price
        # them, and refine them again to the same routes
        assert run_cli_in(tmp_path, ["validate", "golden8.evrp",
                                     refined.name]) == 0
        assert run_cli_in(tmp_path, ["refine", "golden8.evrp", refined.name,
                                     "--out", f"again{k}.sol"]) == 0
        routes, _ = parse_solution_file(refined.read_text())
        again, _ = parse_solution_file(
            (tmp_path / f"again{k}.sol").read_text())
        assert [nodes for _, nodes in again] == [nodes for _, nodes in routes]
        for _, nodes in routes:
            stops.update(type(slot) for slot in
                         split_expanded_route(nodes, inst)[1] if slot)
    assert stops == {int, tuple}


def test_refine_at_paper_scale_never_builds_the_array(tmp_path, monkeypatch):
    # at 1,000 customers the array would be 1,021^2 doubles (8.3 MB); a
    # refine request reads about n * S arcs of it
    inst = x1001_synth_instance()
    routes = bench_workloads().sweep_plan(inst, 0, False)
    (tmp_path / "x1001.evrp").write_text(serialize_instance(inst))
    (tmp_path / "plan.sol").write_text(
        "".join(f"0,{','.join(map(str, r))},0\n" for r in routes))
    never_build_the_distances(monkeypatch)
    assert run_cli_in(tmp_path, ["refine", "x1001.evrp", "plan.sol",
                                 "--out", "refined.sol"]) == 0
    assert run_cli_in(tmp_path, ["validate", "x1001.evrp",
                                 "refined.sol"]) == 0


def test_a_search_builds_the_array_once(monkeypatch):
    # the search's matrix and numpy blocks read one array, a cached
    # property built on the first read and kept: its builds are counted
    # through a cached_property of the same name around the same function
    build = DistanceOracle.array.func
    builds = []

    def counted(oracle):
        builds.append(oracle)
        return build(oracle)

    kept = functools.cached_property(counted)
    kept.__set_name__(DistanceOracle, "array")
    monkeypatch.setattr(DistanceOracle, "array", kept)
    inst = bench_workloads().x143_synth()
    search.run_blahc(inst, search.SearchParams(seed=1),
                     EvaluationBudget(max_arc_accesses=2_000_000))
    assert len(builds) == 1


def bench_workloads():
    """bench/workloads.py, loaded from its file: the benchmark's instance
    recipes, its refine plans and their stored optima."""
    return bench_module("workloads")


def bench_module(stem):
    """bench/<stem>.py, loaded from its file as bench_<stem>."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_the_traced_benchmark_finds_what_it_reads(tmp_path):
    # bench/tracing.py wraps program functions by name, passes run_blahc
    # its hooks and reads result fields; a name or field the program drops
    # loses those metrics, and only a stderr line of the benchmark says so
    tracer = bench_module("tracing").Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        inst = write_refine_plans(tmp_path)
        solution, _ = search.run_blahc(
            inst, search.SearchParams(seed=1), EvaluationBudget(
                max_arc_accesses=200_000), hooks=tracer.hooks())
        assert sorted(c for r in solution.routing.routes for c in r) == \
            list(inst.customers)
        assert run_cli_in(tmp_path, ["refine", "golden8.evrp", "plan0.sol",
                                     "--out", "traced.sol"]) == 0
    finally:
        tracer.uninstall()
    assert {"descend", "explore", "solve_se", "solve_exhaustive",
            "cmd_refine", "for_instance"} <= set(tracer.names)
    assert tracer.accepts > 0 and tracer.exh_examined > 0
    assert tracer.arcs["solve_se"] > 0 and tracer.arcs["explore"] > 0


@pytest.fixture(scope="module")
def catalogue_refined():
    """solve_exhaustive on every plan the benchmark refines, as (instance
    key, plan key, routes, oracle, result) in catalogue order."""
    workloads = bench_workloads()
    out = []
    for key, make in workloads.INSTANCES.items():
        inst = make()
        oracle = DistanceOracle.for_instance(inst)
        for plan_key, routes in workloads.plan_catalogue(inst):
            out.append((key, plan_key, routes, oracle,
                        solve_exhaustive(routes, inst, oracle)))
    return out


def test_bench_refine_plans_reach_their_stored_optima(catalogue_refined):
    # every plan the benchmark refines, through the library: the refined F
    # must be the stored exact optimum, or the plan infeasible where that
    # is null
    expected = bench_workloads().load_expected()
    for key in expected:
        assert {plan_key for k, plan_key, *_ in catalogue_refined
                if k == key} == set(expected[key])
    infeasible = 0
    for key, plan_key, routes, oracle, result in catalogue_refined:
        optimum = expected[key][plan_key]
        assert result.feasible == (optimum is not None), plan_key
        if result.feasible:
            cost = total_cost(routes, result.plan, oracle)[0]
            assert abs(cost - optimum) <= 1e-6, (key, plan_key)
        infeasible += not result.feasible
    assert len(catalogue_refined) == 314 and infeasible == 12


def test_bench_refine_plans_keep_every_output_bit(catalogue_refined):
    # the follower's whole result on every catalogue plan, detour and
    # surrogate to the bit: a change to its bounds may move how much it
    # searches, never what it returns
    lines = []
    for key, plan_key, _, _, result in catalogue_refined:
        slots = result.plan if result.feasible else None
        detour = result.detour_cost.hex() if result.feasible else None
        lines.append(f"{key} {plan_key} {result.feasible} {slots!r} {detour} "
                     f"{result.surrogate.hex()} {result.enumeration_count} "
                     f"{result.failed_route}\n")
    got = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert got == CATALOGUE_GOLDEN


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_output_matches_golden_digest(tmp_path, capsys, name):
    path = tmp_path / f"{name}.evrp"
    path.write_text(serialize_instance(
        make_instance(**ORACLE_INSTANCES[name], name=name)))
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_GOLDEN[name]
