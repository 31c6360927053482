"""Golden fixed-seed outputs: `ecvrp solve` must keep writing the same
solution and trace files, byte for byte, at a fixed (instance, params,
seed, arc budget), and `ecvrp refine` the same refined solution file for
a fixed (instance, plan).

The digests pin the whole trajectory, arc meter included.  A change that
moves them on purpose re-records them here and says which ones moved and
why; any other change must leave them untouched.
"""

import hashlib
import random

import pytest

from ecvrp import search
from ecvrp.cli import main
from ecvrp.instance import serialize_instance
from conftest import make_instance

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


@pytest.fixture(scope="module")
def refine_runs(tmp_path_factory):
    # eight customers, four stations and a battery tight enough that some
    # refined gaps need an ordered station pair and some plans have no
    # charging plan at all; plans are random tours cut first-fit by cargo,
    # written without any charging stop
    rng = random.Random(3)
    inst = make_instance(
        customers=[(rng.randrange(-90, 91), rng.randrange(-90, 91))
                   for _ in range(8)],
        stations=[(rng.randrange(-90, 91), rng.randrange(-90, 91))
                  for _ in range(4)],
        demands=[rng.randrange(1, 6) for _ in range(8)],
        capacity=10, battery=140, rate=1.0, fleet=4, name="golden8")
    root = tmp_path_factory.mktemp("refine")
    (root / "golden8.evrp").write_text(serialize_instance(inst))
    codes = {}
    with pytest.MonkeyPatch.context() as mp:
        # relative paths keep the tmp directory out of the file header
        mp.chdir(root)
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
            codes[k] = main(["refine", "golden8.evrp", f"plan{k}.sol",
                             "--out", f"plan{k}.refined.sol"])
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


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_output_matches_golden_digest(tmp_path, capsys, name):
    path = tmp_path / f"{name}.evrp"
    path.write_text(serialize_instance(
        make_instance(**ORACLE_INSTANCES[name], name=name)))
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_GOLDEN[name]
