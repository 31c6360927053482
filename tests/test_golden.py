"""Golden fixed-seed outputs: `ecvrp solve` must keep writing the same
solution and trace files, byte for byte, at a fixed (instance, params,
seed, arc budget).

The digests pin the whole trajectory, arc meter included.  A change that
moves them on purpose re-records them here and says which ones moved and
why; any other change must leave them untouched.
"""

import hashlib
import random

import pytest

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


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    # six customers, one station, binding cargo and battery: every
    # operator, the SE follower and the exhaustive refinement all run
    rng = random.Random(3)
    inst = make_instance(
        customers=[(rng.randrange(-60, 61), rng.randrange(-60, 61))
                   for _ in range(6)],
        stations=[(40, 40)], demands=[rng.randrange(1, 6) for _ in range(6)],
        capacity=9, battery=180, rate=1.0, fleet=3, name="golden6")
    root = tmp_path_factory.mktemp("golden")
    path = root / "golden6.evrp"
    path.write_text(serialize_instance(inst))
    out = root / "runs"
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ECVRP_THREADS", raising=False)
        code = main(["solve", str(path), "--seeds", "1..3", "--lh", "50",
                     "--eta-max", "10", "--trace-level", "full",
                     "--out", str(out)])
    assert code == 0
    return out


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_solve_outputs_match_golden_digests(golden_runs, seed):
    solution = digest(golden_runs / f"golden6_seed{seed}.sol")
    trace = digest(golden_runs / f"golden6_seed{seed}.trace.csv")
    assert (solution, trace) == GOLDEN[seed]
