"""Record the exact refine optimum of every catalogue plan.

Run from the repository root:

    PYTHONPATH=src python3 bench/record_expected.py

It writes bench/expected_refine.json: for each instance recipe, each sweep
plan key maps to its refined total cost F, or null when the exhaustive
follower finds no charging plan within the visit bound.  The benchmark
checks every refine request against these values, so record them only
from a commit whose exhaustive follower is trusted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ecvrp import DistanceOracle, solve_exhaustive, total_cost  # noqa: E402
from workloads import EXPECTED_PATH, INSTANCES, plan_catalogue  # noqa: E402


def main() -> int:
    expected = {}
    for key, make in INSTANCES.items():
        inst = make()
        oracle = DistanceOracle.for_instance(inst)
        table = {}
        for plan_key, routes in plan_catalogue(inst):
            result = solve_exhaustive(routes, inst, oracle)
            table[plan_key] = (total_cost(routes, result.plan, oracle)[0]
                               if result.feasible else None)
        expected[key] = table
        infeasible = sum(v is None for v in table.values())
        print(f"{key}: {len(table)} plans, {infeasible} infeasible")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
