"""The package namespace: every public name, and what a process imports."""

import importlib
import json
import subprocess
import sys

import pytest

import ecvrp
from ecvrp.instance import serialize_instance
from conftest import fresh_env, make_instance

SUBMODULES = {"instance", "solution", "charging", "moves", "search",
              "analysis"}
# name -> defining module; with SUBMODULES these are the 38 names the
# package exports
EXPORTS = {
    "AblationToggles": "search", "ChargingQueryResult": "charging",
    "CompleteSolution": "solution",
    "DistanceOracle": "instance", "EvaluationBudget": "instance",
    "InstanceSpec": "instance", "Move": "moves", "RoutingPlan": "solution",
    "SamplePair": "analysis", "SearchParams": "search",
    "SearchTrace": "search", "apply_move": "moves",
    "battery_feasible": "solution", "brute_force_optimum": "analysis",
    "build_best_station_table": "charging",
    "check_upper_feasible": "solution", "collect_pairs": "analysis",
    "delta_phi": "moves", "enumerate_positions": "moves",
    "evaluate_solution": "solution", "expand_route": "solution",
    "kendall_tau_b": "analysis", "load_instance": "instance",
    "max_evals_budget": "instance", "max_time_budget": "instance",
    "parse_instance": "instance", "recall_at_k": "analysis",
    "run_blahc": "search", "solve_exhaustive": "charging",
    "solve_se": "charging", "surrogate_cost": "solution",
    "total_cost": "solution",
}


class TestNamespace:
    def test_all_lists_every_name_and_submodule(self):
        assert len(EXPORTS) + len(SUBMODULES) == 38
        assert set(ecvrp.__all__) == set(EXPORTS) | SUBMODULES

    @pytest.mark.parametrize("name", sorted(EXPORTS))
    def test_name_is_the_defining_modules_object(self, name):
        module = importlib.import_module(f"ecvrp.{EXPORTS[name]}")
        assert getattr(ecvrp, name) is getattr(module, name)

    @pytest.mark.parametrize("name", sorted(SUBMODULES))
    def test_submodule_names_resolve(self, name):
        assert getattr(ecvrp, name) is sys.modules[f"ecvrp.{name}"]

    def test_dir_lists_every_name(self):
        assert set(ecvrp.__all__) <= set(dir(ecvrp))

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from ecvrp import *", scope)
        assert set(ecvrp.__all__) <= set(scope)
        assert scope["evaluate_solution"] is ecvrp.solution.evaluate_solution

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(ecvrp, "no_such_name")
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from ecvrp import no_such_name", {})


def _fresh_process(code: str, *args) -> dict:
    """The JSON object a fresh interpreter prints after running code with
    this checkout's package first on its path."""
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestImportFootprint:
    # only the modules the lazy namespace and the commands defer are
    # checked, so which modules numpy itself imports decides nothing

    def test_loading_an_instance_imports_no_search(self, tmp_path):
        inst = make_instance(customers=[(30, 0), (0, 40)],
                             stations=[(20, 20)], battery=120, fleet=2)
        path = tmp_path / "two.evrp"
        path.write_text(serialize_instance(inst))
        result = _fresh_process(
            "import json, sys\n"
            "import ecvrp\n"
            "inst = ecvrp.load_instance(sys.argv[1])\n"
            "ecvrp.build_best_station_table(\n"
            "    inst, ecvrp.DistanceOracle.for_instance(inst))\n"
            "loaded = sorted(sys.modules)\n"
            "same = ecvrp.search.run_blahc is ecvrp.run_blahc\n"
            "print(json.dumps({'loaded': loaded, 'same': same}))\n", path)
        assert "ecvrp.charging" in result["loaded"]
        for name in ("ecvrp.search", "ecvrp.moves", "ecvrp.analysis",
                     "ecvrp.cli"):
            assert name not in result["loaded"]
        # a submodule name resolves after the bare import as well
        assert result["same"]

    def test_refine_imports_no_pool_or_statistics(self, tmp_path):
        # nor the search or the analysis, which only solve, analyze and
        # oracle run; validate neither
        inst = make_instance(customers=[(30, 0), (0, 40), (-25, -25)],
                             stations=[(20, 20)], demands=[2, 1, 2],
                             capacity=4, battery=120, fleet=2)
        path = tmp_path / "tiny3.evrp"
        path.write_text(serialize_instance(inst))
        plan = tmp_path / "plan.sol"
        plan.write_text("0,1,2,0\n0,3,0\n")
        for argv in (["refine", path, plan, "--out", tmp_path / "refined.sol"],
                     ["validate", path, tmp_path / "refined.sol"]):
            result = _fresh_process(
                "import contextlib, io, json, sys\n"
                "from ecvrp import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(sys.argv[1:])\n"
                "print(json.dumps({'code': code,"
                " 'modules': sorted(sys.modules)}))\n", *argv)
            assert result["code"] == 0, argv[0]
            for name in ("concurrent.futures.process", "statistics",
                         "ecvrp.search", "ecvrp.analysis"):
                assert name not in result["modules"], (argv[0], name)
