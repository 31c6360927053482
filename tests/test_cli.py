import gc
import math
import subprocess
import sys
import time

import pytest

from ecvrp import cli, solution
from ecvrp.cli import main, parse_seeds, worker_count
from ecvrp.instance import serialize_instance
from ecvrp.search import PARAM_MAX
from conftest import (
    alternating_stops_instance,
    fresh_env,
    long_route_instance,
    make_instance,
    midpoint_line_instance,
)


@pytest.fixture
def tiny_file(tmp_path):
    inst = make_instance(
        customers=[(30, 0), (0, 40), (-25, -25)], stations=[(20, 20)],
        demands=[2, 1, 2], capacity=4, battery=120, rate=1.0, fleet=2,
        name="tiny3")
    path = tmp_path / "tiny3.evrp"
    path.write_text(serialize_instance(inst))
    return path


@pytest.fixture
def detour_file(tmp_path):
    inst = make_instance(customers=[(100, 0)], stations=[(50, 10)],
                         battery=120, rate=1.0, fleet=1, name="detour")
    path = tmp_path / "detour.evrp"
    path.write_text(serialize_instance(inst))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSeek:
    def test_parse_seed_range(self):
        assert parse_seeds("1..4") == (1, 2, 3, 4)
        assert parse_seeds("7") == (7,)
        assert parse_seeds("2,5,9") == (2, 5, 9)

    def test_seed_count_capped(self):
        assert len(parse_seeds(f"1..{PARAM_MAX}")) == PARAM_MAX
        with pytest.raises(ValueError, match=f"more than {PARAM_MAX} seeds"):
            parse_seeds(f"0..{PARAM_MAX}")

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    @pytest.mark.parametrize("hi", [10**12, 10**30])
    def test_huge_seed_range_is_one_line_error(self, command, hi, tiny_file,
                                               tmp_path, capsys):
        # terabytes as a tuple, or more seeds than a tuple can index: the
        # range is refused from its bounds alone
        code = run_cli(command, tiny_file, "--seeds", f"1..{hi}",
                       "--out", tmp_path / "runs")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error: --seeds '1..{hi}': names more than "
                                f"{PARAM_MAX} seeds\n")


class TestSolve:
    def test_solve_writes_solution_trace_and_report(self, tiny_file,
                                                    tmp_path, capsys):
        out = tmp_path / "runs"
        code = run_cli("solve", tiny_file, "--seeds", "1..2",
                       "--lh", "50", "--eta-max", "10", "--out", out)
        assert code == 0
        printed = capsys.readouterr().out
        assert "best" in printed
        for seed in (1, 2):
            assert (out / f"tiny3_seed{seed}.sol").exists()
            assert (out / f"tiny3_seed{seed}.trace.csv").exists()
        report = (out / "tiny3_report.csv").read_text()
        assert report.startswith("seed,best_F,runtime_s,arc_accesses,restarts")
        assert "aggregate" in report

    def test_failed_seed_keeps_earlier_seeds_files(self, tiny_file, tmp_path,
                                                   monkeypatch, capsys):
        # each seed writes its files as it finishes, so seed 2 raising
        # must not discard seed 1's
        import ecvrp.search
        from ecvrp.search import IncumbentInfeasible
        real = ecvrp.search.run_blahc

        def run_blahc(inst, params, *args, **kwargs):
            if params.seed == 2:
                raise IncumbentInfeasible("no solution")
            return real(inst, params, *args, **kwargs)

        monkeypatch.setattr(ecvrp.search, "run_blahc", run_blahc)
        out = tmp_path / "runs"
        assert run_cli("solve", tiny_file, "--seeds", "1,2", "--lh", "50",
                       "--eta-max", "10", "--out", out) == 1
        assert one_error_line(capsys) == "error: no solution\n"
        assert (out / "tiny3_seed1.sol").exists()
        assert (out / "tiny3_seed1.trace.csv").exists()
        assert not (out / "tiny3_seed2.sol").exists()
        assert not (out / "tiny3_report.csv").exists()

    def test_solution_file_passes_validate(self, tiny_file, tmp_path, capsys):
        out = tmp_path / "runs"
        run_cli("solve", tiny_file, "--seeds", "3", "--lh", "50",
                "--eta-max", "10", "--out", out)
        sol = out / "tiny3_seed3.sol"
        reported = [line for line in sol.read_text().splitlines()
                    if line.startswith("COST")][0].split()[1]
        capsys.readouterr()
        assert run_cli("validate", tiny_file, sol) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("OK")
        assert f"{float(reported):.2f}" in printed

    def test_deterministic_outputs(self, tiny_file, tmp_path):
        texts = []
        for attempt in range(2):
            out = tmp_path / f"runs{attempt}"
            run_cli("solve", tiny_file, "--seeds", "5", "--lh", "50",
                    "--eta-max", "10", "--out", out)
            texts.append(((out / "tiny3_seed5.sol").read_text(),
                          (out / "tiny3_seed5.trace.csv").read_text()))
        assert texts[0] == texts[1]

    def test_parallel_workers_match_sequential(self, tiny_file, tmp_path,
                                               monkeypatch):
        # two CPUs, so the pool runs on any machine
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        out1 = tmp_path / "seq"
        run_cli("solve", tiny_file, "--seeds", "1..2", "--lh", "50",
                "--eta-max", "10", "--out", out1)
        monkeypatch.setenv("ECVRP_THREADS", "2")
        out2 = tmp_path / "par"
        run_cli("solve", tiny_file, "--seeds", "1..2", "--lh", "50",
                "--eta-max", "10", "--out", out2)
        for seed in (1, 2):
            assert (out1 / f"tiny3_seed{seed}.sol").read_text() == \
                (out2 / f"tiny3_seed{seed}.sol").read_text()

    def test_invalid_thread_count_rejected(self, tiny_file, tmp_path,
                                           monkeypatch, capsys):
        for raw in ("0", "two"):
            monkeypatch.setenv("ECVRP_THREADS", raw)
            assert run_cli("solve", tiny_file, "--seeds", "1..2",
                           "--out", tmp_path / "runs") == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ECVRP_THREADS")
            assert err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    def test_missing_instance_fails(self, tmp_path, capsys):
        assert run_cli("solve", tmp_path / "absent.evrp") == 1
        assert "error" in capsys.readouterr().err

    def test_ablation_flags(self, tiny_file, tmp_path):
        out = tmp_path / "ablate"
        code = run_cli("solve", tiny_file, "--seeds", "1", "--lh", "50",
                       "--eta-max", "10", "--no-g", "--no-f", "--gamma-zero",
                       "--no-m8", "--out", out)
        assert code == 0
        assert (out / "tiny3_seed1.sol").exists()

    def test_time_stop_criterion(self, tiny_file, tmp_path):
        out = tmp_path / "runs"
        code = run_cli("solve", tiny_file, "--stop", "time",
                       "--omega", "1e-4", "--seeds", "1", "--lh", "50",
                       "--eta-max", "10", "--out", out)
        assert code == 0
        assert (out / "tiny3_seed1.sol").exists()


class TestWorkerCount:
    def test_unset_means_sequential(self):
        assert worker_count(None, 8) == 1

    def test_clamped_to_seeds_and_cpus(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert worker_count("5000", 2) == 2
        assert worker_count("5000", 10) == 4
        assert worker_count("3", 10) == 3
        assert worker_count("1", 10) == 1
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert worker_count("8", 4) == 1

    @pytest.mark.parametrize("raw", ["0", "-1", "abc", "2.5", ""])
    def test_rejects_non_positive_or_non_integer(self, raw):
        with pytest.raises(ValueError, match="ECVRP_THREADS"):
            worker_count(raw, 4)


# malformed solution files for tiny3 and the one error line each gives,
# which names the file line at fault
MALFORMED = {
    "0,1,0,2,0\n0,3,0\nCOST 1.0\n":
        "line 1: depot 0 inside a route; give each route its own line",
    "0,1,2,0\n0,3,0\nCOST\n":
        "line 3: COST needs one finite number, got 'COST'",
    "0,1,2,0\n0,3,0\nCOST nan\n":
        "line 3: COST needs one finite number, got 'COST nan'",
    "0,1,2,0\n0,999,3,0\nCOST 1.0\n":
        "line 2: node id 999 outside this instance (0..4)",
    # a capacity-feasible plan whose first gap holds station 4 twice
    "0,1,4,4,2,0\n0,3,0\nCOST 1.0\n":
        "line 1: station 4 twice in a row",
    # a route line of a station alone
    "# header\n0,1,2,0\n0,3,0\n0,4,0\n":
        "line 4: route visits stations but no customer",
}


class TestValidate:
    def test_detects_missing_customer(self, tiny_file, tmp_path, capsys):
        bad = tmp_path / "bad.sol"
        bad.write_text("0,1,0\n0,2,0\nCOST 1.0\n")
        assert run_cli("validate", tiny_file, bad) == 1
        assert "MissingCustomer" in capsys.readouterr().out

    def test_detects_battery_depletion(self, detour_file, tmp_path, capsys):
        bad = tmp_path / "bad.sol"
        bad.write_text("0,1,0\nCOST 200.0\n")
        assert run_cli("validate", detour_file, bad) == 1
        assert "BatteryDepleted" in capsys.readouterr().out

    def test_flat_second_line_names_its_node(self, tmp_path, capsys):
        # the first line, 100 long, fits a battery of 150; the second runs
        # 100 out to customer 2 and 60 on to customer 3, 10 short there
        inst = make_instance(customers=[(50, 0), (0, 100), (0, 160)],
                             stations=[(99, 99)], capacity=2, battery=150,
                             rate=1.0, fleet=2, name="flat-second")
        inst_path = tmp_path / "flat.evrp"
        inst_path.write_text(serialize_instance(inst))
        sol = tmp_path / "sol.sol"
        sol.write_text("0,1,0\n0,2,3,0\n")
        assert run_cli("validate", inst_path, sol) == 1
        assert capsys.readouterr().out == \
            "INVALID BatteryDepleted: node 3 short by 10.000\n"

    def test_cost_mismatch_is_invalid(self, detour_file, tmp_path, capsys):
        # depot -> station -> customer -> station -> depot, four legs of
        # sqrt(2600): F = 203.96
        sol = tmp_path / "sol.sol"
        sol.write_text("0,2,1,2,0\nCOST 203.96\n")
        assert run_cli("validate", detour_file, sol) == 0
        assert capsys.readouterr().out == "OK 203.96\n"
        sol.write_text("0,2,1,2,0\nCOST 1.00\n")
        assert run_cli("validate", detour_file, sol) == 1
        assert capsys.readouterr().out == (
            "INVALID CostMismatch: file claims 1.00, recomputed 203.96\n")

    def test_rejects_garbage(self, tiny_file, tmp_path, capsys):
        bad = tmp_path / "bad.sol"
        bad.write_text("1,2,3\n")
        assert run_cli("validate", tiny_file, bad) == 2

    def test_rejects_unknown_node_ids(self, tiny_file, tmp_path, capsys):
        bad = tmp_path / "bad.sol"
        bad.write_text("0,1,999,0\n0,2,3,0\nCOST 1.0\n")
        assert run_cli("validate", tiny_file, bad) == 2
        assert "999" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "refine"])
    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed_file_is_one_line_error(self, tiny_file, tmp_path,
                                              capsys, command, text):
        bad = tmp_path / "bad.sol"
        bad.write_text(text)
        assert run_cli(command, tiny_file, bad) == 2
        assert one_error_line(capsys) == f"error: {MALFORMED[text]}\n"

    def test_empty_seed_spec_is_clean_error(self, tiny_file, capsys):
        assert run_cli("solve", tiny_file, "--seeds", "") == 1
        assert "error" in capsys.readouterr().err


def one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


class TestCliErrors:
    @pytest.mark.parametrize("command", ["solve", "analyze"])
    @pytest.mark.parametrize("omega", ["0", "-1", "nan", "inf"])
    def test_bad_time_budget(self, tiny_file, tmp_path, capsys, command,
                             omega):
        # a non-finite omega used to run forever: no arc limit and a wall
        # clock that never passes
        assert run_cli(command, tiny_file, "--stop", "time", "--omega", omega,
                       "--out", tmp_path / "runs") == 1
        assert "omega" in one_error_line(capsys)

    @pytest.mark.parametrize("command", ["solve", "analyze", "refine"])
    def test_out_below_a_file(self, tiny_file, tmp_path, capsys, monkeypatch,
                              command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        sol = tmp_path / "plan.sol"
        sol.write_text("0,1,2,0\n0,3,0\n")
        # solve must fail before it searches
        monkeypatch.setattr(cli, "_solve_seed",
                            lambda *a: pytest.fail("searched"))
        args = [sol] if command == "refine" else ["--lh", "50"]
        assert run_cli(command, tiny_file, *args,
                       "--out", blocker / "x") == 1
        assert str(blocker / "x") in one_error_line(capsys)

    def test_empty_out_keeps_the_input(self, tiny_file, tmp_path, capsys):
        # an empty --out used to write the refined plan over the input
        sol = tmp_path / "plan.sol"
        sol.write_text("0,1,2,0\n0,3,0\n")
        assert run_cli("refine", tiny_file, sol, "--out", "") == 2
        assert one_error_line(capsys) == "error: --out needs a file name\n"
        assert sol.read_text() == "0,1,2,0\n0,3,0\n"

    @pytest.mark.parametrize("flag", ["--lh", "--eta-max"])
    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_huge_history_or_attempt_cap(self, tiny_file, tmp_path, capsys,
                                         monkeypatch, command, flag):
        # rejected before the history list is allocated
        monkeypatch.setattr(cli, "_solve_seed",
                            lambda *a: pytest.fail("searched"))
        monkeypatch.setattr("ecvrp.analysis.collect_pairs",
                            lambda *a: pytest.fail("searched"))
        assert run_cli(command, tiny_file, flag, "1000000000",
                       "--out", tmp_path / "runs") == 1
        assert "1000000" in one_error_line(capsys)

    @pytest.mark.parametrize("flag, value", [
        ("--gamma", "nan"), ("--gamma", "inf"), ("--alpha-ub", "inf"),
        ("--alpha-ub", "nan"), ("--alpha-lb", "nan")])
    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_non_finite_search_parameter(self, tiny_file, tmp_path, capsys,
                                         monkeypatch, command, flag, value):
        # --gamma nan ran silently and never called the follower after
        # descent; rejected before any search
        monkeypatch.setattr(cli, "_solve_seed",
                            lambda *a: pytest.fail("searched"))
        monkeypatch.setattr("ecvrp.analysis.collect_pairs",
                            lambda *a: pytest.fail("searched"))
        assert run_cli(command, tiny_file, flag, value,
                       "--out", tmp_path / "runs") == 1
        assert "must be finite" in one_error_line(capsys)

    @pytest.mark.parametrize("command", ["solve", "validate", "oracle"])
    def test_instance_path_is_a_directory(self, tmp_path, capsys, command):
        args = {"solve": ["--out", tmp_path / "runs"], "oracle": [],
                "validate": [tmp_path / "plan.sol"]}[command]
        assert run_cli(command, tmp_path, *args) in (1, 2)
        one_error_line(capsys)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, code", [
        ("solve", 1), ("analyze", 1), ("oracle", 1), ("validate", 2),
        ("refine", 2)])
    def test_instance_not_utf8(self, tmp_path, capsys, command, code):
        # oracle used to end in a UnicodeDecodeError traceback
        path = tmp_path / "bad.evrp"
        path.write_bytes(b"\xff\xfe")
        sol = tmp_path / "plan.sol"
        sol.write_text("0,1,0\n")
        args = {"solve": ["--out", tmp_path / "runs"],
                "analyze": ["--out", tmp_path / "runs"], "oracle": [],
                "validate": [sol], "refine": [sol]}[command]
        assert run_cli(command, path, *args) == code
        assert "utf-8" in one_error_line(capsys)
        assert sol.read_text() == "0,1,0\n"

    @pytest.mark.parametrize("spec", ["1..3..5", "a", "1,,x", "1..b"])
    def test_malformed_seeds_are_named(self, tiny_file, tmp_path, capsys,
                                       spec):
        assert run_cli("solve", tiny_file, "--seeds", spec,
                       "--out", tmp_path / "runs") == 1
        assert one_error_line(capsys) == (
            f"error: --seeds {spec!r}: expected a..b or a comma list of "
            "integers\n")

    @pytest.mark.parametrize("spec", ["2,-2", "-3..3"])
    def test_negative_seed_refused_before_any_run(self, tiny_file, tmp_path,
                                                  capsys, spec):
        # random.Random(-2) draws the stream of random.Random(2): the run
        # would repeat seed 2 and count it twice in the report
        out = tmp_path / "runs"
        assert run_cli("solve", tiny_file, f"--seeds={spec}",
                       "--out", out) == 1
        assert one_error_line(capsys) == (
            f"error: --seeds {spec!r}: every seed must be >= 0\n")
        assert not out.exists()


class TestOneParser:
    @pytest.fixture
    def refine_argv(self, tiny_file, tmp_path):
        sol = tmp_path / "plan.sol"
        sol.write_text("0,1,2,0\n0,3,0\n")
        return ["refine", str(tiny_file), str(sol),
                "--out", str(tmp_path / "refined.sol")]

    def test_requests_leave_no_reference_cycles(self, refine_argv, capsys):
        # a parser built per call left about 310 objects in cycles
        assert main(refine_argv) == 0
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                assert main(refine_argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_command_replaced_after_the_first_call_runs(self, refine_argv,
                                                        monkeypatch, capsys):
        # wrappers installed on cli.cmd_refine see every request
        assert main(refine_argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_refine",
                            lambda args: seen.append(args.solution) or 7)
        assert main(refine_argv) == 7
        assert seen == [refine_argv[2]]


class TestEntryPoint:
    def test_module_run_matches_main(self, tiny_file, tmp_path, capsys):
        # the command as a fresh process: its exit code, stdout and output
        # file are those of an in-process main call
        sol = tmp_path / "plan.sol"
        sol.write_text("0,1,2,0\n0,3,0\n")
        out = tmp_path / "refined.sol"

        def take_output():
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return written

        seen = []
        for argv in (["refine", str(tiny_file), str(sol), "--out", str(out)],
                     ["--version"]):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
            in_process = (code, capsys.readouterr().out, take_output())
            done = subprocess.run(
                [sys.executable, "-m", "ecvrp.cli", *argv], env=fresh_env(),
                capture_output=True, text=True, timeout=120)
            assert done.stderr == ""
            assert (done.returncode, done.stdout, take_output()) == in_process
            seen.append(in_process)
        (refine_code, _, refined), version = seen
        assert refine_code == 0 and refined.startswith(b"# ecvrp")
        assert version == (0, f"ecvrp {cli.__version__}\n", None)


class TestFleetBound:
    def test_huge_fleet_gives_the_same_bytes_fast(self, tmp_path, capsys):
        # the search keeps min(VEHICLES, n + 1) route slots: no plan uses
        # more than n routes, and the lowest empty slot is always below n + 1
        customers = [(30, 0), (0, 40), (-25, -25), (10, 12)]
        outputs = []
        for fleet in (len(customers) + 1, 10**6):
            inst = make_instance(customers=customers, stations=[(20, 20)],
                                 demands=[2, 1, 2, 1], capacity=4,
                                 battery=120, rate=1.0, fleet=fleet,
                                 name="fleet")
            home = tmp_path / str(fleet)
            home.mkdir()
            path = home / "fleet.evrp"
            path.write_text(serialize_instance(inst))
            start = time.perf_counter()
            assert run_cli("solve", path, "--lh", "50", "--eta-max", "10",
                           "--out", home) == 0
            sol = home / "fleet_seed1.sol"
            assert run_cli("validate", path, sol) == 0
            assert run_cli("refine", path, sol, "--out", home / "r.sol") == 0
            elapsed = time.perf_counter() - start
            # comment lines name the input file
            outputs.append([[line for line in (home / name).read_text()
                             .splitlines() if not line.startswith("#")]
                            for name in ("fleet_seed1.sol",
                                         "fleet_seed1.trace.csv", "r.sol")])
        assert outputs[0] == outputs[1]
        # the parent's descent looped over 10**12 slot pairs
        assert elapsed < 10.0
        capsys.readouterr()


EMPTY_INSTANCE = """NAME: empty
TYPE: EVRP
VEHICLES: 1
DIMENSION: 1
STATIONS: 1
CAPACITY: 10
ENERGY_CAPACITY: 100
ENERGY_CONSUMPTION: 1
NODE_COORD_SECTION
1 0 0
2 5 5
DEMAND_SECTION
1 0
STATIONS_COORD_SECTION
2
DEPOT_SECTION
1
-1
EOF
"""


class TestMalformedInstance:
    def test_no_customers_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "empty.evrp"
        path.write_text(EMPTY_INSTANCE)
        assert run_cli("solve", path, "--out", tmp_path / "runs") == 1
        assert capsys.readouterr().err == "error: instance has no customers\n"

    @pytest.mark.parametrize("command", ["solve", "validate"])
    @pytest.mark.parametrize("old, new", [
        ("\n2 30.0 0.0\n", "\n2 nan 0.0\n"),
        ("\n3 1.0\n", "\n3 inf\n"),
        ("CAPACITY: 4.0", "CAPACITY: nan"),
        ("ENERGY_CAPACITY: 120.0", "ENERGY_CAPACITY: inf"),
        ("ENERGY_CONSUMPTION: 1.0", "ENERGY_CONSUMPTION: nan"),
    ])
    def test_non_finite_value_is_one_line_error(self, tiny_file, tmp_path,
                                                capsys, command, old, new):
        text = tiny_file.read_text()
        assert old in text
        tiny_file.write_text(text.replace(old, new, 1))
        sol = tmp_path / "plan.sol"
        sol.write_text("0,1,2,0\n0,3,0\n")
        args = [sol] if command == "validate" else ["--out", tmp_path / "runs"]
        assert run_cli(command, tiny_file, *args) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "finite" in captured.err

    @pytest.mark.parametrize("old, new", [
        ("DIMENSION: 4", "DIMENSION: two"),
        ("VEHICLES: 2", "VEHICLES: 1.5"),
    ])
    def test_unparsable_integer_header_is_one_line_error(
            self, tiny_file, tmp_path, capsys, old, new):
        text = tiny_file.read_text()
        assert old in text
        tiny_file.write_text(text.replace(old, new, 1))
        assert run_cli("solve", tiny_file, "--out", tmp_path / "runs") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        header = old.split(":")[0]
        assert captured.err == (f"error: header {header}: cannot parse "
                                f"{new.split(': ')[1]!r} as an integer\n")


class TestOneRoute:
    def test_single_customer_solve_stops(self, tmp_path, capsys):
        # one customer, one vehicle: no operator has a candidate, so the
        # run must stop after one converged cycle instead of restarting
        # until the default budget of 25,000 * pz^2 arcs is spent
        inst = make_instance(customers=[(10, 0)], stations=[(5, 5)],
                             battery=100, rate=1.0, fleet=1, name="one")
        path = tmp_path / "one.evrp"
        path.write_text(serialize_instance(inst))
        out = tmp_path / "runs"
        start = time.perf_counter()
        assert run_cli("solve", path, "--out", out) == 0
        assert time.perf_counter() - start < 10.0
        assert "F=20.00" in capsys.readouterr().out
        events = [line.rsplit(",", 1)[1] for line in
                  (out / "one_seed1.trace.csv").read_text().splitlines()[1:]]
        assert events.count("converged") == 1
        assert "restart" not in events


class TestRefine:
    def test_restores_optimal_charging(self, detour_file, tmp_path, capsys):
        # hand-worsened plan: charge twice through the only station but in a
        # レsingle gap as a pair is impossible here, so use both gaps plus a
        # needless depot-side stop pattern encoded by the same station
        worsened = tmp_path / "worsened.sol"
        leg = math.sqrt(2600.0)
        cost = 4 * leg
        worsened.write_text(f"0,2,1,2,0\nCOST {cost:.2f}\n")
        assert run_cli("refine", detour_file, worsened,
                       "--out", tmp_path / "refined.sol") == 0
        printed = capsys.readouterr().out
        refined = (tmp_path / "refined.sol").read_text()
        assert "0,2,1,2,0" in refined
        reported = float([line for line in refined.splitlines()
                          if line.startswith("COST")][0].split()[1])
        assert reported == pytest.approx(200 + (4 * leg - 200), abs=0.01)
        assert "f " in printed

    def test_fixpoint_on_optimal_input(self, detour_file, tmp_path):
        base = tmp_path / "opt.sol"
        leg = math.sqrt(2600.0)
        base.write_text(f"0,2,1,2,0\nCOST {4 * leg:.2f}\n")
        run_cli("refine", detour_file, base, "--out", tmp_path / "r1.sol")
        run_cli("refine", detour_file, tmp_path / "r1.sol",
                "--out", tmp_path / "r2.sol")
        r1 = (tmp_path / "r1.sol").read_text()
        r2 = (tmp_path / "r2.sol").read_text()
        assert [l for l in r1.splitlines() if not l.startswith("#")] == \
            [l for l in r2.splitlines() if not l.startswith("#")]

    def test_long_route(self, tmp_path, capsys):
        # one route of 1,100 customers and no stop: the search walks its
        # gaps in one loop, however many the route has
        inst = long_route_instance()
        inst_path = tmp_path / "long.evrp"
        inst_path.write_text(serialize_instance(inst))
        plan = tmp_path / "long.sol"
        plan.write_text(",".join(map(str, [0, *inst.customers, 0])) + "\n")
        out = tmp_path / "refined.sol"
        assert run_cli("refine", inst_path, plan, "--out", out) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        assert out.exists()

    def test_more_stops_than_the_recursion_limit(self, tmp_path, capsys):
        # a route whose 1,099 stops exceed Python's recursion limit is
        # refined and written, and the written plan validates
        inst = alternating_stops_instance()
        inst_path = tmp_path / "alternating.evrp"
        inst_path.write_text(serialize_instance(inst))
        plan = tmp_path / "alternating.sol"
        plan.write_text(",".join(map(str, [0, *inst.customers, 0])) + "\n")
        out = tmp_path / "refined.sol"
        assert run_cli("refine", inst_path, plan, "--out", out) == 0
        captured = capsys.readouterr()
        assert [line for line in captured.out.splitlines()
                if line.startswith("wrote")] == [f"wrote {out}"]
        assert captured.err == ""
        assert run_cli("validate", inst_path, out) == 0

    def test_infeasible_names_the_route_and_its_visit_bound(self, tmp_path,
                                                             capsys):
        # the second route needs 6 stops, more than its visit bound of 4..5
        inst = midpoint_line_instance(4)
        inst_path = tmp_path / "line.evrp"
        inst_path.write_text(serialize_instance(inst))
        plan = tmp_path / "plan.sol"
        text = "# two routes\n0,1,0\n" + ",".join(
            map(str, [0, *list(inst.customers)[1:], 0])) + "\n"
        plan.write_text(text)
        out = tmp_path / "refined.sol"
        assert run_cli("refine", inst_path, plan, "--out", out) == 1
        assert capsys.readouterr().out == (
            "INFEASIBLE: route on line 3 has no charging plan within "
            "4..5 stops\n")
        assert not out.exists()
        assert run_cli("refine", inst_path, plan) == 1
        assert plan.read_text() == text

    def test_invalid_plan_is_unusable_input(self, tiny_file, tmp_path,
                                            capsys):
        # a plan that fails the partition check is an input refine cannot
        # use: exit 2, with the verdict's detail
        plan = tmp_path / "plan.sol"
        plan.write_text("0,1,0\n0,2,0\n")
        assert run_cli("refine", tiny_file, plan,
                       "--out", tmp_path / "r.sol") == 2
        assert one_error_line(capsys) == (
            "error: MissingCustomer: customers [3] are not served\n")
        assert not (tmp_path / "r.sol").exists()

    @pytest.mark.parametrize("battery, detour, written", [
        (120, "0.00", "0,1,2,0"), (119, "0.64", "0,1,3,2,0")])
    def test_keeps_a_feasible_charging_it_cannot_beat(self, tmp_path, capsys,
                                                      battery, detour,
                                                      written):
        # the stop-free route 0,1,2,0 is 120 long, so its visit bound of 1
        # makes the follower stop once, at F 120.64: with a battery of 120
        # the input's own charging is feasible and cheaper, and refine
        # keeps it; with 119 it runs flat, and the follower's plan is taken
        inst = make_instance(customers=[(30, 0), (0, 40)],
                             stations=[(20, 20)], capacity=2,
                             battery=battery, rate=1.0, fleet=2, name="tiny")
        inst_path = tmp_path / "tiny.evrp"
        inst_path.write_text(serialize_instance(inst))
        plan = tmp_path / "plan.sol"
        plan.write_text("0,1,2,0\n")
        out = tmp_path / "refined.sol"
        assert run_cli("refine", inst_path, plan, "--out", out) == 0
        total = f"{120 + float(detour):.2f}"
        assert capsys.readouterr().out.splitlines()[0] == \
            f"f 0.00 -> {detour} (F 120.00 -> {total})"
        assert out.read_text().splitlines()[1:] == [written, f"COST {total}"]
        assert run_cli("validate", inst_path, out) == 0

    def test_prices_a_kept_input_once(self, monkeypatch, tmp_path, capsys):
        # a battery-feasible stop-free input is priced once, before the
        # follower runs, and that record is both printed and written; the
        # follower's plan is priced once more
        inst = make_instance(customers=[(30, 0), (0, 40)],
                             stations=[(20, 20)], capacity=2, battery=120,
                             rate=1.0, fleet=2, name="tiny")
        inst_path = tmp_path / "tiny.evrp"
        inst_path.write_text(serialize_instance(inst))
        plan = tmp_path / "plan.sol"
        plan.write_text("0,1,2,0\n")
        calls = []

        def counted(price):
            def run(*args):
                calls.append(args[0])
                return price(*args)
            return run

        monkeypatch.setattr(solution, "total_cost",
                            counted(solution.total_cost))
        monkeypatch.setattr(cli, "total_cost", counted(cli.total_cost))
        out = tmp_path / "refined.sol"
        assert run_cli("refine", inst_path, plan, "--out", out) == 0
        assert len(calls) == 2, calls
        assert capsys.readouterr().out.splitlines()[0] == \
            "f 0.00 -> 0.00 (F 120.00 -> 120.00)"
        assert out.read_text().splitlines()[1:] == ["0,1,2,0", "COST 120.00"]

    def test_one_battery_check_per_request(self, monkeypatch, tmp_path):
        # a kept input of three stop-free lines is checked as one walk
        inst = make_instance(customers=[(30, 0), (0, 40), (-25, -25)],
                             stations=[(20, 20)], battery=120, rate=1.0,
                             fleet=3, name="three")
        inst_path = tmp_path / "three.evrp"
        inst_path.write_text(serialize_instance(inst))
        plan = tmp_path / "plan.sol"
        plan.write_text("0,1,0\n0,2,0\n0,3,0\n")
        walks = []

        def counted(walk, *args):
            walks.append(list(walk))
            return solution.battery_feasible(walk, *args)

        monkeypatch.setattr(cli, "battery_feasible", counted)
        out = tmp_path / "refined.sol"
        assert run_cli("refine", inst_path, plan, "--out", out) == 0
        assert walks == [[0, 1, 0, 2, 0, 3, 0]]
        assert out.read_text().splitlines()[1:-1] == \
            ["0,1,0", "0,2,0", "0,3,0"]

    def test_refined_cost_never_higher(self, tiny_file, tmp_path, capsys):
        out = tmp_path / "runs"
        run_cli("solve", tiny_file, "--seeds", "1", "--lh", "50",
                "--eta-max", "10", "--out", out)
        sol = out / "tiny3_seed1.sol"
        before = float([l for l in sol.read_text().splitlines()
                        if l.startswith("COST")][0].split()[1])
        capsys.readouterr()
        assert run_cli("refine", tiny_file, sol,
                       "--out", tmp_path / "ref.sol") == 0
        after = float([l for l in (tmp_path / "ref.sol").read_text()
                       .splitlines() if l.startswith("COST")][0].split()[1])
        assert after <= before + 0.005


class TestAnalyzeAndOracle:
    def test_analyze_charge_free(self, tmp_path, capsys):
        inst = make_instance(
            customers=[(10, 0), (0, 12), (-8, -6), (15, 9), (-14, 3),
                       (4, -11)],
            stations=[(9, 9)], demands=[1, 1, 1, 1, 1, 1], capacity=3,
            battery=1e6, rate=1.0, fleet=3, name="flat")
        path = tmp_path / "flat.evrp"
        path.write_text(serialize_instance(inst))
        out = tmp_path / "analysis"
        code = run_cli("analyze", path, "--seeds", "2", "--lh", "50",
                       "--eta-max", "10", "--gamma", "1.3", "--out", out)
        assert code == 0
        report = (out / "flat_analysis.csv").read_text().splitlines()
        assert report[0] == \
            "instance,n_samples,tau_b,recall_1,recall_5,recall_10,recall_20"
        fields = report[1].split(",")
        assert fields[0] == "flat"
        assert float(fields[2]) == pytest.approx(1.0)
        assert (out / "flat_pairs.csv").exists()

    @pytest.mark.parametrize("flag", [
        "--no-g", "--no-f", "--gamma-zero", "--no-m8", "--trace-level=full"])
    def test_solve_only_options_rejected(self, tiny_file, capsys, flag):
        # analyze never passed them to the search: they were ignored
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", tiny_file, flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_analyze_rejects_several_seeds(self, tiny_file, tmp_path,
                                           capsys, monkeypatch):
        monkeypatch.setattr("ecvrp.analysis.collect_pairs",
                            lambda *a: pytest.fail("searched"))
        assert run_cli("analyze", tiny_file, "--seeds", "1..5",
                       "--out", tmp_path / "out") == 1
        assert "one seed" in one_error_line(capsys)

    def test_oracle_matches_brute_force(self, tiny_file, capsys):
        from ecvrp.analysis import brute_force_optimum
        from ecvrp.instance import load_instance
        assert run_cli("oracle", tiny_file) == 0
        printed = capsys.readouterr().out
        cost_line = [l for l in printed.splitlines()
                     if l.startswith("COST")][0]
        exact = brute_force_optimum(load_instance(tiny_file))
        assert float(cost_line.split()[1]) == pytest.approx(
            round(exact.total_cost, 2))

    def test_oracle_guards_large_instances(self, tmp_path, capsys):
        inst = make_instance(
            customers=[(i * 3, 5) for i in range(1, 10)],
            stations=[(5, 5)], fleet=9, name="big")
        path = tmp_path / "big.evrp"
        path.write_text(serialize_instance(inst))
        assert run_cli("oracle", path) == 1
        assert "error" in capsys.readouterr().err


class TestNoStations:
    @staticmethod
    def write(tmp_path, battery):
        inst = make_instance(
            customers=[(10, 0), (0, 12), (-8, -6), (15, 9)], stations=[],
            demands=[1, 1, 1, 1], capacity=2, battery=battery, rate=1.0,
            fleet=3, name="bare")
        path = tmp_path / "bare.evrp"
        path.write_text(serialize_instance(inst))
        return path

    def test_solve_matches_oracle(self, tmp_path, capsys):
        path = self.write(tmp_path, 1e9)
        assert run_cli("oracle", path) == 0
        cost = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("COST")][0].split()[1]
        assert run_cli("solve", path, "--lh", "50", "--eta-max", "10",
                       "--out", tmp_path / "runs") == 0
        assert f"F={cost} " in capsys.readouterr().out

    def test_battery_too_small_is_one_line_error(self, tmp_path, capsys):
        path = self.write(tmp_path, 5)
        assert run_cli("solve", path, "--lh", "50", "--eta-max", "10",
                       "--out", tmp_path / "runs") == 1
        assert "no battery-feasible solution" in one_error_line(capsys)
