"""Fuzzing of the input parsers, the capacity rule and the command line.
Malformed text may only raise ValueError (InstanceError is one), never
another exception, and every subcommand exits 0, or 1 or 2 with one error
line.  Capacity is decided exactly on the binary values of the demands.
The instance parser gives the result or error of its reference, the
parser that ran every line through the keyword and header tests.

Examples are derandomized, so every run draws the same inputs.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecvrp import cli
from ecvrp.instance import (
    DistanceOracle,
    InstanceError,
    parse_instance,
    serialize_instance,
)
from ecvrp.search import InstanceInfeasible, split_giant_tour
from ecvrp.solution import (
    check_upper_feasible,
    parse_solution_file,
    split_expanded_route,
)
from conftest import make_instance
from helpers import parse_instance_reference

FUZZ = settings(max_examples=250, derandomize=True, deadline=None)

BASE_INSTANCE = """NAME: fuzz
TYPE: EVRP
OPTIMAL_VALUE: 99.5
VEHICLES: 2
DIMENSION: 4
STATIONS: 2
CAPACITY: 10
ENERGY_CAPACITY: 50.0
ENERGY_CONSUMPTION: 1.0
NODE_COORD_SECTION
1 0 0
2 3 2
3 6 4
4 9 1
5 12 3
6 15 0
DEMAND_SECTION
1 0
2 1
3 4
4 2
STATIONS_COORD_SECTION
5
6
DEPOT_SECTION
1
-1
EOF"""

KEYWORDS = ["NAME", "TYPE", "OPTIMAL_VALUE", "VEHICLES", "DIMENSION",
            "STATIONS", "CAPACITY", "ENERGY_CAPACITY", "ENERGY_CONSUMPTION",
            "NODE_COORD_SECTION", "DEMAND_SECTION", "STATIONS_COORD_SECTION",
            "DEPOT_SECTION", "EOF", "COST"]

TOKENS = st.one_of(
    st.sampled_from(["0", "1", "2", "5", "-1", "7", "1.5", "-0.0", "1e400",
                     "nan", "inf", "-inf", "two", "", ":", "#", ",", "0,1,0",
                     *KEYWORDS, *(k + ":" for k in KEYWORDS)]),
    st.integers(-10, 10).map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)


@st.composite
def edited_lines(draw, base: str):
    """base with a few lines dropped, duplicated, swapped, inserted or
    with one token replaced."""
    lines = base.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "dup", "swap", "insert",
                                     "token"]))
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "insert":
            lines.insert(i, " ".join(draw(st.lists(TOKENS, max_size=3))))
        else:
            sep = draw(st.sampled_from([" ", ",", ":"]))
            parts = lines[i].split(sep)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            lines[i] = sep.join(parts)
    return "\n".join(lines)


@st.composite
def reshaped(draw, texts):
    """A text drawn from texts, with LF, CRLF or CR line ends, some lines
    indented, and sometimes a data line among the headers, before any
    section."""
    lines = draw(texts).split("\n")
    indents = draw(st.lists(st.sampled_from(["", "", " ", "\t", " \t "]),
                            min_size=len(lines), max_size=len(lines)))
    lines = [pad + line for pad, line in zip(indents, lines)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, min(9, len(lines)))),
                     draw(st.sampled_from(["1 0 0", "7", "2 3 2", "5:NAME"])))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


def outcome(parse, text):
    try:
        return repr(parse(text))
    except Exception as exc:
        return type(exc), str(exc)


class TestParseInstance:
    @FUZZ
    @given(st.one_of(edited_lines(BASE_INSTANCE), st.text(max_size=200)))
    def test_only_instance_errors_escape(self, text):
        try:
            inst = parse_instance(text)
        except InstanceError:
            return
        # whatever parses survives a write/read cycle unchanged
        assert parse_instance(serialize_instance(inst)) == inst

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(reshaped(st.one_of(edited_lines(BASE_INSTANCE),
                              st.text(max_size=200))))
    @example(BASE_INSTANCE.replace("\n", "\r\n"))
    @example(BASE_INSTANCE.replace("\n", "\n  "))
    @example("1 0 0\n" + BASE_INSTANCE)
    def test_matches_reference_parser(self, text):
        assert outcome(parse_instance, text) == outcome(
            parse_instance_reference, text)


BASE_SOLUTION = """# solution of fuzz
0,1,5,2,0
0,3,5,6,0
COST 61.25"""


class TestParseSolution:
    @FUZZ
    @given(st.one_of(edited_lines(BASE_SOLUTION), st.text(max_size=120)))
    def test_only_value_errors_escape(self, text):
        try:
            routes, reported = parse_solution_file(text)
        except ValueError:
            return
        for _, nodes in routes:
            assert nodes[0] == nodes[-1] == 0 and 0 not in nodes[1:-1]


class TestSplitExpandedRoute:
    INST = make_instance(customers=[(3, 2), (6, 4), (9, 1)],
                         stations=[(12, 3), (15, 0)])

    @FUZZ
    @given(st.lists(st.integers(-2, 8), max_size=12))
    def test_only_value_errors_escape(self, expanded):
        try:
            route, slots = split_expanded_route(expanded, self.INST)
        except ValueError:
            return
        assert all(1 <= c <= self.INST.num_customers for c in route)


# decimal demands, which no binary float holds exactly, and the float
# extremes: the least subnormal and a value near the largest float
DEMANDS = st.one_of(st.integers(1, 30).map(lambda k: k / 10),
                    st.integers(1, 300).map(lambda k: k / 100),
                    st.sampled_from([5e-324, 1e308]))


@st.composite
def capacity_case(draw):
    """An instance of up to 12 customers with DEMANDS, a customer
    permutation to split and a random plan over its route slots."""
    demands = draw(st.lists(DEMANDS, min_size=1, max_size=12))
    n = len(demands)
    capacity = max(draw(st.one_of(DEMANDS, st.integers(1, 10).map(float))),
                   *demands)
    inst = make_instance(
        customers=draw(st.lists(st.tuples(st.integers(-20, 20),
                                          st.integers(-20, 20)),
                                min_size=n, max_size=n)),
        stations=[(5, 5)], demands=demands, capacity=capacity,
        fleet=draw(st.integers(1, n)))
    perm = draw(st.permutations(list(inst.customers)))
    plan = [[] for _ in range(inst.route_slots)]
    for c in perm:
        plan[draw(st.integers(0, inst.route_slots - 1))].append(c)
    return inst, perm, plan


# 1e308 + 5e-324 rounds to 1e308 as a float, but exceeds it exactly, and
# so do ten demands of 0.1 a capacity of 1.0
EXTREMES = make_instance(customers=[(1, 0), (2, 0), (3, 0)],
                         stations=[(5, 5)], demands=[5e-324, 1e308, 0.1],
                         capacity=1e308, fleet=3)
TENTHS = make_instance(customers=[(k, 0) for k in range(1, 11)],
                       stations=[(5, 5)], demands=[0.1] * 10, capacity=1.0,
                       fleet=2)


class TestCapacityRule:
    @settings(max_examples=150, derandomize=True, deadline=2000)
    @given(capacity_case())
    @example((EXTREMES, [1, 2, 3], [[1, 2], [3], []]))
    @example((TENTHS, list(range(1, 11)), [list(range(1, 11)), []]))
    def test_split_and_check_agree_on_exact_units(self, case):
        inst, perm, plan = case
        units, cap = inst.cargo_units
        # the units are exact: a route fits iff the exact rational sum of
        # its demands does, and they stay within the 2,098 bits of the
        # largest float's numerator times the least subnormal's denominator
        assert int(cap).bit_length() <= 2098
        fits = [sum(units[c] for c in r) <= cap for r in plan]
        assert fits == [sum(map(Fraction, (inst.demands[c] for c in r)))
                        <= Fraction(inst.cargo_capacity) for r in plan]
        verdict = check_upper_feasible(plan, inst)
        assert verdict.ok == all(fits)
        if not verdict.ok:
            assert verdict.violation == "CapacityExceeded"
            # the detail shows, exactly enough, a load above the capacity
            load, shown_cap = verdict.detail.split(" load ")[1].split(
                " > capacity ")
            assert sum(map(Fraction, load.split(" + "))) > Fraction(shown_cap)
        oracle = DistanceOracle.for_instance(inst)
        try:
            routes = split_giant_tour(perm, inst, oracle)
        except InstanceInfeasible:
            # one route a customer always fits
            assert inst.route_slots < inst.num_customers
            return
        assert check_upper_feasible(routes, inst).ok
        assert [c for r in routes for c in r] == list(perm)


def cli_instance(coords=1.0, battery=1.0, rate=1.0, load=1.0) -> str:
    """A two-customer, one-station instance file, its coordinates, battery,
    consumption rate and demands scaled by the given factors."""
    return f"""NAME: cli
TYPE: EVRP
VEHICLES: 2
DIMENSION: 3
STATIONS: 1
CAPACITY: {4 * load!r}
ENERGY_CAPACITY: {120 * battery!r}
ENERGY_CONSUMPTION: {rate!r}
NODE_COORD_SECTION
1 0.0 0.0
2 {30 * coords!r} 0.0
3 0.0 {40 * coords!r}
4 {20 * coords!r} {20 * coords!r}
DEMAND_SECTION
1 0.0
2 {2 * load!r}
3 {load!r}
STATIONS_COORD_SECTION
4
DEPOT_SECTION
1
-1
EOF"""


# solve and analyze always run under a wall-clock budget of about 10 ms
# (--stop time --omega 1e-4, and the drawn --stop never asks for the arc
# budget, which takes about 0.3 s here), so every example stays short; the
# arc-budget path is covered by test_cli.
CLI_INSTANCE = cli_instance()
CLI_SOLUTION = "0,1,3,0\n0,2,0\nCOST 101.23"
# factors across the float range: each value is finite, their products
# and distances may not be
SCALES = st.sampled_from([1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300])

# the first value of each list is valid, and drawn more often
CLI_VALUES = {
    "--stop": ["time", "x"],
    "--omega": ["1e-4", "0", "-1", "nan", "inf", "x"],
    "--lh": ["5", "1", "0", "-1", "x", "1.5"],
    "--eta-max": ["10", "1", "0", "x"],
    "--gamma": ["1.01", "1.5", "0.5", "nan", "inf", "x"],
    "--alpha-lb": ["0.98", "1.5", "0", "nan", "x"],
    "--alpha-ub": ["1.02", "0.5", "inf", "nan", "x"],
    "--seeds": ["1..2", "1", "2,1", "", "3..1", "1..3..5", "x", "-1"],
    "--out": ["out", "blocker/x", "blocker", "inst.evrp", ""],
    "--trace-level": ["full", "phase", "x"],
}
# solve's ablation toggles; analyze takes none of them, nor --trace-level
RUN_FLAGS = ["--no-g", "--no-f", "--gamma-zero", "--no-m8"]
STRAY = ["--bogus", "-h", "--version", "--", "x"]
# each subcommand's positionals, valid ones first, and its options
COMMANDS = {
    "solve": (["inst.evrp"], sorted(CLI_VALUES)),
    "analyze": (["inst.evrp"], sorted(set(CLI_VALUES) - {"--trace-level"})),
    "validate": (["inst.evrp", "plan.sol"], []),
    "refine": (["inst.evrp", "plan.sol"], ["--out"]),
    "oracle": (["inst.evrp"], []),
}
PATHS = ["plan.sol", "inst.evrp", "missing.evrp", ".", "blocker", ""]


def mostly_first(values):
    return st.sampled_from([values[0]] * 3 + list(values))


@st.composite
def cli_call(draw):
    """argv for one subcommand, an ECVRP_THREADS value and the two files."""
    command = draw(st.sampled_from(["solve", "analyze"] * 3
                                   + [*COMMANDS, "bogus"]))
    positionals, options = COMMANDS.get(command, (["inst.evrp"], []))
    argv = [command]
    if command in ("solve", "analyze"):
        argv += ["--stop", "time", "--omega", "1e-4"]
    argv += [draw(mostly_first([path, *PATHS])) for path in positionals]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["value"] * 6 + ["flag", "stray"]))
        if kind == "value" and options:
            flag = draw(st.sampled_from(options))
            argv += [flag, draw(mostly_first(CLI_VALUES[flag]))]
        elif kind == "flag" and command == "solve":
            argv.append(draw(st.sampled_from(RUN_FLAGS)))
        elif kind == "stray":
            argv.insert(draw(st.integers(1, len(argv))),
                        draw(st.sampled_from(STRAY)))
    threads = draw(st.sampled_from([None, "1", "2", "0", "-3", "x", ""]))
    instance = draw(st.one_of(
        st.just(CLI_INSTANCE), edited_lines(CLI_INSTANCE),
        st.builds(cli_instance, SCALES, SCALES, SCALES, SCALES)))
    solution = draw(st.one_of(st.just(CLI_SOLUTION),
                              edited_lines(CLI_SOLUTION)))
    return argv, threads, instance, solution


class TestCli:
    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(cli_call())
    def test_error_is_one_line(self, call):
        argv, threads, instance, solution = call
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as home, \
                pytest.MonkeyPatch.context() as mp:
            mp.chdir(home)
            Path("inst.evrp").write_text(instance)
            Path("plan.sol").write_text(solution)
            Path("blocker").write_text("")
            # clamp to one worker: no process pool starts
            mp.setattr(cli.os, "cpu_count", lambda: 1)
            if threads is None:
                mp.delenv("ECVRP_THREADS", raising=False)
            else:
                mp.setenv("ECVRP_THREADS", threads)
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:   # argparse: usage, help, version
                    code = exc.code
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            return
        assert code in (1, 2), (argv, code)
        if err.startswith("usage:"):
            assert code == 2 and err.splitlines()[-1].startswith("ecvrp")
            assert err.count(" error: ") == 1, err
        elif err:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            # a verdict on the plan, not an error
            assert code == 1 and argv[0] in ("validate", "refine"), argv
            assert out.startswith(("INVALID ", "INFEASIBLE:")), out
