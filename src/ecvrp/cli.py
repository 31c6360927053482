"""Command-line front end: solve, validate, refine, analyze, oracle.

Seeds expand from range syntax a..b or comma lists, at most 10**6 of them;
every seed is an independent deterministic run writing its own solution
and trace file.
ECVRP_THREADS caps how many seeds run as parallel worker processes
(default 1, sequential); the pool never exceeds the number of seeds or
of CPUs.

main is the one error boundary: an input error (any ValueError or
OSError, the search's SearchError among them) ends a command with one
`error:` line on stderr, and exit 2 when the command could not use its
input as given (validate's or refine's files, refine's plan failing the
partition or capacity check, an empty refine --out or ECVRP_THREADS),
exit 1 for anything else.

A command imports only what it runs: solve loads the search and
`statistics` for its report, and `concurrent.futures` with its worker
pool; analyze and oracle load the analysis (and so the search).  validate
and refine load none of these.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .charging import solve_exhaustive, visits_lower_bound
from .instance import DistanceOracle, load_instance, max_evals_budget, time_budget
from .solution import (
    battery_feasible,
    check_upper_feasible,
    evaluate_solution,
    format_solution,
    parse_solution_file,
    split_expanded_route,
    surrogate_cost,
    total_cost,
)

# solve's and analyze's search flags, each stored under the SearchParams
# field it sets; a flag not given stores nothing, so SearchParams supplies
# the default
SEARCH_FLAGS = (("--lh", "history_length", int),
                ("--eta-max", "max_attempts", int),
                ("--gamma", "follower_threshold", float),
                ("--alpha-lb", "alpha_lb", float),
                ("--alpha-ub", "alpha_ub", float))


class UnusableInput(ValueError):
    """The command cannot use its input as given; main exits 2."""


def parse_seeds(spec: str) -> tuple[int, ...]:
    """The seeds of a..b or of a comma list, at least one and at most
    PARAM_MAX of them, none negative (-3 would rerun seed 3)."""
    from .search import PARAM_MAX

    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            seeds = range(int(lo), int(hi) + 1)
        else:
            seeds = [int(tok) for tok in spec.split(",") if tok]
    except ValueError:
        raise ValueError(f"--seeds {spec!r}: expected a..b or a comma list "
                         "of integers") from None
    if not seeds:
        raise ValueError("at least one seed is required")
    # a range slices from its bounds, so a huge one is never expanded
    if seeds[PARAM_MAX:]:
        raise ValueError(f"--seeds {spec!r}: names more than {PARAM_MAX} "
                         "seeds")
    if min(seeds) < 0:
        raise ValueError(f"--seeds {spec!r}: every seed must be >= 0")
    return tuple(seeds)


def _params(args):
    """The SearchParams of the search flags given, checked before any
    file is read."""
    from .search import SearchParams

    return SearchParams(**{field: getattr(args, field)
                           for _, field, _ in SEARCH_FLAGS if field in args})


def _budget(inst, args):
    if args.stop == "evals":
        return max_evals_budget(inst)
    return time_budget(inst, args.omega)


def _solve_seed(job):
    """One seed of solve: job is solve's flags plus the instance and that
    seed's params.  Writes the seed's .sol and .trace.csv files into
    --out, so a later seed that raises keeps them, and returns its report
    row (seed, F, seconds, arcs, restarts)."""
    from .search import AblationToggles, run_blahc

    params = job.params
    toggles = AblationToggles(no_greedy_descent=job.no_g,
                              no_final_refinement=job.no_f,
                              gamma_zero=job.gamma_zero, no_m8=job.no_m8)
    budget = _budget(job.inst, job)
    start = time.perf_counter()
    solution, trace = run_blahc(job.inst, params, budget, toggles=toggles,
                                trace_level=job.trace_level)
    runtime = time.perf_counter() - start
    header = [
        f"ecvrp {__version__} instance={job.inst.name} seed={params.seed}",
        f"stop={job.stop} omega={job.omega} "
        f"lh={params.history_length} eta_max={params.max_attempts} "
        f"gamma={params.follower_threshold} "
        f"alpha=[{params.alpha_lb},{params.alpha_ub}] "
        f"toggles={toggles}",
    ]
    base = f"{job.out}/{Path(job.instance).stem}_seed{params.seed}"
    Path(f"{base}.sol").write_text(format_solution(solution, header))
    Path(f"{base}.trace.csv").write_text(trace.to_csv())
    return (params.seed, solution.total_cost, runtime,
            budget.arc_access_count, len(trace.events("restart")))


def worker_count(raw: str | None, n_jobs: int) -> int:
    """Worker processes for n_jobs seeds under ECVRP_THREADS=raw (unset
    means 1): the requested count, clamped to the seeds and the CPUs.
    Raises ValueError unless raw is unset or a positive integer."""
    if raw is None:
        return 1
    try:
        requested = int(raw)
    except ValueError:
        requested = 0
    if requested <= 0:
        raise UnusableInput(
            f"ECVRP_THREADS must be a positive integer, not {raw!r}")
    return min(requested, n_jobs, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    import statistics

    params = _params(args)
    seeds = parse_seeds(args.seeds)
    workers = worker_count(os.environ.get("ECVRP_THREADS"), len(seeds))
    inst = load_instance(args.instance)
    out = Path(args.out)
    # a bad --out fails here, not after the search
    out.mkdir(parents=True, exist_ok=True)
    jobs = (argparse.Namespace(**vars(args), inst=inst,
                               params=replace(params, seed=seed))
            for seed in seeds)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_solve_seed, jobs))
    else:
        rows = [_solve_seed(job) for job in jobs]
    report = ["seed,best_F,runtime_s,arc_accesses,restarts"]
    for seed, cost, runtime, arcs, restarts in rows:
        report.append(f"{seed},{cost:.2f},{runtime:.2f},{arcs},{restarts}")
    costs = [row[1] for row in rows]
    best, mean = min(costs), statistics.fmean(costs)
    std = statistics.stdev(costs) if len(costs) > 1 else 0.0
    report.append(f"aggregate,best={best:.2f},mean={mean:.2f},std={std:.2f},")
    report_path = out / f"{Path(args.instance).stem}_report.csv"
    report_path.write_text("\n".join(report) + "\n")
    for seed, cost, runtime, arcs, restarts in rows:
        print(f"seed {seed}: F={cost:.2f} arcs={arcs} "
              f"restarts={restarts} time={runtime:.1f}s")
    print(f"best {best:.2f} mean {mean:.2f} std {std:.2f}")
    print(f"report: {report_path}")
    return 0


def _load_inputs(args):
    """(instance, routes, slot lists, reported cost, file line number of
    each route, walk) of validate's and refine's files, where walk is the
    expanded route lines joined at the depot, the one walk battery_feasible
    checks.  Raises UnusableInput when either cannot be read; an error in
    a route names its file line."""
    lineno = None
    try:
        inst = load_instance(args.instance)
        expanded_routes, reported = parse_solution_file(
            Path(args.solution).read_text())
        plan = []
        slot_lists = []
        linenos = []
        walk = [0]
        for lineno, expanded in expanded_routes:
            route, slots = split_expanded_route(expanded, inst)
            plan.append(route)
            slot_lists.append(slots)
            linenos.append(lineno)
            walk += expanded[1:]
    except (ValueError, OSError) as exc:
        where = "" if lineno is None else f"line {lineno}: "
        raise UnusableInput(f"{where}{exc}") from None
    return inst, plan, slot_lists, reported, linenos, walk


def cmd_validate(args) -> int:
    inst, plan, slot_lists, reported, _, walk = _load_inputs(args)
    oracle = DistanceOracle.for_instance(inst)
    verdict = check_upper_feasible(plan, inst)
    if not verdict:
        print(f"INVALID {verdict.violation}: {verdict.detail}")
        return 1
    battery = battery_feasible(walk, inst, oracle)
    if not battery:
        print(f"INVALID BatteryDepleted: node {battery.failed_at} "
              f"short by {battery.deficit:.3f}")
        return 1
    full, _, _ = total_cost(plan, slot_lists, oracle)
    if reported is not None and abs(round(full, 2) - reported) > 0.005:
        print(f"INVALID CostMismatch: file claims {reported:.2f}, "
              f"recomputed {full:.2f}")
        return 1
    print(f"OK {full:.2f}")
    return 0


def cmd_refine(args) -> int:
    if args.out == "":
        raise UnusableInput("--out needs a file name")
    inst, plan, slot_lists, _, linenos, walk = _load_inputs(args)
    oracle = DistanceOracle.for_instance(inst)
    verdict = check_upper_feasible(plan, inst)
    if not verdict:
        raise UnusableInput(f"{verdict.violation}: {verdict.detail}")
    given = evaluate_solution(plan, slot_lists, oracle)
    result = solve_exhaustive(plan, inst, oracle)
    if not result.feasible:
        v = result.failed_route
        lb = visits_lower_bound(surrogate_cost([plan[v]], oracle), inst)
        print(f"INFEASIBLE: route on line {linenos[v]} has no "
              f"charging plan within {lb}..{lb + 1} stops")
        return 1
    solution = evaluate_solution(plan, result.plan, oracle)
    # as in the engine's final refinement, a battery-feasible input keeps
    # its charging unless the refined F is lower, so F never rises over it
    if not solution.total_cost < given.total_cost and \
            battery_feasible(walk, inst, oracle):
        solution = given
    out_path = Path(args.solution if args.out is None else args.out)
    out_path.write_text(format_solution(
        solution, [f"ecvrp {__version__} refined from {args.solution}"]))
    print(f"f {given.detour_cost:.2f} -> {solution.detour_cost:.2f} "
          f"(F {given.total_cost:.2f} -> {solution.total_cost:.2f})")
    print(f"wrote {out_path}")
    return 0


def cmd_analyze(args) -> int:
    from .analysis import collect_pairs, correlation_report_row, pairs_to_csv

    header = "instance,n_samples,tau_b,recall_1,recall_5,recall_10,recall_20"
    params = _params(args)
    seeds = parse_seeds(args.seeds)
    if len(seeds) > 1:
        raise ValueError(f"analyze runs one seed, --seeds {args.seeds!r} "
                         f"names {len(seeds)}")
    inst = load_instance(args.instance)
    budget = _budget(inst, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pairs = collect_pairs(inst, replace(params, seed=seeds[0]), budget)
    stem = Path(args.instance).stem
    (out / f"{stem}_pairs.csv").write_text(pairs_to_csv(pairs))
    row = correlation_report_row(inst.name, pairs)
    line = ",".join(str(row[k]) for k in header.split(","))
    (out / f"{stem}_analysis.csv").write_text(header + "\n" + line + "\n")
    print(header)
    print(line)
    return 0


def cmd_oracle(args) -> int:
    from .analysis import brute_force_optimum

    solution = brute_force_optimum(load_instance(args.instance))
    print(format_solution(solution, [f"ecvrp {__version__} exact oracle"]),
          end="")
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _add_run_options(sub):
    """Options shared by solve and analyze."""
    sub.add_argument("instance")
    sub.add_argument("--stop", choices=("evals", "time"), default="evals")
    sub.add_argument("--omega", type=float, default=1.0)
    for flag, field, kind in SEARCH_FLAGS:
        sub.add_argument(flag, dest=field, type=kind, default=argparse.SUPPRESS,
                         metavar=flag[2:].upper().replace("-", "_"))
    sub.add_argument("--seeds", default="1")
    sub.add_argument("--out", default="runs")


def _add_solve_options(sub):
    sub.add_argument("--trace-level", choices=("phase", "full"),
                     default="phase")
    sub.add_argument("--no-g", action="store_true",
                     help="skip the greedy-descent phase")
    sub.add_argument("--no-f", action="store_true",
                     help="skip the exhaustive final refinement")
    sub.add_argument("--gamma-zero", action="store_true",
                     help="never trigger the follower during search")
    sub.add_argument("--no-m8", action="store_true",
                     help="drop the route-creating operator from exploration")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: a build takes 2 ms and leaves cycles."""
    parser = argparse.ArgumentParser(
        prog="ecvrp",
        description="Bilevel solver for the electric capacitated VRP")
    parser.add_argument("--version", action="version",
                        version=f"ecvrp {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run the search on an instance")
    _add_run_options(solve)
    _add_solve_options(solve)

    validate = subs.add_parser("validate", help="check a solution file")
    validate.add_argument("instance")
    validate.add_argument("solution")

    refine = subs.add_parser(
        "refine", help="re-optimize charging of a solution file")
    refine.add_argument("instance")
    refine.add_argument("solution")
    refine.add_argument("--out", default=None)

    analyze = subs.add_parser(
        "analyze", help="surrogate-vs-full cost correlation report")
    _add_run_options(analyze)

    oracle = subs.add_parser(
        "oracle", help="exact brute-force optimum of a tiny instance")
    oracle.add_argument("instance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call: a cmd_* replaced after the parser was built runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UnusableInput) else 1


if __name__ == "__main__":
    sys.exit(main())
