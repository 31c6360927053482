"""Command-line front end: solve, validate, refine, analyze, oracle.

Seeds expand from range syntax a..b or comma lists, at most 10**6 of them;
every seed is an independent deterministic run writing its own solution
and trace file.
ECVRP_THREADS caps how many seeds run as parallel worker processes
(default 1, sequential); the pool never exceeds the number of seeds or
of CPUs.

main is the one error boundary: an input error ends a command with one
`error:` line on stderr, and exit 2 when the command could not use its
input as given (validate's or refine's files, an empty refine --out or
ECVRP_THREADS), exit 1 for anything else.

A command imports only what it runs: `statistics` loads with solve's
report and `concurrent.futures` with its worker pool, so refine and
validate load neither.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .analysis import (
    brute_force_optimum,
    collect_pairs,
    correlation_report_row,
    pairs_to_csv,
)
from .charging import solve_exhaustive, visits_lower_bound
from .instance import (
    EvaluationBudget,
    DistanceOracle,
    InstanceSpec,
    load_instance,
    max_evals_budget,
    time_budget,
)
from .search import (
    PARAM_MAX,
    AblationToggles,
    SearchError,
    SearchParams,
    run_blahc,
)
from .solution import (
    battery_feasible,
    check_upper_feasible,
    evaluate_solution,
    expand_route,
    format_solution,
    parse_solution_file,
    split_expanded_route,
    surrogate_cost,
    total_cost,
)


class UnusableInput(ValueError):
    """The command cannot use its input as given; main exits 2."""


@dataclass(frozen=True)
class RunConfig:
    instance_path: str
    stop: str = "evals"               # "evals" | "time"
    omega: float = 1.0
    seeds: tuple[int, ...] = (1,)
    params: SearchParams = field(default_factory=SearchParams)
    toggles: AblationToggles = field(default_factory=AblationToggles)
    out_dir: str = "runs"
    trace_level: str = "phase"

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.stop not in ("evals", "time"):
            raise ValueError("stop criterion must be 'evals' or 'time'")


@dataclass(frozen=True)
class SeedResult:
    seed: int
    best_cost: float
    runtime: float
    arc_accesses: int
    restarts: int
    solution_text: str
    trace_text: str


@dataclass(frozen=True)
class RunReport:
    instance: str
    results: tuple[SeedResult, ...]

    @property
    def best(self) -> float:
        return min(r.best_cost for r in self.results)

    @property
    def mean(self) -> float:
        import statistics

        return statistics.fmean(r.best_cost for r in self.results)

    @property
    def std(self) -> float:
        import statistics

        values = [r.best_cost for r in self.results]
        return statistics.stdev(values) if len(values) > 1 else 0.0

    def to_csv(self) -> str:
        lines = ["seed,best_F,runtime_s,arc_accesses,restarts"]
        for r in self.results:
            lines.append(f"{r.seed},{r.best_cost:.2f},{r.runtime:.2f},"
                         f"{r.arc_accesses},{r.restarts}")
        lines.append(f"aggregate,best={self.best:.2f},mean={self.mean:.2f},"
                     f"std={self.std:.2f},")
        return "\n".join(lines) + "\n"


def parse_seeds(spec: str) -> tuple[int, ...]:
    """The seeds of a..b or of a comma list, at most PARAM_MAX of them."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            seeds = range(int(lo), int(hi) + 1)
        else:
            seeds = [int(tok) for tok in spec.split(",") if tok]
    except ValueError:
        raise ValueError(f"--seeds {spec!r}: expected a..b or a comma list "
                         "of integers") from None
    # a range slices from its bounds, so a huge one is never expanded
    if seeds[PARAM_MAX:]:
        raise ValueError(f"--seeds {spec!r}: names more than {PARAM_MAX} "
                         "seeds")
    return tuple(seeds)


def _make_budget(inst: InstanceSpec, config: RunConfig) -> EvaluationBudget:
    if config.stop == "evals":
        return max_evals_budget(inst)
    return time_budget(inst, config.omega)


def _solve_one_seed(inst: InstanceSpec, config: RunConfig, seed: int) -> SeedResult:
    params = replace(config.params, seed=seed)
    budget = _make_budget(inst, config)
    start = time.perf_counter()
    solution, trace = run_blahc(inst, params, budget, toggles=config.toggles,
                                trace_level=config.trace_level)
    runtime = time.perf_counter() - start
    header = [
        f"ecvrp {__version__} instance={inst.name} seed={seed}",
        f"stop={config.stop} omega={config.omega} "
        f"lh={params.history_length} eta_max={params.max_attempts} "
        f"gamma={params.follower_threshold} "
        f"alpha=[{params.alpha_lb},{params.alpha_ub}] "
        f"toggles={config.toggles}",
    ]
    return SeedResult(
        seed=seed,
        best_cost=solution.total_cost,
        runtime=runtime,
        arc_accesses=budget.arc_access_count,
        restarts=len(trace.events("restart")),
        solution_text=format_solution(solution, header),
        trace_text=trace.to_csv(),
    )


def _solve_one_seed_star(args):
    return _solve_one_seed(*args)


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


def run_config(inst: InstanceSpec, config: RunConfig,
               workers: int = 1) -> RunReport:
    jobs = [(inst, config, seed) for seed in config.seeds]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_one_seed_star, jobs))
    else:
        results = [_solve_one_seed(*job) for job in jobs]
    return RunReport(instance=inst.name, results=tuple(results))


def write_report(report: RunReport, config: RunConfig) -> Path:
    """Write the per-seed files and the report into config.out_dir, which
    must exist."""
    out = Path(config.out_dir)
    stem = Path(config.instance_path).stem
    for r in report.results:
        (out / f"{stem}_seed{r.seed}.sol").write_text(r.solution_text)
        (out / f"{stem}_seed{r.seed}.trace.csv").write_text(r.trace_text)
    report_path = out / f"{stem}_report.csv"
    report_path.write_text(report.to_csv())
    return report_path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    config = replace(
        _config_from_args(args),
        toggles=AblationToggles(
            no_greedy_descent=args.no_g,
            no_final_refinement=args.no_f,
            gamma_zero=args.gamma_zero,
            no_m8=args.no_m8,
        ),
        trace_level=args.trace_level)
    workers = worker_count(os.environ.get("ECVRP_THREADS"), len(config.seeds))
    inst = load_instance(config.instance_path)
    # a bad --out fails here, not after the search
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    report = run_config(inst, config, workers)
    path = write_report(report, config)
    for r in report.results:
        print(f"seed {r.seed}: F={r.best_cost:.2f} arcs={r.arc_accesses} "
              f"restarts={r.restarts} time={r.runtime:.1f}s")
    print(f"best {report.best:.2f} mean {report.mean:.2f} "
          f"std {report.std:.2f}")
    print(f"report: {path}")
    return 0


def _load_inputs(args):
    """(instance, routes, slot lists, reported cost, line number of each
    route) of validate's and refine's files.  Raises UnusableInput when
    either cannot be read; an error in a route names its file line."""
    lineno = None
    try:
        inst = load_instance(args.instance)
        expanded_routes, reported = parse_solution_file(
            Path(args.solution).read_text())
        plan = []
        slot_lists = []
        for lineno, expanded in expanded_routes:
            route, slots = split_expanded_route(expanded, inst)
            plan.append(route)
            slot_lists.append(slots)
    except (ValueError, OSError) as exc:
        where = "" if lineno is None else f"line {lineno}: "
        raise UnusableInput(f"{where}{exc}") from None
    linenos = [lineno for lineno, _ in expanded_routes]
    return inst, plan, slot_lists, reported, linenos


def cmd_validate(args) -> int:
    inst, plan, slot_lists, reported, _ = _load_inputs(args)
    oracle = DistanceOracle.for_instance(inst)
    verdict = check_upper_feasible(plan, inst)
    if not verdict:
        print(f"INVALID {verdict.violation}: {verdict.detail}")
        return 1
    for route, slots in zip(plan, slot_lists):
        if not route:
            continue
        battery, _ = battery_feasible(expand_route(route, slots), inst, oracle)
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
    inst, plan, slot_lists, _, linenos = _load_inputs(args)
    oracle = DistanceOracle.for_instance(inst)
    verdict = check_upper_feasible(plan, inst)
    if not verdict:
        raise ValueError(f"routing plan invalid: {verdict.violation}")
    old_total, old_detour, _ = total_cost(plan, slot_lists, oracle)
    result = solve_exhaustive(plan, inst, oracle)
    if not result.feasible:
        v = result.failed_route
        lb = visits_lower_bound(surrogate_cost([plan[v]], oracle), inst)
        print(f"INFEASIBLE: route on line {linenos[v]} has no charging plan "
              f"within {lb}..{lb + 1} stops")
        return 1
    solution = evaluate_solution(plan, result.plan.slots, oracle)
    out_path = Path(args.solution if args.out is None else args.out)
    out_path.write_text(format_solution(
        solution, [f"ecvrp {__version__} refined from {args.solution}"]))
    print(f"f {old_detour:.2f} -> {solution.detour_cost:.2f} "
          f"(F {old_total:.2f} -> {solution.total_cost:.2f})")
    print(f"wrote {out_path}")
    return 0


def cmd_analyze(args) -> int:
    header = "instance,n_samples,tau_b,recall_1,recall_5,recall_10,recall_20"
    config = _config_from_args(args)
    if len(config.seeds) > 1:
        raise ValueError(f"analyze runs one seed, --seeds {args.seeds!r} "
                         f"names {len(config.seeds)}")
    inst = load_instance(config.instance_path)
    budget = _make_budget(inst, config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs, _ = collect_pairs(
        inst, replace(config.params, seed=config.seeds[0]), budget)
    stem = Path(config.instance_path).stem
    (out / f"{stem}_pairs.csv").write_text(pairs_to_csv(pairs))
    row = correlation_report_row(inst.name, pairs)
    line = ",".join(str(row[k]) for k in header.split(","))
    (out / f"{stem}_analysis.csv").write_text(header + "\n" + line + "\n")
    print(header)
    print(line)
    return 0


def cmd_oracle(args) -> int:
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
    sub.add_argument("--lh", type=int, default=SearchParams.history_length)
    sub.add_argument("--eta-max", type=int, default=SearchParams.max_attempts)
    sub.add_argument("--gamma", type=float,
                     default=SearchParams.follower_threshold)
    sub.add_argument("--alpha-lb", type=float, default=SearchParams.alpha_lb)
    sub.add_argument("--alpha-ub", type=float, default=SearchParams.alpha_ub)
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


def _config_from_args(args) -> RunConfig:
    """The run options of _add_run_options; toggles and trace level keep
    their defaults."""
    params = SearchParams(
        history_length=args.lh,
        max_attempts=args.eta_max,
        follower_threshold=args.gamma,
        alpha_lb=args.alpha_lb,
        alpha_ub=args.alpha_ub,
    )
    return RunConfig(
        instance_path=args.instance,
        stop=args.stop,
        omega=args.omega,
        seeds=parse_seeds(args.seeds),
        params=params,
        out_dir=args.out,
    )


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
    except (ValueError, OSError, SearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UnusableInput) else 1


if __name__ == "__main__":
    sys.exit(main())
