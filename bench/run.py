"""Benchmark of the ecvrp solver: one workload per run, one JSON result line.

    python3 bench/run.py --workload e22-search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run it from a checkout of the repository: ecvrp is imported from src/
beside this directory and nothing is installed.  Each workload runs a
search stage (run_blahc calls) and a refine stage (`ecvrp refine` requests
through the CLI entry point, a closed loop with one client); its instance
recipe, search seeds and mix are in workloads.py.  The seed orders the
refine plans.  Every output is checked here, and repeated inputs must give
byte-identical outputs.  End-to-end times are wall times scaled to a common
machine speed by the passes of yardstick.py.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run, which runs its operations
once untraced and once under the wrappers of tracing.py.  Metric names and
units come from BENCHMARK.json at the repository root.  Scratch files, span
dumps and the determinism records go to .bench_out/.  The exit code is 0
only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2   # fresh-process setups after each chunk

# timed in a fresh interpreter: what a user pays before the first search
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import ecvrp
inst = ecvrp.load_instance(sys.argv[1])
ecvrp.build_best_station_table(inst, ecvrp.DistanceOracle.for_instance(inst))
print(repr(time.perf_counter() - t0))
"""


def digest(*texts: str) -> str:
    """Hash of outputs without their comment lines, which hold file paths."""
    h = hashlib.sha256()
    for text in texts:
        for line in text.splitlines():
            if not line.startswith("#"):
                h.update(line.encode() + b"\n")
    return h.hexdigest()


def code_hash() -> str:
    """Identifies the program and benchmark sources a record belongs to."""
    h = hashlib.sha256()
    files = sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py"),
                    *BENCH.glob("*.json")])
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ECVRP_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    import numpy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "ECVRP_THREADS": os.environ.get("ECVRP_THREADS", "unset"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


class Run:
    """One workload run: inputs, operations, checks and collected timings."""

    def __init__(self, workload, seed: int, workdir: Path):
        from ecvrp import load_instance
        from ecvrp.instance import serialize_instance
        from workloads import INSTANCES, load_expected, plan_catalogue

        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.spec = INSTANCES[workload.instance]()
        self.inst_path = workdir / f"{self.spec.name}.evrp"
        self.inst_path.write_text(serialize_instance(self.spec))
        self.inst = load_instance(self.inst_path)
        if replace(self.inst, original_ids=()) != self.spec:
            raise SystemExit("error: instance changed in a write/read cycle")

        self.plans = dict(plan_catalogue(self.spec))
        self.expected = load_expected()[workload.instance]
        if set(self.plans) != set(self.expected):
            raise SystemExit("error: plan catalogue differs from "
                             "expected_refine.json; re-record it")
        self.plan_paths = {}
        for key, routes in self.plans.items():
            path = workdir / f"plan{key}.sol"
            path.write_text("".join(
                f"0,{','.join(map(str, r))},0\n" for r in routes))
            self.plan_paths[key] = path

        self.search_seeds = list(workload.search_seeds)
        self.refine_keys = workload.refine_keys(list(self.plans), seed)

        self.tracer = None
        self.attempted = 0
        self.failed: set[int] = set()
        self.digests: dict[str, str] = {}
        self.first_index: dict[str, int] = {}
        self.costs: dict[int, float] = {}
        self.yard = None          # a Yardstick in untraced runs
        self.search_t: list[tuple] = []   # start, end, arcs, seed
        self.refine_t: list[tuple] = []   # start, end, plan key
        self.search_traces: list = []

    # -- bookkeeping -----------------------------------------------------

    def fail(self, index: int, what: str, why) -> None:
        self.failed.add(index)
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def op(self, key: str, fn) -> None:
        """Run one operation; an exception, a failed check or an output that
        differs from an earlier run of the same input marks it failed."""
        index = self.attempted
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:  # one failed operation must not stop the run
            self.fail(index, key, f"{type(exc).__name__}: {exc}")
            return
        if key not in self.digests:
            self.digests[key] = result
            self.first_index[key] = index
        elif self.digests[key] != result:
            self.fail(index, key, "output differs from an earlier run")

    def tick(self) -> None:
        if self.yard is not None:
            self.yard.tick()

    def span(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    # -- operations --------------------------------------------------------

    def cli_refine(self, plan_path: Path, out_path: Path):
        from ecvrp import cli
        out_path.unlink(missing_ok=True)
        argv = ["refine", str(self.inst_path), str(plan_path),
                "--out", str(out_path)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                rc = self.span("op.refine", cli.main, argv)
            except SystemExit as exc:
                rc = exc.code
            t1 = time.perf_counter()
        return (t0, t1), rc, buf.getvalue()

    def search(self, seed: int) -> str:
        from checks import CheckFailed, check_solution
        from ecvrp import EvaluationBudget, SearchParams, run_blahc
        from ecvrp.solution import format_solution

        limit = self.w.arc_slice or self.inst.max_arc_accesses()
        budget = EvaluationBudget(max_arc_accesses=limit)
        hooks = self.tracer.hooks() if self.tracer else None
        if self.yard is not None:   # passes inside long runs, left out of
            hooks = {"on_follower": self.yard.tick}   # their times
        t0 = time.perf_counter()
        solution, trace = self.span("op.search", run_blahc, self.inst,
                                    SearchParams(seed=seed), budget,
                                    hooks=hooks)
        self.search_t.append((t0, time.perf_counter(),
                              budget.arc_access_count, seed))
        if self.tracer is not None:
            self.search_traces.append(trace)

        if budget.arc_access_count > limit + self.inst.pz:
            raise CheckFailed(f"{budget.arc_access_count} arcs > limit "
                              f"{limit} + pz")
        text = format_solution(solution, [f"{self.w.name} seed {seed}"])
        cost = check_solution(self.spec, text)
        if abs(cost - solution.total_cost) > 1e-6:
            raise CheckFailed(f"returned F {solution.total_cost} but "
                              f"recomputed {cost}")
        self.costs[seed] = solution.total_cost

        # solve -> refine: refining a search result must never raise F
        path = self.workdir / f"search{seed}.sol"
        path.write_text(text)
        refined_path = self.workdir / f"search{seed}.refined.sol"
        self.tick()
        _, rc, out = self.cli_refine(path, refined_path)
        if rc != 0:
            raise CheckFailed(f"refine of the result exited {rc}: {out!r}")
        refined = refined_path.read_text()
        routes = solution.routing.routes
        if check_solution(self.spec, refined, routes) > cost + 1e-6:
            raise CheckFailed("refine raised F of a search result")
        return digest(text, trace.to_csv(), refined)

    def refine(self, key: str) -> str:
        from checks import CheckFailed, check_solution

        out_path = self.workdir / "refined.sol"
        span, rc, out = self.cli_refine(self.plan_paths[key], out_path)
        self.refine_t.append((*span, key))
        optimum = self.expected[key]
        if optimum is None:
            if rc != 1 or not out.startswith("INFEASIBLE"):
                raise CheckFailed(f"expected INFEASIBLE, got exit {rc}: "
                                  f"{out!r}")
            return "INFEASIBLE"
        if rc != 0:
            raise CheckFailed(f"exit {rc}: {out!r}")
        text = out_path.read_text()
        cost = check_solution(self.spec, text, self.plans[key])
        if abs(cost - optimum) > 1e-6:
            raise CheckFailed(f"refined F {cost!r} != optimum {optimum!r}")
        return digest(text)

    # -- stages --------------------------------------------------------------

    def execute(self, seeds, keys, seconds: float | None = None,
                between=None) -> float:
        """Run the inputs as chunks of one search run and its share of the
        refine requests, calling between() after each chunk; with seconds,
        repeat the whole set while another one fits.  Returns the wall time.

        Spreading each stage over the run lets every metric sample the
        machine's speed: on the shared 2-core VM the benchmark was sized on,
        the same work ran up to 30% faster or slower from one moment to the
        next.
        """
        chunks = max(len(seeds), 1)
        size = -(-len(keys) // chunks)
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            for i in range(chunks):
                if i < len(seeds):
                    s = seeds[i]
                    self.tick()
                    self.op(f"search:{s}", lambda s=s: self.search(s))
                for key in keys[i * size:(i + 1) * size]:
                    self.tick()
                    self.op(f"refine:{key}", lambda key=key: self.refine(key))
                self.tick()
                if between is not None:
                    between()
            now = time.perf_counter()
            if seconds is None or now + (now - start) - t0 > seconds:
                return now - t0

    def check_record(self, trace: int, counts: dict) -> None:
        """Compare F, output digests and deterministic counts with the
        record of an earlier run of the same seed and code, or store them."""
        record = {
            "F": {str(s): f for s, f in self.costs.items()},
            "digests": {k: self.digests[k] for k in self.first_index},
            "counts": counts,
        }
        path = OUT / "records" / code_hash() / \
            f"{self.w.name}-seed{self.seed}-trace{trace}.json"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(record, sort_keys=True))
            return
        old = json.loads(path.read_text())
        for section in ("F", "digests", "counts"):
            for key, value in record[section].items():
                if key in old[section] and old[section][key] != value:
                    where = f"search:{key}" if section == "F" else key
                    self.fail(self.first_index.get(where, 0), where,
                              f"{section} differs from an earlier run "
                              f"({old[section][key]!r} vs {value!r})")


def setup_seconds(inst_path: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(inst_path)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(workload, seed: int, seconds: int, trace: int,
                 spec: dict) -> int:
    from tracing import DETERMINISTIC, Tracer, percentile
    from workloads import RECIPES

    OUT.mkdir(exist_ok=True)
    print(json.dumps({"env": environment(), "workload": {
        "name": workload.name, "seed": seed,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == workload.name),
        "recipe": RECIPES[workload.instance],
        "search_seeds": workload.search_seeds,
        "arc_slice": workload.arc_slice}}), flush=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = Run(workload, seed, Path(tmp))
        if trace:
            # half the inputs, each run untraced and traced in alternating
            # order: about as long as an untraced run, the pairs must give
            # identical outputs, and neither drift nor warm-up biases the
            # overhead
            from ecvrp import DistanceOracle, cli, search
            seeds = run.search_seeds[:(len(run.search_seeds) + 1) // 2]
            keys = run.refine_keys[:len(run.refine_keys) // 2]
            tracer = Tracer()

            def traced_execute(part):
                tracer.install()
                run.tracer = tracer
                try:
                    return run.execute(*part)
                finally:
                    run.tracer = None
                    tracer.uninstall()

            plain = traced = 0.0
            parts = [([s], []) for s in seeds] + [([], [k]) for k in keys]
            for i, part in enumerate(parts):
                if i % 2:
                    traced += traced_execute(part)
                    plain += run.execute(*part)
                else:
                    plain += run.execute(*part)
                    traced += traced_execute(part)
            tracer.install()
            try:   # the set-up path of setup_s, through the wrapped names
                for _ in range(3):
                    inst = cli.load_instance(run.inst_path)
                    search.build_best_station_table(
                        inst, DistanceOracle.for_instance(inst))
            finally:
                tracer.uninstall()
            if tracer.missing:
                print("missing from the program: "
                      + ", ".join(sorted(tracer.missing)), file=sys.stderr)
            values = tracer.layer_metrics(run.search_traces,
                                          traced / plain - 1.0)
            run.check_record(1, {k: values[k] for k in DETERMINISTIC
                                 if k in values})
            tracer.write(OUT / f"spans-{workload.name}-seed{seed}.csv")
            wanted = spec["per_layer"]
        else:
            from yardstick import Yardstick
            run.yard = yard = Yardstick()
            setup = []   # (start, end, seconds the child measured)

            def probe():
                for _ in range(SETUP_PROBES):
                    yard.tick()
                    t0 = time.perf_counter()
                    seconds_in_child = setup_seconds(run.inst_path)
                    setup.append((t0, time.perf_counter(), seconds_in_child))
                yard.tick()

            probe()
            run.execute(run.search_seeds, run.refine_keys, seconds, probe)
            yard.sample()
            (OUT / f"timings-{workload.name}-seed{seed}.json").write_text(
                json.dumps({"search": run.search_t, "refine": run.refine_t,
                            "setup": setup,
                            "yardstick": [yard.starts, yard.ends]}))
            run.check_record(0, {})
            ok = run.attempted - len(run.failed)
            search_s = [yard.scaled(a, b) for a, b, *_ in run.search_t]
            refine_s = [yard.scaled(a, b) for a, b, _ in run.refine_t]
            # latency per plan: the median over its requests, which leaves
            # out the jitter between repeats of the same input
            by_plan: dict[str, list[float]] = {}
            for (*_, key), t in zip(run.refine_t, refine_s):
                by_plan.setdefault(key, []).append(t)
            plan_s = [statistics.median(v) for v in by_plan.values()]
            setup_s = [s * yard.scale(a, b) for a, b, s in setup]
            values = {
                "run_s.p50": percentile(search_s, 50),
                "arcs_per_s": percentile(
                    [n / t for (_, _, n, _), t in zip(run.search_t, search_s)],
                    50),
                "F": statistics.fmean(run.costs.values()) if run.costs
                else 0.0,
                "refine_ms.p50": 1e3 * percentile(plan_s, 50),
                "refine_ms.p90": 1e3 * percentile(plan_s, 90),
                "refine_per_s": len(refine_s) / sum(refine_s)
                if refine_s else 0.0,
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": ok / run.attempted,
            }
            wanted = spec["end_to_end"]
            print(f"samples: {len(search_s)} search runs, "
                  f"{len(refine_s)} refine requests over {len(plan_s)} "
                  "plans, "
                  f"{len(setup_s)} setups, {len(yard.passes)} yardstick "
                  f"passes")
            unscaled = [yard.unscaled(a, b) for a, b, *_ in run.search_t]
            print("search runs (seed: unscaled s, scaled s): " + ", ".join(
                f"{ss}: {u:.3f}, {t:.3f}" for (*_, ss), u, t
                in zip(run.search_t, unscaled, search_s)))
            refine_raw = [b - a for a, b, _ in run.refine_t]
            print(f"unscaled: run_s.p50 = {percentile(unscaled, 50)!r} s, "
                  f"refine_ms.p50 = {1e3 * percentile(refine_raw, 50)!r} ms, "
                  "setup_s = "
                  f"{statistics.median(s for _, _, s in setup)!r} s; "
                  "yardstick pass p50 = "
                  f"{1e3 * statistics.median(yard.passes)!r} ms")

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{workload.name} {m['name']} = {values[m['name']]!r} "
                  f"{m['unit']}")
    failed = len(run.failed)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or "metrics" not in result:
            total["correct"] = False
            total["failed"] += result.get("failed", 1)
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = value
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] and total["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ecvrp" / "__init__.py").is_file():
        print(f"error: no ecvrp sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ECVRP_THREADS", None)   # no worker pool may start
    # nor numpy's BLAS threads: on the 2-core VM their start-up overlapped
    # the import when the second core was free and delayed it when not,
    # moving setup_s between 0.10 and 0.20 s
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
