"""Traced runs: timing wrappers installed on the names the program looks up.

The wrappers live here, outside the program: each one records a span
(name, start, end, parent) in flat in-memory lists and, where asked, the
arc-meter delta across the call.  Spans are written out only when the run
ends, and the per-layer metrics are computed from them.
"""

from __future__ import annotations

import statistics
import time

import ecvrp.cli
import ecvrp.search
from ecvrp.instance import DistanceOracle

SEARCH_NAMES = ("split_giant_tour", "solve_se", "solve_exhaustive",
                "build_best_station_table")
CLI_NAMES = ("solve_exhaustive", "load_instance", "parse_solution_file",
             "split_expanded_route", "check_upper_feasible", "total_cost",
             "evaluate_solution", "format_solution", "cmd_refine")
# private engine methods: a rename reports their metrics as missing
ENGINE_METHODS = ("descend", "explore")

IO_NAMES = ("parse_solution_file", "split_expanded_route", "format_solution")
CHECK_NAMES = ("check_upper_feasible", "total_cost", "evaluate_solution")
OP_NAMES = ("op.search", "op.refine")

# counts fixed by (instance, seeds, plans): every traced run of a seed must
# reproduce them exactly
DETERMINISTIC = (
    "charging.se_calls", "charging.se_arcs", "charging.se_feasible_ratio",
    "charging.se_incumbent_ratio", "charging.exh_calls",
    "charging.exh_examined", "charging.exh_infeasible_ratio",
    "search.descent_arcs", "search.explore_calls", "search.explore_arcs",
    "search.accept_ratio", "search.restarts", "search.incumbents",
)


def percentile(values, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.arcs: dict[str, int] = {}
        self.exh_examined = 0
        self.exh_infeasible = 0
        self.se_feasible = 0
        self.se_incumbent = 0
        self.accepts = 0
        self.missing: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn, meter=None, after=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack
        arcs = self.arcs
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            before = meter(args) if meter is not None else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if meter is not None:
                    arcs[name] = arcs.get(name, 0) + meter(args) - before
            if after is not None:
                after(result)
            return result

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span of the benchmark's own."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.add(attr)
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _after_exhaustive(self, result) -> None:
        self.exh_examined += result.enumeration_count
        self.exh_infeasible += not result.feasible

    def install(self) -> None:
        meters = {"solve_se": lambda args: args[2].budget.arc_access_count}
        afters = {"solve_exhaustive": self._after_exhaustive}
        for module, names in ((ecvrp.search, SEARCH_NAMES),
                              (ecvrp.cli, CLI_NAMES)):
            for name in names:
                self._patch(module, name, lambda fn, n=name: self.wrap(
                    n, fn, meters.get(n), afters.get(n)))
        engine = getattr(ecvrp.search, "_Engine", None)
        for name in ENGINE_METHODS:
            if engine is None:
                self.missing.add(name)
                continue
            meter = (lambda args: args[0].budget.arc_access_count) \
                if name == "explore" else None
            self._patch(engine, name,
                        lambda fn, n=name, m=meter: self.wrap(n, fn, m))
        self._patch(DistanceOracle, "for_instance", lambda cm: classmethod(
            self.wrap("for_instance", cm.__func__)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def hooks(self) -> dict:
        """Fresh run_blahc hooks counting follower results and accepts."""
        best = [None]

        def on_follower(phi, phi_best, feasible, total):
            if feasible:
                self.se_feasible += 1
                if best[0] is None or total < best[0]:
                    best[0] = total
                    self.se_incumbent += 1

        def on_accept(phi, phi_before, phi_vi):
            self.accepts += 1

        return {"on_follower": on_follower, "on_accept": on_accept}

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_s,end_s,parent\n")
            for name, t0, t1, parent in zip(self.names, self.starts,
                                            self.ends, self.parents):
                out.write(f"{name},{t0 - origin:.9f},{t1 - origin:.9f},"
                          f"{parent}\n")

    def layer_metrics(self, search_traces, overhead: float) -> dict:
        """Per-layer metrics; values in the units listed in BENCHMARK.json."""
        durations: dict[str, list[float]] = {}
        child_time = [0.0] * len(self.names)
        for idx, (name, t0, t1, parent) in enumerate(zip(
                self.names, self.starts, self.ends, self.parents)):
            durations.setdefault(name, []).append(t1 - t0)
            if parent >= 0:
                child_time[parent] += t1 - t0

        def times(name):
            return durations.get(name, [])

        def total(*names):
            return sum(sum(times(n)) for n in names)

        op_time = total(*OP_NAMES)
        requests = len(times("cmd_refine"))
        refine_self = sum(t1 - t0 - child_time[i] for i, (name, t0, t1) in
                          enumerate(zip(self.names, self.starts, self.ends))
                          if name == "cmd_refine")
        se = times("solve_se")
        exh = times("solve_exhaustive")
        explore = times("explore")
        descent_arcs = 0
        for trace in search_traces:
            start = None
            for rec in trace.records:
                if rec.event == "init":
                    start = rec.arc_accesses
                elif rec.event == "descent_done" and start is not None:
                    descent_arcs += rec.arc_accesses - start
                    start = None

        metrics = {
            "instance.parse_ms": 1e3 * percentile(times("load_instance"), 50),
            "instance.oracle_ms": 1e3 * percentile(times("for_instance"), 50),
            "charging.table_ms":
                1e3 * percentile(times("build_best_station_table"), 50),
            "charging.se_calls": len(se),
            "charging.se_arcs": self.arcs.get("solve_se", 0),
            "charging.se_ms.p50": 1e3 * percentile(se, 50),
            "charging.se_ms.p90": 1e3 * percentile(se, 90),
            "charging.se_share": _ratio(sum(se), op_time),
            "charging.se_feasible_ratio": _ratio(self.se_feasible, len(se)),
            "charging.se_incumbent_ratio": _ratio(self.se_incumbent, len(se)),
            "charging.exh_calls": len(exh),
            "charging.exh_ms.p50": 1e3 * percentile(exh, 50),
            "charging.exh_ms.p90": 1e3 * percentile(exh, 90),
            "charging.exh_share": _ratio(sum(exh), op_time),
            "charging.exh_examined": self.exh_examined,
            "charging.exh_infeasible_ratio":
                _ratio(self.exh_infeasible, len(exh)),
            "search.split_ms": 1e3 * percentile(times("split_giant_tour"), 50),
            "search.descent_share": _ratio(total("descend"), op_time),
            "search.descent_arcs": descent_arcs,
            "search.explore_calls": len(explore),
            "search.explore_share": _ratio(sum(explore), op_time),
            "search.explore_us": 1e6 * _ratio(sum(explore), len(explore)),
            "search.explore_arcs": self.arcs.get("explore", 0),
            "search.accept_ratio": _ratio(self.accepts, len(explore)),
            "search.restarts": sum(len(t.events("restart"))
                                   for t in search_traces),
            "search.incumbents": sum(len(t.events("incumbent"))
                                     for t in search_traces),
            "solution.io_ms": 1e3 * _ratio(total(*IO_NAMES), requests),
            "solution.check_ms": 1e3 * _ratio(total(*CHECK_NAMES), requests),
            "cli.refine_self_ms": 1e3 * _ratio(refine_self, requests),
            "trace_overhead": overhead,
        }
        lost = {"descend": ("search.descent_share",),
                "explore": ("search.explore_calls", "search.explore_share",
                            "search.explore_us", "search.explore_arcs",
                            "search.accept_ratio")}
        for name in self.missing:
            for key in lost.get(name, ()):
                metrics.pop(key, None)
        return metrics
