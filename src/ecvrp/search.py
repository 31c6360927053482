"""Bilevel late-acceptance hill climbing over routing plans.

A run has three phases.  Initialization builds a random giant tour,
splits it into capacity-feasible routes and drives them to a local
optimum with greedy descent.  Exploration then walks the routing space:
each iteration draws one operator, tries up to max_attempts random
targets, and accepts the first candidate that beats either the current
surrogate cost or the cost recorded a fixed number of accepted-move
cycles ago (the history list).  The engine keeps one memo of failed
scans for descent and exploration alike, keyed by what a scan reads: the
operator, the anchor customer and the contents of its two routes.  A
target whose routes hold the same contents as when its scan failed
reads the same arcs and computes the same deltas again, so while
the scan's least delta cannot pass the threshold now in force it is
charged those arcs without being rescanned, and the meter and every
output stay those of rescanning.  Late acceptance keeps returning to the
same few routes, so most scans it draws are found there.  The cheap
charging solver is invoked only when the current surrogate comes within
the follower threshold of the best surrogate seen, and the incumbent
keeps the best full cost found anywhere.  When progress stalls the run
restarts from a fresh tour, keeping the incumbent, unless the stalled
cycle's exploration read no arc at all: then the plan has no neighbour
and the run stops.  On termination the exhaustive charging solver
polishes the incumbent.

Everything stochastic draws from one seeded generator in program order,
so a (instance, params, budget) triple fully determines the outcome.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from dataclasses import dataclass, field

from .charging import BudgetExhausted, build_best_station_table, solve_exhaustive, solve_se
from .instance import DistanceOracle, EvaluationBudget, InstanceSpec
from .solution import CompleteSolution, RoutingPlan

# floating-point guard: a candidate only counts as a strict improvement when
# it beats the current surrogate by this margin, otherwise exact-tie moves
# (route reversals and the like) oscillate on rounding noise forever
IMPROVE_EPS = 1e-9

# operator ids; m1..m7 drive descent, m8 additionally explores route counts
M1, M2, M3, M4, M5, M6, M7, M8 = range(8)

# cap on history_length and max_attempts, far above the paper's 5723 and
# 60: each restart allocates the whole history list (about 38 MB at the
# cap) and an exploration call may loop over every attempt
PARAM_MAX = 10**6

# least number of slots the engine's memo of failed scans may hold before
# it is cleared: at most about 3 MB, at the 48 bytes a slot it takes when
# routes hold five customers (longer routes take fewer bytes a slot)
MEMO_FLOOR = 1 << 16


def memo_cap(inst: InstanceSpec) -> int:
    """Slots the engine's memo of failed scans holds at most.  A memo row
    takes one slot per anchor of its route and an interned route content
    one per customer, plus one.  The failed scans of one plan fill at most
    4 n route_slots row slots and its contents n + route_slots, so the cap
    holds those of a plan at least about twice over, and never less than
    MEMO_FLOOR."""
    return max(MEMO_FLOOR, 8 * inst.num_customers * inst.route_slots)


class SearchError(RuntimeError):
    pass


class InstanceInfeasible(SearchError):
    pass


class IncumbentInfeasible(SearchError):
    """No battery-feasible solution was found in the whole run."""


@dataclass(frozen=True)
class SearchParams:
    history_length: int = 5723
    max_attempts: int = 60
    follower_threshold: float = 1.01
    alpha_lb: float = 0.98
    alpha_ub: float = 1.02
    seed: int = 1

    def __post_init__(self):
        if self.history_length < 1 or self.max_attempts < 1:
            raise ValueError("history length and attempt cap must be >= 1")
        if self.history_length > PARAM_MAX or self.max_attempts > PARAM_MAX:
            raise ValueError(
                f"history length and attempt cap must be <= {PARAM_MAX}")
        # written so that nan fails every comparison
        if not 1.0 <= self.follower_threshold < math.inf:
            raise ValueError("follower threshold must be finite and >= 1")
        if not 0.0 < self.alpha_lb <= 1.0 <= self.alpha_ub < math.inf:
            raise ValueError("noise bounds must be finite and straddle 1.0")


@dataclass(frozen=True)
class AblationToggles:
    no_greedy_descent: bool = False
    no_final_refinement: bool = False
    gamma_zero: bool = False
    no_m8: bool = False


NO_TOGGLES = AblationToggles()


@dataclass(frozen=True)
class TraceRecord:
    arc_accesses: int
    iteration: int
    phi_current: float
    phi_best: float
    f_best: float | None
    event: str


@dataclass
class SearchTrace:
    """Chronological run log; arc_accesses is monotone over records."""

    records: list[TraceRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["arc_accesses,iteration,phi_current,phi_best,F_best,event"]
        for r in self.records:
            f_best = "" if r.f_best is None else repr(r.f_best)
            lines.append(f"{r.arc_accesses},{r.iteration},{r.phi_current!r},"
                         f"{r.phi_best!r},{f_best},{r.event}")
        return "\n".join(lines) + "\n"

    def events(self, name: str) -> list[TraceRecord]:
        return [r for r in self.records if r.event == name]


# ---------------------------------------------------------------------------
# Giant-tour split
# ---------------------------------------------------------------------------

def split_giant_tour(perm, inst: InstanceSpec, oracle: DistanceOracle):
    """Cut a customer permutation into at most fleet_size contiguous routes
    of minimum total surrogate cost (shortest path over segment ends).
    Every route it returns is non-empty; _Engine.load_plan pads the plan.

    Raises InstanceInfeasible when no capacity-feasible cut into fleet_size
    segments exists.  Charges the budget for the depot legs and the
    consecutive arcs of the tour, read once each.
    """
    n = len(perm)
    fleet = inst.route_slots     # a segment holds a customer: no row above n
    matrix = oracle.matrix
    oracle.budget.arc_access_count += 2 * n - 1 if n else 0

    row0 = matrix[0]
    depot_leg = [row0[c] for c in perm]
    walk = [0.0] * n  # walk[k]: tour length from perm[0] to perm[k]
    for k in range(1, n):
        walk[k] = walk[k - 1] + matrix[perm[k - 1]][perm[k]]

    demands, cap = inst.cargo_units

    inf = math.inf
    prev_row = [inf] * (n + 1)
    prev_row[0] = 0.0
    pred: list[list[int]] = []
    best_cost = inf
    best_k = -1
    for k in range(1, fleet + 1):
        cur_row = [inf] * (n + 1)
        cur_pred = [-1] * (n + 1)
        for i in range(n):
            base = prev_row[i]
            if base == inf:
                continue
            load = 0
            j = i + 1
            while j <= n:
                load += demands[perm[j - 1]]
                if load > cap:
                    break
                cost = base + depot_leg[i] + (walk[j - 1] - walk[i]) \
                    + depot_leg[j - 1]
                if cost < cur_row[j]:
                    cur_row[j] = cost
                    cur_pred[j] = i
                j += 1
        pred.append(cur_pred)
        prev_row = cur_row
        if cur_row[n] < best_cost:
            best_cost = cur_row[n]
            best_k = k
    if best_k < 0:
        raise InstanceInfeasible(
            f"no capacity-feasible split into <= {fleet} routes")

    cuts = [n]
    j = n
    for k in range(best_k - 1, -1, -1):
        j = pred[k][j]
        cuts.append(j)
    cuts.reverse()
    return [list(perm[cuts[t]:cuts[t + 1]]) for t in range(best_k)]


# ---------------------------------------------------------------------------
# Operator kernels
# ---------------------------------------------------------------------------

# upper end of a kernel's candidate range that covers every candidate; a
# small int keeps the range checks on the interpreter's fast integer path
ALL = 1 << 29


class PlanState:
    """One plan under edit: routes, loads, the sorted indices of the
    non-empty and the empty routes, and the tracked surrogate phi.

    It holds the eight operator kernels, the only implementation of each
    move's delta and edit; the search engine runs them over whole candidate
    ranges and moves.delta_phi / moves.apply_move over a single candidate.
    Kernel kernels[k](state, t1, t2, pa, bar, lo, hi) anchors customer
    a = routes[t1][pa] and tries candidates lo..hi-1 in order.  It applies
    the first whose new surrogate phi + delta is below bar, and returns
    True; it returns False when none does.  Descent passes the bar phi -
    IMPROVE_EPS, exploration the larger of that and its history value.
    A candidate is a position pb of the partner route t2 (m2, m4, m6, m7) or
    of route t1 itself (m3, m5); m1 numbers the two sides of each customer,
    2*pb for before routes[t1][pb] and 2*pb + 1 for after it; m8 has one
    candidate, moving a into the empty route t2 (t2 < 0: none left).  Every
    arc read is charged to the budget, and a scan stops once the count
    reaches arc_limit.

    A scan that fails without reaching arc_limit leaves in dmin the least
    delta of the candidates it evaluated (inf: none).  fl(phi + d) is
    monotone in d, so a candidate whose delta is not below a delta that
    already failed cannot pass: each kernel tests only candidates with
    delta < dmin, and while the routes the scan read stay unchanged, a
    caller that knows dmin knows its outcome under any phi and threshold.
    """

    def __init__(self, routes: list[list[int]], matrix, demands, cap: float,
                 budget: EvaluationBudget, arc_limit: float):
        self.matrix = matrix
        self.demands = demands
        self.cap = cap
        self.budget = budget
        self.arc_limit = arc_limit
        self.set_routes(routes)
        self.phi = 0.0
        self.dmin = math.inf

    def set_routes(self, routes: list[list[int]]) -> None:
        """Take routes as the plan; loads and route lists follow, phi not."""
        self.routes = routes
        self.loads = [sum(self.demands[c] for c in r) for r in routes]
        self.nonempty = [t for t, r in enumerate(routes) if r]
        self.empties = [t for t, r in enumerate(routes) if not r]

    # -- kernels -----------------------------------------------------------

    def _m1(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m1: relocate a before or after another customer of its route."""
        route = self.routes[t1]
        length = len(route)
        if length < 2:
            self.dmin = math.inf
            return False
        matrix = self.matrix
        budget = self.budget
        limit = self.arc_limit
        phi = self.phi
        a = route[pa]
        prev_a = route[pa - 1] if pa else 0
        next_a = route[pa + 1] if pa + 1 < length else 0
        if budget.arc_access_count >= limit:
            return False
        budget.arc_access_count += 3
        dmin = math.inf
        row_a = matrix[a]
        removal = matrix[prev_a][next_a] - matrix[prev_a][a] - row_a[next_a]
        # a range may open on an after side (lo odd) and close on a before
        # side (hi odd); the other side of that customer lies outside it
        first = lo >> 1
        skip_before = first if lo & 1 else -1
        skip_after = hi >> 1 if hi & 1 else -1
        stop = (hi + 1) >> 1
        for pb in range(first, stop if stop < length else length):
            if pb == pa:
                continue
            b = route[pb]
            # structural no-ops (reinserting a beside itself) are skipped:
            # their float-noise deltas could masquerade as improvements
            if pb != pa + 1 and pb != skip_before:
                left = route[pb - 1] if pb else 0
                if left == a:
                    left = prev_a
                if budget.arc_access_count >= limit:
                    return False
                budget.arc_access_count += 3
                delta = removal + matrix[left][a] + row_a[b] \
                    - matrix[left][b]
                if delta < dmin:
                    phi_new = phi + delta
                    if phi_new < bar:
                        self._apply_m1(t1, pa, pb, False, phi_new)
                        return True
                    dmin = delta
            if pb != pa - 1 and pb != skip_after:
                right = route[pb + 1] if pb + 1 < length else 0
                if right == a:
                    right = next_a
                if budget.arc_access_count >= limit:
                    return False
                budget.arc_access_count += 3
                delta = removal + matrix[b][a] + row_a[right] \
                    - matrix[b][right]
                if delta < dmin:
                    phi_new = phi + delta
                    if phi_new < bar:
                        self._apply_m1(t1, pa, pb, True, phi_new)
                        return True
                    dmin = delta
        self.dmin = dmin
        return False

    def _m2(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m2: move a into route t2, right after customer r2[pb]."""
        r1 = self.routes[t1]
        r2 = self.routes[t2]
        a = r1[pa]
        if self.loads[t2] + self.demands[a] > self.cap:
            self.dmin = math.inf
            return False
        matrix = self.matrix
        budget = self.budget
        limit = self.arc_limit
        phi = self.phi
        length1 = len(r1)
        length2 = len(r2)
        prev_a = r1[pa - 1] if pa else 0
        next_a = r1[pa + 1] if pa + 1 < length1 else 0
        if budget.arc_access_count >= limit:
            return False
        budget.arc_access_count += 3
        row_a = matrix[a]
        removal = matrix[prev_a][next_a] - matrix[prev_a][a] - row_a[next_a]
        dmin = math.inf
        for pb in range(lo, hi if hi < length2 else length2):
            b = r2[pb]
            right = r2[pb + 1] if pb + 1 < length2 else 0
            if budget.arc_access_count >= limit:
                return False
            budget.arc_access_count += 3
            delta = removal + matrix[b][a] + row_a[right] - matrix[b][right]
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    self._apply_m2(t1, t2, pa, pb, phi_new)
                    return True
                dmin = delta
        self.dmin = dmin
        return False

    def _m3(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m3: swap a with another customer of its route."""
        route = self.routes[t1]
        length = len(route)
        if length < 2:
            self.dmin = math.inf
            return False
        matrix = self.matrix
        budget = self.budget
        limit = self.arc_limit
        phi = self.phi
        a = route[pa]
        prev_a = route[pa - 1] if pa else 0
        next_a = route[pa + 1] if pa + 1 < length else 0
        row_a = matrix[a]
        dmin = math.inf
        for pb in range(lo, hi if hi < length else length):
            if pb == pa:
                continue
            b = route[pb]
            row_b = matrix[b]
            if budget.arc_access_count >= limit:
                return False
            lo_pos, hi_pos = (pa, pb) if pa < pb else (pb, pa)
            if hi_pos == lo_pos + 1:
                u, w = route[lo_pos], route[hi_pos]
                prev_u = route[lo_pos - 1] if lo_pos else 0
                next_w = route[hi_pos + 1] if hi_pos + 1 < length else 0
                budget.arc_access_count += 4
                delta = (matrix[prev_u][w] + matrix[u][next_w]
                         - matrix[prev_u][u] - matrix[w][next_w])
            else:
                prev_b = route[pb - 1] if pb else 0
                next_b = route[pb + 1] if pb + 1 < length else 0
                budget.arc_access_count += 8
                delta = (matrix[prev_a][b] + row_b[next_a]
                         + matrix[prev_b][a] + row_a[next_b]
                         - matrix[prev_a][a] - row_a[next_a]
                         - matrix[prev_b][b] - row_b[next_b])
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    route[pa], route[pb] = route[pb], route[pa]
                    self.phi = phi_new
                    return True
                dmin = delta
        self.dmin = dmin
        return False

    def _m4(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m4: swap a with customer r2[pb] of route t2."""
        r1 = self.routes[t1]
        r2 = self.routes[t2]
        matrix = self.matrix
        budget = self.budget
        limit = self.arc_limit
        demands = self.demands
        cap = self.cap
        phi = self.phi
        a = r1[pa]
        demand_a = demands[a]
        load1 = self.loads[t1]
        load2 = self.loads[t2]
        length1 = len(r1)
        length2 = len(r2)
        prev_a = r1[pa - 1] if pa else 0
        next_a = r1[pa + 1] if pa + 1 < length1 else 0
        row_a = matrix[a]
        dmin = math.inf
        for pb in range(lo, hi if hi < length2 else length2):
            b = r2[pb]
            demand_b = demands[b]
            if load1 - demand_a + demand_b > cap or \
                    load2 - demand_b + demand_a > cap:
                continue
            if budget.arc_access_count >= limit:
                return False
            budget.arc_access_count += 8
            row_b = matrix[b]
            prev_b = r2[pb - 1] if pb else 0
            next_b = r2[pb + 1] if pb + 1 < length2 else 0
            delta = (matrix[prev_a][b] + row_b[next_a]
                     - matrix[prev_a][a] - row_a[next_a]
                     + matrix[prev_b][a] + row_a[next_b]
                     - matrix[prev_b][b] - row_b[next_b])
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    r1[pa], r2[pb] = b, a
                    self.loads[t1] = load1 - demand_a + demand_b
                    self.loads[t2] = load2 - demand_b + demand_a
                    self.phi = phi_new
                    return True
                dmin = delta
        self.dmin = dmin
        return False

    def _m5(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m5: reverse the segment after a up to customer route[pb]; the
        one-customer segments pb <= pa + 1 are not candidates."""
        route = self.routes[t1]
        length = len(route)
        start = lo if lo > pa + 2 else pa + 2
        stop = hi if hi < length else length
        if start >= stop:
            self.dmin = math.inf
            return False
        matrix = self.matrix
        budget = self.budget
        limit = self.arc_limit
        phi = self.phi
        a = route[pa]
        next_a = route[pa + 1]
        if budget.arc_access_count >= limit:
            return False
        budget.arc_access_count += 1
        row_a = matrix[a]
        row_an = matrix[next_a]
        d_a_an = row_a[next_a]
        dmin = math.inf
        for pb in range(start, stop):
            b = route[pb]
            next_b = route[pb + 1] if pb + 1 < length else 0
            if budget.arc_access_count >= limit:
                return False
            budget.arc_access_count += 3
            delta = (row_a[b] + row_an[next_b] - d_a_an
                     - matrix[b][next_b])
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    self.routes[t1] = route[:pa + 1] \
                        + route[pa + 1:pb + 1][::-1] + route[pb + 1:]
                    self.phi = phi_new
                    return True
                dmin = delta
        self.dmin = dmin
        return False

    def _m6(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m6: cut after a and after r2[pb], join a-b and the two tails,
        each head reversed into the other route."""
        r1 = self.routes[t1]
        r2 = self.routes[t2]
        matrix = self.matrix
        budget = self.budget
        limit = self.arc_limit
        demands = self.demands
        cap = self.cap
        phi = self.phi
        a = r1[pa]
        length1 = len(r1)
        length2 = len(r2)
        next_a = r1[pa + 1] if pa + 1 < length1 else 0
        head1 = 0
        for k in range(pa + 1):
            head1 += demands[r1[k]]
        tail1 = self.loads[t1] - head1
        load2 = self.loads[t2]
        if budget.arc_access_count >= limit:
            return False
        budget.arc_access_count += 1
        row_a = matrix[a]
        row_an = matrix[next_a]
        d_a_an = row_a[next_a]
        head2 = 0
        if lo:  # demand of the customers ahead of the range
            for b in r2[:lo]:
                head2 += demands[b]
        dmin = math.inf
        for pb in range(lo, hi if hi < length2 else length2):
            b = r2[pb]
            head2 += demands[b]
            if head1 + head2 > cap or tail1 + load2 - head2 > cap:
                continue
            next_b = r2[pb + 1] if pb + 1 < length2 else 0
            if budget.arc_access_count >= limit:
                return False
            budget.arc_access_count += 3
            delta = (row_a[b] + row_an[next_b] - d_a_an
                     - matrix[b][next_b])
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    self._apply_m6(t1, t2, pa, pb, head1 + head2,
                                   tail1 + load2 - head2, phi_new)
                    return True
                dmin = delta
        self.dmin = dmin
        return False

    def _m7(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m7: cut after a and after r2[pb] and exchange the tails."""
        r1 = self.routes[t1]
        r2 = self.routes[t2]
        matrix = self.matrix
        budget = self.budget
        limit = self.arc_limit
        demands = self.demands
        cap = self.cap
        phi = self.phi
        a = r1[pa]
        length1 = len(r1)
        length2 = len(r2)
        next_a = r1[pa + 1] if pa + 1 < length1 else 0
        head1 = 0
        for k in range(pa + 1):
            head1 += demands[r1[k]]
        tail1 = self.loads[t1] - head1
        load2 = self.loads[t2]
        a_last = pa + 1 == length1
        if budget.arc_access_count >= limit:
            return False
        budget.arc_access_count += 1
        row_a = matrix[a]
        row_an = matrix[next_a]
        d_a_an = row_a[next_a]
        head2 = 0
        if lo:  # demand of the customers ahead of the range
            for b in r2[:lo]:
                head2 += demands[b]
        dmin = math.inf
        for pb in range(lo, hi if hi < length2 else length2):
            b = r2[pb]
            head2 += demands[b]
            if a_last and pb + 1 == length2:
                continue  # reconnecting two final arcs changes nothing
            if head1 + load2 - head2 > cap or head2 + tail1 > cap:
                continue
            next_b = r2[pb + 1] if pb + 1 < length2 else 0
            if budget.arc_access_count >= limit:
                return False
            budget.arc_access_count += 3
            delta = (row_a[next_b] + matrix[b][next_a] - d_a_an
                     - matrix[b][next_b])
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    self._apply_m7(t1, t2, pa, pb, head1 + load2 - head2,
                                   head2 + tail1, phi_new)
                    return True
                dmin = delta
        self.dmin = dmin
        return False

    def _m8(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m8: move a into the empty route t2 as its only customer."""
        if t2 < 0:
            self.dmin = math.inf
            return False
        route = self.routes[t1]
        matrix = self.matrix
        budget = self.budget
        phi = self.phi
        a = route[pa]
        if budget.arc_access_count >= self.arc_limit:
            return False
        budget.arc_access_count += 4
        prev_a = route[pa - 1] if pa else 0
        next_a = route[pa + 1] if pa + 1 < len(route) else 0
        out_back = 2.0 * matrix[0][a]
        delta = matrix[prev_a][next_a] - matrix[prev_a][a] \
            - matrix[a][next_a] + out_back
        phi_new = phi + delta
        if phi_new < bar:
            self._apply_m8(t1, t2, pa, phi_new)
            return True
        self.dmin = delta
        return False

    # indexed by operator id; plain functions called as
    # kernels[op](state, t1, t2, pa, bar, lo, hi), since a tuple of bound
    # methods held by the state would make every state a reference cycle
    # that lives until the next full garbage collection
    kernels = (_m1, _m2, _m3, _m4, _m5, _m6, _m7, _m8)

    # -- apply helpers ----------------------------------------------------

    def _mark_empty(self, t: int) -> None:
        self.nonempty.remove(t)
        insort(self.empties, t)

    def _mark_used(self, t: int) -> None:
        self.empties.remove(t)
        insort(self.nonempty, t)

    def _apply_m1(self, t, pa, pb, after, phi_new):
        route = self.routes[t]
        a = route.pop(pa)
        pb_adj = pb - 1 if pa < pb else pb
        route.insert(pb_adj + 1 if after else pb_adj, a)
        self.phi = phi_new

    def _apply_m2(self, t1, t2, pa, pb, phi_new):
        a = self.routes[t1].pop(pa)
        self.routes[t2].insert(pb + 1, a)
        self.loads[t1] -= self.demands[a]
        self.loads[t2] += self.demands[a]
        self.phi = phi_new
        if not self.routes[t1]:
            self._mark_empty(t1)

    def _apply_m6(self, t1, t2, pa, pb, load1, load2, phi_new):
        r1, r2 = self.routes[t1], self.routes[t2]
        self.routes[t1] = r1[:pa + 1] + r2[:pb + 1][::-1]
        self.routes[t2] = r1[pa + 1:][::-1] + r2[pb + 1:]
        self.loads[t1], self.loads[t2] = load1, load2
        self.phi = phi_new
        if not self.routes[t2]:
            self._mark_empty(t2)

    def _apply_m7(self, t1, t2, pa, pb, load1, load2, phi_new):
        r1, r2 = self.routes[t1], self.routes[t2]
        self.routes[t1] = r1[:pa + 1] + r2[pb + 1:]
        self.routes[t2] = r2[:pb + 1] + r1[pa + 1:]
        self.loads[t1], self.loads[t2] = load1, load2
        self.phi = phi_new

    def _apply_m8(self, t1, dest, pa, phi_new):
        a = self.routes[t1].pop(pa)
        self.routes[dest] = [a]
        self.loads[t1] -= self.demands[a]
        self.loads[dest] = self.demands[a]
        self.phi = phi_new
        self._mark_used(dest)
        if not self.routes[t1]:
            self._mark_empty(t1)


# ---------------------------------------------------------------------------
# Search engine
# ---------------------------------------------------------------------------

class _Engine(PlanState):
    """Mutable run state: the plan under search, trace, incumbent, counters."""

    def __init__(self, inst: InstanceSpec, params: SearchParams,
                 budget: EvaluationBudget, toggles: AblationToggles = NO_TOGGLES,
                 trace_level: str = "phase", hooks=None):
        self.oracle = DistanceOracle.for_instance(inst, budget)
        super().__init__(
            [[] for _ in range(inst.route_slots)], self.oracle.matrix,
            *inst.cargo_units, budget,
            budget.max_arc_accesses if budget.max_arc_accesses is not None
            else math.inf)
        self.inst = inst
        self.params = params
        self.toggles = toggles
        self.rng = random.Random(params.seed)
        self.wall_limited = budget.wall_clock_limit is not None
        self.descent_scans = 0      # clock polls in descent, wall limit only
        self.timed_out = False
        self.trace = SearchTrace()
        self.trace_full = trace_level == "full"
        self.hooks = hooks or {}
        self.table = None           # built lazily, never charged: shared data
        self.se_memo = {}           # solve_se's routes of its previous call
        # failed full scans, one dict per operator: key id1 * stride + id2,
        # the content ids of the target's two routes, -> a row over the
        # anchor positions pa of the first: row[pa] the scan's dmin (nan:
        # none recorded) and row[~pa] the arcs it read.  ids[t] is route
        # t's content id (see _intern); its extra last entry, the partner
        # id of t2 = -1, lies above every content id
        self.memo = [{} for _ in range(8)]
        self.content_ids = {}       # tuple(route) -> content id
        self.memo_cap = memo_cap(inst)
        self.memo_slots = 0
        no_route = self.memo_cap + 3 * inst.num_customers \
            + 2 * inst.route_slots
        self.stride = no_route + 1
        self.ids = [0] * inst.route_slots + [no_route]
        self._reset_memo()
        self.gamma = 0.0 if toggles.gamma_zero else params.follower_threshold
        self.explore_ops = list(range(7)) if toggles.no_m8 else list(range(8))
        self.iteration = 0
        self.incumbent: CompleteSolution | None = None

    # -- state loading -------------------------------------------------

    def load_plan(self, routes) -> None:
        """Take a copy of routes as the plan under search, padded with
        empty routes to inst.route_slots: the one place a plan is padded,
        as only the engine's route-creating moves read empty slots."""
        budget = self.budget
        matrix = self.matrix
        routes = [list(r) for r in routes]
        while len(routes) < self.inst.route_slots:
            routes.append([])
        self.set_routes(routes)
        # entries are keyed by content, so they stay valid across plans
        self._intern_routes(range(len(routes)))
        phi = 0.0
        for r in routes:
            if not r:
                continue
            budget.arc_access_count += len(r) + 1
            prev = 0
            for node in r:
                phi += matrix[prev][node]
                prev = node
            phi += matrix[prev][0]
        self.phi = phi

    # -- tracing ---------------------------------------------------------

    def _emit(self, event: str, phi_best: float = math.nan) -> None:
        inc = self.incumbent
        self.trace.records.append(TraceRecord(
            self.budget.arc_access_count, self.iteration, self.phi,
            phi_best, None if inc is None else inc.total_cost, event))

    # -- greedy descent ----------------------------------------------------

    def descend(self) -> None:
        """First-improvement descent over the seven partition-preserving
        operators, shuffled each outer pass, until no operator improves."""
        rng = self.rng
        ops = [M1, M2, M3, M4, M5, M6, M7]
        fleet = len(self.routes)
        budget = self.budget
        limit = self.arc_limit
        while True:
            any_improved = False
            rng.shuffle(ops)
            for op in ops:
                if budget.arc_access_count >= limit or self.timed_out:
                    return
                improved = False
                if op in (M1, M3, M5):
                    for t in range(fleet):
                        improved |= self._descend_target(op, t, -1)
                else:
                    for t1 in range(fleet):
                        for t2 in range(fleet):
                            if t1 != t2:
                                improved |= self._descend_target(op, t1, t2)
                any_improved |= improved
            if not any_improved or budget.arc_access_count >= limit:
                return

    def _descend_target(self, op, t1, t2) -> bool:
        """Rescan one target until no pair (a, b) improves it, running the
        operator's kernel over its full candidate range for each a.

        An anchor whose failed scan is in the memo for the routes' current
        contents, and whose dmin cannot beat the current phi, is charged
        the recorded arcs without rerunning the kernel, as in explore."""
        budget = self.budget
        limit = self.arc_limit
        wall = self.wall_limited
        scan = self.kernels[op]
        memo = self.memo[op]
        ids = self.ids
        stride = self.stride
        improved = False
        while True:
            r1 = self.routes[t1]
            if not r1 or (t2 >= 0 and not self.routes[t2]):
                return improved
            row = memo.get(ids[t1] * stride + ids[t2])
            phi = self.phi
            bar = phi - IMPROVE_EPS
            for pa in range(len(r1)):
                spent = budget.arc_access_count
                if spent >= limit or (wall and self._out_of_time()):
                    return improved
                if row is not None and phi + row[pa] >= bar \
                        and spent + row[~pa] <= limit:
                    budget.arc_access_count = spent + row[~pa]
                    continue
                if scan(self, t1, t2, pa, bar):
                    self._touch(t1, t2)
                    improved = True
                    break
                end = budget.arc_access_count
                if end < limit:
                    if row is None:
                        row = self._new_row(op, t1, t2)
                    row[pa] = self.dmin
                    row[~pa] = end - spent
            else:
                return improved

    # -- the memo of failed scans -------------------------------------------

    def _touch(self, t1, t2) -> None:
        """Intern routes t1 and t2 (t2 < 0: t1 alone), just edited by a
        move."""
        self._intern_routes((t1,) if t2 < 0 else (t1, t2))

    def _intern(self, t: int) -> None:
        """Set ids[t] to the content id of route t, tuple(route): equal
        contents share an id, and a new one takes the next id.  A kernel
        reads its two routes and the instance alone (a load is the exact
        sum of its route's cargo_units), so a scan's deltas, capacity
        tests, arcs and dmin are a function of the operator, the anchor
        and the two content ids."""
        content = tuple(self.routes[t])
        cid = self.content_ids.get(content)
        if cid is None:
            cid = len(self.content_ids)
            self.content_ids[content] = cid
            self.memo_slots += len(content) + 1
        self.ids[t] = cid

    def _intern_routes(self, slots) -> None:
        """Intern the routes in slots, then clear the memo if that took it
        past memo_cap."""
        for t in slots:
            self._intern(t)
        if self.memo_slots > self.memo_cap:
            self._reset_memo()

    def _reset_memo(self) -> None:
        """Empty the memo and the intern table, then intern every route
        afresh, so no row keyed on an old id outlives it.  A reset leaves
        at most n + route_slots slots, a row adds at most n and a plan load
        at most n + route_slots, so the slots never pass memo_cap + 3 n +
        2 route_slots.  Every content takes at least one slot, so content
        ids stay below that, the partner id of t2 = -1 in ids[-1]."""
        for memo in self.memo:
            memo.clear()
        self.content_ids.clear()
        self.memo_slots = 0
        for t in range(len(self.routes)):
            self._intern(t)

    def _new_row(self, op, t1, t2) -> list:
        """A fresh memo row for target (t1, t2) of op, every dmin unknown,
        clearing the memo first when the row would take it past memo_cap.
        An anchor's arcs are read only once its dmin is known, and both are
        written together, so the arcs half starts as nan too."""
        length = len(self.routes[t1])
        if self.memo_slots + length > self.memo_cap:
            self._reset_memo()
        self.memo_slots += length
        row = [math.nan] * (2 * length)
        self.memo[op][self.ids[t1] * self.stride + self.ids[t2]] = row
        return row

    def _out_of_time(self) -> bool:
        """Wall-clock stop for descent: polls the clock on the first scan
        and then every 1024 scans, like exploration polls per iteration,
        and stays True once the limit has passed."""
        if not self.timed_out:
            if self.descent_scans & 1023 == 0 and self.budget.exceeded():
                self.timed_out = True
            self.descent_scans += 1
        return self.timed_out

    # -- neighborhood exploration ------------------------------------------

    def explore(self, phi_vi: float) -> bool:
        """One exploration call: draw an operator once, then up to
        max_attempts random targets (t1, t2, a), each scanned by the
        operator's kernel over its full candidate range; True when a
        candidate was accepted.

        Index draws use int(random() * n): one float per draw instead of
        the rejection sampling of randrange, still from the single seeded
        stream in program order.

        A target whose failed full scan is in the memo (from this call, an
        earlier one, a descent pass or an earlier plan) for the current
        contents of both routes would read the same arcs again and compute
        the same deltas bit for bit: the scan depends on the two routes
        alone (see _intern).  If phi + dmin is not below the call's bar,
        no candidate can pass, since fl(phi + d) is monotone in d; the
        attempt then still draws its floats and is charged the recorded
        arcs, but its kernel does not run.  The meter thus counts what the
        algorithm evaluates, and budgets, stop points and outputs are
        those of rescanning.  Only when that charge would
        pass arc_limit does the kernel run again, since a scan cut short
        there reads fewer arcs; such a scan is never recorded.  A call
        whose attempts can read no arc at all (m8 with no empty route; m1,
        m3 and m5 when every route holds one customer, m5 when none holds
        more than two) draws its floats and returns at once.
        """
        draw = self.rng.random
        ops = self.explore_ops
        op = ops[int(draw() * len(ops))]
        scan = self.kernels[op]
        budget = self.budget
        limit = self.arc_limit
        routes = self.routes
        nonempty = self.nonempty
        count = len(nonempty)       # no move is applied before returning
        attempts = self.params.max_attempts
        inter = op == M2 or op == M4 or op == M6 or op == M7
        # single-route operators take no partner; m8 seeds the first empty
        dest = self.empties[0] if op == M8 and self.empties else -1
        if inter:
            if count < 2:
                return False        # no partner route: no attempt can draw
        elif (dest < 0 if op == M8 else self._cannot_edit(op, count)):
            if budget.arc_access_count < limit:
                # the t1 and pa draws of every attempt: random() takes two
                # 32-bit words of the Mersenne Twister and getrandbits(k)
                # takes ceil(k / 32), so the stream ends where they leave it
                self.rng.getrandbits(128 * attempts)
            return False
        on_accept = self.hooks.get("on_accept")
        memo = self.memo[op]
        ids = self.ids
        stride = self.stride
        phi = self.phi
        # a candidate passes iff it is below phi_vi or below phi -
        # IMPROVE_EPS, which for non-nan floats is below their maximum
        bar = max(phi_vi, phi - IMPROVE_EPS)
        # the meter's count, kept here between kernel runs
        spent = budget.arc_access_count
        for _ in range(attempts):
            if spent >= limit:
                break
            if inter:
                i = int(draw() * count)
                j = int(draw() * (count - 1))
                if j >= i:
                    j += 1
                t1 = nonempty[i]
                t2 = nonempty[j]
            else:
                t1 = nonempty[int(draw() * count)]
                t2 = dest
            pa = int(draw() * len(routes[t1]))
            row = memo.get(ids[t1] * stride + ids[t2])
            if row is not None and phi + row[pa] >= bar:
                arcs = row[~pa]
                if spent + arcs <= limit:
                    spent += arcs
                    continue
            budget.arc_access_count = spent
            if scan(self, t1, t2, pa, bar):
                self._touch(t1, t2)
                if on_accept is not None:
                    on_accept(self.phi, phi, phi_vi)
                if self.trace_full:
                    self._emit("accept")
                return True
            end = budget.arc_access_count
            if end < limit:
                if row is None:
                    row = self._new_row(op, t1, t2)
                row[pa] = self.dmin
                row[~pa] = end - spent
            spent = end
        budget.arc_access_count = spent
        return False

    def _cannot_edit(self, op, count) -> bool:
        """True when no target of intra-route op has a candidate: every
        route holds one customer, or (m5) none holds more than two.  With
        num_customers > 2 * count some route holds three or more."""
        n = self.inst.num_customers
        if count == n:
            return True
        return op == M5 and 2 * count >= n and \
            max(len(self.routes[t]) for t in self.nonempty) <= 2

    # -- follower calls ------------------------------------------------------

    def _ensure_table(self):
        if self.table is None:
            self.table = build_best_station_table(self.inst, self.oracle)
        return self.table

    def _challenge_incumbent(self, phi_best: float) -> bool:
        """Run the cheap follower on the current plan and keep it if the
        full cost improves on the incumbent.  False when the meter died."""
        try:
            result = solve_se(self.routes, self.inst, self.oracle,
                              self._ensure_table(), self.se_memo)
        except BudgetExhausted:
            return False
        hook = self.hooks.get("on_follower")
        total = None
        if result.feasible:
            total = result.surrogate + result.detour_cost
            pair_hook = self.hooks.get("on_pair")
            if pair_hook is not None:
                # fresh surrogate, not the delta-tracked one: recorded pairs
                # must satisfy F >= phi exactly
                pair_hook(self.routes, result.surrogate, total)
            if self.incumbent is None or total < self.incumbent.total_cost:
                self.incumbent = CompleteSolution(
                    RoutingPlan.from_lists(self.routes), result.plan, total,
                    result.detour_cost, result.surrogate)
                self._emit("incumbent", phi_best)
        if hook is not None:
            hook(self.phi, phi_best, result.feasible, total)
        return True

    # -- the full run ---------------------------------------------------------

    def run(self) -> tuple[CompleteSolution, SearchTrace]:
        inst = self.inst
        params = self.params
        rng = self.rng
        budget = self.budget
        history_len = params.history_length
        budget.restart_clock()

        customers = list(inst.customers)
        # split + plan loading charge about 3*pz arcs as blocks; entering a
        # cycle without that much headroom could overshoot the pz allowance
        init_margin = 3 * inst.pz
        first_cycle = True
        while True:
            if budget.arc_access_count + init_margin > self.arc_limit \
                    or budget.exceeded():
                break
            if not first_cycle:
                self._emit("restart")
            first_cycle = False

            # initialization: random tour, split, descent, first follower call.
            # A single unlucky permutation can be unsplittable even on a
            # feasible instance, so resample before giving up.
            for _ in range(64):
                perm = customers[:]
                rng.shuffle(perm)
                try:
                    routes = split_giant_tour(perm, inst, self.oracle)
                    break
                except InstanceInfeasible:
                    continue
            else:
                raise InstanceInfeasible(
                    "no sampled permutation admits a capacity-feasible split "
                    f"into {inst.fleet_size} routes")
            self.load_plan(routes)
            self.iteration = 0
            self._emit("init", self.phi)
            if not self.toggles.no_greedy_descent:
                self.descend()
                self._emit("descent_done", self.phi)
            if budget.arc_access_count >= self.arc_limit:
                break
            self._challenge_incumbent(self.phi)

            phi_best = self.phi
            idle = 0
            accepted = history_len          # primes the first ratio at 1.0
            success_ratio = 1.0
            history = [phi_best * rng.uniform(params.alpha_lb, params.alpha_ub)
                       for _ in range(history_len)]
            slot = history_len - 1
            iteration = 0
            explore_start = budget.arc_access_count

            while True:
                phi_before = self.phi
                moved = self.explore(history[slot])
                if self.phi < phi_before:
                    idle = 0
                    if self.phi < phi_best:
                        phi_best = self.phi
                else:
                    idle += 1

                slot = iteration % history_len
                if slot == 0:
                    success_ratio = accepted / history_len
                    accepted = 0
                if moved:
                    accepted += 1
                    if self.phi < history[slot]:
                        history[slot] = self.phi
                    if self.phi < self.gamma * phi_best:
                        if self.trace_full:
                            self._emit("follower_hit", phi_best)
                        if not self._challenge_incumbent(phi_best):
                            break  # meter died inside the follower

                iteration += 1
                self.iteration = iteration
                converged = (iteration >= 100_000 and idle >= 0.02 * iteration) \
                    or success_ratio <= 0.001
                out_of_budget = budget.arc_access_count >= self.arc_limit or (
                    self.wall_limited and iteration & 1023 == 0
                    and budget.exceeded())
                if converged or out_of_budget:
                    if converged and not out_of_budget:
                        self._emit("converged", phi_best)
                    break

            if budget.arc_access_count >= self.arc_limit or budget.exceeded():
                break
            if budget.arc_access_count == explore_start:
                # a whole cycle read no arc: every scan found an empty
                # candidate range, so the plan has no neighbour and each
                # restart would rebuild it for a handful of arcs
                break

        # final refinement of the incumbent with the exhaustive follower
        if self.incumbent is None:
            raise IncumbentInfeasible(
                "no battery-feasible solution found within the budget")
        inc = self.incumbent
        if not self.toggles.no_final_refinement:
            refined = solve_exhaustive(inc.routing.routes, inst, self.oracle)
            if refined.feasible:
                total = refined.surrogate + refined.detour_cost
                if total < inc.total_cost:
                    inc = CompleteSolution(inc.routing, refined.plan, total,
                                           refined.detour_cost,
                                           refined.surrogate)
                    self.incumbent = inc
            self._emit("refined", inc.surrogate)
        return inc, self.trace


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def run_blahc(inst: InstanceSpec, params: SearchParams,
              budget: EvaluationBudget, *,
              toggles: AblationToggles = NO_TOGGLES,
              trace_level: str = "phase",
              hooks=None) -> tuple[CompleteSolution, SearchTrace]:
    """Run the full search under the given budget and return the incumbent
    plus the run trace.  Deterministic in (inst, params, budget limits).
    toggles disables components for ablation studies."""
    engine = _Engine(inst, params, budget, toggles, trace_level, hooks)
    return engine.run()
