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
from functools import partial
from math import floor

import numpy as np

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
# cap) and an exploration call may loop over every attempt.  The command
# line caps the number of seeds by it too.
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


class SearchError(ValueError):
    """The instance as given has no solution the search can return."""


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
        # random.Random(n) seeds with abs(n): -3 would rerun seed 3
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    m6 and m7, the two ways to reconnect one cut of two routes, share one
    kernel, _cross, and so one delta and one scan.
    Kernel kernels[k](state, t1, t2, pa, bar, lo, hi) anchors customer
    a = routes[t1][pa] and tries candidates lo..hi-1 in order.  It applies
    the first whose new surrogate phi + delta is below bar, and returns
    True; it returns False when none does.  Descent passes the bar phi -
    IMPROVE_EPS, exploration the larger of that and its history value.
    A candidate is a position pb of the partner route t2 (m2, m4, m6, m7) or
    of route t1 itself (m3, m5); m1 numbers the two sides of each customer,
    2*pb for before routes[t1][pb] and 2*pb + 1 for after it, and so
    inserts a into gap (k + 1) >> 1, between routes[t1][gap - 1] and
    routes[t1][gap], skipping the two gaps beside a; m8 has one
    candidate, moving a into the empty route t2 (t2 < 0: none left).  Every
    arc read is charged to the budget, and a scan stops once the count
    reaches arc_limit.

    A scan that fails without reaching arc_limit leaves in dmin the least
    delta of the candidates it evaluated (inf: none).  fl(phi + d) is
    monotone in d, so a candidate whose delta is not below a delta that
    already failed cannot pass: each kernel tests only candidates with
    delta < dmin, and while the routes the scan read stay unchanged, a
    caller that knows dmin knows its outcome under any phi and threshold.

    The kernels rely on two properties of what they are given.  matrix is
    exactly symmetric, so d(x, a) is read as row_a[x], from the anchor's
    own row: the engine passes oracle.matrix, and moves passes that or
    rows of zeros.  demands and cap are non-negative integers whose sums
    are exact (the instance's cargo_units, or zeros and an infinite cap in
    moves), so a capacity test is one exact window on a demand or a head
    load, and m6 and m7 stop at the first head load above their window.
    A kernel sums each delta's terms in a fixed order, which the
    engine's numpy blocks repeat bit for bit (_Engine._block_row), and
    the blocks' capacity masks are its windows, exact on either kind of
    cargo unit (_Engine._slot).
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
        """m1: move a into gap (k + 1) >> 1 of its route, between
        route[gap - 1] and route[gap] (the depot past either end).  The
        gaps beside a, pa and pa + 1, would leave the route as it is and
        are skipped: their float-noise deltas could masquerade as
        improvements.  An interior gap is two candidates, k = 2 gap - 1 and
        k = 2 gap, with one delta: it is computed for the first, and the
        second, whose delta has already failed, is only charged."""
        route = self.routes[t1]
        length = len(route)
        if length < 2:
            self.dmin = math.inf
            return False
        budget = self.budget
        spent = budget.arc_access_count
        limit = self.arc_limit
        if spent >= limit:
            return False
        spent += 3
        matrix = self.matrix
        phi = self.phi
        ext = [0, *route, 0]
        a = ext[pa + 1]
        prev_a = ext[pa]
        next_a = ext[pa + 2]
        row_a = matrix[a]
        removal = matrix[prev_a][next_a] - row_a[prev_a] - row_a[next_a]
        dmin = math.inf
        stop = hi if hi < 2 * length else 2 * length
        # candidates lo..stop - 1 fall in gaps (lo + 1) >> 1 .. stop >> 1,
        # and both of a gap's when lo < 2 gap < stop
        for gap in range((lo + 1) >> 1, (stop >> 1) + 1 if stop > lo else 0):
            if gap == pa or gap == pa + 1:
                continue
            if spent >= limit:
                budget.arc_access_count = spent
                return False
            spent += 3
            left = ext[gap]
            right = ext[gap + 1]
            delta = removal + row_a[left] + row_a[right] - matrix[left][right]
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    budget.arc_access_count = spent
                    del route[pa]
                    route.insert(gap - 1 if gap > pa else gap, a)
                    self.phi = phi_new
                    return True
                dmin = delta
            if lo < gap + gap < stop:
                if spent >= limit:
                    budget.arc_access_count = spent
                    return False
                spent += 3
        budget.arc_access_count = spent
        self.dmin = dmin
        return False

    def _m2(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m2: move a into route t2, right after customer r2[pb]."""
        r1 = self.routes[t1]
        r2 = self.routes[t2]
        a = r1[pa]
        demand_a = self.demands[a]
        if self.loads[t2] + demand_a > self.cap:
            self.dmin = math.inf
            return False
        budget = self.budget
        spent = budget.arc_access_count
        limit = self.arc_limit
        if spent >= limit:
            return False
        spent += 3
        matrix = self.matrix
        phi = self.phi
        prev_a = r1[pa - 1] if pa else 0
        next_a = r1[pa + 1] if pa + 1 < len(r1) else 0
        row_a = matrix[a]
        removal = matrix[prev_a][next_a] - row_a[prev_a] - row_a[next_a]
        ext2 = r2 + [0]
        length2 = len(r2)
        dmin = math.inf
        for pb in range(lo, hi if hi < length2 else length2):
            if spent >= limit:
                budget.arc_access_count = spent
                return False
            spent += 3
            b = ext2[pb]
            right = ext2[pb + 1]
            delta = removal + row_a[b] + row_a[right] - matrix[b][right]
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    budget.arc_access_count = spent
                    del r1[pa]
                    r2.insert(pb + 1, a)
                    self.loads[t1] -= demand_a
                    self.loads[t2] += demand_a
                    self.phi = phi_new
                    if not r1:
                        self._mark_empty(t1)
                    return True
                dmin = delta
        budget.arc_access_count = spent
        self.dmin = dmin
        return False

    def _m3(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m3: swap a with another customer of its route.  On a
        one-customer route the only b is a itself: no arc is read."""
        route = self.routes[t1]
        length = len(route)
        budget = self.budget
        spent = budget.arc_access_count
        limit = self.arc_limit
        matrix = self.matrix
        phi = self.phi
        ext = [0, *route, 0]
        a = ext[pa + 1]
        prev_a = ext[pa]
        next_a = ext[pa + 2]
        row_a = matrix[a]
        d_pa_a = row_a[prev_a]
        d_a_na = row_a[next_a]
        dmin = math.inf
        for pb in range(lo, hi if hi < length else length):
            if pb == pa:
                continue
            if spent >= limit:
                budget.arc_access_count = spent
                return False
            b = ext[pb + 1]
            prev_b = ext[pb]
            next_b = ext[pb + 2]
            row_b = matrix[b]
            if pb == pa + 1:        # prev_b is a
                spent += 4
                delta = (row_b[prev_a] + row_a[next_b]
                         - d_pa_a - row_b[next_b])
            elif pb == pa - 1:      # next_b is a
                spent += 4
                delta = (row_a[prev_b] + row_b[next_a]
                         - row_b[prev_b] - d_a_na)
            else:
                spent += 8
                delta = (row_b[prev_a] + row_b[next_a]
                         + row_a[prev_b] + row_a[next_b]
                         - d_pa_a - d_a_na
                         - row_b[prev_b] - row_b[next_b])
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    budget.arc_access_count = spent
                    route[pa], route[pb] = b, a
                    self.phi = phi_new
                    return True
                dmin = delta
        budget.arc_access_count = spent
        self.dmin = dmin
        return False

    def _m4(self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m4: swap a with customer r2[pb] of route t2."""
        r1 = self.routes[t1]
        r2 = self.routes[t2]
        budget = self.budget
        spent = budget.arc_access_count
        limit = self.arc_limit
        demands = self.demands
        cap = self.cap
        matrix = self.matrix
        phi = self.phi
        a = r1[pa]
        demand_a = demands[a]
        load1 = self.loads[t1]
        load2 = self.loads[t2]
        # b fits both routes iff least <= demand_b <= most
        least = load2 + demand_a - cap
        most = cap - load1 + demand_a
        length2 = len(r2)
        prev_a = r1[pa - 1] if pa else 0
        next_a = r1[pa + 1] if pa + 1 < len(r1) else 0
        row_a = matrix[a]
        d_pa_a = row_a[prev_a]
        d_a_na = row_a[next_a]
        dmin = math.inf
        for pb in range(lo, hi if hi < length2 else length2):
            b = r2[pb]
            demand_b = demands[b]
            if not least <= demand_b <= most:
                continue
            if spent >= limit:
                budget.arc_access_count = spent
                return False
            spent += 8
            prev_b = r2[pb - 1] if pb else 0
            next_b = r2[pb + 1] if pb + 1 < length2 else 0
            row_b = matrix[b]
            delta = (row_b[prev_a] + row_b[next_a] - d_pa_a - d_a_na
                     + row_a[prev_b] + row_a[next_b]
                     - row_b[prev_b] - row_b[next_b])
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    budget.arc_access_count = spent
                    r1[pa], r2[pb] = b, a
                    self.loads[t1] = load1 - demand_a + demand_b
                    self.loads[t2] = load2 - demand_b + demand_a
                    self.phi = phi_new
                    return True
                dmin = delta
        budget.arc_access_count = spent
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
        budget = self.budget
        spent = budget.arc_access_count
        limit = self.arc_limit
        if spent >= limit:
            return False
        spent += 1
        matrix = self.matrix
        phi = self.phi
        a = route[pa]
        next_a = route[pa + 1]
        row_a = matrix[a]
        row_an = matrix[next_a]
        d_a_an = row_a[next_a]
        ext = route + [0]
        dmin = math.inf
        for pb in range(start, stop):
            if spent >= limit:
                budget.arc_access_count = spent
                return False
            spent += 3
            b = ext[pb]
            next_b = ext[pb + 1]
            delta = row_a[b] + row_an[next_b] - d_a_an - matrix[b][next_b]
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    budget.arc_access_count = spent
                    self.routes[t1] = route[:pa + 1] \
                        + route[pa + 1:pb + 1][::-1] + route[pb + 1:]
                    self.phi = phi_new
                    return True
                dmin = delta
        budget.arc_access_count = spent
        self.dmin = dmin
        return False

    def _cross(straight, self, t1, t2, pa, bar, lo=0, hi=ALL) -> bool:
        """m6 (straight False) and m7 (straight True): cut after a and
        after r2[pb].  m6 joins a-b and next_a-next_b, each head reversed
        into the other route; m7 joins next_a-b and a-next_b, exchanging
        the tails.  One delta serves both: first[b] + second[next_b], with
        (first, second) the rows of (a, next_a) for m6 and of (next_a, a)
        for m7."""
        r1 = self.routes[t1]
        r2 = self.routes[t2]
        budget = self.budget
        spent = budget.arc_access_count
        limit = self.arc_limit
        demands = self.demands
        cap = self.cap
        a = r1[pa]
        length1 = len(r1)
        length2 = len(r2)
        next_a = r1[pa + 1] if pa + 1 < length1 else 0
        head1 = 0
        for k in range(pa + 1):
            head1 += demands[r1[k]]
        tail1 = self.loads[t1] - head1
        load2 = self.loads[t2]
        if spent >= limit:
            return False
        spent += 1
        # the cut after b fits both routes iff least <= head2 <= most, and
        # head2 never falls as pb grows: route t1 keeps head1 and takes
        # head2 (m6) or the tail of t2 (m7)
        if straight:
            least = head1 + load2 - cap
            most = cap - tail1
            # reconnecting two final arcs changes nothing: with a last,
            # the last b is no candidate
            stop = length2 - 1 if pa + 1 == length1 else length2
        else:
            least = tail1 + load2 - cap
            most = cap - head1
            stop = length2
        head2 = 0
        if lo:  # demand of the customers ahead of the range
            for b in r2[:lo]:
                head2 += demands[b]
        matrix = self.matrix
        phi = self.phi
        row_a = matrix[a]
        row_an = matrix[next_a]
        d_a_an = row_a[next_a]
        first, second = (row_an, row_a) if straight else (row_a, row_an)
        dmin = math.inf
        for pb in range(lo, hi if hi < stop else stop):
            b = r2[pb]
            head2 += demands[b]
            if head2 < least:
                continue
            if head2 > most:
                break
            if spent >= limit:
                budget.arc_access_count = spent
                return False
            spent += 3
            next_b = r2[pb + 1] if pb + 1 < length2 else 0
            delta = first[b] + second[next_b] - d_a_an - matrix[b][next_b]
            if delta < dmin:
                phi_new = phi + delta
                if phi_new < bar:
                    budget.arc_access_count = spent
                    self.phi = phi_new
                    if straight:
                        self.routes[t1] = r1[:pa + 1] + r2[pb + 1:]
                        self.routes[t2] = r2[:pb + 1] + r1[pa + 1:]
                        self.loads[t1] = head1 + load2 - head2
                        self.loads[t2] = head2 + tail1
                    else:
                        self.routes[t1] = r1[:pa + 1] + r2[:pb + 1][::-1]
                        self.routes[t2] = r1[pa + 1:][::-1] + r2[pb + 1:]
                        self.loads[t1] = head1 + head2
                        self.loads[t2] = tail1 + load2 - head2
                        if not self.routes[t2]:
                            self._mark_empty(t2)
                    return True
                dmin = delta
        budget.arc_access_count = spent
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
            del route[pa]
            self.routes[t2] = [a]
            self.loads[t1] -= self.demands[a]
            self.loads[t2] = self.demands[a]
            self.phi = phi_new
            self._mark_used(t2)
            if not route:
                self._mark_empty(t1)
            return True
        self.dmin = delta
        return False

    # indexed by operator id; plain functions called as
    # kernels[op](state, t1, t2, pa, bar, lo, hi), since a tuple of bound
    # methods held by the state would make every state a reference cycle
    # that lives until the next full garbage collection.  A partial adds
    # no Python frame to m6 and m7
    kernels = (_m1, _m2, _m3, _m4, _m5, partial(_cross, False),
               partial(_cross, True), _m8)

    # -- the sorted route lists, for the kernels that empty or fill a route

    def _mark_empty(self, t: int) -> None:
        self.nonempty.remove(t)
        insort(self.empties, t)

    def _mark_used(self, t: int) -> None:
        self.empties.remove(t)
        insort(self.nonempty, t)


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
        self.trace = SearchTrace()
        self.trace_full = trace_level == "full"
        self.hooks = hooks or {}
        # the best detour stations, never charged: shared instance data
        self.table = build_best_station_table(inst, self.oracle)
        self.se_memo = {}           # solve_se's route cache, emptied with memo
        # failed full scans, one dict per operator: key row_keys[t1] +
        # ids[t2] (id1 * stride + id2, the content ids of the target's two
        # routes) -> a row over the anchor positions pa of the first:
        # row[pa] the scan's dmin (nan: none recorded) and row[~pa] the
        # arcs it read.  Per route slot t, written by _intern alone: ids[t]
        # is route t's content id, row_keys[t] is ids[t] * stride,
        # lengths[t] is len(route t), and slot_arrays[t], _slot's arrays,
        # is dropped.  The extra last entry of ids, the partner id of
        # t2 = -1, lies above every content id
        self.memo = [{} for _ in range(8)]
        self.content_ids = {}       # tuple(route) -> content id
        self.memo_cap = memo_cap(inst)
        self.memo_slots = 0
        no_route = self.memo_cap + 3 * inst.num_customers \
            + 2 * inst.route_slots
        self.stride = no_route + 1
        self.ids = [0] * inst.route_slots + [no_route]
        self.row_keys = [0] * inst.route_slots
        self.lengths = [0] * inst.route_slots
        self.slot_arrays = [None] * inst.route_slots
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
        operators, shuffled each outer pass, until no operator improves.
        m1, m3 and m5 walk the targets (t, -1) of every route slot, the
        others every ordered slot pair (0, 1), (0, 2), ..., (1, 0), ....
        The budget is tested at the top of each pass over a target's
        anchors (_descend_target) and at the end of each outer pass, the
        clock read there only under a wall-clock limit, so a spent budget
        ends descent without another shuffle."""
        rng = self.rng
        ops = [M1, M2, M3, M4, M5, M6, M7]
        slots = range(len(self.routes))
        intra = [(t, -1) for t in slots]
        inter = [(t1, t2) for t1 in slots for t2 in slots if t1 != t2]
        budget = self.budget
        limit = self.arc_limit
        wall = self.wall_limited
        while True:
            improved = False
            rng.shuffle(ops)
            for op in ops:
                for t1, t2 in intra if op in (M1, M3, M5) else inter:
                    improved |= self._descend_target(op, t1, t2)
            if not improved or budget.arc_access_count >= limit or (
                    wall and budget.exceeded()):
                return

    def _descend_target(self, op, t1, t2) -> bool:
        """Rescan one target until no pair (a, b) improves it, running the
        operator's kernel over its full candidate range for each a.  Each
        pass over the anchors starts with a test of the arc limit and,
        under a wall-clock limit, one clock read, so no row is built once
        the budget has run out, and an expired deadline ends descent
        within one pass.

        An anchor whose failed scan is in the memo for the routes' current
        contents, and whose dmin cannot beat the current phi, is charged
        the recorded arcs without rerunning the kernel, as in explore.

        A pass that finds no row for its target first fills one with
        _block_row, every anchor's full scan priced at once.  The loop then
        charges each anchor that cannot pass its recorded arcs, and runs
        the kernel at the first anchor that can, which accepts and applies
        its own edit, wherever a recorded charge would cross arc_limit, and
        at an anchor that explore's row leaves unknown (nan).  So the
        accepted candidate, the arcs charged up to it and the point where a
        limit stops the scan are those of running every anchor's kernel."""
        budget = self.budget
        limit = self.arc_limit
        wall = self.wall_limited
        scan = self.kernels[op]
        memo = self.memo[op]
        row_keys = self.row_keys
        ids = self.ids
        improved = False
        while True:
            r1 = self.routes[t1]
            if not r1 or (t2 >= 0 and not self.routes[t2]) or \
                    budget.arc_access_count >= limit or (
                        wall and budget.exceeded()):
                return improved
            row = memo.get(row_keys[t1] + ids[t2])
            if row is None:
                row = self._block_row(op, t1, t2)
            phi = self.phi
            bar = phi - IMPROVE_EPS
            for pa in range(len(r1)):
                spent = budget.arc_access_count
                if spent >= limit:
                    return improved
                if phi + row[pa] >= bar and spent + row[~pa] <= limit:
                    budget.arc_access_count = spent + row[~pa]
                    continue
                if scan(self, t1, t2, pa, bar):
                    self._touch(t1, t2)
                    improved = True
                    break
            else:
                return improved

    def _block_row(self, op, t1, t2) -> list:
        """The memo row of op on target (t1, t2), every anchor's full scan
        priced at once, stored through _new_row: row[pa] the least delta of
        the candidates that fit (inf: none) and row[~pa] the arcs the
        kernel charges.  Those are its header charge plus its charge per
        candidate times the candidates that fit: 3 + 3 per candidate k for
        m1, whose interior gaps are two candidates each; 4 per neighbour
        and 8 per other customer for m3; 1 + 3 per candidate for m5, m6
        and m7 (0 with none for m5), and as in the kernels for m2 and m4.
        A one-customer route has no m1 or m3 candidate: inf and 0.

        One gather of the arcs between the two depot-padded routes (the
        route and itself for m1, m3 and m5) feeds every delta with the
        routes' own and skip arcs (_slot), summed elementwise in the
        kernel's own term order.  numpy's float64 adds are IEEE, the
        array is exactly symmetric and matrix is array.tolist(), so each
        delta equals the kernel's bit for bit.  The capacity masks are the
        kernels' windows, and exact: float units are integers below 2**53,
        and int units are Python ints in object arrays (_slot), whose
        comparisons still return bool arrays."""
        ext1, own1, skip1, units1, head1 = self._slot(t1)
        length1 = len(units1)
        array = self.oracle.array
        inf = math.inf
        if t2 < 0:
            if length1 < 2:
                dmin = [inf] * length1
                arcs = [0] * length1
            else:
                # cross[i, j] = d(ext1[i], ext1[j]).  A diagonal of delta is
                # set as a slice of its flat view, stepping by the row width
                # plus one
                cross = array[ext1[:, None], ext1]
                if op == M1:
                    at_a = cross[1:-1]
                    removal = skip1 - own1[:-1] - own1[1:]
                    delta = removal[:, None] + at_a[:, :-1] + at_a[:, 1:] \
                        - own1
                    flat = delta.reshape(-1)
                    flat[::length1 + 2] = inf       # gap pa
                    flat[1::length1 + 2] = inf      # gap pa + 1
                    dmin = np.minimum.reduce(delta, axis=1).tolist()
                    end = 6 * length1 - 6
                    arcs = [end, *[end - 3] * (length1 - 2), end]
                elif op == M3:
                    delta = (cross[:-2, 1:-1] + cross[2:, 1:-1]
                             + cross[1:-1, :-2] + cross[1:-1, 2:]
                             - own1[:-1, None] - own1[1:, None]
                             - own1[:-1] - own1[1:])
                    # b next to a: the swap of adjacent customers, the same
                    # sum from either side
                    adjacent = skip1[:-1] + skip1[1:] - own1[:-2] - own1[2:]
                    flat = delta.reshape(-1)
                    flat[::length1 + 1] = inf       # b is a
                    flat[1::length1 + 1] = adjacent
                    flat[length1::length1 + 1] = adjacent
                    dmin = np.minimum.reduce(delta, axis=1).tolist()
                    end = 8 * length1 - 12
                    arcs = [end, *[end - 4] * (length1 - 2), end]
                else:
                    delta = (cross[1:-1, 1:-1] + cross[2:, 2:]
                             - own1[1:, None] - own1[1:])
                    # the candidates of pa are pb >= pa + 2: the least of
                    # each row's suffix from column pa + 2, on the second
                    # superdiagonal of the suffix minima
                    suffix = np.minimum.accumulate(delta[:, ::-1], axis=1)
                    dmin = [*np.diagonal(suffix[:, ::-1], 2).tolist(),
                            inf, inf]
                    arcs = [*range(3 * length1 - 5, 3, -3), 0, 0]
        else:
            ext2, own2, _, units2, head2 = self._slot(t2)
            cap = self.cap
            load1 = self.loads[t1]
            load2 = self.loads[t2]
            # cross[i, j] = d(ext1[i], ext2[j]): row pa + 1 is anchor a, row
            # pa its predecessor, row pa + 2 its successor, and likewise for
            # the columns of b
            cross = array[ext1[:, None], ext2]
            at_a = cross[1:-1]
            # the capacity windows of the kernels: the units are integers,
            # so every sum and difference below is exact
            if op == M2:
                removal = skip1 - own1[:-1] - own1[1:]
                delta = removal[:, None] + at_a[:, 1:-1] + at_a[:, 2:] \
                    - own2[1:]
                fits = units1 <= cap - load2
                dmin = np.where(fits, np.minimum.reduce(delta, axis=1), inf)
                arcs = np.where(fits, 3 + 3 * len(units2), 0)
            else:
                if op == M4:
                    delta = (cross[:-2, 1:-1] + cross[2:, 1:-1]
                             - own1[:-1, None] - own1[1:, None]
                             + at_a[:, :-2] + at_a[:, 2:] - own2[:-1]
                             - own2[1:])
                    least = units1 + (load2 - cap)
                    most = units1 + (cap - load1)
                    tested = units2             # each b's demand
                else:
                    tested = head2              # each head load of t2
                    if op == M6:
                        delta = (at_a[:, 1:-1] + cross[2:, 2:]
                                 - own1[1:, None] - own2[1:])
                        least = (load1 + load2 - cap) - head1
                        most = cap - head1
                    else:
                        delta = (cross[2:, 1:-1] + at_a[:, 2:]
                                 - own1[1:, None] - own2[1:])
                        least = head1 + (load2 - cap)
                        most = head1 + (cap - load1)
                fits = (least[:, None] <= tested) & (tested <= most[:, None])
                if op == M7:
                    fits[-1, -1] = False    # the two final arcs: no candidate
                dmin = np.minimum.reduce(delta, axis=1, where=fits,
                                         initial=inf)
                count = np.add.reduce(fits, axis=1)
                arcs = 8 * count if op == M4 else 1 + 3 * count
            dmin = dmin.tolist()
            arcs = arcs.tolist()
        row = self._new_row(op, t1, t2)
        row[:length1] = dmin
        row[length1:] = arcs[::-1]
        return row

    def _slot(self, t) -> tuple:
        """The arrays blocks read of route slot t, built at the first block
        after _intern drops them: the depot-padded route ext, its own arcs
        own[k] = d(ext[k], ext[k + 1]), its skip arcs skip[k] = d(ext[k],
        ext[k + 2]), and its customers' cargo units and head loads (the
        load up to and including each customer).  The units are float64
        when cap is a float, so every sum is an exact integer below 2**53;
        past that they are Python ints, held with dtype=object, since
        int64 could overflow."""
        arrays = self.slot_arrays[t]
        if arrays is None:
            route = self.routes[t]
            ext = np.array([0, *route, 0])
            array = self.oracle.array
            demands = self.demands
            units = np.array([demands[c] for c in route], dtype=float
                             if isinstance(self.cap, float) else object)
            arrays = self.slot_arrays[t] = (
                ext, array[ext[:-1], ext[1:]], array[ext[:-2], ext[2:]],
                units, np.add.accumulate(units))
        return arrays

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
        and the two content ids.  row_keys[t] and lengths[t] are written
        here too, in place, so a caller's reference to either list stays
        current across a reset, and the route's block arrays (_slot) are
        dropped."""
        content = tuple(self.routes[t])
        cid = self.content_ids.get(content)
        if cid is None:
            cid = len(self.content_ids)
            self.content_ids[content] = cid
            self.memo_slots += len(content) + 1
        self.ids[t] = cid
        self.row_keys[t] = cid * self.stride
        self.lengths[t] = len(content)
        self.slot_arrays[t] = None

    def _intern_routes(self, slots) -> None:
        """Intern the routes in slots, then clear the memo if that took it
        past memo_cap."""
        for t in slots:
            self._intern(t)
        if self.memo_slots > self.memo_cap:
            self._reset_memo()

    def _reset_memo(self) -> None:
        """Empty the memo, the intern table and solve_se's route cache,
        then intern every route afresh, so no row keyed on an old id
        outlives it and the cache holds only routes interned since.  A
        reset leaves at most n + route_slots slots, a row adds at most n
        and a plan load at most n + route_slots, so the slots never pass
        memo_cap + 3 n + 2 route_slots.  Every content takes at least one
        slot, so content ids stay below that, the partner id of t2 = -1 in
        ids[-1]."""
        for memo in self.memo:
            memo.clear()
        self.se_memo.clear()
        self.content_ids.clear()
        self.memo_slots = 0
        for t in range(len(self.routes)):
            self._intern(t)

    def _new_row(self, op, t1, t2) -> list:
        """A fresh memo row for target (t1, t2) of op, every dmin unknown,
        clearing the memo first when the row would take it past memo_cap.
        An anchor's arcs are read only once its dmin is known, and both are
        written together, so the arcs half starts as nan too."""
        length = self.lengths[t1]
        if self.memo_slots + length > self.memo_cap:
            self._reset_memo()
        self.memo_slots += length
        row = [math.nan] * (2 * length)
        self.memo[op][self.row_keys[t1] + self.ids[t2]] = row
        return row

    # -- neighborhood exploration ------------------------------------------

    def explore(self, phi_vi: float) -> bool:
        """One exploration call: draw an operator once, then up to
        max_attempts random targets (t1, t2, a), each scanned by the
        operator's kernel over its full candidate range; True when a
        candidate was accepted.

        Index draws use floor(random() * n): one float per draw instead of
        the rejection sampling of randrange, still from the single seeded
        stream in program order.  On a finite non-negative float floor
        returns the int that int() does, at less cost per call.  The memo
        row of an attempt is found through the per-slot lists _intern
        keeps (row_keys[t1] + ids[t2]), and its anchor is drawn over
        lengths[t1].

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
        op = ops[floor(draw() * len(ops))]
        scan = self.kernels[op]
        budget = self.budget
        limit = self.arc_limit
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
        row_keys = self.row_keys
        lengths = self.lengths
        others = count - 1
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
                i = floor(draw() * count)
                j = floor(draw() * others)
                if j >= i:
                    j += 1
                t1 = nonempty[i]
                t2 = nonempty[j]
            else:
                t1 = nonempty[floor(draw() * count)]
                t2 = dest
            pa = floor(draw() * lengths[t1])
            row = memo.get(row_keys[t1] + ids[t2])
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

    def _challenge_incumbent(self, phi_best: float) -> bool:
        """Run the cheap follower on the current plan and keep it if the
        full cost improves on the incumbent.  False when the meter died."""
        try:
            result = solve_se(self.routes, self.inst, self.oracle,
                              self.table, self.se_memo)
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
