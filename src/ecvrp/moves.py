"""The eight route-editing operators: their names, arguments and checks.

Operators are pure partition transformers: they never touch demands or
feasibility, the caller filters capacity.  All of them take a target (a
route index, or an ordered pair of route indices), a customer a inside
the target and a position descriptor b whose meaning depends on the
operator:

  m1  relocate a within its route, before or after customer b
  m2  remove a, insert it after customer b of another route
  m3  swap a and b inside one route
  m4  swap a and b across two routes
  m5  reverse the segment between a and b (intra-route two-opt)
  m6  cut after a and after b, reconnect a-b (tails exchanged, reversed)
  m7  cut after a and after b, reconnect a-beta and b-alpha (tails kept)
  m8  remove a, seed an empty route with it

b is a customer id for m2..m7, a (customer, "before"|"after") pair for
m1, and an empty-route index for m8.  Only m8 can raise the number of
non-empty routes.

Each delta formula and each edit exists once, as a kernel of
search.PlanState that the search engine scans over whole candidate ranges.
delta_phi and apply_move check their arguments here and run that same
kernel over the single candidate they name, so what tests certify about
them holds for the search.  Delta evaluation reads exactly the arcs
broken and created; every read is charged to the oracle budget.
"""

from __future__ import annotations

import math
from enum import Enum

from .instance import DistanceOracle, EvaluationBudget
from .search import PlanState


class InvalidTarget(ValueError):
    pass


class NoEmptyRoute(ValueError):
    pass


class Move(Enum):
    RELOCATE_WITHIN = "m1"
    RELOCATE_ACROSS = "m2"
    SWAP_WITHIN = "m3"
    SWAP_ACROSS = "m4"
    REVERSE_SEGMENT = "m5"
    CROSS_REVERSED = "m6"
    CROSS_STRAIGHT = "m7"
    SEED_EMPTY_ROUTE = "m8"


INTRA_ROUTE = (Move.RELOCATE_WITHIN, Move.SWAP_WITHIN, Move.REVERSE_SEGMENT)
INTER_ROUTE = (Move.RELOCATE_ACROSS, Move.SWAP_ACROSS,
               Move.CROSS_REVERSED, Move.CROSS_STRAIGHT)
DESCENT_OPERATORS = (Move.RELOCATE_WITHIN, Move.RELOCATE_ACROSS,
                     Move.SWAP_WITHIN, Move.SWAP_ACROSS, Move.REVERSE_SEGMENT,
                     Move.CROSS_REVERSED, Move.CROSS_STRAIGHT)
ALL_OPERATORS = DESCENT_OPERATORS + (Move.SEED_EMPTY_ROUTE,)


def _locate(route, node, what):
    try:
        return route.index(node)
    except ValueError:
        raise InvalidTarget(f"{what} {node} is not on the target route") from None


def _route_index(routes, t):
    # bool is an int subclass, but True is no route index
    if not isinstance(t, int) or isinstance(t, bool) \
            or not 0 <= t < len(routes):
        raise InvalidTarget(
            f"route index {t!r} is not in a plan of {len(routes)} routes")
    return t


def _target_pair(routes, target):
    if not (isinstance(target, tuple) and len(target) == 2):
        raise InvalidTarget("inter-route operators need an ordered route pair")
    t1, t2 = (_route_index(routes, t) for t in target)
    if t1 == t2:
        raise InvalidTarget("route pair must name two distinct routes")
    return t1, t2


def _target_single(routes, target):
    if isinstance(target, tuple):
        raise InvalidTarget("intra-route operators take a single route index")
    return _route_index(routes, target)


def _candidate(op: Move, routes, target, a, b) -> tuple[int, int, int, int]:
    """Check (op, target, a, b) against routes and name it as the kernel
    arguments (t1, t2, pa, k): candidate k of anchor a at position pa."""
    if op in INTER_ROUTE:
        t1, t2 = _target_pair(routes, target)
        pa = _locate(routes[t1], a, "customer")
        return t1, t2, pa, _locate(routes[t2], b, "customer")
    t1 = _target_single(routes, target)
    route = routes[t1]
    if op is Move.SEED_EMPTY_ROUTE:
        if all(routes):
            raise NoEmptyRoute("every vehicle already serves customers")
        _route_index(routes, b)
        if routes[b]:
            raise InvalidTarget(f"destination route {b} is not empty")
        return t1, b, _locate(route, a, "customer"), 0
    b_node, side = b if op is Move.RELOCATE_WITHIN else (b, None)
    if op is Move.RELOCATE_WITHIN and side not in ("before", "after"):
        raise InvalidTarget(f"m1 needs (customer, 'before'|'after'), got {b!r}")
    pa, pb = _locate(route, a, "customer"), _locate(route, b_node, "customer")
    if op is Move.REVERSE_SEGMENT:
        if pb <= pa:
            raise InvalidTarget("segment end b must come after a")
    elif pa == pb:
        raise InvalidTarget("a and b must differ")
    if op is Move.RELOCATE_WITHIN:
        return t1, -1, pa, 2 * pb + (side == "after")
    return t1, -1, pa, pb


def _run_kernel(op: Move, plan, target, a, b, matrix, budget) -> PlanState:
    """Run op's search kernel over the one candidate (target, a, b) on a
    copy of plan: no threshold, no capacity filter, phi starting at 0.

    matrix None runs on zero distances, where every candidate is accepted.
    """
    routes = [list(r) for r in plan]
    t1, t2, pa, k = _candidate(op, routes, target, a, b)
    zeros = [0.0] * (1 + max((c for r in routes for c in r), default=0))
    if matrix is None:
        matrix = [zeros] * len(zeros)
    state = PlanState(routes, matrix, zeros, math.inf, budget, math.inf)
    state.kernels[ALL_OPERATORS.index(op)](state, t1, t2, pa, math.inf, k,
                                           k + 1)
    return state


def apply_move(op: Move, plan, target, a, b) -> list[list[int]]:
    """Return the neighbouring plan op(plan, target, a, b) as a fresh list
    of route lists; plan, a list of routes, is unchanged.

    The customer partition is preserved for every operator; capacity may be
    violated and is the caller's concern.  Structural no-ops the search
    skips (m1 beside itself, m5 over one customer, m7 joining two final
    arcs) return the plan as it is.  Raises InvalidTarget when the
    arguments do not fit the operator (a route pair for INTER_ROUTE, one
    route index otherwise) or name a route index the plan lacks, and
    NoEmptyRoute for m8 on a plan whose vehicles are all in use.
    """
    return _run_kernel(op, plan, target, a, b, None,
                       EvaluationBudget()).routes


def delta_phi(op: Move, plan, target, a, b, oracle: DistanceOracle) -> float:
    """Surrogate-cost change of apply_move, computed by the search kernel
    from the broken and created arcs only; 0.0 for structural no-ops.
    Charges the budget for exactly the arcs it reads."""
    return _run_kernel(op, plan, target, a, b, oracle.matrix,
                       oracle.budget).phi


def enumerate_positions(op: Move, routes, target, a) -> list:
    """Deterministically ordered candidate b values for op at (target, a):
    position ascending, preconditions filtered.  May be empty.  Raises
    InvalidTarget for a target that does not fit op, as apply_move does."""
    if op in INTRA_ROUTE:
        route = list(routes[_target_single(routes, target)])
        pa = _locate(route, a, "customer")
        if op is Move.RELOCATE_WITHIN:
            out = []
            for pb, node in enumerate(route):
                if pb != pa:
                    out.append((node, "before"))
                    out.append((node, "after"))
            return out
        if op is Move.SWAP_WITHIN:
            return [node for pb, node in enumerate(route) if pb != pa]
        return list(route[pa + 2:])

    if op in INTER_ROUTE:
        t1, t2 = _target_pair(routes, target)
        r1 = list(routes[t1])
        pa = _locate(r1, a, "customer")
        r2 = list(routes[t2])
        if op is Move.CROSS_STRAIGHT and pa == len(r1) - 1 and r2:
            # reconnecting two final arcs reproduces the same plan
            return r2[:-1]
        return r2

    if op is Move.SEED_EMPTY_ROUTE:
        _locate(list(routes[_target_single(routes, target)]), a, "customer")
        return [idx for idx, r in enumerate(routes) if not r]

    raise InvalidTarget(f"unknown operator {op!r}")  # pragma: no cover
