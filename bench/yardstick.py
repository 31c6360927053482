"""A fixed CPU yardstick that puts timings on a common machine speed.

The benchmark is meant for shared virtual machines, where the same work
can run up to twice as fast at one moment as at another (0.58 to 1.14 s
for one fixed 2M-arc X143 search on the 2-core Xeon VM it was sized on)
and the speed drifts over seconds to minutes.  Medians within a run
cannot remove a drift that lasts longer than the run.

So the run takes short, fixed yardstick passes between its operations,
and inside search runs from the follower hook of run_blahc, at most every
INTERVAL seconds.  An operation's time leaves out the passes inside it; the
pieces between them are each scaled by NOMINAL / (the median pass around
that piece).  A scaled time reads as seconds on a machine where one pass
takes NOMINAL seconds.  The yardstick is pure Python of the same kind as
the solver's hot loops (nested float lists, seeded random draws,
itertools.combinations); it imports nothing from the program, so no
program change can move it.  It runs with the garbage collector off, so
the program's heap cannot slow it.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from itertools import combinations

NOMINAL = 0.003    # seconds per pass, about the median pass on the sizing VM
INTERVAL = 0.1     # seconds between passes, so they cost 2 to 3%
WINDOW = 0.5       # seconds around an operation whose passes count
MIN_PASSES = 5     # nearest passes taken when the window holds fewer

_N = 24
_rng = random.Random(2024)
_MATRIX = [[_rng.uniform(1.0, 100.0) for _ in range(_N)] for _ in range(_N)]


def _kernel() -> float:
    """Fixed work: random detour scans over a float matrix and a battery
    walk over combinations of gaps, like solve_se and the move scans."""
    m = _MATRIX
    draw = random.Random(7).random
    best = 0.0
    for _ in range(1000):
        i = int(draw() * _N)
        j = int(draw() * _N)
        row = m[i]
        low = row[j]
        for k in range(_N):
            d = row[k] + m[k][j]
            if d < low:
                low = d
        best += low
    legs = m[3][:16]
    for combo in combinations(range(16), 3):
        charge = 250.0
        pos = 0
        for g in range(16):
            if pos < 3 and combo[pos] == g:
                pos += 1
                charge = 250.0 - legs[g]
            else:
                charge -= legs[g]
                if charge < 0.0:
                    break
        best += charge
    return best


CHECKSUM = _kernel()


class Yardstick:
    """Yardstick passes taken during a run, and the times they scale."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.mids: list[float] = []
        self.passes: list[float] = []
        self._last = float("-inf")

    def tick(self, *_) -> None:
        """Take a pass when the last one is INTERVAL seconds old.  Takes
        and ignores arguments, so it can serve as a run_blahc hook."""
        if time.perf_counter() - self._last >= INTERVAL:
            self.sample()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            value = _kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        if value != CHECKSUM:
            raise RuntimeError("yardstick gave a different result")
        self.starts.append(t0)
        self.ends.append(t1)
        self.mids.append((t0 + t1) / 2)
        self.passes.append(t1 - t0)
        self._last = t1

    def pieces(self, start: float, end: float) -> list[tuple[float, float]]:
        """[start, end] without the passes taken inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        out, at = [], start
        for k in range(lo, hi):
            out.append((at, self.starts[k]))
            at = self.ends[k]
        out.append((at, end))
        return out

    def unscaled(self, start: float, end: float) -> float:
        return sum(b - a for a, b in self.pieces(start, end))

    def scale(self, start: float, end: float) -> float:
        """NOMINAL / median pass within WINDOW of [start, end], widened to
        the MIN_PASSES passes nearest to it when the window holds fewer."""
        lo = bisect.bisect_left(self.mids, start - WINDOW)
        hi = bisect.bisect_right(self.mids, end + WINDOW)
        while hi - lo < MIN_PASSES and (lo > 0 or hi < len(self.mids)):
            before = start - self.mids[lo - 1] if lo > 0 else float("inf")
            after = self.mids[hi] - end if hi < len(self.mids) \
                else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return NOMINAL / statistics.median(self.passes[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        return sum((b - a) * self.scale(a, b)
                   for a, b in self.pieces(start, end))
