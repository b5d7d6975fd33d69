"""A fixed computation that measures how fast the machine is right now.

On a shared machine the speed of one core drifts, by up to twofold over
tens of seconds, as other tenants come and go.  A raw wall-clock time then
says more about the neighbours than about thincert.  So the benchmark runs
this reference computation (the benchmark's own sparse elimination of two
fixed matrices, 150 x 150 over GF(p) and 30 x 30 over Q: the same kind of
interpreter work on data of the same size as thincert's) every
INTERVAL_S of op time, and reports times normalized to it: a time t
measured while the reference took r seconds is reported as
t * NOMINAL_S / r, that is, in seconds of a machine on which the reference
takes NOMINAL_S.  The reference never calls thincert, so a change to
thincert cannot move it.
"""

from __future__ import annotations

import random
import statistics
import time

from arith import Arith
from workloads import P, square_full

#: seconds the reference takes on the nominal machine; about its fastest
#: time on the two-core Python 3.11 machine the benchmark was tuned on
NOMINAL_S = 0.010

#: op seconds between two reference samples
INTERVAL_S = 0.5


class Reference:
    def __init__(self):
        rng = random.Random("reference")
        self._gfp = Arith(P)
        self._q = Arith(None)
        self._gfp_rows = square_full(self._gfp, rng, 150).rows
        self._q_rows = square_full(self._q, rng, 30).rows
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._gfp.rank(self._gfp_rows)
        self._q.rank(self._q_rows)
        self.samples.append(time.perf_counter() - t0)

    def scale(self, k: int, half: int = 2) -> float:
        """NOMINAL_S over the median of the samples around sample index ``k``."""
        lo = max(0, min(k - half, len(self.samples) - 2 * half - 1))
        return NOMINAL_S / statistics.median(self.samples[lo:lo + 2 * half + 1])
