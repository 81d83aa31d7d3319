"""A fixed pure-Python probe that gauges the host's current speed.

On a shared 2-CPU host the same pass runs 10-25% slower in one second or
half-minute than in the next, and 40-70% slower in one quarter-hour than in
another, because of what other tenants run: median pass times of whole
30-second runs spread 0.11-0.21 (interquartile range over median) between
runs.  Speed samples 0.125 s apart correlate at 0.79, 1.25 s apart at 0.49
and 12 s apart at 0.12, so the speed must be sampled during the pass, not only
around it.

``Reference.sampling`` runs the probe every ``PROBE_EVERY_S`` seconds of the
pass from an interval-timer signal, and ``Reference.probe`` times it right
before and after.  Speed is work over time, so ``T`` seconds (probes
excluded) at probe times ``p_k`` did ``T * mean(1 / p_k)`` probes' worth of
work, which takes ``T * mean(PROBE_NOMINAL_S / p_k)`` seconds at the nominal
speed: ``nominal_seconds``.  On the reference host at its quietest, that is
the wall-clock time; under load it is the time the same work would have
taken there, and the host's drift largely cancels.

The probe mixes the kinds of work the engine does in Python: integer and
dict bookkeeping, sparse elimination over ``Fraction``, dense elimination mod
p, and reads scattered over a table larger than the L2 cache.  Without the
last part the rescaled times still rose with the load, by about a fifth of
the raw rise, probably because the engine's working set, unlike such a
probe, does not fit in L2 and suffers from neighbours in the shared cache.
The probe does
not use koszulkit, so no change to the engine moves it (an engine whose
working set grew by 80 MB left the probe's time unchanged; see the README);
a change of Python version or host does, and the provenance records both.
"""

from __future__ import annotations

import contextlib
import random
import signal
import time
from fractions import Fraction
from typing import Iterator, List

#: seconds of pass between two probes
PROBE_EVERY_S = 0.25
#: about the median probe time on the reference host at its quietest
#: (Intel Xeon, 2 vCPUs, Python 3.11.7)
PROBE_NOMINAL_S = 0.011


class Reference:
    """The probe's fixed data, and ways to time the probe."""

    def __init__(self):
        rng = random.Random(5)
        self.sparse = [{rng.randrange(30): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(6)} for _ in range(16)]
        self.dense = [[rng.randrange(3) for _ in range(48)] for _ in range(40)]
        # 4.5 MB of distinct int objects and their pointers: more than the
        # 2 MB L2 cache, so the reads below go to the shared L3 cache
        self.table = list(range(1 << 17, 1 << 18))
        self.reads = [rng.randrange(1 << 17) for _ in range(25_000)]

    def probe(self) -> float:
        """Seconds taken by one run of the probe."""
        t0 = time.perf_counter()
        _bookkeeping()
        _sparse_rref(self.sparse)
        _dense_rref_mod(self.dense, 3)
        _scattered_reads(self.table, self.reads)
        return time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self, probes: List[float]) -> Iterator[None]:
        """Append a probe time to ``probes`` every ``PROBE_EVERY_S`` s of the block."""
        def on_alarm(_signum, _frame):
            probes.append(self.probe())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def nominal_seconds(seconds: float, probes: List[float]) -> float:
    """``seconds`` at the speeds the probes saw, rescaled to the nominal speed."""
    return seconds * PROBE_NOMINAL_S * sum(1 / p for p in probes) / len(probes)


def _bookkeeping() -> None:
    s = 0
    for i in range(40_000):
        s += i * i % 7
    table = {}
    for i in range(10_000):
        table[i & 1023] = [i, i + 1]


def _scattered_reads(table, reads) -> None:
    s = 0
    for i in reads:
        s += table[i]


def _sparse_rref(rows) -> None:
    pivots = []
    for row in rows:
        row = dict(row)
        for col, prow in pivots:
            f = row.get(col)
            if f:
                for k, v in prow.items():
                    y = row.get(k, 0) - f * v
                    if y:
                        row[k] = y
                    else:
                        row.pop(k, None)
        row = {k: v for k, v in row.items() if v}
        if row:
            col = min(row)
            inv = 1 / row[col]
            pivots.append((col, {k: v * inv for k, v in row.items()}))


def _dense_rref_mod(rows, p: int) -> None:
    m = [list(r) for r in rows]
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), -1)
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        row = m[r]
        inv = pow(row[c], p - 2, p)
        for j in range(c, ncols):
            row[j] = row[j] * inv % p
        for i, other in enumerate(m):
            f = other[c]
            if i != r and f:
                for j in range(c, ncols):
                    other[j] = (other[j] - f * row[j]) % p
        r += 1
