"""Fixed reference work that measures how fast the host runs right now.

The benchmark's host is a virtual machine on a shared machine. There the
same interpreter loop can take 0.12 s in one minute and 0.22 s in the next,
with no steal time reported, and the whole benchmark process slows with it
for seconds at a time. The end-to-end pass time is therefore normalised by
a ``Sampler``: while passes run, a timer signal interrupts the benchmark
every ``INTERVAL_S`` seconds of wall time and times one short reference
kernel. Each sample is a slowdown, the kernel's time over its nominal time.
The handler's own time is taken out of the operations it interrupted, and a
pass's normalised time is its wall time at the mean speed its samples saw:
its time at the nominal speed.

Code of different kinds slows by different factors on this host, so each
workload is normalised by a kernel that does the kind of work the workload
mostly does:

- ``forks``: a pure-Python recursion over every ordered fork sequence of six
  pools, like the multi-pool reward that the allocation searches call;
- ``race``: a block of vectorised draws, repeated on the rounds still
  racing, like the simulator's blocks;
- ``search``: a grid scan of a formula on a numpy grid, refined by a
  golden-section search on Python floats, like the equilibrium sweeps.

The kernels are frozen copies of these patterns and never call fawkit, so
a change to fawkit leaves them alone and shows in full in the normalised
time. Each does the same work on every call.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

import numpy as np

FORK_TAUS = (0.031, 0.027, 0.022, 0.018, 0.014, 0.01)
FORK_REPS = 3
RACE_ROUNDS = 1 << 16
RACE_CUM = np.array([0.1, 0.25, 0.6, 1.0])   # two racing categories, then two enders
SEARCH_REPS = 80
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INTERVAL_S = 0.2

# Kernel seconds on the 2-core Xeon virtual machine the benchmark was
# written on, in its faster state. They only fix the scale, so that
# normalised seconds read close to wall seconds there.
NOMINAL_S = {"forks": 0.0045, "race": 0.0045, "search": 0.0045}


def forks_kernel() -> float:
    total = 0.0
    for _ in range(FORK_REPS):
        total += sum(_fork_weights(FORK_TAUS))
    return total


def _fork_weights(ta) -> list[float]:
    n = len(ta)
    weights = [0.0] * n
    seq: list[int] = []
    used = [False] * n

    def descend(prefix_prod, prefix_sum):
        for j in range(n):
            if used[j]:
                continue
            s = prefix_sum + ta[j]
            p = prefix_prod * ta[j] / (1.0 - s)
            seq.append(j)
            used[j] = True
            w = p / len(seq)
            for i in seq:
                weights[i] += w
            descend(p, s)
            used[j] = False
            seq.pop()

    descend(1.0, 0.0)
    return weights


def race_kernel() -> float:
    rng = np.random.Generator(np.random.Philox(12345))
    racing = int(np.searchsorted(RACE_CUM, 0.5))
    held = np.zeros((RACE_ROUNDS, racing), dtype=bool)
    active = np.arange(RACE_ROUNDS)
    while active.size:
        cat = np.searchsorted(RACE_CUM, rng.random(active.size), side="right")
        again = cat < racing
        held[active[again], cat[again]] = True
        active = active[again]
    return float(np.count_nonzero(held))


def search_kernel() -> float:
    total = 0.0
    for k in range(SEARCH_REPS):
        a = 0.1 + 0.002 * k

        def f(x):
            return a * x * (1.0 - x) / (1.0 - a * x) + 0.05 * np.sqrt(x)

        xs = np.linspace(0.0, 1.0, 1001)
        i = int(np.argmax(f(xs)))
        lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, 1000)])
        while hi - lo > 1e-9:
            c, d = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
            if float(f(c)) > float(f(d)):
                hi = d
            else:
                lo = c
        total += 0.5 * (lo + hi)
    return total


KERNELS = {"forks": forks_kernel, "race": race_kernel, "search": search_kernel}


class Sampler:
    """Samples the host's slowdown from a timer signal while it runs.

    ``samples`` holds every slowdown measured, ``spent`` the seconds spent
    in the handler. The handler runs in the main thread between bytecodes,
    or once a native call returns.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.nominal_s = NOMINAL_S[kind]
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> float:
        """Run the kernel once; returns and records its slowdown."""
        start = time.perf_counter()
        self.kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds / self.nominal_s)
        self.spent += seconds
        return self.samples[-1]

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
