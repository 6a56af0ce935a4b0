"""Machine-speed probe behind the benchmark's time metrics.

On a shared virtual machine the speed of the CPU itself drifts, by 20-40%
within seconds and between minutes, and identical work drifts with it
(see NOTES.md).  No run length averages that out, so the worker measures
the speed while it works: an interval timer interrupts it every
``INTERVAL_S`` and the handler times one fixed probe, ``_probe_work``.
A measured span is then reported in reference seconds:

    (span - time spent in probes) * mean(REFERENCE_S / probe time)

over the probes taken inside the span.  On a machine whose probe takes
``REFERENCE_S`` a reference second is a second; when the machine runs at
half speed the probes take twice as long and the span counts half.

The probe mixes the kinds of work the program does, because contention
from other tenants slows them by different amounts: an interpreter loop,
small numpy products, 2x2 eigenvalue solves and a 48x48 LAPACK
eigen-decomposition.  It is the benchmark's own code, so a change to the
program moves the work and not the probe, and shows in full.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.1
# Probe time at the reference speed: about the median probe time on a
# shared 2.1 GHz Xeon vCPU (Python 3.11, numpy 2.4, OpenBLAS 0.3), where
# a reference second is then about a wall second.
REFERENCE_S = 2.8e-3
# Probes to fall back on for a span too short to hold one of its own.
FALLBACK = 5

_RNG = np.random.default_rng(0)
_MAT20 = _RNG.standard_normal((20, 20)) / 5.0
_VEC20 = np.ones(20)
_MAT2 = np.array([[0.6, 0.4], [0.3, 0.7]])
_MAT48 = _RNG.standard_normal((48, 48))


def _probe_work():
    total = 0
    for i in range(10_000):
        total += i
    x = _VEC20
    for _ in range(60):
        x = _MAT20 @ x
        x = x / np.linalg.norm(x)
    for _ in range(20):
        np.linalg.eigvals(_MAT2)
    np.linalg.eig(_MAT48)


def _probe() -> float:
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the probe time on a timer; converts spans to reference seconds."""

    def __init__(self):
        self.samples = []  # probe times, seconds
        self.spent = 0.0  # wall time spent inside the handler

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(_probe())
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """The probe state at the start of a span."""
        return len(self.samples), self.spent

    def reference_seconds(self, elapsed: float, mark=(0, 0.0)) -> float:
        """`elapsed` wall seconds since `mark`, in reference seconds."""
        count, spent = mark
        net = elapsed - (self.spent - spent)
        samples = self.samples[count:] or self.samples[-FALLBACK:] or [_probe()]
        return net * sum(REFERENCE_S / s for s in samples) / len(samples)
