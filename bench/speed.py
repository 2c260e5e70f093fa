"""Machine-speed probe.

The benchmark runs on shared machines whose speed drifts by up to half, in
phases from about a second to minutes long, as other tenants' load comes and
goes.  Neither CPU time nor a statistic over one run's invocations removes
that drift (see README.md).

The probe is a fixed piece of work with the operation mix of the spectral
kernel, Python bytecode and numpy calls on 128-element arrays, and it shares
no code with trapgas.  ``Sampler`` times it every ``INTERVAL_S`` of wall time
while an invocation runs, from a SIGALRM handler in the main thread, so the
samples see the same phases as the invocation.  Scaling an invocation's time
by ``speed_factor`` of its samples gives the time it would have taken at the
machine speed where the probe takes ``REFERENCE_S``.  A change to trapgas
cannot move the probe.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Median probe time on the 2-core machine described in README.md.
REFERENCE_S = 0.0008
INTERVAL_S = 0.05


def _work() -> float:
    s = 0
    for i in range(5_000):
        s += i * i % 7
    a = np.arange(128.0)
    for _ in range(40):
        a = np.cumsum(np.exp(a * 1e-3)) * 1e-3
    return s + float(a[-1])


class Sampler:
    """Probe samples taken while the sampler is active.

    ``spent_s`` is the time the probes themselves took; callers subtract it
    from what they timed, so the probes do not count as the program's time.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _work()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent_s += dt

    def __enter__(self) -> "Sampler":
        _work()  # a first call pays one-time costs; keep it out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # shorter than INTERVAL_S: one sample taken just after, not counted in spent_s
            t0 = perf_counter()
            _work()
            self.samples.append(perf_counter() - t0)


def speed_factor(samples: list) -> float:
    """Mean of REFERENCE_S over each sample: below 1 when the machine was slow.

    Samples are evenly spaced in wall time, and a program's progress over an
    interval is the time average of the machine's speed, which each sample
    measures as REFERENCE_S / sample.  A sample stretched by preemption adds
    almost nothing, as the program made almost no progress meanwhile.
    """
    return statistics.fmean(REFERENCE_S / s for s in samples)
