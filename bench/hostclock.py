"""Operation times scaled to a reference host speed.

On a shared host the speed of one core drifts by up to 1.9x over seconds,
whatever the process does: the median time of a fixed loop of Fraction sums,
taken second by second over one minute, ranged from 0.94 to 1.77 ms. Raw
times of the same work then differ by more than any useful bound from run to
run.

``HostClock`` measures that drift while an operation runs. A profiling timer
interrupts the process after every ``SAMPLE_EVERY_CPU_S`` of CPU time and
times a short fixed probe; one more probe runs just before and one just
after each operation. The operation's wall and CPU times, less the time of
the probes taken during it, are multiplied by ``REFERENCE_PROBE_S`` over the
mean probe time. The result is the operation's time on a host where the
probe takes ``REFERENCE_PROBE_S``, close to this host's fastest state.
"""

import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter, process_time

REFERENCE_PROBE_S = 3e-5
SAMPLE_EVERY_CPU_S = 0.002


def probe():
    """Fixed pure-Python work like the package's own (Fraction sums,
    dictionary updates, big-integer arithmetic). Returns (start, duration)."""
    start = perf_counter()
    acc, table, x = Fraction(0), {}, 1
    for i in range(1, 12):
        acc += Fraction(i, i + 2)
        table[i & 15] = table.get(i & 15, 0) + i * 123456789123456789
        x = (x * 3 + i) % (1 << 300)
    return start, perf_counter() - start


class HostClock:
    """Context manager that samples the host's speed while it is open."""

    def __init__(self):
        self._samples = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_CPU_S, SAMPLE_EVERY_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame):
        self._samples.append(probe())

    def run(self, fn):
        """Call ``fn()``. Returns (result, scaled wall time, scaled CPU time,
        factor), where ``factor`` turns the call's raw wall time into the
        scaled one."""
        before = probe()[1]
        self._samples = []
        wall0, cpu0 = perf_counter(), process_time()
        result = fn()
        cpu1, wall1 = process_time(), perf_counter()
        inner = [d for s, d in self._samples if wall0 <= s and s + d <= wall1]
        after = probe()[1]
        spent = sum(inner)
        scale = REFERENCE_PROBE_S / fmean([before, *inner, after])
        wall = (wall1 - wall0 - spent) * scale
        return result, wall, (cpu1 - cpu0 - spent) * scale, wall / (wall1 - wall0)
