"""A clock that reads in seconds at the machine's nominal speed.

On a shared host the speed of this process's CPU swings by up to 2x in
states that last 0.5 to 5 seconds (measured on a 2-vCPU Xeon VM: a fixed
10 ms dict loop took 6.2 ms to 12.6 ms in consecutive half-second
windows), so plain wall time varies by 20-30% between runs of identical
work.

``NominalClock`` samples that speed while it runs: every ``PERIOD_S``
seconds a SIGALRM handler times a short fixed pure-Python loop, and the
clock advances by real time times ``nominal / loop time``, the loop
time averaged over the latest ``WINDOW`` samples.  Time spent in the
handler does not advance it.  Readings are therefore seconds the work
would have taken with the loop running in ``nominal`` seconds; the
loop does not call the program, so two versions of the program are
timed against the same yardstick.
"""

from __future__ import annotations

import gc
import signal
import time
from collections import deque
from contextlib import contextmanager
from fractions import Fraction

PERIOD_S = 0.025
WINDOW = 4   # samples averaged into the current speed, 0.1 s


def fraction_loop():
    """Fixed work of about half a millisecond: Fraction sums."""
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 7) * Fraction(3, i)
    return total


def mixed_loop():
    """Fixed work of about a millisecond: dict updates, Fraction sums."""
    table = {}
    for i in range(750):
        key = (i % 97, i % 89, i % 83)
        table[key] = table.get(key, 0) + i * 3
    return fraction_loop(), len("".join(str(v) for v in table.values()))


# loop -> its mean time in benchmark runs on the machine described above
# (its best time there is about half that), so readings there are close
# to real seconds.  Each workload names the loop that tracks it best;
# bench/README.md has the runs that chose them.
SPEED_LOOPS = {"fraction": (fraction_loop, 0.00049),
               "mixed": (mixed_loop, 0.0011)}


class NominalClock:
    """Callable clock; ``sampling()`` turns the speed sampler on.

    ``loop`` names the speed loop in ``SPEED_LOOPS``.
    """

    def __init__(self, loop):
        self.loop, self.nominal = SPEED_LOOPS[loop]
        self.recent = deque(maxlen=WINDOW)
        # (real base, nominal base, nominal seconds per real second),
        # replaced as one object so that a read sees one sample's values
        self.state = (time.perf_counter(), 0.0, 1.0)
        self.sampling_now = False
        self.samples = 0
        self.factor_sum = 0.0

    def __call__(self):
        # The handler can run between any two bytecodes.  If it ran between
        # reading the state and the time, read again; if it runs later,
        # the time read precedes the sample and the old state still holds.
        while True:
            state = self.state
            real = time.perf_counter()
            if self.state is state:
                base_real, base_nominal, factor = state
                return base_nominal + (real - base_real) * factor

    def _sample(self, signum, frame):
        if self.sampling_now:   # a signal that arrived during a slow sample
            return
        self.sampling_now = True
        t0 = time.perf_counter()
        base_real, base_nominal, factor = self.state
        now = base_nominal + (t0 - base_real) * factor
        # with the collector off, the program's pending collections run in
        # the program's time, not in the excluded handler time
        enabled = gc.isenabled()
        gc.disable()
        self.loop()
        if enabled:
            gc.enable()
        t1 = time.perf_counter()
        self.recent.append(t1 - t0)
        factor = self.nominal * len(self.recent) / sum(self.recent)
        self.samples += 1
        self.factor_sum += factor
        self.state = (t1, now, factor)
        self.sampling_now = False

    def mean_factor(self):
        """Average nominal-per-real ratio over all samples so far."""
        return self.factor_sum / self.samples if self.samples else 1.0

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
