"""The host's speed, sampled while a pass runs, to correct its times.

On a virtual machine that shares its cores with other tenants, the same
pure-Python work runs up to 1.8 times slower for stretches of seconds to
minutes.  A pass's time then says as much about the neighbours as about
kacscope.  ``HostSpeed`` samples the speed during the pass: a real-time
timer interrupts the program every ``interval`` seconds, and the signal
handler times a fixed calibration loop.  The loop runs twice and only the
second run is kept, so the program's use of the caches does not reach the
sample.

If the pass takes ``work`` seconds of program time and the samples took
``c_1 .. c_k`` seconds, the pass's time at the reference speed is

    work * mean(REFERENCE_S / c_i)

because the samples are spread evenly over the pass's wall time and the
program does ``REFERENCE_S / c_i`` reference-seconds of work in each of
its seconds.  The time the handler spends sampling is not part of
``work``.  A change to kacscope moves ``work`` and leaves the samples
alone, so the corrected time moves with it.
"""

from __future__ import annotations

import signal
import statistics
import time

CALIBRATION_N = 1000
# Seconds the calibration loop takes at the reference speed: about its
# fastest on the unloaded 2-vCPU x86_64 machine with CPython 3.11 that
# the benchmark was tuned on (README.md).
REFERENCE_S = 6.0e-5


def _calibration(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples the host's speed from SIGALRM; one instance per process."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler since the last take()

    def sample(self, *_signal) -> None:
        began = time.perf_counter()
        _calibration(CALIBRATION_N)  # warms the caches the program cooled
        warm = time.perf_counter()
        _calibration(CALIBRATION_N)
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.spent += end - began

    def start(self, interval: float) -> None:
        """Sample every ``interval`` seconds of wall time from now on."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def reset(self) -> None:
        """Forget the samples so far: a new segment starts now."""
        self.samples.clear()
        self.spent = 0.0

    def take(self, elapsed: float) -> tuple[float, float]:
        """``(corrected seconds, speed)`` of a segment that took ``elapsed``
        seconds of wall time since the previous take or reset.

        ``speed`` is ``mean(REFERENCE_S / c_i)``, 1.0 at the reference
        speed.  One more sample is taken here, after the segment, so that
        every segment has one; then the next segment starts.
        """
        work = elapsed - self.spent
        self.sample()
        speed = statistics.fmean(REFERENCE_S / c for c in self.samples)
        self.reset()
        return work * speed, speed
