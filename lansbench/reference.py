"""A speed probe that measures how fast the machine runs while it is timed.

The benchmark shares its host, and the host's speed drifts: the same
numpy FFT loop, timed in one-second blocks on one pinned core, runs up to
twice as slow from one block to the next, and its fastest blocks shift by
a fifth over minutes.  A raw wall time therefore measures the host as
much as lanslab.  While a run times its commands, a background thread on
the same core wakes every INTERVAL_S seconds and runs a small fixed
kernel, timed in the thread's own CPU time (so the command's share of the
core does not count).  A command's time is then referred to the kernel's
nominal speed:

    referred = measured * NOMINAL_S / (mean kernel time during the command)

The kernel is the benchmark's own and never calls lanslab, so a change to
lanslab moves the referred time exactly as it moves the raw one.  It
formats floats in pure Python and takes an FFT round trip of a small
vector field, the two kinds of work lanslab's commands spend their time
on.  Over one command its mean time follows the command's time with a
correlation of 0.89 (solve64) to 0.97-0.99 (pipeline); kernels timed
between commands instead reached only 0.5-0.8.  It costs the command
about 2.5% of the core.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.05
FLOATS = 1024
GRID = 8
# Thread CPU seconds of one kernel call on the machine README.md describes
# when its host is in its fast state; referred times read as seconds there.
NOMINAL_S = 1.0e-3


class SpeedProbe:
    """Context manager: samples the kernel in a daemon thread while open."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.row = rng.standard_normal(FLOATS).tolist()
        self.field = rng.standard_normal((3, GRID, GRID, GRID)) + 0j
        self.samples = []  # (perf_counter at the end of a call, thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def _kernel(self) -> float:
        start = time.thread_time()
        ",".join(map(repr, self.row))
        np.fft.ifftn(np.fft.fftn(self.field, axes=(1, 2, 3)) * self.field, axes=(1, 2, 3))
        return time.thread_time() - start

    def _sample(self):
        while not self._stop.wait(INTERVAL_S):
            cpu = self._kernel()
            self.samples.append((time.perf_counter(), cpu))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time over the calls that ended between start and end
        (perf_counter values); for an interval too short to hold one, the
        call that ended nearest to it."""
        taken = list(self.samples)
        inside = [cpu for t, cpu in taken if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        return min(taken, key=lambda sample: abs(sample[0] - end))[1]
