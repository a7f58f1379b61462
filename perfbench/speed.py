"""Reference speed: scaling timed spans to an uncontended machine.

The VM this benchmark was built on shares its host.  For seconds to
minutes at a time the same pure-Python code runs up to 1.8x slower, and
raw times of identical runs spread by 30% or more.  A sampler thread
therefore times a small fixed kernel every SAMPLE_EVERY_S, by its own
thread CPU time (so waiting for the interpreter lock does not count), on
the same CPU as the ops.  A span's scale is REFERENCE_S over the mean
kernel time of the samples taken during it, widened around its middle to
at least WINDOW_S.  A change to permpat cannot move the kernel, so scaled
times move only with the program.
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading
import time

REFERENCE_S = 0.00013  # kernel thread-CPU time at the uncontended speed of that VM
SAMPLE_EVERY_S = 0.02
WINDOW_S = 0.5  # shortest window whose samples scale a span


def reference_kernel() -> int:
    """Fixed work of the kind permpat does: tuples, dicts, sorting."""
    acc = 0
    for p in itertools.permutations(range(5)):
        pos = {v: i for i, v in enumerate(p)}
        acc += pos[3] + sorted(p[:4])[1]
    return acc


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU, so that the sampler
    sees the speed of the CPU that runs the ops."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedSampler:
    """Samples (time, kernel seconds) on a daemon thread while open."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            c0 = time.thread_time()
            reference_kernel()
            c1 = time.thread_time()
            self.times.append(time.perf_counter())
            self.kernel_s.append(c1 - c0)
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time sampled in [start, end],
        widened around its middle to at least WINDOW_S; the nearest sample
        if none falls inside.  Call it once the sampler has run WINDOW_S / 2
        past ``end``."""
        if end - start < WINDOW_S:
            mid = (start + end) / 2
            start, end = mid - WINDOW_S / 2, mid + WINDOW_S / 2
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if lo == hi:
            lo = max(0, hi - 1)
            hi = lo + 1
        window = self.kernel_s[lo:hi]
        return REFERENCE_S * len(window) / sum(window)
