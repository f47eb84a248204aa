"""Host speed: a fixed calibration kernel timed between the ops.

On a shared host the speed of one core drifts by up to 2.4 times over
minutes (other tenants' load), and every op's wall time drifts with it.
The benchmark times this kernel, which runs none of the program's code,
just before an op whenever half a second of ops has passed, and scales
each op's wall time by ``REFERENCE / kernel time``.  The end-to-end times
then read as seconds on a host where the kernel takes ``REFERENCE``
seconds: the host's drift cancels, and a change to the program moves them
as it moves wall time on a host of fixed speed.  The kernel is shaped like
the program's hot paths (a heap of small Python objects and dictionaries,
as in the event kernel, and small numpy arrays, as in the solvers), so the
host slows both alike.

The kernel runs while the program is idle, between ops.  A program that
kept working in the background between ops would slow the kernel and so
read faster than it is; no workload does that today.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

import numpy as np

#: Seconds the kernel takes at the reference speed.
REFERENCE = 0.020

#: Seconds of ops between calibrations.
INTERVAL = 0.5


def kernel() -> float:
    """Fixed work: an event heap of small objects, then small numpy arrays."""
    rnd = random.Random(1)
    heap: list = []
    latest: dict = {}
    for i in range(6000):
        heapq.heappush(heap, (rnd.random(), i, [i, {"k": i}]))
        if len(heap) > 200:
            at, j, item = heapq.heappop(heap)
            latest[j % 500] = (at, item)
    base = np.arange(64, dtype=float)
    total = 0.0
    for i in range(1500):
        row = base * 1.0001 + i
        total += float(row.sum()) / (1.0 + float(np.max(row)))
    return total + len(latest)


def calibrate() -> float:
    """Seconds the kernel takes now.

    The cyclic collector is off meanwhile, so the size of the program's
    heap does not change the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Scales op times to the reference speed; call around every op."""

    def __init__(self) -> None:
        #: ``REFERENCE`` over the median kernel time of the latest three
        #: calibrations
        self.factor = 0.0
        #: every calibration's kernel time, in order
        self.kernel_seconds: list[float] = []
        self._since = INTERVAL

    def before_op(self) -> None:
        """Calibrate if half a second of ops has passed since the last time."""
        if self._since >= INTERVAL:
            self.kernel_seconds.append(calibrate())
            # The median of the last three damps the kernel's own jitter;
            # the host's drift holds for seconds to minutes.
            recent = sorted(self.kernel_seconds[-3:])
            self.factor = REFERENCE / recent[len(recent) // 2]
            self._since = 0.0

    def after_op(self, elapsed: float) -> float:
        """The op's ``elapsed`` wall seconds at the reference speed."""
        self._since += elapsed
        return elapsed * self.factor
