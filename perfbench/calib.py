"""Host-speed calibration: a fixed kernel timed between operations.

The host's speed drifts in phases lasting seconds (measured on a shared
2-core VM: a fixed pure-Python loop ranged 7.4-13.3 ms within 3 s, and
``train_step`` switched between ~16.5 ms and ~24 ms modes).  Every closed
loop therefore runs :func:`kernel` after each operation, outside the timed
interval, and :class:`Calibrator` scales each timing by ``REFERENCE_MS``
over the calibration around it: the units stay ms (or 1/s) at the
reference host speed.
"""

from __future__ import annotations

import bisect
import os
import queue
import statistics
import threading
import time

import numpy as np

#: Kernel time on the reference host (a fast phase of the 2-core VM the
#: benchmark was tuned on).  Only the ratio matters; changing it rescales
#: every normalized timing by a constant.
REFERENCE_MS = 0.73

#: A timing is normalized by the calibrations within this many seconds.
WINDOW_S = 0.5

_ARRAYS = None


def _arrays():
    global _ARRAYS
    if _ARRAYS is None:
        rng = np.random.default_rng(12345)
        _ARRAYS = (rng.standard_normal((64, 512)).astype(np.float32),
                   rng.standard_normal((512, 256)).astype(np.float32),
                   rng.standard_normal(1 << 16).astype(np.float32))
    return _ARRAYS


def kernel() -> float:
    """Run the fixed calibration kernel once; returns its wall ms.

    A mix shaped like the workloads: a mid-size single-thread gemm,
    elementwise passes over a 256 KiB buffer and a pure-Python loop.  Of
    the kernels tried (pure Python; adding a 2 MiB streaming pass; a
    conv-shaped im2col gemm) it tracked the host's phases best across
    the batched-forward, train-step and router workloads.
    """
    a, b, small = _arrays()
    start = time.perf_counter()
    for _ in range(2):
        product = a @ b
        np.add(small, 1.0, out=small)
        np.multiply(small, 0.5, out=small)
    acc = 0
    for i in range(1500):
        acc += (i * 7) % 13
    elapsed = (time.perf_counter() - start) * 1e3
    if acc < 0 or not np.isfinite(product[0, 0]):  # keep the work observable
        raise RuntimeError("calibration kernel misbehaved")
    return elapsed


class Calibrator:
    """Calibration samples with timestamps, and the scale they imply.

    Each sample runs the kernel on a helper thread pinned to one usable
    CPU, in rotation: on the tuning host the two vCPUs ran at different
    and separately drifting speeds, and a workload whose work runs on
    another thread (the engine's) moves between them.  Per-CPU
    calibration tracked that workload within 4% across runs, an unpinned
    one within 8%.  Pinning a helper, never the measured threads, leaves
    the workload's own CPU placement alone.

    ``factor(t0, t1)`` is the reference speed over the host's speed in the
    window around ``[t0, t1]``: the mean over CPUs of each CPU's median
    calibration within ``WINDOW_S`` of the interval (a median, so one
    preempted kernel does not skew it).  Falls back to the whole run's
    samples when the window holds too few.  Call :meth:`close` when done.
    """

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - no affinity API
            self.cpus = [None]
        self.times: list[float] = []
        self.values: list[float] = []
        self.cpu_of: list = []
        self._requests: queue.SimpleQueue = queue.SimpleQueue()
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        self._helper = threading.Thread(target=self._serve, daemon=True,
                                        name="calibration")
        self._helper.start()

    def _serve(self) -> None:
        while True:
            cpu = self._requests.get()
            if cpu is _CLOSE:
                return
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})   # this thread only
            try:
                self._results.put(kernel())
            except BaseException as error:  # re-raised on the caller
                self._results.put(error)

    def close(self) -> None:
        self._requests.put(_CLOSE)
        self._helper.join()

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            cpu = self.cpus[len(self.values) % len(self.cpus)]
            self._requests.put(cpu)
            value = self._results.get()
            if isinstance(value, BaseException):
                raise value
            self.times.append(time.perf_counter())
            self.values.append(value)
            self.cpu_of.append(cpu)

    def _speed(self, lo: int, hi: int) -> float:
        per_cpu: dict = {}
        for index in range(lo, hi):
            per_cpu.setdefault(self.cpu_of[index], []).append(
                self.values[index])
        return statistics.fmean(statistics.median(values)
                                for values in per_cpu.values())

    @property
    def mean_ms(self) -> float:
        return self._speed(0, len(self.values))

    @property
    def cv(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return statistics.pstdev(self.values) / statistics.fmean(self.values)

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < 5 * len(self.cpus):
            lo, hi = 0, len(self.values)
        return REFERENCE_MS / self._speed(lo, hi)


_CLOSE = object()
