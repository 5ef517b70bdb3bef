"""Shared pieces of the benchmark: run context, timelines, spans, stats.

Nothing here imports numpy or ``repro`` at module level: ``run.py`` pins
the BLAS pool through the environment before either is loaded.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The experiment scale every workload runs at (64 px images).
SCALE = "default"

#: Design every workload places, routes or renders.
DESIGN = "ode"

#: Environment variables that size the BLAS thread pool; ``run.py`` sets
#: each to 1 in its own process and in every process it launches.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Highest tolerated ``unattributed_share`` in the traced run.
CLOSURE_TOLERANCE = 0.05

#: Closed-loop throughput is the median of per-window rates over windows
#: of this many seconds.
THROUGHPUT_WINDOW_S = 2.0

#: ``latency_ms_tail`` is this percentile; every workload records enough
#: samples that at least ten lie beyond it (checked per run).
TAIL_PERCENTILE = 90

#: Per-layer metrics printed by the traced run, with their units.  Every
#: workload reports every name; a layer a workload never calls reads 0.
LAYER_METRICS = {
    "viz.render_ms": "ms",
    "viz.render_routing_ms": "ms",
    "serve.engine.wait_ms": "ms",
    "serve.engine.batch_occupancy": "count",
    "serve.engine.queue_wait_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.http.overhead_ms": "ms",
    "serve.http.failed": "count",
    "nn.forward_ms": "ms",
    "nn.gemms_per_forward": "count",
    "nn.workspace_peak_bytes": "bytes",
    "nn.train_step_ms": "ms",
    "nn.gemms_per_step": "count",
    **{f"nn.layer.{leaf}.{pass_}_ms": "ms"
       for leaf in ("D.net.layers.0", "D.net.layers.8", "D.net.layers.11",
                    "G.enc_blocks.0.layers.0", "G.dec_blocks.5.layers.1")
       for pass_ in ("forward", "backward")},
    "fpga.router.init_ms": "ms",
    "fpga.router.route_ms": "ms",
    "fpga.router.iterations": "count",
    "fpga.router.converged_ratio": "ratio",
    "data.loader.batch_ms": "ms",
    "data.store.shard_load_ms": "ms",
    "loadgen.late_ms_tail": "ms",
    "host.calibration_ms": "ms",
    "host.calibration_cv": "ratio",
    "unattributed_share": "ratio",
    "trace_overhead_ratio": "ratio",
}

#: End-to-end metrics of every workload (see README.md for what each
#: means per workload).
E2E_METRICS = {
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
}


@dataclass
class RunContext:
    """What a workload needs from the command line."""

    seed: int
    seconds: float
    trace: bool
    root: Path          # checkout root (holds src/)
    work_dir: Path      # temporary files, inside the checkout


@dataclass
class Outcome:
    """A workload's counts, metrics and printed extras."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    invalid: list = field(default_factory=list)   # validity problems

    def fail(self, reason: str) -> None:
        self.failed += 1
        reasons = self.info.setdefault("failures", {})
        reasons[reason] = reasons.get(reason, 0) + 1


# -- statistics ---------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values) -> float:
    """The ``TAIL_PERCENTILE`` value, refusing samples too small for it."""
    beyond = len(values) * (100 - TAIL_PERCENTILE) / 100.0
    if beyond < 10:
        raise ValueError(f"{len(values)} samples leave fewer than 10 beyond "
                         f"p{TAIL_PERCENTILE}; run longer")
    return percentile(values, TAIL_PERCENTILE)


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


# -- timing ---------------------------------------------------------------------

class Timeline:
    """Timed operations of one phase, normalized by the local calibration.

    ``add(t0, t1, items, latencies)`` records one operation spanning
    ``[t0, t1]`` (perf_counter seconds) that completed ``items`` units of
    work; ``latencies`` are the per-item latencies in seconds (default:
    the whole interval).
    """

    def __init__(self, calibrator):
        self.cal = calibrator
        self.ops: list[tuple[float, float, int, tuple]] = []
        self.marks: dict[str, list[tuple[float, float]]] = {}

    def add(self, t0: float, t1: float, items: int = 1,
            latencies: tuple | None = None) -> None:
        self.ops.append((t0, t1, items,
                         latencies if latencies is not None else (t1 - t0,)))

    def mark(self, name: str, t0: float, t1: float) -> None:
        """A named sub-interval of an operation (e.g. its route path)."""
        self.marks.setdefault(name, []).append((t0, t1))

    def marks_ms(self, name: str) -> list[float]:
        return [1e3 * (t1 - t0) * self.cal.factor(t0, t1)
                for t0, t1 in self.marks.get(name, ())]

    def __len__(self) -> int:
        return len(self.ops)

    def latencies_ms(self, normalized: bool = True) -> list[float]:
        out = []
        for t0, t1, _, lats in self.ops:
            scale = self.cal.factor(t0, t1) if normalized else 1.0
            out.extend(1e3 * lat * scale for lat in lats)
        return out

    def busy_seconds(self, normalized: bool = True) -> float:
        return sum((t1 - t0) * (self.cal.factor(t0, t1) if normalized
                                else 1.0)
                   for t0, t1, _, _ in self.ops)

    def throughput(self, normalized: bool = True) -> float:
        """Items per second of busy (timed) time: the median over
        ``THROUGHPUT_WINDOW_S`` windows of each window's mean rate, so one
        window the calibration tracked badly cannot move it."""
        windows: dict[int, list] = {}
        origin = self.ops[0][0]
        for t0, t1, items, _ in self.ops:
            scale = self.cal.factor(t0, t1) if normalized else 1.0
            window = windows.setdefault(
                int((t0 - origin) // THROUGHPUT_WINDOW_S), [0, 0.0])
            window[0] += items
            window[1] += (t1 - t0) * scale
        return statistics.median(items / busy
                                 for items, busy in windows.values())

    def mean_op_ms(self) -> float:
        return 1e3 * self.busy_seconds() / len(self.ops)


def closed_loop_metrics(timeline: Timeline, outcome: Outcome) -> None:
    """latency p50/tail and throughput of a closed loop, plus raw values."""
    lats = timeline.latencies_ms()
    outcome.e2e["latency_ms_p50"] = percentile(lats, 50)
    outcome.e2e["latency_ms_tail"] = tail(lats)
    outcome.e2e["throughput_per_s"] = timeline.throughput()
    raw = timeline.latencies_ms(normalized=False)
    outcome.info["raw"] = {
        "latency_ms_p50": percentile(raw, 50),
        "latency_ms_tail": percentile(raw, TAIL_PERCENTILE),
        "throughput_per_s": timeline.throughput(normalized=False),
        "samples": len(lats),
    }


def timed_setup(calibrator, build, repeats: int, keep=None):
    """Run ``build()`` ``repeats`` times, timing each between calibrations.

    Returns ``(median normalized seconds, raw seconds list, last result)``.
    ``keep(result)`` is called on every result but the last (to close it).
    """
    normalized, raw, result = [], [], None
    for index in range(repeats):
        calibrator.sample(10)
        t0 = time.perf_counter()
        result = build()
        t1 = time.perf_counter()
        calibrator.sample(10)
        raw.append(t1 - t0)
        normalized.append((t1 - t0) * calibrator.factor(t0, t1))
        if index < repeats - 1 and keep is not None:
            keep(result)
    return statistics.median(normalized), raw, result


# -- spans ----------------------------------------------------------------------

class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("spans", "name", "start")

    def __init__(self, spans: "Spans", name: str):
        self.spans = spans
        self.name = name

    def __enter__(self):
        spans = self.spans
        with spans._lock:   # reserve the slot: parents precede children
            spans._stack().append(len(spans.records))
            spans.records.append(None)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        stack = self.spans._stack()
        index = stack.pop()
        parent = stack[-1] if stack else -1
        self.spans.records[index] = (self.name, self.start, end, parent,
                                     threading.get_ident())
        return False


class Spans:
    """In-memory spans recorded around the benchmark's calls into layers.

    Disabled spans cost one attribute test; enabled ones keep
    ``(name, start_ns, end_ns, parent index, thread id)`` records in memory
    until :meth:`write` dumps them at exit.  Spans nest per thread.
    """

    def __init__(self):
        self.enabled = False
        self.records: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span timed elsewhere (e.g. on another thread), as a root."""
        if self.enabled:
            with self._lock:
                self.records.append((name, start_ns, end_ns, -1,
                                     threading.get_ident()))

    def finished(self) -> list:
        return [record for record in self.records if record is not None]

    def summary(self) -> dict:
        """name -> {"count", "total_ms", "self_ms"} over finished spans."""
        child_ns: dict[int, int] = {}
        for record in self.records:
            if record is not None and record[3] >= 0:
                child_ns[record[3]] = (child_ns.get(record[3], 0)
                                       + record[2] - record[1])
        out: dict[str, dict] = {}
        for index, record in enumerate(self.records):
            if record is None:
                continue
            name, start, end, _, _ = record
            entry = out.setdefault(name, {"count": 0, "total_ms": 0.0,
                                          "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns.get(index, 0)) / 1e6
        return out

    def root_ms(self, thread_id: int) -> float:
        """Total duration of root spans recorded on ``thread_id``."""
        return sum((end - start) / 1e6
                   for _, start, end, parent, tid in self.finished()
                   if parent < 0 and tid == thread_id)

    def mean_ms(self, name: str) -> float:
        entry = self.summary().get(name)
        return entry["total_ms"] / entry["count"] if entry else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [{"name": name, "start_ns": start, "dur_ns": end - start,
                  "parent": parent, "tid": tid}
                 for name, start, end, parent, tid in self.finished()]
        path.write_text(json.dumps({"spans": spans,
                                    "summary": self.summary()}))


# -- host record ------------------------------------------------------------------

def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_record(calibrator) -> dict:
    """What must match before two runs may be compared."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "usable_cores": usable_cores(),
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_set_by": "perfbench/run.py sets "
                               + ", ".join(f"{v}=1" for v in BLAS_ENV)
                               + " before numpy loads, in every process",
        "repro_threads": os.environ.get("REPRO_THREADS", "unset (1)"),
        "scale": SCALE,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "calibration_ms": round(calibrator.mean_ms, 4),
        "calibration_cv": round(calibrator.cv, 4),
    }


#: Host-record keys that identify the host and settings; a comparison of
#: runs whose identity differs is refused.
HOST_IDENTITY = ("usable_cores", "blas", "blas_threads", "repro_threads",
                 "scale", "python", "numpy", "machine")

