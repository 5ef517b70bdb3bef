"""Span tracing on monotonic clocks, with Chrome ``trace_event`` export.

A :class:`Tracer` writes one JSON line per finished span to a sink
(usually a ``trace.jsonl`` inside a run directory).  Spans nest — each
records its depth from a thread-local stack — and are exception-safe:
a span that exits via ``raise`` still closes, tagged with the exception
type, and never swallows it.

The cost model is the whole point.  A tracer with no sink is *disabled*:
``span()`` returns one shared no-op object (identity fast path — the
same singleton every call, zero allocation), and ``complete()`` /
``instant()`` return before touching a clock.  Timing comes from
``time.perf_counter_ns`` so spans are immune to wall-clock steps;
``ts_us`` is microseconds from the tracer's own epoch, which makes the
numbers small, stable, and directly usable as Chrome ``ts`` values.

:func:`write_chrome_trace` converts a span JSONL file into the Chrome
``trace_event`` JSON object format (``{"traceEvents": [...]}``), which
``about://tracing`` and Perfetto load directly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.obs.render import read_jsonl


class _NullSpan:
    """The shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **args) -> None:
        """Accept and drop annotations, mirroring :class:`_Span.set`."""


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "name", "args", "_start_ns", "depth")

    def __init__(self, tracer: "Tracer", name: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start_ns = 0
        self.depth = 0

    def set(self, **args) -> None:
        """Attach extra key/values to the span record."""
        self.args.update(args)

    def __enter__(self):
        stack = self._tracer._stack
        self.depth = len(stack.spans)
        stack.spans.append(self)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end_ns = time.perf_counter_ns()
        stack = self._tracer._stack
        if stack.spans and stack.spans[-1] is self:
            stack.spans.pop()
        elif self in stack.spans:  # tolerate out-of-order exits
            stack.spans.remove(self)
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer._emit(self.name, self._start_ns, end_ns - self._start_ns,
                           self.depth, self.args)
        return False


class _ThreadStack(threading.local):
    def __init__(self):
        self.spans: list = []


class Tracer:
    """Emit nestable spans as JSONL; a ``sink=None`` tracer does nothing.

    ``sink`` may be a path (opened append, line-buffered-by-flush) or any
    object with ``write(str)``; pass ``flush_every`` > 1 to batch flushes
    on hot paths.
    """

    def __init__(self, sink=None, *, flush_every: int = 1):
        self._lock = threading.Lock()
        self._stack = _ThreadStack()
        self._flush_every = max(1, int(flush_every))
        self._pending = 0
        self._owns_sink = False
        if sink is None:
            self._sink = None
        elif isinstance(sink, (str, Path)):
            path = Path(sink)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(path, "a", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = sink
        self._epoch_ns = time.perf_counter_ns()
        self._pid = os.getpid()

    @property
    def enabled(self) -> bool:
        return self._sink is not None

    def span(self, name: str, **args):
        """A context manager timing ``name``; shared no-op when disabled."""
        if self._sink is None:
            return _NULL_SPAN
        return _Span(self, name, args)

    def complete(self, name: str, start_ns: int, dur_ns: int, **args) -> None:
        """Record an externally-timed span (e.g. queue wait measured by
        timestamps captured on two different threads)."""
        if self._sink is None:
            return
        self._emit(name, start_ns, dur_ns, len(self._stack.spans), args)

    def instant(self, name: str, **args) -> None:
        """A zero-duration marker (cache hit, checkpoint written, ...)."""
        if self._sink is None:
            return
        now = time.perf_counter_ns()
        self._emit(name, now, 0, len(self._stack.spans), args)

    def _emit(self, name: str, start_ns: int, dur_ns: int,
              depth: int, args: dict) -> None:
        record = {
            "name": name,
            "ts_us": (start_ns - self._epoch_ns) // 1000,
            "dur_us": max(0, dur_ns) // 1000,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "depth": depth,
        }
        if args:
            record["args"] = args
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._sink.write(line + "\n")
            self._pending += 1
            if self._pending >= self._flush_every:
                self._flush_locked()

    def _flush_locked(self) -> None:
        flush = getattr(self._sink, "flush", None)
        if flush is not None:
            flush()
        self._pending = 0

    def flush(self) -> None:
        if self._sink is None:
            return
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        if self._sink is None:
            return
        self.flush()
        if self._owns_sink:
            self._sink.close()
        self._sink = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


_DEFAULT_LOCK = threading.Lock()
_default_tracer: Tracer | None = None


def get_tracer() -> Tracer:
    """The process-default tracer.

    Lazily initialised from ``REPRO_TRACE`` (a JSONL path) so any code
    path — the data store, the loader — can trace without plumbing a
    tracer through every constructor; with the variable unset this is a
    disabled tracer and every ``span()`` is the shared no-op.
    """
    global _default_tracer
    tracer = _default_tracer
    if tracer is None:
        with _DEFAULT_LOCK:
            tracer = _default_tracer
            if tracer is None:
                sink = os.environ.get("REPRO_TRACE") or None
                tracer = Tracer(sink)
                _default_tracer = tracer
    return tracer


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Swap the process-default tracer; returns the previous one."""
    global _default_tracer
    with _DEFAULT_LOCK:
        previous = _default_tracer
        _default_tracer = tracer
    return previous


def read_spans(path) -> list[dict]:
    """All span records from a JSONL file ([] when absent).

    Blank and partially-written lines (a tracer flushing concurrently)
    are skipped, so Chrome export of a live trace never crashes on a
    torn final line.
    """
    return read_jsonl(path)[0]


def write_chrome_trace(spans_or_path, out_path) -> int:
    """Convert span records (or a JSONL path) into Chrome trace JSON.

    Returns the number of events written.  The output loads directly in
    ``about://tracing`` / Perfetto: complete (``ph: "X"``) events with
    microsecond ``ts``/``dur``, one instant (``ph: "i"``) per
    zero-duration marker.
    """
    if isinstance(spans_or_path, (str, Path)):
        spans = read_spans(spans_or_path)
    else:
        spans = list(spans_or_path)
    events = []
    for span in spans:
        event = {
            "name": span["name"],
            "ph": "X" if span.get("dur_us", 0) > 0 else "i",
            "ts": span["ts_us"],
            "pid": span.get("pid", 0),
            "tid": span.get("tid", 0),
            "args": dict(span.get("args", {})),
        }
        if event["ph"] == "X":
            event["dur"] = span["dur_us"]
        else:
            event["s"] = "t"  # instant scope: thread
        if "depth" in span:
            event["args"]["depth"] = span["depth"]
        events.append(event)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ms"}, handle)
    return len(events)
