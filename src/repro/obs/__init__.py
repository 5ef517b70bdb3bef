"""repro.obs — unified telemetry: metrics, span tracing, profiling.

Three pillars, all stdlib-only (importing this package never pulls in
numpy, so status/obs CLI paths stay usable on bare hosts):

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms, rendered as a deterministic JSON
  snapshot or Prometheus text.  The serving engine keeps one and serves
  it at ``GET /metrics``.
* :mod:`repro.obs.trace` — :class:`Tracer` span context managers on
  monotonic clocks, emitting JSONL convertible to Chrome
  ``trace_event`` JSON (:func:`write_chrome_trace`).  Disabled tracers
  hand out one shared no-op span: zero allocation, zero branches in
  callee code.
* :mod:`repro.obs.profile` — :class:`Profiler` per-layer wall time and
  gemm counts for ``repro.nn`` models via detachable method shims;
  when detached the model runs its original, unwrapped methods.

Fleet telemetry extends the metrics pillar across processes:

* :mod:`repro.obs.publish` — workers atomically publish registry
  snapshots as ``telemetry/<role>-<worker>.json``
  (:class:`TelemetryPublisher`);
* :mod:`repro.obs.aggregate` — N snapshots merge into one logical
  registry with exact semantics (:func:`aggregate_dir`,
  :class:`FleetSnapshot`);
* :mod:`repro.obs.timeseries` — a bounded ring store over flattened
  snapshots powering rate/delta queries and ``repro obs top``
  (:mod:`repro.obs.dashboard`);
* :mod:`repro.obs.alerts` — declarative JSON threshold rules emitting
  ``alerts.jsonl`` (:class:`AlertManager`);
* :mod:`repro.obs.drift` — serve-side forecast-quality monitors
  (hotspot-score shift, input novelty, sampled NRMS).  Drift needs
  numpy and is deliberately **not** imported here.

The guarantee carried by the whole package: instrumentation observes,
it never perturbs — instrumented and uninstrumented runs produce
byte-identical artifacts (checked by ``tests/test_obs_integration.py``).
"""

from repro.obs.aggregate import (
    FleetSnapshot,
    aggregate_dir,
    aggregate_snapshots,
    merge_exports,
    registry_from_export,
)
from repro.obs.alerts import (
    ALERTS_NAME,
    AlertManager,
    AlertRule,
    load_rules,
    read_alert_log,
)

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import Profiler
from repro.obs.publish import (
    TELEMETRY_DIR,
    TelemetryPublisher,
    discover_snapshots,
    read_snapshot,
    write_snapshot,
)
from repro.obs.render import (
    TRACE_NAME,
    format_span_summary,
    summarize_spans,
)
from repro.obs.timeseries import TimeSeriesStore, flatten_export
from repro.obs.trace import (
    Tracer,
    get_tracer,
    read_spans,
    set_tracer,
    write_chrome_trace,
)

__all__ = [
    "ALERTS_NAME",
    "AlertManager",
    "AlertRule",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "FleetSnapshot",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "TELEMETRY_DIR",
    "TRACE_NAME",
    "TelemetryPublisher",
    "TimeSeriesStore",
    "Tracer",
    "aggregate_dir",
    "aggregate_snapshots",
    "discover_snapshots",
    "flatten_export",
    "format_span_summary",
    "get_tracer",
    "load_rules",
    "merge_exports",
    "read_alert_log",
    "read_snapshot",
    "read_spans",
    "registry_from_export",
    "set_tracer",
    "summarize_spans",
    "write_chrome_trace",
    "write_snapshot",
]
