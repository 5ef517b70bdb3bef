"""Declarative threshold alerts over flattened metric series.

Rules are plain JSON — reviewable, diffable, no code::

    [{"name": "latency-p99-high",
      "metric": "serve_request_latency_seconds.p99",
      "op": ">", "value": 0.25, "for_seconds": 10,
      "severity": "page",
      "message": "p99 latency above 250ms"}]

``metric`` names a flat series exactly as
:func:`repro.obs.timeseries.flatten_export` spells it (histogram
quantiles as ``name.p99``, labeled children as ``name{label=value}``).
Each rule runs a small state machine per evaluation tick:

    ok --condition true--> pending --held for for_seconds--> firing
    firing/pending --condition false--> ok  (emits ``resolved`` if fired)

A metric absent from the snapshot evaluates to *not breached* — no data
is not an incident (the missing-series count is reported instead).
Firing and resolving transitions are appended to ``alerts.jsonl`` (one
JSON object per line, the repo's standard sidecar idiom), mirrored into
an ``obs_alert_firing`` gauge family (so alerts themselves aggregate
across the fleet), and readable live via :meth:`AlertManager.active` —
which is what ``GET /alerts`` and ``repro obs top`` render.  Stdlib-only.
"""

from __future__ import annotations

import json
import operator
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.render import read_jsonl

#: Conventional alert event log name.
ALERTS_NAME = "alerts.jsonl"

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}

_SEVERITIES = ("info", "warning", "page")


@dataclass(frozen=True)
class AlertRule:
    """One validated threshold rule."""

    name: str
    metric: str
    op: str
    value: float
    for_seconds: float = 0.0
    severity: str = "warning"
    message: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("alert rule needs a non-empty name")
        if not self.metric:
            raise ValueError(f"rule {self.name!r} needs a metric")
        if self.op not in _OPS:
            raise ValueError(f"rule {self.name!r}: unknown op {self.op!r} "
                             f"(use one of {sorted(_OPS)})")
        if self.for_seconds < 0:
            raise ValueError(f"rule {self.name!r}: for_seconds must be >= 0")
        if self.severity not in _SEVERITIES:
            raise ValueError(f"rule {self.name!r}: severity "
                             f"{self.severity!r} not in {_SEVERITIES}")

    def breached(self, sample: float) -> bool:
        return _OPS[self.op](sample, self.value)

    def describe(self) -> str:
        return f"{self.metric} {self.op} {self.value:g}"


def parse_rule(document: dict) -> AlertRule:
    known = {f for f in AlertRule.__dataclass_fields__}
    unknown = set(document) - known
    if unknown:
        raise ValueError(f"alert rule {document.get('name', '?')!r} has "
                         f"unknown keys {sorted(unknown)}")
    try:
        return AlertRule(**{key: (float(value)
                                  if key in ("value", "for_seconds")
                                  else value)
                            for key, value in document.items()})
    except TypeError as error:
        raise ValueError(f"invalid alert rule "
                         f"{document.get('name', '?')!r}: {error}") from None


def load_rules(path: str | Path) -> list[AlertRule]:
    """Parse a rules file: a JSON list, or ``{"rules": [...]}``."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(document, dict):
        document = document.get("rules", [])
    if not isinstance(document, list):
        raise ValueError(f"{path}: expected a JSON list of rules")
    rules = [parse_rule(entry) for entry in document]
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate rule names")
    return rules


@dataclass
class _RuleState:
    pending_since: float | None = None
    firing_since: float | None = None
    last_value: float | None = None
    fired_count: int = 0


@dataclass
class AlertEvent:
    """One firing/resolved transition (what ``alerts.jsonl`` stores)."""

    rule: str
    state: str               # "firing" | "resolved"
    at_unix: float
    value: float | None
    severity: str
    condition: str
    message: str = ""
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        document = {
            "rule": self.rule,
            "state": self.state,
            "at_unix": self.at_unix,
            "value": self.value,
            "severity": self.severity,
            "condition": self.condition,
        }
        if self.message:
            document["message"] = self.message
        document.update(self.extra)
        return document


class AlertManager:
    """Evaluate rules against metric snapshots; track and log transitions.

    Parameters
    ----------
    rules:
        The validated rule set.
    log_path:
        Where to append ``alerts.jsonl`` events (``None`` disables the
        file log; transitions are still tracked in memory).
    metrics:
        Optional registry for the ``obs_alert_firing`` gauge family.
    """

    def __init__(self, rules: list[AlertRule],
                 log_path: str | Path | None = None,
                 metrics: MetricsRegistry | None = None):
        self.rules = list(rules)
        self.log_path = Path(log_path) if log_path is not None else None
        self._lock = threading.Lock()
        self._states = {rule.name: _RuleState() for rule in self.rules}
        self._events: list[AlertEvent] = []
        self._g_firing = None
        if metrics is not None:
            self._g_firing = metrics.gauge(
                "obs_alert_firing",
                "1 while the named alert rule is firing.",
                labelnames=("rule",), agg="max")
            for rule in self.rules:
                self._g_firing.labels(rule=rule.name).set(0.0)

    def evaluate(self, flat: dict, now: float | None = None
                 ) -> list[AlertEvent]:
        """Run every rule against one flattened snapshot.

        Returns the transitions (newly firing / newly resolved) this
        tick produced, already appended to the event log.
        """
        now = time.time() if now is None else now
        transitions: list[AlertEvent] = []
        with self._lock:
            for rule in self.rules:
                state = self._states[rule.name]
                sample = flat.get(rule.metric)
                state.last_value = sample
                breached = sample is not None and rule.breached(sample)
                if breached:
                    if state.pending_since is None:
                        state.pending_since = now
                    held = now - state.pending_since
                    if state.firing_since is None \
                            and held >= rule.for_seconds:
                        state.firing_since = now
                        state.fired_count += 1
                        transitions.append(self._transition(
                            rule, "firing", now, sample))
                else:
                    if state.firing_since is not None:
                        transitions.append(self._transition(
                            rule, "resolved", now, sample))
                    state.pending_since = None
                    state.firing_since = None
                if self._g_firing is not None:
                    self._g_firing.labels(rule=rule.name).set(
                        1.0 if state.firing_since is not None else 0.0)
            self._events.extend(transitions)
        if transitions and self.log_path is not None:
            self._append(transitions)
        return transitions

    def _transition(self, rule: AlertRule, state: str, now: float,
                    sample: float | None) -> AlertEvent:
        return AlertEvent(rule=rule.name, state=state, at_unix=now,
                          value=sample, severity=rule.severity,
                          condition=rule.describe(), message=rule.message)

    def _append(self, events: list[AlertEvent]) -> None:
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with self.log_path.open("a", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event.to_json(),
                                        sort_keys=True) + "\n")

    # -- reporting ----------------------------------------------------------

    def active(self) -> list[dict]:
        """Currently-firing alerts (the ``GET /alerts`` payload)."""
        with self._lock:
            report = []
            for rule in self.rules:
                state = self._states[rule.name]
                if state.firing_since is None:
                    continue
                report.append({
                    "rule": rule.name,
                    "severity": rule.severity,
                    "condition": rule.describe(),
                    "message": rule.message,
                    "since_unix": state.firing_since,
                    "value": state.last_value,
                })
            return report

    def status(self) -> dict:
        """Full rule status (every rule, firing or not)."""
        with self._lock:
            return {
                rule.name: {
                    "condition": rule.describe(),
                    "severity": rule.severity,
                    "for_seconds": rule.for_seconds,
                    "firing": self._states[rule.name].firing_since
                    is not None,
                    "pending": (
                        self._states[rule.name].pending_since is not None
                        and self._states[rule.name].firing_since is None),
                    "last_value": self._states[rule.name].last_value,
                    "fired_count": self._states[rule.name].fired_count,
                }
                for rule in self.rules
            }

    def events(self) -> list[AlertEvent]:
        with self._lock:
            return list(self._events)


def read_alert_log(path: str | Path) -> tuple[list[dict], int]:
    """Read ``alerts.jsonl``; returns ``(events, skipped_lines)``.

    Partially-written final lines (a writer mid-append) are skipped and
    counted, never raised.
    """
    return read_jsonl(path)
