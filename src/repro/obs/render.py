"""Stdlib-only readers/renderers for JSONL logs and span traces.

Everything ``repro obs`` and the ``repro train status`` timing block
need to turn a run directory's ``trace.jsonl`` (or an ``alerts.jsonl``)
into numbers and terminal text lives here — with zero numpy on the
import path, same contract as ``repro.train.status``.
"""

from __future__ import annotations

import json
from pathlib import Path

TRACE_NAME = "trace.jsonl"


def read_jsonl(path: str | Path) -> tuple[list[dict], int]:
    """All records from a JSONL file plus the count of skipped lines.

    A live writer may be mid-append, leaving a partially-written final
    line; readers polling such files (``repro obs tail``, trace export,
    the alert log) must not crash on it.  Unparseable lines are
    skipped and counted, never raised.  Returns ``([], 0)`` when the
    file is absent.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    records, skipped = [], 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                skipped += 1
    return records, skipped


def summarize_spans(spans: list[dict]) -> dict:
    """Per-name span aggregates (count, total/mean/max ms), sorted by
    total time descending."""
    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(
            span.get("dur_us", 0) / 1000.0)
    summary = {name: {"count": len(ms), "total_ms": sum(ms),
                      "mean_ms": sum(ms) / len(ms), "max_ms": max(ms)}
               for name, ms in durations.items()}
    return dict(sorted(summary.items(), key=lambda kv: -kv[1]["total_ms"]))


def format_span_summary(by_name: dict) -> str:
    lines = [f"{'span':<28} {'count':>7} {'total ms':>10} "
             f"{'mean ms':>9} {'max ms':>9}"]
    for name, acc in by_name.items():
        lines.append(f"{name:<28} {acc['count']:>7} {acc['total_ms']:>10.2f} "
                     f"{acc['mean_ms']:>9.3f} {acc['max_ms']:>9.3f}")
    return "\n".join(lines)


def format_span(span: dict) -> str:
    """One span record as a stable single line for ``obs tail``."""
    args = span.get("args", {})
    extras = " ".join(f"{key}={_round(args[key])}" for key in sorted(args))
    return (f"{span.get('name', '?'):<22}"
            f"{span.get('dur_us', 0) / 1000.0:>10.2f} ms"
            + (f"  [{extras}]" if extras else ""))


def _round(value):
    return round(value, 4) if isinstance(value, float) else value
