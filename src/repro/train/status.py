"""Run-directory progress reading and rendering — stdlib only.

``repro train status`` answers "how is my run doing" from the run
directory's JSON artifacts alone: ``spec.json``, ``status.json``, and
the tails of ``losses.jsonl``, ``evals.jsonl`` and ``trace.jsonl``.
Nothing here (or on this module's import path) touches numpy or the
model stack, so polling a long run from a shell is instant and works on
hosts without the scientific stack installed — the ``repro.train``
package only loads its heavy modules lazily.
"""

from __future__ import annotations

import json
from pathlib import Path

# The trace artifact name is owned by repro.obs (also stdlib-only);
# importing it keeps the single definition without pulling in numpy.
from repro.obs.render import TRACE_NAME

SPEC_NAME = "spec.json"
STATUS_NAME = "status.json"
LOSSES_NAME = "losses.jsonl"
EVALS_NAME = "evals.jsonl"


def _tail_records(path: Path, wants: dict) -> dict:
    """Last line matching each predicate in ``wants``, one backwards scan.

    The file is read once and scanned from the end, stopping as soon as
    every predicate has matched — a mid-epoch status poll of a long run
    parses only the lines since the last epoch fold, not the whole log.
    """
    found = {name: None for name in wants}
    if not path.exists():
        return found
    remaining = set(wants)
    for line in reversed(path.read_text().splitlines()):
        if not remaining:
            break
        if not line:
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError:
            # A live run may be mid-append on its final line; a status
            # poll skips it rather than crashing.
            continue
        for name in list(remaining):
            if wants[name](document):
                found[name] = document
                remaining.discard(name)
    return found


def read_run_status(run_dir: str | Path) -> dict:
    """Everything knowable about a run from its JSON artifacts.

    Raises ``FileNotFoundError`` when ``run_dir`` has no ``spec.json``
    (it is not a run directory).
    """
    run_dir = Path(run_dir)
    spec_path = run_dir / SPEC_NAME
    if not spec_path.exists():
        raise FileNotFoundError(
            f"{run_dir} is not a run directory (no {SPEC_NAME})")
    spec = json.loads(spec_path.read_text())
    status_path = run_dir / STATUS_NAME
    status = (json.loads(status_path.read_text())
              if status_path.exists() else {})
    losses = _tail_records(run_dir / LOSSES_NAME, {
        "step": lambda doc: "event" not in doc,
        "epoch": lambda doc: doc.get("event") == "epoch",
    })
    evals = _tail_records(run_dir / EVALS_NAME,
                          {"eval": lambda doc: True})
    last_step, last_epoch = losses["step"], losses["epoch"]
    last_eval = evals["eval"]
    return {
        "timing": _read_timing(run_dir),
        "run_dir": str(run_dir),
        "name": spec.get("name"),
        "spec": spec,
        "state": status.get("state", "not started"),
        "phases": status.get("phases"),
        "phase": status.get("phase"),
        "epoch": status.get("epoch"),
        "global_step": status.get("global_step", 0),
        "elapsed_seconds": status.get("elapsed_seconds"),
        "best": status.get("best"),
        "last_step": last_step,
        "last_epoch": last_epoch,
        "last_eval": last_eval,
    }


def _read_timing(run_dir: Path) -> dict | None:
    """The latest throughput numbers from the run's ``trace.jsonl``.

    Same backwards-scan discipline as the loss tails: the newest
    ``train.epoch`` span gives steps/sec and mean step ms (its steps over
    its wall time), the newest ``train.step`` / ``train.eval`` spans the
    most recent raw durations.  Returns ``None`` when the run has no
    trace (a disabled tracer, or an older run directory).
    """
    spans = _tail_records(run_dir / TRACE_NAME, {
        "epoch": lambda doc: doc.get("name") == "train.epoch",
        "step": lambda doc: doc.get("name") == "train.step",
        "eval": lambda doc: doc.get("name") == "train.eval",
    })
    ms = {kind: span.get("dur_us", 0) / 1000.0
          for kind, span in spans.items() if span is not None}
    if not ms:
        return None
    timing = {"last_step_ms": ms.get("step"), "eval_ms": ms.get("eval")}
    if "epoch" in ms:
        steps = spans["epoch"].get("args", {}).get("steps") or 0
        timing["steps_per_sec"] = (steps / ms["epoch"] * 1e3
                                   if ms["epoch"] > 0 else None)
        timing["mean_step_ms"] = ms["epoch"] / steps if steps else None
    return timing


def _format_losses(record: dict | None) -> str:
    if record is None:
        return "-"
    return (f"G={record['g_total']:.4f} "
            f"(gan {record['g_gan']:.4f}, l1 {record['g_l1']:.4f}) "
            f"D={record['d_total']:.4f}")


def format_run_status(info: dict) -> str:
    """A terminal-friendly multi-line summary of :func:`read_run_status`."""
    lines = [f"run {info['name']} [{info['state']}]  ({info['run_dir']})"]
    phases = info.get("phases") or []
    budget = ", ".join(f"{p['name']}:{p['epochs']}" for p in phases)
    position = (f"phase {info['phase']}, epoch {info['epoch']}"
                if info.get("phase") is not None else "not started")
    lines.append(f"  progress    {position}  "
                 f"(step {info['global_step']}"
                 + (f", epochs {budget}" if budget else "") + ")")
    if info.get("elapsed_seconds") is not None:
        lines.append(f"  elapsed     {info['elapsed_seconds']:.1f}s")
    timing = info.get("timing")
    if timing:
        parts = []
        if timing.get("steps_per_sec") is not None:
            parts.append(f"{timing['steps_per_sec']:.2f} steps/s")
        if timing.get("mean_step_ms") is not None:
            parts.append(f"mean step {timing['mean_step_ms']:.1f} ms")
        elif timing.get("last_step_ms") is not None:
            parts.append(f"last step {timing['last_step_ms']:.1f} ms")
        if timing.get("eval_ms") is not None:
            parts.append(f"eval {timing['eval_ms']:.0f} ms")
        if parts:
            lines.append("  timing      " + ", ".join(parts))
    last_epoch = info.get("last_epoch")
    if last_epoch is not None:
        lines.append(f"  last epoch  {last_epoch['phase']} "
                     f"#{last_epoch['epoch']}: "
                     f"{_format_losses(last_epoch)} "
                     f"[{last_epoch['samples']} samples]")
    last_step = info.get("last_step")
    if last_step is not None:
        lines.append(f"  last step   {last_step['phase']} "
                     f"e{last_step['epoch']} s{last_step['step']}: "
                     f"{_format_losses(last_step)}")
    best = info.get("best")
    if best and best.get("value") is not None:
        lines.append(f"  best        {best['metric']}={best['value']:.6f} "
                     f"at epoch {best['epoch']}")
    last_eval = info.get("last_eval")
    if last_eval is not None:
        shown = sorted(last_eval["metrics"])[:4]
        rendered = ", ".join(f"{name}={last_eval['metrics'][name]:.4f}"
                             for name in shown)
        lines.append(f"  last eval   epoch {last_eval['epoch']}: {rendered}")
    return "\n".join(lines)


def iter_run_dirs(root: str | Path):
    """Run directories directly under ``root`` (those with a spec.json)."""
    root = Path(root)
    if (root / SPEC_NAME).exists():
        yield root
        return
    if not root.is_dir():
        return
    for child in sorted(root.iterdir()):
        if (child / SPEC_NAME).exists():
            yield child
