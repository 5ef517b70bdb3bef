"""Machine-readable benchmark reports: ``BENCH_<name>.json`` emission.

Every ``bench_*.py`` writes, next to its human-readable table in
``benchmarks/results/``, a JSON document of measurement entries so the
perf trajectory is diffable across PRs:

    {"bench": "eval", "scale": "smoke", "calibration_s": 0.0123,
     "entries": [{"op": "eval_batch16", "shape": [16, 4, 32, 32],
                  "wall_time_s": ..., "throughput": ...}, ...]}

``calibration_s`` times a fixed numpy workload on the host that ran the
bench, so a reader can tell a slower host from a slower program.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"


def machine_calibration(repeats: int = 5) -> float:
    """Seconds for a fixed single-thread numpy workload (best-of).

    A host that runs this 2x slower is expected to run the benches about
    2x slower too.
    """
    rng = np.random.default_rng(12345)
    a = rng.normal(size=(192, 192)).astype(np.float32)
    b = rng.normal(size=(192, 192)).astype(np.float32)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = a
        for _ in range(12):
            acc = np.maximum(acc @ b, 0.0)
            acc = acc + a
        float(acc.sum())
        best = min(best, time.perf_counter() - start)
    return best


def entry(op: str, *, shape=None, wall_time_s: float | None = None,
          throughput: float | None = None, **extra) -> dict:
    """One measurement row (op, shape, wall time, throughput + extras)."""
    row = {
        "op": op,
        "shape": list(shape) if shape is not None else None,
        "wall_time_s": wall_time_s,
        "throughput": throughput,
    }
    row.update(extra)
    return row


def benchmark_entry(op: str, benchmark, *, shape=None,
                    items_per_round: float = 1.0, **extra) -> dict:
    """Build an entry from a pytest-benchmark fixture's recorded stats."""
    mean = None
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        inner = getattr(stats, "stats", stats)
        mean = float(getattr(inner, "mean"))
    throughput = items_per_round / mean if mean else None
    return entry(op, shape=shape, wall_time_s=mean, throughput=throughput,
                 **extra)


def write_bench_json(name: str, entries: list[dict], scale_name: str,
                     calibration_s: float | None = None) -> Path:
    """Write ``results/BENCH_<name>.json`` with the host's calibration."""
    if calibration_s is None:
        calibration_s = machine_calibration()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    document = {
        "bench": name,
        "scale": scale_name,
        "calibration_s": calibration_s,
        "entries": entries,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path
