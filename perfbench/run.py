"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload route_vs_forecast --seed 1 \
        --seconds 20 --trace 0

runs from the root of a checkout (it imports the program from ``src/``)
and prints, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in turn, each in its own process,
and prints every end-to-end metric by name.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("route_vs_forecast", "explore_batch", "serve_http", "train")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full run record (host record, "
                             "raw and normalized values) to this JSON file")
    return parser.parse_args(argv)


def pin_environment() -> None:
    """One BLAS thread per process, tracing off, the benchmark's scale.

    Set before numpy loads; children inherit the environment."""
    from common import BLAS_ENV, SCALE

    for var in BLAS_ENV:
        os.environ[var] = "1"
    os.environ["REPRO_SCALE"] = SCALE
    os.environ.pop("REPRO_TRACE", None)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    sys.path.insert(0, src)


def run_one(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing (run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    pin_environment()
    import importlib

    from calib import Calibrator
    from common import (E2E_METRICS, LAYER_METRICS, CLOSURE_TOLERANCE,
                        RunContext, Spans, host_record)

    work_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace), root=ROOT, work_dir=work_dir)
    calibrator = Calibrator()
    spans = Spans()
    module = importlib.import_module(args.workload)
    try:
        outcome = module.run(ctx, calibrator, spans)
    finally:
        calibrator.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if ctx.trace:
        spans.write(ROOT / ".perfbench_out"
                    / f"trace-{args.workload}-seed{args.seed}.json")

    host = host_record(calibrator)
    correct = outcome.failed == 0 and not outcome.invalid
    if ctx.trace:
        share = outcome.layers["unattributed_share"]
        if share > CLOSURE_TOLERANCE:
            correct = False
            print(f"CLOSURE CHECK FAILED: workload {args.workload}: "
                  f"unattributed_share {share:.3f} exceeds "
                  f"{CLOSURE_TOLERANCE}", file=sys.stderr)
        names, values = LAYER_METRICS, outcome.layers
    else:
        names, values = E2E_METRICS, outcome.e2e
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in names.items()}

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: attempted {outcome.attempted} "
          f"succeeded {outcome.attempted - outcome.failed} "
          f"failed {outcome.failed}")
    for problem in outcome.invalid:
        print(f"INVALID: {problem}")
    print("host " + json.dumps(host, sort_keys=True))
    for key, value in sorted(outcome.info.items()):
        print(f"  {key}: {json.dumps(value)}")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.4f} {metric['unit']}")
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "host": host,
            "invalid": outcome.invalid, "info": outcome.info,
            "result": result}, indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out.with_name(
                f"{args.out.stem}-{workload}{args.out.suffix}"))]
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(f"{'workload/metric':<60} {'value':>14} unit")
    for name, metric in combined["metrics"].items():
        print(f"{name:<60} {metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
