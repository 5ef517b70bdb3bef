"""The performance gate: this checkout against a base revision, same host.

    python3 benchmarks/perf_gate.py <base-rev>

checks the base revision out into a temporary git worktree and runs the
end-to-end benchmark (``perfbench/run.py --workload all``) on it and on
this checkout, alternating which side goes first, once per seed.  Each
side runs its own ``perfbench/``; the records land in
``.perfbench_out/gate/{base,head}/`` and this checkout's
``perfbench/report.py`` compares the two sets against the bounds in
``BENCHMARK.json``.  The run length is that file's ``run_seconds``.

perfbench has no eval workload, so the batch-16 forecast (the unit of
``repro eval run``) is gated here: ``workloads.measure_eval_batch`` at
smoke scale, run alternately against each side's ``src/``.

Exits 1 when a benchmark run fails, a head run counts a failed
operation, the report fails or finds a regression, a workload has no
usable run on one side, or the head's batch-16 forecast is slower than
the base's by more than ``EVAL_BOUND``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from common import BLAS_ENV  # noqa: E402

GATE_DIR = ROOT / ".perfbench_out" / "gate"

#: One run per seed; seed 1 runs the base first, seed 2 the head first.
SEEDS = (1, 2)
#: Batch-16 forecast measurements per side, alternating.
EVAL_ROUNDS = 3
#: Highest tolerated head/base ratio of median batch-16 forecast times.
EVAL_BOUND = 1.5

#: Prints ``measure_eval_batch``'s row for the ``repro`` on PYTHONPATH.
EVAL_PROGRAM = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.config import get_scale
from workloads import measure_eval_batch
print(json.dumps(measure_eval_batch(get_scale("smoke"))))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def run_perfbench(side: str, checkout: Path, seed: int,
                  seconds: float) -> bool:
    print(f"== perfbench {side}, seed {seed} ==", flush=True)
    out = GATE_DIR / side / f"s{seed}.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)],
        cwd=checkout)
    return proc.returncode == 0


def measure_eval(checkout: Path) -> float:
    """Seconds per batch-16 forecast of ``checkout``'s program."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               **{var: "1" for var in BLAS_ENV})
    proc = subprocess.run(
        [sys.executable, "-c", EVAL_PROGRAM, str(ROOT / "benchmarks")],
        cwd=checkout, env=env, check=True, text=True,
        stdout=subprocess.PIPE)
    return json.loads(proc.stdout.splitlines()[-1])["wall_time_s"]


def records(side: str) -> list[dict]:
    return [json.loads(path.read_text())
            for path in sorted((GATE_DIR / side).glob("*.json"))]


def check_records(workloads: list[str]) -> list[str]:
    """Failed head operations, and workloads one side never measured."""
    problems = []
    for record in records("head"):
        if record["result"]["failed"] > 0:
            problems.append(f"head {record['workload']} seed "
                            f"{record['seed']}: {record['result']['failed']} "
                            f"failed operation(s)")
    for side in ("base", "head"):
        usable = {record["workload"] for record in records(side)
                  if not record.get("invalid")
                  and record["result"]["correct"]}
        problems += [f"{side} {workload}: no usable run, nothing compared"
                     for workload in workloads if workload not in usable]
    return problems


def gate(base: Path) -> list[str]:
    """Run both sides; return every reason the head fails the gate."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    sides = {"base": base, "head": ROOT}
    problems = []
    for seed in SEEDS:
        order = ("base", "head") if seed % 2 else ("head", "base")
        for side in order:
            if not run_perfbench(side, sides[side], seed, seconds):
                problems.append(f"perfbench {side} seed {seed} failed")
    if problems:
        return problems

    problems += check_records([w["name"] for w in benchmark["workloads"]])
    print("== report: base vs head ==", flush=True)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "report.py"),
         str(GATE_DIR / "base"), str(GATE_DIR / "head")],
        text=True, capture_output=True)
    print(proc.stdout + proc.stderr, end="", flush=True)
    if proc.returncode != 0:
        problems.append(f"report.py exited {proc.returncode}")
    problems += [f"report: {line.split()[0]} REGRESSION"
                 for line in proc.stdout.splitlines() if "REGRESSION" in line]

    print(f"== eval_batch16 (smoke), {EVAL_ROUNDS} rounds per side ==",
          flush=True)
    times = {"base": [], "head": []}
    for round_ in range(EVAL_ROUNDS):
        order = ("base", "head") if round_ % 2 == 0 else ("head", "base")
        for side in order:
            times[side].append(measure_eval(sides[side]))
    base_s, head_s = (statistics.median(times[side])
                      for side in ("base", "head"))
    ratio = head_s / base_s
    verdict = "REGRESSION" if ratio > EVAL_BOUND else "within bound"
    print(f"eval_batch16 median base {base_s * 1e3:.3f} ms head "
          f"{head_s * 1e3:.3f} ms ({ratio:.2f}x, bound {EVAL_BOUND}x) "
          f"{verdict}")
    if ratio > EVAL_BOUND:
        problems.append(f"eval_batch16: head {ratio:.2f}x the base, "
                        f"bound {EVAL_BOUND}x")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    args = parser.parse_args(argv)
    try:
        sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"not a revision: {args.base}")
    shutil.rmtree(GATE_DIR, ignore_errors=True)
    GATE_DIR.mkdir(parents=True)
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch:
        base = Path(scratch) / "base"
        git("worktree", "add", "--detach", str(base), sha)
        try:
            print(f"perf gate: base {sha} vs head {ROOT}", flush=True)
            problems = gate(base)
        finally:
            git("worktree", "remove", "--force", str(base))
    for problem in problems:
        print(f"FAIL {problem}")
    print("perf gate:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
