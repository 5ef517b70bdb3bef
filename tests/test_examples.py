"""End-to-end example-script tests (smoke scale, real subprocesses).

Each example must run to completion from a clean interpreter, print its
report, and leave its artifacts on disk — the contract a downstream user
experiences first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str, tmp_home: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_SCALE="smoke")
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=EXAMPLES_DIR.parent)


@pytest.fixture(scope="module")
def out_dir():
    return EXAMPLES_DIR / "out"


class TestExamples:
    def test_quickstart(self, tmp_path, out_dir):
        result = run_example("quickstart.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "speedup" in result.stdout
        assert (out_dir / "quickstart" / "test0_forecast.png").exists()

    def test_paper_figures(self, tmp_path, out_dir):
        result = run_example("paper_figures.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "channel width factor" in result.stdout
        for panel in ("fig2a_img_floor", "fig2b_img_place",
                      "fig2d_img_route", "fig2e_route_minus_place",
                      "fig4a_img_connect", "fig4b_img_connect"):
            assert (out_dir / "figures" / f"{panel}.png").exists(), panel

    def test_placement_exploration(self, tmp_path, out_dir):
        result = run_example("placement_exploration.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "rank correlation" in result.stdout
        assert (out_dir / "exploration" / "overall-min_forecast.png").exists()

    def test_live_forecast(self, tmp_path, out_dir):
        result = run_example("live_forecast.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "predicted congestion" in result.stdout
        gif = out_dir / "realtime" / "live_forecast.gif"
        assert gif.exists()
        assert gif.read_bytes()[:6] == b"GIF89a"

    def test_ablation(self, tmp_path, out_dir):
        result = run_example("ablation_l1_skip.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "L1+skip" in result.stdout
        assert (out_dir / "ablation" / "truth.png").exists()

    def test_serve_quickstart(self, tmp_path, out_dir):
        result = run_example("serve_quickstart.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "cached=True" in result.stdout
        assert "forecasts/s" in result.stdout
        assert (out_dir / "serve" / "forecast.png").exists()

    def test_data_pipeline(self, tmp_path, out_dir):
        result = run_example("data_pipeline.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "verify: ok" in result.stdout
        assert "peak residency" in result.stdout
        assert (out_dir / "data" / "store" / "manifest.json").exists()

    def test_eval_report(self, tmp_path, out_dir):
        result = run_example("eval_report.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "byte-identical re-run: True" in result.stdout
        assert "compare: ok" in result.stdout
        assert (out_dir / "eval" / "report_all.json").exists()
        assert (out_dir / "eval" / "report_holdout.json").exists()

    def test_train_run(self, tmp_path, out_dir):
        result = run_example("train_run.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "exact resume verified" in result.stdout
        assert "interrupted" in result.stdout
        run_dir = out_dir / "train" / "runs" / "killed"
        assert (run_dir / "spec.json").exists()
        assert (run_dir / "losses.jsonl").exists()
        assert (run_dir / "export" / "killed.npz").exists()

    def test_obs_quickstart(self, tmp_path, out_dir):
        result = run_example("obs_quickstart.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "steps/s" in result.stdout
        assert "traceEvents" in result.stdout
        assert "gemms" in result.stdout
        assert "# TYPE serve_requests_total counter" in result.stdout
        run_dir = out_dir / "obs" / "runs" / "demo"
        assert (run_dir / "trace.jsonl").exists()
        assert not (run_dir / "telemetry.jsonl").exists()
        assert (out_dir / "obs" / "trace_chrome.json").exists()
        assert (out_dir / "obs" / "metrics.prom").exists()

    def test_obs_fleet(self, tmp_path, out_dir):
        result = run_example("obs_fleet.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "fleet train_steps_total" in result.stdout
        assert 'train_steps_total{worker="sweep-fleet-a"}' in result.stdout
        assert "repro obs top" in result.stdout
        assert "ALERT firing: forecast-drift" in result.stdout
        fleet_dir = out_dir / "fleet"
        assert (fleet_dir / "fleet.prom").exists()
        alerts = (fleet_dir / "alerts.jsonl").read_text().splitlines()
        assert any('"state": "firing"' in line for line in alerts)
        telemetry = fleet_dir / "sweep" / "telemetry"
        assert len(list(telemetry.glob("sweep-*.json"))) == 2

    def test_fleet_quickstart(self, tmp_path, out_dir):
        result = run_example("fleet_quickstart.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "digests byte-identical across worker counts" in result.stdout
        assert "cached repeat" in result.stdout
        assert "repro obs top" in result.stdout
        assert "fleet_routed_total" in result.stdout
        quickstart = out_dir / "fleet_quickstart"
        assert (quickstart / "registry" / "artifacts").is_dir()
        assert list((quickstart / "telemetry" / "telemetry")
                    .glob("*.json"))

    def test_packing_flow(self, tmp_path, out_dir):
        result = run_example("packing_flow.py", tmp_path)
        assert result.returncode == 0, result.stderr
        assert "nets absorbed" in result.stdout
        assert (out_dir / "packing" / "img_route.png").exists()
