"""Drift monitors, alert rules, and their serve/train wiring."""

import json
import math

import numpy as np
import pytest

from repro.obs.alerts import (
    AlertManager,
    AlertRule,
    load_rules,
    parse_rule,
    read_alert_log,
)
from repro.obs.drift import (
    DriftMonitor,
    ReferenceProfile,
    hotspot_score,
    hotspot_scores,
    sampled_nrms,
)
from repro.obs.metrics import MetricsRegistry
from repro.viz.colors import utilization_to_rgb


def heat_image(level: float, size: int = 8) -> np.ndarray:
    """A uniform congestion heat map at ``level`` utilization, (H, W, 3)."""
    return np.broadcast_to(
        utilization_to_rgb(level), (size, size, 3)).astype(np.float64)


class TestHotspotScore:
    def test_uniform_hot_image_scores_one(self):
        assert hotspot_score(heat_image(0.9)) == pytest.approx(1.0)

    def test_uniform_cold_image_scores_zero(self):
        assert hotspot_score(heat_image(0.1)) == pytest.approx(0.0)

    def test_batch_helper_matches_scalar(self):
        batch = np.stack([heat_image(0.1), heat_image(0.9)])
        scores = hotspot_scores(batch)
        assert scores == [hotspot_score(batch[0]), hotspot_score(batch[1])]

    def test_non_rgb_falls_back_to_raw_values(self):
        raw = np.full((4, 4), 0.8)
        assert hotspot_score(raw) == pytest.approx(1.0)

    def test_sampled_nrms_zero_for_identical(self):
        image = heat_image(0.6)
        assert sampled_nrms(image, image) == pytest.approx(0.0, abs=1e-9)
        assert sampled_nrms(heat_image(0.9), heat_image(0.1)) > 0 \
            or math.isinf(sampled_nrms(heat_image(0.9), heat_image(0.1)))


class TestReferenceProfile:
    def test_shift_zero_for_same_distribution(self):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5] * 10
        profile = ReferenceProfile.from_scores(scores)
        assert profile.shift(scores) == pytest.approx(0.0)

    def test_shift_one_for_disjoint_distributions(self):
        profile = ReferenceProfile.from_scores([0.05] * 50)
        assert profile.shift([0.95] * 50) == pytest.approx(1.0)

    def test_empty_windows_read_zero(self):
        profile = ReferenceProfile.from_scores([0.5] * 10)
        assert profile.shift([]) == 0.0
        assert ReferenceProfile().shift([0.5]) == 0.0

    def test_json_round_trip(self, tmp_path):
        profile = ReferenceProfile.from_scores(
            [0.1, 0.6, 0.6, 0.9], meta={"name": "m"})
        path = profile.save(tmp_path / "reference.json")
        loaded = ReferenceProfile.load(path)
        assert loaded.to_json() == profile.to_json()
        assert loaded.mean == profile.mean

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            ReferenceProfile.from_json({"kind": "something_else"})


class TestDriftMonitor:
    def test_shift_gauge_reacts_to_drifted_traffic(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor(metrics=registry, window=16)
        monitor.set_reference(
            "m", ReferenceProfile.from_scores([0.0] * 50))
        for _ in range(8):
            monitor.observe("m", heat_image(0.1))
        low = registry.snapshot()["serve_drift_score_shift"]["model=m"]
        for _ in range(16):
            monitor.observe("m", heat_image(0.9))
        high = registry.snapshot()["serve_drift_score_shift"]["model=m"]
        assert low == pytest.approx(0.0)
        assert high == pytest.approx(1.0)

    def test_novelty_rate(self):
        monitor = DriftMonitor(window=8)
        for index in range(4):
            monitor.observe("m", heat_image(0.5), digest=f"d{index}")
        assert monitor.status()["m"]["novelty_rate"] == 1.0
        for _ in range(4):
            monitor.observe("m", heat_image(0.5), digest="d0")
        assert monitor.status()["m"]["novelty_rate"] == 0.5

    def test_sampled_truth_window(self):
        monitor = DriftMonitor()
        image = heat_image(0.6)
        monitor.observe_truth("m", image, image)
        status = monitor.status()["m"]
        assert status["truth_samples"] == 1
        assert status["sampled_nrms"] == pytest.approx(0.0, abs=1e-9)

    def test_status_without_reference(self):
        monitor = DriftMonitor()
        monitor.observe("m", heat_image(0.5))
        status = monitor.status()["m"]
        assert status["has_reference"] is False
        assert status["score_shift"] is None


class TestAlertRules:
    def test_parse_and_validate(self):
        rule = parse_rule({"name": "r", "metric": "m", "op": ">",
                           "value": 1, "for_seconds": 5})
        assert rule.breached(2.0)
        assert not rule.breached(0.5)
        assert rule.describe() == "m > 1"

    @pytest.mark.parametrize("bad", [
        {"name": "", "metric": "m", "op": ">", "value": 1},
        {"name": "r", "metric": "", "op": ">", "value": 1},
        {"name": "r", "metric": "m", "op": "~", "value": 1},
        {"name": "r", "metric": "m", "op": ">", "value": 1,
         "for_seconds": -1},
        {"name": "r", "metric": "m", "op": ">", "value": 1,
         "severity": "loud"},
        {"name": "r", "metric": "m", "op": ">", "value": 1,
         "frequency": 2},
    ])
    def test_invalid_rules_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rule(bad)

    def test_load_rules_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"name": "a", "metric": "m", "op": ">", "value": 1},
            {"name": "b", "metric": "n", "op": "<", "value": 0},
        ]))
        rules = load_rules(path)
        assert [rule.name for rule in rules] == ["a", "b"]
        path.write_text(json.dumps({"rules": [
            {"name": "a", "metric": "m", "op": ">", "value": 1}]}))
        assert len(load_rules(path)) == 1

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"name": "a", "metric": "m", "op": ">", "value": 1},
            {"name": "a", "metric": "n", "op": ">", "value": 1},
        ]))
        with pytest.raises(ValueError, match="duplicate"):
            load_rules(path)


class TestAlertManager:
    RULE = AlertRule(name="hot", metric="m", op=">", value=10.0,
                     for_seconds=5.0, severity="page", message="too hot")

    def test_for_duration_state_machine(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        manager = AlertManager([self.RULE], log_path=log)
        # Breach at t=0: pending, not yet firing.
        assert manager.evaluate({"m": 20.0}, now=0.0) == []
        assert manager.active() == []
        # Still breached at t=5: held for for_seconds -> fires.
        events = manager.evaluate({"m": 25.0}, now=5.0)
        assert [event.state for event in events] == ["firing"]
        active = manager.active()
        assert active[0]["rule"] == "hot"
        assert active[0]["value"] == 25.0
        # Recovery resolves.
        events = manager.evaluate({"m": 1.0}, now=6.0)
        assert [event.state for event in events] == ["resolved"]
        assert manager.active() == []
        # The transitions landed in alerts.jsonl.
        lines, skipped = read_alert_log(log)
        assert [line["state"] for line in lines] == ["firing", "resolved"]
        assert skipped == 0

    def test_blip_shorter_than_for_duration_never_fires(self):
        manager = AlertManager([self.RULE])
        manager.evaluate({"m": 20.0}, now=0.0)
        manager.evaluate({"m": 1.0}, now=2.0)    # recovered early
        manager.evaluate({"m": 20.0}, now=3.0)   # pending restarts
        assert manager.evaluate({"m": 20.0}, now=7.0) == []  # held only 4s
        assert manager.evaluate({"m": 20.0}, now=8.0) != []  # now 5s

    def test_missing_metric_is_not_breached(self):
        manager = AlertManager([self.RULE])
        assert manager.evaluate({}, now=0.0) == []
        assert manager.status()["hot"]["last_value"] is None

    def test_firing_gauge_mirrors_state(self):
        registry = MetricsRegistry()
        rule = AlertRule(name="now", metric="m", op=">", value=1.0)
        manager = AlertManager([rule], metrics=registry)
        assert registry.snapshot()["obs_alert_firing"]["rule=now"] == 0
        manager.evaluate({"m": 5.0}, now=0.0)    # for_seconds=0: immediate
        assert registry.snapshot()["obs_alert_firing"]["rule=now"] == 1
        manager.evaluate({"m": 0.0}, now=1.0)
        assert registry.snapshot()["obs_alert_firing"]["rule=now"] == 0

    def test_read_alert_log_skips_torn_line(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        log.write_text('{"rule": "a", "state": "firing"}\n{"rule": "b", ')
        events, skipped = read_alert_log(log)
        assert len(events) == 1
        assert skipped == 1

    def test_read_alert_log_missing_file(self, tmp_path):
        assert read_alert_log(tmp_path / "nope.jsonl") == ([], 0)


class TestServeWiring:
    def test_engine_feeds_drift_on_miss_and_hit(self, tiny_model):
        from repro.serve import (
            BatchingEngine,
            ForecastCache,
            ModelRegistry,
        )

        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        metrics = MetricsRegistry()
        monitor = DriftMonitor(metrics=metrics)
        engine = BatchingEngine(registry, cache=ForecastCache(8),
                                metrics=metrics, drift=monitor)
        x = np.zeros((4, 16, 16), dtype=np.float32)
        with engine:
            engine.forecast("tiny", x)      # miss
            engine.forecast("tiny", x)      # hit
        status = monitor.status()["tiny"]
        assert status["observations"] == 2
        # Identical inputs: one novel digest out of two observations.
        assert status["novelty_rate"] == 0.5

    def test_http_alerts_and_telemetry_endpoints(self, tiny_model,
                                                 tmp_path):
        import urllib.request

        from repro.serve import BatchingEngine, ForecastServer, \
            ModelRegistry

        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        metrics = MetricsRegistry()
        monitor = DriftMonitor(metrics=metrics)
        monitor.set_reference(
            "tiny", ReferenceProfile.from_scores([0.0] * 20))
        engine = BatchingEngine(registry, metrics=metrics, drift=monitor)
        rules = [AlertRule(name="drifting",
                           metric="serve_drift_score_shift{model=tiny}",
                           op=">", value=0.5)]
        obs_dir = tmp_path / "obs"
        with ForecastServer(engine, port=0, obs_dir=obs_dir,
                            alert_rules=rules,
                            publish_interval=60.0) as server:
            def get(route):
                with urllib.request.urlopen(
                        f"{server.url}{route}", timeout=10) as response:
                    return json.loads(response.read())

            payload = get("/alerts")
            assert payload["active"] == []
            assert "drifting" in payload["rules"]
            # Drive drifted traffic (hot forecasts vs an all-cold
            # reference) through the engine, then re-poll.
            x = np.zeros((4, 16, 16), dtype=np.float32)
            engine.forecast("tiny", x)
            payload = get("/alerts")
            assert payload["drift"]["tiny"]["observations"] == 1
            telemetry = get("/telemetry")
            assert telemetry["role"] == "serve"
            assert "serve_requests_total" in telemetry["families"]
            # The publisher dropped a snapshot file at start().
            snapshots = list((obs_dir / "telemetry").glob("serve-*.json"))
            assert len(snapshots) == 1


class TestRunnerReference:
    def test_runner_writes_reference_profile(self, tmp_path, make_dataset):
        from repro.train import EvalSpec, Runner, TrainSpec

        dataset = make_dataset(4, size=16)
        spec = TrainSpec(
            name="ref-run", data="inline", scale="smoke", seed=2, epochs=1,
            order="stream",
            model={"base_filters": 4, "disc_filters": 4},
            eval=EvalSpec(every_epochs=1, batch_size=2))
        metrics = MetricsRegistry()
        runner = Runner(spec, tmp_path / "run", dataset=dataset,
                        metrics=metrics)
        result = runner.run()
        assert result.completed
        profile = ReferenceProfile.load(tmp_path / "run" / "reference.json")
        assert profile.count == 4
        assert profile.meta["name"] == "ref-run"
        exported = tmp_path / "run" / "export" / "ref-run-reference.json"
        assert exported.exists()
        # Fleet counters moved.
        snapshot = metrics.snapshot()
        assert snapshot["train_steps_total"] > 0
        assert snapshot["train_epochs_total"] == 1
        assert snapshot["train_evals_total"] == 1


class TestTolerantReaders:
    def test_read_jsonl_skips_torn_final_line(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.render import read_jsonl

        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "train.step", "dur_us": 1000}\n'
                        '{"name": "train.step", "dur_us": 2000}\n'
                        '{"name": "tr')
        records, skipped = read_jsonl(path)
        assert len(records) == 2
        assert skipped == 1
        assert main(["obs", "tail", str(tmp_path), "-n", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and "2.00 ms" in lines[0]

    def test_read_spans_skips_torn_final_line(self, tmp_path):
        from repro.obs.trace import read_spans, write_chrome_trace

        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "a", "ph": "X", "ts_us": 0, '
                        '"dur_us": 5}\n{"name": "b", "ph"')
        spans = read_spans(path)
        assert [span["name"] for span in spans] == ["a"]
        out = tmp_path / "chrome.json"
        assert write_chrome_trace(path, out) == 1

    def test_train_status_skips_torn_final_line(self, tmp_path):
        from repro.train.status import _tail_records

        path = tmp_path / "losses.jsonl"
        path.write_text('{"epoch": 0, "event": "epoch"}\n{"epoch": 1, "ev')
        found = _tail_records(
            path, {"epoch": lambda doc: doc.get("event") == "epoch"})
        assert found["epoch"] == {"epoch": 0, "event": "epoch"}
