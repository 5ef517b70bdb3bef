"""End-to-end observability: the no-perturbation gate, the Prometheus
endpoint, the status timing block, and the ``repro obs`` CLI.

The load-bearing test here is the byte-equality gate: a default run,
which traces into its run directory, must produce model artifacts, loss
logs, and eval reports *bitwise identical* to a run built with a
disabled tracer.  Observability that perturbs the numbers is a bug by
definition.
"""

import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.gan import Dataset
from repro.obs.trace import Tracer
from repro.train import EvalSpec, FinetuneSpec, Runner, TrainSpec
from repro.train.status import read_run_status, format_run_status
from tests.conftest import make_dataset

SIZE = 16
TRAIN_SPANS = {"train.step", "train.epoch", "train.eval", "train.checkpoint"}
LEGACY_RUN = (Path(__file__).parent / "fixtures" / "train_resume" / "runs"
              / "legacy")


@pytest.fixture(scope="module")
def dataset():
    return Dataset(list(make_dataset(6, size=SIZE, design="a")))


def gate_spec() -> TrainSpec:
    return TrainSpec(
        name="gate", data="inline", scale="smoke", seed=3, epochs=2,
        order="shuffle", model={"base_filters": 4, "disc_filters": 4},
        eval=EvalSpec(every_epochs=1))


def run_once(root, dataset, *, instrumented: bool):
    # A run directory traces by default; the plain side opts out.
    runner = Runner.create(
        gate_spec(), root, dataset=dataset,
        tracer=None if instrumented else Tracer(None))
    result = runner.run()
    assert result.completed
    return root / "gate"


def assert_npz_bitwise_equal(path_a, path_b):
    with np.load(path_a) as a, np.load(path_b) as b:
        assert sorted(a.files) == sorted(b.files)
        for name in a.files:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


class TestByteEqualityGate:
    @pytest.fixture(scope="class")
    def both_runs(self, dataset, tmp_path_factory):
        plain = run_once(tmp_path_factory.mktemp("plain"), dataset,
                         instrumented=False)
        traced = run_once(tmp_path_factory.mktemp("traced"), dataset,
                          instrumented=True)
        return plain, traced

    def test_instrumented_run_actually_observed(self, both_runs):
        plain, traced = both_runs
        assert not (plain / "trace.jsonl").exists()
        trace = (traced / "trace.jsonl").read_text().splitlines()
        names = {json.loads(line)["name"] for line in trace}
        assert TRAIN_SPANS <= names

    def test_loss_and_eval_logs_byte_identical(self, both_runs):
        plain, traced = both_runs
        for name in ("losses.jsonl", "evals.jsonl", "spec.json"):
            assert ((plain / name).read_bytes()
                    == (traced / name).read_bytes()), name

    def test_exported_model_bitwise_identical(self, both_runs):
        plain, traced = both_runs
        exports = sorted(p.name for p in (plain / "export").iterdir())
        assert exports == sorted(
            p.name for p in (traced / "export").iterdir())
        for name in exports:
            if name.endswith(".npz"):
                assert_npz_bitwise_equal(plain / "export" / name,
                                         traced / "export" / name)

    def test_checkpoints_bitwise_identical(self, both_runs):
        plain, traced = both_runs
        names = sorted(p.name for p in (plain / "checkpoints").iterdir())
        assert names == sorted(
            p.name for p in (traced / "checkpoints").iterdir())
        compared = 0
        for name in names:
            if name.endswith(".npz"):
                assert_npz_bitwise_equal(plain / "checkpoints" / name,
                                         traced / "checkpoints" / name)
                compared += 1
        assert compared > 0


class TestRunTrace:
    """A run directory's one timing record is its span trace."""

    def test_default_run_dir_records_spans_not_telemetry(self, dataset,
                                                         tmp_path):
        Runner.create(gate_spec(), tmp_path, dataset=dataset).run()
        run_dir = tmp_path / "gate"
        assert not (run_dir / "telemetry.jsonl").exists()
        spans = [json.loads(line) for line in
                 (run_dir / "trace.jsonl").read_text().splitlines()]
        assert TRAIN_SPANS <= {span["name"] for span in spans}
        epochs = [span for span in spans if span["name"] == "train.epoch"]
        assert [span["args"]["samples"] for span in epochs] == [6, 6]
        assert [span["args"]["steps"] for span in epochs] == [6, 6]

    def test_continued_run_appends_and_closes_trace(self, dataset,
                                                    tmp_path):
        runner = Runner.create(gate_spec(), tmp_path, dataset=dataset)
        assert runner.run(stop_after_steps=4).status == "interrupted"
        assert runner.run().completed
        trace = tmp_path / "gate" / "trace.jsonl"
        assert trace.read_text().count('"name": "train.step"') == 12
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del runner
            gc.collect()
        assert not [warning for warning in caught
                    if str(trace) in str(warning.message)]


class TestStatusTiming:
    @pytest.fixture(scope="class")
    def run_dir(self, dataset, tmp_path_factory):
        return run_once(tmp_path_factory.mktemp("status"), dataset,
                        instrumented=True)

    def test_read_run_status_surfaces_timing(self, run_dir):
        info = read_run_status(run_dir)
        timing = info["timing"]
        assert timing is not None
        assert timing["steps_per_sec"] > 0
        assert timing["mean_step_ms"] > 0
        assert timing["eval_ms"] > 0

    def test_format_includes_timing_line(self, run_dir):
        text = format_run_status(read_run_status(run_dir))
        assert "timing" in text
        assert "steps/s" in text

    def test_untelemetered_run_has_no_timing(self, dataset,
                                             tmp_path_factory):
        run_dir = run_once(tmp_path_factory.mktemp("bare"), dataset,
                           instrumented=False)
        assert read_run_status(run_dir)["timing"] is None

    def test_legacy_telemetry_only_run_has_no_timing(self):
        assert (LEGACY_RUN / "telemetry.jsonl").exists()
        info = read_run_status(LEGACY_RUN)
        assert info["timing"] is None
        assert "timing" not in format_run_status(info)

    def test_status_sees_epoch_timing_between_phases(self, dataset,
                                                     tmp_path):
        """The epoch span is flushed as it is written, so a status poll
        in the middle of a run sees the newest epoch's throughput."""
        spec = TrainSpec(
            name="phases", data="inline", scale="smoke", seed=3, epochs=1,
            order="shuffle", holdout_design="b",
            finetune=FinetuneSpec(epochs=1, pairs=2),
            model={"base_filters": 4, "disc_filters": 4})
        both = Dataset(list(dataset) + list(
            make_dataset(4, size=SIZE, design="b", seed0=30)))
        seen = {}

        def on_phase(name, model):
            seen[name] = read_run_status(tmp_path / "phases")["timing"]

        Runner.create(spec, tmp_path, dataset=both).run(on_phase=on_phase)
        assert seen["train"]["steps_per_sec"] > 0
        assert seen["train"]["mean_step_ms"] > 0


class TestObsCli:
    @pytest.fixture(scope="class")
    def run_dir(self, dataset, tmp_path_factory):
        return run_once(tmp_path_factory.mktemp("cli"), dataset,
                        instrumented=True)

    def test_tail(self, run_dir, capsys):
        assert main(["obs", "tail", str(run_dir), "-n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        # The run ends with its run-end checkpoint span.
        assert lines[-1].startswith("train.checkpoint")

    def test_trace_summary(self, run_dir, capsys):
        assert main(["obs", "trace", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "train.step" in out and "count" in out

    def test_trace_chrome_export_loads(self, run_dir, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        assert main(["obs", "trace", str(run_dir),
                     "--chrome", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert len(document["traceEvents"]) > 0
        assert all({"name", "ph", "ts", "pid", "tid"} <= set(event)
                   for event in document["traceEvents"])

    def test_missing_telemetry_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace"):
            main(["obs", "tail", str(tmp_path)])

    def test_missing_trace_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace"):
            main(["obs", "trace", str(tmp_path)])


class TestServeMetricsEndpoint:
    @pytest.fixture()
    def client(self, tiny_model):
        from repro.serve import (
            BatchingEngine,
            ForecastCache,
            ForecastClient,
            ForecastServer,
            ModelRegistry,
        )

        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        engine = BatchingEngine(registry, max_batch=4, max_wait_ms=2.0,
                                cache=ForecastCache(16))
        with ForecastServer(engine, port=0) as running:
            yield ForecastClient(port=running.port)

    def test_default_metrics_is_prometheus_text(self, client):
        x = np.random.default_rng(8).normal(
            size=(4, SIZE, SIZE)).astype(np.float32)
        client.forecast("tiny", x=x)
        text = client.metrics_text()
        assert "# TYPE serve_requests_total counter" in text
        assert "# TYPE serve_request_latency_seconds histogram" in text
        assert 'serve_request_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "serve_queue_depth 0" in text
        assert "serve_cache_misses_total 1" in text
        assert 'http_requests_total{route="/v1/forecast"} 1' in text
        # Every non-comment line parses as `name{labels}? value`.
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert len(line.rsplit(" ", 1)) == 2, line

    def test_accept_json_returns_legacy_shape(self, client):
        x = np.random.default_rng(9).normal(
            size=(4, SIZE, SIZE)).astype(np.float32)
        client.forecast("tiny", x=x)
        legacy = client.metrics()
        assert legacy["engine"]["requests"] == 1
        assert legacy["engine"]["completed"] == 1
        assert legacy["http"]["requests_by_route"]["/v1/forecast"] == 1


class TestTracedServe:
    def test_serve_spans_cover_queue_batch_forward(self, tiny_model,
                                                   tmp_path):
        from repro.serve import BatchingEngine, ModelRegistry

        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        trace_path = tmp_path / "serve_trace.jsonl"
        with Tracer(trace_path) as tracer:
            engine = BatchingEngine(registry, max_batch=4, max_wait_ms=1.0,
                                    tracer=tracer)
            x = np.random.default_rng(10).normal(
                size=(4, SIZE, SIZE)).astype(np.float32)
            engine.start()
            try:
                engine.submit("tiny", x).result(timeout=10)
            finally:
                engine.stop()
        names = [json.loads(line)["name"]
                 for line in trace_path.read_text().splitlines()]
        assert "serve.queue_wait" in names
        assert "serve.batch" in names
        assert "serve.forward" in names
