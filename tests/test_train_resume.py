"""Exact-resume tests: interrupt mid-epoch, resume, compare bitwise.

The acceptance bar of the run layer: a run stopped at an arbitrary step
and resumed from its checkpoint must end with final weights and a
``losses.jsonl`` byte-identical to a run that was never interrupted —
for the scratch (strategy-1) path and the fine-tune (strategy-2) path,
in both sample-order modes.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.data import ShardedStore
from repro.gan import Dataset
from repro.train import EvalSpec, FinetuneSpec, Runner, TrainSpec
from repro.train.sweep import _run_one
from tests.conftest import make_dataset

SIZE = 16

#: A run directory ``runs/legacy`` plus the 4-sample, 16 px store
#: ``store/`` it trains on, written by ``repro train run --spec spec.json
#: --runs runs --stop-after-steps 6`` (checkpoints every 3 steps, keep 1,
#: 4 steps per epoch: stopped mid-epoch 2) by a version whose spec
#: carried a ``threads`` field.  The spec's data ref is relative.
LEGACY_FIXTURE = Path(__file__).parent / "fixtures" / "train_resume"


@pytest.fixture(scope="module")
def full_dataset():
    base = make_dataset(5, size=SIZE, design="a")
    other = make_dataset(4, size=SIZE, design="b", seed0=40)
    return Dataset(list(base) + list(other))


def strategy2_spec(name: str) -> TrainSpec:
    """Scratch + fine-tune phases in the legacy shuffle order."""
    return TrainSpec(
        name=name, data="inline", scale="smoke", seed=3, epochs=3,
        order="shuffle", holdout_design="b",
        finetune=FinetuneSpec(epochs=2, pairs=2),
        eval=EvalSpec(every_epochs=2),
        checkpoint_every_steps=4,
        model={"base_filters": 4, "disc_filters": 4})


def stream_spec(name: str) -> TrainSpec:
    """Streaming order with augmentation (the store pipeline's plan)."""
    return TrainSpec(
        name=name, data="inline", scale="smoke", seed=5, epochs=3,
        order="stream", augment=True, batch_size=2, shard_size=3,
        checkpoint_every_steps=3,
        model={"base_filters": 4, "disc_filters": 4})


def assert_same_run(root, name_a: str, name_b: str) -> None:
    """losses.jsonl and exported weights must match bitwise."""
    bytes_a = (root / name_a / "losses.jsonl").read_bytes()
    bytes_b = (root / name_b / "losses.jsonl").read_bytes()
    assert bytes_a == bytes_b, "losses.jsonl diverged"
    with np.load(root / name_a / "export" / f"{name_a}.npz") as archive_a, \
            np.load(root / name_b / "export" / f"{name_b}.npz") as archive_b:
        keys_a = [k for k in archive_a.files if k != "config_json"]
        assert sorted(keys_a) == sorted(
            k for k in archive_b.files if k != "config_json")
        for key in keys_a:
            np.testing.assert_array_equal(archive_a[key], archive_b[key],
                                          err_msg=key)


class TestExactResumeShuffleOrder:
    """Strategy-2 run (scratch + fine-tune) in legacy shuffle order."""

    @pytest.fixture(scope="class")
    def runs(self, full_dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("resume-shuffle")
        Runner.create(strategy2_spec("straight"), root,
                      dataset=full_dataset).run()
        return root

    @pytest.mark.parametrize("stop_step, label", [
        (7, "mid-scratch-epoch"),       # epoch 2 of 3, step 2 of 5
        (15, "phase-boundary"),         # exactly at scratch-phase end
        (17, "mid-finetune-epoch"),     # inside the fine-tune phase
    ])
    def test_interrupt_and_resume_is_bitwise_identical(
            self, runs, full_dataset, stop_step, label):
        name = f"killed-{stop_step}"
        spec = strategy2_spec(name)
        interrupted = Runner.create(spec, runs, dataset=full_dataset).run(
            stop_after_steps=stop_step)
        assert interrupted.status == "interrupted"
        assert interrupted.global_step == stop_step
        resumed = Runner.resume(runs / name, dataset=full_dataset).run()
        assert resumed.completed
        assert_same_run(runs, "straight", name)

    def test_in_process_continuation_is_bitwise_identical(
            self, runs, full_dataset):
        """run() again on the same interrupted Runner object (no disk
        round-trip) must rewind the shuffle rng like a real resume."""
        spec = strategy2_spec("inproc")
        runner = Runner.create(spec, runs, dataset=full_dataset)
        assert runner.run(stop_after_steps=7).status == "interrupted"
        assert runner.run().completed
        assert_same_run(runs, "straight", "inproc")

    def test_double_interrupt_then_resume(self, runs, full_dataset):
        """Two kills at awkward steps still converge to the same run."""
        name = "killed-twice"
        spec = strategy2_spec(name)
        Runner.create(spec, runs, dataset=full_dataset).run(
            stop_after_steps=3)
        Runner.resume(runs / name, dataset=full_dataset).run(
            stop_after_steps=11)
        result = Runner.resume(runs / name, dataset=full_dataset).run()
        assert result.completed
        assert_same_run(runs, "straight", name)

    def test_eval_log_matches_too(self, runs, full_dataset):
        """evals.jsonl (fired at epoch boundaries) is also byte-stable."""
        eval_a = (runs / "straight" / "evals.jsonl").read_text()
        eval_b = (runs / "killed-7" / "evals.jsonl").read_text()
        assert eval_a == eval_b


class TestExactResumeStreamOrder:
    """Scratch run over the shard-aware loader plan with augmentation."""

    def test_interrupt_and_resume_is_bitwise_identical(
            self, tmp_path, full_dataset):
        Runner.create(stream_spec("straight"), tmp_path,
                      dataset=full_dataset).run()
        spec = stream_spec("killed")
        # 9 samples at batch 2 -> 5 batches/epoch; stop mid-epoch 2,
        # off the checkpoint_every_steps=3 grid (exercises truncation).
        Runner.create(spec, tmp_path, dataset=full_dataset).run(
            stop_after_steps=7)
        result = Runner.resume(tmp_path / "killed",
                               dataset=full_dataset).run()
        assert result.completed
        assert_same_run(tmp_path, "straight", "killed")

    def test_store_backed_streaming_resume(self, tmp_path, full_dataset):
        """A store: spec resumes from the spec.json alone (no dataset)."""
        store_root = tmp_path / "store"
        ShardedStore.from_dataset(store_root, full_dataset, shard_size=3)
        for name in ("straight", "killed"):
            spec = TrainSpec(
                name=name, data=f"store:{store_root}", scale="smoke",
                seed=5, epochs=2, order="stream", augment=True,
                batch_size=2, checkpoint_every_steps=3,
                model={"base_filters": 4, "disc_filters": 4})
            runner = Runner.create(spec, tmp_path)
            if name == "killed":
                runner.run(stop_after_steps=4)
                result = Runner.resume(tmp_path / name).run()
                assert result.completed
            else:
                runner.run()
        assert_same_run(tmp_path, "straight", "killed")


class TestResumeGuards:
    def test_resume_refuses_edited_spec(self, tmp_path, full_dataset):
        spec = stream_spec("guarded")
        Runner.create(spec, tmp_path, dataset=full_dataset).run(
            stop_after_steps=4)
        run_dir = tmp_path / "guarded"
        edited = TrainSpec.from_json(
            (run_dir / "spec.json").read_text()).to_dict()
        edited["epochs"] = 9
        (run_dir / "spec.json").write_text(
            TrainSpec.from_dict(edited).to_json())
        with pytest.raises(ValueError, match="spec"):
            Runner.resume(run_dir, dataset=full_dataset)

    def test_create_refuses_existing_run(self, tmp_path, full_dataset):
        spec = stream_spec("taken")
        Runner.create(spec, tmp_path, dataset=full_dataset)
        with pytest.raises(FileExistsError, match="resume"):
            Runner.create(spec, tmp_path, dataset=full_dataset)

    def test_resume_needs_a_run_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="spec.json"):
            Runner.resume(tmp_path / "nowhere")

    def test_resume_before_first_checkpoint_restarts_cleanly(
            self, tmp_path, full_dataset):
        spec = stream_spec("unckpted")
        runner = Runner.create(spec, tmp_path, dataset=full_dataset)
        # Simulate a crash before any checkpoint: stray partial log only.
        (tmp_path / "unckpted" / "losses.jsonl").write_text(
            '{"partial": true}\n')
        result = Runner.resume(tmp_path / "unckpted",
                               dataset=full_dataset).run()
        assert result.completed
        first_line = (tmp_path / "unckpted"
                      / "losses.jsonl").read_text().splitlines()[0]
        assert "partial" not in first_line


class TestLegacyRunDirectory:
    """Run directories and spool jobs written before the spec lost its
    ``threads`` field still resume and load."""

    @pytest.fixture()
    def fixture_dir(self, tmp_path, monkeypatch):
        root = tmp_path / "fixture"
        shutil.copytree(LEGACY_FIXTURE, root)
        monkeypatch.chdir(root)          # the spec says "store:store"
        return root

    def test_resume_matches_uninterrupted_run(self, fixture_dir):
        runs = fixture_dir / "runs"
        spec_path = runs / "legacy" / "spec.json"
        assert json.loads(spec_path.read_text())["threads"] == 1
        result = Runner.resume(runs / "legacy").run()
        assert result.completed and result.global_step == 8
        straight = dataclasses.replace(TrainSpec.load(spec_path),
                                       name="straight")
        Runner.create(straight, runs).run()
        assert_same_run(runs, "legacy", "straight")

    def test_spool_job_with_threads_runs(self, fixture_dir, tmp_path):
        document = json.loads(
            (fixture_dir / "runs" / "legacy" / "spec.json").read_text())
        document.update(name="from-spool", epochs=1)
        row = _run_one(str(tmp_path / "spool-runs"), document)
        assert row["status"] == "completed", row
