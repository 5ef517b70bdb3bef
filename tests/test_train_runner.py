"""Runner tests: run-directory layout, eval hooks, publishing, phases."""

import json

import numpy as np
import pytest

from repro.gan import Dataset, Pix2PixTrainer
from repro.train import EvalSpec, FinetuneSpec, Runner, TrainSpec
from tests.conftest import make_dataset

SIZE = 16


@pytest.fixture(scope="module")
def dataset():
    base = make_dataset(4, size=SIZE, design="a")
    other = make_dataset(4, size=SIZE, design="b", seed0=30)
    return Dataset(list(base) + list(other))


def basic_spec(name: str, **overrides) -> TrainSpec:
    values = dict(
        name=name, data="inline", scale="smoke", seed=2, epochs=2,
        order="stream", model={"base_filters": 4, "disc_filters": 4})
    values.update(overrides)
    return TrainSpec(**values)


class TestRunDirectory:
    @pytest.fixture(scope="class")
    def finished(self, dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("runner")
        spec = basic_spec("layout", eval=EvalSpec(every_epochs=1))
        runner = Runner.create(spec, root, dataset=dataset)
        result = runner.run()
        return root / "layout", result

    def test_layout(self, finished):
        run_dir, result = finished
        assert result.completed
        for name in ("spec.json", "status.json", "losses.jsonl",
                     "evals.jsonl", "checkpoints", "export"):
            assert (run_dir / name).exists(), name
        assert (run_dir / "checkpoints" / "latest.json").exists()

    def test_spec_json_round_trips(self, finished):
        run_dir, _ = finished
        spec = TrainSpec.load(run_dir / "spec.json")
        assert spec.name == "layout"

    def test_loss_lines_per_step_and_epoch(self, finished):
        run_dir, result = finished
        lines = [json.loads(line) for line in
                 (run_dir / "losses.jsonl").read_text().splitlines()]
        steps = [l for l in lines if "event" not in l]
        epochs = [l for l in lines if l.get("event") == "epoch"]
        assert len(steps) == result.global_step == 16   # 8 samples x 2
        assert len(epochs) == 2
        assert {"g_total", "g_gan", "g_l1", "d_total", "d_real",
                "d_fake"} <= set(steps[0])

    def test_status_reflects_completion(self, finished):
        run_dir, _ = finished
        status = json.loads((run_dir / "status.json").read_text())
        assert status["state"] == "completed"
        assert status["global_step"] == 16
        assert status["last_losses"]["samples"] == 8

    def test_eval_hook_tracks_best(self, finished):
        run_dir, result = finished
        records = [json.loads(line) for line in
                   (run_dir / "evals.jsonl").read_text().splitlines()]
        assert len(records) == 2
        assert all("nrms" in record["metrics"] for record in records)
        tracked = [record["metrics"]["nrms"] for record in records]
        assert result.best_value == min(tracked)
        assert (run_dir / "export" / "layout-best.npz").exists()

    def test_publish_loads_in_serve_registry(self, finished):
        from repro.serve.registry import load_checkpoint

        run_dir, result = finished
        export = run_dir / "export" / "layout.npz"
        assert export in result.exported
        model, info = load_checkpoint(export)
        assert info.model_id == "layout"
        assert info.image_size == SIZE


class TestCheckpointCadence:
    """Each train state is written once per cadence point; the run's
    final step is written by the run-end checkpoint alone."""

    @pytest.mark.parametrize("every_steps, expected", [
        (0, [4, 8]),
        # Step 4 is both a step-cadence point and an epoch end.
        (2, [2, 4, 4, 6, 8]),
    ])
    def test_saved_steps(self, dataset, tmp_path, monkeypatch,
                         every_steps, expected):
        import repro.train.runner as runner_module

        saved = []
        save = runner_module.save_train_state

        def counting_save(path, model, cursor, *args, **kwargs):
            saved.append(cursor.global_step)
            return save(path, model, cursor, *args, **kwargs)

        monkeypatch.setattr(runner_module, "save_train_state",
                            counting_save)
        spec = basic_spec("cadence", checkpoint_every_steps=every_steps,
                          publish=False)
        result = Runner.create(spec, tmp_path,
                               dataset=dataset.of_design("a")).run()
        assert result.completed and result.global_step == 8
        assert saved == expected


class TestPhases:
    def test_strategy2_runs_both_phases(self, dataset, tmp_path):
        spec = basic_spec("s2", order="shuffle", holdout_design="b",
                          finetune=FinetuneSpec(epochs=1, pairs=2))
        runner = Runner.create(spec, tmp_path, dataset=dataset)
        seen = []
        result = runner.run(on_phase=lambda name, model:
                            seen.append(name))
        assert result.completed
        assert seen == ["train", "finetune"]
        assert set(result.histories) == {"train", "finetune"}
        assert result.histories["train"].epochs == 2
        assert result.histories["finetune"].epochs == 1
        # 4 train samples x 2 epochs + 2 finetune pairs x 1 epoch
        assert result.global_step == 10

    def test_finetune_restores_base_learning_rate(self, dataset, tmp_path):
        spec = basic_spec("lr", order="shuffle", holdout_design="b",
                          finetune=FinetuneSpec(epochs=1, pairs=2,
                                                lr_scale=0.25))
        runner = Runner.create(spec, tmp_path, dataset=dataset)
        runner.run()
        assert runner.model.opt_g.lr == runner.model.config.learning_rate

    def test_matches_trainer_fit_bitwise(self, dataset, tmp_path):
        """The shuffle-order runner IS the trainer loop, bit for bit."""
        from repro.gan import Pix2Pix, Pix2PixConfig

        train = dataset.of_design("a")
        spec = basic_spec("parity", order="shuffle", epochs=2,
                          publish=False)
        runner = Runner(spec, dataset=train)
        runner.run()

        model = Pix2Pix(Pix2PixConfig.from_scale(
            spec.resolve_scale(), image_size=SIZE, seed=spec.seed,
            base_filters=4, disc_filters=4))
        trainer = Pix2PixTrainer(model, seed=spec.seed)
        trainer.fit(train, 2)
        for (name, expected), (_, actual) in zip(
                model.generator.named_parameters(),
                runner.model.generator.named_parameters()):
            np.testing.assert_array_equal(actual.data, expected.data,
                                          err_msg=name)


class TestDataResolution:
    def test_inline_without_dataset_is_an_error(self):
        with pytest.raises(ValueError, match="inline"):
            Runner(basic_spec("x"))

    def test_eval_hook_does_not_change_store_trajectory(self, dataset,
                                                        tmp_path):
        """Adding an observation-only eval hook to a streaming store run
        must leave sample order — and therefore the losses — untouched."""
        from repro.data import ShardedStore
        from repro.train import EvalSpec

        store_root = tmp_path / "store"
        ShardedStore.from_dataset(store_root, dataset, shard_size=3)
        losses = {}
        for name, eval_spec in (("plain", None),
                                ("hooked", EvalSpec(every_epochs=1))):
            spec = basic_spec(name, data=f"store:{store_root}",
                              epochs=1, eval=eval_spec, publish=False)
            runner = Runner.create(spec, tmp_path / "runs")
            result = runner.run()
            losses[name] = result.histories["train"].g_total
            if eval_spec is not None:
                assert result.evals, "eval hook did not fire"
        assert losses["plain"] == losses["hooked"]

    def test_fresh_runner_over_existing_dir_restarts_it(self, dataset,
                                                        tmp_path):
        """Direct construction restarts a run directory: no appended
        logs, no stale checkpoints or exports from the prior occupant."""
        spec = basic_spec("again", publish=False)
        Runner(spec, tmp_path / "again", dataset=dataset).run()
        first = (tmp_path / "again" / "losses.jsonl").read_bytes()
        stale = tmp_path / "again" / "export" / "stale.npz"
        stale.write_bytes(b"junk")
        Runner(spec, tmp_path / "again", dataset=dataset).run()
        assert (tmp_path / "again" / "losses.jsonl").read_bytes() == first
        assert not stale.exists()

    def test_archive_ref_loads_dataset(self, dataset, tmp_path):
        archive = tmp_path / "data.npz"
        dataset.save(archive)
        spec = basic_spec("arch", data=f"archive:{archive}", publish=False)
        runner = Runner(spec, run_dir=None)
        result = runner.run()
        assert result.completed
        assert result.global_step == 16

    def test_holdout_design_excluded_from_training(self, dataset, tmp_path):
        spec = basic_spec("hold", holdout_design="b", publish=False)
        runner = Runner(spec, dataset=dataset)
        assert runner.phases[0].source.num_samples == 4
        assert {sample.design for sample in runner.eval_dataset} == {"b"}

    def test_missing_finetune_pairs_is_an_error(self, dataset):
        spec = basic_spec("few", order="shuffle", holdout_design="b",
                          finetune=FinetuneSpec(epochs=1, pairs=99))
        with pytest.raises(ValueError, match="99 pairs"):
            Runner(spec, dataset=dataset)
