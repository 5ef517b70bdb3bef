"""CLI tests (python -m repro)."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.gan import Dataset, Pix2Pix
from tests.conftest import TRAIN_STATE_DAMAGE, damage_train_state


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datagen_args(self):
        args = build_parser().parse_args(
            ["datagen", "--design", "SHA", "--out", "x.npz",
             "--scale", "smoke"])
        assert args.design == "SHA"
        assert args.scale == "smoke"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--checkpoints", "ckpts", "--port", "0",
             "--max-batch", "4", "--cache-size", "32"])
        assert args.command == "serve"
        assert args.max_batch == 4
        assert args.cache_size == 32
        assert args.max_wait_ms == 2.0


class TestCommands:
    def test_datagen_writes_dataset(self, tmp_path):
        out = tmp_path / "data.npz"
        code = main(["datagen", "--design", "diffeq1", "--placements", "2",
                     "--out", str(out), "--scale", "smoke", "--seed", "3"])
        assert code == 0
        dataset = Dataset.load(out)
        assert len(dataset) == 2
        assert dataset[0].design == "diffeq1"

    def test_datagen_unknown_design_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown design"):
            main(["datagen", "--design", "nonsense",
                  "--out", str(tmp_path / "x.npz"), "--scale", "smoke"])

    def test_train_then_forecast_roundtrip(self, tmp_path):
        model_path = tmp_path / "model.npz"
        code = main(["train", "--designs", "diffeq1", "--epochs", "1",
                     "--out", str(model_path), "--scale", "smoke",
                     "--seed", "3"])
        assert code == 0
        assert model_path.exists()

        out_dir = tmp_path / "forecast"
        code = main(["forecast", "--model", str(model_path),
                     "--design", "diffeq1", "--seed", "3",
                     "--out", str(out_dir), "--scale", "smoke"])
        assert code == 0
        assert (out_dir / "forecast.png").exists()
        assert (out_dir / "place.png").exists()

    def test_forecast_routes_only_to_size_channels(self, tmp_path,
                                                   monkeypatch,
                                                   make_checkpoint):
        """``repro forecast`` runs just the relaxed channel-sizing route,
        and paints what ``Pix2Pix.forecast`` paints for its input."""
        from repro.fpga import PathFinderRouter
        from repro.gan import dataset as gan_dataset
        from repro.viz import write_png

        routed = []
        route = PathFinderRouter.route

        def recording_route(router):
            routed.append(router.arch.channel_width)
            return route(router)

        inputs = []
        render = gan_dataset.input_from_images

        def recording_input(*args, **kwargs):
            inputs.append(render(*args, **kwargs))
            return inputs[-1]

        monkeypatch.setattr(PathFinderRouter, "route", recording_route)
        monkeypatch.setattr(gan_dataset, "input_from_images",
                            recording_input)
        checkpoint = make_checkpoint("forecaster", image_size=32)
        out_dir = tmp_path / "forecast"
        assert main(["forecast", "--model", str(checkpoint),
                     "--design", "diffeq1", "--seed", "3",
                     "--out", str(out_dir), "--scale", "smoke"]) == 0
        assert routed == [10_000]
        [x] = inputs
        write_png(tmp_path / "expected.png",
                  Pix2Pix.load(checkpoint).forecast(x[0]))
        assert ((out_dir / "forecast.png").read_bytes()
                == (tmp_path / "expected.png").read_bytes())

    def test_table2_subset(self, capsys, tmp_path):
        code = main(["table2", "--designs", "diffeq1,diffeq2",
                     "--scale", "smoke", "--seed", "4",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Acc.1" in out
        assert "diffeq1" in out and "diffeq2" in out


class TestTrainResumeCommand:
    def test_truncated_checkpoint_exits_with_error(self, tmp_path,
                                                   monkeypatch):
        root = tmp_path / "fixture"
        shutil.copytree(Path(__file__).parent / "fixtures" / "train_resume",
                        root)
        monkeypatch.chdir(root)          # the spec says "store:store"
        latest = root / "runs" / "legacy" / "checkpoints" / \
            "step_00000006.npz"
        latest.write_bytes(latest.read_bytes()[:latest.stat().st_size // 2])
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "resume", "runs/legacy"])
        message = str(exit_info.value.code)
        assert message.startswith("error: ")
        assert "step_00000006.npz" in message

    @pytest.mark.parametrize("damage", sorted(TRAIN_STATE_DAMAGE))
    def test_damaged_header_exits_with_error(self, tmp_path, monkeypatch,
                                             damage):
        root = tmp_path / "fixture"
        shutil.copytree(Path(__file__).parent / "fixtures" / "train_resume",
                        root)
        monkeypatch.chdir(root)          # the spec says "store:store"
        damage_train_state(root / "runs" / "legacy" / "checkpoints"
                           / "step_00000006.npz", damage)
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "resume", "runs/legacy"])
        message = str(exit_info.value.code)
        assert message.startswith("error: ")
        assert "step_00000006.npz" in message


class TestServeCommand:
    def test_serve_truncated_checkpoint_exits_with_error(self, tmp_path,
                                                          tiny_model):
        path = tmp_path / "model.npz"
        tiny_model.save(path)
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--checkpoints", str(tmp_path), "--port", "0"])
        message = str(exit_info.value.code)
        assert message.startswith("error: ") and "model.npz" in message

    def test_serve_http_roundtrip(self, tmp_path):
        """`python -m repro serve` starts, answers, and shuts down cleanly."""
        import os
        import re
        import signal
        import subprocess
        import sys

        model_path = tmp_path / "diffeq1.npz"
        code = main(["train", "--designs", "diffeq1", "--epochs", "1",
                     "--out", str(model_path), "--scale", "smoke",
                     "--seed", "3"])
        assert code == 0

        env = dict(os.environ, REPRO_SCALE="smoke")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--checkpoints", str(tmp_path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            port = None
            for _ in range(50):
                line = process.stdout.readline()
                match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "server never reported its URL"

            from repro.serve import ForecastClient

            client = ForecastClient(port=port)
            assert client.healthz()["status"] == "ok"
            assert [m["model_id"] for m in client.models()] == ["diffeq1"]
            model = Pix2Pix.load(model_path)
            size = model.config.image_size
            x = np.random.default_rng(0).normal(
                size=(4, size, size)).astype(np.float32)
            reply = client.forecast("diffeq1", x=x)
            np.testing.assert_array_equal(reply.forecast,
                                          model.forecast(x))
        finally:
            process.send_signal(signal.SIGINT)
            stdout, _ = process.communicate(timeout=30)
        assert process.returncode == 0, stdout
        assert "shutting down" in stdout

    def test_serving_path_never_imports_scipy_or_networkx(self):
        """``repro serve``, ``fleet up``, ``eval run`` and ``data
        verify/stats/merge`` start without scipy or networkx: only design
        generation and timing analysis call them."""
        import subprocess
        import sys

        import repro

        source_root = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "import repro.fpga, repro.cli, repro.serve, repro.obs.drift\n"
            "import repro.fleet.router, repro.eval.runner, repro.data.store\n"
            "loaded = sorted({'scipy', 'networkx'} & set(sys.modules))\n"
            "assert not loaded, f'imported {loaded}'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": source_root, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr


class TestCheckpointing:
    def test_pix2pix_save_load_roundtrip(self, tmp_path):
        from repro.gan import Pix2PixConfig

        model = Pix2Pix(Pix2PixConfig(image_size=16, base_filters=4,
                                      disc_filters=4, seed=2))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
        y = np.tanh(rng.normal(size=(1, 3, 16, 16))).astype(np.float32)
        model.train_step(x, y)
        expected = model.generate(x, sample_noise=False)

        path = tmp_path / "ckpt.npz"
        model.save(path)
        restored = Pix2Pix.load(path)
        assert restored.config == model.config
        np.testing.assert_allclose(
            restored.generate(x, sample_noise=False), expected, atol=1e-6)


class TestDataCommands:
    def test_data_parser_defaults(self):
        args = build_parser().parse_args(
            ["data", "build", "--out", "store", "--scale", "smoke"])
        assert args.data_command == "build"
        assert args.workers == 0
        assert args.shard_size == 16

    def test_data_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["data"])

    def test_build_verify_stats_roundtrip(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(["data", "build", "--designs", "diffeq1",
                     "--placements", "2", "--workers", "2",
                     "--shard-size", "1", "--out", str(store_dir),
                     "--scale", "smoke", "--seed", "3"])
        assert code == 0
        assert main(["data", "verify", str(store_dir)]) == 0
        assert main(["data", "stats", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "wrote 2 samples in 2 shard(s)" in out
        assert "verified" in out
        assert "num_samples" in out

    def test_verify_fails_on_corruption(self, tmp_path, capsys):
        from repro.data import ShardedStore

        store_dir = tmp_path / "store"
        main(["data", "build", "--designs", "diffeq1", "--placements", "2",
              "--shard-size", "2", "--out", str(store_dir),
              "--scale", "smoke", "--seed", "3"])
        store = ShardedStore.open(store_dir)
        shard = store_dir / store.manifest["shards"][0]["name"]
        shard.write_bytes(b"not an npz")
        with pytest.raises(SystemExit, match="problem"):
            main(["data", "verify", str(store_dir)])

    def test_convert_and_merge(self, tmp_path, capsys):
        from repro.data import ShardedStore

        archive = tmp_path / "legacy.npz"
        main(["datagen", "--design", "diffeq1", "--placements", "2",
              "--out", str(archive), "--scale", "smoke", "--seed", "3"])
        converted = tmp_path / "converted"
        assert main(["data", "convert", str(archive),
                     "--out", str(converted)]) == 0
        merged = tmp_path / "merged"
        assert main(["data", "merge", str(converted),
                     "--out", str(merged), "--shard-size", "4"]) == 0
        store = ShardedStore.open(merged)
        assert store.num_samples == 2
        assert store.verify() == []

    def test_invalid_shard_size_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="shard_size"):
            main(["data", "build", "--designs", "diffeq1",
                  "--placements", "1", "--shard-size", "0",
                  "--out", str(tmp_path / "s"), "--scale", "smoke"])

    def test_build_onto_existing_store_exits(self, tmp_path):
        store_dir = tmp_path / "store"
        main(["data", "build", "--designs", "diffeq1", "--placements", "1",
              "--out", str(store_dir), "--scale", "smoke", "--seed", "3"])
        with pytest.raises(SystemExit, match="already exists"):
            main(["data", "build", "--designs", "diffeq1",
                  "--placements", "1", "--out", str(store_dir),
                  "--scale", "smoke", "--seed", "3"])


class TestDamagedStoreManifest:
    """Commands that open a store answer `error:` for a damaged manifest
    instead of a traceback."""

    @pytest.fixture()
    def store_dir(self, tmp_path):
        from repro.data import ShardedStore
        from tests.conftest import make_dataset

        root = tmp_path / "store"
        ShardedStore.from_dataset(root, make_dataset(2, size=16),
                                  shard_size=2)
        (root / "manifest.json").write_text('[{"shards": []}]')
        return root

    @pytest.mark.parametrize("command", [
        ["data", "stats"], ["data", "verify"],
        ["eval", "run", "--baseline", "placement-copy", "--store"],
    ], ids=["data-stats", "data-verify", "eval-run"])
    def test_store_commands_exit_with_error(self, store_dir, command):
        with pytest.raises(SystemExit, match="error: .*manifest.json"):
            main(command + [str(store_dir)])

    @pytest.mark.parametrize("manifest", [None, '{"shards": "abc"}'],
                             ids=["missing", "malformed"])
    def test_train_run_exits_with_error(self, tmp_path, manifest):
        import json

        store_dir = tmp_path / "store"
        store_dir.mkdir()
        if manifest is not None:
            (store_dir / "manifest.json").write_text(manifest)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "r", "data": f"store:{store_dir}", "scale": "smoke",
            "epochs": 1, "order": "stream"}))
        with pytest.raises(SystemExit, match="error: .*manifest.json"):
            main(["train", "run", "--spec", str(spec),
                  "--runs", str(tmp_path / "runs")])
