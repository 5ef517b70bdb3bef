"""Checkpoint serialization: round-trips and mismatch diagnostics."""

import io
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Adam, Conv2d, Sequential, BatchNorm2d
from repro.nn.serialize import (
    CheckpointError,
    HEADER_KEY,
    MODULE_STATE_FORMAT,
    load_optimizer_state_dict,
    load_state_dict,
    make_header,
    optimizer_state_dict,
    read_npz,
    rng_state_from_json,
    rng_state_to_json,
    save_state_dict,
    state_dict_mismatch,
    validate_state_dict,
    write_npz,
)
from tests.conftest import (TRAIN_STATE_DAMAGE, damage_train_state,
                            make_tiny_model)


def small_module(seed: int = 0) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(Conv2d(2, 4, rng=rng), BatchNorm2d(4),
                      Conv2d(4, 2, rng=rng))


class TestRoundTrip:
    def test_save_load_restores_output(self, tmp_path):
        module = small_module(seed=1)
        x = np.random.default_rng(0).normal(size=(1, 2, 8, 8)
                                            ).astype(np.float32)
        expected = module.forward_eval(x).copy()

        path = tmp_path / "module.npz"
        save_state_dict(module, path)
        restored = small_module(seed=2)
        load_state_dict(restored, path)
        np.testing.assert_array_equal(restored.forward_eval(x), expected)

    def test_buffers_round_trip(self, tmp_path):
        module = small_module(seed=1)
        module.forward(np.random.default_rng(0).normal(
            size=(2, 2, 8, 8)).astype(np.float32))   # moves running stats
        path = tmp_path / "module.npz"
        save_state_dict(module, path)
        restored = small_module(seed=2)
        load_state_dict(restored, path)
        np.testing.assert_array_equal(restored.layers[1].running_mean,
                                      module.layers[1].running_mean)


class TestMismatchDiagnostics:
    def test_mismatch_lists_both_directions(self):
        module = small_module()
        state = module.state_dict()
        del state["layers.0.weight"]
        state["bogus"] = np.zeros(1)
        missing, unexpected = state_dict_mismatch(module, state)
        assert missing == ["layers.0.weight"]
        assert unexpected == ["bogus"]

    def test_validate_names_every_bad_key(self):
        module = small_module()
        state = module.state_dict()
        del state["layers.0.weight"]
        del state["layers.1.running_mean"]
        state["bogus"] = np.zeros(1)
        with pytest.raises(ValueError) as excinfo:
            validate_state_dict(module, state)
        message = str(excinfo.value)
        assert "layers.0.weight" in message
        assert "layers.1.running_mean" in message
        assert "bogus" in message

    def test_validate_passes_on_exact_match(self):
        module = small_module()
        validate_state_dict(module, module.state_dict())

    def test_load_truncated_checkpoint_raises_value_error(self, tmp_path):
        module = small_module()
        state = module.state_dict()
        del state["layers.2.bias"]
        path = tmp_path / "truncated.npz"
        np.savez(path, **state)
        with pytest.raises(ValueError, match="layers.2.bias"):
            load_state_dict(small_module(), path)

    def test_load_foreign_checkpoint_raises_value_error(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, **{"totally.wrong": np.zeros(2)})
        with pytest.raises(ValueError, match="totally.wrong"):
            load_state_dict(small_module(), path)


class TestVersionedHeader:
    def test_archives_carry_the_header(self, tmp_path):
        module = small_module()
        path = tmp_path / "module.npz"
        save_state_dict(module, path)
        with np.load(path) as archive:
            assert HEADER_KEY in archive.files

    def test_legacy_headerless_archive_still_loads(self, tmp_path):
        module = small_module(seed=1)
        path = tmp_path / "legacy.npz"
        np.savez(path, **module.state_dict())   # pre-header format
        load_state_dict(small_module(seed=2), path)

    def test_wrong_format_named_in_error(self, tmp_path):
        path = tmp_path / "foreign.npz"
        write_npz(path, {"x": np.zeros(2)},
                  make_header("someone.elses-schema", 1))
        with pytest.raises(CheckpointError, match="someone.elses-schema"):
            read_npz(path, MODULE_STATE_FORMAT, 1)

    def test_future_version_rejected_with_guidance(self, tmp_path):
        path = tmp_path / "future.npz"
        write_npz(path, {"x": np.zeros(2)},
                  make_header(MODULE_STATE_FORMAT, 99))
        with pytest.raises(CheckpointError, match="version"):
            load_state_dict(small_module(), path)

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "list-header.npz"
        np.savez(path, **{"x": np.zeros(2), HEADER_KEY: np.array("[1, 2]")})
        with pytest.raises(CheckpointError, match="list-header.npz"):
            read_npz(path, MODULE_STATE_FORMAT, 1)

    def test_atomic_write_leaves_no_staging_file(self, tmp_path):
        write_npz(tmp_path / "out.npz", {"x": np.ones(3)},
                  make_header(MODULE_STATE_FORMAT, 1))
        assert [p.name for p in tmp_path.iterdir()] == ["out.npz"]


class TestOptimizerStateRoundTrip:
    def _trained_adam(self, seed: int):
        module = small_module(seed=seed)
        optimizer = Adam(module.parameters(), lr=1e-3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        for _ in range(3):
            optimizer.zero_grad()
            out = module.forward(x)
            module.backward(np.ones_like(out))
            optimizer.step()
        return module, optimizer, x

    def test_adam_moments_and_step_round_trip_bitwise(self):
        module_a, opt_a, x = self._trained_adam(seed=1)
        state = optimizer_state_dict(opt_a)
        assert set(state) == {"step", "exp_avg", "exp_avg_sq"}

        module_b = small_module(seed=1)
        module_b.load_state_dict(module_a.state_dict())
        opt_b = Adam(module_b.parameters(), lr=1e-3)
        load_optimizer_state_dict(opt_b, state)
        assert opt_b._step == opt_a._step

        for optimizer, module in ((opt_a, module_a), (opt_b, module_b)):
            optimizer.zero_grad()
            out = module.forward(x)
            module.backward(np.ones_like(out))
            optimizer.step()
        for (name, pa), (_, pb) in zip(module_a.named_parameters(),
                                       module_b.named_parameters()):
            np.testing.assert_array_equal(pb.data, pa.data, err_msg=name)

    def test_bn_running_stats_round_trip(self, tmp_path):
        module, _, _ = self._trained_adam(seed=1)
        bn = module.layers[1]
        assert not np.allclose(bn.running_mean, 0.0)   # stats moved
        path = tmp_path / "m.npz"
        save_state_dict(module, path)
        restored = small_module(seed=2)
        load_state_dict(restored, path)
        np.testing.assert_array_equal(restored.layers[1].running_mean,
                                      bn.running_mean)
        np.testing.assert_array_equal(restored.layers[1].running_var,
                                      bn.running_var)

    def test_size_mismatch_is_a_clear_error(self):
        _, optimizer, _ = self._trained_adam(seed=1)
        state = optimizer_state_dict(optimizer)
        state["exp_avg"] = state["exp_avg"][:-1]
        other = small_module(seed=1)
        fresh = Adam(other.parameters(), lr=1e-3)
        with pytest.raises(CheckpointError, match="exp_avg"):
            load_optimizer_state_dict(fresh, state)

    def test_missing_entry_is_a_clear_error(self):
        _, optimizer, _ = self._trained_adam(seed=1)
        state = optimizer_state_dict(optimizer)
        del state["exp_avg_sq"]
        other = small_module(seed=1)
        with pytest.raises(CheckpointError, match="exp_avg_sq"):
            load_optimizer_state_dict(Adam(other.parameters(), lr=1e-3),
                                      state)


class TestRngStateRoundTrip:
    def test_stream_resumes_mid_sequence(self):
        rng = np.random.default_rng(42)
        rng.random(10)
        captured = rng_state_to_json(rng)
        expected = rng.random(5)
        restored = np.random.default_rng(0)
        rng_state_from_json(restored, captured)
        np.testing.assert_array_equal(restored.random(5), expected)

    def test_bit_generator_mismatch_rejected(self):
        state = rng_state_to_json(np.random.default_rng(0))
        other = np.random.Generator(np.random.PCG64DXSM(0))
        with pytest.raises(CheckpointError, match="PCG64"):
            rng_state_from_json(other, state)


def corrupt_checkpoint(path, case: str) -> None:
    """Damage a saved Pix2Pix checkpoint in one of four ways."""
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        return
    with np.load(path) as archive:
        state = {name: archive[name] for name in archive.files}
    config = json.loads(str(state["config_json"]))
    config = {"config-list": [config],
              "config-unknown-key": {**config, "bogus": 1},
              "config-string-image-size": {**config, "image_size": "16"},
              }[case]
    state["config_json"] = np.array(json.dumps(config))
    np.savez(path, **state)


MALFORMED_CHECKPOINTS = ("truncated", "config-list", "config-unknown-key",
                         "config-string-image-size")


class TestPix2PixCheckpointValidation:
    @pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
    def test_load_rejects_malformed_checkpoint(self, tmp_path, tiny_model,
                                               case):
        from repro.gan import Pix2Pix

        path = tmp_path / "model.npz"
        tiny_model.save(path)
        corrupt_checkpoint(path, case)
        with pytest.raises(ValueError,
                           match="model.npz is not a Pix2Pix checkpoint"):
            Pix2Pix.load(path)

    def test_load_missing_file_is_not_found(self, tmp_path):
        from repro.gan import Pix2Pix

        with pytest.raises(FileNotFoundError):
            Pix2Pix.load(tmp_path / "nowhere.npz")

    def test_load_rejects_non_checkpoint(self, tmp_path):
        from repro.gan import Pix2Pix

        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ValueError, match="not a Pix2Pix checkpoint"):
            Pix2Pix.load(path)

    def test_load_rejects_truncated_checkpoint(self, tmp_path, tiny_model):
        path = tmp_path / "model.npz"
        tiny_model.save(path)
        with np.load(path) as archive:
            state = {name: archive[name] for name in archive.files}
        dropped = next(key for key in state if key.startswith("G."))
        del state[dropped]
        np.savez(tmp_path / "bad.npz", **state)

        from repro.gan import Pix2Pix

        with pytest.raises(ValueError, match=dropped[2:].replace(".", r"\.")):
            Pix2Pix.load(tmp_path / "bad.npz")

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path,
                                                       tiny_model,
                                                       monkeypatch):
        """A save that dies mid-write leaves the old file and no stage."""
        path = tmp_path / "model.npz"
        tiny_model.save(path)
        before = path.read_bytes()

        def torn_write(file, **arrays):
            # A few bytes into whatever numpy was handed: a path or a handle.
            torn = b"PK\x03\x04torn"
            if hasattr(file, "write"):
                file.write(torn)
            else:
                Path(file).write_bytes(torn)
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", torn_write)
        with pytest.raises(OSError, match="disk full"):
            tiny_model.save(path)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["model.npz"]

    def test_save_load_forecast_roundtrip(self, tmp_path, tiny_model):
        """Checkpoint -> restore -> forecast is bitwise-stable."""
        from repro.gan import Pix2Pix

        x = np.random.default_rng(0).normal(size=(4, 16, 16)
                                            ).astype(np.float32)
        expected = tiny_model.forecast(x)
        path = tmp_path / "model.npz"
        tiny_model.save(path)
        restored = Pix2Pix.load(path)
        np.testing.assert_array_equal(restored.forecast(x), expected)


ARCHIVE_KINDS = ("train-state", "pix2pix")


@pytest.fixture(scope="module")
def saved_archives(tmp_path_factory):
    """One tiny model saved as a train-state checkpoint and by
    ``Pix2Pix.save``, as ``<kind>.npz``."""
    from repro.train.checkpoint import TrainCursor, save_train_state
    from tests.conftest import make_tiny_model

    root = tmp_path_factory.mktemp("archives")
    model = make_tiny_model()
    save_train_state(root / "train-state.npz", model, TrainCursor(),
                     np.zeros(4))
    model.save(root / "pix2pix.npz")
    return root


def load_archive(kind: str, path) -> None:
    """Load ``path`` the way a resume (or a server) would."""
    from repro.gan import Pix2Pix
    from repro.train.checkpoint import load_train_state
    from tests.conftest import make_tiny_model

    if kind == "train-state":
        load_train_state(path, make_tiny_model(train_steps=0))
    else:
        Pix2Pix.load(path)


class TestDamagedTrainStateHeader:
    """A train-state header whose cursor or loss sums are unusable raises
    ``CheckpointError`` naming the file, before the model is touched."""

    @pytest.mark.parametrize("damage", sorted(TRAIN_STATE_DAMAGE))
    def test_refused_before_loading(self, saved_archives, tmp_path, damage):
        from repro.train.checkpoint import load_train_state

        path = tmp_path / "damaged.npz"
        path.write_bytes((saved_archives / "train-state.npz").read_bytes())
        damage_train_state(path, damage)
        model = make_tiny_model(train_steps=0)
        before = {name: value.copy()
                  for name, value in model.generator.state_dict().items()}
        with pytest.raises(CheckpointError, match="damaged.npz"):
            load_train_state(path, model)
        after = model.generator.state_dict()
        for name, value in before.items():
            np.testing.assert_array_equal(after[name], value, err_msg=name)


def damage_archive(data: bytes, damage: str) -> bytes:
    """Break an ``.npz`` archive's structure in one of three ways."""
    if damage == "unbalanced-npy-header":
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            members = {name: archive.read(name)
                       for name in archive.namelist()}
        header = b"{'descr': '<f4', 'shape': (1,\n"
        first = next(iter(members))
        members[first] = (b"\x93NUMPY\x01\x00"
                          + len(header).to_bytes(2, "little") + header)
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w") as archive:
            for name, blob in members.items():
                archive.writestr(name, blob)
        return out.getvalue()
    # The end-of-central-directory record points at the first entry.
    end = data.rindex(b"PK\x05\x06")
    entry = int.from_bytes(data[end + 16:end + 20], "little")
    damaged = bytearray(data)
    if damage == "encrypted-flag":
        damaged[entry + 8] |= 1
    else:                               # an unsupported compression method
        damaged[entry + 10:entry + 12] = (9).to_bytes(2, "little")
    return bytes(damaged)


class TestDamagedArchives:
    """A damaged checkpoint loads or raises ``ValueError``, never
    anything else: resume and serving map ``ValueError`` to a clean
    ``error:`` exit."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("kind", ARCHIVE_KINDS)
    def test_truncated_or_bit_flipped(self, saved_archives, kind, data):
        original = (saved_archives / f"{kind}.npz").read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            damaged = original[:data.draw(
                st.integers(0, len(original) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(original) - 1),
                            label="bit")
            damaged = bytearray(original)
            damaged[bit // 8] ^= 1 << (bit % 8)
        path = saved_archives / f"damaged-{kind}.npz"
        path.write_bytes(bytes(damaged))
        try:
            load_archive(kind, path)
        except ValueError:
            pass

    @pytest.mark.parametrize("damage", ["unbalanced-npy-header",
                                        "encrypted-flag",
                                        "unknown-compression"])
    @pytest.mark.parametrize("kind", ARCHIVE_KINDS)
    def test_structural_damage_names_the_file(self, saved_archives, tmp_path,
                                              kind, damage):
        path = tmp_path / "damaged.npz"
        path.write_bytes(damage_archive(
            (saved_archives / f"{kind}.npz").read_bytes(), damage))
        with pytest.raises(ValueError, match="damaged.npz"):
            load_archive(kind, path)
