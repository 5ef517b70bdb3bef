"""TrainSpec tests: JSON round-trip, validation, scale capture."""

import pytest

from repro.config import SMOKE, custom_scale
from repro.train import EvalSpec, FinetuneSpec, TrainSpec, describe_scale


def full_spec() -> TrainSpec:
    return TrainSpec(
        name="full",
        data="store:/tmp/some-store",
        scale="smoke",
        seed=7,
        epochs=4,
        batch_size=2,
        order="stream",
        augment=True,
        shard_size=8,
        holdout_design="ode",
        model={"skip_mode": "single", "l1_weight": 10.0},
        scale_overrides={"epochs": 9},
        finetune=FinetuneSpec(epochs=2, pairs=3, lr_scale=0.5),
        eval=EvalSpec(every_epochs=2, batch_size=4),
        checkpoint_every_steps=5,
        keep_checkpoints=2,
        publish=False,
    )


class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        spec = full_spec()
        assert TrainSpec.from_json(spec.to_json()) == spec

    def test_minimal_round_trip(self):
        spec = TrainSpec(name="mini")
        assert TrainSpec.from_json(spec.to_json()) == spec
        assert spec.finetune is None and spec.eval is None

    def test_save_load_file(self, tmp_path):
        spec = full_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert TrainSpec.load(path) == spec

    def test_nested_specs_rehydrate_as_dataclasses(self):
        spec = TrainSpec.from_json(full_spec().to_json())
        assert isinstance(spec.finetune, FinetuneSpec)
        assert isinstance(spec.eval, EvalSpec)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_legacy_threads_key_is_dropped(self, threads):
        """Older specs and spool jobs carry a gemm-pool ``threads``
        width; it loads and does not survive re-serialization."""
        document = full_spec().to_dict()
        document["threads"] = threads
        spec = TrainSpec.from_dict(document)
        assert spec == full_spec()
        assert "threads" not in spec.to_dict()


class TestValidation:
    def test_unknown_field_fails_loudly(self):
        with pytest.raises(ValueError, match="epohcs"):
            TrainSpec.from_dict({"name": "x", "epohcs": 3})

    def test_unknown_nested_field_fails_loudly(self):
        with pytest.raises(ValueError, match="pears"):
            TrainSpec.from_dict({"name": "x", "finetune": {"pears": 2},
                                 "holdout_design": "d"})

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            TrainSpec(name="x", order="chaotic")

    def test_shuffle_order_requires_batch_one(self):
        with pytest.raises(ValueError, match="batch"):
            TrainSpec(name="x", order="shuffle", batch_size=4)

    def test_bad_data_ref_rejected(self):
        with pytest.raises(ValueError, match="data ref"):
            TrainSpec(name="x", data="database:/tmp/x")

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            TrainSpec(name="a/b")

    def test_unknown_scale_preset_rejected(self):
        with pytest.raises(ValueError, match="galactic"):
            TrainSpec(name="x", scale="galactic")

    def test_finetune_needs_a_design(self):
        with pytest.raises(ValueError, match="design"):
            TrainSpec(name="x", finetune=FinetuneSpec())

    def test_finetune_design_satisfied_by_holdout(self):
        spec = TrainSpec(name="x", holdout_design="ode",
                         finetune=FinetuneSpec())
        assert spec.finetune_design() == "ode"

    def test_explicit_finetune_design_wins(self):
        spec = TrainSpec(name="x", holdout_design="ode",
                         finetune=FinetuneSpec(design="fir"))
        assert spec.finetune_design() == "fir"


class TestResolution:
    def test_data_kind_and_path(self):
        spec = TrainSpec(name="x", data="store:/data/s1")
        assert spec.data_kind == "store"
        assert spec.data_path == "/data/s1"
        assert TrainSpec(name="y").data_kind == "inline"
        assert TrainSpec(name="y").data_path is None

    def test_total_epochs_defaults_to_scale(self):
        spec = TrainSpec(name="x", scale="smoke")
        assert spec.total_epochs == SMOKE.epochs
        assert TrainSpec(name="x", scale="smoke",
                         epochs=5).total_epochs == 5

    def test_scale_overrides_apply(self):
        spec = TrainSpec(name="x", scale="smoke",
                         scale_overrides={"epochs": 11})
        assert spec.resolve_scale().epochs == 11
        assert spec.total_epochs == 11


class TestDescribeScale:
    def test_preset_has_no_overrides(self):
        name, overrides = describe_scale(SMOKE)
        assert name == "smoke"
        assert overrides == {}

    def test_custom_scale_captured_exactly(self):
        scale = custom_scale(SMOKE, epochs=2, channel_width=9)
        name, overrides = describe_scale(scale)
        assert name == "smoke"
        assert overrides == {"epochs": 2, "channel_width": 9}
        spec = TrainSpec(name="x", scale=name, scale_overrides=overrides)
        assert spec.resolve_scale() == scale
