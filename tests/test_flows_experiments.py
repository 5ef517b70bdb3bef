"""Experiment orchestration tests at smoke scale."""

import dataclasses

import numpy as np
import pytest

from repro.config import SMOKE, custom_scale
from repro.flows import (
    build_design_bundle,
    build_suite_bundles,
    live_forecast,
    measure_speedup,
    region_mask,
    run_ablation,
    run_exploration,
    run_grayscale_ablation,
    run_table2,
)
from repro.flows.experiments import ABLATION_VARIANTS, AblationResult
from repro.fpga import PlacerOptions
from repro.fpga.generators import scaled_suite
from repro.gan import Pix2Pix, Pix2PixConfig, Pix2PixTrainer
from repro.gan.dataset import Dataset


@pytest.fixture(scope="module")
def bundle():
    spec = scaled_suite(SMOKE)[2]
    return build_design_bundle(spec, SMOKE, num_placements=5, seed=2)


@pytest.fixture(scope="module")
def trainer(bundle):
    model = Pix2Pix(Pix2PixConfig.from_scale(
        SMOKE, image_size=bundle.layout.image_size, seed=0))
    trainer = Pix2PixTrainer(model, seed=0)
    trainer.fit(bundle.dataset, epochs=2)
    return trainer


class TestTable2:
    def test_rows_structure(self):
        bundles = build_suite_bundles(SMOKE, num_placements=3, seed=4,
                                      designs=["diffeq1", "diffeq2"])
        rows = run_table2(SMOKE, bundles=bundles)
        assert [row.design for row in rows] == ["diffeq1", "diffeq2"]
        for row in rows:
            assert 0.0 <= row.acc1 <= 1.0
            assert 0.0 <= row.acc2 <= 1.0
            assert 0.0 <= row.top10 <= 1.0
            assert row.num_placements == 3
            assert row.num_luts > 0

    def test_row_formatting(self):
        from repro.flows.experiments import Table2Row

        row = Table2Row("x", 100, 50, 200, 4, 0.5, 0.6, 0.75)
        header = Table2Row.header()
        line = row.format()
        assert "Acc.1" in header and "Top10" in header
        assert "50.0%" in line and "75%" in line


class TestAblation:
    def test_three_variants_trained(self, bundle):
        scale = custom_scale(SMOKE, epochs=2)
        results = run_ablation(scale, bundle, epochs=2, seed=0)
        assert set(results) == set(ABLATION_VARIANTS)
        for result in results.values():
            assert result.history.epochs == 2
            assert result.forecast01.shape == result.truth01.shape
            assert 0.0 <= result.accuracy <= 1.0

    def test_loss_roughness_of_constant_is_zero(self):
        assert AblationResult.loss_roughness([1.0, 1.0, 1.0, 1.0]) == 0.0

    def test_loss_roughness_detects_noise(self):
        smooth = [1.0, 0.9, 0.8, 0.7]
        noisy = [1.0, 0.2, 1.1, 0.1]
        assert (AblationResult.loss_roughness(noisy)
                > AblationResult.loss_roughness(smooth))

    def test_requires_two_samples(self, bundle):
        import dataclasses

        from repro.gan.dataset import Dataset

        tiny = dataclasses.replace(bundle,
                                   dataset=Dataset([bundle.dataset[0]]))
        with pytest.raises(ValueError):
            run_ablation(SMOKE, tiny, epochs=1)


class TestGrayscale:
    def test_comparison_fields(self, bundle):
        comparison = run_grayscale_ablation(SMOKE, bundle, epochs=1,
                                            holdout=1)
        assert 0.0 <= comparison.color_accuracy <= 1.0
        assert 0.0 <= comparison.gray_accuracy <= 1.0
        assert comparison.color_train_seconds > 0
        assert comparison.gray_infer_seconds > 0
        assert comparison.accuracy_drop == pytest.approx(
            comparison.color_accuracy - comparison.gray_accuracy)

    def test_grayscale_dataset_collapses_channels(self, bundle):
        from repro.flows.experiments import _grayscale_dataset

        gray = _grayscale_dataset(bundle.dataset)
        sample = gray[0]
        np.testing.assert_allclose(sample.x[0], sample.x[1], atol=1e-6)
        np.testing.assert_allclose(sample.x[1], sample.x[2], atol=1e-6)
        # Connectivity channel untouched.
        np.testing.assert_allclose(sample.x[3], bundle.dataset[0].x[3])


class TestExploration:
    def test_region_masks_partition(self):
        upper = region_mask(16, "upper")
        lower = region_mask(16, "lower")
        assert not (upper & lower).any()
        assert (upper | lower).all()
        assert region_mask(16, "overall").all()

    def test_unknown_region_raises(self):
        with pytest.raises(ValueError):
            region_mask(16, "diagonal")

    def test_outcomes_cover_figure9(self, bundle, trainer):
        outcome = run_exploration(bundle, trainer)
        names = [o.objective for o in outcome.outcomes]
        assert names == ["overall-max", "overall-min", "upper-min",
                         "lower-min", "right-min"]
        for obj in outcome.outcomes:
            assert 0 <= obj.chosen_index < len(bundle.dataset)
            assert obj.regret >= 0.0

    def test_max_objective_picks_higher_than_min(self, bundle, trainer):
        outcome = run_exploration(bundle, trainer)
        overall_max = outcome.by_objective("overall-max")
        overall_min = outcome.by_objective("overall-min")
        assert overall_max.predicted_score >= overall_min.predicted_score

    def test_by_objective_missing_raises(self, bundle, trainer):
        outcome = run_exploration(bundle, trainer)
        with pytest.raises(KeyError):
            outcome.by_objective("sideways-min")


class TestSpeedupAndRealtime:
    def test_speedup_positive(self, bundle, trainer):
        report = measure_speedup(bundle, trainer, repeats=2)
        assert report.speedup > 0
        assert report.mean_route_seconds > 0

    def test_speedup_times_routes_now(self, bundle, trainer):
        """The stored per-sample route times (a cached dataset's may come
        from an older router) do not enter the report."""
        stale = dataclasses.replace(bundle, dataset=Dataset([
            dataclasses.replace(sample, route_seconds=1e6)
            for sample in bundle.dataset]))
        report = measure_speedup(stale, trainer, repeats=1)
        assert 0 < report.mean_route_seconds < 60.0
        assert "placements" not in vars(stale)   # not every one annealed

    def test_live_forecast_produces_frames(self, bundle, trainer, tmp_path):
        frames = live_forecast(
            bundle, trainer.model,
            options=PlacerOptions(seed=5, alpha_t=0.5, inner_num=0.25,
                                  max_temperatures=6),
            snapshot_every=2, out_dir=tmp_path)
        assert len(frames) >= 2
        for frame in frames:
            assert frame.forecast.shape == (bundle.layout.image_size,
                                            bundle.layout.image_size, 3)
            assert frame.forecast_seconds > 0
            assert 0.0 <= frame.predicted_congestion <= 1.0
        pngs = list(tmp_path.glob("frame_*_forecast.png"))
        assert len(pngs) == len(frames)

    def test_frames_track_annealing_temperatures(self, bundle, trainer):
        frames = live_forecast(
            bundle, trainer.model,
            options=PlacerOptions(seed=5, alpha_t=0.5, inner_num=0.25,
                                  max_temperatures=8),
            snapshot_every=1)
        temps = [frame.temperature for frame in frames]
        assert all(b <= a for a, b in zip(temps, temps[1:]))

    def test_live_forecast_through_engine_matches_direct(self, bundle,
                                                         trainer):
        from repro.serve import BatchingEngine, ForecastCache, ModelRegistry

        options = PlacerOptions(seed=5, alpha_t=0.5, inner_num=0.25,
                                max_temperatures=6)
        direct = live_forecast(bundle, trainer.model, options=options,
                               snapshot_every=2)
        engine = BatchingEngine(ModelRegistry(), max_batch=4,
                                cache=ForecastCache(32))
        with engine:
            served = live_forecast(bundle, trainer.model, options=options,
                                   snapshot_every=2, engine=engine)
        assert len(served) == len(direct)
        for a, b in zip(direct, served):
            assert np.array_equal(a.forecast, b.forecast)
            assert a.predicted_congestion == b.predicted_congestion
        assert engine.stats()["requests"] == len(served)

    def test_live_forecast_requires_model_or_engine(self, bundle):
        with pytest.raises(ValueError, match="model"):
            live_forecast(bundle)

    def test_engine_path_serves_the_model_passed_not_a_stale_one(
            self, bundle):
        """A second live_forecast with a new model must not reuse the
        first call's 'realtime' registration."""
        from repro.serve import BatchingEngine, ModelRegistry

        size = bundle.layout.image_size
        model_a = Pix2Pix(Pix2PixConfig.from_scale(SMOKE, image_size=size,
                                                   seed=11))
        model_b = Pix2Pix(Pix2PixConfig.from_scale(SMOKE, image_size=size,
                                                   seed=12))
        options = PlacerOptions(seed=5, alpha_t=0.5, inner_num=0.25,
                                max_temperatures=4)
        with BatchingEngine(ModelRegistry(), max_batch=2) as engine:
            live_forecast(bundle, model_a, options=options, snapshot_every=2,
                          engine=engine)
            served = live_forecast(bundle, model_b, options=options,
                                   snapshot_every=2, engine=engine)
            # Repeating with model_a reuses its registration by identity.
            live_forecast(bundle, model_a, options=options, snapshot_every=2,
                          engine=engine)
        assert engine.registry.model_ids == ["realtime", "realtime-2"]
        direct = live_forecast(bundle, model_b, options=options,
                               snapshot_every=2)
        for a, b in zip(direct, served):
            assert np.array_equal(a.forecast, b.forecast)
