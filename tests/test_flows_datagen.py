"""Dataset pipeline tests (Section 5 'Datasets')."""

import numpy as np
import pytest

from repro.config import SMOKE
from repro.flows import (
    build_design_bundle,
    build_suite_bundles,
    route_and_render,
    sweep_placer_options,
)
from repro.fpga import PlacerOptions, SimulatedAnnealingPlacer
from repro.fpga.generators import DesignSpec, scaled_suite


@pytest.fixture(scope="module")
def bundle():
    spec = scaled_suite(SMOKE)[0]
    return build_design_bundle(spec, SMOKE, num_placements=4, seed=1)


class TestOptionSweep:
    def test_count_and_unique_seeds(self):
        options = sweep_placer_options(10, base_seed=5)
        assert len(options) == 10
        assert len({o.seed for o in options}) == 10

    def test_sweeps_all_paper_options(self):
        options = sweep_placer_options(30)
        assert len({o.alpha_t for o in options}) > 1       # ALPHA_T
        assert len({o.inner_num for o in options}) > 1     # INNER_NUM
        assert len({o.place_algorithm for o in options}) > 1

    def test_deterministic(self):
        a = sweep_placer_options(6, base_seed=2)
        b = sweep_placer_options(6, base_seed=2)
        assert a == b

    def test_invalid_count_raises(self):
        with pytest.raises(ValueError):
            sweep_placer_options(0)


class TestBundle:
    def test_sample_count(self, bundle):
        assert len(bundle.dataset) == 4
        assert len(bundle.placements) == 4

    def test_input_target_shapes(self, bundle):
        size = bundle.layout.image_size
        for sample in bundle.dataset:
            assert sample.x.shape == (4, size, size)
            assert sample.y.shape == (3, size, size)
            assert sample.x.dtype == np.float32

    def test_values_in_tanh_range(self, bundle):
        for sample in bundle.dataset:
            assert sample.x.min() >= -1.0 and sample.x.max() <= 1.0
            assert sample.y.min() >= -1.0 and sample.y.max() <= 1.0

    def test_distinct_placements_distinct_images(self, bundle):
        xs = [sample.x for sample in bundle.dataset]
        assert not np.allclose(xs[0], xs[1])

    def test_congestion_recorded_and_positive(self, bundle):
        for sample in bundle.dataset:
            assert sample.true_congestion > 0
            assert sample.route_seconds > 0
            assert sample.place_seconds > 0

    def test_options_recorded(self, bundle):
        options = bundle.dataset[0].placer_options
        assert set(options) == {"seed", "alpha_t", "inner_num",
                                "place_algorithm"}

    def test_heatmap_consistent_with_recorded_congestion(self, bundle):
        """Decoding the rendered ground-truth image approximates the routed
        mean utilization (clipping makes it slightly lossy)."""
        from repro.gan.metrics import image_congestion_score

        sample = bundle.dataset[0]
        decoded = image_congestion_score(sample.y_image, bundle.channel_mask)
        assert decoded == pytest.approx(min(sample.true_congestion, 1.0),
                                        abs=0.08)

    def test_cache_roundtrip(self, tmp_path):
        spec = scaled_suite(SMOKE)[1]
        fresh = build_design_bundle(spec, SMOKE, num_placements=2, seed=3,
                                    cache_dir=tmp_path)
        cached = build_design_bundle(spec, SMOKE, num_placements=2, seed=3,
                                     cache_dir=tmp_path)
        assert len(cached.dataset) == len(fresh.dataset)
        np.testing.assert_allclose(cached.dataset[0].x, fresh.dataset[0].x)
        assert cached.channel_width == fresh.channel_width
        # Replayed placements must match the original sites.
        assert (cached.placements[0].site_of
                == fresh.placements[0].site_of)

    def test_cache_hit_anneals_only_to_size_channels(self, tmp_path,
                                                     monkeypatch):
        """A cache hit places nothing but the channel-sizing probe until
        ``placements`` is read."""
        spec = scaled_suite(SMOKE)[1]
        build_design_bundle(spec, SMOKE, num_placements=3, seed=3,
                            cache_dir=tmp_path)
        anneals = []
        place = SimulatedAnnealingPlacer.place

        def counting_place(placer, *args, **kwargs):
            anneals.append(placer)
            return place(placer, *args, **kwargs)

        monkeypatch.setattr(SimulatedAnnealingPlacer, "place", counting_place)
        cached = build_design_bundle(spec, SMOKE, num_placements=3, seed=3,
                                     cache_dir=tmp_path)
        assert len(anneals) <= 1
        assert len(cached.placements) == 3
        assert len(anneals) <= 4

    def test_replayed_placements_are_the_routed_ones(self, bundle):
        """Each lazily replayed placement has the sites its sample was
        routed and rendered from."""
        for sample, placement in zip(bundle.dataset, bundle.placements):
            _, routed = route_and_render(
                bundle, PlacerOptions(**sample.placer_options))
            assert placement.site_of == routed.site_of

    def test_cache_is_a_sharded_store(self, tmp_path):
        from repro.data import ShardedStore

        spec = scaled_suite(SMOKE)[1]
        build_design_bundle(spec, SMOKE, num_placements=2, seed=3,
                            cache_dir=tmp_path)
        stores = [p for p in tmp_path.iterdir()
                  if ShardedStore.is_store(p)]
        assert len(stores) == 1
        store = ShardedStore.open(stores[0])
        assert store.num_samples == 2
        assert "channel_width" in store.metadata
        assert store.verify() == []


class TestSweepLoop:
    def test_spawned_workers_match_serial_hashes(self, tmp_path,
                                                 monkeypatch):
        """The design context survives the pickle into spawned workers
        (the start method where fork is unavailable)."""
        import multiprocessing

        import repro.data.parallel as parallel
        from repro.data import build_design_store

        spec = scaled_suite(SMOKE)[0]
        serial = build_design_store(spec, SMOKE, tmp_path / "serial",
                                    num_placements=4, seed=3, shard_size=2)
        monkeypatch.setattr(parallel, "_pool_context",
                            lambda: multiprocessing.get_context("spawn"))
        spawned = build_design_store(spec, SMOKE, tmp_path / "spawned",
                                     num_placements=4, seed=3, workers=2,
                                     shard_size=2)
        assert spawned.sample_hashes == serial.sample_hashes


class TestSuiteBundles:
    def test_shared_image_size_and_subset(self):
        bundles = build_suite_bundles(SMOKE, num_placements=2, seed=1,
                                      designs=["diffeq1", "diffeq2"])
        assert set(bundles) == {"diffeq1", "diffeq2"}
        sizes = {b.layout.image_size for b in bundles.values()}
        assert len(sizes) == 1

    def test_unknown_design_raises(self):
        with pytest.raises(ValueError):
            build_suite_bundles(SMOKE, designs=["nonexistent"])
