"""Edge cases and failure injection across module boundaries.

These tests target the seams: corrupted artifacts, degenerate sizes,
exhausted resources — the places where a production tool must fail loudly
instead of producing silently wrong experiment data.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.config import SMOKE
from repro.fpga import (
    Block,
    BlockType,
    DesignSpec,
    Net,
    Netlist,
    PathFinderRouter,
    Placement,
    PlacerOptions,
    RouterOptions,
    SimulatedAnnealingPlacer,
    generate_design,
    paper_architecture,
)
from repro.fpga.arch import FpgaArchitecture, Site
from repro.gan import Dataset, Pix2Pix, Pix2PixConfig, Pix2PixTrainer


class TestDatasetCorruption:
    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Dataset.load(tmp_path / "nope.npz")

    def test_load_truncated_file_raises(self, tmp_path):
        path = tmp_path / "broken.npz"
        path.write_bytes(b"PK\x03\x04 not a real zip")
        with pytest.raises(Exception):
            Dataset.load(path)

    def test_load_wrong_archive_raises(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, unrelated=np.zeros(3))
        with pytest.raises(KeyError):
            Dataset.load(path)


    def test_load_refuses_pickled_callables(self, tmp_path):
        """A ``meta`` that pickles a call raises before running it."""
        sentinel = tmp_path / "sentinel"

        class Touch:
            def __reduce__(self):
                return (Path.touch, (sentinel,))

        path = tmp_path / "crafted.npz"
        np.savez(path, meta=np.array([Touch()], dtype=object))
        with pytest.raises(ValueError, match="crafted.npz"):
            Dataset.load(path)
        assert not sentinel.exists()


class TestDegenerateNetlists:
    def test_single_net_design_routes(self):
        blocks = [Block(0, "in", BlockType.IO), Block(1, "c", BlockType.CLB)]
        nets = [Net(0, "n", 0, (1,))]
        netlist = Netlist("one", blocks, nets)
        arch = paper_architecture(4, channel_width=4)
        placement = Placement(netlist, arch, [Site(0, 1, 0), Site(1, 1)])
        result = PathFinderRouter(netlist, arch, placement).route()
        assert result.converged
        assert result.wirelength >= 1

    def test_netlist_with_no_nets_places(self):
        blocks = [Block(0, "c", BlockType.CLB)]
        netlist = Netlist("empty", blocks, [])
        arch = paper_architecture(4, channel_width=4)
        placer = SimulatedAnnealingPlacer(
            netlist, arch, PlacerOptions(seed=1, alpha_t=0.5,
                                         max_temperatures=3))
        result = placer.place()
        assert result.final_cost == 0.0
        result.placement.validate()

    def test_netlist_with_no_nets_routes_empty(self):
        blocks = [Block(0, "c", BlockType.CLB)]
        netlist = Netlist("empty", blocks, [])
        arch = paper_architecture(4, channel_width=4)
        placement = Placement(netlist, arch, [Site(1, 1)])
        result = PathFinderRouter(netlist, arch, placement).route()
        assert result.converged
        assert result.wirelength == 0

    def test_design_larger_than_architecture_rejected(self):
        spec = DesignSpec("big", 400, 100, 900)
        netlist = generate_design(spec, cluster_size=4, seed=0)
        arch = paper_architecture(4)  # far too small
        with pytest.raises(ValueError, match="sites"):
            Placement.random(netlist, arch, np.random.default_rng(0))


class TestRouterStress:
    def test_capacity_one_reports_overflow_not_crash(self):
        spec = DesignSpec("tight", 40, 10, 140)
        netlist = generate_design(spec, cluster_size=4, seed=2)
        from repro.fpga.generators import minimum_architecture_size

        width = minimum_architecture_size(netlist)
        arch = paper_architecture(width, channel_width=1)
        placement = Placement.random(netlist, arch,
                                     np.random.default_rng(1))
        result = PathFinderRouter(
            netlist, arch, placement,
            options=RouterOptions(max_iterations=3)).route()
        # Must terminate with honest overuse accounting either way.
        assert result.iterations <= 3
        if not result.converged:
            assert result.overuse > 0
        total_tree = sum(len(t) for t in result.net_trees.values())
        assert total_tree == result.occupancy.sum()

    def test_zero_history_single_iteration_is_pure_shortest_path(self):
        spec = DesignSpec("sp", 30, 8, 90)
        netlist = generate_design(spec, cluster_size=4, seed=3)
        from repro.fpga.generators import minimum_architecture_size

        arch = paper_architecture(minimum_architecture_size(netlist),
                                  channel_width=100)
        placement = Placement.random(netlist, arch,
                                     np.random.default_rng(2))
        a = PathFinderRouter(netlist, arch, placement,
                             options=RouterOptions(max_iterations=1)).route()
        b = PathFinderRouter(netlist, arch, placement,
                             options=RouterOptions(max_iterations=1)).route()
        np.testing.assert_array_equal(a.occupancy, b.occupancy)


class TestModelEdges:
    def test_trainer_rejects_inconsistent_image_sizes(self):
        model = Pix2Pix(Pix2PixConfig(image_size=16, base_filters=4,
                                      disc_filters=4))
        trainer = Pix2PixTrainer(model)
        from tests.conftest import make_sample

        wrong = Dataset([make_sample(size=32)])
        with pytest.raises(ValueError):
            trainer.fit(wrong, epochs=1)

    def test_minimum_unet_size(self):
        model = Pix2Pix(Pix2PixConfig(image_size=8, base_filters=2,
                                      disc_filters=2))
        x = np.zeros((1, 4, 8, 8), dtype=np.float32)
        assert model.generate(x).shape == (1, 3, 8, 8)

    def test_non_power_of_two_image_rejected(self):
        with pytest.raises(ValueError):
            Pix2Pix(Pix2PixConfig(image_size=48, base_filters=4,
                                  disc_filters=4))

    def test_batch_of_two_supported(self):
        """The paper uses batch 1, but the framework must not hard-code it."""
        model = Pix2Pix(Pix2PixConfig(image_size=16, base_filters=4,
                                      disc_filters=4))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 16, 16)).astype(np.float32)
        y = np.tanh(rng.normal(size=(2, 3, 16, 16))).astype(np.float32)
        losses = model.train_step(x, y)
        assert np.isfinite(losses.g_total)
        assert model.generate(x).shape == (2, 3, 16, 16)


class TestArchitectureEdges:
    def test_minimum_grid(self):
        arch = FpgaArchitecture(3, 3)
        assert arch.capacity(BlockType.CLB) == 9
        assert len(arch.io_sites) == 12 * arch.io_capacity

    def test_rectangular_grid(self):
        arch = FpgaArchitecture(6, 3, mem_columns=(3,))
        assert arch.capacity(BlockType.CLB) == 5 * 3
        from repro.fpga.router import ChannelGraph

        graph = ChannelGraph(arch)
        assert graph.num_h == 6 * 4
        assert graph.num_v == 7 * 3

    def test_tall_macro_fills_column(self):
        arch = FpgaArchitecture(5, 4, mem_columns=(2,), mem_height=4)
        assert [site.y for site in arch.mem_sites] == [1]

    def test_io_capacity_one(self):
        arch = FpgaArchitecture(4, 4, io_capacity=1)
        assert len(arch.io_sites) == 16
        assert arch.compatible(BlockType.IO, Site(0, 1, 0))
        assert not arch.compatible(BlockType.IO, Site(0, 1, 1))
