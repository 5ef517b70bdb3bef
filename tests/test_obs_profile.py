"""Profiler: zero-cost detach, per-layer stats, gemm accounting."""

import threading

import numpy as np
import pytest

from repro.nn import Conv2d, LeakyReLU, Module, Sequential, Workspace
from repro.obs import Profiler


class TwoConv(Module):
    """A tiny container: two convs and an activation, named by attribute."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.first = Conv2d(2, 4, kernel=3, stride=1, pad=1, rng=rng)
        self.act = LeakyReLU()
        self.second = Conv2d(4, 2, kernel=3, stride=1, pad=1, rng=rng)

    def forward(self, x):
        return self.second.forward(self.act.forward(self.first.forward(x)))


@pytest.fixture()
def batch():
    return np.random.default_rng(1).normal(
        size=(2, 2, 8, 8)).astype(np.float32)


class TestAttachDetach:
    def test_disabled_means_literally_absent(self, batch):
        """Detach must leave no shims behind: the instance dict is clean
        and calls dispatch straight to the class method again."""
        model = TwoConv()
        profiler = Profiler().attach(model)
        assert "forward" in vars(model.first)
        profiler.detach()
        for leaf in (model.first, model.act, model.second):
            for method in ("forward", "backward", "forward_eval"):
                assert method not in vars(leaf)
        assert model.first.forward.__func__ is Conv2d.forward
        model.forward(batch)  # still runs
        assert profiler.attached is False

    def test_profiled_output_is_bitwise_identical(self, batch):
        reference = TwoConv().forward(batch)
        model = TwoConv()
        with Profiler().attach(model):
            profiled = model.forward(batch)
        np.testing.assert_array_equal(profiled, reference)

    def test_double_attach_rejected(self):
        model = TwoConv()
        profiler = Profiler().attach(model)
        try:
            with pytest.raises(RuntimeError, match="already wrapped"):
                Profiler().attach(model)
        finally:
            profiler.detach()

    def test_context_manager_detaches_on_exception(self, batch):
        model = TwoConv()
        with pytest.raises(RuntimeError, match="sentinel"):
            with Profiler().attach(model):
                raise RuntimeError("sentinel")
        assert "forward" not in vars(model.first)


class TestStats:
    def test_per_layer_calls_and_paths(self, batch):
        model = TwoConv()
        with Profiler().attach(model, prefix="gen.") as profiler:
            model.forward(batch)
            model.forward(batch)
            snapshot = profiler.snapshot()
        layers = snapshot["layers"]
        assert set(layers) == {"gen.first", "gen.act", "gen.second"}
        assert layers["gen.first"]["forward"]["calls"] == 2
        assert layers["gen.first"]["forward"]["ms"] >= 0
        assert snapshot["totals"]["calls"] == 6

    def test_forward_gemm_counts(self, batch):
        model = TwoConv()
        with Profiler().attach(model) as profiler:
            model.forward(batch)
            snapshot = profiler.snapshot()
        assert snapshot["layers"]["first"]["forward"]["gemms"] == 1
        # Activations do no gemms.
        assert snapshot["layers"]["act"]["forward"]["gemms"] == 0
        assert snapshot["totals"]["gemms"] == 2

    def test_backward_skipping_input_grad_counts_one_gemm(self, batch):
        conv = Conv2d(2, 4, kernel=3, stride=1, pad=1,
                      rng=np.random.default_rng(0))
        with Profiler().attach(conv) as profiler:
            out = conv.forward(batch)
            conv.backward(np.ones_like(out))                        # 2 gemms
            conv.forward(batch)
            conv.backward(np.ones_like(out), need_input_grad=False)  # 1 gemm
            snapshot = profiler.snapshot()
        assert snapshot["layers"][""]["backward"]["gemms"] == 3

    def test_sequential_leaves_get_index_paths(self, batch):
        model = Sequential(
            Conv2d(2, 4, kernel=3, stride=1, pad=1,
                   rng=np.random.default_rng(0)),
            LeakyReLU(),
        )
        with Profiler().attach(model, prefix="d.") as profiler:
            model.forward(batch)
            layers = profiler.snapshot()["layers"]
        assert set(layers) == {"d.layers.0", "d.layers.1"}

    def test_reset_zeroes_accumulators(self, batch):
        model = TwoConv()
        with Profiler().attach(model) as profiler:
            model.forward(batch)
            profiler.reset()
            snapshot = profiler.snapshot()
        assert snapshot["totals"] == {"calls": 0, "ms": 0.0, "gemms": 0}

    def test_format_table_lists_slowest_first(self, batch):
        model = TwoConv()
        with Profiler().attach(model) as profiler:
            model.forward(batch)
            table = profiler.format_table()
        lines = table.splitlines()
        assert "layer" in lines[0] and "gemms" in lines[0]
        assert len(lines) == 4  # header + three active leaves

    def test_profiler_attributes_threads(self, make_model):
        model = make_model(seed=7)
        rng = np.random.default_rng(2)
        inputs = [rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
                  for _ in range(2)]
        profiler = Profiler()
        profiler.attach(model.generator, "G")
        try:
            workers = [threading.Thread(target=model.generator.forward_eval,
                                        args=(x,)) for x in inputs[:1]]
            model.generator.forward_eval(inputs[1])
            for worker in workers:
                worker.start()
                worker.join()
            snapshot = profiler.snapshot()
        finally:
            profiler.detach()
        per_thread = [t["calls"] for t in snapshot["threads"].values()]
        assert sum(per_thread) == snapshot["totals"]["calls"]
        assert sum(1 for calls in per_thread if calls) >= 2


class TestWorkspaceHighWater:
    def test_peak_tracks_high_water_and_survives_clear(self):
        workspace = Workspace()
        owner = object()
        workspace.buffer(owner, "big", (1024,), np.float32)
        peak = workspace.peak_nbytes
        assert peak >= 1024 * 4
        workspace.clear()
        assert workspace.nbytes == 0
        assert workspace.peak_nbytes == peak  # high-water survives clear

    def test_snapshot_embeds_workspace_bytes(self):
        workspace = Workspace()
        workspace.buffer(object(), "buf", (16,), np.float32)
        snapshot = Profiler().snapshot(workspace=workspace)
        assert snapshot["workspace"]["nbytes"] == workspace.nbytes
        assert snapshot["workspace"]["peak_nbytes"] == workspace.peak_nbytes
