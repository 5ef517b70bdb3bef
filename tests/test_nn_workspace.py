"""Workspace-arena and fused-eval parity suite.

The hot-path contract of PR 4: with a workspace attached, the layers
route every large temporary through reused arena buffers and the
training path computes *bitwise* the same results as the allocating
per-call path; the fused ``forward_eval`` route (which folds conv + norm
+ activation and caches folded weights) matches an eval-mode ``forward``
within tight tolerance; and arena reuse across different input shapes
never leaks state between calls.
"""

import numpy as np
import pytest

from repro.gan import Pix2Pix, Pix2PixConfig
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    LeakyReLU,
    Module,
    Sequential,
    Workspace,
    col2im_bt,
    conv2d_output_size,
)

CONFIG = dict(image_size=16, base_filters=4, disc_filters=4, seed=3)


def tiny_model(**overrides) -> Pix2Pix:
    return Pix2Pix(Pix2PixConfig(**{**CONFIG, **overrides}))


def detached(model: Pix2Pix) -> Pix2Pix:
    """Same model class, arena disabled — the legacy per-call path."""
    model.generator.attach_workspace(None)
    model.discriminator.attach_workspace(None)
    return model


class TestWorkspace:
    def test_buffer_identity_is_stable_across_acquisitions(self):
        ws = Workspace()
        owner = object()
        a = ws.buffer(owner, "x", (4, 5))
        b = ws.buffer(owner, "x", (4, 5))
        assert a is b

    def test_slots_are_private_per_owner_and_name(self):
        ws = Workspace()
        one, two = object(), object()
        a = ws.buffer(one, "x", (8,))
        b = ws.buffer(two, "x", (8,))
        c = ws.buffer(one, "y", (8,))
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, c)

    def test_backing_grows_to_high_water_mark(self):
        ws = Workspace()
        owner = object()
        small = ws.buffer(owner, "x", (4,))
        big = ws.buffer(owner, "x", (64,))
        again = ws.buffer(owner, "x", (64,))
        assert big.shape == (64,)
        assert again is big
        assert small.shape == (4,)
        assert ws.nbytes >= big.nbytes

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        owner = object()
        f = ws.buffer(owner, "x", (8,), np.float32)
        b = ws.buffer(owner, "x", (8,), bool)
        assert f.dtype == np.float32 and b.dtype == np.bool_

    def test_clear_drops_capacity(self):
        ws = Workspace()
        ws.buffer(object(), "x", (128,))
        assert ws.nbytes > 0
        ws.clear()
        assert ws.nbytes == 0 and ws.num_slots == 0

    def test_growth_invalidates_layer_view_memo(self):
        """After a slot reallocation the layer must re-fetch views — a
        stale memo would pin (and hand out) the orphaned backing."""
        module = Module()
        module.attach_workspace(Workspace())
        small = module._buf("x", (4,))
        big = module._buf("x", (64,))
        assert not np.shares_memory(small, big)   # old backing was dropped
        small_again = module._buf("x", (4,))
        assert np.shares_memory(small_again, big)

    def test_conv_preserves_float64_inputs(self):
        """Gradcheck-style float64 promotion must not be downcast by the
        arena's float32-default output buffers."""
        conv = Conv2d(2, 3, rng=np.random.default_rng(0))
        conv.weight.data = conv.weight.data.astype(np.float64)
        conv.bias.data = conv.bias.data.astype(np.float64)
        conv.attach_workspace(Workspace())
        x = np.random.default_rng(1).normal(size=(1, 2, 8, 8))
        out = conv.forward(x)
        assert out.dtype == np.float64


class TestLayerParity:
    """Arena-backed layers are bitwise the detached (allocating) path."""

    @pytest.mark.parametrize("stride,pad", [(2, 1), (1, 1), (2, 0)])
    def test_conv2d_forward_backward_bitwise(self, stride, pad):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        grad_shape = None
        outs = {}
        for arena in (False, True):
            conv = Conv2d(3, 5, kernel=4, stride=stride, pad=pad,
                          rng=np.random.default_rng(1))
            if arena:
                conv.attach_workspace(Workspace())
            out = conv.forward(x)
            grad_shape = out.shape
            grad = np.random.default_rng(2).normal(
                size=grad_shape).astype(np.float32)
            gin = conv.backward(grad)
            outs[arena] = (out.copy(), gin.copy(), conv.weight.grad.copy(),
                           conv.bias.grad.copy())
        for got, want in zip(outs[True], outs[False]):
            np.testing.assert_array_equal(got, want)

    def test_conv_transpose2d_forward_backward_bitwise(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        outs = {}
        for arena in (False, True):
            conv = ConvTranspose2d(4, 3, rng=np.random.default_rng(4))
            if arena:
                conv.attach_workspace(Workspace())
            out = conv.forward(x)
            grad = np.random.default_rng(5).normal(
                size=out.shape).astype(np.float32)
            gin = conv.backward(grad)
            outs[arena] = (out.copy(), gin.copy(), conv.weight.grad.copy())
        for got, want in zip(outs[True], outs[False]):
            np.testing.assert_array_equal(got, want)

    def test_batchnorm_and_activation_bitwise(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        grad = rng.normal(size=x.shape).astype(np.float32)
        outs = {}
        for arena in (False, True):
            block = Sequential(BatchNorm2d(4), LeakyReLU(0.2))
            if arena:
                block.attach_workspace(Workspace())
            out = block.forward(x)
            gin = block.backward(grad)
            outs[arena] = (out.copy(), gin.copy())
        np.testing.assert_array_equal(outs[True][0], outs[False][0])
        np.testing.assert_array_equal(outs[True][1], outs[False][1])

    def test_conv_backward_can_skip_input_gradient(self):
        conv = Conv2d(3, 4, rng=np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(1, 3, 8, 8)).astype(
            np.float32)
        out = conv.forward(x)
        assert conv.backward(np.ones_like(out),
                             need_input_grad=False) is None
        assert float(np.abs(conv.weight.grad).sum()) > 0.0


class TestTrainStepParity:
    def test_train_steps_match_detached_path_bitwise(self):
        """The arena changes memory reuse, never a single training bit."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
        y = np.tanh(rng.normal(size=(1, 3, 16, 16))).astype(np.float32)

        arena_model = tiny_model()
        legacy_model = detached(tiny_model())
        for _ in range(3):
            arena_losses = arena_model.train_step(x, y)
            legacy_losses = legacy_model.train_step(x, y)
            assert arena_losses.g_total == legacy_losses.g_total
            assert arena_losses.d_total == legacy_losses.d_total
        for (name, param), (_, ref) in zip(
                arena_model.generator.named_parameters(),
                legacy_model.generator.named_parameters()):
            np.testing.assert_array_equal(param.data, ref.data, err_msg=name)

    def test_forward_matches_detached_path_bitwise(self):
        x = np.random.default_rng(10).normal(
            size=(2, 4, 16, 16)).astype(np.float32)
        a = tiny_model()
        b = detached(tiny_model())
        np.testing.assert_array_equal(a.generator.forward(x),
                                      b.generator.forward(x))


class TestFusedEval:
    def test_forward_eval_matches_eval_forward_within_tolerance(self):
        """BN folding reassociates float ops; drift stays tiny."""
        model = tiny_model()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 4, 16, 16)).astype(np.float32)
        model.train_step(x[:1], np.tanh(rng.normal(
            size=(1, 3, 16, 16))).astype(np.float32))
        fused = model.generator.forward_eval(x)
        model.generator.eval()
        reference = model.generator.forward(x)
        model.generator.train(True)
        np.testing.assert_allclose(fused, reference, atol=1e-5, rtol=1e-5)

    def test_forward_eval_writes_no_gradient_caches(self):
        model = tiny_model()
        x = np.random.default_rng(12).normal(
            size=(1, 4, 16, 16)).astype(np.float32)
        model.generator.forward_eval(x)
        with pytest.raises(RuntimeError, match="backward called before"):
            model.generator.backward(np.zeros((1, 3, 16, 16), np.float32))

    def test_forward_eval_is_batch_invariant_bitwise(self):
        model = tiny_model()
        rng = np.random.default_rng(13)
        xb = rng.normal(size=(5, 4, 16, 16)).astype(np.float32)
        batched = model.generator.forward_eval(xb).copy()
        singles = np.concatenate([model.generator.forward_eval(xb[i:i + 1])
                                  for i in range(5)])
        np.testing.assert_array_equal(batched, singles)

    def test_fold_cache_invalidates_on_training(self):
        model = tiny_model()
        rng = np.random.default_rng(14)
        x = rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
        y = np.tanh(rng.normal(size=(1, 3, 16, 16))).astype(np.float32)
        before = model.generator.forward_eval(x).copy()
        model.train_step(x, y)          # bumps workspace.generation
        after = model.generator.forward_eval(x)
        assert not np.array_equal(before, after)
        model.generator.eval()
        reference = model.generator.forward(x)
        np.testing.assert_allclose(after, reference, atol=1e-5, rtol=1e-5)

    def test_fold_cache_invalidates_on_state_load(self):
        source = tiny_model(seed=21)
        target = tiny_model(seed=22)
        x = np.random.default_rng(15).normal(
            size=(1, 4, 16, 16)).astype(np.float32)
        target.generator.forward_eval(x)     # populate fold caches
        target.generator.load_state_dict(source.generator.state_dict())
        np.testing.assert_allclose(
            target.generator.forward_eval(x),
            source.generator.forward_eval(x), atol=1e-6)


class TestWorkspaceReuse:
    def test_alternating_shapes_do_not_cross_contaminate(self):
        """Two input shapes through one model: every result matches a
        fresh model's — the arena's shape-keyed buffers never leak."""
        model = tiny_model()
        rng = np.random.default_rng(16)
        one = rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
        three = rng.normal(size=(3, 4, 16, 16)).astype(np.float32)
        sequence = [one, three, one, three, one]
        got = [model.forecast(x).copy() for x in sequence]
        for x, result in zip(sequence, got):
            fresh = tiny_model().forecast(x)
            np.testing.assert_array_equal(result, fresh)

    def test_eval_between_forward_and_backward_keeps_gradients(self):
        """Inference between a layer's forward and backward must not
        clobber the gradient caches (eval owns separate arena slots)."""
        rng = np.random.default_rng(23)
        x = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        other = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        grads = {}
        for interleave in (False, True):
            conv = Conv2d(3, 4, rng=np.random.default_rng(24))
            conv.attach_workspace(Workspace())
            out = conv.forward(x)
            if interleave:
                conv.forward_eval(other)
            conv.backward(np.ones_like(out))
            grads[interleave] = conv.weight.grad.copy()
        np.testing.assert_array_equal(grads[True], grads[False])

        # Same guarantee through the whole generator: forecast mid-step.
        y = np.tanh(rng.normal(size=(1, 3, 16, 16))).astype(np.float32)
        x16 = rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
        a = tiny_model()
        b = tiny_model()
        fake_a = a.generator.forward(x16)
        fake_b = b.generator.forward(x16)
        a.forecast(x16)                      # fused eval mid-"step"
        a.generator.backward(np.ones_like(fake_a), need_input_grad=False)
        b.generator.backward(np.ones_like(fake_b), need_input_grad=False)
        for (name, param), (_, ref) in zip(
                a.generator.named_parameters(),
                b.generator.named_parameters()):
            np.testing.assert_array_equal(param.grad, ref.grad, err_msg=name)

    def test_train_after_eval_after_train_stays_consistent(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
        y = np.tanh(rng.normal(size=(1, 3, 16, 16))).astype(np.float32)
        a = tiny_model()
        b = detached(tiny_model())
        a.train_step(x, y)
        b.train_step(x, y)
        a.forecast(x)                       # interleave fused eval
        a.train_step(x, y)
        b.train_step(x, y)
        for (name, param), (_, ref) in zip(
                a.generator.named_parameters(),
                b.generator.named_parameters()):
            np.testing.assert_array_equal(param.data, ref.data, err_msg=name)

    def test_workspace_reports_capacity(self):
        model = tiny_model()
        x = np.random.default_rng(18).normal(
            size=(1, 4, 16, 16)).astype(np.float32)
        model.forecast(x)
        assert model.workspace.nbytes > 0
        assert model.workspace.num_slots > 0

    def test_peak_is_stable_over_repeated_forecasts(self, make_model):
        model = make_model(seed=9)
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(4, 4, 16, 16)).astype(np.float32)
        model.forecast(batch)
        peak = model.workspace.peak_nbytes
        assert peak >= model.workspace.nbytes > 0
        for _ in range(3):
            model.forecast(batch)
            assert model.workspace.peak_nbytes == peak


class TestScatterPlans:
    @pytest.mark.parametrize("geometry", [
        (1, 3, 8, 8, 4, 2, 1), (2, 5, 16, 12, 4, 2, 1),
        (1, 2, 7, 7, 4, 1, 1), (1, 4, 9, 9, 3, 2, 1),
        (3, 1, 6, 6, 2, 2, 0), (1, 3, 8, 8, 4, 4, 1),
        (2, 3, 16, 16, 6, 2, 2),
    ])
    def test_phase_plane_scatter_matches_col2im_bt(self, geometry):
        n, c, h, w, k, s, p = geometry
        out_h = conv2d_output_size(h, k, s, p)
        out_w = conv2d_output_size(w, k, s, p)
        rng = np.random.default_rng(sum(geometry))
        col_bt = rng.normal(size=(n, c * k * k, out_h * out_w)).astype(
            np.float32)
        reference = col2im_bt(col_bt.copy(), (n, c, h, w), k, s, p)
        module = Module()
        module.attach_workspace(Workspace())
        got = module._scatter_bt(col_bt, (n, c, h, w), k, s, p, "t")
        np.testing.assert_array_equal(got, reference)
        # Plan replay (cached views) must reproduce the result exactly.
        again = module._scatter_bt(col_bt, (n, c, h, w), k, s, p, "t")
        np.testing.assert_array_equal(again, reference)
