"""Workspace-arena and fused-eval suite.

The workspace arena is the only memory path: every layer routes its large
temporaries through reused arena buffers, and its passes agree with the
plain float64 reference in ``tests/reference_forward.py``.  The fused
``forward_eval`` route (which folds conv + norm + activation and caches
folded weights) matches that reference within its documented tolerance,
and arena reuse across input shapes, dtypes and interleaved passes never
leaks state between calls.
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
    Workspace,
    col2im_bt,
    conv2d_output_size,
)
from tests.reference_forward import (
    ATOL,
    batch_norm,
    conv2d,
    conv_transpose2d,
    leaky_relu,
    reference_forward,
)

CONFIG = dict(image_size=16, base_filters=4, disc_filters=4, seed=3)


def tiny_model(**overrides) -> Pix2Pix:
    return Pix2Pix(Pix2PixConfig(**{**CONFIG, **overrides}))


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

    @pytest.mark.parametrize("layer", ["conv", "leaky_relu"])
    def test_slot_views_follow_the_requested_dtype(self, layer):
        """A float64 pass after float32 passes on a shared arena computes
        bitwise what a fresh layer computes: the arena must not hand back
        a cached float32 view and round the input."""
        def make():
            if layer == "leaky_relu":
                return LeakyReLU(0.2)
            conv = Conv2d(2, 3, rng=np.random.default_rng(0))
            conv.weight.data = conv.weight.data.astype(np.float64)
            conv.bias.data = conv.bias.data.astype(np.float64)
            return conv

        rng = np.random.default_rng(2)
        shared = make().attach_workspace(Workspace())
        for _ in range(3):
            shared.forward(rng.normal(size=(1, 2, 8, 8)).astype(np.float32))
        x = rng.normal(size=(1, 2, 8, 8))
        got = shared.forward(x)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, make().forward(x))


class TestLayerParity:
    """Arena-backed layers agree with the float64 reference ops.

    Input gradients go through the adjoint: a convolution's input
    gradient is the transposed convolution of the output gradient with
    the same weight, and vice versa.
    """

    @pytest.mark.parametrize("stride,pad", [(2, 1), (1, 1), (2, 0)])
    def test_conv2d_matches_reference(self, stride, pad):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        conv = Conv2d(3, 5, kernel=4, stride=stride, pad=pad,
                      rng=np.random.default_rng(1))
        conv.bias.data[...] = rng.normal(size=5)
        weight = conv.weight.data.astype(np.float64)
        out = conv.forward(x)
        np.testing.assert_allclose(
            out, conv2d(x, weight, conv.bias.data, stride, pad),
            rtol=0, atol=ATOL)
        np.testing.assert_array_equal(conv.forward_eval(x), out)
        grad = rng.normal(size=out.shape).astype(np.float32)
        np.testing.assert_allclose(
            conv.backward(grad),
            conv_transpose2d(grad, weight, np.zeros(3), stride, pad),
            rtol=0, atol=ATOL)
        np.testing.assert_allclose(conv.bias.grad, grad.sum(axis=(0, 2, 3)),
                                   rtol=1e-6)

    def test_conv_transpose2d_matches_reference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        conv = ConvTranspose2d(4, 3, rng=np.random.default_rng(4))
        conv.bias.data[...] = rng.normal(size=3)
        weight = conv.weight.data.astype(np.float64)
        out = conv.forward(x)
        np.testing.assert_allclose(
            out, conv_transpose2d(x, weight, conv.bias.data, 2, 1),
            rtol=0, atol=ATOL)
        np.testing.assert_array_equal(conv.forward_eval(x), out)
        grad = rng.normal(size=out.shape).astype(np.float32)
        np.testing.assert_allclose(
            conv.backward(grad), conv2d(grad, weight, np.zeros(4), 2, 1),
            rtol=0, atol=ATOL)

    def test_batchnorm_and_activation_match_reference(self):
        rng = np.random.default_rng(6)
        x = rng.normal(loc=1.0, size=(2, 4, 6, 6)).astype(np.float32)
        bn = BatchNorm2d(4)
        bn.gamma.data[...] = rng.normal(1.0, 0.1, size=4)
        bn.beta.data[...] = rng.normal(size=4)
        mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
        var = x.var(axis=(0, 2, 3), dtype=np.float64)
        np.testing.assert_allclose(
            bn.forward(x), batch_norm(x, bn.gamma.data, bn.beta.data,
                                      mean, var),
            rtol=0, atol=ATOL)
        np.testing.assert_allclose(
            bn.forward_eval(x),
            batch_norm(x, bn.gamma.data, bn.beta.data, bn.running_mean,
                       bn.running_var),
            rtol=0, atol=ATOL)
        act = LeakyReLU(0.2)
        want = leaky_relu(x.astype(np.float64), 0.2)
        np.testing.assert_allclose(act.forward(x), want, rtol=0,
                                   atol=ATOL)
        np.testing.assert_allclose(act.forward_eval(x), want, rtol=0,
                                   atol=ATOL)

    def test_conv_backward_can_skip_input_gradient(self):
        conv = Conv2d(3, 4, rng=np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(1, 3, 8, 8)).astype(
            np.float32)
        out = conv.forward(x)
        assert conv.backward(np.ones_like(out),
                             need_input_grad=False) is None
        assert float(np.abs(conv.weight.grad).sum()) > 0.0


class TestFusedEval:
    def test_forward_eval_matches_reference_within_tolerance(self):
        """BN folding reassociates float ops; drift stays within ATOL."""
        model = tiny_model()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 4, 16, 16)).astype(np.float32)
        model.train_step(x[:1], np.tanh(rng.normal(
            size=(1, 3, 16, 16))).astype(np.float32))
        np.testing.assert_allclose(model.forecast(x),
                                   reference_forward(model.generator, x),
                                   rtol=0, atol=ATOL)

    def test_forward_eval_matches_reference_on_spread_forecasts(self):
        """A tiny model's forecasts stay within 0.5 +- 0.02, which hides
        small folding errors under ATOL; five times its weights spread
        them over roughly [0.3, 0.8]."""
        model = tiny_model()
        for name, param in model.generator.named_parameters():
            if name.endswith("weight"):
                param.data *= 5
        model.workspace.generation += 1     # parameters changed in place
        x = np.random.default_rng(12).uniform(
            -1, 1, size=(4, 4, 16, 16)).astype(np.float32)
        forecast = model.forecast(x)
        assert np.ptp(forecast) > 0.3
        np.testing.assert_allclose(forecast,
                                   reference_forward(model.generator, x),
                                   rtol=0, atol=ATOL)

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
        before = model.forecast(x)
        model.train_step(x, y)          # bumps workspace.generation
        after = model.forecast(x)
        assert not np.array_equal(before, after)
        np.testing.assert_allclose(after,
                                   reference_forward(model.generator, x),
                                   rtol=0, atol=ATOL)

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
        """A forecast between training steps changes no training bit."""
        rng = np.random.default_rng(17)
        x = rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
        y = np.tanh(rng.normal(size=(1, 3, 16, 16))).astype(np.float32)
        a = tiny_model()
        b = tiny_model()
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
