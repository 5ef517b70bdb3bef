"""Neural-network layers with explicit forward/backward passes.

Every layer caches what it needs during ``forward`` and consumes the cache in
``backward``, returning the gradient with respect to its input while
accumulating parameter gradients in place.  This mirrors the define-by-run
style the paper's TensorFlow implementation relies on, without an autodiff
graph — which keeps each derivative small enough to verify by finite
differences (see ``tests/test_nn_gradcheck.py``).

Every module has two passes and one memory path:

* **Workspace arena** — every module owns a
  :class:`~repro.nn.workspace.Workspace` (a model shares one across its
  tree, see :meth:`Module.attach_workspace`) and routes its large
  temporaries (im2col matrices, gemm outputs, scatter images, activation
  masks) through per-layer arena slots instead of allocating per call.
  The arena contract: a layer's outputs and caches stay valid until that
  layer runs the same pass again, which the sequential train step and the
  serving engine's lanes (one thread per model copy, see
  :meth:`Module.inference_copy`) satisfy by construction.
* **Training and inference passes** — ``forward`` is the training pass
  (batch statistics, dropout, gradient caches).  :meth:`Module.forward_eval`
  is the only inference pass: running statistics, no dropout, no gradient
  caches, every intermediate in arena scratch, and conv + norm
  (+ activation) folded into single steps with the normalization
  collapsed into cached gemm weights.  Convolutions run their gemms per
  sample (stacked ``np.matmul``), so both passes are batch-invariant:
  batched forecasts are bitwise the batch-1 forecasts, which the serving
  engine's micro-batching and the golden eval report rely on.
"""

from __future__ import annotations

import types
from typing import Iterator

import numpy as np

from repro.nn.functional import (
    conv2d_output_size,
    conv_transpose2d_output_size,
    im2col,
    im2col_view,
    leaky_relu,
    leaky_relu_,
    pad2d,
)
from repro.nn.init import normal_init
from repro.nn.workspace import Workspace


class Parameter:
    """A learnable tensor and its accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Module:
    """Base class: tracks sub-modules and parameters via attribute scan."""

    def __init__(self):
        self._ws = Workspace()
        self._ws_views: dict[tuple, np.ndarray] = {}
        self._plans: dict[tuple, tuple] = {}
        self._zeroed_pads: dict[str, int] = {}
        self._ws_epoch = -1

    # -- graph traversal ---------------------------------------------------

    def children(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """(path, module) pairs for this module and every descendant.

        Paths mirror :meth:`named_parameters` (attribute names, list
        indices) so a layer's parameters and its profile stats line up.
        """
        yield prefix.rstrip("."), self
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Module):
                yield from value.named_modules(prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{key}.{index}.")

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield key, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{key}.{index}.")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        return int(sum(param.data.size for param in self.parameters()))

    # -- gradient management -----------------------------------------------

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- workspace ----------------------------------------------------------

    def attach_workspace(self, workspace: Workspace) -> "Module":
        """Share one scratch arena across this module's tree.

        Every module is built with an arena of its own; a model attaches
        one per tree so its byte accounting and parameter generation are
        one counter each.
        """
        self._ws = workspace
        self._ws_views = {}
        self._plans = {}
        self._zeroed_pads = {}
        self._ws_epoch = -1
        for child in self.children():
            child.attach_workspace(workspace)
        return self

    @property
    def workspace(self) -> Workspace:
        return self._ws

    def inference_copy(self) -> "Module":
        """A copy of this tree that another thread can ``forward_eval``.

        Same module tree and configuration; every module starts with an
        arena of its own (attach one across the copy, as a model does)
        and empty view, plan and padding memos.  Parameters and running
        statistics are *shared* read-only: ``forward_eval`` never writes
        them, so the two trees can run at once, and sharing costs neither
        memory nor copy time.  Per-pass state is not carried — any other
        attribute holding an array (activation caches, BatchNorm folds)
        starts as ``None`` — and neither is a method shimmed onto an
        instance (a profiler's), so the copy runs its class's methods on
        its own state.  Only ``forward_eval`` may run on the copy: its
        ``forward`` would write the shared running statistics.
        """
        copy = object.__new__(type(self))
        Module.__init__(copy)
        fresh = vars(copy)
        # A snapshot: a profiler may shim this module from another thread.
        for name, value in list(vars(self).items()):
            if name not in fresh and not isinstance(
                    value, (types.FunctionType, types.MethodType)):
                fresh[name] = _inference_value(name, value)
        return copy

    def _buf(self, name: str, shape: tuple[int, ...],
             dtype=np.float32) -> np.ndarray:
        """Arena scratch for slot ``name``.

        Acquired views are memoized per (name, shape, dtype) on the layer
        — the steady-state cost is one dict hit.  The memo (and the view
        plans built on top of it) is dropped whenever the workspace's
        backing epoch moves, so a slot reallocation never leaves stale
        views pinning orphaned buffers.
        """
        ws = self._ws
        if self._ws_epoch != ws.epoch:
            self._ws_views = {}
            self._plans = {}
            self._zeroed_pads = {}
            self._ws_epoch = ws.epoch
        key = (name, shape, dtype)
        view = self._ws_views.get(key)
        if view is None:
            view = ws.buffer(self, name, shape, dtype)
            self._ws_views[key] = view
        return view

    def _gather(self, src: np.ndarray, kernel: int, stride: int,
                col: np.ndarray) -> np.ndarray:
        """im2col gather from an arena-stable (already padded) source.

        The strided window view and the destination reshape are cached
        per (source, destination) identity — both are arena views, so a
        steady-state gather is a single ``np.copyto`` replay.
        """
        key = ("gather", id(src), src.shape, kernel, stride, id(col))
        plan = self._plans.get(key)
        if plan is None:
            view = im2col_view(src, kernel, stride)
            plan = (view, col.reshape(view.shape))
            self._plans[key] = plan
        view, dest = plan
        np.copyto(dest, view)
        return col

    def _pad_scratch(self, name: str, shape: tuple[int, ...],
                     dtype) -> tuple[np.ndarray, bool]:
        """Padding scratch plus whether its border still needs zeroing.

        The conv padding buffer's border is written only by the zero
        fill, so once a given view has been bordered it stays bordered —
        unless the slot served a different shape in between (the backing
        memory is shared, so another view's interior writes can land on
        this view's border).  Tracking the last-used view id per slot
        makes the skip exact.
        """
        buf = self._buf(name, shape, dtype)
        marker = id(buf)
        zero_border = self._zeroed_pads.get(name) != marker
        self._zeroed_pads[name] = marker
        return buf, zero_border

    def _scatter_bt(self, col_bt: np.ndarray,
                    x_shape: tuple[int, int, int, int], kernel: int,
                    stride: int, pad: int, name: str) -> np.ndarray:
        """:func:`~repro.nn.functional.col2im_bt` through a cached view plan.

        Two optimizations over the plain scatter, both value-preserving:

        * **View plans** — slicing the 2 x kernel^2 scatter views
          dominates the Python cost at small image sizes; the arena keeps
          every array identity-stable across calls, so views are built
          once and replayed.
        * **Phase planes** (``stride >= 2``) — accumulating directly into
          the strided image makes every add a stride-``s`` scatter.
          Splitting the padded image into its ``s x s`` sub-pixel parity
          planes turns all kernel^2 accumulations into contiguous-row
          adds, leaving only ``s^2`` strided interleave copies at the
          end (and a contiguous result).  Per-element accumulation order
          matches ``col2im_bt`` exactly, so the result is bitwise equal.
        """
        key = (id(col_bt), x_shape, kernel, stride, pad, name)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._build_scatter_plan(col_bt, x_shape, kernel,
                                            stride, pad, name)
            self._plans[key] = plan
        add_pairs, assign_pairs, fill, result = plan
        fill[...] = 0
        for dst, src in add_pairs:
            np.add(dst, src, out=dst)
        for dst, src in assign_pairs:
            dst[...] = src
        return result

    def _build_scatter_plan(self, col_bt: np.ndarray, x_shape, kernel: int,
                            stride: int, pad: int, name: str) -> tuple:
        n, c, h, w = x_shape
        out_h = conv2d_output_size(h, kernel, stride, pad)
        out_w = conv2d_output_size(w, kernel, stride, pad)
        colb = col_bt.reshape(n, c, kernel, kernel, out_h, out_w)
        if stride == 1:
            img = self._buf(name, (n, c, h + 2 * pad, w + 2 * pad),
                            col_bt.dtype)
            pairs = []
            for ky in range(kernel):
                for kx in range(kernel):
                    pairs.append((img[:, :, ky:ky + out_h, kx:kx + out_w],
                                  colb[:, :, ky, kx]))
            return (tuple(pairs), (), img,
                    img[:, :, pad:pad + h, pad:pad + w])
        # Phase planes: padded row p = py + stride * r lives on plane
        # (py, px) at (r, col); each kernel offset lands at a fixed plane
        # shift, so its add is a contiguous block.
        a_max = (kernel - 1) // stride
        # Rows: enough for every kernel-offset block AND for the deepest
        # interleave read (trailing padded-slop rows stay zero-filled).
        rows = max(out_h + a_max, (h - 1 + pad) // stride + 1)
        cols = max(out_w + a_max, (w - 1 + pad) // stride + 1)
        planes = self._buf(name + "ph", (n, c, stride, stride, rows, cols),
                           col_bt.dtype)
        out = self._buf(name, (n, c, h, w), col_bt.dtype)
        add_pairs = []
        for ky in range(kernel):
            py, a = ky % stride, ky // stride
            for kx in range(kernel):
                px, b = kx % stride, kx // stride
                add_pairs.append(
                    (planes[:, :, py, px, a:a + out_h, b:b + out_w],
                     colb[:, :, ky, kx]))
        assign_pairs = []
        for py in range(stride):
            q0 = (py - pad) % stride
            r0 = (q0 + pad - py) // stride
            ny = (h - q0 + stride - 1) // stride
            for px in range(stride):
                q0x = (px - pad) % stride
                c0 = (q0x + pad - px) // stride
                nx = (w - q0x + stride - 1) // stride
                assign_pairs.append(
                    (out[:, :, q0::stride, q0x::stride],
                     planes[:, :, py, px, r0:r0 + ny, c0:c0 + nx]))
        return (tuple(add_pairs), tuple(assign_pairs), planes, out)

    # -- state dict ----------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, value in self._named_buffers():
            state[name] = value.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        # Invalidate fused-weight caches.  A bare tree's modules each own
        # an arena, so bump every module's, not just ours.
        for _, module in self.named_modules():
            module._ws.generation += 1
        own = dict(self.named_parameters())
        buffers = dict(self._named_buffers())
        for name, value in state.items():
            if name in own:
                if own[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{own[name].data.shape} vs {value.shape}"
                    )
                own[name].data[...] = value
            elif name in buffers:
                buffers[name][...] = value
            else:
                raise KeyError(f"unexpected key in state dict: {name}")

    def _named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Module):
                yield from value._named_buffers(prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_buffers(prefix=f"{key}.{index}.")
            elif isinstance(value, np.ndarray) and name.startswith("running_"):
                yield key, value

    def named_rngs(self, prefix: str = ""
                   ) -> Iterator[tuple[str, np.random.Generator]]:
        """Every random generator reachable in the tree, by attribute path.

        These are the noise streams a training step consumes (dropout
        masks); exact-resume checkpoints capture and restore their
        bit-generator states through :mod:`repro.nn.serialize`.  Layers
        sharing one ``Generator`` instance yield it once per path.
        """
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Module):
                yield from value.named_rngs(prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_rngs(prefix=f"{key}.{index}.")
            elif isinstance(value, np.random.Generator):
                yield key, value

    # -- computation ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        """Inference pass: running statistics, no dropout, no gradient
        caches, arena scratch.

        Outputs stay valid only until the module's next inference pass,
        except where a subclass documents otherwise (``Tanh`` returns a
        caller-owned array, which is what makes generator outputs safe to
        hold).
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def _inference_value(name: str, value):
    """One attribute of :meth:`Module.inference_copy`'s copy."""
    if isinstance(value, Module):
        return value.inference_copy()
    if isinstance(value, Parameter) or name.startswith("running_"):
        return value
    if isinstance(value, np.ndarray):
        return None
    if isinstance(value, (list, tuple)):
        if any(isinstance(item, np.ndarray) for item in value):
            return None
        return type(value)(_inference_value(name, item) for item in value)
    return value


def _folded_bn_params(conv: Module, bn: "BatchNorm2d",
                      build_weights) -> tuple[np.ndarray, np.ndarray]:
    """Shared conv+BN weight-fold cache (Conv2d / ConvTranspose2d).

    ``y = bn(conv(x))`` with running statistics collapses to a single
    convolution with ``w' = w * s`` and ``b' = (b - mean) * s + beta``
    where ``s = gamma / sqrt(var + eps)`` — the normalization rides along
    in the gemm for free.  ``build_weights(scale)`` applies the scale on
    the layer's own weight axis.  Cached per workspace generation
    (training steps and state loads bump it).
    """
    gen = conv._ws.generation
    fold = conv._fold
    if fold is not None and fold[0] == gen and fold[1] == id(bn):
        return fold[2], fold[3]
    scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
    w_mat = build_weights(scale)
    bias = conv.bias.data if conv.bias is not None else 0.0
    b_vec = (bias - bn.running_mean) * scale + bn.beta.data
    # id(bn), not bn itself: a Module inside a tuple attribute would be
    # picked up by the parameter/child attribute scan.
    conv._fold = (gen, id(bn), w_mat, b_vec)
    return w_mat, b_vec


class Conv2d(Module):
    """Strided 2-D convolution (square kernel, symmetric zero padding).

    Both passes run their gemms as a *stacked per-sample transposed*
    product — ``out[i] = w @ col_i.T`` via one broadcast ``np.matmul``.
    Each sample sees an identical gemm shape whatever the batch size, so
    every forward (training included) is batch-invariant: stacking inputs
    yields bitwise the per-sample results, which the serving engine's
    micro-batching and the eval runner's batched scoring rely on.  The
    transposed layout also makes the output NCHW-contiguous (no transpose
    view for downstream layers) and feeds :func:`col2im_bt`'s fast
    scatter in backward.
    """

    #: Stacked-matmul calls per pass, consumed by ``repro.obs.profile``.
    #: ``backward`` runs weight-grad + input-grad gemms; the latter is
    #: skipped (count 1) when called with ``need_input_grad=False``.
    GEMM_COUNTS = {"forward": 1, "backward": 2, "forward_eval": 1,
                   "forward_eval_folded": 1}

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 4,
                 stride: int = 2, pad: int = 1, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.weight = Parameter(
            normal_init((out_channels, in_channels, kernel, kernel), rng)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        self._cache: tuple | None = None
        self._fold: tuple | None = None

    def _folded_params(self, bn: "BatchNorm2d") -> tuple[np.ndarray, np.ndarray]:
        """Weights/bias with the following BatchNorm folded in."""
        return _folded_bn_params(
            self, bn,
            lambda scale: self.weight.data.reshape(
                self.out_channels, -1) * scale[:, None])

    def forward_eval_folded(self, x: np.ndarray, bn: "BatchNorm2d",
                            act: "LeakyReLU | None" = None) -> np.ndarray:
        """Fused (activation +) conv + norm inference step.

        The BatchNorm collapses into the gemm weights (see
        :meth:`_folded_params`); a leading LeakyReLU, when given, writes
        its result directly into the interior of this layer's padding
        scratch — activation, padding, convolution, and normalization
        become one pass with no intermediate feature map.
        """
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        out_h = conv2d_output_size(h, self.kernel, self.stride, self.pad)
        out_w = conv2d_output_size(w, self.kernel, self.stride, self.pad)
        hw = out_h * out_w
        if act is not None and self.pad > 0:
            pad = self.pad
            pad_out, zero_border = self._pad_scratch(
                "epad", (n, c, h + 2 * pad, w + 2 * pad), x.dtype)
            if zero_border:
                pad_out[:, :, :pad, :] = 0
                pad_out[:, :, h + pad:, :] = 0
                pad_out[:, :, pad:h + pad, :pad] = 0
                pad_out[:, :, pad:h + pad, w + pad:] = 0
            leaky_relu(x, act.slope,
                       out=pad_out[:, :, pad:h + pad, pad:w + pad])
            col = self._buf("ecol", (n * hw, c * self.kernel * self.kernel),
                            x.dtype)
            self._gather(pad_out, self.kernel, self.stride, col)
        else:
            if act is not None:
                x = act.forward_eval(x)
            col = self._pack(x, n, c, out_h, out_w, eval_mode=True)
        if bn is not None:
            w_mat, b_vec = self._folded_params(bn)
        else:
            w_mat = self.weight.data.reshape(self.out_channels, -1)
            b_vec = self.bias.data if self.bias is not None else None
        out3 = self._buf("eout", (n, self.out_channels, hw),
                         np.result_type(w_mat, col))
        np.matmul(w_mat, col.reshape(n, hw, -1).transpose(0, 2, 1), out=out3)
        if b_vec is not None:
            out3 += b_vec[:, None]
        return out3.reshape(n, self.out_channels, out_h, out_w)

    def _pack(self, x: np.ndarray, n: int, c: int, out_h: int, out_w: int,
              eval_mode: bool = False) -> np.ndarray:
        """im2col into arena scratch (padding scratch included).

        Eval packs into its own slots ("ecol"/"epad"): the training
        forward's cached column matrix must survive an interleaved
        inference pass until backward consumes it.
        """
        col_name, pad_name = ("ecol", "epad") if eval_mode else ("col", "pad")
        col = self._buf(col_name, (n * out_h * out_w,
                                   c * self.kernel * self.kernel), x.dtype)
        if self.pad > 0:
            pad_out, zero_border = self._pad_scratch(
                pad_name, (n, c, x.shape[2] + 2 * self.pad,
                           x.shape[3] + 2 * self.pad), x.dtype)
            pad2d(x, self.pad, out=pad_out, zero_border=zero_border)
            return self._gather(pad_out, self.kernel, self.stride, col)
        return im2col(x, self.kernel, self.stride, self.pad, out=col)

    def _forward_impl(self, x: np.ndarray, cache: bool) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        out_h = conv2d_output_size(h, self.kernel, self.stride, self.pad)
        out_w = conv2d_output_size(w, self.kernel, self.stride, self.pad)
        hw = out_h * out_w
        col = self._pack(x, n, c, out_h, out_w, eval_mode=not cache)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out3 = self._buf("out" if cache else "eout",
                         (n, self.out_channels, hw),
                         np.result_type(w_mat, col))
        np.matmul(w_mat, col.reshape(n, hw, -1).transpose(0, 2, 1), out=out3)
        if self.bias is not None:
            out3 += self.bias.data[:, None]
        if cache:
            self._cache = (x.shape, col)
        return out3.reshape(n, self.out_channels, out_h, out_w)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward_impl(x, cache=True)

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        return self._forward_impl(x, cache=False)

    def backward(self, grad: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients; return the input gradient.

        ``need_input_grad=False`` skips the input-gradient gemm and
        scatter entirely (they are the most expensive part on the widest
        layers) — the training step uses this for first layers whose
        input gradient nobody consumes.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, col = self._cache
        if not grad.flags.c_contiguous:
            grad = np.ascontiguousarray(grad)
        n, _, out_h, out_w = grad.shape
        hw = out_h * out_w
        grad3 = grad.reshape(n, self.out_channels, hw)
        col3 = col.reshape(n, hw, -1)
        if n == 1:
            self.weight.grad += (grad3[0] @ col3[0]).reshape(
                self.weight.data.shape)
        else:
            # Per-sample partial products, then one cross-sample sum in
            # numpy's pairwise order.
            partials = self._buf("wgp", (n, self.out_channels,
                                         col3.shape[2]),
                                 np.result_type(grad3, col3))
            np.matmul(grad3, col3, out=partials)
            self.weight.grad += partials.sum(axis=0).reshape(
                self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 2, 3))
        if not need_input_grad:
            return None
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_col_bt = self._buf("gcolbt", (n, w_mat.shape[1], hw),
                                np.result_type(w_mat, grad))
        np.matmul(w_mat.T, grad3, out=grad_col_bt)
        return self._scatter_bt(grad_col_bt, x_shape, self.kernel,
                                self.stride, self.pad, "gimg")


class ConvTranspose2d(Module):
    """Transposed convolution (fractionally-strided), the U-Net upsampler.

    Forward here is exactly the backward-data pass of :class:`Conv2d`, and
    vice versa, which is the defining property of the transposed operator.
    Weight layout is ``(in_channels, out_channels, k, k)``.  As in
    :class:`Conv2d`, gemms run as stacked per-sample transposed products —
    batch-invariant by construction, reading an NCHW-contiguous input as
    per-sample ``(c, h*w)`` views with no flatten copy, and producing the
    layout :func:`col2im_bt` scatters fastest.
    """

    #: See :attr:`Conv2d.GEMM_COUNTS` — same pass-to-gemm accounting.
    GEMM_COUNTS = {"forward": 1, "backward": 2, "forward_eval": 1,
                   "forward_eval_folded": 1}

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 4,
                 stride: int = 2, pad: int = 1, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.weight = Parameter(
            normal_init((in_channels, out_channels, kernel, kernel), rng)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        self._cache: tuple | None = None
        self._fold: tuple | None = None

    def _forward_impl(self, x: np.ndarray, cache: bool,
                      w_mat: np.ndarray | None = None,
                      b_vec: np.ndarray | None = None) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        out_h = conv_transpose2d_output_size(h, self.kernel, self.stride, self.pad)
        out_w = conv_transpose2d_output_size(w, self.kernel, self.stride, self.pad)
        if not x.flags.c_contiguous:
            x = np.ascontiguousarray(x)
        x3 = x.reshape(n, c, h * w)
        if w_mat is None:
            w_mat = self.weight.data.reshape(self.in_channels, -1)
        # Eval keeps its own slots so an interleaved inference pass never
        # disturbs a pending forward's caches.
        col_bt = self._buf("colbt" if cache else "ecolbt",
                           (n, w_mat.shape[1], h * w),
                           np.result_type(w_mat, x))
        np.matmul(w_mat.T, x3, out=col_bt)
        out = self._scatter_bt(col_bt, (n, self.out_channels, out_h, out_w),
                               self.kernel, self.stride, self.pad,
                               "img" if cache else "eimg")
        if b_vec is not None:
            out += b_vec[None, :, None, None]
        elif self.bias is not None:
            out += self.bias.data[None, :, None, None]
        if cache:
            # x3 is a view into the producing layer's buffer; the arena
            # contract (valid until that layer's next forward) spans this
            # layer's backward, so no defensive copy is needed.
            self._cache = (x3, (n, h, w), (out_h, out_w))
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward_impl(x, cache=True)

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        return self._forward_impl(x, cache=False)

    def _folded_params(self, bn: "BatchNorm2d") -> tuple[np.ndarray, np.ndarray]:
        """Per-out-channel BN fold (see :func:`_folded_bn_params`)."""
        return _folded_bn_params(
            self, bn,
            lambda scale: (self.weight.data
                           * scale[None, :, None, None]).reshape(
                               self.in_channels, -1))

    def forward_eval_folded(self, x: np.ndarray,
                            bn: "BatchNorm2d") -> np.ndarray:
        """Fused transposed-conv+norm inference step."""
        w_mat, b_vec = self._folded_params(bn)
        return self._forward_impl(x, cache=False, w_mat=w_mat, b_vec=b_vec)

    def backward(self, grad: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x3, (n, h, w), _ = self._cache
        hw = h * w
        okk = grad.shape[1] * self.kernel * self.kernel
        grad_col = self._buf("gcol", (n * hw, okk), grad.dtype)
        if self.pad > 0:
            pad_out, zero_border = self._pad_scratch(
                "gpad", (n, grad.shape[1], grad.shape[2] + 2 * self.pad,
                         grad.shape[3] + 2 * self.pad), grad.dtype)
            pad2d(grad, self.pad, out=pad_out, zero_border=zero_border)
            self._gather(pad_out, self.kernel, self.stride, grad_col)
        else:
            im2col(grad, self.kernel, self.stride, self.pad, out=grad_col)
        gcol3 = grad_col.reshape(n, hw, okk)
        if n == 1:
            self.weight.grad += (x3[0] @ gcol3[0]).reshape(
                self.weight.data.shape)
        else:
            partials = self._buf("wgp", (n, self.in_channels, okk),
                                 np.result_type(x3, gcol3))
            np.matmul(x3, gcol3, out=partials)
            self.weight.grad += partials.sum(axis=0).reshape(
                self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 2, 3))
        if not need_input_grad:
            return None
        w_mat = self.weight.data.reshape(self.in_channels, -1)
        gx3 = self._buf("gx", (n, self.in_channels, hw),
                        np.result_type(w_mat, grad))
        np.matmul(w_mat, gcol3.transpose(0, 2, 1), out=gx3)
        return gx3.reshape(n, self.in_channels, h, w)


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel.

    With the paper's batch size of 1 this behaves like instance norm, which is
    the standard pix2pix regime.  ``forward`` normalizes with batch
    statistics and updates the running ones; ``forward_eval`` uses the
    running statistics.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        count = x.shape[0] * x.shape[2] * x.shape[3]
        mean = np.add.reduce(x, axis=(0, 2, 3))
        mean /= count
        # Reuse the centered activations for both the variance and x_hat:
        # same subtraction and reduction np.var performs, one pass fewer
        # over the data (bitwise-equal result).
        diff = np.subtract(x, mean[None, :, None, None],
                           out=self._buf("xhat", x.shape, x.dtype))
        sq = np.multiply(diff, diff, out=self._buf("sq", x.shape, x.dtype))
        var = np.add.reduce(sq, axis=(0, 2, 3))
        var /= count
        self.running_mean *= 1 - self.momentum
        self.running_mean += self.momentum * mean
        unbiased = var * count / max(count - 1, 1)
        self.running_var *= 1 - self.momentum
        self.running_var += self.momentum * unbiased
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = np.multiply(diff, inv_std[None, :, None, None], out=diff)
        out = np.multiply(x_hat, self.gamma.data[None, :, None, None],
                          out=self._buf("out", x.shape, x.dtype))
        out += self.beta.data[None, :, None, None]
        self._cache = (x_hat, inv_std)
        return out

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        out = np.subtract(x, self.running_mean[None, :, None, None],
                          out=self._buf("eout", x.shape, x.dtype))
        out *= inv_std[None, :, None, None]
        np.multiply(out, self.gamma.data[None, :, None, None], out=out)
        out += self.beta.data[None, :, None, None]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = self._cache
        self.gamma.grad += (grad * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad.sum(axis=(0, 2, 3))
        count = grad.shape[0] * grad.shape[2] * grad.shape[3]
        g = np.multiply(grad, self.gamma.data[None, :, None, None],
                        out=self._buf("g", grad.shape, grad.dtype))
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True).reshape(1, -1, 1, 1)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True).reshape(1, -1, 1, 1)
        gin = np.multiply(g, count, out=self._buf("gin", grad.shape,
                                                  grad.dtype))
        gin -= sum_g
        gin -= np.multiply(x_hat, sum_gx,
                           out=self._buf("gtmp", grad.shape, grad.dtype))
        gin *= inv_std[None, :, None, None] / count
        return gin


class LeakyReLU(Module):
    """LeakyReLU with configurable negative slope (pix2pix uses 0.2).

    Forward materializes a per-element *scale* in {1, slope} and returns
    ``x * scale``; backward is then a single multiply instead of the
    masked-select the ``np.where`` formulation needs (masked copies are
    the slow path in numpy).  Values are bitwise-identical to
    ``np.where(x >= 0, x, slope * x)`` — the constructor verifies the one
    rounding hazard, ``float32(slope) + float32(1 - slope) == 1`` exactly
    (it holds for the network's 0.2 and 0.0), and falls back to the
    mask-and-select form otherwise.
    """

    def __init__(self, slope: float = 0.2):
        super().__init__()
        self.slope = slope
        self._scale: np.ndarray | None = None
        self._mask: np.ndarray | None = None
        self._scale_exact = bool(
            np.float32(slope) + np.float32(1.0 - slope) == np.float32(1.0))

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = np.greater_equal(x, 0, out=self._buf("mask", x.shape, bool))
        if self._scale_exact:
            scale = np.multiply(mask, 1.0 - self.slope,
                                out=self._buf("scale", x.shape, x.dtype))
            scale += self.slope
            self._scale = scale
            self._mask = None
            return np.multiply(x, scale,
                               out=self._buf("out", x.shape, x.dtype))
        self._mask = mask
        self._scale = None
        return np.where(mask, x, self.slope * x)

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        # max(x, slope*x) — bitwise np.where(mask, x, slope*x), one pass.
        return leaky_relu(x, self.slope,
                          out=self._buf("eout", x.shape, x.dtype))

    def forward_eval_(self, x: np.ndarray) -> np.ndarray:
        """In-place eval activation for caller-owned scratch input."""
        return leaky_relu_(x, self.slope)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._scale is not None:
            return np.multiply(grad, self._scale,
                               out=self._buf("gout", grad.shape, grad.dtype))
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad, self.slope * grad)


class ReLU(LeakyReLU):
    """Standard ReLU (decoder activations)."""

    def __init__(self):
        super().__init__(slope=0.0)


class Tanh(Module):
    """Output activation: images are generated in [-1, 1].

    Always allocates its output: as the generator's final layer its result
    is handed to callers (and held across further passes), so it must not
    live in arena scratch.
    """

    def __init__(self):
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        out = self._out
        buf = np.multiply(out, out, out=self._buf("gin", grad.shape,
                                                  grad.dtype))
        np.subtract(1.0, buf, out=buf)
        np.multiply(grad, buf, out=buf)
        return buf


class Dropout(Module):
    """Inverted dropout.

    pix2pix injects its noise ``z`` purely through dropout in the decoder;
    running the generator's training ``forward`` at inference samples
    diverse outputs (``Pix2Pix.generate(sample_noise=True)``).
    ``forward_eval`` is the identity.
    """

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        # The float64 draw is deliberate: float32 draws consume the rng
        # stream differently and would change every seeded training run.
        mask = (self.rng.random(x.shape) < keep).astype(x.dtype)
        mask /= keep
        self._mask = mask
        return x * mask

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Sequential(Module):
    """Composes layers; backward runs them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> None:
        self.layers.append(layer)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def forward_eval(self, x: np.ndarray,
                     owns_input: bool = False) -> np.ndarray:
        """Fused inference pass: each stage consumes arena scratch.

        A convolution immediately followed by a BatchNorm runs as one
        folded step (the norm collapses into the conv weights — see
        ``Conv2d._folded_params``), and ``owns_input=True`` promises ``x``
        is caller-donated scratch (a dead intermediate such as a
        skip-concat buffer), letting a leading activation run in place
        instead of through its own buffer.
        """
        layers = self.layers
        count = len(layers)
        i = 0
        if owns_input and count and isinstance(layers[0], LeakyReLU):
            x = layers[0].forward_eval_(x)
            i = 1
        while i < count:
            layer = layers[i]
            nxt = layers[i + 1] if i + 1 < count else None
            if isinstance(layer, LeakyReLU) and isinstance(nxt, Conv2d):
                bn = (layers[i + 2]
                      if i + 2 < count
                      and isinstance(layers[i + 2], BatchNorm2d) else None)
                x = nxt.forward_eval_folded(x, bn, act=layer)
                i += 3 if bn is not None else 2
            elif (isinstance(layer, (Conv2d, ConvTranspose2d))
                    and isinstance(nxt, BatchNorm2d)):
                x = layer.forward_eval_folded(x, nxt)
                i += 2
            else:
                x = layer.forward_eval(x)
                i += 1
        return x

    def backward(self, grad: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray | None:
        """Reverse pass; ``need_input_grad=False`` lets a leading conv
        skip its (unused) input-gradient computation."""
        layers = self.layers
        for layer in reversed(layers[1:]):
            grad = layer.backward(grad)
        if not layers:
            return grad
        first = layers[0]
        if not need_input_grad and isinstance(first,
                                              (Conv2d, ConvTranspose2d)):
            return first.backward(grad, need_input_grad=False)
        return first.backward(grad)


class Concat(Module):
    """Channel-wise concatenation of two inputs (U-Net skip connections).

    ``forward`` takes a tuple; ``backward`` returns a tuple of gradients split
    at the recorded channel boundary.
    """

    def __init__(self):
        super().__init__()
        self._split: int | None = None

    def forward(self, pair) -> np.ndarray:  # type: ignore[override]
        a, b = pair
        if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
            raise ValueError(f"cannot concat shapes {a.shape} and {b.shape}")
        self._split = a.shape[1]
        return np.concatenate([a, b], axis=1)

    def forward_eval(self, pair) -> np.ndarray:  # type: ignore[override]
        a, b = pair
        if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
            raise ValueError(f"cannot concat shapes {a.shape} and {b.shape}")
        shape = (a.shape[0], a.shape[1] + b.shape[1]) + a.shape[2:]
        out = self._buf("eout", shape, a.dtype)
        np.concatenate([a, b], axis=1, out=out)
        return out

    def backward(self, grad: np.ndarray):  # type: ignore[override]
        if self._split is None:
            raise RuntimeError("backward called before forward")
        return grad[:, :self._split], grad[:, self._split:]
