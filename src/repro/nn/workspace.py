"""Workspace arena: shape-keyed scratch buffers reused across passes.

Allocating the conv hot path's large temporaries (``im2col`` packing,
gemm outputs, ``col2im`` scatter images, activation masks) per call
would make the allocator churn rival the arithmetic at the repo's
reduced image scales.  A :class:`Workspace` is a per-model arena:
each layer acquires named scratch buffers through it, the arena keeps one
backing allocation per ``(owner, name, dtype)`` slot grown to its
high-water mark, and every later acquisition is a view into the same
memory.  Buffers therefore survive across forward/backward and across
training steps, and a served model reaches a steady state that allocates
nothing on the hot path.

Aliasing contract (the reason this is safe without reference counting):

* A slot is private to the layer that acquired it — two layers never
  share backing memory, so cross-layer data flow is unaffected.
* A buffer's contents are valid until the *same* layer runs the *same*
  pass again.  The training loop runs ``forward`` then ``backward`` to
  completion before the next forward, and the serving engine runs each
  model copy's forwards on one lane thread (a lane other than the first
  forwards on a copy with an arena of its own,
  :meth:`repro.nn.layers.Module.inference_copy`), so both satisfy the
  contract by construction.  Concurrent passes over one model are
  forbidden anyway (layers cache activations on ``self``).

The arena is the only memory path: every module builds a workspace of
its own, and a model shares one across its tree
(:meth:`repro.nn.layers.Module.attach_workspace`).  A bare layer's
outputs are therefore arena views too, valid only until that layer runs
the same pass again.
"""

from __future__ import annotations

import threading
from math import prod

import numpy as np


class _Slot:
    """One scratch slot: a flat backing buffer plus memoized shape views.

    The view cache is the fast path: a training loop acquires the same
    (shape, dtype) every step, so after the first step ``buffer`` is two
    dict hits — no ``reshape``, no size arithmetic.  Growing the backing
    buffer invalidates the cache (old views point at freed memory).
    """

    __slots__ = ("flat", "views")

    def __init__(self):
        self.flat: np.ndarray | None = None
        self.views: dict[tuple, np.ndarray] = {}


class Workspace:
    """Arena of named scratch buffers, keyed by owner and grown on demand.

    Not thread-safe: a workspace belongs to one model and one pass at a
    time, the same discipline the layers' activation caches already
    require.
    """

    def __init__(self):
        self._slots: dict[tuple[int, str], _Slot] = {}
        #: Parameter-state generation.  Bumped by every training step and
        #: state-dict load; derived caches keyed on parameters (the fused
        #: conv+norm weights of ``forward_eval``) use it for invalidation.
        #: Code that mutates parameters outside those paths must bump it
        #: manually.
        self.generation = 0
        #: Backing-buffer epoch.  Bumped whenever any slot reallocates its
        #: flat array; layer-side view/plan memos compare against it so a
        #: growth never leaves them pinning (and returning) orphaned
        #: backings.
        self.epoch = 0
        # Incremental byte accounting: kept in sync on every realloc so
        # observability reads are O(1), not a slot-table walk.  The lock
        # makes the decrement/increment/high-water triplet atomic: a
        # metrics thread (an engine's /metrics reader racing its worker)
        # must never observe the torn middle state where the old buffer
        # is subtracted but the new one not yet added.
        self._acct_lock = threading.Lock()
        self._live_bytes = 0
        self._peak_bytes = 0

    def buffer(self, owner: object, name: str, shape: tuple[int, ...],
               dtype=np.float32) -> np.ndarray:
        """A scratch array of ``shape`` backed by the slot's arena memory.

        The returned array is a contiguous view into a flat backing
        buffer that is reallocated only when a larger size is requested;
        contents are whatever the slot last held (callers overwrite).
        Different shapes acquired from one slot alias the same memory —
        a slot holds one live scratch at a time.
        """
        key = (id(owner), name)
        slot = self._slots.get(key)
        if slot is None:
            slot = _Slot()
            self._slots[key] = slot
        view = slot.views.get(shape)
        if view is not None and view.dtype == dtype:
            return view
        dt = np.dtype(dtype)
        size = prod(shape)
        flat = slot.flat
        if flat is None or flat.dtype != dt or flat.size < size:
            old_nbytes = flat.nbytes if flat is not None else 0
            flat = np.empty(max(size, 1), dtype=dt)
            slot.flat = flat
            slot.views = {}
            self.epoch += 1
            with self._acct_lock:
                self._live_bytes += flat.nbytes - old_nbytes
                if self._live_bytes > self._peak_bytes:
                    self._peak_bytes = self._live_bytes
        view = flat[:size].reshape(shape)
        slot.views[shape] = view
        return view

    @property
    def num_slots(self) -> int:
        return len(self._slots)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena (capacity, not live use).

        Iterates a snapshot of the slot table: observability callers
        (e.g. the serving engine's ``/metrics`` thread) may race the
        worker thread inserting new slots, and ``list()`` under the GIL
        is atomic where direct dict iteration would raise.
        """
        return sum(slot.flat.nbytes for slot in list(self._slots.values())
                   if slot.flat is not None)

    @property
    def peak_nbytes(self) -> int:
        """High-water arena bytes across the workspace's whole lifetime.

        Tracked incrementally on realloc (O(1) to read) and *not* reset
        by :meth:`clear` — the point is the worst case a run ever needed.
        """
        with self._acct_lock:
            return self._peak_bytes

    def clear(self) -> None:
        """Drop every backing buffer (e.g. before pickling a model)."""
        self._slots.clear()
        self.epoch += 1
        with self._acct_lock:
            self._live_bytes = 0
