"""Opt-in per-layer profiling for ``repro.nn`` models.

:class:`Profiler` wraps the compute methods (``forward``, ``backward``,
``forward_eval``, ``forward_eval_folded``) of every *leaf* module in a
model with a timing shim, accumulating per-layer call counts, wall time,
and gemm counts.  The wrap is per-instance: :meth:`Profiler.attach`
shadows the bound methods in the instance ``__dict__`` and
:meth:`Profiler.detach` deletes the shadows, so a model that is not
being profiled runs the original unwrapped methods — disabled profiling
is *literally absent*, not a branch on a flag.

Gemm counts come from a ``GEMM_COUNTS`` class attribute on the layer
(``{"forward": 1, "backward": 2, ...}`` on the conv layers); a conv
``backward(..., need_input_grad=False)`` skips its input-gradient gemm,
which the shim accounts for.  Workspace high-water bytes are read from
the arena's own ``peak_nbytes`` counter at snapshot time.

Accumulation is **thread-local**: each thread that executes profiled
methods (e.g. several serve worker threads sharing one profiler) writes
its own integer cells, registered once under a lock and merged at read
time — integer sums are order-independent, so a snapshot is
deterministic no matter how the work interleaved, and no increment is
ever lost to a torn read-modify-write.  Snapshots also attribute time
per thread.

This module is stdlib-only — it duck-types against ``repro.nn`` modules
without importing numpy, so ``repro.obs`` stays importable everywhere.
"""

from __future__ import annotations

import functools
import threading
import time

#: Compute methods a leaf module may define; wrapped when overridden.
PROFILED_METHODS = ("forward", "backward", "forward_eval",
                    "forward_eval_folded")


def _gemms_for(module, method: str, args: tuple, kwargs: dict) -> int:
    counts = getattr(type(module), "GEMM_COUNTS", None)
    if not counts:
        return 0
    gemms = counts.get(method, 0)
    if method == "backward" and gemms:
        need_input_grad = kwargs.get(
            "need_input_grad", args[1] if len(args) > 1 else True)
        if need_input_grad is False:
            gemms -= 1
    return gemms


class _Stat:
    __slots__ = ("calls", "ns", "gemms")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.gemms = 0


class Profiler:
    """Accumulate per-layer timing by shimming leaf-module methods."""

    def __init__(self):
        # Per-thread stat tables: thread-local handle for writers, plus
        # a registration list [(seq, thread name, table)] for readers.
        # Registration order is the only nondeterminism and it cannot
        # leak: merged values are integer sums.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, str, dict[tuple[str, str], _Stat]]] = []
        # (module, method name) -> True while shimmed, for clean detach
        self._wrapped: list[tuple[object, str]] = []
        self._attached_roots: list[object] = []

    def _thread_table(self) -> dict[tuple[str, str], _Stat]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {}
            self._local.table = table
            with self._lock:
                self._threads.append(
                    (len(self._threads), threading.current_thread().name,
                     table))
        return table

    def _merged(self) -> dict[tuple[str, str], _Stat]:
        """Stats summed across threads (deterministic: integer sums)."""
        with self._lock:
            tables = [table for _, _, table in self._threads]
        merged: dict[tuple[str, str], _Stat] = {}
        for table in tables:
            for key, stat in list(table.items()):
                into = merged.get(key)
                if into is None:
                    merged[key] = into = _Stat()
                into.calls += stat.calls
                into.ns += stat.ns
                into.gemms += stat.gemms
        return merged

    @property
    def attached(self) -> bool:
        return bool(self._wrapped)

    # -- attach / detach ---------------------------------------------------

    def attach(self, module, prefix: str = "") -> "Profiler":
        """Shim every leaf module under ``module`` (recursively).

        ``prefix`` names the root in the stats (useful when profiling
        generator and discriminator under one profiler).
        """
        self._attached_roots.append(module)
        base = type(module).__mro__[-2]  # the repro.nn Module base
        for path, leaf in _named_leaves(module, prefix):
            for method in PROFILED_METHODS:
                impl = getattr(type(leaf), method, None)
                if impl is None or impl is getattr(base, method, None):
                    continue  # the base-class stub, nothing to time
                if method in vars(leaf):
                    raise RuntimeError(
                        f"{path}.{method} already wrapped; nested attach "
                        f"of the same module is not supported")
                self._shim(leaf, path, method)
        return self

    def _shim(self, leaf, path: str, method: str) -> None:
        original = getattr(leaf, method)  # bound method
        key = (path, method)
        # Pre-register a zero entry on the attaching thread so wrapped-
        # but-never-called methods still appear in snapshots.
        self._thread_table().setdefault(key, _Stat())
        thread_table = self._thread_table
        perf_ns = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            table = thread_table()
            stat = table.get(key)
            if stat is None:
                stat = table.setdefault(key, _Stat())
            start = perf_ns()
            try:
                return original(*args, **kwargs)
            finally:
                stat.ns += perf_ns() - start
                stat.calls += 1
                stat.gemms += _gemms_for(leaf, method, args, kwargs)

        setattr(leaf, method, wrapper)
        self._wrapped.append((leaf, method))

    def detach(self) -> "Profiler":
        """Remove every shim, restoring the original class methods."""
        for leaf, method in self._wrapped:
            vars(leaf).pop(method, None)
        self._wrapped.clear()
        self._attached_roots.clear()
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.detach()
        return False

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            tables = [table for _, _, table in self._threads]
        for table in tables:
            for stat in list(table.values()):
                stat.calls = stat.ns = stat.gemms = 0

    def snapshot(self, workspace=None) -> dict:
        """Deterministically-ordered stats, plus arena bytes if given.

        ``layers``/``totals`` merge every executing thread's cells (sums
        of integers — order-independent, hence deterministic).  The
        ``threads`` section attributes wall time per executing thread.
        """
        layers: dict[str, dict] = {}
        totals = {"calls": 0, "ms": 0.0, "gemms": 0}
        for (path, method), stat in sorted(self._merged().items()):
            entry = layers.setdefault(path, {})
            entry[method] = {
                "calls": stat.calls,
                "ms": stat.ns / 1e6,
                "gemms": stat.gemms,
            }
            totals["calls"] += stat.calls
            totals["ms"] += stat.ns / 1e6
            totals["gemms"] += stat.gemms
        document = {"layers": layers, "totals": totals}
        with self._lock:
            registered = list(self._threads)
        threads = {}
        for seq, name, table in registered:
            calls = ns = 0
            for stat in list(table.values()):
                calls += stat.calls
                ns += stat.ns
            threads[f"{seq}:{name}"] = {"calls": calls, "ms": ns / 1e6}
        document["threads"] = threads
        if workspace is not None:
            document["workspace"] = {
                "nbytes": int(workspace.nbytes),
                "peak_nbytes": int(workspace.peak_nbytes),
            }
        return document

    def format_table(self, top: int = 0) -> str:
        """A plain-text per-layer table, slowest first."""
        rows = sorted(
            ((stat.ns, path, method, stat)
             for (path, method), stat in self._merged().items()
             if stat.calls),
            reverse=True)
        if top:
            rows = rows[:top]
        lines = [f"{'layer':<40} {'pass':<20} {'calls':>7} "
                 f"{'ms':>10} {'gemms':>7}"]
        for _, path, method, stat in rows:
            lines.append(f"{path:<40} {method:<20} {stat.calls:>7} "
                         f"{stat.ns / 1e6:>10.3f} {stat.gemms:>7}")
        return "\n".join(lines)


def _named_leaves(module, prefix: str):
    """(path, leaf) pairs for modules with no child modules."""
    for path, sub in module.named_modules(prefix):
        if not any(True for _ in sub.children()):
            yield path, sub
