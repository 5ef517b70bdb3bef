"""Run orchestration: specs in, self-describing run directories out.

A :class:`Runner` executes a :class:`~repro.train.spec.TrainSpec` as a
sequence of phases (scratch training, then the optional strategy-2
fine-tune), pulling batches through :class:`~repro.train.loop.TrainLoop`
and persisting the full lifecycle into a **run directory**:

.. code-block:: text

    <run>/
      spec.json          # the manifest this run re-materializes from
      status.json        # mutable progress (epoch, losses, best, timing)
      losses.jsonl       # one line per optimizer step + per epoch fold
      evals.jsonl        # eval-hook metric passes
      trace.jsonl        # timing spans (train.step/epoch/eval/checkpoint,
                         # plus data.* spans of a store-backed run)
      checkpoints/       # exact-resume train states + latest.json
      export/            # finished checkpoints in the serve registry
                         # format (Pix2Pix.save .npz)

Checkpoints capture weights, BatchNorm running stats, flat-Adam moments
and step counts, dropout rng streams, the sample-order state, and the
loader cursor — so ``Runner.resume(run_dir).run()`` continues a killed
run **bitwise-identically**: final weights and ``losses.jsonl`` match an
uninterrupted run byte for byte.  Timing and other non-deterministic
facts live only in ``status.json`` and ``trace.jsonl``, never in the
compared artifacts; the trace is append-only and observational (it is
neither truncated on resume nor consulted by any training decision), so
a run traced into its directory and one built with ``tracer=Tracer(None)``
produce byte-identical model artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.gan.dataset import Dataset, from_unit_range
from repro.gan.pix2pix import Pix2Pix, Pix2PixConfig
from repro.train.checkpoint import (
    TrainCursor,
    load_train_state,
    save_train_state,
)
from repro.train.loop import (
    BatchSource,
    EpochStats,
    LoaderSource,
    ShuffledDatasetSource,
    StopTraining,
    TrainHistory,
    TrainLoop,
)
from repro.train.spec import TrainSpec

from repro.obs.trace import Tracer, get_tracer, set_tracer

# Artifact names shared with the stdlib-only status reader live there —
# one definition, and this import direction keeps status numpy-free.
from repro.train.status import (
    EVALS_NAME,
    LOSSES_NAME,
    SPEC_NAME,
    STATUS_NAME,
    TRACE_NAME,
)

CHECKPOINT_DIR = "checkpoints"
EXPORT_DIR = "export"
LATEST_NAME = "latest.json"


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_line(document: dict) -> str:
    """One deterministic JSONL line (sorted keys, shortest-repr floats)."""
    return json.dumps(document, sort_keys=True) + "\n"


@dataclass
class PhasePlan:
    """One phase of a run: a source, an epoch budget, an lr damping."""

    name: str
    source: BatchSource
    epochs: int
    lr_scale: float = 1.0


@dataclass
class RunResult:
    """What one ``Runner.run()`` invocation did."""

    status: str                        # "completed" | "interrupted"
    run_dir: Path | None
    global_step: int
    histories: dict[str, TrainHistory] = field(default_factory=dict)
    evals: list[dict] = field(default_factory=list)
    best_value: float | None = None
    best_epoch: int | None = None
    exported: list[Path] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class Runner:
    """Execute (and resume) one training run."""

    def __init__(self, spec: TrainSpec, run_dir: str | Path | None = None, *,
                 dataset: Dataset | None = None,
                 finetune_dataset: Dataset | None = None,
                 eval_dataset: Dataset | None = None,
                 log=None, tracer: Tracer | None = None, metrics=None,
                 _fresh: bool = True):
        self.spec = spec
        self.scale = spec.resolve_scale()
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.log = log
        self._store = None
        # Fleet metrics: a repro.obs.MetricsRegistry to count progress
        # into (sweep workers publish it cross-process).  Observational
        # only — nothing the training path reads back.
        self.metrics = metrics
        if metrics is not None:
            self._m_steps = metrics.counter(
                "train_steps_total", "Optimizer steps taken.")
            self._m_examples = metrics.counter(
                "train_examples_total", "Training examples consumed.")
            self._m_epochs = metrics.counter(
                "train_epochs_total", "Epochs folded.")
            self._m_evals = metrics.counter(
                "train_evals_total", "Eval passes run.")
            self._m_steps_per_sec = metrics.gauge(
                "train_steps_per_sec",
                "Steps per second over the last folded epoch.",
                agg="sum")
        self._step_started = 0.0
        self._epoch_steps = 0
        train_data, finetune_data, eval_data = self._resolve_datasets(
            dataset, finetune_dataset, eval_dataset)
        self.eval_dataset = eval_data
        self.model = Pix2Pix(self._model_config(train_data))
        self._base_lr = self.model.config.learning_rate
        self.phases = self._build_phases(train_data, finetune_data)
        self.cursor = TrainCursor()
        self._loss_sums = np.zeros(4)
        self._evals: list[dict] = []
        self._reference = None
        self._elapsed = 0.0
        self._run_started = 0.0
        self._resumed = False
        self._handles: dict[str, object] = {}
        self._spec_sha_cached: str | None = None
        if self.run_dir is not None:
            self._init_run_dir(fresh=_fresh)
        # Spans: an explicit tracer wins; a run directory records into
        # its own <run>/trace.jsonl, which run() opens and closes; with
        # neither, the process default (a no-op unless REPRO_TRACE is set).
        self._owns_trace = tracer is None and self.run_dir is not None
        self.tracer = tracer if tracer is not None else get_tracer()

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, spec: TrainSpec, root: str | Path, **kwargs) -> "Runner":
        """Start a fresh run at ``<root>/<spec.name>``.

        Refuses a directory that already holds a run manifest — resume
        those with :meth:`resume` instead of silently restarting them.
        """
        run_dir = Path(root) / spec.name
        if (run_dir / SPEC_NAME).exists():
            raise FileExistsError(
                f"{run_dir} already holds a run (spec.json exists); "
                f"use resume, or pick a different name")
        return cls(spec, run_dir, **kwargs)

    @classmethod
    def resume(cls, run_dir: str | Path, **kwargs) -> "Runner":
        """Reopen a run directory and restore its latest checkpoint."""
        run_dir = Path(run_dir)
        spec_path = run_dir / SPEC_NAME
        if not spec_path.exists():
            raise FileNotFoundError(f"{run_dir} is not a run directory "
                                    f"(no {SPEC_NAME})")
        spec = TrainSpec.load(spec_path)
        runner = cls(spec, run_dir, _fresh=False, **kwargs)
        runner._restore_latest()
        return runner

    def _spec_sha(self) -> str:
        # The manifest bytes on disk, not a re-serialization: an older
        # spec.json may hold keys from_dict drops, and its checkpoints
        # carry the hash of exactly those bytes.
        if self._spec_sha_cached is None:
            self._spec_sha_cached = hashlib.sha256(
                self._path(SPEC_NAME).read_bytes()).hexdigest()
        return self._spec_sha_cached

    def _model_config(self, train_data) -> Pix2PixConfig:
        if train_data is not None:
            image_size = int(train_data[0].x.shape[-1])
        else:
            image_size = int(self._store.image_size)
        return Pix2PixConfig.from_scale(
            self.scale, image_size=image_size, seed=self.spec.seed,
            **self.spec.model)

    def _resolve_datasets(self, dataset, finetune_dataset, eval_dataset):
        """(train, finetune, eval) datasets per the spec's data ref.

        A ``store:`` run whose spec needs no in-memory *training* split
        (stream order, no holdout, no fine-tune) stays fully streaming:
        the train dataset is ``None`` and batches come straight off the
        :class:`StreamingLoader`.  An eval hook never changes that —
        the training trajectory must be invariant under adding an
        observation-only hook — and never changes peak memory either:
        with no ``eval_dataset`` the hook streams the store's shards
        through :func:`repro.data.loader.iter_eval_batches`.
        """
        spec = self.spec
        if spec.data_kind == "inline":
            if dataset is None:
                raise ValueError("spec.data is 'inline': pass the training "
                                 "dataset to the Runner")
            full = dataset
        elif spec.data_kind == "archive":
            full = Dataset.load(spec.data_path)
        else:   # store
            from repro.data.store import ShardedStore

            self._store = ShardedStore.open(spec.data_path)
            needs_memory_train = (
                spec.order == "shuffle"
                or spec.holdout_design is not None
                or spec.finetune is not None)
            if not needs_memory_train:
                # eval_dataset None: _eval_pass streams off the store.
                return None, None, eval_dataset
            full = self._store.to_dataset()

        holdout = None
        if spec.holdout_design is not None:
            train, holdout = full.leave_one_out(spec.holdout_design)
        else:
            train = full
        if not train:
            raise ValueError("training split selected no samples")

        finetune = finetune_dataset
        eval_data = eval_dataset
        if spec.finetune is not None and finetune is None:
            design = spec.finetune_design()
            pool = (holdout if design == spec.holdout_design
                    and holdout is not None else full.of_design(design))
            if len(pool) < spec.finetune.pairs:
                raise ValueError(
                    f"finetune needs {spec.finetune.pairs} pairs of "
                    f"{design!r}, the dataset has {len(pool)}")
            finetune = pool[:spec.finetune.pairs]
            if eval_data is None:
                rest = pool[spec.finetune.pairs:]
                eval_data = rest if len(rest) else pool
        if eval_data is None:
            eval_data = holdout if holdout is not None else train
        return train, finetune, eval_data

    def _build_phases(self, train_data, finetune_data) -> list[PhasePlan]:
        spec = self.spec
        if spec.order == "shuffle":
            # One persistent rng shared by every phase, exactly like the
            # historical trainer sharing its rng across fit + fine_tune.
            order_rng = np.random.default_rng(spec.seed)
            train_source: BatchSource = ShuffledDatasetSource(
                train_data, order_rng)

            def finetune_source(ds: Dataset) -> BatchSource:
                return ShuffledDatasetSource(ds, order_rng)
        else:
            from repro.data.loader import MemoryLoader, StreamingLoader

            if train_data is None:
                train_source = LoaderSource(StreamingLoader(
                    self._store, batch_size=spec.batch_size,
                    seed=spec.seed, shuffle=True, augment=spec.augment))
            else:
                train_source = LoaderSource(MemoryLoader(
                    train_data, shard_size=spec.shard_size,
                    batch_size=spec.batch_size, seed=spec.seed,
                    shuffle=True, augment=spec.augment))

            def finetune_source(ds: Dataset) -> BatchSource:
                return LoaderSource(MemoryLoader(
                    ds, shard_size=spec.shard_size,
                    batch_size=spec.batch_size, seed=spec.seed,
                    shuffle=True, augment=spec.augment))
        phases = [PhasePlan("train", train_source, spec.total_epochs)]
        if spec.finetune is not None:
            phases.append(PhasePlan("finetune",
                                    finetune_source(finetune_data),
                                    spec.finetune.epochs,
                                    lr_scale=spec.finetune.lr_scale))
        return phases

    # -- run directory -------------------------------------------------------

    def _path(self, name: str) -> Path:
        assert self.run_dir is not None
        return self.run_dir / name

    def _init_run_dir(self, fresh: bool = True) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / CHECKPOINT_DIR).mkdir(exist_ok=True)
        (self.run_dir / EXPORT_DIR).mkdir(exist_ok=True)
        spec_path = self._path(SPEC_NAME)
        if fresh:
            # A fresh Runner over an existing directory *restarts* the
            # run: stale logs, checkpoints, and exports from the prior
            # occupant would otherwise interleave with (or outlive) the
            # new run's artifacts.  Resuming goes through resume(),
            # which preserves everything and restores the cursor.
            self._truncate_jsonl(LOSSES_NAME, 0)
            self._truncate_jsonl(EVALS_NAME, 0)
            # The trace restarts with the run too — a restarted run's
            # timeline must not interleave with its predecessor's.
            self._path(TRACE_NAME).unlink(missing_ok=True)
            for directory in (CHECKPOINT_DIR, EXPORT_DIR):
                for stale in (self.run_dir / directory).iterdir():
                    stale.unlink()
            status_path = self._path(STATUS_NAME)
            if status_path.exists():
                status_path.unlink()
            _atomic_write_text(spec_path, self.spec.to_json())
        elif not spec_path.exists():
            _atomic_write_text(spec_path, self.spec.to_json())

    def _restore_latest(self) -> None:
        latest_path = self._path(CHECKPOINT_DIR) / LATEST_NAME
        if not latest_path.exists():
            # Nothing checkpointed yet: rerun from scratch, dropping any
            # partial logs the dead run left behind.
            self._truncate_jsonl(LOSSES_NAME, 0)
            self._truncate_jsonl(EVALS_NAME, 0)
            return
        latest = json.loads(latest_path.read_text())
        ckpt = self._path(CHECKPOINT_DIR) / latest["file"]
        self.cursor, self._loss_sums = load_train_state(
            ckpt, self.model, spec_sha=self._spec_sha())
        self._truncate_jsonl(LOSSES_NAME, self.cursor.loss_lines)
        self._truncate_jsonl(EVALS_NAME, self.cursor.eval_lines)
        self._evals = self._read_jsonl(EVALS_NAME)
        self._elapsed = float(self._read_status().get("elapsed_seconds",
                                                      0.0))
        if self.cursor.order_state is not None and \
                self.cursor.phase < len(self.phases):
            self.phases[self.cursor.phase].source.restore_order_state(
                self.cursor.order_state)
        self._resumed = True

    def _truncate_jsonl(self, name: str, lines: int) -> None:
        path = self._path(name)
        if not path.exists():
            if lines:
                raise FileNotFoundError(
                    f"{path} is missing but the checkpoint expects "
                    f"{lines} lines")
            return
        kept = path.read_text().splitlines(keepends=True)[:lines]
        _atomic_write_text(path, "".join(kept))

    def _read_jsonl(self, name: str) -> list[dict]:
        path = self._path(name)
        if not path.exists():
            return []
        return [json.loads(line)
                for line in path.read_text().splitlines() if line]

    def _read_status(self) -> dict:
        path = self._path(STATUS_NAME)
        if not path.exists():
            return {}
        return json.loads(path.read_text())

    def _elapsed_now(self) -> float:
        return self._elapsed + (time.perf_counter() - self._run_started)

    def _write_status(self, state: str, phase: PhasePlan | None = None,
                      epoch: int | None = None,
                      averages=None, count: int | None = None) -> None:
        if self.run_dir is None:
            return
        document = {
            "name": self.spec.name,
            "state": state,
            "phases": [{"name": p.name, "epochs": p.epochs}
                       for p in self.phases],
            "phase": (phase.name if phase is not None else None),
            "epoch": epoch,
            "global_step": self.cursor.global_step,
            "elapsed_seconds": round(self._elapsed_now(), 3),
            "best": ({"metric": self.spec.eval.track,
                      "value": self.cursor.best_value,
                      "epoch": self.cursor.best_epoch}
                     if self.spec.eval is not None else None),
        }
        if averages is not None:
            document["last_losses"] = {
                "g_total": float(averages[0]), "g_gan": float(averages[1]),
                "g_l1": float(averages[2]), "d_total": float(averages[3]),
                "samples": count,
            }
        else:
            document["last_losses"] = self._read_status().get("last_losses")
        _atomic_write_text(self._path(STATUS_NAME),
                           json.dumps(document, indent=1, sort_keys=True)
                           + "\n")

    # -- logging -------------------------------------------------------------

    def _append_line(self, name: str, document: dict) -> None:
        """Append one line, through a handle held open across the run.

        The handle is opened lazily on first append (after any resume
        truncation) and flushed per line, so a killed process loses at
        most the unflushed tail — which resume truncates to the last
        checkpoint's line count anyway.
        """
        if self.run_dir is None:
            return
        handle = self._handles.get(name)
        if handle is None:
            handle = open(self._path(name), "a")
            self._handles[name] = handle
        handle.write(_json_line(document))
        handle.flush()

    def _close_handles(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    # -- checkpoints ---------------------------------------------------------

    def _checkpoint(self) -> Path | None:
        if self.run_dir is None:
            return None
        directory = self._path(CHECKPOINT_DIR)
        path = directory / f"step_{self.cursor.global_step:08d}.npz"
        with self.tracer.span("train.checkpoint",
                              step=self.cursor.global_step):
            save_train_state(path, self.model, self.cursor, self._loss_sums,
                             spec_sha=self._spec_sha())
            _atomic_write_text(
                directory / LATEST_NAME,
                json.dumps({"file": path.name,
                            "global_step": self.cursor.global_step}) + "\n")
            self._prune_checkpoints(directory, keep=path.name)
        return path

    def _prune_checkpoints(self, directory: Path, keep: str) -> None:
        files = sorted(directory.glob("step_*.npz"))
        excess = len(files) - self.spec.keep_checkpoints
        for path in files[:max(0, excess)]:
            if path.name != keep:
                path.unlink()

    # -- eval hook -----------------------------------------------------------

    def _eval_batches(self, batch_size: int):
        """Eval-order ``(x, y)`` batches: the eval dataset, or — for a
        fully streaming store run — the store itself, shard by shard."""
        if self.eval_dataset is not None:
            samples = list(self.eval_dataset)
            for start in range(0, len(samples), batch_size):
                chunk = samples[start:start + batch_size]
                yield (np.stack([sample.x for sample in chunk]),
                       np.stack([sample.y for sample in chunk]))
        else:
            from repro.data.loader import iter_eval_batches

            for x, y, _ in iter_eval_batches(self._store,
                                             batch_size=batch_size):
                yield x, y

    def _eval_pass(self, phase: PhasePlan, epoch: int) -> dict:
        from repro.eval.metrics import (
            aggregate,
            compute_per_sample,
            metric_suite,
        )

        from repro.obs.drift import ReferenceProfile, hotspot_scores

        spec_eval = self.spec.eval
        suite = metric_suite()
        count = 0
        parts: dict[str, list[np.ndarray]] = {name: [] for name in suite}
        scores: list[float] = []
        for x, y in self._eval_batches(spec_eval.batch_size):
            images = self.model.forecast(x)
            scores.extend(hotspot_scores(images))
            pred = np.moveaxis(images, -1, 1)
            target = from_unit_range(y)
            for name, values in compute_per_sample(pred, target,
                                                   suite).items():
                parts[name].append(values)
            count += x.shape[0]
        metrics = aggregate({name: np.concatenate(chunks)
                             for name, chunks in parts.items()})
        record = {"phase": phase.name, "epoch": epoch,
                  "num_samples": count, "metrics": metrics}
        # The drift reference: the distribution of hotspot scores this
        # model produces on held-out data.  Serve-side monitors compare
        # live traffic against it (repro.obs.drift).  Deterministic —
        # derived from the same forecasts the metrics above scored.
        self._reference = ReferenceProfile.from_scores(
            scores, meta={"name": self.spec.name, "phase": phase.name,
                          "epoch": epoch, "num_samples": count})
        if self.run_dir is not None:
            self._reference.save(self._path("reference.json"))
        if self.metrics is not None:
            self._m_evals.inc()
        tracked = metrics.get(spec_eval.track)
        if tracked is not None:
            better = (self.cursor.best_value is None
                      or (tracked < self.cursor.best_value
                          if spec_eval.mode == "min"
                          else tracked > self.cursor.best_value))
            if better:
                self.cursor.best_value = tracked
                self.cursor.best_epoch = epoch
                record["best"] = True
                if self.run_dir is not None and self.spec.publish:
                    self.model.save(self._path(EXPORT_DIR)
                                    / f"{self.spec.name}-best.npz")
                    self._reference.save(
                        self._path(EXPORT_DIR)
                        / f"{self.spec.name}-best-reference.json")
        return record

    # -- the run -------------------------------------------------------------

    def run(self, stop_after_steps: int | None = None,
            log_every: int | None = None, on_phase=None) -> RunResult:
        """Execute remaining phases; returns what this invocation did.

        ``stop_after_steps`` halts the run once ``global_step`` reaches
        that (absolute) count: the runner writes an exact-resume
        checkpoint at that step and returns ``status="interrupted"`` —
        the programmatic stand-in for a mid-run kill, used by the resume
        tests and the CI train-smoke job.  Histories cover only epochs
        completed by *this* invocation.

        ``on_phase(name, model)`` fires after each phase this invocation
        completes — the strategy experiments measure Acc.1 there,
        between scratch training and the fine-tune phase (inference
        only: a hook must not mutate training state).
        """
        if self._owns_trace:
            # Opened per call and closed on return: a continued run()
            # appends to the same file, and no handle outlives the call.
            self.tracer = Tracer(self._path(TRACE_NAME), flush_every=64)
        # While this run is active, its tracer doubles as the process
        # default, so subsystems that trace via get_tracer() — the data
        # loader and store, the eval runner — land their spans in the
        # same trace.jsonl as the train.* spans (and a disabled tracer
        # silences them too).
        previous = set_tracer(self.tracer)
        try:
            return self._run(stop_after_steps, log_every, on_phase)
        finally:
            set_tracer(previous)
            if self._owns_trace:
                self.tracer.close()

    def _run(self, stop_after_steps: int | None,
             log_every: int | None, on_phase) -> RunResult:
        result = RunResult(status="completed", run_dir=self.run_dir,
                           global_step=self.cursor.global_step)
        if (stop_after_steps is not None
                and self.cursor.global_step >= stop_after_steps):
            result.status = "interrupted"
            return self._finish(result, None)
        self._run_started = time.perf_counter()
        active: PhasePlan | None = None
        # An in-process continuation (run() again after StopTraining on
        # this same Runner) must rewind the sample-order rng to the state
        # the cursor was checkpointed with, exactly like a disk resume —
        # the live rng has already consumed the interrupted epoch's draw.
        initial_phase = self.cursor.phase
        initial_order_state = self.cursor.order_state
        try:
            for index in range(self.cursor.phase, len(self.phases)):
                phase = self.phases[index]
                active = phase
                self.cursor.phase = index
                if index == initial_phase and initial_order_state is not None:
                    phase.source.restore_order_state(initial_order_state)
                self.model.opt_g.lr = self._base_lr * phase.lr_scale
                self.model.opt_d.lr = self._base_lr * phase.lr_scale
                start_epoch = self.cursor.epoch
                start_step = self.cursor.step
                if start_epoch >= phase.epochs:
                    self._advance_phase()
                    continue
                if self.log is not None:
                    self.log(f"{self.spec.name}: phase {phase.name} "
                             f"({phase.epochs} epoch(s), "
                             f"{phase.source.num_samples} samples)")
                self._write_status("running", phase, start_epoch)
                self._step_started = time.perf_counter()
                self._epoch_steps = 0
                loop = TrainLoop(
                    self.model,
                    on_step=self._make_step_hook(phase, stop_after_steps),
                    on_epoch=self._make_epoch_hook(phase))
                history = loop.run(
                    phase.source, phase.epochs,
                    start_epoch=start_epoch, start_step=start_step,
                    start_stats=EpochStats(sums=self._loss_sums,
                                           count=self.cursor.loss_count),
                    log_every=log_every, log_samples=True)
                result.histories[phase.name] = history
                self._advance_phase()
                if on_phase is not None:
                    on_phase(phase.name, self.model)
        except StopTraining:
            result.status = "interrupted"
            self._elapsed = self._elapsed_now()
            self._write_status("interrupted", active, self.cursor.epoch)
            return self._finish(result, active)

        self._elapsed = self._elapsed_now()
        # Leave the optimizers at the base rate, exactly as the
        # trainer's fine_tune always restored it.
        self.model.opt_g.lr = self._base_lr
        self.model.opt_d.lr = self._base_lr
        self._checkpoint()
        if self.spec.publish and self.run_dir is not None:
            export = self._path(EXPORT_DIR) / f"{self.spec.name}.npz"
            self.model.save(export)
            result.exported.append(export)
            if self._reference is not None:
                # Sits next to the .npz so `repro serve` can auto-load
                # the drift reference for the model it registers.
                self._reference.save(self._path(EXPORT_DIR)
                                     / f"{self.spec.name}-reference.json")
            best = self._path(EXPORT_DIR) / f"{self.spec.name}-best.npz"
            if best.exists():
                result.exported.append(best)
        self._write_status("completed", active,
                           active.epochs if active is not None else None)
        return self._finish(result, active)

    def _finish(self, result: RunResult,
                active: PhasePlan | None) -> RunResult:
        self._close_handles()
        self.tracer.flush()
        result.global_step = self.cursor.global_step
        result.evals = list(self._evals)
        result.best_value = self.cursor.best_value
        result.best_epoch = self.cursor.best_epoch
        return result

    def _final_epoch(self, phase: PhasePlan, epoch: int) -> bool:
        """Whether ``epoch`` is the run's last, whose end state the
        run-end checkpoint writes (so no hook writes it too)."""
        return phase is self.phases[-1] and epoch + 1 == phase.epochs

    def _advance_phase(self) -> None:
        self.cursor.phase += 1
        self.cursor.epoch = 0
        self.cursor.step = 0
        self.cursor.loss_count = 0
        self._loss_sums = np.zeros(4)

    def _make_step_hook(self, phase: PhasePlan,
                        stop_after_steps: int | None):
        spec = self.spec

        def on_step(epoch: int, step: int, losses, weight: int,
                    stats: EpochStats) -> None:
            cursor = self.cursor
            cursor.epoch = epoch
            cursor.step = step
            cursor.global_step += 1
            cursor.loss_count = stats.count
            self._loss_sums = stats.sums
            # Step wall time: batch fetch + train_step, measured as the
            # interval since the previous hook fired (or the epoch
            # boundary) on the same monotonic clock the loop uses.
            now = time.perf_counter()
            self._epoch_steps += 1
            if self.tracer.enabled:
                start_ns = int(self._step_started * 1e9)
                self.tracer.complete(
                    "train.step", start_ns, int(now * 1e9) - start_ns,
                    phase=phase.name, epoch=epoch, step=step)
            self._step_started = now
            if self.metrics is not None:
                self._m_steps.inc()
                self._m_examples.inc(weight)
            self._append_line(LOSSES_NAME, {
                "phase": phase.name, "epoch": epoch, "step": step,
                "samples": weight,
                "g_total": float(losses.g_total),
                "g_gan": float(losses.g_gan),
                "g_l1": float(losses.g_l1),
                "d_total": float(losses.d_total),
                "d_real": float(losses.d_real),
                "d_fake": float(losses.d_fake),
            })
            cursor.loss_lines += 1
            stopping = (stop_after_steps is not None
                        and cursor.global_step >= stop_after_steps)
            final = (self._final_epoch(phase, epoch)
                     and stats.count == phase.source.num_samples)
            if stopping or (spec.checkpoint_every_steps and not final
                            and cursor.global_step
                            % spec.checkpoint_every_steps == 0):
                cursor.order_state = phase.source.order_state()
                self._checkpoint()
            if stopping:
                raise StopTraining
        return on_step

    def _make_epoch_hook(self, phase: PhasePlan):
        spec = self.spec

        def on_epoch(epoch: int, averages, count: int,
                     seconds: float) -> None:
            cursor = self.cursor
            self._append_line(LOSSES_NAME, {
                "phase": phase.name, "epoch": epoch, "event": "epoch",
                "samples": count,
                "g_total": float(averages[0]), "g_gan": float(averages[1]),
                "g_l1": float(averages[2]), "d_total": float(averages[3]),
            })
            cursor.loss_lines += 1
            epoch_steps = self._epoch_steps
            if self.tracer.enabled:
                dur_ns = int(seconds * 1e9)
                self.tracer.complete(
                    "train.epoch", time.perf_counter_ns() - dur_ns, dur_ns,
                    phase=phase.name, epoch=epoch, steps=epoch_steps,
                    samples=count)
                # A status poll reads the newest epoch span off disk.
                self.tracer.flush()
            if self.metrics is not None:
                self._m_epochs.inc()
                self._m_steps_per_sec.set(
                    epoch_steps / seconds if seconds > 0 else 0.0)
            self._epoch_steps = 0
            # The epoch is folded: position the cursor at the next
            # epoch's start before any eval/checkpoint captures it.
            cursor.epoch = epoch + 1
            cursor.step = 0
            cursor.loss_count = 0
            self._loss_sums = np.zeros(4)
            phase.source.clear_epoch_snapshot()
            if (spec.eval is not None
                    and (epoch + 1) % spec.eval.every_epochs == 0):
                with self.tracer.span("train.eval", phase=phase.name,
                                      epoch=epoch):
                    record = self._eval_pass(phase, epoch)
                self._evals.append(record)
                self._append_line(EVALS_NAME, record)
                cursor.eval_lines += 1
            # A phase boundary always checkpoints, except the run's last:
            # the run-end checkpoint writes that state once.
            if not self._final_epoch(phase, epoch) and (
                    epoch + 1 == phase.epochs
                    or (epoch + 1) % spec.checkpoint_every_epochs == 0):
                cursor.order_state = phase.source.order_state()
                self._checkpoint()
            self._write_status("running", phase, epoch + 1, averages, count)
            # Next epoch's first step is measured from here — epoch-end
            # bookkeeping (eval, checkpoint, status) is its own timing.
            self._step_started = time.perf_counter()
        return on_epoch
