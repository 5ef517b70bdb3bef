"""Dataset platform: sharded store, parallel generation, streaming loading.

* :mod:`repro.data.store` — fixed-size ``.npz`` shards plus a JSON
  manifest with provenance, per-shard sha256, and per-sample content
  hashes; atomic append/merge/verify, and conversion from legacy
  single-file ``Dataset.save`` archives.
* :mod:`repro.data.parallel` — the one Section-5 sweep loop over a
  design's :class:`~repro.flows.datagen.DesignContext`, inline or fanned
  over a ``multiprocessing`` pool, with deterministic per-task seeding so
  worker-pool builds hash identically to serial ones.  In-memory bundles
  (:func:`repro.flows.datagen.build_design_bundle`) run the same loop.
* :mod:`repro.data.loader` — shard-aware shuffling, dihedral
  augmentation, and epoch streaming into the trainer without
  materializing the corpus.

Exposed on the CLI as ``repro data {build,merge,stats,verify,convert}``.
"""

from repro.data.loader import (
    NUM_DIHEDRAL,
    MemoryLoader,
    StreamingLoader,
    apply_dihedral,
    augment_pair,
    iter_eval_batches,
    shard_eval_arrays,
)
from repro.data.parallel import build_design_store, iter_design_samples
from repro.data.store import (
    DEFAULT_SHARD_SIZE,
    ShardedStore,
    StoreError,
    file_sha256,
    sample_content_hash,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "MemoryLoader",
    "NUM_DIHEDRAL",
    "ShardedStore",
    "StoreError",
    "StreamingLoader",
    "apply_dihedral",
    "augment_pair",
    "build_design_store",
    "file_sha256",
    "iter_design_samples",
    "iter_eval_batches",
    "sample_content_hash",
    "shard_eval_arrays",
]
