#!/usr/bin/env python3
"""Fleet quickstart: artifact store -> job pool -> routed serving -> obs.

1. Build a sharded dataset store and a trained checkpoint, then ingest
   both into one content-addressed artifact store (every blob named by
   its sha256; identical content dedups for free).
2. Fan forecast jobs over a multi-process worker pool via the on-disk
   job spool, twice — serial and 3 workers — and show the artifact
   digests are identical: forecast bytes are worker-count invariant.
3. Serve the same checkpoint through the fleet router — N workers
   behind one front with a shared forecast cache, admission control,
   and queue-depth backpressure — and query it over real HTTP.
4. Render one dashboard frame (``repro obs top``) over the fleet's
   published telemetry.

Run:  python examples/fleet_quickstart.py [scale]  (scale: smoke|default|paper)
Artifacts land in examples/out/fleet_quickstart/.
"""

import json
import shutil
import sys
import urllib.request
from pathlib import Path

import numpy as np

from repro.config import get_scale
from repro.data import ShardedStore
from repro.fleet import ArtifactStore, FleetRouter, JobStore, WorkerPool
from repro.gan import Dataset, Pix2Pix, Pix2PixConfig, Sample
from repro.obs.dashboard import Dashboard, DirectorySource
from repro.serve import ForecastCache, ForecastServer

OUT_DIR = Path(__file__).parent / "out" / "fleet_quickstart"
SIZE = 16
SAMPLES = 6


def make_dataset(count: int = SAMPLES) -> Dataset:
    rng = np.random.default_rng(11)
    return Dataset([
        Sample(design="demo",
               x=rng.normal(size=(4, SIZE, SIZE)).astype(np.float32),
               y=np.tanh(rng.normal(size=(3, SIZE, SIZE))
                         ).astype(np.float32),
               true_congestion=0.5)
        for _ in range(count)
    ])


def drain(tag: str, workers: int, ckpt_dir: Path, store_dir: Path) -> list:
    """Submit one forecast job per sample and drain the spool."""
    spool = OUT_DIR / f"jobs-{tag}"
    jobs = JobStore(spool)
    for index in range(SAMPLES):
        jobs.submit("forecast", {
            "checkpoints": str(ckpt_dir), "model": "demo",
            "input": {"store": str(store_dir), "index": index},
            "artifacts": str(OUT_DIR / f"art-{tag}")})
    counts = WorkerPool(spool, workers=workers).run_until_drained(timeout=300)
    assert counts["failed"] == 0
    return [job.result["artifact"] for job in jobs.jobs("done")]


def main() -> None:
    scale = get_scale(sys.argv[1] if len(sys.argv) > 1 else None)
    if OUT_DIR.exists():
        shutil.rmtree(OUT_DIR)
    OUT_DIR.mkdir(parents=True)

    print("[1/4] dataset store + checkpoint -> content-addressed artifacts")
    store_dir = OUT_DIR / "store"
    ShardedStore.from_dataset(store_dir, make_dataset(), shard_size=3)
    model = Pix2Pix(Pix2PixConfig.from_scale(scale, image_size=SIZE, seed=0))
    ckpt_dir = OUT_DIR / "ckpts"
    ckpt_dir.mkdir()
    model.save(ckpt_dir / "demo.npz")
    artifacts = ArtifactStore(OUT_DIR / "registry")
    ckpt_ref = artifacts.put_checkpoint(ckpt_dir / "demo.npz")
    data_ref = artifacts.put_dataset_store(store_dir)
    again = artifacts.put_checkpoint(ckpt_dir / "demo.npz")
    assert again.digest == ckpt_ref.digest          # dedup: same bytes
    print(f"      checkpoint {ckpt_ref.digest[:12]} "
          f"({ckpt_ref.size_bytes} bytes)")
    print(f"      dataset    {data_ref.digest[:12]} "
          f"({len(data_ref.files)} files)")
    print(f"      verify: {len(artifacts.verify())} corrupt blob(s)")

    print("[2/4] forecast jobs: serial drain vs 3-worker pool")
    serial = drain("serial", 1, ckpt_dir, store_dir)
    fleet = drain("fleet", 3, ckpt_dir, store_dir)
    assert serial == fleet
    print(f"      {len(fleet)} forecasts, digests byte-identical "
          f"across worker counts:")
    for digest in fleet[:3]:
        print(f"        {digest[:12]}")

    print("[3/4] fleet serving front: 2 workers, shared cache, HTTP")
    obs_dir = OUT_DIR / "telemetry"
    router = FleetRouter.local(ckpt_dir, workers=2, cache=ForecastCache(64))
    sample = make_dataset()[0]
    with ForecastServer(router, port=0, obs_dir=obs_dir,
                        publish_interval=0.2) as server:
        body = json.dumps({"model": "demo",
                           "input": sample.x.tolist()}).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/forecast", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            cold = json.loads(response.read())
        with urllib.request.urlopen(request) as response:
            warm = json.loads(response.read())
        with urllib.request.urlopen(f"{server.url}/fleet/status") as response:
            status = json.loads(response.read())
    assert cold["cached"] is False and warm["cached"] is True
    assert cold["forecast"] == warm["forecast"]
    routed = status["stats"]["routed_by_worker"]
    print(f"      cold {cold['latency_ms']:.2f} ms, cached repeat "
          f"{warm['latency_ms']:.2f} ms (same bytes)")
    print(f"      routed by worker: {routed}, "
          f"inflight cap {status['stats']['max_inflight']}")

    print("[4/4] one dashboard frame over the fleet telemetry")
    # The fleet publishes breaker/retry/restart series next to the
    # serve_* ones; raise the preview cap so the routing counters stay
    # visible in the frame.
    dashboard = Dashboard(DirectorySource(obs_dir), color=False,
                          series_limit=24)
    dashboard.tick()
    frame = dashboard.frame()
    print("\n".join(f"  | {line}" for line in frame.splitlines()))
    print(f"done; artifacts in {OUT_DIR}")


if __name__ == "__main__":
    main()
