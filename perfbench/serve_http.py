"""serve_http: open-loop HTTP traffic at a fixed rate below the knee.

``python -m repro serve`` runs in its own process on a checkpoint saved
in setup; ``ForecastClient`` sends from at most two threads on a fixed
schedule, and about a quarter of the requests repeat an input sent at
least ten requests earlier (the benchmark's only cache hits).  Latency
counts from each request's due time, so a stall also charges the
requests queued behind it.
"""

from __future__ import annotations

import queue
import re
import subprocess
import sys
import threading
import time

import numpy as np

import inputs
from common import (TAIL_PERCENTILE, Outcome, Spans, mean, percentile, tail,
                    timed_setup)
from loop import guard_layers

RATE_PER_S = 8.0        # the knee lies between 16 and 24 req/s here
SENDERS = 2
REPEAT_SHARE = 0.25
REPEAT_MIN_GAP = 10     # a repeat reuses an input sent >= this many earlier
REPEAT_MAX_GAP = 40
SEGMENTS = 4            # validity is judged per segment of the schedule
#: Generator lateness p99 a valid segment stays under.  The senders share
#: the interpreter lock with the generator, so a due time that falls
#: inside another request's JSON encoding runs late by up to ~20 ms; that
#: wait is charged to latency anyway (latency counts from the due time).
#: Lateness near the request interval (125 ms) means it fell behind.
LATE_LIMIT_MS = 50.0
WARMUP = 16             # requests sent before the measured schedule


class Server:
    """``python -m repro serve`` in a child process."""

    def __init__(self, ctx, checkpoints):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--checkpoints", str(checkpoints), "--host", "127.0.0.1",
             "--port", "0", "--max-batch", "8", "--max-wait-ms", "2",
             "--cache-size", "256"],
            cwd=ctx.root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        self.port = None
        lines = []
        for line in self.proc.stdout:
            lines.append(line)
            match = re.search(r"serving \d+ model\(s\) on http://[^:]+:(\d+)",
                              line)
            if match:
                self.port = int(match.group(1))
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("repro serve did not start:\n"
                               + "".join(lines))
        # Keep the pipe drained so the child can never block on a write.
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a benchmark started in the background
        # inherits an ignored SIGINT, and so would the server.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def engine_stats(client) -> dict:
    return client.metrics()["engine"]


def run(ctx, calibrator, spans: Spans) -> Outcome:
    from repro.gan import Pix2Pix
    from repro.serve import ForecastClient, input_digest

    out = Outcome()
    calibrator.sample(20)
    checkpoints = ctx.work_dir / "checkpoints"
    inputs.model(ctx.seed).save(checkpoints / "bench.npz")
    reference = Pix2Pix.load(checkpoints / "bench.npz")

    # The schedule: request i is due at i / RATE; inputs are rendered
    # annealing snapshots, a quarter of them repeats of earlier ones.
    total = WARMUP + int(ctx.seconds * RATE_PER_S)
    rng = np.random.default_rng(ctx.seed)
    context = inputs.design_context()
    snapshots = inputs.Snapshots(context, ctx.seed)
    distinct: list[np.ndarray] = []
    digests: set[str] = set()

    def fresh_input() -> np.ndarray:
        while True:   # two placements may render to the same input
            x = inputs.render_input(context, snapshots.next())[1]
            if input_digest(x) not in digests:
                digests.add(input_digest(x))
                return x

    plan: list[tuple[int, bool]] = []          # (input index, is repeat)
    for index in range(total):
        if index >= REPEAT_MAX_GAP and rng.random() < REPEAT_SHARE:
            earlier = plan[index - int(rng.integers(REPEAT_MIN_GAP,
                                                    REPEAT_MAX_GAP))][0]
            plan.append((earlier, True))
            continue
        distinct.append(fresh_input())
        plan.append((len(distinct) - 1, False))
    # Setup's first forecasts use inputs the schedule never sends.
    setup_inputs = iter([fresh_input() for _ in range(5)])

    def build():
        server = Server(ctx, checkpoints)
        try:
            client = ForecastClient(port=server.port, timeout=30.0)
            client.forecast("bench", x=next(setup_inputs))
        except BaseException:
            server.stop()
            raise
        return server

    setup_s, setup_raw, server = timed_setup(
        calibrator, build, repeats=5, keep=lambda built: built.stop())
    out.e2e["setup_s"] = setup_s
    out.info["setup_raw_s"] = setup_raw
    try:
        records = drive(ctx, calibrator, spans, server, plan, distinct,
                        out)
    finally:
        server.stop()
    check(records, plan, distinct, reference, out)
    return out


def drive(ctx, calibrator, spans, server, plan, distinct, out) -> dict:
    """Send the schedule; returns per-request records keyed by index."""
    from repro.serve import ForecastClient

    client = ForecastClient(port=server.port, timeout=30.0)
    work: queue.SimpleQueue = queue.SimpleQueue()
    records: dict[int, dict] = {}
    lock = threading.Lock()
    in_flight = [0]     # dispatched, not yet answered

    def sender() -> None:
        mine = ForecastClient(port=server.port, timeout=30.0)
        while True:
            item = work.get()
            if item is None:
                return
            index, due, x = item
            sent = time.perf_counter()
            record = {"due": due}
            try:
                with spans.span("serve.http.client"):
                    reply = mine.forecast("bench", x=x)
                record.update(forecast=reply.forecast, cached=reply.cached)
            except Exception as error:  # a failed request is a failed op
                record["error"] = f"{type(error).__name__}: {error}"
            record["done"] = time.perf_counter()
            spans.add("loadgen.queue", int(due * 1e9), int(sent * 1e9))
            with lock:
                records[index] = record
                in_flight[0] -= 1

    threads = [threading.Thread(target=sender, name=f"sender-{n}")
               for n in range(SENDERS)]
    for thread in threads:
        thread.start()
    measured = len(plan) - WARMUP
    traced_from = WARMUP + (measured // 2 if ctx.trace else measured)
    late_ms: list[float] = []
    stats = {}
    try:
        start = time.perf_counter() + 0.05
        for index, (input_index, _) in enumerate(plan):
            if index == WARMUP:
                start = time.perf_counter() + 0.05 - index / RATE_PER_S
            if index == traced_from:
                stats["plain_end"] = engine_stats(client)
                spans.enabled = True
            due = start + index / RATE_PER_S
            last_cal = 0.0
            while True:
                now = time.perf_counter()
                remaining = due - now
                if remaining <= 0:
                    break
                # Calibrate only while no request is out: a sender holding
                # the interpreter lock would inflate the kernel's time.
                if (remaining > 0.004 and now - last_cal > 0.02
                        and in_flight[0] == 0):
                    calibrator.sample()
                    last_cal = time.perf_counter()
                else:
                    time.sleep(min(remaining, 0.002))
            if index >= WARMUP:
                late_ms.append(1e3 * (time.perf_counter() - due))
            with lock:
                in_flight[0] += 1
            work.put((index, due, distinct[input_index]))
        # End-of-schedule backlog, read while the last requests are out.
        stats["end"] = engine_stats(client)
    finally:
        for _ in threads:
            work.put(None)
        for thread in threads:
            thread.join()
        spans.enabled = False
    for _ in range(20):
        calibrator.sample()
    summarize(ctx, calibrator, spans, records, stats, late_ms, traced_from,
              len(plan), out)
    return records


def summarize(ctx, calibrator, spans, records, stats, late_ms, traced_from,
              total, out) -> None:
    measured = list(range(WARMUP, total))
    out.attempted = len(measured)
    failed = [index for index in measured if "error" in records[index]]
    for index in failed:
        out.fail(f"request failed: {records[index]['error']}")

    # Validity per segment: the generator kept its schedule, and no
    # backlog built up (never more requests out than there are senders).
    per_segment = max(1, len(measured) // SEGMENTS)
    valid: list[int] = []
    segment_notes = []
    for number in range(SEGMENTS):
        chunk = measured[number * per_segment:(number + 1) * per_segment]
        if number == SEGMENTS - 1:
            chunk = measured[number * per_segment:]
        late = [late_ms[index - WARMUP] for index in chunk]
        boundary = records[chunk[-1]]["due"]
        backlog = sum(1 for index in range(WARMUP, total)
                      if records[index]["due"] <= boundary
                      < records[index]["done"])
        late_p99 = percentile(late, 99)
        ok = late_p99 <= LATE_LIMIT_MS and backlog <= SENDERS
        segment_notes.append({"late_ms_p99": round(late_p99, 3),
                              "backlog": backlog, "valid": ok})
        if ok:
            valid.extend(chunk)
    server_backlog = stats["end"]["queue_depth"]
    out.info["segments"] = segment_notes
    out.info["server_queue_depth_at_end"] = server_backlog
    if len(valid) < len(measured) / 2 or server_backlog > SENDERS:
        out.invalid.append(
            f"generator fell behind or backlog grew: {segment_notes}, "
            f"server queue depth {server_backlog}")

    def latency_ms(index, normalized=True):
        record = records[index]
        scale = (calibrator.factor(record["due"], record["done"])
                 if normalized else 1.0)
        return 1e3 * (record["done"] - record["due"]) * scale

    # An invalid run still reports, over every request, so it can be
    # recorded and left out of the medians rather than lost.
    usable = [index for index in (measured if out.invalid else valid)
              if "error" not in records[index]]
    plain = [index for index in usable if index < traced_from]
    if not ctx.trace:
        lats = [latency_ms(index) for index in plain]
        out.e2e["latency_ms_p50"] = percentile(lats, 50)
        out.e2e["latency_ms_tail"] = tail(lats)
        span_s = (max(records[index]["done"] for index in plain)
                  - min(records[index]["due"] for index in plain))
        out.e2e["throughput_per_s"] = len(plain) / span_s
        raw = [latency_ms(index, normalized=False) for index in plain]
        out.info["raw"] = {"latency_ms_p50": percentile(raw, 50),
                           "latency_ms_tail": percentile(raw,
                                                         TAIL_PERCENTILE),
                           "samples": len(raw)}
        out.info["late_ms_p99"] = percentile(late_ms, 99)
        return

    traced = [index for index in measured
              if index >= traced_from and "error" not in records[index]]
    before, after = stats["plain_end"], stats["end"]
    completed = after["completed"] - before["completed"]
    latency_sum = (after["mean_latency_ms"] * after["completed"]
                   - before["mean_latency_ms"] * before["completed"])
    batches = after["batches"] - before["batches"]
    forward_ms = (1e3 * (after["forward_seconds_total"]
                         - before["forward_seconds_total"]) / batches
                  if batches else 0.0)
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    engine_ms = latency_sum / completed if completed else 0.0
    miss_engine_ms = latency_sum / misses if misses else 0.0
    summary = spans.summary()
    client_ms = summary["serve.http.client"]["total_ms"]
    queue_ms = summary["loadgen.queue"]["total_ms"]
    end_to_end = sum(latency_ms(index, normalized=False)
                     for index in traced)
    plain_mean = mean([latency_ms(index) for index in plain])
    layers = out.layers
    layers["serve.http.overhead_ms"] = (
        client_ms / summary["serve.http.client"]["count"] - engine_ms)
    layers["serve.http.failed"] = float(len(failed))
    layers["serve.engine.wait_ms"] = miss_engine_ms - forward_ms
    layers["serve.engine.queue_wait_ms"] = miss_engine_ms - forward_ms
    layers["serve.engine.batch_occupancy"] = (
        (after["batched_requests"] - before["batched_requests"]) / batches
        if batches else 0.0)
    layers["serve.cache.hit_ratio"] = (hits / (hits + misses)
                                       if hits + misses else 0.0)
    layers["nn.forward_ms"] = forward_ms
    layers["nn.workspace_peak_bytes"] = float(after["workspace_bytes"])
    layers["loadgen.late_ms_tail"] = percentile(late_ms, 99)
    guard_layers(out, calibrator,
                 1.0 - (client_ms + queue_ms) / end_to_end,
                 mean([latency_ms(index) for index in traced]) / plain_mean)


def check(records, plan, distinct, reference, out) -> None:
    """Responses equal direct forecasts bitwise; repeats come back cached."""
    expected: dict[int, np.ndarray] = {}
    for index in range(WARMUP, len(records)):
        record = records[index]
        if "error" in record:
            continue
        input_index, repeat = plan[index]
        if input_index not in expected:
            expected[input_index] = reference.forecast(distinct[input_index])
        if not np.array_equal(record["forecast"], expected[input_index]):
            out.fail("HTTP forecast differs from direct forecast")
        if record["cached"] != repeat:
            out.fail("repeat not served from cache" if repeat
                     else "first request for an input served from cache")
