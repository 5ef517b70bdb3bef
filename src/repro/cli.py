"""Command-line interface: ``python -m repro <command>``.

Commands mirror the flows API:

* ``datagen``  — build a design's placement/routing dataset and save it.
* ``train``    — run orchestration: ``run`` a TrainSpec into a run
  directory, ``resume`` an interrupted run bitwise-exactly from its
  latest checkpoint, ``sweep`` many specs across worker processes, and
  ``status`` a run directory without importing numpy.  The legacy flat
  form (``repro train --designs ... --out ckpt.npz``) still trains the
  cGAN on generated suite data and writes a checkpoint.
* ``forecast`` — place a design fresh and forecast its heat map with a
  checkpointed model.
* ``table2``   — run the Table 2 experiment and print the rows.
* ``explore``  — run the Figure 9 constrained exploration.
* ``serve``    — serve checkpointed forecasters over HTTP with
  micro-batching and a forecast cache.
* ``data``     — sharded dataset store operations: ``build`` (parallel
  generation workers), ``merge``, ``stats``, ``verify``, and ``convert``
  for legacy single-file archives.
* ``eval``     — streaming evaluation over a sharded store: ``run`` a
  checkpoint or baseline against ground truth (deterministic JSON
  report), ``compare`` two reports with per-metric tolerances, and
  score all ``baselines``.
* ``obs``      — observability readers: ``tail`` a run's ``trace.jsonl``,
  ``trace`` to aggregate a span log or export it as Chrome
  ``trace_event`` JSON, ``agg``/``top``/``alerts`` over fleet telemetry.
  Numpy-free like ``train status``.
* ``fleet``    — fleet-scale operations: ``up`` serves checkpoints
  through a multi-worker router (shared cache, admission control,
  backpressure, supervised restarts), ``route`` batch-forecasts store
  samples through a worker pool into a content-addressed artifact
  store, ``status`` reads a job spool and merged fleet telemetry,
  ``scrub`` quarantines corrupt artifact blobs, ``chaos`` drains a
  spool under a seeded fault plan to prove the recovery paths.

All experiment commands accept ``--scale {smoke,default,paper}``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro import __version__
from repro.config import get_scale


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default=None,
                        choices=["smoke", "default", "paper"],
                        help="experiment scale preset (default: $REPRO_SCALE "
                             "or 'default')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Painting-on-Placement congestion forecasting "
                    "(DAC 2019 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    datagen = commands.add_parser(
        "datagen", help="generate a design's image-pair dataset")
    datagen.add_argument("--design", default="diffeq1",
                         help="Table 2 design name")
    datagen.add_argument("--placements", type=int, default=None,
                         help="placements to sweep (default: per scale)")
    datagen.add_argument("--seed", type=int, default=1)
    datagen.add_argument("--out", type=Path, required=True,
                         help="output .npz dataset path")
    _add_scale(datagen)

    train = commands.add_parser(
        "train",
        help="training runs: run/resume/sweep/status (or the legacy "
             "flat form: --designs ... --out ckpt.npz)")
    # Legacy flat form (kept working: `repro train --designs d --out m.npz`).
    train.add_argument("--designs", default=None,
                       help="comma-separated Table 2 design names "
                            "(legacy flat form)")
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--seed", type=int, default=1)
    train.add_argument("--out", type=Path, default=None,
                       help="model checkpoint path (.npz, legacy flat form)")
    _add_scale(train)
    train_commands = train.add_subparsers(dest="train_command")

    train_run = train_commands.add_parser(
        "run", help="execute a TrainSpec into a run directory")
    train_run.add_argument("--spec", type=Path, required=True,
                           help="TrainSpec JSON file")
    train_run.add_argument("--runs", type=Path, required=True,
                           help="root directory; the run lives at "
                                "<runs>/<spec name>")
    train_run.add_argument("--stop-after-steps", type=int, default=None,
                           help="halt (with an exact-resume checkpoint) "
                                "once global_step reaches this count")
    train_run.add_argument("--log-every", type=int, default=None,
                           help="print losses every N epochs")

    train_resume = train_commands.add_parser(
        "resume", help="continue a run from its latest checkpoint")
    train_resume.add_argument("run_dir", type=Path)
    train_resume.add_argument("--stop-after-steps", type=int, default=None)
    train_resume.add_argument("--log-every", type=int, default=None)

    train_sweep = train_commands.add_parser(
        "sweep", help="fan a sweep file of specs across workers")
    train_sweep.add_argument("--specs", type=Path, required=True,
                             help="JSON: a list of specs, or "
                                  "{'base': {...}, 'runs': [...]}")
    train_sweep.add_argument("--runs", type=Path, required=True,
                             help="sweep root directory (one run dir per "
                                  "spec + sweep.json summary)")
    train_sweep.add_argument("--workers", type=int, default=0,
                             help="worker processes (0/1 = serial)")
    train_sweep.add_argument("--base-seed", type=int, default=0,
                             help="seed base for runs without an "
                                  "explicit seed")

    train_status = train_commands.add_parser(
        "status", help="render run-directory progress (no numpy import)")
    train_status.add_argument("run_dir", type=Path,
                              help="a run directory, or a root holding "
                                   "several")
    train_status.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON")

    forecast = commands.add_parser(
        "forecast", help="forecast a fresh placement's heat map")
    forecast.add_argument("--model", type=Path, required=True)
    forecast.add_argument("--design", default="diffeq1")
    forecast.add_argument("--seed", type=int, default=1,
                          help="dataset/netlist seed (must match training)")
    forecast.add_argument("--placer-seed", type=int, default=1234)
    forecast.add_argument("--out", type=Path, required=True,
                          help="output directory for PNGs")
    _add_scale(forecast)

    table2 = commands.add_parser("table2", help="run the Table 2 experiment")
    table2.add_argument("--designs", default=None,
                        help="comma-separated subset (default: all eight)")
    table2.add_argument("--seed", type=int, default=1)
    table2.add_argument("--cache-dir", type=Path, default=None)
    _add_scale(table2)

    explore = commands.add_parser(
        "explore", help="Figure 9 constrained placement exploration")
    explore.add_argument("--design", default="ode")
    explore.add_argument("--seed", type=int, default=1)
    _add_scale(explore)

    serve = commands.add_parser(
        "serve", help="serve checkpointed forecasters over HTTP")
    serve.add_argument("--checkpoints", type=Path, required=True,
                       help="directory of .npz model checkpoints "
                            "(model id = file stem)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 binds an ephemeral port)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="requests stacked into one generator forward")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="how long an open batch waits for stragglers "
                            "(only on the first batch and after a batch "
                            "of more than one request)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="forecast LRU capacity (0 disables caching)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.add_argument("--obs-dir", type=Path, default=None,
                       help="fleet observability directory: publish "
                            "telemetry snapshots (and alerts.jsonl) here "
                            "for `repro obs agg/top`")
    serve.add_argument("--alert-rules", type=Path, default=None,
                       help="JSON alert rules evaluated against the live "
                            "registry (see repro.obs.alerts)")
    serve.add_argument("--publish-interval", type=float, default=2.0,
                       help="seconds between telemetry publishes "
                            "(with --obs-dir)")

    data = commands.add_parser(
        "data", help="sharded dataset store: build/merge/stats/verify")
    data_commands = data.add_subparsers(dest="data_command", required=True)

    build = data_commands.add_parser(
        "build", help="generate a sharded dataset with a worker pool")
    build.add_argument("--designs", default="diffeq1",
                       help="comma-separated Table 2 design names")
    build.add_argument("--placements", type=int, default=None,
                       help="placements per design (default: per scale)")
    build.add_argument("--seed", type=int, default=1)
    build.add_argument("--workers", type=int, default=0,
                       help="generation worker processes (0/1 = serial)")
    build.add_argument("--shard-size", type=int, default=16,
                       help="samples per shard file")
    build.add_argument("--out", type=Path, required=True,
                       help="output store directory")
    _add_scale(build)

    merge = data_commands.add_parser(
        "merge", help="merge stores into one (re-sharded)")
    merge.add_argument("inputs", type=Path, nargs="+",
                       help="input store directories")
    merge.add_argument("--out", type=Path, required=True,
                       help="output store directory")
    merge.add_argument("--shard-size", type=int, default=16)

    stats = data_commands.add_parser(
        "stats", help="print a store's manifest summary")
    stats.add_argument("store", type=Path)

    verify = data_commands.add_parser(
        "verify", help="recheck shard hashes and sample counts")
    verify.add_argument("store", type=Path)

    convert = data_commands.add_parser(
        "convert", help="convert a legacy .npz dataset archive to a store")
    convert.add_argument("archive", type=Path)
    convert.add_argument("--out", type=Path, required=True,
                         help="output store directory")
    convert.add_argument("--shard-size", type=int, default=16)

    evaluate = commands.add_parser(
        "eval", help="streaming evaluation: run/compare/baselines")
    eval_commands = evaluate.add_subparsers(dest="eval_command",
                                            required=True)

    def _add_eval_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--store", type=Path, required=True,
                            help="sharded dataset store directory")
        parser.add_argument("--split", default="all",
                            help="'all', 'design:<name>', or "
                                 "'holdout:<name>' (leave-one-design-out)")
        parser.add_argument("--batch-size", type=int, default=16)
        parser.add_argument("--thresholds", default="0.5,0.7",
                            help="comma-separated hotspot congestion "
                                 "thresholds")
        parser.add_argument("--roc-threshold", type=float, default=0.5,
                            help="target threshold for the ROC sweep")

    run = eval_commands.add_parser(
        "run", help="evaluate one checkpoint or baseline over a store")
    _add_eval_options(run)
    run.add_argument("--checkpoint", type=Path, default=None,
                     help="model checkpoint .npz path")
    run.add_argument("--checkpoints", type=Path, default=None,
                     help="checkpoint directory (serve registry layout)")
    run.add_argument("--model", default=None,
                     help="model id within --checkpoints (file stem)")
    run.add_argument("--baseline", default=None,
                     help="baseline name (see 'eval baselines')")
    run.add_argument("--workers", type=int, default=1,
                     help="shard-parallel worker processes (checkpoint "
                          "runs only; results are worker-count invariant)")
    run.add_argument("--out", type=Path, default=None,
                     help="write the JSON report here")

    compare = eval_commands.add_parser(
        "compare", help="diff two eval reports with tolerances")
    compare.add_argument("report_a", type=Path)
    compare.add_argument("report_b", type=Path)
    compare.add_argument("--tolerance", action="append", default=[],
                         metavar="METRIC=TOL",
                         help="per-metric absolute tolerance (repeatable)")
    compare.add_argument("--default-tolerance", type=float, default=1e-9,
                         help="absolute tolerance for unlisted metrics")
    compare.add_argument("--allow-different-data", action="store_true",
                         help="do not fail on dataset fingerprint mismatch")

    baselines = eval_commands.add_parser(
        "baselines", help="score every non-learned baseline over a store")
    _add_eval_options(baselines)
    baselines.add_argument("--out-dir", type=Path, default=None,
                           help="write one JSON report per baseline here")

    obs = commands.add_parser(
        "obs", help="observability readers: tail/trace/agg/top/alerts "
                    "(no numpy)")
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)

    obs_tail = obs_commands.add_parser(
        "tail", help="print the newest spans of a run's trace.jsonl")
    obs_tail.add_argument("run_dir", type=Path,
                          help="a run directory, or a trace.jsonl path")
    obs_tail.add_argument("-n", "--count", type=int, default=10,
                          help="spans to show (default 10)")

    obs_trace = obs_commands.add_parser(
        "trace", help="summarize a span log, or export it for "
                      "chrome://tracing")
    obs_trace.add_argument("trace", type=Path,
                           help="a trace.jsonl path, or a run directory "
                                "holding one")
    obs_trace.add_argument("--chrome", type=Path, default=None,
                           help="write Chrome trace_event JSON here "
                                "instead of printing the summary")

    obs_agg = obs_commands.add_parser(
        "agg", help="merge a telemetry directory's worker snapshots")
    obs_agg.add_argument("directory", type=Path,
                         help="a telemetry/ directory, or a parent "
                              "holding one (sweep root, serve obs dir)")
    obs_agg.add_argument("--json", action="store_true",
                         help="emit the merged registry snapshot as JSON "
                              "instead of Prometheus text")
    obs_agg.add_argument("--per-worker", action="store_true",
                         help="keep a worker label on every series "
                              "instead of merging them away")

    obs_top = obs_commands.add_parser(
        "top", help="live fleet dashboard over a telemetry directory "
                    "or serve URL")
    obs_top.add_argument("target",
                         help="telemetry directory (sweep root / serve "
                              "obs dir) or a serve base URL")
    obs_top.add_argument("--interval", type=float, default=2.0,
                         help="seconds between polls (default 2)")
    obs_top.add_argument("--frames", type=int, default=None,
                         help="render N frames then exit "
                              "(default: run until interrupted)")
    obs_top.add_argument("--window", type=float, default=30.0,
                         help="rate window in seconds (default 30)")

    obs_alerts = obs_commands.add_parser(
        "alerts", help="show alert transitions and what is firing now")
    obs_alerts.add_argument("path", type=Path,
                            help="an alerts.jsonl path, or a directory "
                                 "holding one")
    obs_alerts.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON")

    fleet = commands.add_parser(
        "fleet", help="fleet-scale serving and batch forecasting: "
                      "up/status/route")
    fleet_commands = fleet.add_subparsers(dest="fleet_command",
                                          required=True)

    fleet_up = fleet_commands.add_parser(
        "up", help="serve checkpoints over HTTP through a multi-worker "
                   "router")
    fleet_up.add_argument("--checkpoints", type=Path, required=True,
                          help="directory of .npz model checkpoints")
    fleet_up.add_argument("--workers", type=int, default=2,
                          help="serving worker processes (default 2)")
    fleet_up.add_argument("--host", default="127.0.0.1")
    fleet_up.add_argument("--port", type=int, default=8000,
                          help="TCP port (0 binds an ephemeral port)")
    fleet_up.add_argument("--max-batch", type=int, default=8,
                          help="micro-batch size (batches form at the "
                               "router)")
    fleet_up.add_argument("--max-wait-ms", type=float, default=2.0,
                          help="batch wait for stragglers (only on the "
                               "first batch and after a batch of more "
                               "than one request)")
    fleet_up.add_argument("--cache-size", type=int, default=256,
                          help="shared forecast LRU capacity "
                               "(0 disables caching)")
    fleet_up.add_argument("--max-inflight", type=int, default=256,
                          help="admission control: reject (503) beyond "
                               "this many in-flight requests")
    fleet_up.add_argument("--queue-limit", type=int, default=32,
                          help="backpressure: reject when the queue "
                               "holds this many requests per live worker")
    fleet_up.add_argument("--verbose", action="store_true",
                          help="log every HTTP request")
    fleet_up.add_argument("--obs-dir", type=Path, default=None,
                          help="publish the fleet's telemetry here "
                               "for `repro obs agg/top`")
    fleet_up.add_argument("--alert-rules", type=Path, default=None,
                          help="JSON alert rules evaluated against the "
                               "router registry")
    fleet_up.add_argument("--publish-interval", type=float, default=2.0,
                          help="seconds between telemetry publishes")

    fleet_status = fleet_commands.add_parser(
        "status", help="job spool counts and merged fleet telemetry")
    fleet_status.add_argument("root", type=Path,
                              help="a job spool directory (or a sweep "
                                   "root holding jobs/)")
    fleet_status.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON")

    fleet_route = fleet_commands.add_parser(
        "route", help="batch-forecast dataset samples through a worker "
                      "pool into an artifact store")
    fleet_route.add_argument("--checkpoints", type=Path, required=True,
                             help="directory of .npz model checkpoints")
    fleet_route.add_argument("--model", required=True,
                             help="model id (checkpoint file stem)")
    fleet_route.add_argument("--store", type=Path, required=True,
                             help="sharded dataset store to read inputs "
                                  "from")
    fleet_route.add_argument("--artifacts", type=Path, required=True,
                             help="content-addressed artifact store for "
                                  "the forecasts")
    fleet_route.add_argument("--count", type=int, default=None,
                             help="samples to forecast (default: all)")
    fleet_route.add_argument("--workers", type=int, default=2,
                             help="pool worker processes (0/1 = serial)")
    fleet_route.add_argument("--jobs", type=Path, default=None,
                             help="job spool directory (default: "
                                  "<artifacts>/jobs)")
    fleet_route.add_argument("--out", type=Path, default=None,
                             help="also materialize forecasts as .npy "
                                  "files here")

    fleet_scrub = fleet_commands.add_parser(
        "scrub", help="re-hash every blob and manifest in an artifact "
                      "store; quarantine corrupt files")
    fleet_scrub.add_argument("artifacts", type=Path,
                             help="artifact store root")
    fleet_scrub.add_argument("--no-quarantine", action="store_true",
                             help="report only; leave corrupt files in "
                                  "place")
    fleet_scrub.add_argument("--json", action="store_true",
                             help="emit the full report as JSON")

    fleet_chaos = fleet_commands.add_parser(
        "chaos", help="drain a forecast spool under a seeded fault plan "
                      "and report recovery (the CI chaos-smoke driver)")
    fleet_chaos.add_argument("--checkpoints", type=Path, required=True,
                             help="directory of .npz model checkpoints")
    fleet_chaos.add_argument("--model", required=True,
                             help="model id (checkpoint file stem)")
    fleet_chaos.add_argument("--store", type=Path, required=True,
                             help="sharded dataset store to read inputs "
                                  "from")
    fleet_chaos.add_argument("--artifacts", type=Path, required=True,
                             help="artifact store the forecasts (and the "
                                  "blob-corruption faults) land in")
    fleet_chaos.add_argument("--count", type=int, default=None,
                             help="samples to forecast (default: all)")
    fleet_chaos.add_argument("--workers", type=int, default=3,
                             help="pool worker processes")
    fleet_chaos.add_argument("--seed", type=int, default=0,
                             help="fault-plan seed (same seed, same "
                                  "faults)")
    fleet_chaos.add_argument("--plan", type=Path, default=None,
                             help="JSON fault plan to replay (overrides "
                                  "--seed generation)")
    fleet_chaos.add_argument("--faults", type=int, default=2,
                             help="faults to generate when no --plan")
    fleet_chaos.add_argument("--kinds", default="kill_worker,corrupt_blob",
                             help="comma-separated fault kinds for "
                                  "generation")
    fleet_chaos.add_argument("--jobs", type=Path, default=None,
                             help="job spool directory (default: "
                                  "<artifacts>/jobs)")
    fleet_chaos.add_argument("--lease-seconds", type=float, default=2.0,
                             help="job lease length (low = fast orphan "
                                  "requeue)")
    fleet_chaos.add_argument("--timeout", type=float, default=300.0,
                             help="drain deadline in seconds")
    fleet_chaos.add_argument("--report", type=Path, default=None,
                             help="also write the JSON report here")

    return parser


def _spec(scale, name: str):
    from repro.fpga.generators import scaled_suite

    for spec in scaled_suite(scale):
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in scaled_suite(scale))
    raise SystemExit(f"unknown design {name!r}; choose from: {known}")


def cmd_datagen(args) -> int:
    from repro.flows import build_design_bundle

    scale = get_scale(args.scale)
    bundle = build_design_bundle(_spec(scale, args.design), scale,
                                 num_placements=args.placements,
                                 seed=args.seed)
    bundle.dataset.save(args.out)
    print(f"wrote {len(bundle.dataset)} samples "
          f"({bundle.layout.image_size}px, channel width "
          f"{bundle.channel_width}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    try:
        if args.train_command == "status":
            # Deliberately numpy-free: only repro.train.status is
            # imported, so polling a run never pays the model-stack
            # import cost.
            return _train_status(args)
        if args.train_command == "run":
            return _train_run(args)
        if args.train_command == "resume":
            return _train_resume(args)
        if args.train_command == "sweep":
            return _train_sweep(args)
        return _train_legacy(args)
    except (FileNotFoundError, FileExistsError, ValueError) as error:
        raise SystemExit(f"error: {error}") from None


def _print_run_result(result) -> None:
    state = "done" if result.completed else "interrupted"
    print(f"{state}: step {result.global_step}"
          + (f", best {result.best_value:.6f} at epoch {result.best_epoch}"
             if result.best_value is not None else ""))
    for path in result.exported:
        print(f"published {path}")
    if not result.completed:
        print(f"resume with: repro train resume {result.run_dir}")


def _train_run(args) -> int:
    from repro.train import Runner, TrainSpec

    spec = TrainSpec.load(args.spec)
    runner = Runner.create(spec, args.runs, log=print)
    print(f"run directory: {runner.run_dir}")
    result = runner.run(stop_after_steps=args.stop_after_steps,
                        log_every=args.log_every)
    _print_run_result(result)
    return 0


def _train_resume(args) -> int:
    from repro.train import Runner

    runner = Runner.resume(args.run_dir, log=print)
    result = runner.run(stop_after_steps=args.stop_after_steps,
                        log_every=args.log_every)
    _print_run_result(result)
    return 0


def _train_sweep(args) -> int:
    from repro.train import load_sweep_file, prepare_specs, run_sweep

    specs = prepare_specs(load_sweep_file(args.specs),
                          base_seed=args.base_seed)
    print(f"sweep: {len(specs)} run(s), {args.workers} worker(s) "
          f"-> {args.runs}")
    rows = run_sweep(specs, args.runs, workers=args.workers, log=print)
    failed = [row for row in rows if row["status"] == "failed"]
    if failed:
        raise SystemExit(f"{len(failed)} of {len(rows)} run(s) failed")
    return 0


def _train_status(args) -> int:
    import json as json_module

    from repro.train.status import (
        format_run_status,
        iter_run_dirs,
        read_run_status,
    )

    run_dirs = list(iter_run_dirs(args.run_dir))
    if not run_dirs:
        raise SystemExit(f"error: no run directories under {args.run_dir}")
    infos = [read_run_status(run_dir) for run_dir in run_dirs]
    if args.json:
        # Always an array, so consumers never probe the shape.
        print(json_module.dumps(infos, indent=1, sort_keys=True))
    else:
        print("\n\n".join(format_run_status(info) for info in infos))
    return 0


def _train_legacy(args) -> int:
    """The original flat ``repro train``: suite datagen + scratch run."""
    from repro.flows import build_suite_bundles
    from repro.gan.dataset import Dataset
    from repro.train import Runner, TrainSpec

    if args.designs is None or args.out is None:
        raise SystemExit("error: repro train needs a subcommand "
                         "(run/resume/sweep/status) or the legacy flags "
                         "--designs and --out")
    scale = get_scale(args.scale)
    designs = [name.strip() for name in args.designs.split(",")]
    bundles = build_suite_bundles(scale, seed=args.seed, designs=designs,
                                  log=print)
    combined = Dataset()
    for bundle in bundles.values():
        combined.extend(bundle.dataset)
    epochs = args.epochs if args.epochs is not None else scale.epochs
    spec = TrainSpec(name="train", data="inline", scale=scale.name,
                     seed=args.seed, epochs=epochs, order="shuffle",
                     publish=False)
    runner = Runner(spec, dataset=combined)
    print(f"training on {len(combined)} pairs for {epochs} epochs")
    runner.run(log_every=max(1, epochs // 5))
    runner.model.save(args.out)
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_forecast(args) -> int:
    from repro.flows.datagen import make_design_context
    from repro.fpga import PlacerOptions
    from repro.gan import Pix2Pix, image_congestion_score
    from repro.gan.dataset import input_from_images
    from repro.viz import render_connectivity, render_placement, write_png

    scale = get_scale(args.scale)
    model = Pix2Pix.load(args.model)
    context = make_design_context(
        _spec(scale, args.design), scale, seed=args.seed,
        image_size=model.config.image_size)
    placement = context.place(PlacerOptions(seed=args.placer_seed))
    place_image = render_placement(placement, context.layout)
    connect = render_connectivity(context.netlist, placement, context.layout)
    x = input_from_images(place_image, connect, context.connect_weight)
    forecast = model.forecast(x[0])
    score = image_congestion_score(forecast,
                                   context.layout.channel_pixel_mask())

    write_png(args.out / "place.png", place_image)
    write_png(args.out / "forecast.png", forecast)
    print(f"forecast congestion {score:.4f}; images in {args.out}")
    return 0


def cmd_table2(args) -> int:
    from repro.flows.experiments import Table2Row, run_table2

    scale = get_scale(args.scale)
    designs = ([name.strip() for name in args.designs.split(",")]
               if args.designs else None)
    rows = run_table2(scale, designs=designs, seed=args.seed,
                      cache_dir=args.cache_dir, log=print)
    print()
    print(Table2Row.header())
    for row in rows:
        print(row.format())
    return 0


def cmd_explore(args) -> int:
    from repro.flows import build_suite_bundles, run_exploration, train_explorer

    scale = get_scale(args.scale)
    bundles = build_suite_bundles(scale, seed=args.seed, log=print)
    bundle = bundles[args.design]
    trainer = train_explorer(scale, bundles, args.design, seed=args.seed)
    outcome = run_exploration(bundle, trainer)
    print(f"rank correlation rho={outcome.rank_correlation:.2f}")
    for obj in outcome.outcomes:
        print(f"  {obj.objective:<12} chosen={obj.chosen_index} "
              f"true={obj.true_score:.4f} regret={obj.regret:.4f}")
    return 0


def cmd_serve(args) -> int:
    from repro.serve import (
        BatchingEngine,
        ForecastCache,
        ForecastServer,
        ModelRegistry,
    )

    try:
        registry = ModelRegistry.from_directory(
            args.checkpoints, log=lambda msg: print(f"[registry] {msg}"))
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(f"error: {error}") from None
    cache = ForecastCache(args.cache_size) if args.cache_size else None
    # Drift monitoring switches on per model when training left a
    # reference profile (<stem>-reference.json) next to its checkpoint.
    from repro.obs.drift import DriftMonitor, ReferenceProfile
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    drift = None
    for model_id in registry.model_ids:
        reference = Path(args.checkpoints) / f"{model_id}-reference.json"
        if reference.exists():
            if drift is None:
                drift = DriftMonitor(metrics=metrics)
            drift.set_reference(model_id, ReferenceProfile.load(reference))
            print(f"[drift] reference profile loaded for {model_id}")
    engine = BatchingEngine(registry, max_batch=args.max_batch,
                            max_wait_ms=args.max_wait_ms, cache=cache,
                            metrics=metrics, drift=drift)
    server = ForecastServer(engine, host=args.host, port=args.port,
                            verbose=args.verbose, obs_dir=args.obs_dir,
                            alert_rules=args.alert_rules,
                            publish_interval=args.publish_interval)
    with server:
        print(f"serving {len(registry)} model(s) on {server.url} "
              f"(max_batch={args.max_batch}, "
              f"max_wait_ms={args.max_wait_ms}, "
              f"cache={args.cache_size}, lanes={engine.lanes})", flush=True)
        if args.obs_dir is not None:
            print(f"[obs] publishing telemetry to {args.obs_dir} "
                  f"every {args.publish_interval}s", flush=True)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
    stats = engine.stats()
    print(f"served {stats['completed']} forecast(s) in "
          f"{stats['batches']} batch(es)")
    return 0


def cmd_data(args) -> int:
    try:
        return _run_data(args)
    except ValueError as error:   # StoreError is a ValueError
        raise SystemExit(f"error: {error}") from None


def _run_data(args) -> int:
    from repro.data import ShardedStore, StoreError, build_design_store

    if args.data_command == "build":
        from repro.flows.datagen import suite_image_size

        scale = get_scale(args.scale)
        specs = [_spec(scale, name.strip())
                 for name in args.designs.split(",")]
        image_size = (suite_image_size(scale, specs, seed=args.seed)
                      if len(specs) > 1 else None)
        store = None
        for spec in specs:
            print(f"building {spec.name} "
                  f"({args.placements or scale.placements_per_design} "
                  f"placements, {args.workers} worker(s))")
            store = build_design_store(
                spec, scale, args.out, num_placements=args.placements,
                seed=args.seed, workers=args.workers,
                shard_size=args.shard_size, image_size=image_size,
                store=store)
        print(f"wrote {store.num_samples} samples in {store.num_shards} "
              f"shard(s) ({store.image_size}px) to {args.out}")
        return 0

    if args.data_command == "merge":
        merged = ShardedStore.create(args.out, shard_size=args.shard_size)
        for path in args.inputs:
            merged.merge_from(ShardedStore.open(path))
        merged.flush()
        print(f"merged {len(args.inputs)} store(s): {merged.num_samples} "
              f"samples in {merged.num_shards} shard(s) at {args.out}")
        return 0

    if args.data_command == "stats":
        store = ShardedStore.open(args.store)
        for key, value in store.stats().items():
            print(f"{key:>20}: {value}")
        return 0

    if args.data_command == "verify":
        store = ShardedStore.open(args.store)
        problems = store.verify()
        if problems:
            for problem in problems:
                print(f"FAIL {problem}")
            raise SystemExit(f"{len(problems)} problem(s) in {args.store}")
        print(f"ok: {store.num_samples} samples in {store.num_shards} "
              f"shard(s) verified")
        return 0

    if args.data_command == "convert":
        store = ShardedStore.convert_archive(
            args.archive, args.out, shard_size=args.shard_size)
        print(f"converted {args.archive} -> {args.out} "
              f"({store.num_samples} samples, {store.num_shards} shard(s))")
        return 0

    raise StoreError(f"unknown data command {args.data_command!r}")


def _parse_thresholds(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise SystemExit(f"error: bad thresholds {text!r}") from None
    if not values:
        raise SystemExit("error: need at least one hotspot threshold")
    return values


def _print_metrics(report: dict) -> None:
    for name in sorted(report["metrics"]):
        print(f"  {name:<24} {report['metrics'][name]:.6f}")


def cmd_eval(args) -> int:
    try:
        return _run_eval(args)
    except KeyError as error:
        # ModelRegistry.get raises KeyError with a readable message.
        raise SystemExit(f"error: {error.args[0]}") from None
    except (FileNotFoundError, ValueError) as error:   # and StoreError
        raise SystemExit(f"error: {error}") from None


def _run_eval(args) -> int:
    from repro.data import ShardedStore
    from repro.eval import (
        BASELINES,
        CheckpointForecaster,
        compare_reports,
        evaluate_store,
        evaluation_report,
        load_report,
        make_baseline,
        parse_split,
        write_report,
    )

    if args.eval_command == "compare":
        tolerances = {}
        for item in args.tolerance:
            name, _, value = item.partition("=")
            if not name or not value:
                raise SystemExit(f"error: bad --tolerance {item!r} "
                                 f"(expected METRIC=TOL)")
            tolerances[name] = float(value)
        comparison = compare_reports(
            load_report(args.report_a), load_report(args.report_b),
            tolerances=tolerances,
            default_tolerance=args.default_tolerance,
            require_same_data=not args.allow_different_data)
        print(f"comparing {args.report_a} -> {args.report_b}")
        print(comparison.format())
        if not comparison.ok:
            raise SystemExit(1)
        return 0

    store = ShardedStore.open(args.store)
    split = parse_split(args.split)
    thresholds = _parse_thresholds(args.thresholds)
    eval_kwargs = dict(split=split, thresholds=thresholds,
                       roc_threshold=args.roc_threshold,
                       batch_size=args.batch_size)

    if args.eval_command == "run":
        chosen = [bool(args.checkpoint),
                  bool(args.checkpoints and args.model), bool(args.baseline)]
        if sum(chosen) != 1:
            raise SystemExit(
                "error: choose exactly one of --checkpoint, "
                "--checkpoints + --model, or --baseline")
        if args.checkpoint:
            forecaster = CheckpointForecaster.from_checkpoint(args.checkpoint)
            identity = forecaster.identity
        elif args.baseline:
            forecaster, identity = make_baseline(args.baseline, store, split)
        else:
            from repro.serve import ModelRegistry

            registry = ModelRegistry.from_directory(args.checkpoints)
            forecaster = CheckpointForecaster.from_registry(
                registry, args.model)
            identity = forecaster.identity
        result = evaluate_store(store, forecaster, workers=args.workers,
                                **eval_kwargs)
        report = evaluation_report(store, result, identity, split,
                                   thresholds=thresholds,
                                   roc_threshold=args.roc_threshold,
                                   batch_size=args.batch_size)
        print(f"evaluated {identity['id']} on {result.num_samples} "
              f"sample(s) [{args.split}]")
        _print_metrics(report)
        if args.out is not None:
            write_report(args.out, report)
            print(f"report written to {args.out}")
        return 0

    if args.eval_command == "baselines":
        for name in sorted(BASELINES):
            forecaster, identity = make_baseline(name, store, split)
            result = evaluate_store(store, forecaster, **eval_kwargs)
            report = evaluation_report(store, result, identity, split,
                                       thresholds=thresholds,
                                       roc_threshold=args.roc_threshold,
                                       batch_size=args.batch_size)
            print(f"{name} ({result.num_samples} sample(s), {args.split}):")
            _print_metrics(report)
            if args.out_dir is not None:
                path = args.out_dir / f"{name}.json"
                write_report(path, report)
                print(f"  report written to {path}")
        return 0

    raise SystemExit(f"error: unknown eval command {args.eval_command!r}")


def cmd_obs(args) -> int:
    # Deliberately numpy-free, same contract as `repro train status`:
    # only repro.obs modules load, so tailing a trace from a shell is
    # instant and works without the scientific stack.
    import json as json_module

    from repro.obs.render import (
        TRACE_NAME,
        format_span,
        format_span_summary,
        read_jsonl,
        summarize_spans,
    )

    def _resolve(path: Path, default_name: str) -> Path:
        return path / default_name if path.is_dir() else path

    if args.obs_command == "tail":
        path = _resolve(args.run_dir, TRACE_NAME)
        spans = read_jsonl(path)[0]
        spans = spans[max(0, len(spans) - args.count):]
        if not spans:
            raise SystemExit(f"error: no trace at {path}")
        for span in spans:
            print(format_span(span))
        return 0

    if args.obs_command == "trace":
        from repro.obs.trace import read_spans, write_chrome_trace

        path = _resolve(args.trace, TRACE_NAME)
        if not path.exists():
            raise SystemExit(f"error: no trace at {path}")
        spans = read_spans(path)
        if args.chrome is not None:
            count = write_chrome_trace(spans, args.chrome)
            print(f"wrote {count} event(s) to {args.chrome} "
                  f"(open in chrome://tracing or https://ui.perfetto.dev)")
            return 0
        if not spans:
            raise SystemExit(f"error: trace {path} is empty")
        print(format_span_summary(summarize_spans(spans)))
        return 0

    if args.obs_command == "agg":
        from repro.obs.aggregate import aggregate_dir

        fleet = aggregate_dir(args.directory)
        if not fleet.snapshots:
            raise SystemExit(f"error: no telemetry snapshots under "
                             f"{args.directory}")
        if args.json:
            registry = (fleet.worker_registry() if args.per_worker
                        else fleet.registry())
            print(json_module.dumps(
                {"workers": fleet.workers,
                 "merged": registry.snapshot()},
                indent=1, sort_keys=True))
        else:
            print(fleet.render_prometheus(per_worker=args.per_worker),
                  end="")
        return 0

    if args.obs_command == "top":
        from repro.obs.dashboard import make_source, run_top

        run_top(make_source(args.target), interval=args.interval,
                frames=args.frames, window=args.window)
        return 0

    if args.obs_command == "alerts":
        from repro.obs.alerts import ALERTS_NAME, read_alert_log
        from repro.obs.dashboard import firing_from_log

        path = _resolve(args.path, ALERTS_NAME)
        events, skipped = read_alert_log(path)
        if not events and not path.exists():
            raise SystemExit(f"error: no alert log at {path}")
        firing = firing_from_log(events)
        if args.json:
            print(json_module.dumps(
                {"events": events, "firing": firing,
                 "skipped_lines": skipped},
                indent=1, sort_keys=True))
            return 0
        for event in events:
            stamp = time.strftime(
                "%H:%M:%S", time.localtime(event.get("at_unix", 0)))
            print(f"{stamp}  {event.get('state', '?'):<9} "
                  f"{event.get('rule', '?'):<28} "
                  f"{event.get('condition', '')} "
                  f"(value {event.get('value')})")
        if skipped:
            print(f"[{skipped} unparseable line(s) skipped]")
        print(f"firing now: "
              f"{', '.join(e['rule'] for e in firing) if firing else 'none'}")
        return 0

    raise SystemExit(f"error: unknown obs command {args.obs_command!r}")


def cmd_fleet(args) -> int:
    try:
        if args.fleet_command == "up":
            return _fleet_up(args)
        if args.fleet_command == "status":
            return _fleet_status(args)
        if args.fleet_command == "route":
            return _fleet_route(args)
        if args.fleet_command == "scrub":
            return _fleet_scrub(args)
        if args.fleet_command == "chaos":
            return _fleet_chaos(args)
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(f"error: {error}") from None
    raise SystemExit(f"error: unknown fleet command {args.fleet_command!r}")


def _fleet_up(args) -> int:
    from repro.fleet import FleetRouter, WorkerError
    from repro.serve import ForecastCache, ForecastServer

    cache = ForecastCache(args.cache_size) if args.cache_size else None
    try:
        router = FleetRouter.local(
            args.checkpoints, workers=args.workers,
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            cache=cache, max_inflight=args.max_inflight,
            worker_queue_limit=args.queue_limit)
    except (FileNotFoundError, ValueError, WorkerError) as error:
        raise SystemExit(f"error: {error}") from None
    server = ForecastServer(router, host=args.host, port=args.port,
                            verbose=args.verbose, obs_dir=args.obs_dir,
                            alert_rules=args.alert_rules,
                            publish_interval=args.publish_interval)
    with server:
        print(f"fleet: {args.workers} worker process(es) serving "
              f"{len(router.registry)} model(s) on {server.url} "
              f"(max_inflight={args.max_inflight}, "
              f"queue_limit={args.queue_limit}, "
              f"cache={args.cache_size})", flush=True)
        if args.obs_dir is not None:
            print(f"[obs] fleet telemetry -> {args.obs_dir} "
                  f"(watch with: repro obs top {args.obs_dir})", flush=True)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down fleet")
    stats = router.stats()
    print(f"routed {stats['completed']} forecast(s) across "
          f"{stats['workers']} worker(s)")
    return 0


def _fleet_status(args) -> int:
    import json as json_module

    from repro.fleet.jobs import JobStore
    from repro.obs.aggregate import aggregate_dir
    from repro.obs.timeseries import flatten_export

    root = args.root
    if not root.exists():
        raise SystemExit(f"error: no such directory: {root}")
    # Accept either the spool itself or a parent holding jobs/.
    spool = root if (root / "pending").is_dir() else root / "jobs"
    payload: dict = {"root": str(root)}
    if (spool / "pending").is_dir():
        store = JobStore(spool)
        payload["jobs"] = store.counts()
    fleet = aggregate_dir(root)
    if fleet.snapshots:
        payload["workers"] = fleet.workers
        payload["telemetry"] = {
            name: value
            for name, value in flatten_export(fleet.merged).items()
            if name.startswith("fleet_") or name.startswith("serve_")}
    if "jobs" not in payload and "telemetry" not in payload:
        raise SystemExit(f"error: {root} holds neither a job spool nor "
                         f"telemetry snapshots")
    if args.json:
        print(json_module.dumps(payload, indent=1, sort_keys=True))
        return 0
    if "jobs" in payload:
        counts = payload["jobs"]
        total = sum(counts.values())
        print(f"jobs ({total} total): "
              + ", ".join(f"{state} {count}"
                          for state, count in counts.items()))
    if "telemetry" in payload:
        print(f"workers publishing: {len(payload['workers'])} "
              f"({', '.join(payload['workers'])})")
        for name, value in sorted(payload["telemetry"].items()):
            print(f"  {name:<40} {value:g}")
    return 0


def _fleet_route(args) -> int:
    from repro.data import ShardedStore, StoreError
    from repro.fleet import ArtifactStore, JobStore, WorkerPool

    try:
        store = ShardedStore.open(args.store)
    except StoreError as error:
        raise SystemExit(f"error: {error}") from None
    count = store.num_samples if args.count is None \
        else min(args.count, store.num_samples)
    if count < 1:
        raise SystemExit("error: nothing to forecast (empty store)")
    spool_root = args.jobs if args.jobs is not None else args.artifacts / "jobs"
    if spool_root.exists():
        import shutil
        shutil.rmtree(spool_root)
    jobs = JobStore(spool_root)
    for index in range(count):
        jobs.submit("forecast", {
            "checkpoints": str(args.checkpoints), "model": args.model,
            "input": {"store": str(args.store), "index": index},
            "artifacts": str(args.artifacts)})
    print(f"routing {count} forecast job(s) through {args.workers} "
          f"worker(s) -> {args.artifacts}")
    counts = WorkerPool(spool_root, workers=args.workers).run_until_drained()
    failed = jobs.jobs("failed")
    for job in failed:
        last_line = (job.error or "?").strip().splitlines()[-1]
        print(f"  FAILED {job.job_id}: {last_line}")
    artifacts = ArtifactStore(args.artifacts)
    done = jobs.jobs("done")
    for job in done:
        print(f"  {job.job_id}: artifact {job.result['artifact'][:12]}")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            data = artifacts.read_bytes(job.result["artifact"])
            (args.out / f"{job.job_id}.npy").write_bytes(data)
    if args.out is not None and done:
        print(f"materialized {len(done)} forecast(s) to {args.out}")
    print(f"done: {counts['done']} ok, {counts['failed']} failed; "
          f"store now holds {len(artifacts)} artifact(s)")
    if failed:
        raise SystemExit(f"{len(failed)} job(s) failed")
    return 0


def _fleet_scrub(args) -> int:
    import json as json_module

    from repro.fleet import ArtifactStore

    if not args.artifacts.exists():
        raise SystemExit(f"error: no such directory: {args.artifacts}")
    store = ArtifactStore(args.artifacts)
    report = store.scrub(quarantine=not args.no_quarantine)
    if args.json:
        print(json_module.dumps(report, indent=1, sort_keys=True))
    else:
        print(f"scrubbed {report['blobs_scanned']} blob(s), "
              f"{report['manifests_scanned']} manifest(s)")
        for entry in report["corrupt_blobs"]:
            print(f"  CORRUPT blob {entry['digest'][:12]} "
                  f"(hashes to {entry['actual_sha256'][:12]})")
        for entry in report["corrupt_manifests"]:
            print(f"  CORRUPT manifest {entry['digest'][:12]}: "
                  f"{entry['problem']}")
        for entry in report["missing_blobs"]:
            print(f"  MISSING {entry['artifact']}: {entry['path']} "
                  f"({entry['sha256'][:12]})")
        for entry in report["quarantined"]:
            print(f"  quarantined -> {entry['to']}")
        print("clean" if report["clean"]
              else f"NOT clean: {len(report['corrupt_blobs'])} corrupt "
                   f"blob(s), {len(report['corrupt_manifests'])} corrupt "
                   f"manifest(s), {len(report['missing_blobs'])} missing "
                   f"blob(s)")
    return 0 if report["clean"] else 1


def _fleet_chaos(args) -> int:
    import json as json_module
    import shutil

    from repro.data import ShardedStore, StoreError
    from repro.fleet import JobStore
    from repro.fleet.chaos import ChaosError, FaultPlan, run_chaos_drain

    try:
        store = ShardedStore.open(args.store)
    except StoreError as error:
        raise SystemExit(f"error: {error}") from None
    count = store.num_samples if args.count is None \
        else min(args.count, store.num_samples)
    if count < 1:
        raise SystemExit("error: nothing to forecast (empty store)")
    try:
        if args.plan is not None:
            plan = FaultPlan.load(args.plan)
        else:
            plan = FaultPlan.generate(
                args.seed, workers=args.workers, jobs=count,
                count=args.faults,
                kinds=tuple(kind.strip()
                            for kind in args.kinds.split(",") if kind))
    except (ChaosError, json_module.JSONDecodeError, KeyError) as error:
        raise SystemExit(f"error: bad fault plan: {error}") from None
    spool_root = args.jobs if args.jobs is not None \
        else args.artifacts / "jobs"
    if spool_root.exists():
        shutil.rmtree(spool_root)
    jobs = JobStore(spool_root)
    for index in range(count):
        jobs.submit("forecast", {
            "checkpoints": str(args.checkpoints), "model": args.model,
            "input": {"store": str(args.store), "index": index},
            "artifacts": str(args.artifacts)})
    print(f"chaos: draining {count} forecast job(s) through "
          f"{args.workers} worker(s) under {len(plan.faults)} fault(s) "
          f"(seed {plan.seed})")
    for fault in plan.faults:
        print(f"  plan: {fault.kind} target={fault.target} "
              f"at={fault.at} job(s) finished")
    report = run_chaos_drain(
        spool_root, plan, workers=args.workers,
        artifacts=args.artifacts, timeout=args.timeout,
        lease_seconds=args.lease_seconds)
    for event in report["events"]:
        applied = "applied" if event.get("applied") else \
            f"skipped ({event.get('reason', '?')})"
        print(f"  fired: {event['kind']} at {event['finished']} "
              f"finished -> {applied}")
    counts = report["counts"]
    print(f"drained: {counts['done']} done, {counts['failed']} failed, "
          f"{counts['requeued']} requeued, {counts['restarts']} worker "
          f"restart(s)")
    scrub = report.get("scrub")
    if scrub is not None:
        print(f"scrub: {'clean' if scrub['clean'] else 'NOT clean'} "
              f"({len(scrub['corrupt_blobs'])} corrupt, "
              f"{len(scrub['missing_blobs'])} missing, "
              f"{len(scrub['quarantined'])} quarantined)")
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json_module.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"report -> {args.report}")
    return 0 if counts["failed"] == 0 else 1


_COMMANDS = {
    "datagen": cmd_datagen,
    "train": cmd_train,
    "forecast": cmd_forecast,
    "table2": cmd_table2,
    "explore": cmd_explore,
    "serve": cmd_serve,
    "data": cmd_data,
    "eval": cmd_eval,
    "obs": cmd_obs,
    "fleet": cmd_fleet,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pipe closed early (`repro ... | head`): exit
        # quietly, pointing stdout at devnull so the interpreter's
        # final flush cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
