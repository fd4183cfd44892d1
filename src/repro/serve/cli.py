"""CLI subcommands: ``python -m repro serve`` and ``python -m repro loadtest``.

``serve`` spins up the in-process inference service on a small trained demo
CNN, pushes a short seeded warm-up load through it and prints the metrics
report — the one-command proof that the queue -> batcher -> scheduler ->
backend pipeline works.  ``loadtest`` exposes the full load-generation
harness: arrival pattern, offered rate, request count, batching and
worker-pool knobs, and an optional batch-size-1 comparison run.  A
``--fault-spec`` run ends with a chaos verdict (zero client failures, pool
recovered) and a ``--queue-capacity`` run with an overload verdict (every
failure an admission drop); either failing exits 1::

    python -m repro serve
    python -m repro loadtest --pattern bursty --rate 4000 --requests 512
    python -m repro loadtest --backend fake_quant --workers 4
    python -m repro loadtest --compare-batch1
    python -m repro loadtest --pipeline-stages 3 --profile
    python -m repro loadtest --worker-mode process --workers 2 \
        --fault-spec chaos.json --dispatch-timeout-ms 1500 --shm-integrity
    python -m repro loadtest --queue-capacity 8 --rate 20000
    python -m repro loadtest --priority-classes interactive=0.5,batch=20 \
        --priority-mix interactive=0.3,batch=0.7
    python -m repro loadtest --trace-out trace.json --metrics-port 0 \
        --metrics-out metrics.json
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exec.registry import available_backends
from repro.nn import DatasetConfig, SGD, SyntheticImageDataset, Trainer
from repro.nn.layers import Conv2d, GlobalAvgPool2d, Linear, ReLU
from repro.nn.model import Model, Sequential
from repro.serve.loadgen import ARRIVAL_PROCESSES, run_loadtest
from repro.serve.metrics import METRICS
from repro.serve.service import ServeConfig


def parse_class_map(text: str, flag: str) -> Dict[str, float]:
    """Parse ``name=value,name=value`` pairs (for class waits and mixes)."""
    mapping: Dict[str, float] = {}
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        name, _, value = pair.partition("=")
        if not name or not value:
            raise SystemExit(
                f"{flag}: expected name=value pairs, got {pair!r}")
        try:
            mapping[name.strip()] = float(value)
        except ValueError:
            raise SystemExit(
                f"{flag}: {value!r} is not a number (in {pair!r})") from None
    if not mapping:
        raise SystemExit(f"{flag}: no name=value pairs in {text!r}")
    return mapping


def demo_workload(seed: int = 0, num_classes: int = 8, image_size: int = 12,
                  train_samples: int = 256, test_samples: int = 128
                  ) -> Tuple[Model, np.ndarray, np.ndarray]:
    """A small trained CNN plus request payloads for the serving demos."""
    dataset = SyntheticImageDataset(DatasetConfig(
        num_classes=num_classes, image_size=image_size, noise_sigma=0.3, seed=seed))
    x_train, y_train, x_test, _ = dataset.train_test_split(train_samples, test_samples)
    model = Sequential(
        Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(seed)),
        ReLU(),
        Conv2d(8, 12, 3, stride=2, padding=1, rng=np.random.default_rng(seed + 1)),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(12, num_classes, rng=np.random.default_rng(seed + 2)),
    )
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=2
    )
    return model, x_train, x_test


def build_serve_parser(command: str) -> argparse.ArgumentParser:
    """Argument parser shared by the ``serve`` and ``loadtest`` subcommands."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {command}",
        description=(
            "Run the in-process dynamic-batching inference service on a "
            "demo CNN and print its metrics report."
        ),
    )
    parser.add_argument("--backend", default="ideal", choices=available_backends(),
                        help="execution backend serving the requests")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="flush a batch at this many sample rows")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="flush a non-full batch after this many ms")
    parser.add_argument("--workers", type=int, default=1,
                        help="model replicas (each with its own backend)")
    parser.add_argument("--worker-mode", default="thread",
                        choices=("thread", "process"),
                        help="run replicas in service threads or ship each "
                             "replica's execution plan to its own process")
    parser.add_argument("--pipeline-stages", type=int, default=1,
                        help="shard each replica's compiled plan across "
                             "this many pipeline stage processes (>=2), "
                             "streaming batches between stages over "
                             "shared-memory rings")
    parser.add_argument("--macro-budget", type=int, default=None,
                        help="per-worker crossbar capacity in macros "
                             "(pipeline stages are cut to fit it; a "
                             "1-stage service exceeding it is rejected)")
    parser.add_argument("--profile", action="store_true",
                        help="print each worker's per-stage (DAC/crossbar/"
                             "ADC/digital) breakdown after the run")
    parser.add_argument("--macros-per-worker", type=int, default=8,
                        help="modelled AFPR macros per worker")
    parser.add_argument("--pattern", default="poisson",
                        choices=sorted(ARRIVAL_PROCESSES),
                        help="open-loop arrival process")
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="offered load in requests/s")
    parser.add_argument("--requests", type=int,
                        default=128 if command == "serve" else 512,
                        help="number of requests to fire")
    parser.add_argument("--queue-capacity", type=int, default=None,
                        help="admission bound: reject arrivals while this "
                             "many admitted requests are outstanding "
                             "(queued, batched or in flight)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the model, data and arrival process")
    parser.add_argument("--retry-policy", default="redispatch",
                        choices=("redispatch", "fail_fast"),
                        help="dead-worker batches: re-dispatch to surviving "
                             "replicas (default; analog retries draw fresh "
                             "noise) or fail fast to their clients")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="re-dispatch budget per batch before failing it")
    parser.add_argument("--no-respawn", action="store_true",
                        help="leave dead workers dead instead of respawning "
                             "them in the background")
    parser.add_argument("--plan-cache", default=None, metavar="DIR",
                        help="on-disk compiled-plan cache directory (process "
                             "workers): respawns and restarts skip "
                             "recompilation on a fingerprint hit")
    parser.add_argument("--priority-classes", default=None, metavar="SPEC",
                        help="SLO classes as name=max_wait_ms pairs, e.g. "
                             "'interactive=0.5,batch=20'; per-class latency "
                             "percentiles appear in the report")
    parser.add_argument("--fault-spec", default=None, metavar="SPEC",
                        help="seeded deterministic fault-injection spec: "
                             "inline JSON or a path to a JSON file "
                             "({\"seed\": N, \"rules\": [{\"site\": ..., "
                             "\"action\": ...}, ...]})")
    parser.add_argument("--dispatch-timeout-ms", type=float, default=None,
                        help="fail a batch whose worker forward exceeds "
                             "this deadline: the worker is killed, "
                             "respawned and the batch re-dispatched")
    parser.add_argument("--heartbeat-timeout-ms", type=float, default=None,
                        help="enable the heartbeat watchdog: kill and "
                             "respawn a process/pipeline worker whose "
                             "beat counter stalls this long")
    parser.add_argument("--shm-integrity", action="store_true",
                        help="CRC32-check every shared-memory slot; a "
                             "corrupt slot re-dispatches its batch "
                             "instead of serving bad bytes")
    parser.add_argument("--shed-alive-fraction", type=float, default=None,
                        help="graceful degradation: shed the laxest SLO "
                             "class at admission while fewer than this "
                             "fraction of workers is alive")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export the run's request span trees as "
                             "Chrome/Perfetto trace-event JSON (open in "
                             "ui.perfetto.dev or chrome://tracing); implies "
                             "--trace-sample 1.0 unless set explicitly")
    parser.add_argument("--trace-sample", type=float, default=None,
                        metavar="RATE",
                        help="per-request trace sampling probability in "
                             "[0, 1] (default 0 = tracing off)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve /metrics, /metrics.json, /healthz and "
                             "/readyz on this port during the run (0 picks "
                             "a free port) and self-check the scrapes")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the final metrics snapshot as JSON")
    if command == "loadtest":
        parser.add_argument("--compare-batch1", action="store_true",
                            help="also run max_batch=1 at the same offered "
                                 "load and print the comparison")
        parser.add_argument("--max-p99-ms", type=float, default=None,
                            help="SLO gate: exit non-zero if p99 latency "
                                 "exceeds this bound or any request "
                                 "failed/dropped (for CI smoke jobs)")
        parser.add_argument("--priority-mix", default=None, metavar="SPEC",
                            help="assign SLO classes to requests as "
                                 "name=weight pairs, e.g. "
                                 "'interactive=0.3,batch=0.7' (seeded)")
    return parser


def parse_fault_spec(text: str):
    """Parse ``--fault-spec``: inline JSON or the path of a JSON file."""
    import os

    from repro.faults.injector import FaultSpec

    payload = text
    if not text.lstrip().startswith("{"):
        if not os.path.exists(text):
            raise SystemExit(
                f"--fault-spec: {text!r} is neither inline JSON nor an "
                "existing file")
        with open(text, "r", encoding="utf-8") as handle:
            payload = handle.read()
    try:
        return FaultSpec.from_json(payload)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"--fault-spec: invalid spec: {exc}") from None


def _config_from_args(args: argparse.Namespace) -> ServeConfig:
    priority_classes = (parse_class_map(args.priority_classes,
                                        "--priority-classes")
                        if args.priority_classes else None)
    faults = (parse_fault_spec(args.fault_spec)
              if getattr(args, "fault_spec", None) else None)
    dispatch_timeout_s = (args.dispatch_timeout_ms / 1e3
                          if args.dispatch_timeout_ms is not None else None)
    heartbeat_timeout_s = (args.heartbeat_timeout_ms / 1e3
                           if args.heartbeat_timeout_ms is not None else None)
    # --trace-out without an explicit rate means "trace this run": sample
    # everything so the exported file actually holds the request trees.
    trace_sample = args.trace_sample
    if trace_sample is None:
        trace_sample = 1.0 if args.trace_out else 0.0
    return ServeConfig(
        backend=args.backend,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        num_workers=args.workers,
        workers=args.worker_mode,
        pipeline_stages=args.pipeline_stages,
        macro_budget=args.macro_budget,
        macros_per_worker=args.macros_per_worker,
        queue_capacity=args.queue_capacity,
        retry_policy=args.retry_policy,
        max_retries=args.max_retries,
        respawn=not args.no_respawn,
        plan_cache=args.plan_cache,
        priority_classes=priority_classes,
        trace_sample_rate=trace_sample,
        faults=faults,
        dispatch_timeout_s=dispatch_timeout_s,
        heartbeat_timeout_s=heartbeat_timeout_s,
        shm_integrity=args.shm_integrity,
        shed_alive_fraction=args.shed_alive_fraction,
    )


def run_serve_command(command: str, args: argparse.Namespace) -> Tuple[str, int]:
    """Execute one serving subcommand; returns (report, exit code)."""
    model, x_train, x_test = demo_workload(seed=args.seed)
    config = _config_from_args(args)
    if args.backend != "ideal":
        # Quantising / analog backends want a calibration batch.
        config = dataclasses.replace(
            config,
            context=dataclasses.replace(config.context, calibration=x_train[:16],
                                        max_mapped_layers=1),
        )
    priority_mix = (parse_class_map(args.priority_mix, "--priority-mix")
                    if getattr(args, "priority_mix", None) else None)
    result = run_loadtest(model, x_test, config, pattern=args.pattern,
                          rate_rps=args.rate, num_requests=args.requests,
                          seed=args.seed, collect_profile=args.profile,
                          priority_mix=priority_mix,
                          trace_out=args.trace_out,
                          metrics_port=args.metrics_port,
                          metrics_out=args.metrics_out)
    if args.pipeline_stages > 1:
        mode_tag = f"pipeline x{args.pipeline_stages}"
    else:
        mode_tag = args.worker_mode
    lines = [
        f"In-process inference service: backend={args.backend} "
        f"max_batch={args.max_batch} max_wait={args.max_wait_ms}ms "
        f"workers={args.workers} ({mode_tag})",
        result.render(),
    ]
    if args.profile and result.stage_profiles:
        from repro.exec.cli import render_stage_profile

        for index, profile in enumerate(result.stage_profiles):
            lines.append(f"worker {index} ({mode_tag}):")
            lines.append(render_stage_profile(profile))
            for stage in profile.get("stages", []):
                layers = stage.get("layers", [0, 0])
                lines.append(f"worker {index} pipeline stage "
                             f"{stage['stage']} (layers {layers[0]}.."
                             f"{layers[1] - 1}):")
                lines.append(render_stage_profile(stage.get("profile", {})))
    if getattr(args, "compare_batch1", False):
        batch1_config = dataclasses.replace(config, max_batch=1)
        batch1 = run_loadtest(model, x_test, batch1_config, pattern=args.pattern,
                              rate_rps=args.rate, num_requests=args.requests,
                              seed=args.seed)
        speedup = (
            result.snapshot.throughput_rps / batch1.snapshot.throughput_rps
            if batch1.snapshot.throughput_rps > 0 else float("inf")
        )
        lines += [
            "",
            f"batch-size-1 reference: {batch1.snapshot.throughput_rps:.1f} req/s, "
            f"p99 {batch1.snapshot.latency_p99_ms:.2f} ms",
            f"dynamic batching speedup: {speedup:.2f}x",
        ]
    exit_code = 0
    dropped = result.snapshot.counters["dropped"]
    if config.faults is not None:
        chaos = result.chaos
        problems = []
        if result.failures:
            problems.append(f"{result.failures} client-visible failures")
        if not chaos["recovered"]:
            problems.append(
                f"pool not recovered ({chaos['alive_workers']}/"
                f"{args.workers} workers alive)")
        if problems:
            lines.append("CHAOS FAIL: " + "; ".join(problems))
            exit_code = 1
        else:
            counts = [f"{metric.text} {chaos[metric.name]}" for metric in METRICS
                      if metric.section == "fault_tolerance" and metric.kind
                      and (chaos[metric.name] or metric.name == "worker_deaths")]
            lines.append("CHAOS OK: " + ", ".join(
                counts + ["0 client failures",
                          f"pool recovered to {args.workers} workers"]))
    if config.queue_capacity is not None:
        if result.failures == dropped:
            lines.append(f"OVERLOAD OK: every failure was an admission "
                         f"drop ({dropped} dropped, "
                         f"{result.snapshot.requests} served)")
        else:
            lines.append(f"OVERLOAD FAIL: {result.failures} failures but "
                         f"only {dropped} admission drops — served "
                         "requests failed")
            exit_code = 1
    max_p99 = getattr(args, "max_p99_ms", None)
    if max_p99 is not None:
        p99 = result.snapshot.latency_p99_ms
        problems = []
        if p99 > max_p99:
            problems.append(f"p99 {p99:.2f} ms > bound {max_p99:.2f} ms")
        if result.failures or dropped:
            problems.append(f"{result.failures} failed, {dropped} dropped")
        if problems:
            lines.append("SLO FAIL: " + "; ".join(problems))
            exit_code = 1
        else:
            lines.append(f"SLO OK: p99 {p99:.2f} ms <= {max_p99:.2f} ms, "
                         f"0 failed/dropped")
    return "\n".join(lines), exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the serving subcommands; returns an exit code."""
    argv = list(argv) if argv is not None else []
    if not argv or argv[0] not in ("serve", "loadtest"):
        raise SystemExit("usage: python -m repro {serve,loadtest} [options]")
    command = argv[0]
    args = build_serve_parser(command).parse_args(argv[1:])
    report, exit_code = run_serve_command(command, args)
    print(report)
    return exit_code
