"""``serve-*`` workloads: open-loop Poisson traffic through ``InferenceService``.

The load generator schedules single-sample requests from ``poisson_arrivals`` and
fires them with ``submit_nowait``; each request's latency runs from its
*due* time to the done-callback that delivers its result, so a stalled
generator charges its delay to the requests it held back.  The first
second of traffic is warm-up and is excluded.  Traffic runs until
``--seconds`` worth of quiet 1-s windows (little hypervisor steal) were
measured, within a cap; latency percentiles are taken over the pooled
requests of the quietest windows, and CPU per sample over the same windows.
The reference kernel is sampled only while the service is idle: in the
traffic loop a thread worker's GIL contention would skew it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

import numpy as np

import host
import ledger
from measure import (due_time_latencies, median, percentile, pooled_percentile,
                     quiet_windows, split_windows)
from repro.exec import AnalogBackend, BatchRunner, ExecutionContext
from repro.nn import DatasetConfig, SyntheticImageDataset
from repro.power import energy_per_conversion
from repro.serve import InferenceService, ServeConfig, poisson_arrivals
from repro.serve.cli import demo_workload

#: ``setups`` is the number of ``start()`` calls timed on each side of the
#: untraced traffic; ``setup_s`` is the median of all of them.
WORKLOADS = {
    "serve-ideal-thread": {"backend": "ideal", "workers": "thread",
                           "rate_rps": 1000.0, "setups": 100},
    "serve-analog-process": {"backend": "analog", "workers": "process",
                             "rate_rps": 200.0, "setups": 10},
}
POOL = 1024
WARMUP_S = 1.0
#: Length of the windows that are kept or dropped by their steal.
WINDOW_S = 1.0
#: A window is quiet when at most this share of CPU time was stolen from
#: the VM in it: one 10-ms tick of each vCPU on a two-vCPU host.
QUIET_STEAL_PCT = 1.0
#: Traffic runs until ``--seconds`` worth of quiet windows were measured,
#: but for at most this multiple of ``--seconds``.
MAX_TRAFFIC = 3.0
#: p99 needs ten requests beyond it, so a pass measures at least this many.
MIN_MEASURED = 1000
IDLE_REF_SAMPLES = 20
#: Served analog results must agree with a direct forward on at least this
#: share of argmaxes (94.5 % measured at seed 0).  Read noise streams depend
#: on how requests were batched, so exact agreement is not expected.
ANALOG_ARGMAX_FLOOR = 0.90
#: Served ideal logits vs a direct batched forward: gemv vs gemm rounding.
IDEAL_TOLERANCE = 1e-12


def _task():
    """The ``repro loadtest`` demo CNN plus a held-out labelled pool."""
    model, x_train, _ = demo_workload(seed=0)
    dataset = SyntheticImageDataset(DatasetConfig(
        num_classes=8, image_size=12, noise_sigma=0.3, seed=0))
    dataset.train_test_split(256, 128)  # step past the demo's own draws
    pool_x, pool_y = dataset.generate(POOL)
    return model, x_train, pool_x, pool_y


def _backend(name: str):
    return AnalogBackend() if name == "analog" else name


def _config(spec, context: ExecutionContext, traced: bool) -> ServeConfig:
    return ServeConfig(backend=_backend(spec["backend"]), workers=spec["workers"],
                       max_batch=64, max_wait_ms=2.0, context=context,
                       trace_sample_rate=1.0 if traced else 0.0)


def _probe(service: InferenceService) -> Dict:
    """CPU, steal ticks and shm traffic at a window boundary."""
    pids = [pid for group in service.process_worker_pids().values()
            for pid in group]
    return {
        "cpu": host.cpu_seconds(),
        "worker_cpu": {pid: host.pid_cpu_seconds(pid) for pid in pids},
        "transport": service.transport_counters(),
        "ticks": host.cpu_ticks(),
    }


async def _drive(service, pool_x: np.ndarray, picks: np.ndarray,
                 offsets: np.ndarray, warm: int, quiet_target: int,
                 pids: List[int]) -> Dict:
    """Fire ``pool_x[picks[i]]`` at ``offsets[i]``; time each from its due time.

    The measured requests (from ``warm`` on) are cut into ``WINDOW_S``
    windows of due time; the service is probed (CPU, steal, shm traffic)
    as each window opens and once all results are in.  Sending stops at the
    first window boundary by which ``quiet_target`` windows were quiet
    (steal at most ``QUIET_STEAL_PCT``) and ``MIN_MEASURED`` requests were
    sent, or when the schedule runs out.
    Only each request's result row (or exception) is kept, not its future,
    so the benchmark adds little to the garbage collector's work.  The peak
    RSS of this process and of the ``pids`` workers is reset just before
    the first request.
    """
    loop = asyncio.get_running_loop()
    count = len(offsets)
    done: List = [None] * count
    outcomes: List = [None] * count
    sent = [0.0] * count
    returned = 0
    finished = asyncio.Event()

    def on_done(index):
        def callback(future):
            nonlocal returned
            if future.cancelled():
                outcomes[index] = asyncio.CancelledError()
            elif future.exception() is not None:
                outcomes[index] = future.exception()
            else:
                done[index] = loop.time()
                outcomes[index] = future.result()[0]
            returned += 1
            finished.set()
        return callback

    start = loop.time() + 0.005
    due = [start + float(offset) for offset in offsets]
    windows = max(int((due[-1] - due[warm]) // WINDOW_S), 1)
    opens = set()
    for k in range(windows):
        boundary = due[warm] + k * WINDOW_S
        opens.add(next(i for i in range(warm, count) if due[i] >= boundary))
    probes = []
    quiet = 0
    stop = count
    # The peaks cover the traffic only, not set-up, earlier passes or the
    # schedule's arrays, which are all allocated by now.
    for pid in ["self", *pids]:
        host.reset_peak_rss(pid)
    for index in range(count):
        delay = due[index] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if index in opens:
            probe = _probe(service)
            if probes and host.steal_pct(probes[-1]["ticks"],
                                         probe["ticks"]) <= QUIET_STEAL_PCT:
                quiet += 1
            if quiet >= quiet_target and index - warm >= MIN_MEASURED:
                stop = index
                break
            probes.append(probe)
        sent[index] = loop.time()
        try:
            future = service.submit_nowait(pool_x[picks[index]])
        except Exception as exc:  # noqa: BLE001 - a refusal is a failed request
            future = loop.create_future()
            future.set_exception(exc)
        future.add_done_callback(on_done(index))
    while returned < stop:
        finished.clear()
        await finished.wait()
    probes.append(_probe(service))
    return {"due": due[:stop], "sent": sent[:stop], "done": done[:stop],
            "outcomes": outcomes[:stop], "probes": probes, "warm": warm}


async def _pass(service, rng, pool_x, rate: float, seconds: float,
                seed: int) -> Dict:
    """One open-loop pass: warm-up plus ``seconds`` of quiet measured traffic.

    The schedule runs for up to ``MAX_TRAFFIC`` times ``seconds``; it is
    cut short once ``seconds`` worth of quiet windows have been measured.
    """
    warm = int(rate * WARMUP_S)
    quiet_target = max(int(seconds / WINDOW_S), 1)
    count = warm + max(int(rate * seconds * MAX_TRAFFIC), MIN_MEASURED)
    offsets = poisson_arrivals(rate, count, seed=seed)
    # Seeded passes over the pool, each sending every sample once, so
    # accuracy barely depends on which samples a seed happened to draw.
    passes = -(-count // len(pool_x))
    picks = np.concatenate([rng.permutation(len(pool_x)) for _ in range(passes)])[:count]
    ref_us = host.reference_samples(IDLE_REF_SAMPLES)
    pids = [pid for group in service.process_worker_pids().values()
            for pid in group]
    run = await _drive(service, pool_x, picks, offsets, warm, quiet_target, pids)
    run["peak_rss_mb"] = host.peak_rss_mb() + max(
        (host.peak_rss_mb(pid) for pid in pids), default=0.0)
    ref_us += host.reference_samples(IDLE_REF_SAMPLES)
    run["picks"] = picks[:len(run["due"])]
    run["ref_us"] = median(ref_us)
    run["quiet_target"] = quiet_target
    run["snapshot"] = service.metrics_snapshot()
    run["profile"] = (await service.stage_profiles())[0]
    return run


def _summary(run: Dict) -> Dict:
    """Counters and latencies of the measured (post-warm-up) requests.

    Latency percentiles (over the pooled requests) and CPU per sample come
    from the ``quiet_target`` windows of least steal; counts and tails from
    all.
    """
    warm = run["warm"]
    due, sent, done = run["due"][warm:], run["sent"][warm:], run["done"][warm:]
    probes = run["probes"]
    count = len(probes) - 1
    served_due = [d for d, end in zip(due, done) if end is not None]
    latency_ms = [1e3 * v for v in due_time_latencies(due, done)]
    late_ms = [1e3 * (s - d) for s, d in zip(sent, due)]
    per_window = split_windows(served_due, latency_ms, due[0], WINDOW_S, count)
    steal = [host.steal_pct(a["ticks"], b["ticks"]) for a, b in zip(probes, probes[1:])]
    keep = quiet_windows(steal, run["quiet_target"])
    samples = sum(len(per_window[k]) for k in keep)

    def cpu_ms(key):
        total = 0.0
        for k in keep:
            a, b = probes[k][key], probes[k + 1][key]
            total += (b - a if key == "cpu" else
                      sum(b.get(pid, cpu) - cpu for pid, cpu in a.items()))
        return total * 1e3 / samples

    first, last = probes[0], probes[-1]
    shm = sum(last["transport"][key] - first["transport"][key]
              for key in ("request_bytes", "response_bytes"))
    snapshot = run["snapshot"]
    return {
        "attempted": len(due),
        "served": len(served_due),
        "windows": f"{len(keep)} of {count} windows kept "
                   f"(steal <= {max(steal[k] for k in keep):.2f} %); p90 has "
                   f"{int(samples * 0.1)} of their {samples} requests beyond it",
        "latency_p50_ms": pooled_percentile(per_window, keep, 50),
        "latency_p90_ms": pooled_percentile(per_window, keep, 90),
        "serve.latency_p99_ms": percentile(latency_ms, 99),
        "serve.generator_late_p99_ms": percentile(late_ms, 99),
        "bench.samples_per_s_raw":
            len(served_due) / (max(d for d in done if d is not None) - due[0]),
        "serve.parent_cpu_ms_per_sample": cpu_ms("cpu"),
        "serve.worker_cpu_ms_per_sample": cpu_ms("worker_cpu"),
        "serve.shm_bytes_per_sample": shm / max(len(served_due), 1),
        "serve.batch_rows_mean": snapshot.mean_batch_rows,
        "serve.max_queue_depth": float(snapshot.max_queue_depth),
        "bench.steal_pct": host.steal_pct(first["ticks"], last["ticks"]),
        "core.conversions_per_sample": snapshot.conversions / max(snapshot.samples, 1),
    }


def _served(run: Dict):
    """``(payload indices, served logits)`` of every request that returned."""
    rows = [(pick, outcome) for pick, outcome in zip(run["picks"], run["outcomes"])
            if not isinstance(outcome, BaseException)]
    picks = np.array([pick for pick, _ in rows], dtype=np.int64)
    logits = np.array([row for _, row in rows])
    return picks, logits


def _check(spec, model, context, pool_x, runs) -> List[str]:
    """Served == direct (ideal: to rounding; analog: argmax floor), no failures."""
    failures = []
    for run in runs:
        failed = sum(isinstance(o, BaseException) for o in run["outcomes"])
        if failed:
            first = next(o for o in run["outcomes"] if isinstance(o, BaseException))
            failures.append(f"{failed} of {len(run['outcomes'])} requests failed "
                            f"(first: {first!r})")
    with BatchRunner(model, _backend(spec["backend"]), context) as runner:
        direct = np.concatenate([runner.forward(pool_x[i:i + 64])
                                 for i in range(0, len(pool_x), 64)])
    for run in runs:
        picks, served = _served(run)
        expected = direct[picks]
        agreement = float(np.mean(served.argmax(axis=1) == expected.argmax(axis=1)))
        if spec["backend"] == "ideal":
            error = float(np.max(np.abs(served - expected)))
            scale = max(1.0, float(np.max(np.abs(expected))))
            if error > IDEAL_TOLERANCE * scale or agreement < 1.0:
                failures.append(f"served ideal logits differ from a direct forward "
                                f"(max |diff| {error:.3g}, argmax agreement "
                                f"{agreement:.4f})")
        elif agreement < ANALOG_ARGMAX_FLOOR:
            failures.append(f"served analog argmax agrees with a direct forward on "
                            f"{agreement:.4f} < {ANALOG_ARGMAX_FLOOR}")
        run["argmax_agreement"] = agreement
    return failures


async def _setups(spec, model, context) -> List[float]:
    """``start()`` times of ``spec["setups"]`` fresh untraced services."""
    setup_s = []
    for _ in range(spec["setups"]):
        service = InferenceService(model, _config(spec, context, traced=False))
        start = time.perf_counter()
        await service.start()
        setup_s.append(time.perf_counter() - start)
        await service.stop()
    return setup_s


async def _serve(spec, model, context, pool_x, seed: int, seconds: float,
                 trace: bool) -> Dict:
    rng = np.random.default_rng(seed)
    # Set-ups are timed on both sides of the traffic, so that their median
    # spans more than one of the host's speed phases.
    setup_s = await _setups(spec, model, context)
    measured = seconds / 2 if trace else seconds
    service = InferenceService(model, _config(spec, context, traced=False))
    await service.start()
    try:
        untraced = await _pass(service, rng, pool_x, spec["rate_rps"], measured, seed)
    finally:
        await service.stop()
    setup_s += await _setups(spec, model, context)
    runs = {"untraced": untraced, "setup_s": setup_s}
    if trace:
        service = InferenceService(model, _config(spec, context, traced=True))
        await service.start()
        try:
            runs["traced"] = await _pass(service, rng, pool_x, spec["rate_rps"],
                                         measured, seed + 1)
        finally:
            await service.stop()
        runs["spans"] = service.tracer.spans
    return runs


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    spec = WORKLOADS[workload]
    model, x_train, pool_x, pool_y = _task()
    context = ExecutionContext(calibration=x_train[:16], seed=seed)
    runs = asyncio.run(_serve(spec, model, context, pool_x, seed, seconds, trace))
    untraced = runs["untraced"]
    passes = [untraced] + ([runs["traced"]] if trace else [])
    failures = _check(spec, model, context, pool_x, passes)

    summary = _summary(untraced)
    warm = untraced["warm"]
    hits = [int(np.argmax(outcome) == pool_y[pick]) for pick, outcome in
            zip(untraced["picks"][warm:], untraced["outcomes"][warm:])
            if not isinstance(outcome, BaseException)]
    # Serving CPU stays raw: the idle reference did not track it, and
    # normalising by it widened the run-to-run spread.
    cpu_ms = (summary["serve.parent_cpu_ms_per_sample"]
              + summary["serve.worker_cpu_ms_per_sample"])
    energy_j = energy_per_conversion(context.macro_config)
    metrics = {
        "samples_per_s": summary["bench.samples_per_s_raw"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p90_ms": summary["latency_p90_ms"],
        "cpu_ms_per_sample": cpu_ms,
        "setup_s": median(runs["setup_s"]),
        "peak_rss_mb": untraced["peak_rss_mb"],
        "completed_ratio": summary["served"] / summary["attempted"],
        "modelled_energy_nj_per_sample":
            summary["core.conversions_per_sample"] * energy_j * 1e9,
        "top1_accuracy": float(np.mean(hits)),
        "bench.host_ref_us": untraced["ref_us"],
    }
    metrics.update({key: value for key, value in summary.items()
                    if "." in key and key not in metrics})
    notes = [f"{summary['attempted']} measured requests at {spec['rate_rps']:g} req/s "
             f"after {warm} warm-up; argmax agreement with a direct forward "
             f"{untraced['argmax_agreement']:.4f}; {summary['windows']}"]
    absent = ("exec.L",)
    spans = []
    if trace:
        traced = runs["traced"]
        spans = runs["spans"]
        build_s = []
        for _ in range(3):
            with BatchRunner(model, _backend(spec["backend"]), context) as runner:
                build_s.append(runner.prepare_time_s)
        metrics["exec.plan_build_s"] = median(build_s)
        metrics.update(ledger.serve_span_metrics(spans))
        metrics["exec.forward_ms"] = metrics["serve.worker_forward_ms"]
        metrics.update(ledger.stage_metrics(traced["profile"]))
        metrics["obs.trace_overhead_pct"] = 100.0 * (
            _summary(traced)["latency_p50_ms"] / summary["latency_p50_ms"] - 1.0)
        if spec["backend"] == "analog":
            shapes = host.layer_shapes(model, pool_x.shape[1:])
            rows = [span.args["rows"] for span in spans if span.name == "batch"]
            metrics.update(ledger.layer_metrics(spans, shapes,
                                                int(round(median(rows)))))
            absent = tuple(f"exec.L{i}." for i in range(len(shapes),
                                                         ledger.LEDGER_LAYERS))
        notes.append(f"traced pass: {len(spans)} spans, "
                     f"{traced['snapshot'].requests} requests")
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(isinstance(o, BaseException) for p in passes for o in p["outcomes"])
    return {
        "metrics": metrics,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "spans": spans,
        "absent": absent,
    }
