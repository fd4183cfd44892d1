"""``offline-resnet-analog``: closed-loop batch-64 ResNet-lite on analog macros.

One caller pushes batch after batch through ``BatchRunner.forward``; the
reference kernel is timed between batches so every timing can be scaled to
the nominal host speed.  The model and task are fixed; ``--seed`` picks the
order in which the held-out pool is batched.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List

import numpy as np

import host
import ledger
from measure import median, normalise_series, percentile
from repro.core.config import MacroConfig
from repro.exec import AnalogBackend, BatchRunner, ExecutionContext
from repro.nn import DatasetConfig, SGD, SyntheticImageDataset, Trainer, build_resnet_lite
from repro.obs.trace import PlanTraceBuffer, Tracer, plan_trace
from repro.power import energy_per_conversion

BATCH = 64
POOL = 1024
#: Runner constructions timed after the measured pass, besides the two
#: before it (the oracle check's and the measured runner's); ``setup_s`` is
#: the median of all of them, so it spans more than one host speed phase.
SETUPS_AFTER = 3
#: p90 needs ten forwards beyond it, so a run makes at least this many.
MIN_FORWARDS = 110


def _task():
    """The fixed task: ResNet-lite trained on synthetic 16x16 images."""
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=10, image_size=16, seed=0))
    x_train, y_train = dataset.generate(512)
    pool_x, pool_y = dataset.generate(POOL)
    model = build_resnet_lite(stage_widths=(8, 16, 32), seed=0)
    Trainer(model, SGD(model.parameters(), learning_rate=0.05),
            batch_size=32).fit(x_train, y_train, epochs=2)
    return model, x_train, pool_x, pool_y


def _batches(seed: int):
    """Endless seeded batch index stream; each pass covers the pool once."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(POOL)
        for start in range(0, POOL, BATCH):
            yield order[start:start + BATCH]


def _timed_pass(runner, batches, pool_x, seconds: float, tracer=None):
    """Closed loop for ``seconds`` (and at least MIN_FORWARDS forwards)."""
    forward_s, cpu_s, ref_us, predictions = [], [], [], []
    completed = 0
    conversions = runner.conversions()
    profile = runner.stage_profile()
    ticks = host.cpu_ticks()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(forward_s) < MIN_FORWARDS:
        index = next(batches)
        images = pool_x[index]
        cpu = time.process_time()
        start = time.perf_counter()
        if tracer is None:
            logits = runner.forward(images)
        else:
            buffer = PlanTraceBuffer(t0=start)
            with plan_trace(buffer):
                logits = runner.forward(images)
        end = time.perf_counter()
        cpu_s.append(time.process_time() - cpu)
        forward_s.append(end - start)
        completed += int(logits.shape[0] == len(index)
                         and bool(np.isfinite(logits).all()))
        predictions.append((index, logits.argmax(axis=1)))
        if tracer is not None:
            root = tracer.begin("forward", category="request", start_s=start,
                                rows=len(index))
            tracer.attach_remote([(None, end - start, buffer.records)],
                                 parent=root, start_s=start, end_s=end)
            tracer.end(root, end)
        ref_us.append(host.reference_kernel_us())
    return {
        "forward_s": forward_s,
        "cpu_s": cpu_s,
        "completed": completed,
        "ref_us": ref_us,
        "predictions": predictions,
        "conversions": runner.conversions() - conversions,
        "profile": ledger.profile_delta(runner.stage_profile(), profile),
        "steal_pct": host.steal_pct(ticks, host.cpu_ticks()),
    }


def _build(model, context, setup_s: List[float], build_s: List[float]):
    """A planned analog runner; appends its construction and plan-build time."""
    start = time.perf_counter()
    runner = BatchRunner(model, AnalogBackend(), context)
    setup_s.append(time.perf_counter() - start)
    build_s.append(runner.prepare_time_s)
    return runner


def _check_against_oracle(model, context, batch, planned) -> List[str]:
    """Planned result vs the ``compile_plan=False`` oracle on a fresh backend.

    ``planned`` is ``(logits, conversions)`` of ``batch`` on a freshly built
    planned runner; the oracle gets an identically seeded fresh backend.
    """
    oracle_context = dataclasses.replace(context, compile_plan=False)
    with BatchRunner(model, AnalogBackend(), oracle_context) as oracle:
        before = oracle.conversions()
        logits = oracle.forward(batch)
        conversions = oracle.conversions() - before
    failures = []
    if not np.array_equal(planned[0], logits):
        failures.append("planned logits differ from the compile_plan=False "
                        f"oracle (max |diff| {np.abs(planned[0] - logits).max():.3g})")
    if planned[1] != conversions:
        failures.append(f"planned conversions {planned[1]} != oracle {conversions}")
    return failures


def run(seed: int, seconds: float, trace: bool) -> Dict:
    model, x_train, pool_x, pool_y = _task()
    context = ExecutionContext(calibration=x_train[:32], macro_config=MacroConfig(),
                               seed=seed)
    batches = _batches(seed)
    check_batch = pool_x[:BATCH]

    setup_s, build_s = [], []
    with _build(model, context, setup_s, build_s) as runner:
        before = runner.conversions()
        planned = (runner.forward(check_batch), runner.conversions() - before)
    # Closed before the oracle prepares: a live plan's layer overrides would
    # otherwise route the oracle's forward through its kernels.
    failures = _check_against_oracle(model, context, check_batch, planned)
    with _build(model, context, setup_s, build_s) as runner:
        runner.forward(check_batch)  # warm-up: arena slabs, caches
        # The peak covers the measured pass only, not training or the oracle.
        host.reset_peak_rss()
        untraced = _timed_pass(runner, batches, pool_x,
                               seconds / 2 if trace else seconds)
        peak_rss_mb = host.peak_rss_mb()
        tracer = traced = None
        if trace:
            tracer = Tracer(sample_rate=1.0, seed=seed)
            traced = _timed_pass(runner, batches, pool_x, seconds / 2, tracer)
    for _ in range(SETUPS_AFTER):
        _build(model, context, setup_s, build_s).close()

    # Accuracy over the first full pass of the pool: deterministic per seed.
    seen = {}
    for index, predicted in untraced["predictions"]:
        for i, p in zip(index, predicted):
            seen.setdefault(int(i), int(p))
        if len(seen) == POOL:
            break
    if len(seen) < POOL:
        failures.append(f"only {len(seen)} of {POOL} pool samples classified")
    accuracy = float(np.mean([seen[i] == pool_y[i] for i in seen]))

    ref = untraced["ref_us"]
    forwards = untraced["forward_s"]
    samples = BATCH * len(forwards)
    nominal = host.NOMINAL_REF_US
    forwards_norm = normalise_series(forwards, ref, nominal)
    cpu_norm = normalise_series(untraced["cpu_s"], ref, nominal)
    conversions_per_sample = untraced["conversions"] / samples
    energy_j = energy_per_conversion(context.macro_config)
    metrics = {
        "samples_per_s": samples / sum(forwards_norm),
        "latency_p50_ms": percentile(forwards_norm, 50) * 1e3,
        "latency_p90_ms": percentile(forwards_norm, 90) * 1e3,
        "cpu_ms_per_sample": sum(cpu_norm) * 1e3 / samples,
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "completed_ratio": untraced["completed"] / len(forwards),
        "modelled_energy_nj_per_sample": conversions_per_sample * energy_j * 1e9,
        "top1_accuracy": accuracy,
        "bench.host_ref_us": median(ref),
        "bench.samples_per_s_raw": samples / sum(forwards),
        "bench.steal_pct": untraced["steal_pct"],
        "core.conversions_per_sample": conversions_per_sample,
        "exec.plan_build_s": median(build_s),
    }
    notes = [f"{len(forwards)} untraced forwards of {BATCH} samples; "
             f"p90 has {int(len(forwards) * 0.1)} forwards beyond it"]
    spans = []
    if trace:
        spans = tracer.spans
        shapes = host.layer_shapes(model, pool_x.shape[1:])
        metrics.update(ledger.layer_metrics(spans, shapes, BATCH))
        metrics.update(ledger.stage_metrics(traced["profile"]))
        metrics["exec.forward_ms"] = percentile(traced["forward_s"], 50) * 1e3
        metrics["obs.trace_overhead_pct"] = 100.0 * (
            percentile(traced["forward_s"], 50) / percentile(forwards, 50) - 1.0)
        notes.append(f"{len(traced['forward_s'])} traced forwards, "
                     f"{len(spans)} spans")
    passes = [untraced] + ([traced] if trace else [])
    attempted = sum(len(p["forward_s"]) for p in passes)
    return {
        "metrics": metrics,
        "failures": failures,
        "attempted": attempted,
        "failed": attempted - sum(p["completed"] for p in passes),
        "notes": notes,
        "spans": spans,
        "absent": ("serve.",),
    }
