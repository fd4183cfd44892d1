"""Benchmark: pipeline-parallel sharded serving of a deep workload.

Acceptance bars:

* serving a deep matmul workload with ``ServeConfig(pipeline_stages=N)``
  (the compiled plan cut across N stage processes, batches streamed over
  shared-memory stage rings) sustains at least **1.5x** the steady-state
  throughput of the same model served by one process worker — pipeline
  stages genuinely overlap across batches;
* pipelined serving is **bit-identical** to single-worker process serving
  and to a direct ``run_model`` call (the sharding contract: cutting the
  plan changes where layers run, never what they compute);
* a model whose mapped macros exceed the per-worker crossbar budget is
  rejected at one stage and **runs via sharding** (covered in depth by
  ``tests/test_shard.py``; the identity check here serves the same plan
  through real stage processes).

The workload is a deep stack of equal dense blocks — the regime pipeline
parallelism targets: per-batch compute an order of magnitude above the
per-edge transport cost, and enough layers to cut into balanced stages.
Pipeline parallelism needs real cores; on starved runners (fewer cores
than stages + parent) the throughput comparison is skipped, which the
regression gate treats as a warning, not a failure.

Run with::

    pytest benchmarks/bench_pipeline.py --benchmark-only -s
"""

import os

import numpy as np
import pytest

from _timing import best_metric, smoke_mode, write_bench_json
from repro.exec import run_model
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.layers import Flatten, Linear, ReLU
from repro.serve import ServeConfig, serve_requests

STAGES = 3
HIDDEN = 512 if smoke_mode() else 768
DEPTH = 6  # hidden-to-hidden blocks between the stem and the head
REQUESTS = 512 if smoke_mode() else 1024
MAX_BATCH = 64
ROUNDS = 2 if smoke_mode() else 3


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def deep_workload():
    """A deep trained MLP plus a request stream for the pipeline benchmark.

    Equal-width dense blocks give the partitioner a clean cost-balancing
    problem (each stage ends up with ~DEPTH/STAGES blocks) and keep the
    inter-stage activations small relative to per-stage compute.
    """
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=8, image_size=12,
                                                  noise_sigma=0.3, seed=29))
    x_train, y_train, x_test, _ = dataset.train_test_split(256, 64)
    layers = [Flatten(), Linear(432, HIDDEN, rng=np.random.default_rng(0)), ReLU()]
    for index in range(DEPTH):
        layers += [Linear(HIDDEN, HIDDEN, rng=np.random.default_rng(index + 1)),
                   ReLU()]
    layers += [Linear(HIDDEN, 8, rng=np.random.default_rng(DEPTH + 1))]
    model = Sequential(*layers)
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=1
    )
    requests = np.tile(x_test, (REQUESTS // len(x_test), 1, 1, 1))
    return model, requests


def _best_serving_time(model, images, config, rounds=ROUNDS):
    """Best-of-N first-arrival-to-last-completion time of a full serve run."""
    def serve_once():
        _, snapshot = serve_requests(model, images, config)
        assert snapshot.samples == len(images) and snapshot.counters["dropped"] == 0
        return snapshot

    best, snapshot = best_metric(serve_once, lambda s: s.wall_time_s,
                                 rounds=rounds)
    return best, snapshot


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_serving_bit_identical(benchmark, deep_workload):
    """Pipelined serving reproduces direct and 1-worker-process execution
    bit for bit on the deep workload."""
    model, requests = deep_workload
    images = requests[:MAX_BATCH]

    def check_identity():
        direct = run_model(model, images, backend="ideal",
                           batch_size=len(images))
        pipelined, snapshot = serve_requests(
            model, images,
            ServeConfig(max_batch=len(images), pipeline_stages=STAGES))
        one_proc, _ = serve_requests(
            model, images,
            ServeConfig(max_batch=len(images), workers="process"))
        assert all(worker.mode == "pipeline" for worker in snapshot.workers)
        assert any(worker.stages for worker in snapshot.workers), (
            "pipeline worker reported no per-stage occupancy")
        return {
            "direct": np.array_equal(pipelined, direct.logits),
            "one_process": np.array_equal(pipelined, one_proc),
        }

    outcomes = benchmark.pedantic(check_identity, rounds=1, iterations=1)
    print("\nPipelined-vs-reference bit identity:")
    for key, identical in sorted(outcomes.items()):
        print(f"  {key:12s} {'bit-identical' if identical else 'MISMATCH'}")
    assert all(outcomes.values()), outcomes


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_serving_beats_one_process_worker_1p5x(benchmark,
                                                        deep_workload):
    """Sharded pipeline serving >= 1.5x one-process-worker throughput on the
    deep workload; writes ``BENCH_pipeline.json``."""
    cores = _cores()
    if cores < STAGES + 1:
        pytest.skip(
            f"pipeline parallelism needs >= {STAGES + 1} cores "
            f"(stages + parent); this runner has {cores} — the regression "
            "gate warns (not fails) on the missing trajectory")
    model, requests = deep_workload

    def measure():
        one_proc, _ = _best_serving_time(
            model, requests,
            ServeConfig(max_batch=MAX_BATCH, workers="process"))
        pipelined, snapshot = _best_serving_time(
            model, requests,
            ServeConfig(max_batch=MAX_BATCH, pipeline_stages=STAGES))
        return one_proc, pipelined, snapshot

    one_proc_s, pipeline_s, snapshot = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    one_proc_rps = REQUESTS / one_proc_s
    pipeline_rps = REQUESTS / pipeline_s
    speedup = pipeline_rps / one_proc_rps
    print(f"\n[pipeline x{STAGES}] {pipeline_rps:.0f} samples/s vs "
          f"one process worker {one_proc_rps:.0f} samples/s "
          f"-> speedup {speedup:.2f}x")
    for worker in snapshot.workers:
        for stage in worker.stages:
            print(f"  stage {stage.index} "
                  f"(layers {stage.layer_start}..{stage.layer_stop - 1}): "
                  f"busy {stage.busy_s * 1e3:.1f} ms, "
                  f"bubble {stage.bubble_s * 1e3:.1f} ms, "
                  f"transport {stage.transport_s * 1e3:.1f} ms")

    path = write_bench_json("pipeline", {
        "stages": STAGES,
        "requests": REQUESTS,
        "hidden": HIDDEN,
        "depth": DEPTH,
        "cores": cores,
        "one_process_s": one_proc_s,
        "pipeline_s": pipeline_s,
        "one_process_rps": one_proc_rps,
        "pipeline_rps": pipeline_rps,
        "pipeline_speedup": speedup,
    })
    print(f"Trajectory written to {path}")

    assert speedup >= 1.5, (
        f"pipeline serving only {speedup:.2f}x faster than one process worker")
