"""Benchmark: dynamic batching and the serving determinism contract.

Two acceptance bars:

* at equal offered load (every request pre-queued, so both configurations
  face the same instantaneous backlog), dynamic batching with
  ``max_batch=64`` sustains at least 3x the steady-state throughput of a
  batch-size-1 service, in both worker modes;
* when the coalesced batch equals the direct batch, the served logits are
  bit-identical to ``run_model`` on every backend in the registry, in
  both worker modes.

Each timing is the best of several runs measured by the service's own
clock, so a loaded CI runner cannot flake the comparison.
``BENCH_serve.json`` records the batching ratios; the CI regression gate
diffs them against the committed baseline.  The process-worker transport
is measured end to end by ``perfbench`` (workload
``serve-analog-process``).

Run with::

    pytest benchmarks/bench_serve.py --benchmark-only -s
"""

import numpy as np
import pytest

from _timing import best_metric, smoke_mode, write_bench_json
from repro.exec import ExecutionContext, available_backends, run_model
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.layers import Flatten, Linear, ReLU
from repro.rram.device import RRAMStatistics
from repro.core import MacroConfig
from repro.serve import ServeConfig, serve_requests

REQUESTS = 64 if smoke_mode() else 256
ROUNDS = 2 if smoke_mode() else 3

@pytest.fixture(scope="module")
def workload():
    """A trained MLP classifier plus a request stream for the serving benchmarks.

    Matmul-heavy on purpose: dense layers run one BLAS gemm per batch, so a
    64-row batch costs far less than 64 single-row forwards — the regime
    dynamic batching exists for (the conv path's im2col cost scales almost
    linearly with batch size and would understate the effect).
    """
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=8, image_size=12,
                                                  noise_sigma=0.3, seed=17))
    x_train, y_train, x_test, _ = dataset.train_test_split(256, 64)
    model = Sequential(
        Flatten(),
        Linear(432, 1024, rng=np.random.default_rng(0)),
        ReLU(),
        Linear(1024, 256, rng=np.random.default_rng(1)),
        ReLU(),
        Linear(256, 8, rng=np.random.default_rng(2)),
    )
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=2
    )
    requests = np.tile(x_test, (REQUESTS // len(x_test), 1, 1, 1))
    return model, x_train, requests


def _best_serving_time(model, images, config, rounds=ROUNDS):
    """Best-of-N first-arrival-to-last-completion time over several runs.

    The time is the service's own clock (first arrival to last completion),
    minimised by the shared :func:`_timing.best_metric` helper.
    """
    def serve_once():
        _, snapshot = serve_requests(model, images, config)
        # submit_many enqueues max_batch-row slices, so the request count is
        # ceil(samples / max_batch); samples and zero drops pin completeness.
        assert snapshot.samples == len(images) and snapshot.counters["dropped"] == 0
        return snapshot

    best, _ = best_metric(serve_once, lambda s: s.wall_time_s, rounds=rounds)
    return best


@pytest.mark.benchmark(group="serve")
def test_dynamic_batching_beats_batch1_by_3x(benchmark, workload):
    """Dynamic batching (max_batch=64) >= 3x batch-size-1 throughput at
    equal offered load, in both worker modes; writes ``BENCH_serve.json``."""
    model, _, requests = workload
    results = {}

    def measure_thread_mode():
        batched = _best_serving_time(model, requests,
                                     ServeConfig(max_batch=64, max_wait_ms=2.0))
        batch1 = _best_serving_time(model, requests,
                                    ServeConfig(max_batch=1, max_wait_ms=2.0))
        return batched, batch1

    batched_time, batch1_time = benchmark.pedantic(
        measure_thread_mode, rounds=1, iterations=1)
    results["thread"] = (batched_time, batch1_time)

    # The same offered load on a process-pool worker: per-batch IPC taxes
    # batch-size-1 serving hardest, so the dynamic-batching edge must hold
    # there too (the bench_serve gate for workers="process").
    results["process"] = (
        _best_serving_time(model, requests,
                           ServeConfig(max_batch=64, max_wait_ms=2.0,
                                       workers="process"), rounds=2),
        _best_serving_time(model, requests,
                           ServeConfig(max_batch=1, max_wait_ms=2.0,
                                       workers="process"), rounds=1),
    )

    print()
    modes = {}
    for mode, (batched, batch1) in results.items():
        batched_rps = REQUESTS / batched
        batch1_rps = REQUESTS / batch1
        speedup = batched_rps / batch1_rps
        modes[mode] = {
            "batched_s": batched, "batch1_s": batch1,
            "batched_rps": batched_rps, "speedup": speedup,
        }
        print(f"[{mode:7s}] dynamic batching {batched_rps:.0f} samples/s, "
              f"batch-1 {batch1_rps:.0f} samples/s, speedup {speedup:.1f}x")
        assert speedup >= 3.0, (
            f"dynamic batching only {speedup:.2f}x faster in {mode} mode")
    path = write_bench_json("serve", {"requests": REQUESTS, "modes": modes})
    print(f"Trajectory written to {path}")


@pytest.mark.benchmark(group="serve")
def test_served_logits_bit_identical_on_every_backend(benchmark, workload):
    """Exact-batch serving reproduces direct ``run_model`` bit for bit on
    every registered backend."""
    model, x_train, requests = workload
    images = requests[:32]
    quiet = RRAMStatistics(programming_sigma=0.0, read_noise_sigma=0.0,
                           drift_coefficient=0.0,
                           stuck_at_lrs_probability=0.0,
                           stuck_at_hrs_probability=0.0)
    context = ExecutionContext(calibration=x_train[:16],
                               macro_config=MacroConfig(
                                   device_statistics=quiet,
                                   read_noise_enabled=False),
                               max_mapped_layers=1, seed=0)

    def check_all():
        outcomes = {}
        for backend in available_backends():
            direct = run_model(model, images, backend=backend,
                               context=context, batch_size=len(images))
            for mode in ("thread", "process"):
                served, _ = serve_requests(
                    model, images,
                    ServeConfig(backend=backend, max_batch=len(images),
                                context=context, workers=mode))
                outcomes[f"{backend}/{mode}"] = np.array_equal(served, direct.logits)
        return outcomes

    outcomes = benchmark.pedantic(check_all, rounds=1, iterations=1)
    print("\nServed-vs-direct bit identity:")
    for key, identical in sorted(outcomes.items()):
        print(f"  {key:22s} {'bit-identical' if identical else 'MISMATCH'}")
    assert all(outcomes.values()), outcomes
