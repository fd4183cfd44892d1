"""Benchmark: the observability layer's overhead gate.

Tracing exists to be left on in production, so its cost envelope is a
contract, not a hope.  Two acceptance bars:

* **disabled path** (``trace_sample_rate=0``, the default): the per-request
  tracer hooks — one sampling decision plus the ``tracer.enabled`` checks
  on the batch-formed / dispatch / finish paths — must cost at most 2% of a
  request's end-to-end serving time.  The hook cost is measured directly
  (a tight loop over the real calls a request makes when tracing is off)
  and compared against the measured per-request serving latency, because
  an end-to-end A/B of the *same* binary with the *same* flag cannot
  resolve a sub-2% delta above CI runner noise;
* **sampled path** (``trace_sample_rate=0.01``): serving a request costs
  at most 5% more process CPU than with tracing disabled — CPU seconds
  (all threads, ``time.process_time``) of a serving run, averaged over
  the middle half of many interleaved rounds, divided by the requests
  served.  Each round seeds its own sampling stream, and the rounds
  together must trace at least one request.  Wall-clock throughput is printed next to it but not gated: on
  a shared 2-vCPU runner its ratio read 0.64-1.34 on unchanged code,
  while CPU time does not count the time the runner spends on other work.

``BENCH_obs.json`` records the ratios; the CI regression gate diffs
``sampled_cpu_ratio`` and ``disabled_headroom`` against the committed
baseline, a measured run, with floors that keep the gate no stricter than
the hard asserts below.

Run with::

    pytest benchmarks/bench_obs.py --benchmark-only -s
"""

import asyncio
import dataclasses
import time

import numpy as np
import pytest

from _timing import smoke_mode, write_bench_json
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.layers import Flatten, Linear, ReLU
from repro.obs.trace import Tracer
from repro.serve import InferenceService, ServeConfig

REQUESTS = 96 if smoke_mode() else 256
#: Interleaved serving runs per configuration.  One run's CPU time varies
#: by 10-20 % on a shared 2-vCPU host, and a GC pass can quadruple it; the
#: interquartile mean of 80 runs kept the ratio within 0.955-1.016 over 20
#: smoke reruns of one commit (the median of 40 runs: 0.943-1.033 over 10).
ROUNDS = 80

#: Tracer touchpoints on a request's hot path while tracing is disabled:
#: the sampling decision in ``submit_nowait`` plus the ``tracer.enabled``
#: early-outs in ``_trace_batch_formed``, ``_batch_primary_trace`` and
#: ``_finish_request_traces``.
DISABLED_HOOKS_PER_REQUEST = 4


@pytest.fixture(scope="module")
def workload():
    """A trained matmul-heavy MLP plus a request stream.

    Same shape rationale as ``bench_serve``: dense layers make batched
    serving cheap per row, which *maximises* the relative weight of any
    per-request bookkeeping — the hardest regime for an overhead gate.
    """
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=8, image_size=12,
                                                  noise_sigma=0.3, seed=17))
    x_train, y_train, x_test, _ = dataset.train_test_split(256, 64)
    model = Sequential(
        Flatten(),
        Linear(432, 512, rng=np.random.default_rng(0)),
        ReLU(),
        Linear(512, 8, rng=np.random.default_rng(1)),
    )
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=1
    )
    requests = np.tile(x_test, (REQUESTS // len(x_test), 1, 1, 1))
    return model, requests


def _serve_once(model, images, config, seed):
    """One full serving run; returns (wall_time_s, cpu_s,
    traced_request_count), where ``cpu_s`` is the process CPU time spent
    serving ``images`` (start and stop excluded).

    ``seed`` becomes the context seed, which seeds the service's trace
    sampling: every run draws its own decisions.  (Seed 0's first 40
    draws all miss 1 %, so runs that all replayed it traced nothing.)
    """
    config = dataclasses.replace(
        config, context=dataclasses.replace(config.context, seed=seed))

    async def run():
        service = InferenceService(model, config)
        await service.start()
        try:
            cpu_start = time.process_time()
            await service.submit_many(images)
            cpu_s = time.process_time() - cpu_start
        finally:
            await service.stop()
        snapshot = service.metrics_snapshot()
        assert snapshot.counters["dropped"] == 0 and snapshot.samples == len(images)
        return snapshot.wall_time_s, cpu_s, service.tracer.traced_requests

    return asyncio.run(run())


def _interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``: robust to the rare run a GC
    pass or a neighbour's burst inflates, less noisy than the median."""
    ordered = np.sort(values)
    quarter = len(ordered) // 4
    return float(ordered[quarter:len(ordered) - quarter].mean())


def _disabled_hook_cost_s() -> float:
    """Per-call cost of the tracer's disabled fast path, best of 3 loops."""
    tracer = Tracer(sample_rate=0.0)
    iterations = 50_000
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for index in range(iterations):
            tracer.maybe_start_request(index, "standard", 1)
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


@pytest.mark.benchmark(group="obs")
def test_tracing_overhead_within_contract(benchmark, workload):
    """Disabled tracing <= 2% of per-request time; 1% sampling costs at
    most 5% more CPU per request.  Writes ``BENCH_obs.json``."""
    model, requests = workload
    configs = {
        "disabled": ServeConfig(max_batch=8, max_wait_ms=2.0),
        "sampled": ServeConfig(max_batch=8, max_wait_ms=2.0,
                               trace_sample_rate=0.01),
    }

    def measure():
        best = {label: float("inf") for label in configs}
        cpu = {label: [] for label in configs}
        traced = {label: 0 for label in configs}
        labels = list(configs)
        for label in labels:  # warm-up: lazy imports, first allocations
            _serve_once(model, requests, configs[label], seed=0)
        # Interleaved, alternating which goes first: a load spike on the
        # runner slows whichever config is mid-flight, not systematically
        # one side of the ratio.  Both configs of a round share its seed.
        for round_index in range(ROUNDS):
            for label in labels[::1 if round_index % 2 == 0 else -1]:
                wall, cpu_s, count = _serve_once(model, requests,
                                                 configs[label],
                                                 seed=round_index + 1)
                best[label] = min(best[label], wall)
                cpu[label].append(cpu_s)
                traced[label] += count
        return best, cpu, traced

    best, cpu, traced = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert traced["disabled"] == 0
    # The sampled side must record spans, not only draw the sampling RNG.
    assert traced["sampled"] > 0

    # submit_many enqueues max_batch-row slices: that slice count is the
    # request count the per-request budgets divide over.
    served_requests = -(-len(requests) // configs["disabled"].max_batch)
    cpu_per_request = {label: _interquartile_mean(cpu[label]) / served_requests
                       for label in configs}
    sampled_cpu_ratio = cpu_per_request["disabled"] / cpu_per_request["sampled"]
    sampled_ratio = best["disabled"] / best["sampled"]
    hook_s = _disabled_hook_cost_s()
    per_request_s = best["disabled"] / served_requests
    overhead_fraction = (DISABLED_HOOKS_PER_REQUEST * hook_s) / per_request_s
    headroom = 0.02 / max(overhead_fraction, 1e-12)

    print()
    print(f"disabled   {served_requests / best['disabled']:8.0f} req/s "
          f"({per_request_s * 1e6:.0f} us/request), "
          f"cpu {cpu_per_request['disabled'] * 1e6:.0f} us/request")
    print(f"sampled 1% {served_requests / best['sampled']:8.0f} req/s "
          f"({traced['sampled']} traced), "
          f"cpu {cpu_per_request['sampled'] * 1e6:.0f} us/request; "
          f"cpu ratio {sampled_cpu_ratio:.3f}, "
          f"wall throughput ratio {sampled_ratio:.3f}")
    print(f"disabled hook {hook_s * 1e9:.0f} ns/call x "
          f"{DISABLED_HOOKS_PER_REQUEST}/request = "
          f"{overhead_fraction * 100:.4f}% of request time "
          f"(budget 2%, headroom {headroom:.0f}x)")

    path = write_bench_json("obs", {
        "requests": REQUESTS,
        "served_requests": served_requests,
        "disabled_wall_s": best["disabled"],
        "sampled_wall_s": best["sampled"],
        "disabled_cpu_s_per_request": cpu_per_request["disabled"],
        "sampled_cpu_s_per_request": cpu_per_request["sampled"],
        "sampled_traced_requests": traced["sampled"],
        "sampled_cpu_ratio": sampled_cpu_ratio,
        "sampled_throughput_ratio": sampled_ratio,
        "disabled_hook_ns": hook_s * 1e9,
        "disabled_overhead_fraction": overhead_fraction,
        "disabled_headroom": headroom,
    })
    print(f"Trajectory written to {path}")

    assert overhead_fraction <= 0.02, (
        f"disabled tracer hooks cost {overhead_fraction * 100:.2f}% of a "
        f"request (budget 2%)")
    assert sampled_cpu_ratio >= 0.95, (
        f"1% sampling costs {(1 / sampled_cpu_ratio - 1) * 100:.1f}% more "
        f"CPU per request than disabled tracing (contract: <= 5%)")
