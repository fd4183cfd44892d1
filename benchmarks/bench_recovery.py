"""Benchmark: fault-tolerance contract under seeded chaos drives.

The acceptance bars (hard asserts, so the gate never silently relaxes):

* with ``retry_policy="redispatch"`` a storm of seeded worker exits
  (``crash_mode="exit"`` at worker-process fault sites) during open-loop
  traffic causes **zero client-visible failures** — every dead worker's
  batches re-dispatch to survivors;
* the pool respawns back to its configured replica count within the
  recovery timeout;
* the respawned workers reuse the in-memory stage payloads — the run
  records plan-cache hit/miss counters and asserts the storm itself
  compiled nothing (misses happen at most once, at cold start);
* a seeded *hang* injection (a wedged forward that never raises) trips
  the dispatch deadline, the hung worker is killed and respawned and the
  batch completes on a survivor — again with zero client failures;
* a seeded *corrupt-slot* injection is caught by the CRC32 integrity
  check and the batch re-dispatches without killing the healthy worker.

``BENCH_recovery.json`` records the client success ratios of all three
drives, the recovered pool fractions, the worst observed recovery time
and the retry / respawn / timeout / corruption counters;
``check_regression.py`` gates the ratios against the committed baseline.
All drives write through one ``write_bench_json`` call because it
replaces the whole file (last write wins).

Run with::

    pytest benchmarks/bench_recovery.py --benchmark-only -s
"""

import numpy as np
import pytest

from _timing import smoke_mode, write_bench_json
from repro.faults.injector import FaultRule, FaultSpec
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.layers import Flatten, Linear, ReLU
from repro.serve import ServeConfig
from repro.serve.loadgen import run_loadtest

REQUESTS = 90 if smoke_mode() else 240
CHAOS_REQUESTS = 60 if smoke_mode() else 160
RATE_RPS = 600.0
#: Each worker process hard-exits on its fourth forward and on its second
#: response-ring write (once per process; the rules re-arm on respawn).
STORM_SPEC = FaultSpec(seed=3, rules=(
    FaultRule(site="worker.forward", action="crash", crash_mode="exit",
              at=(3,), max_fires=1),
    FaultRule(site="shm.response.write", action="crash", crash_mode="exit",
              at=(1,), max_fires=1),
))


@pytest.fixture(scope="module")
def workload():
    """A trained MLP plus request payloads for the chaos drive."""
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=8, image_size=12,
                                                  noise_sigma=0.3, seed=29))
    x_train, y_train, x_test, _ = dataset.train_test_split(192, 64)
    model = Sequential(
        Flatten(),
        Linear(432, 128, rng=np.random.default_rng(0)),
        ReLU(),
        Linear(128, 8, rng=np.random.default_rng(1)),
    )
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=1
    )
    return model, x_test


@pytest.mark.benchmark(group="recovery")
def test_chaos_drives_recover_with_zero_client_failures(benchmark, workload,
                                                        tmp_path_factory):
    """Worker-exit storm, seeded hang and corrupt-slot drives over process
    workers: zero failures, full respawn, respawns recompile-free (they
    reuse the in-memory stage payloads); writes ``BENCH_recovery.json`` (one write, all keys).
    """
    model, x_test = workload
    cache_dir = str(tmp_path_factory.mktemp("plan-cache"))
    config = ServeConfig(max_batch=16, num_workers=2, workers="process",
                         plan_cache=cache_dir, max_retries=4,
                         faults=STORM_SPEC)

    def storm():
        return run_loadtest(model, x_test, config, pattern="uniform",
                            rate_rps=RATE_RPS, num_requests=REQUESTS,
                            seed=5)

    result = benchmark.pedantic(storm, rounds=1, iterations=1)
    chaos = result.chaos
    snapshot = result.snapshot
    success_ratio = 1.0 - result.failures / REQUESTS
    recovered_fraction = chaos["alive_workers"] / config.num_workers
    recovery_s = float(chaos["recovery_s"])

    print()
    print(f"storm: {chaos['worker_deaths']} worker deaths, "
          f"{result.failures} client "
          f"failures / {REQUESTS} requests, "
          f"{snapshot.counters['retried_batches']} batches re-dispatched, "
          f"{snapshot.counters['respawns']} respawns, worst recovery "
          f"{recovery_s * 1e3:.0f} ms, plan cache "
          f"{snapshot.counters['plan_cache_hits']} hits / "
          f"{snapshot.counters['plan_cache_misses']} misses")

    # --- seeded hang: dispatch deadline -> kill -> respawn -> re-dispatch
    # Per-process fault counters re-arm in every respawned worker, so the
    # ``at=(2,)`` hang can re-fire after a respawn; the generous retry
    # budget plus jittered re-dispatch backoff breaks the resonance where
    # a retried batch keeps landing on a fresh worker's fatal call index.
    hang_config = ServeConfig(
        max_batch=16, num_workers=2, workers="process",
        dispatch_timeout_s=0.5, max_retries=8,
        redispatch_backoff_base_s=0.01,
        faults=FaultSpec(seed=11, rules=(
            FaultRule(site="worker.forward", action="hang", at=(2,),
                      hang_s=30.0, max_fires=1),)))
    hang = run_loadtest(model, x_test, hang_config, pattern="uniform",
                        rate_rps=RATE_RPS, num_requests=CHAOS_REQUESTS,
                        seed=5)
    hang_chaos = hang.chaos
    hang_success = 1.0 - hang.failures / CHAOS_REQUESTS
    print(f"hang-recovery: {hang_chaos['dispatch_timeouts']} dispatch "
          f"timeouts, {hang.failures} client failures / {CHAOS_REQUESTS} "
          f"requests, {hang_chaos['respawns']} respawns")

    # --- seeded slot corruption: CRC catch -> re-dispatch, no deaths
    corrupt_config = ServeConfig(
        max_batch=16, num_workers=2, workers="process",
        shm_integrity=True, max_retries=8, redispatch_backoff_base_s=0.01,
        faults=FaultSpec(seed=11, rules=(
            FaultRule(site="shm.request.write", action="corrupt", at=(1,),
                      max_fires=1),)))
    corrupt = run_loadtest(model, x_test, corrupt_config, pattern="uniform",
                           rate_rps=RATE_RPS, num_requests=CHAOS_REQUESTS,
                           seed=5)
    corrupt_chaos = corrupt.chaos
    corrupt_success = 1.0 - corrupt.failures / CHAOS_REQUESTS
    print(f"corrupt-slot: {corrupt_chaos['corruptions']} corruptions "
          f"caught, {corrupt.failures} client failures / {CHAOS_REQUESTS} "
          f"requests, {corrupt_chaos['worker_deaths']} worker deaths")

    # One write carries every drive's keys: write_bench_json replaces the
    # whole BENCH_recovery.json, so split writes would drop earlier keys.
    path = write_bench_json("recovery", {
        "requests": REQUESTS,
        "client_success_ratio": success_ratio,
        "recovered_fraction": recovered_fraction,
        "recovery_s": recovery_s,
        "worker_deaths": snapshot.counters["worker_deaths"],
        "retried_batches": snapshot.counters["retried_batches"],
        "respawns": snapshot.counters["respawns"],
        "plan_cache_hits": snapshot.counters["plan_cache_hits"],
        "plan_cache_misses": snapshot.counters["plan_cache_misses"],
        "chaos_requests": CHAOS_REQUESTS,
        "hang_success_ratio": hang_success,
        "hang_recovered_fraction": (hang_chaos["alive_workers"]
                                    / hang_config.num_workers),
        "hang_dispatch_timeouts": hang_chaos["dispatch_timeouts"],
        "hang_respawns": hang_chaos["respawns"],
        "corrupt_success_ratio": corrupt_success,
        "corrupt_recovered_fraction": (corrupt_chaos["alive_workers"]
                                       / corrupt_config.num_workers),
        "corrupt_slots_caught": corrupt_chaos["corruptions"],
        "corrupt_worker_deaths": corrupt_chaos["worker_deaths"],
    })
    print(f"Trajectory written to {path}")

    assert snapshot.counters["worker_deaths"] >= 1, "the storm killed no worker"
    assert result.failures == 0, (
        f"{result.failures} client-visible failures during the storm")
    assert chaos["recovered"], "pool did not respawn to full strength"
    assert recovered_fraction == 1.0
    assert snapshot.counters["respawns"] >= 1
    # Respawns reuse the cached payload: compilation (a cache miss + store)
    # happens at most once, at cold start — never during the storm.
    assert snapshot.counters["plan_cache_misses"] <= 1
    # Hang drive: the deadline must actually fire, and fire recoverably.
    assert hang_chaos["dispatch_timeouts"] >= 1, "the hang never tripped"
    assert hang.failures == 0, (
        f"{hang.failures} client-visible failures during hang recovery")
    assert hang_chaos["recovered"], "pool did not recover from the hang"
    # Corrupt drive: CRC must catch the injected bit-rot, and catching it
    # must not kill the (healthy) worker.
    assert corrupt_chaos["corruptions"] >= 1, "the corruption went uncaught"
    assert corrupt.failures == 0, (
        f"{corrupt.failures} client failures during corrupt-slot recovery")
    assert corrupt_chaos["worker_deaths"] == 0, (
        "slot corruption must re-dispatch without killing the worker")
