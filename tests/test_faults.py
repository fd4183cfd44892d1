"""Tests for the seeded fault-injection layer and its serving contracts.

What the tentpole promises (and these tests hold it to):

* :class:`repro.faults.injector.FaultInjector` is deterministic — the
  same ``(seed, spec)`` replayed over the same call sequence fires the
  same faults, and specs round-trip through JSON;
* CRC32 slot integrity catches injected bit-rot exactly where it lands
  (post-header, so the read side sees true corruption), and corruption
  re-dispatches *without* killing the healthy worker;
* a seeded hang trips the dispatch deadline, the hung worker is killed,
  respawned and its batch re-dispatched — with zero client failures;
* a frozen process (SIGSTOP — no exception ever surfaces) is caught by
  the heartbeat watchdog;
* chaos sweeps over the process *and* pipeline transports return
  bit-identical logits to a fault-free run (ideal backend: per-request
  results are independent of batch composition and retries);
* repeated respawn failures open the circuit breaker instead of hot
  looping, and degraded pools shed their lowest class at admission;
* :class:`repro.exec.plan.PlanCache` serialises concurrent compilers
  through its claim file (satellite 3) and the batcher's flush deadline
  survives stale arrivals and carried-over requests (satellite 4).
"""

import asyncio
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.exec.plan import PlanCache
from repro.faults import injector as faults
from repro.faults.injector import (
    CRASH_EXIT_CODE,
    FaultInjector,
    FaultRule,
    FaultSpec,
    InjectedFaultError,
)
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.layers import Flatten, Linear, ReLU
from repro.serve import InferenceService, ServeConfig, ServiceDegradedError
from repro.serve.batcher import DynamicBatcher, Request
from repro.serve.cli import parse_fault_spec
from repro.serve.loadgen import run_loadtest
from repro.serve.recovery import MAX_RESPAWN_FAILURES
from repro.serve.shm import IntegrityError, SlotRing


def run_async(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def trained_setup():
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=10,
                                                  noise_sigma=0.3, seed=7))
    x_train, y_train, x_test, _ = dataset.train_test_split(96, 48)
    model = Sequential(
        Flatten(),
        Linear(300, 32, rng=np.random.default_rng(0)),
        ReLU(),
        Linear(32, 4, rng=np.random.default_rng(1)),
    )
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=1
    )
    return model, x_test


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Process-global injector state must never leak between tests."""
    faults.uninstall()
    yield
    faults.uninstall()


def _corruption_schedule(spec: FaultSpec, site: str, calls: int):
    """Which of ``calls`` fire a corrupt rule, observed via byte flips."""
    injector = FaultInjector(spec)
    fired = []
    for index in range(calls):
        payload = np.zeros(16, dtype=np.uint8)
        injector.fire(site, payload)
        fired.append(bool(payload.any()))
    return fired


class TestFaultSpec:
    def test_json_round_trip(self):
        spec = FaultSpec(seed=11, rules=(
            FaultRule(site="worker.forward", action="hang", at=(3,),
                      hang_s=30.0, max_fires=1),
            FaultRule(site="shm.request.write", action="corrupt", p=0.25),
            FaultRule(site="respawn", action="crash", at=(0, 2),
                      crash_mode="raise"),
        ))
        assert FaultSpec.from_json(spec.to_json()) == spec
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_at_indices_are_sorted(self):
        rule = FaultRule(site="worker.forward", action="delay", at=(5, 1, 3))
        assert rule.at == (1, 3, 5)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(site="worker.forward", action="melt", at=(0,)), "unknown fault action"),
        (dict(site="worker.forward", action="delay"), "can never trigger"),
        (dict(site="", action="delay", at=(0,)), "non-empty site"),
        (dict(site="worker.forward", action="delay", p=1.5), "p must be"),
        (dict(site="worker.forward", action="delay", at=(-1,)), "must be >= 0"),
        (dict(site="worker.forward", action="crash", at=(0,),
              crash_mode="segfault"), "unknown crash_mode"),
        (dict(site="worker.forward", action="delay", at=(0,),
              max_fires=0), "max_fires must be >= 1"),
    ])
    def test_invalid_rules_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultRule(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"site": "worker.forward", "action": "delay",
                                 "at": [0], "sev": "high"})


class TestInjectorDeterminism:
    def test_probabilistic_schedule_reproduces(self):
        spec = FaultSpec(seed=3, rules=(
            FaultRule(site="shm.request.write", action="corrupt", p=0.3),))
        first = _corruption_schedule(spec, "shm.request.write", 200)
        second = _corruption_schedule(spec, "shm.request.write", 200)
        assert first == second
        assert 20 < sum(first) < 120  # p=0.3 actually fires, seeded

    def test_different_seed_different_schedule(self):
        base = FaultSpec(seed=3, rules=(
            FaultRule(site="shm.request.write", action="corrupt", p=0.3),))
        other = FaultSpec(seed=4, rules=base.rules)
        assert (_corruption_schedule(base, "shm.request.write", 200)
                != _corruption_schedule(other, "shm.request.write", 200))

    def test_at_index_fires_exactly_there(self):
        spec = FaultSpec(seed=0, rules=(
            FaultRule(site="shm.request.write", action="corrupt", at=(3,)),))
        fired = _corruption_schedule(spec, "shm.request.write", 6)
        assert fired == [False, False, False, True, False, False]

    def test_max_fires_caps_a_certain_rule(self):
        spec = FaultSpec(seed=0, rules=(
            FaultRule(site="shm.request.write", action="corrupt", p=1.0,
                      max_fires=2),))
        fired = _corruption_schedule(spec, "shm.request.write", 5)
        assert fired == [True, True, False, False, False]

    def test_crash_raises_injected_fault(self):
        injector = FaultInjector(FaultSpec(seed=0, rules=(
            FaultRule(site="worker.forward", action="crash", at=(1,)),)))
        injector.fire("worker.forward")
        with pytest.raises(InjectedFaultError, match="call 1"):
            injector.fire("worker.forward")
        assert injector.report()["worker.forward"]["crash"] == 1

    def test_corrupt_without_payload_reports_to_caller(self):
        injector = FaultInjector(FaultSpec(seed=0, rules=(
            FaultRule(site="plan_cache.load", action="corrupt", at=(0,)),)))
        assert injector.fire("plan_cache.load") is True
        assert injector.fire("plan_cache.load") is False

    def test_unconfigured_site_is_free(self):
        injector = FaultInjector(FaultSpec(seed=0, rules=(
            FaultRule(site="respawn", action="delay", at=(0,)),)))
        assert injector.fire("worker.forward") is False
        assert "worker.forward" not in injector.report()

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 23

    def test_module_install_uninstall(self):
        assert faults.get_installed() is None
        assert faults.fire("worker.forward") is False  # free no-op
        installed = faults.install({"seed": 5, "rules": [
            {"site": "plan_cache.load", "action": "corrupt", "at": [0]}]})
        assert faults.get_installed() is installed
        assert faults.fire("plan_cache.load") is True
        faults.uninstall()
        assert faults.get_installed() is None

    def test_uninstalled_fire_is_cheap(self):
        # The acceptance bar is <= 2% serving overhead with no injector
        # installed; the hot-path guard is one module-global read, which
        # this (deliberately loose) budget would catch regressing to
        # anything heavier like spec parsing or lock taking.
        start = time.perf_counter()
        for _ in range(200_000):
            faults.fire("worker.forward")
        assert time.perf_counter() - start < 1.0


class TestSlotRingIntegrity:
    def test_checksum_round_trip(self):
        ring = SlotRing(2, 8 * 16, checksum=True)
        try:
            payload = np.arange(16, dtype=np.float64)
            ring.write(1, payload)
            assert np.array_equal(ring.read(1, (16,)), payload)
        finally:
            ring.close()
            ring.unlink()

    def test_bit_rot_raises_integrity_error(self):
        ring = SlotRing(1, 8 * 16, checksum=True)
        try:
            ring.write(0, np.arange(16, dtype=np.float64))
            # Flip one payload byte behind the header's back: bit-rot.
            from repro.serve.shm import HEADER_NBYTES
            ring.segment.buf[HEADER_NBYTES + 3] ^= 0xFF
            with pytest.raises(IntegrityError, match="CRC mismatch"):
                ring.read(0, (16,))
        finally:
            ring.close()
            ring.unlink()

    def test_geometry_mismatch_raises_integrity_error(self):
        ring = SlotRing(1, 8 * 16, checksum=True)
        try:
            ring.write(0, np.arange(16, dtype=np.float64))
            with pytest.raises(IntegrityError, match="advertises"):
                ring.read(0, (8,))  # header says 128 bytes, view covers 64
        finally:
            ring.close()
            ring.unlink()

    def test_stale_attach_coordinates_fail_loudly(self):
        ring = SlotRing(1, 64, checksum=True)
        try:
            with pytest.raises(ValueError, match="stale"):
                SlotRing.attach(ring.name, 4, 64, checksum=True)
        finally:
            ring.close()
            ring.unlink()

    def test_fault_site_corruption_lands_after_the_crc(self):
        # The injected flip must hit bytes the read-side check covers —
        # i.e. corruption is applied after the header was computed, so
        # the CRC catches exactly the injected bit-rot.
        faults.install(FaultSpec(seed=0, rules=(
            FaultRule(site="shm.request.write", action="corrupt", at=(0,)),)))
        ring = SlotRing(1, 8 * 16, checksum=True)
        ring.fault_site = "shm.request"
        try:
            ring.write(0, np.arange(16, dtype=np.float64))
            with pytest.raises(IntegrityError, match="CRC mismatch"):
                ring.read(0, (16,))
            # The next write is past the rule's schedule: clean again.
            ring.write(0, np.arange(16, dtype=np.float64))
            assert ring.read(0, (16,))[3] == 3.0
        finally:
            ring.close()
            ring.unlink()


def _chaos_load(model, x_test, config):
    # ``time_scale=0`` queues every request up-front, so the batcher cuts
    # the same full batches every run: identical batch shapes keep BLAS on
    # identical code paths, which is what makes "bit-identical" a fair
    # assertion (a lone request takes the gemv path and differs from its
    # co-batched gemm result in the last ulp).
    return run_loadtest(model, x_test, config, pattern="uniform",
                        rate_rps=600.0, num_requests=48, seed=5,
                        time_scale=0.0)


class TestChaosRecovery:
    """Service-level chaos drives (process workers are real processes)."""

    def test_hang_trips_deadline_and_recovers_bit_identically(
            self, trained_setup):
        model, x_test = trained_setup
        base = dict(backend="ideal", max_batch=8, max_wait_ms=2.0,
                    num_workers=2, workers="process")
        clean = _chaos_load(model, x_test, ServeConfig(**base))
        chaos_config = ServeConfig(
            **base, dispatch_timeout_s=0.5, max_retries=8,
            redispatch_backoff_base_s=0.01,
            faults=FaultSpec(seed=11, rules=(
                FaultRule(site="worker.forward", action="hang", at=(2,),
                          hang_s=30.0, max_fires=1),)))
        chaos = _chaos_load(model, x_test, chaos_config)
        assert chaos.chaos["dispatch_timeouts"] >= 1, "the hang never tripped"
        assert chaos.failures == 0
        assert chaos.chaos["recovered"]
        assert chaos.snapshot.counters["respawns"] >= 1
        # Ideal backend: per-request logits are batch- and retry-invariant,
        # so the chaos run must be bit-identical to the fault-free run.
        assert np.array_equal(chaos.logits, clean.logits)

    @pytest.mark.parametrize("site", ["shm.request.write",
                                      "shm.response.write"])
    def test_corrupt_slot_redispatches_without_killing(self, trained_setup,
                                                        site):
        # The request site fires on the parent's write into the worker's
        # input ring, the response site on the worker's write into its
        # output ring; the CRC check catches either on the read side.
        model, x_test = trained_setup
        base = dict(backend="ideal", max_batch=8, max_wait_ms=2.0,
                    num_workers=2, workers="process", shm_integrity=True)
        clean = _chaos_load(model, x_test, ServeConfig(**base))
        chaos_config = ServeConfig(
            **base, max_retries=8, redispatch_backoff_base_s=0.01,
            faults=FaultSpec(seed=11, rules=(
                FaultRule(site=site, action="corrupt", at=(1,),
                          max_fires=1),)))
        chaos = _chaos_load(model, x_test, chaos_config)
        assert chaos.chaos["corruptions"] >= 1, "the corruption went uncaught"
        assert chaos.failures == 0
        assert chaos.snapshot.counters["worker_deaths"] == 0, (
            "integrity failures must re-dispatch without killing the worker")
        assert np.array_equal(chaos.logits, clean.logits)

    def test_pipeline_edge_corruption_recovers_bit_identically(
            self, trained_setup):
        # Sequential full-batch waves: the first wave teaches the pipeline
        # its stage-ring geometry (rings are built from the first completed
        # batch's stats), so the later waves ride the shm edges where the
        # corrupt rule lives — and batch shapes stay identical across the
        # clean and chaos runs.
        model, x_test = trained_setup
        base = dict(backend="ideal", max_batch=8, max_wait_ms=2.0,
                    num_workers=1, workers="process", pipeline_stages=2,
                    shm_integrity=True)

        async def drive(config):
            service = InferenceService(model, config)
            await service.start()
            waves = []
            for i in range(6):
                waves.append(await service.submit_many(x_test[8 * i:8 * i + 8]))
            snapshot = service.metrics_snapshot()
            await service.stop()
            return np.vstack(waves), snapshot

        clean_logits, _ = run_async(drive(ServeConfig(**base)))
        chaos_config = ServeConfig(
            **base, max_retries=8, redispatch_backoff_base_s=0.01,
            faults=FaultSpec(seed=11, rules=(
                FaultRule(site="pipeline.edge.write", action="corrupt",
                          at=(1,), max_fires=1),)))
        chaos_logits, snapshot = run_async(drive(chaos_config))
        assert snapshot.counters["corruptions"] >= 1, "the edge corruption went uncaught"
        assert snapshot.counters["retried_batches"] >= 1
        assert snapshot.counters["worker_deaths"] == 0
        assert np.array_equal(chaos_logits, clean_logits)

    def test_chaos_rerun_is_bit_identical(self, trained_setup):
        model, x_test = trained_setup
        spec = FaultSpec(seed=11, rules=(
            FaultRule(site="worker.forward", action="hang", at=(2,),
                      hang_s=30.0, max_fires=1),
            FaultRule(site="shm.request.write", action="corrupt", at=(1,),
                      max_fires=1),))
        config = ServeConfig(backend="ideal", max_batch=8, max_wait_ms=2.0,
                             num_workers=2, workers="process",
                             dispatch_timeout_s=0.5, shm_integrity=True,
                             max_retries=8, redispatch_backoff_base_s=0.01,
                             faults=spec)
        first = _chaos_load(model, x_test, config)
        second = _chaos_load(model, x_test, config)
        assert first.failures == 0 and second.failures == 0
        assert np.array_equal(first.logits, second.logits)


class TestHeartbeatWatchdog:
    def test_sigstopped_worker_trips_and_respawns(self, trained_setup):
        # SIGSTOP freezes the process without any exception surfacing —
        # only the stalled heartbeat counter gives it away.
        model, x_test = trained_setup
        config = ServeConfig(backend="ideal", max_batch=8, max_wait_ms=2.0,
                             num_workers=2, workers="process", max_retries=4,
                             heartbeat_timeout_s=0.4)

        async def scenario():
            service = InferenceService(model, config)
            await service.start()
            warm = await service.submit(x_test[0])
            pid = service.process_worker_pids()[0][0]
            os.kill(pid, signal.SIGSTOP)
            # Wait for the trip *and* the respawn it starts: stopping at
            # the trip alone races the respawn against the assertions.
            deadline = asyncio.get_running_loop().time() + 10.0
            while ((service.metrics_snapshot().counters["heartbeat_trips"] < 1
                    or not service.pool_recovered())
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.05)
            after = await service.submit(x_test[0])
            snapshot = service.metrics_snapshot()
            await service.stop()
            return warm, after, snapshot

        warm, after, snapshot = run_async(scenario())
        assert snapshot.counters["heartbeat_trips"] >= 1, "the watchdog never tripped"
        assert snapshot.counters["respawns"] >= 1
        assert np.array_equal(warm, after)


class TestRespawnCircuitBreaker:
    def test_repeated_respawn_failure_opens_the_breaker(self, trained_setup):
        # Every respawn attempt is made to fail (injected crash at the
        # parent's `respawn` site): the breaker must open after
        # MAX_RESPAWN_FAILURES instead of hot-looping, and the surviving
        # worker keeps serving.
        model, x_test = trained_setup
        config = ServeConfig(backend="ideal", max_batch=8, max_wait_ms=2.0,
                             num_workers=2, workers="process", max_retries=4,
                             faults=FaultSpec(seed=0, rules=(
                                 FaultRule(site="respawn", action="crash",
                                           p=1.0),)))

        async def scenario():
            service = InferenceService(model, config)
            await service.start()
            await service.submit(x_test[0])
            os.kill(service.process_worker_pids()[0][0], signal.SIGKILL)
            deadline = asyncio.get_running_loop().time() + 10.0
            while (service.metrics_snapshot().counters["breaker_trips"] < 1
                   and asyncio.get_running_loop().time() < deadline):
                await service.submit(x_test[1])
                await asyncio.sleep(0.05)
            survivor = await service.submit(x_test[2])
            snapshot = service.metrics_snapshot()
            recovered = service.pool_recovered()
            await service.stop()
            return survivor, snapshot, recovered

        survivor, snapshot, recovered = run_async(scenario())
        assert snapshot.counters["respawn_failures"] >= MAX_RESPAWN_FAILURES
        assert snapshot.counters["breaker_trips"] >= 1
        assert not recovered, "the breaker must hold the dead slot down"
        assert survivor.shape == (1, 4)


class TestGracefulDegradation:
    def test_timeout_burst_sheds_lowest_class_at_admission(self,
                                                           trained_setup):
        # One dispatch timeout inside the window pushes the service into
        # degraded mode: the (default) shed class is rejected at submit
        # with ServiceDegradedError instead of queueing onto a sick pool.
        model, x_test = trained_setup
        config = ServeConfig(backend="ideal", max_batch=8, max_wait_ms=2.0,
                             num_workers=1, workers="process", max_retries=8,
                             dispatch_timeout_s=0.3,
                             redispatch_backoff_base_s=0.01,
                             shed_timeout_threshold=1,
                             shed_timeout_window_s=60.0,
                             faults=FaultSpec(seed=0, rules=(
                                 FaultRule(site="worker.forward",
                                           action="hang", at=(1,),
                                           hang_s=30.0, max_fires=1),)))

        async def scenario():
            service = InferenceService(model, config)
            await service.start()
            await service.submit(x_test[0])  # call 0: healthy
            hung = await service.submit(x_test[1])  # call 1 hangs, recovers
            with pytest.raises(ServiceDegradedError, match="shedding"):
                await service.submit_nowait(x_test[2])
            snapshot = service.metrics_snapshot()
            await service.stop()
            return hung, snapshot

        hung, snapshot = run_async(scenario())
        assert hung.shape == (1, 4)
        assert snapshot.counters["dispatch_timeouts"] >= 1
        assert snapshot.counters["shed_requests"] >= 1


class TestPlanCacheClaims:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        assert cache.claim("key") is True
        assert cache.claim("key") is False
        cache.release("key")
        cache.release("key")  # idempotent
        assert cache.claim("key") is True
        cache.release("key")

    def test_stale_claim_is_broken(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        assert cache.claim("key")
        old = time.time() - 10.0
        os.utime(cache.claim_path_for("key"), (old, old))
        cache.claim_age_s = 1.0
        assert cache.claim("key") is True, "a stale claim must be re-taken"
        cache.release("key")

    def test_wait_for_returns_the_writers_payload(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        assert cache.claim("key")

        def writer():
            time.sleep(0.05)
            cache.store("key", b"compiled")
            cache.release("key")

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            reader = PlanCache(str(tmp_path))
            assert reader.wait_for("key", timeout_s=5.0) == b"compiled"
        finally:
            thread.join()

    def test_wait_for_sees_a_store_between_load_and_claim_check(self, tmp_path):
        # The writer stores and releases after the waiter's load missed
        # but before it checks the claim: the entry exists, so the waiter
        # must return it rather than give up and compile again.
        writer = PlanCache(str(tmp_path))
        assert writer.claim("key")
        waiter = PlanCache(str(tmp_path))
        load = waiter.load

        def racing_load(key):
            payload = load(key)
            if payload is None and os.path.exists(waiter.claim_path_for(key)):
                writer.store(key, b"compiled")
                writer.release(key)
            return payload

        waiter.load = racing_load
        assert waiter.wait_for("key", timeout_s=5.0, poll_s=0.0) == b"compiled"

    def test_abandoned_claim_unblocks_waiters(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        assert cache.claim("key")
        waiter = PlanCache(str(tmp_path))

        def abandon():
            time.sleep(0.05)
            cache.release("key")  # claimant dies without storing

        thread = threading.Thread(target=abandon)
        thread.start()
        try:
            # None means "compile it yourself" — never a hang.
            assert waiter.wait_for("key", timeout_s=5.0) is None
        finally:
            thread.join()

    def test_concurrent_writers_compile_once(self, tmp_path):
        # The satellite-3 race: N workers race the same fingerprint; the
        # claim file must let exactly one compile while the rest wait and
        # reuse its payload.
        compiles = []
        results = []
        lock = threading.Lock()

        def worker():
            cache = PlanCache(str(tmp_path))
            if cache.claim("fp"):
                time.sleep(0.05)  # compiling...
                cache.store("fp", b"payload")
                cache.release("fp")
                with lock:
                    compiles.append(1)
                    results.append(b"payload")
            else:
                payload = cache.wait_for("fp", timeout_s=5.0)
                if payload is None:  # claimant failed: compile ourselves
                    payload = b"payload"
                with lock:
                    results.append(payload)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(compiles) == 1, "exactly one racer may compile"
        assert results == [b"payload"] * 4


class TestBatcherDeadlineEdges:
    def _request(self, arrival, rows=1, priority="default"):
        loop = asyncio.get_running_loop()
        return Request(images=np.zeros((rows, 4, 4)),
                       future=loop.create_future(), arrival=arrival,
                       priority=priority)

    def test_stale_arrival_flushes_immediately(self):
        # A request whose deadline already passed (negative remaining at
        # enqueue) must not wait another full budget.
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = asyncio.Queue()
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_s=5.0)
            queue.put_nowait(self._request(loop.time() - 60.0))
            start = loop.time()
            batch = await batcher.next_batch()
            return len(batch), loop.time() - start

        size, elapsed = run_async(scenario())
        assert size == 1
        assert elapsed < 1.0, f"stale request waited {elapsed:.2f}s"

    def test_carried_over_request_keeps_its_deadline(self):
        # An overflow carry has already waited; the next batch's deadline
        # anchors to its original arrival, not to the carry-over moment.
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = asyncio.Queue()
            batcher = DynamicBatcher(queue, max_batch=4, max_wait_s=5.0)
            old = loop.time() - 60.0
            queue.put_nowait(self._request(old, rows=3))
            queue.put_nowait(self._request(old, rows=2))  # overflows: carried
            first = await batcher.next_batch()
            start = loop.time()
            second = await batcher.next_batch()
            return first, second, loop.time() - start

        first, second, elapsed = run_async(scenario())
        assert [r.rows for r in first] == [3]
        assert [r.rows for r in second] == [2]
        assert elapsed < 1.0, f"carried request waited {elapsed:.2f}s again"

    def test_tight_class_arrival_pulls_the_flush_forward(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = asyncio.Queue()
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_s=5.0,
                                     class_wait_s={"interactive": 0.0})
            now = loop.time()
            queue.put_nowait(self._request(now))
            queue.put_nowait(self._request(now, priority="interactive"))
            start = loop.time()
            batch = await batcher.next_batch()
            return len(batch), loop.time() - start

        size, elapsed = run_async(scenario())
        assert size == 2
        assert elapsed < 1.0, "the zero-budget class must flush the batch"

    def test_zero_wait_coalesces_only_whats_queued(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = asyncio.Queue()
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_s=0.0)
            queue.put_nowait(self._request(loop.time()))
            queue.put_nowait(self._request(loop.time()))
            start = loop.time()
            batch = await batcher.next_batch()
            return len(batch), loop.time() - start

        size, elapsed = run_async(scenario())
        assert size == 2
        assert elapsed < 0.5


class TestFaultSpecCli:
    def test_inline_json(self):
        spec = parse_fault_spec(
            '{"seed": 7, "rules": [{"site": "worker.forward", '
            '"action": "hang", "at": [2], "hang_s": 9.0}]}')
        assert spec.seed == 7
        assert spec.rules[0].site == "worker.forward"
        assert spec.rules[0].hang_s == 9.0

    def test_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(FaultSpec(seed=3, rules=(
            FaultRule(site="respawn", action="delay", at=(0,)),)).to_json())
        spec = parse_fault_spec(str(path))
        assert spec.seed == 3 and spec.rules[0].site == "respawn"

    def test_missing_file_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="neither inline JSON"):
            parse_fault_spec("/no/such/spec.json")

    def test_invalid_spec_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="invalid spec"):
            parse_fault_spec('{"seed": 1, "rules": [{"site": "x", '
                             '"action": "melt", "at": [0]}]}')
