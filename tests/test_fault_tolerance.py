"""Fault-tolerance, SLO-class and chaos tests for the serving layer.

The contracts under test (see the PR's tentpole):

* a worker *death* (SIGKILLed process worker, dead pipeline stage) is
  classified apart from request-level failures, its in-flight batches are
  re-dispatched to surviving replicas up to ``max_retries``, and the dead
  worker respawns in the background from the cached plan payload;
* the on-disk plan cache (:class:`repro.exec.plan.PlanCache`) makes cold
  starts and respawns recompile-free, keyed by a model/backend/context
  fingerprint;
* malformed requests are rejected at *admission* (submit time), so one
  bad client can never fail the requests it would have co-batched with;
* SLO priority classes shorten the flush deadline of the batches that
  carry them and show up as class-tagged latency percentiles;
* a storm of injected worker exits during traffic produces zero
  client-visible failures and a pool respawned to full strength;
* every recovery decision (:class:`repro.serve.recovery.RecoveryPolicy`)
  holds as a plain function of (event, state, ``now``), with no processes
  and no event loop.
"""

import ast
import asyncio
import os
import pathlib
import re
import signal

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.exec import run_model
from repro.exec.backend import ExecutionContext
from repro.exec.plan import PlanCache, plan_fingerprint
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.layers import Flatten, Linear, ReLU
from repro.serve import InferenceService, ServeConfig
from repro.serve.batcher import (
    DEFAULT_PRIORITY,
    DynamicBatcher,
    Request,
    scatter_results,
)
from repro.faults import FaultRule, FaultSpec
from repro.serve import loadgen, recovery
from repro.serve.cli import build_serve_parser, main as serve_main, parse_class_map
from repro.serve.loadgen import assign_priorities, run_loadtest
from repro.serve.recovery import (
    CORRUPT,
    DEAD,
    HUNG,
    MAX_RESPAWN_FAILURES,
    REDISPATCH_BACKOFF_MAX_S,
    REQUEST,
    RESPAWN_BACKOFF_BASE_S,
    RESPAWN_BACKOFF_MAX_S,
    RecoveryPolicy,
    Retry,
)
from repro.serve.scheduler import (
    NoAliveWorkersError,
    Scheduler,
    build_worker_states,
)
from repro.serve.shm import IntegrityError
from repro.shard.pipeline import StageCorruptionError, StageDiedError


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


async def _wait_for_recovery(service, timeout_s: float = 20.0) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not service.pool_recovered():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(0.02)
    return True


def _first_pid(service) -> int:
    pids = service.process_worker_pids()
    index = sorted(pids)[0]
    return pids[index][0]


class TestPlanCache:
    def test_fingerprint_separates_recipes(self, trained_setup):
        model, _ = trained_setup
        context = ExecutionContext()
        base = plan_fingerprint(model, "ideal", context)
        assert base == plan_fingerprint(model, "ideal", context)
        assert base != plan_fingerprint(model, "fake_quant", context)
        other_model = Sequential(Flatten(),
                                 Linear(300, 4, rng=np.random.default_rng(2)))
        assert base != plan_fingerprint(other_model, "ideal", context)

    def test_store_load_roundtrip_and_counters(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        assert cache.load("deadbeef") is None
        assert cache.misses == 1
        cache.store("deadbeef", b"pickled-plan")
        assert cache.load("deadbeef") == b"pickled-plan"
        assert cache.hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        with open(cache.path_for("key"), "wb"):
            pass  # zero-byte entry: torn write / corrupt cache
        assert cache.load("key") is None
        assert cache.misses == 1

    @pytest.mark.parametrize("stages", [1, 2])
    def test_cold_start_hits_cache_and_serves_identically(self, trained_setup,
                                                          tmp_path, stages):
        # Service A compiles and persists the plan; service B (a fresh
        # instance, same recipe) must hit the cache and serve the same
        # logits without recompiling, one stage or cut into a pipeline.
        model, x_test = trained_setup
        direct = run_model(model, x_test[:8], backend="ideal", batch_size=8)
        config = ServeConfig(max_batch=8, workers="process",
                             pipeline_stages=stages, plan_cache=str(tmp_path))

        async def one_run():
            service = InferenceService(model, config)
            await service.start()
            served = await service.submit(x_test[:8])
            snapshot = service.metrics_snapshot()
            await service.stop()
            return served, snapshot

        first, first_snap = run_async(one_run())
        second, second_snap = run_async(one_run())
        assert first_snap.counters["plan_cache_misses"] >= 1
        assert second_snap.counters["plan_cache_hits"] >= 1
        assert second_snap.counters["plan_cache_misses"] == 0
        assert np.array_equal(first, direct.logits)
        assert np.array_equal(second, direct.logits)


class TestAdmissionControl:
    def test_bad_client_cannot_fail_good_cobatched_clients(self, trained_setup):
        # The satellite-1 regression: one malformed client among N good
        # concurrent ones is rejected synchronously at submit; every good
        # client still gets its logits.
        model, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_batch=8,
                                                          max_wait_ms=10.0))
            await service.start()
            good = [service.submit_nowait(x_test[i]) for i in range(6)]
            with pytest.raises(ValueError, match="input signature"):
                service.submit_nowait(np.zeros((3, 16, 16)))
            more = [service.submit_nowait(x_test[i]) for i in range(6, 10)]
            results = await asyncio.gather(*(good + more))
            await service.stop()
            return results

        results = run_async(scenario())
        assert len(results) == 10
        assert all(r.shape == (1, 4) for r in results)

    def test_signature_locked_from_calibration_batch(self, trained_setup):
        # With a calibration batch the signature is known before the first
        # request, so even the *first* submit of a wrong shape is rejected.
        model, x_test = trained_setup
        config = ServeConfig(
            max_batch=8,
            context=ExecutionContext(calibration=x_test[:4]))

        async def scenario():
            service = InferenceService(model, config)
            await service.start()
            with pytest.raises(ValueError, match="input signature"):
                service.submit_nowait(np.zeros((3, 16, 16)))
            healthy = await service.submit(x_test[0])
            await service.stop()
            return healthy

        assert run_async(scenario()).shape == (1, 4)

    def test_unknown_priority_class_rejected(self, trained_setup):
        model, x_test = trained_setup
        config = ServeConfig(max_batch=8,
                             priority_classes={"interactive": 0.5})

        async def scenario():
            service = InferenceService(model, config)
            await service.start()
            with pytest.raises(ValueError, match="priority"):
                service.submit_nowait(x_test[0], priority="no-such-class")
            tagged = await service.submit(x_test[0], priority="interactive")
            default = await service.submit(x_test[1])  # always admitted
            await service.stop()
            return tagged, default

        tagged, default = run_async(scenario())
        assert tagged.shape == (1, 4) and default.shape == (1, 4)


class TestScatterGuard:
    def test_row_count_mismatch_is_descriptive(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            batch = [
                Request(images=np.zeros((2, 3, 4, 4)),
                        future=loop.create_future(), arrival=0.0),
                Request(images=np.zeros((1, 3, 4, 4)),
                        future=loop.create_future(), arrival=0.0),
            ]
            with pytest.raises(ValueError, match="3 request rows"):
                scatter_results(batch, np.zeros((2, 4)))  # 2 rows for 3
            # No future may have resolved from the misaligned logits.
            assert not any(request.future.done() for request in batch)
            scatter_results(batch, np.zeros((3, 4)))
            assert all(request.future.done() for request in batch)

        run_async(scenario())


class TestSloBatching:
    def test_class_wait_budget_shortens_deadline(self):
        batcher = DynamicBatcher(asyncio.Queue(), max_batch=8,
                                 max_wait_s=0.010,
                                 class_wait_s={"interactive": 0.001})
        assert batcher.wait_budget_s("interactive") == 0.001
        assert batcher.wait_budget_s(DEFAULT_PRIORITY) == 0.010
        standard = Request(images=np.zeros((1, 3, 4, 4)), future=None,
                           arrival=100.0)
        interactive = Request(images=np.zeros((1, 3, 4, 4)), future=None,
                              arrival=100.002, priority="interactive")
        # The interactive request joins later but still pulls the flush
        # deadline forward: min over per-request budgets.
        assert batcher._deadline([standard]) == pytest.approx(100.010)
        assert batcher._deadline([standard, interactive]) == pytest.approx(
            100.003)

    def test_class_tagged_latency_percentiles(self, trained_setup):
        model, x_test = trained_setup
        config = ServeConfig(max_batch=4, max_wait_ms=5.0,
                             priority_classes={"interactive": 0.5,
                                               "batch": 20.0})

        async def scenario():
            service = InferenceService(model, config)
            await service.start()
            futures = [service.submit(x_test[i], priority="interactive")
                       for i in range(3)]
            futures += [service.submit(x_test[i], priority="batch")
                        for i in range(3, 6)]
            futures += [service.submit(x_test[6])]
            await asyncio.gather(*futures)
            snapshot = service.metrics_snapshot()
            await service.stop()
            return snapshot

        snapshot = run_async(scenario())
        assert set(snapshot.class_latency_ms) >= {"interactive", "batch",
                                                  DEFAULT_PRIORITY}
        for stats in snapshot.class_latency_ms.values():
            assert stats["p99_ms"] >= stats["p50_ms"] >= 0.0
            assert stats["requests"] >= 1
        assert "interactive" in snapshot.render()

    def test_assign_priorities_is_seeded_and_weighted(self):
        classes = assign_priorities({"interactive": 1.0, "batch": 3.0},
                                    400, seed=11)
        assert classes == assign_priorities({"interactive": 1.0,
                                             "batch": 3.0}, 400, seed=11)
        share = classes.count("interactive") / len(classes)
        assert 0.1 < share < 0.4  # ~0.25 by weight
        with pytest.raises(ValueError, match="weights"):
            assign_priorities({"a": -1.0}, 4)


class TestSchedulerLiveness:
    def test_policies_skip_dead_workers(self):
        states = build_worker_states(3)
        scheduler = Scheduler(states)
        states[1].alive = False
        picks = [scheduler.select(1).index for _ in range(6)]
        assert picks == [0, 2, 0, 2, 0, 2]
        for state in states:
            state.alive = False
        with pytest.raises(NoAliveWorkersError):
            scheduler.select(1)


class TestWorkerDeathRecovery:
    def test_killed_worker_batches_redispatch_and_respawn(self, trained_setup,
                                                          tmp_path):
        # One SIGKILLed process worker: its batches re-dispatch to the
        # survivor (bit-identical logits on a deterministic backend), the
        # dead slot respawns from the cached plan, and the metrics record
        # the whole episode.
        model, x_test = trained_setup
        direct = run_model(model, x_test[:8], backend="ideal", batch_size=8)

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, num_workers=2, workers="process",
                plan_cache=str(tmp_path)))
            await service.start()
            await service.submit(x_test[:8])  # warm both transports
            await service.submit(x_test[:8])
            os.kill(_first_pid(service), signal.SIGKILL)
            served = [await service.submit(x_test[:8]) for _ in range(4)]
            recovered = await _wait_for_recovery(service)
            snapshot = service.metrics_snapshot()
            alive = service.alive_worker_count()
            await service.stop()
            return served, recovered, snapshot, alive

        served, recovered, snapshot, alive = run_async(scenario())
        assert all(np.array_equal(batch, direct.logits) for batch in served)
        assert recovered and alive == 2
        assert snapshot.counters["worker_deaths"] >= 1
        assert snapshot.counters["retried_batches"] >= 1
        assert snapshot.counters["respawns"] >= 1
        assert snapshot.recovery_times_s
        assert "re-dispatched" in snapshot.render()

    def test_fail_fast_policy_fails_but_still_respawns(self, trained_setup):
        model, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, num_workers=1, workers="process",
                retry_policy="fail_fast"))
            await service.start()
            await service.submit(x_test[:8])
            os.kill(_first_pid(service), signal.SIGKILL)
            with pytest.raises(Exception):
                await service.submit(x_test[:8])
            recovered = await _wait_for_recovery(service)
            healthy = await service.submit(x_test[:8])
            await service.stop()
            return recovered, healthy

        recovered, healthy = run_async(scenario())
        assert recovered
        assert healthy.shape == (8, 4)

    def test_single_worker_pool_waits_out_respawn(self, trained_setup):
        # Every worker dead + respawn pending: placement must wait for the
        # respawn instead of failing the batch (zero-failure contract).
        model, x_test = trained_setup
        direct = run_model(model, x_test[:8], backend="ideal", batch_size=8)

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, num_workers=1, workers="process"))
            await service.start()
            await service.submit(x_test[:8])
            os.kill(_first_pid(service), signal.SIGKILL)
            served = await service.submit(x_test[:8])
            recovered = await _wait_for_recovery(service)
            await service.stop()
            return served, recovered

        served, recovered = run_async(scenario())
        assert np.array_equal(served, direct.logits)
        assert recovered

    def test_pipeline_stage_death_redispatches(self, trained_setup):
        # The pipeline variant: SIGKILL one stage process; the batch
        # re-dispatches once the respawned pipeline is up and the logits
        # stay bit-identical on the deterministic backend.
        model, x_test = trained_setup
        direct = run_model(model, x_test[:8], backend="ideal", batch_size=8)

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, num_workers=1, pipeline_stages=2,
                max_retries=4))
            await service.start()
            await service.submit(x_test[:8])
            pids = service.process_worker_pids()[0]
            assert len(pids) == 2  # one process per stage
            os.kill(pids[0], signal.SIGKILL)
            served = [await service.submit(x_test[:8]) for _ in range(2)]
            recovered = await _wait_for_recovery(service)
            snapshot = service.metrics_snapshot()
            await service.stop()
            return served, recovered, snapshot

        served, recovered, snapshot = run_async(scenario())
        assert all(np.array_equal(batch, direct.logits) for batch in served)
        assert recovered
        assert snapshot.counters["worker_deaths"] >= 1
        assert snapshot.counters["respawns"] >= 1


class TestRetryBudget:
    def test_batch_behind_a_dead_worker_keeps_its_retries(self, trained_setup):
        # A batch queued on a worker that died before serving it never
        # reached a worker: it is placed again, the survivor serves it and
        # its retry count is unchanged, even at the max_retries bound.  A
        # batch whose forward did reach a worker still fails at the bound.
        model, x_test = trained_setup
        direct = run_model(model, x_test[:4], backend="ideal", batch_size=4)

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, num_workers=2, max_retries=1, respawn=False))
            await service.start()
            attempts = []
            serve_batch = service._serve_batch

            async def recording(worker, state, item):
                attempts.append((state.index, item[2]))
                await serve_batch(worker, state, item)

            service._serve_batch = recording
            loop = asyncio.get_running_loop()

            def batch():
                service._outstanding += 4
                return [Request(images=x_test[i:i + 1],
                                future=loop.create_future(),
                                arrival=loop.time()) for i in range(4)]

            service._worker_states[0].alive = False
            queued = batch()
            await service._worker_queues[0].put((queued, 0, 1))
            logits = np.concatenate([await request.future
                                     for request in queued])
            exhausted = batch()
            await service._retry_or_fail(exhausted, 1,
                                         RuntimeError("worker died mid-forward"))
            errors = [request.future.exception() for request in exhausted]
            snapshot = service.metrics_snapshot()
            await service.stop()
            return attempts, logits, errors, snapshot

        attempts, logits, errors, snapshot = run_async(scenario())
        assert attempts == [(0, 1), (1, 1)]
        assert np.array_equal(logits, direct.logits)
        assert all(isinstance(error, RuntimeError) for error in errors)
        assert snapshot.counters["retried_batches"] == 1

def _within_jitter(wait_s: float, base: float, attempt: int,
                   cap: float) -> bool:
    floor = min(base * 2 ** attempt, cap)
    return floor <= wait_s <= 1.25 * floor


class TestRecoveryPolicy:
    """The recovery decisions as plain calls: no processes, no event loop."""

    @pytest.mark.parametrize("exc, timed_out, alive, stopping, fault", [
        (TimeoutError(), True, True, False, HUNG),
        (TimeoutError(), True, True, True, HUNG),
        (StageDiedError("stage 0 exited"), False, True, False, DEAD),
        # A batch that raced its worker's teardown: dead by correlation.
        (RuntimeError("pipeline is not running"), False, False, False, DEAD),
        (IntegrityError("crc"), False, True, False, CORRUPT),
        (StageCorruptionError("crc"), False, True, False, CORRUPT),
        (IntegrityError("crc"), False, False, False, DEAD),
        (ValueError("bad rows"), False, True, False, REQUEST),
        (StageDiedError("stage 0 exited"), False, False, True, REQUEST),
        (IntegrityError("crc"), False, True, True, REQUEST),
    ])
    def test_classification(self, exc, timed_out, alive, stopping, fault):
        policy = RecoveryPolicy(ServeConfig())
        assert policy.classify(exc, timed_out, alive, stopping) == fault

    def test_retry_budget_and_free_replacement(self):
        policy = RecoveryPolicy(ServeConfig(max_retries=2))
        assert policy.retry(0, True, stopping=False) == Retry(0.0, 1)
        assert policy.retry(1, True, stopping=False) == Retry(0.0, 2)
        assert policy.retry(2, True, stopping=False) is None
        # Never reached its worker: placed again at once, even at the bound.
        assert policy.retry(2, False, stopping=False) == Retry(0.0, 2)
        assert policy.retry(0, True, stopping=True) is None
        fail_fast = RecoveryPolicy(ServeConfig(retry_policy="fail_fast"))
        assert fail_fast.retry(0, True, stopping=False) is None
        assert fail_fast.retry(0, False, stopping=False) is None

    def test_backoff_sequence_is_seeded_and_capped(self):
        def waits(seed_value):
            policy = RecoveryPolicy(ServeConfig(
                max_retries=8, redispatch_backoff_base_s=0.1,
                context=ExecutionContext(seed=seed_value)))
            return [policy.retry(k, True, stopping=False).wait_s
                    for k in range(8)]

        first = waits(3)
        assert first == waits(3) and first != waits(4)
        assert all(_within_jitter(wait, 0.1, k, REDISPATCH_BACKOFF_MAX_S)
                   for k, wait in enumerate(first))
        assert max(first) <= 1.25 * REDISPATCH_BACKOFF_MAX_S

    def test_breaker_opens_at_the_nth_consecutive_failure(self):
        policy = RecoveryPolicy(ServeConfig())
        for failure in range(1, MAX_RESPAWN_FAILURES):
            count, wait_s = policy.respawn_failed(0)
            assert count == failure and _within_jitter(
                wait_s, RESPAWN_BACKOFF_BASE_S, failure - 1,
                RESPAWN_BACKOFF_MAX_S)
            assert policy.may_respawn(0, stopping=False)
        assert policy.respawn_failed(0) == (MAX_RESPAWN_FAILURES, None)
        assert not policy.may_respawn(0, stopping=False)
        assert policy.may_respawn(1, stopping=False)
        # A successful respawn ends a slot's run of failures.
        policy.respawn_failed(1)
        policy.respawned(1, now=0.0, pool_whole=False)
        assert policy.respawn_failed(1)[0] == 1
        assert not RecoveryPolicy(ServeConfig(respawn=False)).may_respawn(
            0, stopping=False)

    def test_recovery_time_spans_first_death_to_whole_pool(self):
        policy = RecoveryPolicy(ServeConfig())
        policy.worker_died(10.0)
        policy.worker_died(11.0)
        assert policy.respawned(0, 12.0, pool_whole=False) is None
        assert policy.respawned(1, 14.5, pool_whole=True) == 4.5
        assert policy.respawned(1, 15.0, pool_whole=True) is None

    def test_heartbeat_stall_trips_at_the_timeout(self):
        policy = RecoveryPolicy(ServeConfig(heartbeat_timeout_s=4.0))
        worker = object()
        assert policy.heartbeat(0, worker, (1,), 0.0) is None
        assert policy.heartbeat(0, worker, (2,), 1.0) is None
        assert policy.heartbeat(0, worker, (2,), 4.5) is None
        assert policy.heartbeat(0, worker, (2,), 5.0) == 4.0
        # A trip forgets the slot: its next sample starts a fresh clock.
        assert policy.heartbeat(0, worker, (2,), 9.5) is None

    def test_replacement_worker_restarts_the_stall_clock(self):
        policy = RecoveryPolicy(ServeConfig(heartbeat_timeout_s=4.0))
        dead, replacement = object(), object()
        policy.heartbeat(0, dead, (7,), 0.0)
        assert policy.heartbeat(0, replacement, (7,), 3.0) is None
        assert policy.heartbeat(0, replacement, (7,), 6.5) is None
        assert policy.heartbeat(0, replacement, (7,), 7.0) == 4.0
        # No counts (a dead worker, or a blind ring) forget the slot too.
        policy.heartbeat(1, dead, (1,), 0.0)
        assert policy.heartbeat(1, dead, None, 2.0) is None
        assert policy.heartbeat(1, dead, (1,), 5.0) is None

    def test_alive_fraction_sheds_only_the_laxest_class(self):
        policy = RecoveryPolicy(ServeConfig(
            shed_alive_fraction=0.5,
            priority_classes={"interactive": 0.5, "batch": 20.0}))
        assert policy.sheds and policy.shed_classes == {"batch"}
        assert "alive fraction 1/4" in policy.shed_reason("batch", 1, 4, 0.0)
        assert policy.shed_reason("interactive", 1, 4, 0.0) is None
        assert policy.shed_reason("batch", 2, 4, 0.0) is None
        assert not RecoveryPolicy(ServeConfig()).sheds

    def test_timeout_window_counts_heartbeat_trips(self):
        policy = RecoveryPolicy(ServeConfig(
            shed_timeout_threshold=2, shed_timeout_window_s=10.0,
            heartbeat_timeout_s=1.0))
        worker = object()
        policy.note_timeout(0.0)
        assert policy.shed_reason(DEFAULT_PRIORITY, 1, 1, 0.0) is None
        policy.heartbeat(0, worker, (1,), 0.0)
        assert policy.heartbeat(0, worker, (1,), 2.0) == 2.0
        reason = policy.shed_reason(DEFAULT_PRIORITY, 1, 1, 2.0)
        assert reason == "2 timeouts in the last 10.0s"
        # The dispatch timeout at t=0 leaves the trailing window.
        assert policy.shed_reason(DEFAULT_PRIORITY, 1, 1, 10.5) is None

    @seed(31)
    @settings(max_examples=150, deadline=None)
    @given(seed_value=st.integers(0, 2 ** 16),
           max_retries=st.integers(0, 4), fail_fast=st.booleans(),
           base=st.sampled_from([0.0, 0.001, 0.05, 0.4]),
           events=st.lists(st.tuples(
               st.sampled_from(["reached", "queued", "respawn_failed",
                                "respawned"]),
               st.integers(0, 2)), max_size=40))
    def test_random_event_sequences_keep_the_invariants(
            self, seed_value, max_retries, fail_fast, base, events):
        def run():
            policy = RecoveryPolicy(ServeConfig(
                retry_policy="fail_fast" if fail_fast else "redispatch",
                max_retries=max_retries, redispatch_backoff_base_s=base,
                context=ExecutionContext(seed=seed_value)))
            retries, waits = 0, []
            for kind, slot in events:
                if kind == "respawn_failed":
                    failures, wait_s = policy.respawn_failed(slot)
                    if wait_s is None:
                        assert failures >= MAX_RESPAWN_FAILURES
                        assert not policy.may_respawn(slot, stopping=False)
                    else:
                        assert _within_jitter(wait_s, RESPAWN_BACKOFF_BASE_S,
                                              failures - 1,
                                              RESPAWN_BACKOFF_MAX_S)
                        waits.append(wait_s)
                    continue
                if kind == "respawned":
                    policy.respawned(slot, 0.0, pool_whole=True)
                    continue
                decision = policy.retry(retries, kind == "reached",
                                        stopping=False)
                if fail_fast:
                    assert decision is None
                if decision is None:
                    retries = 0  # the batch failed; the next one starts over
                    continue
                if kind == "reached":
                    assert _within_jitter(decision.wait_s, base, retries,
                                          REDISPATCH_BACKOFF_MAX_S)
                else:
                    assert decision == Retry(0.0, retries)
                retries = decision.attempt
                assert retries <= max_retries
                waits.append(decision.wait_s)
            return waits

        assert run() == run()

    @pytest.mark.parametrize("field, value, message", [
        ("retry_policy", "sometimes",
         "retry_policy 'sometimes' must be 'redispatch' or 'fail_fast'"),
        ("max_retries", -1, "max_retries -1 must be >= 0"),
        ("dispatch_timeout_s", 0.0,
         "dispatch_timeout_s 0.0 must be > 0 (or None)"),
        ("heartbeat_timeout_s", -1.0,
         "heartbeat_timeout_s -1.0 must be > 0 (or None)"),
        ("redispatch_backoff_base_s", -0.5,
         "redispatch_backoff_base_s -0.5 must be >= 0"),
        ("shed_alive_fraction", 1.5,
         "shed_alive_fraction 1.5 must be in (0, 1] (or None)"),
        ("shed_alive_fraction", 0.0,
         "shed_alive_fraction 0.0 must be in (0, 1] (or None)"),
        ("shed_timeout_threshold", 0,
         "shed_timeout_threshold 0 must be >= 1 (or None)"),
        ("shed_timeout_window_s", 0.0, "shed_timeout_window_s 0.0 must be > 0"),
    ])
    def test_recovery_field_validation_names_the_range(
            self, trained_setup, field, value, message):
        model, _ = trained_setup
        with pytest.raises(ValueError, match=re.escape(message)):
            InferenceService(model, ServeConfig(**{field: value}))

    def test_policy_module_reads_no_clock_and_does_no_io(self):
        # The policy must stay drivable by a virtual clock: the module may
        # not import an event loop, a clock, threads, processes or the OS.
        tree = ast.parse(pathlib.Path(recovery.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        banned = {"asyncio", "time", "threading", "multiprocessing", "os"}
        assert imported and not imported & banned


#: Seeded worker deaths: each worker process hard-exits on its fourth
#: forward and on its second response-ring write (once per process; the
#: rules re-arm in every respawned worker).
STORM_SPEC = FaultSpec(seed=3, rules=(
    FaultRule(site="worker.forward", action="crash", crash_mode="exit",
              at=(3,), max_fires=1),
    FaultRule(site="shm.response.write", action="crash", crash_mode="exit",
              at=(1,), max_fires=1),
))


class TestChaosScenarios:
    def test_worker_exit_storm_zero_client_failures(self, trained_setup, tmp_path):
        # The acceptance chaos drive: process workers die while traffic is
        # in flight.  With retries enabled there must be zero
        # client-visible failures and the pool must respawn to the
        # configured replica count.
        model, x_test = trained_setup
        config = ServeConfig(max_batch=8, num_workers=2, workers="process",
                             plan_cache=str(tmp_path), max_retries=4,
                             faults=STORM_SPEC)
        result = run_loadtest(model, x_test, config, pattern="uniform",
                              rate_rps=600.0, num_requests=90, seed=3)
        chaos = result.chaos
        assert chaos["worker_deaths"] >= 1
        assert result.failures == 0
        assert chaos["recovered"] and chaos["alive_workers"] == 2
        assert result.snapshot.counters["worker_deaths"] >= 1
        assert result.snapshot.counters["respawns"] >= 1

    def test_overload_scenario_sheds_instead_of_failing(self, trained_setup):
        model, x_test = trained_setup
        config = ServeConfig(max_batch=8, queue_capacity=4)
        result = run_loadtest(model, x_test, config, pattern="uniform",
                              rate_rps=1000.0, num_requests=64, seed=0,
                              time_scale=0.0)
        assert result.chaos["queue_capacity"] == 4
        assert result.snapshot.counters["dropped"] > 0
        # Every failure is an admission drop — no served request failed.
        assert result.failures == result.snapshot.counters["dropped"]

    @pytest.mark.parametrize("workers, rule, message", [
        ("thread", FaultRule(site="worker.forward", action="crash",
                             at=(0, 1, 2)),
         "fault site 'worker.forward' never fires on thread workers"),
        ("process", FaultRule(site="pipeline.edge.write", action="corrupt",
                              at=(0,)),
         "fault site 'pipeline.edge.write' fires only between pipeline "
         "stages; set pipeline_stages >= 2"),
        ("process", FaultRule(site="worker.forwrd", action="hang", at=(0,)),
         "fault site 'worker.forwrd' is not a known site"),
        # These sites fire in the parent: an exit there would take the
        # whole service down, not deliver a worker death.
        *[("process", FaultRule(site=site, action="crash", crash_mode="exit",
                                at=(0,)),
           f"fault site {site!r} runs in the serving process, where "
           "crash_mode 'exit' would exit the service")
          for site in ("shm.request.write", "plan_cache.load", "respawn")],
    ])
    def test_fault_rule_that_cannot_work_is_rejected(self, trained_setup,
                                                     workers, rule, message):
        model, _ = trained_setup
        config = ServeConfig(workers=workers,
                             faults=FaultSpec(seed=0, rules=(rule,)))
        with pytest.raises(ValueError, match=re.escape(message)):
            InferenceService(model, config)


class TestCliWiring:
    def test_parse_class_map(self):
        assert parse_class_map("interactive=0.5,batch=20", "--x") == {
            "interactive": 0.5, "batch": 20.0}
        with pytest.raises(SystemExit):
            parse_class_map("interactive", "--x")
        with pytest.raises(SystemExit):
            parse_class_map("a=fast", "--x")

    def test_loadtest_parser_accepts_chaos_flags(self):
        parser = build_serve_parser("loadtest")
        args = parser.parse_args([
            "--retry-policy", "redispatch",
            "--max-retries", "3", "--plan-cache", "/tmp/plans",
            "--priority-classes", "interactive=0.5,batch=20",
            "--priority-mix", "interactive=0.3,batch=0.7",
        ])
        assert args.max_retries == 3

    def test_serve_parser_has_fault_tolerance_flags(self):
        args = build_serve_parser("serve").parse_args(
            ["--no-respawn", "--retry-policy", "fail_fast"])
        assert args.no_respawn and args.retry_policy == "fail_fast"

    @pytest.mark.parametrize("flags, verdict, absent", [
        (["--queue-capacity", "4"], "OVERLOAD OK: every failure was an "
         "admission drop", "CHAOS"),
        (["--fault-spec", '{"seed": 0, "rules": [{"site": "respawn", '
          '"action": "delay", "at": [0]}]}'],
         "CHAOS OK: worker deaths 0, 0 client failures, pool recovered to "
         "1 workers", "OVERLOAD"),
    ])
    def test_verdict_follows_from_the_config(self, capsys, flags, verdict,
                                             absent):
        assert serve_main(["loadtest", "--requests", "32", "--rate",
                           "100000", *flags]) == 0
        out = capsys.readouterr().out
        assert verdict in out
        assert absent not in out

    def test_unrecovered_pool_fails_the_chaos_verdict(self, capsys,
                                                      monkeypatch):
        async def never_recovers(service, timeout_s):
            return False

        monkeypatch.setattr(loadgen, "_await_pool_recovery", never_recovers)
        assert serve_main(["loadtest", "--requests", "16", "--fault-spec",
                           '{"seed": 0, "rules": [{"site": "respawn", '
                           '"action": "delay", "at": [0]}]}']) == 1
        assert "CHAOS FAIL: pool not recovered" in capsys.readouterr().out
