"""Tests for the serving layer: batcher, scheduler, service, loadgen, energy.

The end-to-end equivalence tests pin the serving determinism contract:
requests are batched in arrival order and pushed through the backend
unchanged, so served logits match a direct ``run_model`` call bit for bit —
on the row-independent digital backends for *any* batch split, and on every
backend when the coalesced batch equals the direct batch.
"""

import asyncio
import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.accelerator import AFPRAccelerator
from repro.core.config import MacroConfig
from repro.exec import ExecutionContext, run_model
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.layers import Conv2d, GlobalAvgPool2d, Linear, ReLU
from repro.power.efficiency import energy_per_conversion, energy_per_request
from repro.rram.device import RRAMStatistics
from repro.serve import (
    DynamicBatcher,
    InferenceService,
    Request,
    Scheduler,
    ServeConfig,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerState,
    bursty_arrivals,
    estimate_conversions_per_sample,
    make_arrivals,
    poisson_arrivals,
    run_loadtest,
    serve_requests,
    uniform_arrivals,
)
from repro.serve.batcher import CLOSE
from repro.serve.scheduler import build_worker_states


def quiet_macro_config(**overrides):
    stats = RRAMStatistics(programming_sigma=0.0, read_noise_sigma=0.0,
                           drift_coefficient=0.0,
                           stuck_at_lrs_probability=0.0, stuck_at_hrs_probability=0.0)
    return MacroConfig(device_statistics=stats, read_noise_enabled=False, **overrides)


@pytest.fixture(scope="module")
def trained_setup():
    """A small fixed-seed trained CNN plus its data, shared across tests."""
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=12,
                                                  noise_sigma=0.3, seed=21))
    x_train, y_train, x_test, y_test = dataset.train_test_split(256, 64)
    model = Sequential(
        Conv2d(3, 6, 3, padding=1, rng=np.random.default_rng(0)),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(6, 4, rng=np.random.default_rng(2)),
    )
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=2
    )
    return model, x_train, x_test, y_test


def make_request(rows: int, loop) -> Request:
    images = np.zeros((rows, 3, 2, 2), dtype=np.float64)
    return Request(images=images, future=loop.create_future(), arrival=loop.time())


def run_async(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Dynamic batcher flush semantics
# ----------------------------------------------------------------------
class TestDynamicBatcher:
    def test_size_trigger_flushes_without_waiting(self):
        async def scenario():
            queue = asyncio.Queue()
            loop = asyncio.get_running_loop()
            for _ in range(8):
                queue.put_nowait(make_request(1, loop))
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_s=60.0)
            start = loop.time()
            batch = await batcher.next_batch()
            elapsed = loop.time() - start
            return batch, elapsed

        batch, elapsed = run_async(scenario())
        assert len(batch) == 8
        assert elapsed < 5.0  # a 60 s max_wait was never taken

    def test_timeout_trigger_flushes_partial_batch(self):
        async def scenario():
            queue = asyncio.Queue()
            loop = asyncio.get_running_loop()
            for _ in range(3):
                queue.put_nowait(make_request(1, loop))
            batcher = DynamicBatcher(queue, max_batch=64, max_wait_s=0.05)
            start = loop.time()
            batch = await batcher.next_batch()
            elapsed = loop.time() - start
            return batch, elapsed

        batch, elapsed = run_async(scenario())
        assert len(batch) == 3
        assert elapsed >= 0.04  # the timeout, not the size trigger, flushed

    def test_zero_wait_coalesces_only_queued_requests(self):
        async def scenario():
            queue = asyncio.Queue()
            loop = asyncio.get_running_loop()
            for _ in range(3):
                queue.put_nowait(make_request(1, loop))
            batcher = DynamicBatcher(queue, max_batch=64, max_wait_s=0.0)
            return await batcher.next_batch()

        assert len(run_async(scenario())) == 3

    def test_oversized_request_ships_alone(self):
        async def scenario():
            queue = asyncio.Queue()
            loop = asyncio.get_running_loop()
            queue.put_nowait(make_request(100, loop))
            queue.put_nowait(make_request(1, loop))
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_s=0.0)
            first = await batcher.next_batch()
            second = await batcher.next_batch()
            return first, second

        first, second = run_async(scenario())
        assert [r.rows for r in first] == [100]
        assert [r.rows for r in second] == [1]

    def test_multi_row_requests_carry_over_in_fifo_order(self):
        async def scenario():
            queue = asyncio.Queue()
            loop = asyncio.get_running_loop()
            for rows in (5, 5, 5):
                queue.put_nowait(make_request(rows, loop))
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_s=0.0)
            batches = [await batcher.next_batch() for _ in range(3)]
            return batches

        batches = run_async(scenario())
        assert [[r.rows for r in batch] for batch in batches] == [[5], [5], [5]]

    def test_close_sentinel_drains_then_stops(self):
        async def scenario():
            queue = asyncio.Queue()
            loop = asyncio.get_running_loop()
            queue.put_nowait(make_request(1, loop))
            queue.put_nowait(make_request(1, loop))
            queue.put_nowait(CLOSE)
            batcher = DynamicBatcher(queue, max_batch=64, max_wait_s=10.0)
            drained = await batcher.next_batch()
            after = await batcher.next_batch()
            return drained, after, batcher.closed

        drained, after, closed = run_async(scenario())
        assert len(drained) == 2  # queued work is served, not dropped
        assert after is None and closed

    def test_invalid_parameters_rejected(self):
        queue = asyncio.Queue()
        with pytest.raises(ValueError):
            DynamicBatcher(queue, max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatcher(queue, max_wait_s=-1.0)


# ----------------------------------------------------------------------
# Round-robin placement and occupancy accounting
# ----------------------------------------------------------------------
class TestScheduler:
    def test_round_robin_cycles(self):
        workers = build_worker_states(3, macros_per_worker=2)
        scheduler = Scheduler(workers)
        picked = [scheduler.select(1).index for _ in range(6)]
        assert picked == [0, 1, 2, 0, 1, 2]

    def test_worker_state_requires_workers(self):
        with pytest.raises(ValueError):
            Scheduler([])


class TestAcceleratorOccupancy:
    def test_begin_complete_cycle(self):
        accelerator = AFPRAccelerator(num_macros=4)
        accelerator.begin_inference(10)
        assert accelerator.inflight_conversions == 10
        accelerator.complete_inference(10)
        assert accelerator.inflight_conversions == 0
        assert accelerator.completed_conversions == 10
        assert accelerator.inferences == 1
        expected_busy = np.ceil(10 / 4) * accelerator.macro_config.conversion_time
        assert accelerator.busy_seconds == pytest.approx(expected_busy)

    def test_inflight_clamped_at_zero(self):
        accelerator = AFPRAccelerator(num_macros=2)
        accelerator.begin_inference(3)
        accelerator.complete_inference(8)  # measured exceeded the estimate
        assert accelerator.inflight_conversions == 0
        assert accelerator.completed_conversions == 8

    def test_booked_estimate_fully_released_on_completion(self):
        # Booking a high estimate and retiring a lower measured count must
        # not leave phantom in-flight load behind.
        accelerator = AFPRAccelerator(num_macros=2)
        accelerator.begin_inference(100)
        accelerator.complete_inference(40, booked=100)
        assert accelerator.inflight_conversions == 0
        assert accelerator.completed_conversions == 40

    def test_cancel_inference_releases_booking(self):
        accelerator = AFPRAccelerator(num_macros=2)
        accelerator.begin_inference(50)
        accelerator.cancel_inference(50)
        assert accelerator.inflight_conversions == 0
        assert accelerator.completed_conversions == 0
        assert accelerator.inferences == 0
        with pytest.raises(ValueError):
            accelerator.cancel_inference(-1)

    def test_queue_delay_scales_with_macro_count(self):
        small = AFPRAccelerator(num_macros=1)
        big = AFPRAccelerator(num_macros=8)
        small.begin_inference(64)
        big.begin_inference(64)
        assert small.estimated_queue_delay() == pytest.approx(
            8 * big.estimated_queue_delay())

    def test_occupancy_snapshot_and_validation(self):
        accelerator = AFPRAccelerator(num_macros=2)
        occupancy = accelerator.occupancy()
        assert occupancy["inflight_conversions"] == 0.0
        assert occupancy["estimated_queue_delay_s"] == 0.0
        with pytest.raises(ValueError):
            accelerator.begin_inference(-1)
        with pytest.raises(ValueError):
            accelerator.complete_inference(-1)
        assert accelerator.busy_seconds_for(0) == 0.0


# ----------------------------------------------------------------------
# Service end-to-end
# ----------------------------------------------------------------------
class TestInferenceService:
    def test_batch_histogram_shows_coalescing(self, trained_setup):
        model, _, x_test, _ = trained_setup
        _, snapshot = serve_requests(model, x_test[:64],
                                     ServeConfig(max_batch=16, max_wait_ms=50.0))
        assert snapshot.batch_histogram == {16: 4}
        # submit_many enqueues contiguous max_batch-row slices: 64 samples
        # arrive as 4 stacked requests (O(1) futures per executed batch).
        assert snapshot.samples == 64 and snapshot.requests == 4
        assert snapshot.counters["dropped"] == 0

    def test_served_logits_bit_identical_any_split_ideal(self, trained_setup):
        # max_batch=7 forces uneven splits; the ideal backend is
        # row-independent so every row still matches the direct call.
        model, _, x_test, _ = trained_setup
        logits, snapshot = serve_requests(model, x_test[:20],
                                          ServeConfig(max_batch=7))
        direct = run_model(model, x_test[:20], backend="ideal", batch_size=20)
        assert np.array_equal(logits, direct.logits)
        assert snapshot.batches >= 3

    def test_served_logits_bit_identical_any_split_fake_quant(self, trained_setup):
        model, x_train, x_test, _ = trained_setup
        context = ExecutionContext(calibration=x_train[:16])
        logits, _ = serve_requests(
            model, x_test[:20],
            ServeConfig(backend="fake_quant", max_batch=9, num_workers=2,
                        context=context))
        direct = run_model(model, x_test[:20], backend="fake_quant",
                           context=context, batch_size=20)
        assert np.array_equal(logits, direct.logits)

    @pytest.mark.slow
    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_served_logits_bit_identical_exact_batch_all_backends(
            self, trained_setup, worker_mode):
        # When the coalesced batch equals the direct batch, every registered
        # backend — including the batch-sensitive analog path — serves
        # bit-identical logits, whether the replica runs in a worker thread
        # or as a shipped execution plan in its own process.
        from repro.exec import available_backends

        model, x_train, x_test, _ = trained_setup
        images = x_test[:32]
        context = ExecutionContext(calibration=x_train[:16],
                                   macro_config=quiet_macro_config(),
                                   max_mapped_layers=1, seed=0)
        for backend in available_backends():
            logits, _ = serve_requests(
                model, images,
                ServeConfig(backend=backend, max_batch=32, context=context,
                            workers=worker_mode))
            direct = run_model(model, images, backend=backend,
                               context=context, batch_size=32)
            assert np.array_equal(logits, direct.logits), backend

    def test_drain_on_shutdown_serves_pending_requests(self, trained_setup):
        model, _, x_test, _ = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_batch=8,
                                                          max_wait_ms=1000.0))
            await service.start()
            futures = [service.submit_nowait(x_test[i]) for i in range(5)]
            # Stop immediately: the 5 queued requests must still be served.
            await service.stop(drain=True)
            results = await asyncio.gather(*futures)
            return results, service.metrics_snapshot()

        results, snapshot = run_async(scenario())
        assert len(results) == 5 and all(r.shape == (1, 4) for r in results)
        assert snapshot.requests == 5 and snapshot.counters["dropped"] == 0

    def test_stop_without_drain_fails_pending(self, trained_setup):
        model, _, x_test, _ = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_wait_ms=1000.0,
                                                          max_batch=64))
            await service.start()
            futures = [service.submit_nowait(x_test[i]) for i in range(3)]
            await service.stop(drain=False)
            return await asyncio.gather(*futures, return_exceptions=True)

        results = run_async(scenario())
        # Some requests may already have been pulled by the batcher (those
        # are served); the rest fail with ServiceClosedError.
        assert all(
            isinstance(r, (np.ndarray, ServiceClosedError)) for r in results
        )

    def test_submit_after_stop_rejected(self, trained_setup):
        model, _, x_test, _ = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig())
            await service.start()
            await service.stop()
            with pytest.raises(ServiceClosedError):
                service.submit_nowait(x_test[0])

        run_async(scenario())

    def test_bounded_queue_drops_overload(self, trained_setup):
        model, _, x_test, _ = trained_setup

        async def scenario():
            service = InferenceService(
                model, ServeConfig(max_batch=4, max_wait_ms=1000.0,
                                   queue_capacity=4))
            await service.start()
            futures = [service.submit_nowait(x_test[i]) for i in range(10)]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            await service.stop()
            return outcomes, service.metrics_snapshot()

        outcomes, snapshot = run_async(scenario())
        dropped = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
        served = [o for o in outcomes if isinstance(o, np.ndarray)]
        assert snapshot.counters["dropped"] == len(dropped) > 0
        assert len(served) + len(dropped) == 10

    def test_sustained_overload_hits_admission_bound(self, trained_setup):
        # The backlog bound must hold even after the dispatcher has drained
        # the request queue into a worker queue: a slow worker keeps the
        # admitted requests outstanding, so a second wave is rejected even
        # though the request queue itself is empty.
        import time as time_module

        from repro.exec import ExecutionBackend

        class SlowIdealBackend(ExecutionBackend):
            name = "slow_ideal_for_test"

            def forward(self, model, images):
                time_module.sleep(0.05)
                return model.forward(np.asarray(images, dtype=np.float64),
                                     training=False)

        model, _, x_test, _ = trained_setup

        async def scenario():
            service = InferenceService(
                model, ServeConfig(backend=SlowIdealBackend(), max_batch=1,
                                   max_wait_ms=0.0, queue_capacity=3))
            await service.start()
            first = [service.submit_nowait(x_test[i]) for i in range(3)]
            # Let the dispatcher drain the request queue onto the worker.
            await asyncio.sleep(0.01)
            second = [service.submit_nowait(x_test[i]) for i in range(3)]
            outcomes = await asyncio.gather(*first, *second,
                                            return_exceptions=True)
            await service.stop()
            return outcomes, service.metrics_snapshot()

        outcomes, snapshot = run_async(scenario())
        assert all(isinstance(o, np.ndarray) for o in outcomes[:3])
        assert all(isinstance(o, ServiceOverloadedError) for o in outcomes[3:])
        assert snapshot.counters["dropped"] == 3

    def test_multi_worker_spreads_load(self, trained_setup):
        model, _, x_test, _ = trained_setup
        _, snapshot = serve_requests(
            model, x_test[:64],
            ServeConfig(max_batch=8, num_workers=2))
        per_worker = {w.index: w.batches for w in snapshot.workers}
        assert per_worker == {0: 4, 1: 4}
        assert all(w.busy_seconds > 0 for w in snapshot.workers)

    def test_config_field_budget(self):
        # Every field is a knob someone must exercise (a benchmark, a CI
        # smoke or a paper figure); the budget keeps unused ones from
        # creeping back in.
        assert len(dataclasses.fields(ServeConfig)) <= 24

    def test_backend_instance_rejected_for_multiple_workers(self, trained_setup):
        from repro.exec import IdealBackend

        model, _, _, _ = trained_setup
        with pytest.raises(ValueError, match="cannot be shared"):
            InferenceService(model, ServeConfig(backend=IdealBackend(),
                                                num_workers=2))

    def test_malformed_batch_rejected_at_admission(self, trained_setup):
        # A request whose sample shape disagrees with the service signature
        # is rejected synchronously at submit: it never enters the shared
        # queue, so it cannot fail the requests it would have co-batched
        # with.  The well-formed request in flight still gets its logits.
        model, _, x_test, _ = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_batch=4,
                                                          max_wait_ms=20.0))
            await service.start()
            good = service.submit_nowait(x_test[0])                 # (3, 12, 12)
            with pytest.raises(ValueError, match="input signature"):
                service.submit_nowait(np.zeros((3, 16, 16)))        # mismatched
            healthy = await good
            await service.stop()
            return healthy

        healthy = run_async(scenario())
        assert healthy.shape == (1, 4)

    def test_malformed_rank_rejected_at_submit(self, trained_setup):
        # A 0-d / wrong-rank payload must fail its own submit synchronously
        # instead of entering the shared pipeline and wedging the dispatcher.
        model, _, x_test, _ = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_wait_ms=0.0))
            await service.start()
            with pytest.raises(ValueError, match="request must be"):
                service.submit_nowait(np.float64(3.0))
            with pytest.raises(ValueError, match="request must be"):
                service.submit_nowait(np.zeros((2, 2)))
            healthy = await service.submit(x_test[0])
            await service.stop()
            return healthy

        healthy = run_async(scenario())
        assert healthy.shape == (1, 4)

    def test_service_can_be_restarted(self, trained_setup):
        # start/serve/stop twice on one instance — per-run queues must be
        # rebuilt (old ones are bound to the previous event loop).
        model, _, x_test, _ = trained_setup
        service = InferenceService(model, ServeConfig(max_batch=8))

        async def use():
            await service.start()
            logits = await service.submit(x_test[0])
            await service.stop()
            return logits

        first = asyncio.run(use())
        second = asyncio.run(use())
        assert np.array_equal(first, second)

    def test_empty_service_starts_and_stops_cleanly(self, trained_setup):
        model, _, _, _ = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig())
            await service.start()
            empty = await service.submit_many(np.zeros((0, 3, 12, 12)))
            await service.stop()
            return empty, service.metrics_snapshot()

        empty, snapshot = run_async(scenario())
        assert empty.shape == (0, 0)  # mirrors run_model's empty-input shape
        assert snapshot.requests == 0 and snapshot.batches == 0

    def test_smoke_50_seeded_requests_meet_slo(self, trained_setup):
        # The CI smoke contract: 50 seeded requests, zero drops, sane tail
        # latency from an in-process service.
        model, _, x_test, _ = trained_setup
        result = run_loadtest(model, x_test, ServeConfig(max_batch=16),
                              pattern="poisson", rate_rps=5000.0,
                              num_requests=50, seed=1234)
        assert result.failures == 0
        assert result.snapshot.counters["dropped"] == 0
        assert result.snapshot.requests == 50
        assert result.snapshot.latency_p99_ms < 250.0
        assert np.isfinite(result.logits).all()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_arrivals_are_seeded_and_deterministic(self):
        assert np.array_equal(poisson_arrivals(100.0, 50, seed=7),
                              poisson_arrivals(100.0, 50, seed=7))
        assert not np.array_equal(poisson_arrivals(100.0, 50, seed=7),
                                  poisson_arrivals(100.0, 50, seed=8))
        assert np.array_equal(bursty_arrivals(100.0, 50, seed=7),
                              bursty_arrivals(100.0, 50, seed=7))

    def test_poisson_mean_rate(self):
        arrivals = poisson_arrivals(200.0, 4000, seed=0)
        mean_gap = float(np.mean(np.diff(np.concatenate([[0.0], arrivals]))))
        assert mean_gap == pytest.approx(1 / 200.0, rel=0.1)

    def test_bursty_mean_rate_matches_offered(self):
        arrivals = bursty_arrivals(200.0, 8000, seed=0)
        offered = len(arrivals) / arrivals[-1]
        assert offered == pytest.approx(200.0, rel=0.15)

    def test_bursty_has_heavier_tail_than_poisson(self):
        poisson_gaps = np.diff(poisson_arrivals(100.0, 4000, seed=3))
        bursty_gaps = np.diff(bursty_arrivals(100.0, 4000, seed=3))
        assert np.std(bursty_gaps) > np.std(poisson_gaps)

    def test_bursty_produces_sustained_runs(self):
        # The on/off modulation must yield *runs* of fast arrivals, not an
        # i.i.d. gap mixture: the longest streak of below-median gaps should
        # far exceed what independent draws produce (~log2(n) ~ 12).
        gaps = np.diff(bursty_arrivals(100.0, 4000, seed=3,
                                       mean_burst_length=16.0))
        fast = gaps < np.median(gaps)
        longest = max(
            len(list(group)) for value, group in itertools.groupby(fast) if value
        )
        assert longest >= 20

    def test_uniform_is_exact(self):
        arrivals = uniform_arrivals(100.0, 5)
        assert np.allclose(np.diff(arrivals), 0.01)

    def test_make_arrivals_unknown_pattern(self):
        with pytest.raises(KeyError, match="poisson"):
            make_arrivals("square-wave", 100.0, 10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10)
        with pytest.raises(ValueError):
            bursty_arrivals(100.0, 10, burst_factor=1.0)
        with pytest.raises(ValueError):
            uniform_arrivals(100.0, 0)

    @pytest.mark.slow
    def test_bursty_load_served_without_drops(self, trained_setup):
        model, _, x_test, _ = trained_setup
        result = run_loadtest(model, x_test, ServeConfig(max_batch=32),
                              pattern="bursty", rate_rps=4000.0,
                              num_requests=512, seed=5)
        assert result.failures == 0
        assert result.snapshot.requests == 512
        assert result.snapshot.mean_batch_rows > 1.0  # bursts did coalesce


# ----------------------------------------------------------------------
# Energy accounting
# ----------------------------------------------------------------------
class TestEnergyAccounting:
    def test_energy_per_conversion_matches_power_model(self):
        from repro.power.macro_power import MacroPowerModel

        config = MacroConfig()
        expected = MacroPowerModel(config).breakdown().total_energy
        assert energy_per_conversion(config) == pytest.approx(expected)

    def test_energy_per_request_arithmetic(self):
        config = MacroConfig()
        per_conversion = energy_per_conversion(config)
        assert energy_per_request(100, 10, config) == pytest.approx(
            10 * per_conversion)
        with pytest.raises(ValueError):
            energy_per_request(10, 0)
        with pytest.raises(ValueError):
            energy_per_request(-1, 10)

    def test_estimate_upper_bounds_measured_conversions(self, trained_setup):
        model, x_train, x_test, _ = trained_setup
        context = ExecutionContext(calibration=x_train[:16],
                                   macro_config=quiet_macro_config(),
                                   max_mapped_layers=1, seed=0)
        estimate = estimate_conversions_per_sample(
            model, x_test[0], macro_config=context.macro_config,
            max_mapped_layers=1)
        assert estimate > 0
        report = run_model(model, x_test[:8], backend="analog",
                           context=context, batch_size=8)
        measured_per_sample = report.conversions / 8
        assert 0 < measured_per_sample <= estimate

    def test_digital_serving_reports_estimated_energy(self, trained_setup):
        model, _, x_test, _ = trained_setup
        _, snapshot = serve_requests(model, x_test[:16], ServeConfig(max_batch=16))
        assert snapshot.conversions_estimated
        assert snapshot.conversions > 0
        assert snapshot.energy_per_request_j > 0

    def test_estimate_respects_max_mapped_layers(self, trained_setup):
        model, _, x_test, _ = trained_setup
        full = estimate_conversions_per_sample(model, x_test[0])
        first_only = estimate_conversions_per_sample(model, x_test[0],
                                                     max_mapped_layers=1)
        assert 0 < first_only < full


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------
class TestServeCLI:
    @pytest.mark.slow
    def test_serve_subcommand_prints_metrics(self, capsys):
        from repro.analysis.cli import main

        assert main(["serve", "--requests", "32", "--rate", "100000",
                     "--max-batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "Serving metrics" in out
        assert "latency p50/p95/p99" in out

    @pytest.mark.slow
    def test_loadtest_subcommand_with_comparison(self, capsys):
        from repro.analysis.cli import main

        assert main(["loadtest", "--requests", "64", "--rate", "100000",
                     "--compare-batch1"]) == 0
        out = capsys.readouterr().out
        assert "dynamic batching speedup" in out

    @pytest.mark.slow
    def test_loadtest_slo_gate_exit_codes(self, capsys):
        from repro.analysis.cli import main

        # Generous bound: passes and reports the gate.
        assert main(["loadtest", "--requests", "32", "--rate", "100000",
                     "--max-p99-ms", "10000"]) == 0
        assert "SLO OK" in capsys.readouterr().out
        # Impossible bound: non-zero exit for CI.
        assert main(["loadtest", "--requests", "32", "--rate", "100000",
                     "--max-p99-ms", "0.000001"]) == 1
        assert "SLO FAIL" in capsys.readouterr().out

    def test_unknown_subcommand_still_handled_by_experiments(self):
        from repro.analysis.cli import main

        with pytest.raises(SystemExit):
            main(["not-a-command"])
