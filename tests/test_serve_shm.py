"""Tests for the shared-memory slot rings (:mod:`repro.serve.shm`), the
process workers that serve over them, and the sliced ``submit_many`` fast
path.

The transport contract: process workers serve logits bit-identical to a
direct ``run_model`` over the shared-memory rings, oversized batches
travel by value transparently, and the parent-owned segments are unlinked
on ``service.stop()`` — including when the worker process crashed
mid-serving (no ``/dev/shm`` leaks).
"""

import asyncio
import os
import signal

import numpy as np
import pytest

from repro.exec import run_model
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.layers import Flatten, Linear, ReLU
from repro.serve import InferenceService, ServeConfig, serve_requests
from repro.serve.shm import SlotRing, segment_exists


def run_async(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def trained_setup():
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=10,
                                                  noise_sigma=0.3, seed=3))
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


class TestSlotRing:
    def test_roundtrip_and_bounds(self):
        ring = SlotRing(slots=3, slot_nbytes=8 * 16)
        try:
            data = np.arange(16, dtype=np.float64).reshape(4, 4)
            ring.write(2, data)
            assert np.array_equal(ring.view(2, (4, 4)), data)
            with pytest.raises(ValueError):
                ring.write(0, np.zeros(17))
            with pytest.raises(IndexError):
                ring.view(3, (4, 4))
        finally:
            ring.close()
            ring.unlink()
        assert not segment_exists(ring.name)

    def test_attach_sees_owner_writes_and_never_unlinks(self):
        ring = SlotRing(slots=2, slot_nbytes=64)
        try:
            attached = SlotRing.attach(ring.name, 2, 64)
            ring.write(1, np.full(8, 7.0))
            assert np.array_equal(attached.view(1, (8,)), np.full(8, 7.0))
            attached.close()
            assert segment_exists(ring.name)  # closing a mapping is not unlink
        finally:
            ring.close()
            ring.unlink()

    def test_ring_unlink_is_idempotent(self):
        ring = SlotRing(slots=2, slot_nbytes=128)
        ring.close()
        ring.unlink()
        ring.unlink()
        assert not segment_exists(ring.name)


class TestShmServing:
    def test_shm_serves_bit_identical_logits(self, trained_setup):
        model, x_test = trained_setup
        images = x_test[:24]
        direct = run_model(model, images, backend="ideal", batch_size=24)
        served, snapshot = serve_requests(
            model, images, ServeConfig(max_batch=8, workers="process"))
        assert np.array_equal(served, direct.logits)
        assert all(worker.mode == "process" for worker in snapshot.workers)

    def test_transport_seconds_metered_for_process_workers(self, trained_setup):
        model, x_test = trained_setup
        _, snapshot = serve_requests(
            model, x_test[:16],
            ServeConfig(max_batch=8, workers="process"))
        assert sum(worker.transport_s for worker in snapshot.workers) > 0
        assert "transport" in snapshot.render()

    def test_segments_unlinked_after_stop(self, trained_setup):
        model, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, workers="process"))
            await service.start()
            for _ in range(3):
                await service.submit(x_test[:8])
            names = service.shm_segment_names()
            assert names and all(segment_exists(name) for name in names)
            await service.stop()
            return names

        names = run_async(scenario())
        assert not any(segment_exists(name) for name in names)

    def test_segments_unlinked_after_worker_crash(self, trained_setup):
        # Pinned to the no-fault-tolerance baseline (fail_fast, no respawn)
        # so the kill surfaces to the client and the only cleanup path is
        # the service's own teardown of the dead worker's segments.
        model, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, workers="process",
                retry_policy="fail_fast", respawn=False))
            await service.start()
            await service.submit(x_test[:8])  # warm-up builds the rings
            await service.submit(x_test[:8])
            names = service.shm_segment_names()
            assert names
            os.kill(service.process_worker_pids()[0][0], signal.SIGKILL)
            with pytest.raises(Exception):
                await service.submit(x_test[:8])
            try:
                await service.stop()
            except Exception:
                pass  # the crash may surface here; cleanup must still run
            return names

        names = run_async(scenario())
        assert not any(segment_exists(name) for name in names)

    def test_worker_pool_survives_one_dead_process_worker(self, trained_setup):
        # Under retry_policy="fail_fast" (the pre-fault-tolerance baseline)
        # a process worker SIGKILLed mid-run fails exactly the batches
        # routed to it; the rest of the pool keeps serving, and shutdown
        # still cleans up every worker and segment.  The redispatch path
        # is covered by tests/test_fault_tolerance.py.
        model, x_test = trained_setup
        direct = run_model(model, x_test[:8], backend="ideal", batch_size=8)

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, num_workers=2, workers="process",
                retry_policy="fail_fast",
                respawn=False))
            await service.start()
            # Warm both workers (round robin alternates batches).
            assert np.array_equal(await service.submit(x_test[:8]),
                                  direct.logits)
            await service.submit(x_test[:8])
            os.kill(service.process_worker_pids()[0][0], signal.SIGKILL)
            outcomes = []
            for _ in range(4):
                try:
                    served = await service.submit(x_test[:8])
                    outcomes.append(np.array_equal(served, direct.logits))
                except Exception:  # noqa: BLE001 — the dead worker's batches
                    outcomes.append(None)
            names = service.shm_segment_names()
            await service.stop()
            return outcomes, names

        outcomes, names = run_async(scenario())
        # The surviving worker kept serving correct logits...
        assert outcomes.count(True) >= 2
        # ...while the dead worker's batches failed instead of hanging.
        assert outcomes.count(None) >= 1
        assert not any(segment_exists(name) for name in names)

    def test_oversized_batch_falls_back_to_pickle(self, trained_setup):
        # A single request larger than max_batch ships as one batch that
        # exceeds the ring's slot size; the worker must still serve it
        # (transparent per-batch by-value fallback), bit-identically.
        model, x_test = trained_setup
        images = x_test[:40]
        direct = run_model(model, images, backend="ideal", batch_size=40)

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, workers="process"))
            await service.start()
            await service.submit(x_test[:8])   # warm-up: slots sized for 8
            served = await service.submit(images)  # 40-row request, one batch
            small = await service.submit(x_test[:8])  # ring still serves
            await service.stop()
            return served, small

        served, small = run_async(scenario())
        assert np.array_equal(served, direct.logits)
        assert np.array_equal(small, direct.logits[:8])


class TestSubmitManySlices:
    def test_sliced_requests_match_direct_and_count(self, trained_setup):
        model, x_test = trained_setup
        images = x_test[:20]
        logits, snapshot = serve_requests(model, images,
                                          ServeConfig(max_batch=7))
        direct = run_model(model, images, backend="ideal", batch_size=20)
        assert np.array_equal(logits, direct.logits)
        # 20 rows at max_batch=7 -> 3 slice requests (7 + 7 + 6 rows).
        assert snapshot.requests == 3
        assert snapshot.samples == 20

    def test_empty_submission(self, trained_setup):
        model, _ = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_batch=4))
            await service.start()
            empty = await service.submit_many(np.zeros((0, 3, 10, 10)))
            await service.stop()
            return empty

        assert run_async(scenario()).shape == (0, 0)
