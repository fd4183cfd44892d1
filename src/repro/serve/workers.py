"""Worker substrates behind one protocol.

:class:`Worker` is all :class:`~repro.serve.service.InferenceService`
knows of a worker: it dispatches, retries, watches and reports through
these members alone.  :class:`ThreadWorker` runs batch forwards in threads
of the service process (NumPy releases the GIL in the kernels that matter)
and answers the process-only members with ``None``, empty lists or zeros.
:class:`PipelineWorker` runs pickled stage plans in stage processes joined
by shared-memory slot rings (:class:`~repro.shard.pipeline.ShardedPipeline`):
one stage running the whole op program for ``workers="process"``, ``N``
for ``pipeline_stages=N``.
"""

from __future__ import annotations

import asyncio
import time
from typing import (Dict, List, Optional, Protocol, Sequence, Tuple,
                    runtime_checkable)

import numpy as np

from repro.exec.engine import BatchRunner
from repro.exec.plan import StageProfile
from repro.obs.trace import PlanTraceBuffer, plan_trace

#: Extra in-flight batches of a process or pipeline worker beyond one per
#: stage: each worker's window is ``stages + TRANSPORT_SLOTS`` batches, and
#: each of its shared-memory rings has that many slots.
TRANSPORT_SLOTS = 4
#: Keys of :meth:`Worker.transport_counters`.
TRANSPORT_COUNTERS = ("request_writes", "request_bytes",
                      "response_writes", "response_bytes")


@runtime_checkable
class Worker(Protocol):
    """One serving worker, whatever substrate backs it."""

    #: Batches the service may keep in flight on this worker at once.
    max_inflight: int
    #: Transport seconds (shm copies) of the latest batch, summed over stages.
    transport_s: float
    #: Latest per-stage accounting dicts (empty unless sharded).
    stage_stats: List[Dict]
    #: Names of the live shared-memory segments the worker owns.
    segment_names: List[str]

    async def forward(self, images: np.ndarray, traced: bool = False
                      ) -> Tuple[np.ndarray, int, Optional[List]]:
        """Run one batch; returns (logits, measured conversions, remote).

        ``remote`` is None untraced, else the worker-clock span payload
        ``[(stage, forward_s, spans), ...]`` in stage order (``stage`` None
        for a whole-program forward) that
        :meth:`~repro.obs.trace.Tracer.attach_remote` re-anchors under the
        dispatch span.
        """

    def kill(self) -> None:
        """Hard-stop the worker (hung-worker reaper)."""

    async def close(self) -> None:
        """Release the worker's backend, processes and segments."""

    async def stage_profile(self) -> Dict[str, float]:
        """Plan-stage (DAC/crossbar/ADC/digital) breakdown so far."""

    def heartbeat_counts(self) -> Optional[Tuple[float, ...]]:
        """Per-process heartbeat counters, or None when nothing beats."""

    def pids(self) -> List[int]:
        """PIDs of the worker's live processes."""

    def transport_counters(self) -> Dict[str, int]:
        """Parent-side shm traffic, keyed by :data:`TRANSPORT_COUNTERS`."""


class ThreadWorker:
    """In-loop worker: a prepared BatchRunner driven via ``asyncio.to_thread``."""

    max_inflight = 1
    transport_s = 0.0

    def __init__(self, runner: BatchRunner) -> None:
        self.runner = runner
        self.stage_stats: List[Dict] = []
        self.segment_names: List[str] = []

    async def forward(self, images: np.ndarray, traced: bool = False
                      ) -> Tuple[np.ndarray, int, Optional[List]]:
        # Thread workers share the service clock, but shipping relative
        # spans keeps one format across both substrates.
        before = self.runner.conversions()
        if traced:
            logits, forward_s, records = await asyncio.to_thread(
                self._traced_forward, images)
            remote: Optional[List] = [(None, forward_s, records)]
        else:
            logits = await asyncio.to_thread(self.runner.forward, images)
            remote = None
        return logits, self.runner.conversions() - before, remote

    def _traced_forward(self, images: np.ndarray) -> Tuple:
        # Runs inside the asyncio.to_thread worker thread, so the
        # thread-local plan-trace buffer never leaks across concurrent
        # batches on other threads.
        start = time.perf_counter()
        buffer = PlanTraceBuffer(t0=start)
        with plan_trace(buffer):
            logits = self.runner.forward(images)
        return logits, time.perf_counter() - start, buffer.records

    async def stage_profile(self) -> Dict[str, float]:
        """The runner's plan-stage breakdown."""
        return self.runner.stage_profile()

    def kill(self) -> None:
        """No-op: Python threads cannot be killed.

        A hung thread worker is still *classified* dead by the dispatch
        deadline (its batches re-dispatch and a replacement runner is
        built); the wedged thread itself is abandoned and only releases
        its core when its forward eventually returns.
        """

    async def close(self) -> None:
        """Tear the backend off the replica."""
        await asyncio.to_thread(self.runner.close)

    def heartbeat_counts(self) -> None:
        return None

    def pids(self) -> List[int]:
        return []

    def transport_counters(self) -> Dict[str, int]:
        return dict.fromkeys(TRANSPORT_COUNTERS, 0)


class PipelineWorker:
    """Out-of-process worker: stage plan payloads run by stage processes.

    ``payloads`` holds one pickled stage plan per stage
    (:func:`~repro.shard.partition.build_stage_payloads`); batches in and
    logits out cross shared-memory slot rings.  With one stage the replica
    gets a real core of its own: NumPy sections that hold the GIL no longer
    serialise against the other replicas.

    A one-stage worker is pumped one batch at a time, so a dispatch
    deadline times one forward.  A multi-stage worker serves
    ``max_inflight`` batches concurrently — that overlap across stages is
    the throughput win.  ``submit`` runs on the event loop and never waits
    (the pump width is at most the pipeline's in-flight window), so
    batches enter the pipeline in dispatch order and the FIFO stage rings
    keep it: pipelined serving stays bit-identical to single-worker
    serving even for the order-sensitive analog noise streams.
    """

    def __init__(self, payloads: Sequence[bytes], max_batch: int = 64,
                 checksum: bool = False,
                 fault_spec: Optional[Dict] = None,
                 heartbeat_interval_s: Optional[float] = None) -> None:
        from repro.shard.pipeline import ShardedPipeline

        self.pipeline = ShardedPipeline(
            payloads, max_batch=max_batch, slots=TRANSPORT_SLOTS,
            checksum=checksum,
            fault_spec=fault_spec, heartbeat_interval_s=heartbeat_interval_s)
        self.sharded = self.pipeline.num_stages > 1
        self.max_inflight = self.pipeline.window if self.sharded else 1
        self.transport_s = 0.0
        self.stage_stats: List[Dict] = []
        self._conversions_total = 0

    async def start(self) -> None:
        """Spawn the stage processes; fails fast if a stage plan won't load."""
        await asyncio.to_thread(self.pipeline.start)

    def heartbeat_counts(self) -> Optional[Tuple[float, ...]]:
        return self.pipeline.heartbeat_counts()

    def kill(self) -> None:
        """SIGKILL every stage process."""
        self.pipeline.kill()

    def pids(self) -> List[int]:
        return self.pipeline.pids()

    @property
    def segment_names(self) -> List[str]:
        return self.pipeline.segment_names

    def transport_counters(self) -> Dict[str, int]:
        return self.pipeline.transport_counters()

    async def forward(self, images: np.ndarray, traced: bool = False
                      ) -> Tuple[np.ndarray, int, Optional[List]]:
        # Traced, every stage ships its spans and this batch's forward
        # seconds in its stats dict; the parent renders the stages one
        # after another under the dispatch span (their real overlap is
        # across *batches*, not within one).
        future = self.pipeline.submit(images, traced)
        logits, stats = await asyncio.wrap_future(future)
        # Each stage stamps its cumulative conversion count as the batch
        # passes, so a completed batch carries a consistent "all stages
        # through batch b" total; deltas between completions meter batches.
        total = sum(stage["conversions"] for stage in stats)
        measured = total - self._conversions_total
        self._conversions_total = total
        if self.sharded:
            self.stage_stats = stats
        self.transport_s = sum(stage["transport_s"] for stage in stats)
        remote = None
        if traced:
            remote = [
                (stage.get("stage", position) if self.sharded else None,
                 stage.get("batch_forward_s", 0.0),
                 stage.get("spans", []))
                for position, stage in enumerate(stats)
            ]
        return logits, measured, remote

    async def stage_profile(self) -> Dict[str, float]:
        """Summed plan-stage breakdown (plus a per-stage list when sharded)."""
        combined: Dict[str, float] = StageProfile().as_dict()
        summed = [key for key in combined
                  if key not in ("forwards", "transport_s", "bubble_s")]
        stages = []
        for stage in self.pipeline.stage_stats():
            profile = dict(stage.get("profile", {}))
            for key in summed:
                combined[key] += float(profile.get(key, 0.0))
            combined["forwards"] = max(combined["forwards"],
                                       float(profile.get("forwards", 0.0)))
            combined["transport_s"] += float(stage.get("transport_s", 0.0))
            profile["transport_s"] = float(stage.get("transport_s", 0.0))
            profile["bubble_s"] = float(stage.get("bubble_s", 0.0))
            stages.append({
                "stage": stage.get("stage"),
                "layers": list(stage.get("layers", (0, 0))),
                "batches": stage.get("batches", 0),
                "profile": profile,
            })
        if self.sharded:
            # Bubble time is input starvation between stages; a single
            # stage's is plain idle time, so a one-stage worker reports 0.
            combined["bubble_s"] = sum(stage["profile"]["bubble_s"]
                                       for stage in stages)
            combined["stages"] = stages
        return combined

    async def close(self) -> None:
        """Stop the stage processes and unlink every ring segment.

        The parent owns the segments, so they are removed even when a
        stage process already crashed mid-batch.
        """
        await asyncio.to_thread(self.pipeline.close)
