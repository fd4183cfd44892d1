"""The serving metrics core: latency percentiles, queue depth, batching,
throughput and energy-per-request.

Everything a load test needs to judge a serving configuration is collected
here, updated from the event loop only (no locks needed) and frozen into an
immutable :class:`MetricsSnapshot` on demand.

Metrics glossary
----------------
``p50/p95/p99 latency``
    End-to-end request latency (submit to logits), milliseconds.
``throughput_rps``
    Completed requests per second of wall time between the first arrival
    and the last completion.
``batch histogram``
    How many executed batches held each row count — the direct evidence of
    whether dynamic batching is coalescing.
``queue depth``
    Request-queue length sampled at every arrival and every dispatch.
``energy per request``
    Macro conversions spent per request times the per-conversion energy of
    the :mod:`repro.power` model.  Measured conversions when the backend
    meters them (``analog``), estimated from the mapping geometry otherwise.
``dropped``
    Requests rejected by admission control: the number of admitted-but-
    uncompleted requests had reached ``queue_capacity``.
``per-class latency``
    The same latency percentiles, split by request priority class — the
    evidence that per-class ``max_wait_ms`` budgets are actually shaping
    tail latency per SLO tier.
``fault tolerance``
    Worker deaths observed, batches re-dispatched to surviving workers,
    background respawns completed, and the recovery time from first lost
    capacity back to a fully-alive pool.
``plan cache``
    Hit/miss counts of the on-disk compiled-plan cache
    (:class:`repro.exec.plan.PlanCache`) — a respawn that hits skipped
    plan recompilation entirely.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.power.efficiency import energy_per_request


def percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a latency sample, in milliseconds."""
    if len(latencies_s) == 0:
        return 0.0
    return float(np.percentile(np.asarray(latencies_s, dtype=np.float64), q) * 1e3)


@dataclasses.dataclass(frozen=True)
class StageOccupancy:
    """Per-pipeline-stage occupancy of one sharded (``pipeline``) worker.

    ``busy_s`` is time the stage spent computing forwards, ``bubble_s``
    time it sat starved for upstream input after its first batch (the
    pipeline-imbalance signal), ``transport_s`` time spent on slot waits
    and shared-memory copies toward the next stage.
    ``[layer_start, layer_stop)`` is the stage's op range in the plan's op
    program (:meth:`repro.exec.plan.ModelPlan.stage`); for a flat
    ``Sequential`` of leaf layers ops are layers.
    """

    index: int
    layer_start: int
    layer_stop: int
    batches: int
    busy_s: float
    bubble_s: float
    transport_s: float
    conversions: int


@dataclasses.dataclass(frozen=True)
class WorkerSnapshot:
    """Per-worker share of the served load plus accelerator occupancy."""

    index: int
    batches: int
    rows: int
    conversions: int
    busy_seconds: float
    mode: str = "thread"
    #: Seconds spent moving batches to/from the worker (process transport).
    transport_s: float = 0.0
    #: Per-stage occupancy of a pipeline-sharded worker (empty otherwise).
    stages: tuple = ()
    #: Whether the worker was accepting placements at snapshot time (a dead
    #: worker awaiting respawn reports False) — the /metrics worker gauge.
    alive: bool = True


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable summary of a service run (see the module glossary)."""

    requests: int
    samples: int
    batches: int
    dropped: int
    wall_time_s: float
    throughput_rps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    mean_batch_rows: float
    batch_histogram: Dict[int, int]
    max_queue_depth: int
    mean_queue_depth: float
    conversions: int
    conversions_estimated: bool
    energy_per_request_j: float
    workers: List[WorkerSnapshot]
    #: Per-priority-class latency summaries:
    #: ``{class: {"requests", "p50_ms", "p95_ms", "p99_ms"}}``.
    class_latency_ms: Dict[str, Dict[str, float]] = dataclasses.field(
        default_factory=dict)
    #: Fault-tolerance counters (zero on a fault-free run).
    worker_deaths: int = 0
    retried_batches: int = 0
    respawns: int = 0
    #: Per-incident times from first lost capacity to a fully-alive pool.
    recovery_times_s: tuple = ()
    #: Robustness counters: hung-dispatch deadlines fired, heartbeat
    #: watchdog trips, CRC slot-corruption detections, requests shed by
    #: graceful degradation, failed respawn attempts, respawn circuit
    #: breakers opened, and retry/respawn backoff waits (count + seconds).
    dispatch_timeouts: int = 0
    heartbeat_trips: int = 0
    corruptions: int = 0
    shed_requests: int = 0
    respawn_failures: int = 0
    breaker_trips: int = 0
    backoff_waits: int = 0
    backoff_total_s: float = 0.0
    #: On-disk plan-cache lookups (zero when no cache is configured).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    def render(self) -> str:
        """ASCII report of the snapshot (the loadtest CLI output)."""
        lines = [
            "Serving metrics",
            "---------------",
            f"requests served      {self.requests}  ({self.samples} samples, "
            f"{self.dropped} dropped)",
            f"throughput           {self.throughput_rps:.1f} req/s over "
            f"{self.wall_time_s:.3f} s",
            f"latency p50/p95/p99  {self.latency_p50_ms:.2f} / "
            f"{self.latency_p95_ms:.2f} / {self.latency_p99_ms:.2f} ms",
            f"batches              {self.batches}  "
            f"(mean {self.mean_batch_rows:.1f} rows/batch)",
            f"queue depth          max {self.max_queue_depth}, "
            f"mean {self.mean_queue_depth:.1f}",
            f"energy/request       {self.energy_per_request_j * 1e9:.2f} nJ  "
            f"({self.conversions} conversions"
            f"{', estimated' if self.conversions_estimated else ''})",
            "batch-size histogram " + _render_histogram(self.batch_histogram),
        ]
        for name in sorted(self.class_latency_ms):
            stats = self.class_latency_ms[name]
            lines.append(
                f"class {name:<14} p50/p95/p99  {stats['p50_ms']:.2f} / "
                f"{stats['p95_ms']:.2f} / {stats['p99_ms']:.2f} ms "
                f"({int(stats['requests'])} requests)"
            )
        if self.worker_deaths or self.respawns or self.retried_batches:
            recovery = max(self.recovery_times_s, default=0.0)
            lines.append(
                f"fault tolerance      {self.worker_deaths} worker deaths, "
                f"{self.retried_batches} batches re-dispatched, "
                f"{self.respawns} respawns "
                f"(recovery {recovery * 1e3:.1f} ms)"
            )
        if (self.dispatch_timeouts or self.heartbeat_trips
                or self.corruptions or self.shed_requests):
            lines.append(
                f"robustness           {self.dispatch_timeouts} dispatch "
                f"timeouts, {self.heartbeat_trips} heartbeat trips, "
                f"{self.corruptions} corrupt slots, "
                f"{self.shed_requests} requests shed"
            )
        if self.respawn_failures or self.breaker_trips or self.backoff_waits:
            lines.append(
                f"backpressure         {self.respawn_failures} respawn "
                f"failures, {self.breaker_trips} breakers opened, "
                f"{self.backoff_waits} backoff waits "
                f"({self.backoff_total_s * 1e3:.1f} ms total)"
            )
        if self.plan_cache_hits or self.plan_cache_misses:
            lines.append(
                f"plan cache           {self.plan_cache_hits} hits, "
                f"{self.plan_cache_misses} misses"
            )
        transport = sum(worker.transport_s for worker in self.workers)
        if transport > 0:
            lines.append(f"transport            {transport * 1e3:.2f} ms "
                         f"moving batches to/from process workers")
        for worker in self.workers:
            if not worker.stages:
                continue
            lines.append(f"pipeline stages (worker {worker.index}):")
            for stage in worker.stages:
                lines.append(
                    f"  stage {stage.index} "
                    f"(layers {stage.layer_start}..{stage.layer_stop - 1}): "
                    f"{stage.batches} batches, "
                    f"busy {stage.busy_s * 1e3:.2f} ms, "
                    f"bubble {stage.bubble_s * 1e3:.2f} ms, "
                    f"transport {stage.transport_s * 1e3:.2f} ms"
                )
        if len(self.workers) > 1:
            lines.append("per-worker load:")
            for worker in self.workers:
                line = (
                    f"  worker {worker.index} ({worker.mode}): "
                    f"{worker.batches} batches, "
                    f"{worker.rows} rows, {worker.conversions} conversions, "
                    f"busy {worker.busy_seconds * 1e6:.1f} us"
                )
                if worker.transport_s > 0:
                    line += f", transport {worker.transport_s * 1e3:.2f} ms"
                lines.append(line)
        return "\n".join(lines)


def _render_histogram(histogram: Dict[int, int]) -> str:
    if not histogram:
        return "(empty)"
    return "  ".join(f"{rows}r x{count}" for rows, count in sorted(histogram.items()))


class ServiceMetrics:
    """Mutable collector behind a running :class:`~repro.serve.InferenceService`.

    All update methods are called from the event-loop thread only, so the
    collector needs no synchronisation.
    """

    def __init__(self, energy_per_conversion_j: float = 0.0) -> None:
        self.energy_per_conversion_j = float(energy_per_conversion_j)
        self.latencies_s: List[float] = []
        self.class_latencies_s: Dict[str, List[float]] = {}
        self.batch_histogram: Dict[int, int] = {}
        self.queue_depths: List[int] = []
        self.dropped = 0
        self.requests = 0
        self.samples = 0
        self.batches = 0
        self.conversions = 0
        self.estimated_conversions = 0.0
        self.worker_deaths = 0
        self.retried_batches = 0
        self.respawns = 0
        self.recovery_times_s: List[float] = []
        self.dispatch_timeouts = 0
        self.heartbeat_trips = 0
        self.corruptions = 0
        self.shed_requests = 0
        self.respawn_failures = 0
        self.breaker_trips = 0
        self.backoff_waits = 0
        self.backoff_total_s = 0.0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.first_arrival: Optional[float] = None
        self.last_completion: Optional[float] = None

    # -- update hooks ---------------------------------------------------
    def record_arrival(self, now: float, queue_depth: int) -> None:
        """A request entered the queue."""
        if self.first_arrival is None:
            self.first_arrival = now
        self.queue_depths.append(queue_depth)

    def record_drop(self) -> None:
        """A request was rejected by the bounded queue."""
        self.dropped += 1

    def record_dispatch(self, queue_depth: int) -> None:
        """A batch left the queue for a worker."""
        self.queue_depths.append(queue_depth)

    def record_batch(self, rows: int, request_latencies_s: Sequence[float],
                     now: float, conversions: int = 0,
                     estimated_conversions: float = 0.0,
                     request_classes: Optional[Sequence[str]] = None) -> None:
        """A batch finished; latencies are per contained request.

        ``request_classes`` optionally tags each latency with the request's
        priority class (parallel to ``request_latencies_s``) so snapshots
        can report per-class percentiles.
        """
        self.batches += 1
        self.samples += rows
        self.requests += len(request_latencies_s)
        self.latencies_s.extend(request_latencies_s)
        if request_classes is not None:
            for name, latency in zip(request_classes, request_latencies_s):
                self.class_latencies_s.setdefault(name, []).append(latency)
        self.batch_histogram[rows] = self.batch_histogram.get(rows, 0) + 1
        self.conversions += conversions
        self.estimated_conversions += estimated_conversions
        self.last_completion = now

    def record_worker_death(self) -> None:
        """A worker process (or pipeline stage) was found dead."""
        self.worker_deaths += 1

    def record_retry(self, batches: int = 1) -> None:
        """A batch was re-dispatched after its worker died."""
        self.retried_batches += batches

    def record_respawn(self) -> None:
        """A background worker respawn completed."""
        self.respawns += 1

    def record_recovery(self, seconds: float) -> None:
        """The pool returned to fully-alive, ``seconds`` after capacity loss."""
        self.recovery_times_s.append(float(seconds))

    def record_dispatch_timeout(self) -> None:
        """A batch blew its dispatch deadline (hung worker)."""
        self.dispatch_timeouts += 1

    def record_heartbeat_trip(self) -> None:
        """The watchdog found a worker's heartbeat counter stalled."""
        self.heartbeat_trips += 1

    def record_corruption(self) -> None:
        """A CRC check caught a corrupt shm slot (batch re-dispatched)."""
        self.corruptions += 1

    def record_shed(self) -> None:
        """Admission shed a request under graceful degradation."""
        self.shed_requests += 1

    def record_respawn_failure(self) -> None:
        """One respawn attempt failed (it may be retried with backoff)."""
        self.respawn_failures += 1

    def record_breaker_trip(self) -> None:
        """A worker slot's respawn circuit breaker opened."""
        self.breaker_trips += 1

    def record_backoff(self, seconds: float) -> None:
        """A retry or respawn waited ``seconds`` of exponential backoff."""
        self.backoff_waits += 1
        self.backoff_total_s += float(seconds)

    # -- summary --------------------------------------------------------
    def wall_time_s(self) -> float:
        """Wall time from first arrival to last completion."""
        if self.first_arrival is None or self.last_completion is None:
            return 0.0
        return max(self.last_completion - self.first_arrival, 0.0)

    def snapshot(self, workers: Sequence[WorkerSnapshot] = ()) -> MetricsSnapshot:
        """Freeze the current counters into a :class:`MetricsSnapshot`.

        Safe to call from outside the event loop (the metrics HTTP
        endpoint scrapes from its own thread): the sample lists are
        copied before any numpy reduction, so a concurrent append on the
        loop thread cannot resize an array mid-percentile.
        """
        wall = self.wall_time_s()
        latencies = list(self.latencies_s)
        class_latencies = {name: list(values)
                           for name, values in self.class_latencies_s.items()}
        queue_depths = list(self.queue_depths)
        # Prefer metered conversions; fall back to the mapping-geometry
        # estimate so digital backends still report an energy figure.
        estimated = self.conversions == 0 and self.estimated_conversions > 0
        conversions = (
            int(round(self.estimated_conversions)) if estimated else self.conversions
        )
        energy = (
            energy_per_request(conversions, self.requests,
                               energy_per_conversion_j=self.energy_per_conversion_j)
            if self.requests else 0.0
        )
        return MetricsSnapshot(
            requests=self.requests,
            samples=self.samples,
            batches=self.batches,
            dropped=self.dropped,
            wall_time_s=wall,
            throughput_rps=self.requests / wall if wall > 0 else float("inf"),
            latency_p50_ms=percentile_ms(latencies, 50),
            latency_p95_ms=percentile_ms(latencies, 95),
            latency_p99_ms=percentile_ms(latencies, 99),
            mean_batch_rows=self.samples / self.batches if self.batches else 0.0,
            batch_histogram=dict(self.batch_histogram),
            max_queue_depth=max(queue_depths, default=0),
            mean_queue_depth=(
                float(np.mean(queue_depths)) if queue_depths else 0.0
            ),
            conversions=conversions,
            conversions_estimated=estimated,
            energy_per_request_j=energy,
            workers=list(workers),
            class_latency_ms={
                name: {
                    "requests": float(len(values)),
                    "p50_ms": percentile_ms(values, 50),
                    "p95_ms": percentile_ms(values, 95),
                    "p99_ms": percentile_ms(values, 99),
                }
                for name, values in class_latencies.items()
            },
            worker_deaths=self.worker_deaths,
            retried_batches=self.retried_batches,
            respawns=self.respawns,
            recovery_times_s=tuple(self.recovery_times_s),
            dispatch_timeouts=self.dispatch_timeouts,
            heartbeat_trips=self.heartbeat_trips,
            corruptions=self.corruptions,
            shed_requests=self.shed_requests,
            respawn_failures=self.respawn_failures,
            breaker_trips=self.breaker_trips,
            backoff_waits=self.backoff_waits,
            backoff_total_s=self.backoff_total_s,
            plan_cache_hits=self.plan_cache_hits,
            plan_cache_misses=self.plan_cache_misses,
        )
