"""The asyncio inference service: queue -> dynamic batcher -> scheduler ->
execution backend.

:class:`InferenceService` turns the blocking ``run_model`` world of
:mod:`repro.exec` into a request-serving system: clients submit single
images (or small stacked requests) and await logits; a dynamic micro-batcher
coalesces the queue into execution batches; a multi-macro scheduler places
each batch on one of ``num_workers`` workers, each owning its own model
replica, prepared execution backend (via
:class:`~repro.exec.engine.BatchRunner`) and occupancy-tracked
:class:`~repro.core.accelerator.AFPRAccelerator`.  The service sees its
workers only through the :class:`~repro.serve.workers.Worker` protocol;
thread workers run the replicas in threads of the service process, process
workers run pickled stage plans in stage processes (one stage for
``workers="process"``, ``N`` for ``pipeline_stages=N``).

Determinism contract: requests are batched strictly in arrival order, and a
batch's logits are exactly ``backend.forward`` of the stacked request rows —
so when the coalesced batch equals the batch a direct ``run_model`` call
would see, the served logits are bit-identical on every backend, and on the
row-independent digital backends (``ideal``, ``fake_quant``) they are
bit-identical regardless of how the batcher happened to split the traffic.

Fault tolerance: a worker-level fault (a worker or stage process died) is
classified apart from request-level errors.  The dead worker is marked
unplaceable, its in-flight and queued batches are re-dispatched to
surviving replicas up to ``max_retries`` attempts, and a background task
respawns the worker from the stage payloads already in memory, so respawn
never recompiles (only a cold start reads the on-disk
:class:`~repro.exec.plan.PlanCache`).  Request-level errors (a forward
exception) still fail only their own batch: they would fail identically on
any replica.  **Noise-stream caveat**: a re-dispatched batch re-runs on a
replica whose analog noise streams have advanced differently, so retried
analog batches draw fresh noise — bit-identity against a single fault-free
run is only guaranteed for the no-fault path.  Runs that need bit identity
even under faults should pin ``retry_policy="fail_fast"``, which restores
the fail-the-batch behaviour while keeping respawn.
"""

from __future__ import annotations

import asyncio
import collections
import copy
import dataclasses
import pickle
import warnings
from random import Random
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exec.backend import ExecutionBackend, ExecutionContext
from repro.exec.engine import BatchRunner
from repro.exec.plan import PlanCache, plan_fingerprint
from repro.exec.registry import create_backend
from repro.faults import injector as fault_injector
from repro.faults.injector import FaultInjector, FaultSpec
from repro.nn.model import Model
from repro.obs.trace import RequestTrace, Tracer
from repro.power.efficiency import energy_per_conversion
from repro.serve.batcher import (
    CLOSE,
    DEFAULT_PRIORITY,
    DynamicBatcher,
    Request,
    fail_requests,
    scatter_results,
    stack_requests,
)
from repro.serve.energy import estimate_conversions_per_sample
from repro.serve.metrics import (
    MetricsSnapshot,
    ServiceMetrics,
    StageOccupancy,
    WorkerSnapshot,
)
from repro.serve.scheduler import (
    NoAliveWorkersError,
    Scheduler,
    WorkerState,
    build_worker_states,
)
from repro.serve.shm import IntegrityError
from repro.serve.workers import (
    TRANSPORT_COUNTERS,
    PipelineWorker,
    ThreadWorker,
    Worker,
)

#: Cap on one batch re-dispatch backoff (before jitter).
REDISPATCH_BACKOFF_MAX_S = 1.0
#: Cap on the backoff between failed respawn attempts (before jitter).
RESPAWN_BACKOFF_MAX_S = 5.0


class ServiceClosedError(RuntimeError):
    """Raised when submitting to a service that is not accepting requests."""


class ServiceOverloadedError(RuntimeError):
    """Raised (via the request future) when the service backlog is full."""


class ServiceDegradedError(ServiceOverloadedError):
    """Raised (via the request future) when a degraded pool sheds the
    request's priority class at admission — the fast 503-style rejection
    of graceful degradation, instead of queueing past every deadline."""


class WorkerHungError(RuntimeError):
    """A worker blew its dispatch deadline or stopped heartbeating.

    Classified exactly like a worker death: the worker is reaped (hard-
    killed where a process backs it) and respawned, and its batches
    re-dispatch under the normal retry budget."""


@dataclasses.dataclass
class ServeConfig:
    """Configuration of an :class:`InferenceService`.

    Attributes
    ----------
    backend:
        Registered backend name (instances are allowed for a single
        worker only — backend state cannot be shared across replicas).
    max_batch:
        Flush a batch at this many sample rows.
    max_wait_ms:
        Flush a non-full batch this long after its oldest request.
    num_workers:
        Model replicas (each with its own prepared backend).
    workers:
        Worker substrate: ``"thread"`` (default) runs each replica's
        forwards in worker threads of the service process; ``"process"``
        builds the replica's execution plan once, pickles its whole op
        program and runs it as a one-stage pipeline in a dedicated
        process — real cores instead of GIL-shared threads, with
        deterministic per-worker state (replica ``i`` is constructed by
        the same seeded recipe in both modes, so served logits match the
        in-loop workers bit for bit).
        Images go in and logits come back through parent-owned
        shared-memory rings (zero-copy views in the worker, unlinked on
        close); the first batch and batches too large for a slot travel by
        value.
    pipeline_stages:
        ``>= 2`` serves each replica as a sharded stage pipeline: the
        compiled plan's op program is cut into that many op ranges
        (cost-balanced on ``context.calibration`` when available), each
        stage runs in its own process, and batches stream between stages over shared-memory
        slot rings with backpressure (:mod:`repro.shard`).  ``1`` (the
        default) keeps the ordinary one-worker-per-replica modes.
    macro_budget:
        Per-worker crossbar capacity in macros.  With ``pipeline_stages >=
        2`` it caps every stage's mapped-macro footprint (the partitioner
        cuts so each stage fits); with one stage a model whose mapped tiles
        exceed the budget is rejected at ``start`` — shard it instead.
        ``None`` (default) models unlimited capacity.
    macros_per_worker:
        Modelled AFPR macros per worker (occupancy accounting).
    queue_capacity:
        Admission-control bound: reject arrivals while this many admitted
        requests are still outstanding (queued, batched or in flight on a
        worker — ``None`` = unbounded).  Bounding only the raw request
        queue would be useless, since the dispatcher drains it into the
        per-worker queues immediately.
    context:
        Execution context shared by every worker's backend (calibration,
        macro config, formats, seed).
    retry_policy:
        What happens to the in-flight batches of a worker that *died*
        (a worker or stage process exited — never plain forward
        exceptions, which fail only their own batch).
        ``"redispatch"`` (default) re-queues them onto surviving replicas
        up to ``max_retries`` attempts.  Retried analog batches draw fresh
        noise (the replacement replica's streams have advanced
        differently), so bit-identity-critical runs should pin
        ``"fail_fast"``, which fails the dead worker's batches immediately
        (respawn still restores capacity).
    max_retries:
        Re-dispatch attempts per batch before its requests fail.  Only
        attempts that reached a worker count: a batch still queued on a
        worker that died is placed again for free.
    respawn:
        Rebuild a dead worker in the background (same replica recipe;
        process workers reuse the stage payloads already in memory, so
        they never recompile).
    recovery_wait_s:
        How long a batch may wait for a respawn when *no* worker is alive
        before its requests fail.
    plan_cache:
        Directory of the on-disk compiled-plan cache
        (:class:`repro.exec.plan.PlanCache`).  The compiled plan of
        process and pipeline workers is looked up by model/backend/context
        fingerprint, so a cold start skips plan compilation and only cuts
        the cached plan into stages; ``None`` (default) disables the cache.
        Respawns never read it: they reuse the in-memory stage payloads.
    priority_classes:
        Optional ``{class_name: max_wait_ms}`` SLO tiers.  A request's
        class picks its flush-deadline budget (see
        :class:`~repro.serve.batcher.DynamicBatcher`); unknown class names
        are rejected at submit.  ``None`` keeps the single global
        ``max_wait_ms`` for everyone.
    dispatch_timeout_s:
        Per-dispatch deadline: a batch whose worker forward exceeds it is
        treated as served by a *hung* worker — the worker is reaped (hard
        SIGKILL for process/pipeline substrates) and respawned, and the
        batch re-dispatches under ``max_retries`` exactly like a death.
        ``None`` (default) disables the deadline.  Note the first batch
        per worker rides the warm-up path, so leave headroom above the
        steady-state forward time.
    heartbeat_timeout_s:
        Enables the heartbeat watchdog: process/pipeline workers run a
        daemon beat thread updating a parent-owned shared-memory counter
        every ``heartbeat_interval_s``; a worker whose counters stall
        longer than this is declared hung (reaped + respawned) even with
        no batch in flight — catching frozen/SIGSTOPped processes the
        dispatch deadline alone cannot see.  ``None`` (default) disables
        the watchdog.
    heartbeat_interval_s:
        Beat period of the worker-side heartbeat threads and sampling
        period of the parent watchdog.
    redispatch_backoff_base_s:
        Exponential backoff before each batch re-dispatch: attempt ``k``
        waits ``base * 2**k`` (capped at ``REDISPATCH_BACKOFF_MAX_S``)
        plus seeded jitter, so a dying pool is not hammered with
        immediate retries.  ``0`` (default) re-dispatches immediately.
    respawn_backoff_base_s:
        Exponential backoff (plus seeded jitter, capped at
        ``RESPAWN_BACKOFF_MAX_S``) between *failed* respawn attempts of
        one worker slot.
    max_respawn_failures:
        Circuit breaker: after this many consecutive respawn failures the
        slot's breaker opens and respawning stops (capacity stays
        degraded, counted in metrics) instead of respawn-storming.
    shm_integrity:
        CRC32 per shm slot (process-worker rings and pipeline stage
        rings): computed into a slot header at write, verified on read.
        A mismatch is classified as a *corrupt batch* — re-dispatched
        under the retry budget without killing the worker.  Off by
        default (zero extra bytes or work on the hot path).
    shed_alive_fraction:
        Graceful degradation trigger: shed when the alive fraction of the
        pool drops *below* this (e.g. ``0.5``).  ``None`` disables the
        alive-fraction trigger.  Degradation sheds the laxest configured
        priority class (largest ``max_wait_ms``, the lowest SLO tier), or
        the default class when no classes are configured, with a fast
        :class:`ServiceDegradedError` rejection at admission, counted in
        metrics.
    shed_timeout_threshold / shed_timeout_window_s:
        Second trigger: shed while at least this many dispatch timeouts
        landed within the trailing window.  ``None`` disables it.
    faults:
        Optional :class:`repro.faults.FaultSpec` installing the
        deterministic chaos injector into this service and every worker
        process it spawns.  ``None`` (default; production) leaves every
        injection site a no-op.
    trace_sample_rate:
        Per-request probability (``0..1``) of recording a full distributed
        span tree — queue wait, batch formation, dispatch, worker/stage
        forwards, per-layer DAC/crossbar/ADC — for that request
        (:mod:`repro.obs`).  Sampling is seeded from ``context.seed`` so
        traced runs are reproducible, and it never touches the numpy RNG
        streams, so sampled serving stays bit-identical to untraced
        serving.  ``0`` (default) disables tracing; the remaining cost is
        one attribute check per request.
    """

    backend: Union[str, ExecutionBackend] = "ideal"
    max_batch: int = 64
    max_wait_ms: float = 2.0
    num_workers: int = 1
    workers: str = "thread"
    pipeline_stages: int = 1
    macro_budget: Optional[int] = None
    macros_per_worker: int = 8
    queue_capacity: Optional[int] = None
    context: ExecutionContext = dataclasses.field(default_factory=ExecutionContext)
    retry_policy: str = "redispatch"
    max_retries: int = 2
    respawn: bool = True
    recovery_wait_s: float = 30.0
    plan_cache: Optional[str] = None
    priority_classes: Optional[Dict[str, float]] = None
    dispatch_timeout_s: Optional[float] = None
    heartbeat_timeout_s: Optional[float] = None
    heartbeat_interval_s: float = 0.05
    redispatch_backoff_base_s: float = 0.0
    respawn_backoff_base_s: float = 0.05
    max_respawn_failures: int = 3
    shm_integrity: bool = False
    shed_alive_fraction: Optional[float] = None
    shed_timeout_threshold: Optional[int] = None
    shed_timeout_window_s: float = 1.0
    faults: Optional[FaultSpec] = None
    trace_sample_rate: float = 0.0


class InferenceService:
    """Dynamic-batching inference service over the execution-backend registry."""

    def __init__(self, model: Model, config: Optional[ServeConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else ServeConfig()
        if isinstance(self.config.backend, ExecutionBackend) and self.config.num_workers > 1:
            raise ValueError(
                "a backend instance cannot be shared across workers; "
                "pass a registered backend name for num_workers > 1"
            )
        if self.config.workers not in ("thread", "process"):
            raise ValueError(
                f"unknown worker mode {self.config.workers!r}; "
                "choose 'thread' or 'process'"
            )
        if self.config.pipeline_stages < 1:
            raise ValueError("pipeline_stages must be >= 1")
        if (self.config.macro_budget is not None
                and self.config.macro_budget < 1):
            raise ValueError("macro_budget must be >= 1 (or None)")
        if self.config.retry_policy not in ("redispatch", "fail_fast"):
            raise ValueError(
                f"unknown retry policy {self.config.retry_policy!r}; "
                "choose 'redispatch' or 'fail_fast'"
            )
        if self.config.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        for name, wait_ms in (self.config.priority_classes or {}).items():
            if wait_ms < 0:
                raise ValueError(
                    f"priority class {name!r} max_wait_ms must be >= 0")
        if (self.config.dispatch_timeout_s is not None
                and self.config.dispatch_timeout_s <= 0):
            raise ValueError("dispatch_timeout_s must be > 0 (or None)")
        if (self.config.heartbeat_timeout_s is not None
                and self.config.heartbeat_timeout_s <= 0):
            raise ValueError("heartbeat_timeout_s must be > 0 (or None)")
        if self.config.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if (self.config.redispatch_backoff_base_s < 0
                or self.config.respawn_backoff_base_s < 0):
            raise ValueError("backoff bases must be >= 0")
        if self.config.max_respawn_failures < 1:
            raise ValueError("max_respawn_failures must be >= 1")
        if (self.config.shed_alive_fraction is not None
                and not 0.0 < self.config.shed_alive_fraction <= 1.0):
            raise ValueError("shed_alive_fraction must be in (0, 1]")
        if (self.config.shed_timeout_threshold is not None
                and self.config.shed_timeout_threshold < 1):
            raise ValueError("shed_timeout_threshold must be >= 1 (or None)")
        self.metrics = ServiceMetrics(
            energy_per_conversion_j=energy_per_conversion(self.config.context.macro_config)
        )
        # The Tracer validates trace_sample_rate itself; seeding from the
        # execution context's seed (its own random.Random, never the numpy
        # streams) makes which requests get traced reproducible without
        # perturbing served numerics.
        self.tracer = Tracer(
            sample_rate=self.config.trace_sample_rate,
            seed=getattr(self.config.context, "seed", 0),
        )
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[DynamicBatcher] = None
        self._worker_states: List[WorkerState] = []
        self._workers: List[Worker] = []
        self._worker_queues: List[asyncio.Queue] = []
        self._tasks: List[asyncio.Task] = []
        self._scheduler: Optional[Scheduler] = None
        self._conversions_per_sample: Optional[int] = None
        self._outstanding = 0
        self._started = False
        self._accepting = False
        self._stopping = False
        self._worker_mode = ("pipeline" if self.config.pipeline_stages > 1
                             else self.config.workers)
        self._plan_cache: Optional[PlanCache] = None
        self._payloads: Optional[List[bytes]] = None
        self._respawn_tasks: set = set()
        self._watchdog_task: Optional[asyncio.Task] = None
        self._signature: Optional[Tuple[int, ...]] = None
        self._degraded_since: Optional[float] = None
        # --- robustness state (fault injection, hangs, backoff, shedding) ---
        self._injector: Optional[FaultInjector] = None
        self._fault_spec_dict = (self.config.faults.to_dict()
                                 if self.config.faults is not None else None)
        self._shed_enabled = (
            self.config.shed_alive_fraction is not None
            or self.config.shed_timeout_threshold is not None)
        self._shed_classes = self._resolve_shed_classes()
        self._timeout_times: collections.deque = collections.deque()
        self._respawn_breaker_open: set = set()
        # Seeded apart from the numpy streams: jitter must never perturb
        # served numerics.
        self._backoff_rng = Random(
            f"serve-backoff:{getattr(self.config.context, 'seed', 0)}")
        self._heartbeat_seen: Dict[int, Tuple[object, Tuple, float]] = {}
        self._fault_report: Dict[str, Dict[str, int]] = {}

    def _resolve_shed_classes(self) -> frozenset:
        """Which priority classes degradation sheds.

        The laxest configured class (largest flush budget — the lowest SLO
        tier) is shed; with no classes at all, everything is the default
        class and is sheddable.
        """
        classes = self.config.priority_classes
        if not classes:
            return frozenset((DEFAULT_PRIORITY,))
        laxest = max(classes.values())
        return frozenset(name for name, wait in classes.items()
                         if wait >= laxest)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Prepare every worker replica and start the serving tasks."""
        if self._started:
            raise RuntimeError("service already started")
        config = self.config
        # Rebuild all per-run state so a stopped service can start again:
        # queues from a previous run are bound to that run's event loop.
        self._queue = asyncio.Queue()
        class_wait_s = {name: wait_ms / 1e3
                        for name, wait_ms in (config.priority_classes or {}).items()}
        self._batcher = DynamicBatcher(self._queue, max_batch=config.max_batch,
                                       max_wait_s=config.max_wait_ms / 1e3,
                                       class_wait_s=class_wait_s)
        self._worker_queues = []
        self._workers = []
        self._outstanding = 0
        self._stopping = False
        self._payloads = None
        self._respawn_tasks = set()
        self._degraded_since = None
        self._timeout_times = collections.deque()
        self._respawn_breaker_open = set()
        self._heartbeat_seen = {}
        if config.faults is not None:
            # Parent-side sites (shm request writes, plan-cache loads, the
            # respawn path) fire on this injector; worker processes install
            # their own copy from the shipped spec dict.
            self._injector = fault_injector.install(
                FaultInjector(config.faults))
        self._plan_cache = (PlanCache(config.plan_cache)
                            if config.plan_cache else None)
        # The admission signature locks from the calibration batch when one
        # is available, else from the first admitted request.
        self._signature = None
        calibration = config.context.calibration
        if calibration is not None:
            calibration = np.asarray(calibration)
            if calibration.ndim == 4:
                self._signature = tuple(int(d) for d in calibration.shape[1:])
        self._worker_states = build_worker_states(
            config.num_workers, macro_config=config.context.macro_config,
            macros_per_worker=config.macros_per_worker, mode=self._worker_mode,
        )
        self._scheduler = Scheduler(self._worker_states)
        try:
            for index in range(config.num_workers):
                worker = await self._build_worker()
                self._workers.append(worker)
                self._worker_queues.append(asyncio.Queue())
        except Exception:
            # A failed prepare mid-pool must not leave earlier workers
            # attached or the service half-initialised for a retry.
            for worker in self._workers:
                await worker.close()
            self._workers = []
            self._worker_queues = []
            self._worker_states = []
            self._scheduler = None
            self._queue = None
            self._batcher = None
            raise
        # One consumer per batch a worker may keep in flight.
        self._tasks = [
            asyncio.create_task(self._worker_loop(index),
                                name=f"serve-worker-{index}")
            for index, worker in enumerate(self._workers)
            for _ in range(worker.max_inflight)
        ]
        self._tasks.append(
            asyncio.create_task(self._dispatch_loop(), name="serve-dispatch")
        )
        if config.heartbeat_timeout_s is not None:
            self._watchdog_task = asyncio.create_task(
                self._watchdog_loop(), name="serve-watchdog")
        self._started = True
        self._accepting = True

    async def _build_runner(self) -> BatchRunner:
        """Prepare one replica runner (deepcopy + same seeded context).

        Each worker serves its own replica so concurrent forwards on
        different workers cannot race on shared layer state.  The replica
        recipe is identical for every worker and in both worker modes,
        which is what keeps process serving bit-identical to in-loop
        serving — and what lets one pickled plan payload serve every
        process replica (and the plan cache serve future starts).
        """
        config = self.config
        replica = copy.deepcopy(self.model)
        backend = (
            config.backend if isinstance(config.backend, ExecutionBackend)
            else create_backend(config.backend)
        )
        return await asyncio.to_thread(
            BatchRunner, replica, backend, context=config.context
        )

    async def _stage_payloads(self) -> List[bytes]:
        """The pickled stage plans every process worker runs, cut once per run.

        The compiled plan comes from the on-disk plan cache on a
        fingerprint hit, else from a freshly prepared replica (stored for
        the next cold start), and is cut into ``pipeline_stages`` stage
        plans under the ``macro_budget`` crossbar constraint
        (:func:`~repro.shard.partition.build_stage_payloads`).  Every
        replica is the same seeded recipe, so these payloads serve every
        process worker, respawns included.
        """
        if self._payloads is not None:
            return self._payloads
        # Imported lazily: repro.shard pulls in the pipeline machinery only
        # process workers need (and avoids an import cycle through
        # repro.serve.shm).
        from repro.shard.partition import build_stage_payloads

        config = self.config
        # Backend *instances* carry arbitrary caller state the fingerprint
        # cannot see; only registry-name recipes are cacheable.
        cache = self._plan_cache if isinstance(config.backend, str) else None
        key, cached, claimed, runner = None, None, False, None
        try:
            if cache is not None:
                key = await asyncio.to_thread(
                    plan_fingerprint, self.model, config.backend,
                    config.context)
                cached = await self._load_cached_plan(cache, key)
                if cached is None:
                    # Write-once guard: first contender claims the key and
                    # compiles; the rest wait for its entry instead of
                    # double-compiling the identical plan.
                    claimed = await asyncio.to_thread(cache.claim, key)
                    if not claimed:
                        cached = await asyncio.to_thread(cache.wait_for, key)
            if cached is not None:
                plan = await asyncio.to_thread(pickle.loads, cached)
            else:
                runner = await self._build_runner()
                plan = runner.plan
                if cache is not None:
                    try:
                        await asyncio.to_thread(
                            lambda: cache.store(key, pickle.dumps(plan)))
                    except OSError as exc:
                        warnings.warn(
                            f"plan cache write failed ({exc!r}); serving "
                            "without it", RuntimeWarning, stacklevel=2)
            partition = await asyncio.to_thread(
                build_stage_payloads, plan, config.pipeline_stages,
                probe=config.context.calibration,
                max_macros_per_stage=config.macro_budget)
        finally:
            if runner is not None:
                await asyncio.to_thread(runner.close)
            if claimed:
                await asyncio.to_thread(cache.release, key)
        self._payloads = partition.payloads
        return self._payloads

    async def _load_cached_plan(self, cache: PlanCache,
                                key: str) -> Optional[bytes]:
        """One cache lookup, with the ``plan_cache.load`` injection site.

        A ``crash`` rule here makes a cold start fail (respawns reuse the
        in-memory payloads and never look the plan up); a ``corrupt`` rule
        (no mutable payload at this site) degrades the lookup to a miss.
        """
        corrupt = False
        if self._injector is not None:
            corrupt = self._injector.fire("plan_cache.load")
        payload = await asyncio.to_thread(cache.load, key)
        return None if corrupt else payload

    async def _build_worker(self) -> Worker:
        """Build and start one worker of the configured substrate."""
        config = self.config
        if self._worker_mode == "thread":
            runner = await self._build_runner()
            used, budget = runner.plan.num_macros(), config.macro_budget
            if budget is not None and used > budget:
                from repro.shard.partition import CapacityError

                await asyncio.to_thread(runner.close)
                raise CapacityError(
                    f"model maps onto {used} macros but the worker crossbar "
                    f"budget is {budget}; shard it with "
                    f"ServeConfig(pipeline_stages>= {-(-used // budget)})")
            return ThreadWorker(runner)
        heartbeat = (config.heartbeat_interval_s
                     if config.heartbeat_timeout_s is not None else None)
        worker = PipelineWorker(await self._stage_payloads(),
                                max_batch=config.max_batch,
                                checksum=config.shm_integrity,
                                fault_spec=self._fault_spec_dict,
                                heartbeat_interval_s=heartbeat)
        try:
            await worker.start()
        except Exception:
            await worker.close()
            raise
        return worker

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` serves everything already queued before shutting
        down; ``drain=False`` fails queued requests with
        :class:`ServiceClosedError`.
        """
        if not self._started:
            return
        self._accepting = False
        self._stopping = True
        first_error: Optional[BaseException] = None
        try:
            task = self._watchdog_task
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
                self._watchdog_task = None
            # Let in-flight respawns finish (they check _stopping and tear
            # their worker back down) so no process leaks past stop.
            if self._respawn_tasks:
                await asyncio.gather(*list(self._respawn_tasks),
                                     return_exceptions=True)
            if not drain:
                self._fail_queued(ServiceClosedError("service stopped"))
            await self._queue.put(CLOSE)
            # Tolerate dead tasks: shutdown must always release the workers
            # and close the runners, even if a serving task crashed.
            outcomes = await asyncio.gather(*self._tasks, return_exceptions=True)
            for outcome in outcomes:
                if isinstance(outcome, BaseException) and first_error is None:
                    first_error = outcome
        finally:
            self._tasks = []
            for worker in self._workers:
                await worker.close()
            self._workers = []
            self._started = False
            self._stopping = False
            if self._injector is not None:
                # Parent-side fire counts survive stop for chaos summaries.
                self._fault_report = self._injector.report()
                if fault_injector.get_installed() is self._injector:
                    fault_injector.uninstall()
                self._injector = None
        if first_error is not None:
            # Cleanup succeeded; still surface the crash rather than hide it.
            raise first_error

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_nowait(self, images: np.ndarray,
                      priority: str = DEFAULT_PRIORITY
                      ) -> "asyncio.Future[np.ndarray]":
        """Enqueue one request; returns the future of its logits.

        ``images`` is one sample (``(C, H, W)``) or one stacked multi-sample
        request (``(n, C, H, W)``); the future resolves to logits with the
        matching leading dimension.  ``priority`` names an SLO class from
        ``config.priority_classes`` (or the default class).

        Malformed requests are rejected *here*, synchronously: shape rank,
        sample shape against the service input signature (locked from the
        calibration batch, else from the first admitted request) and
        non-numeric dtypes.  Past admission a request enters the shared
        batching pipeline, where a bad payload would fail every co-batched
        client's request along with its own.
        """
        if not self._started or not self._accepting:
            raise ServiceClosedError("service is not accepting requests")
        classes = self.config.priority_classes
        if (classes is not None and priority != DEFAULT_PRIORITY
                and priority not in classes):
            raise ValueError(
                f"unknown priority class {priority!r}; configured classes: "
                f"{', '.join(sorted(classes))} (or {DEFAULT_PRIORITY!r})"
            )
        array = np.asarray(images, dtype=np.float64)
        if array.ndim == 3:
            array = array[None, ...]
        elif array.ndim != 4:
            raise ValueError(
                f"request must be one (C, H, W) sample or a stacked "
                f"(n, C, H, W) batch; got shape {array.shape}"
            )
        sample_shape = tuple(int(d) for d in array.shape[1:])
        if self._signature is None:
            self._signature = sample_shape
        elif sample_shape != self._signature:
            raise ValueError(
                f"request sample shape {sample_shape} does not match the "
                f"service input signature {self._signature}; rejected at "
                "admission so one malformed request cannot fail its "
                "co-batched clients"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[np.ndarray]" = loop.create_future()
        now = loop.time()
        if self._shed_enabled and priority in self._shed_classes:
            reason = self._shedding_now(now)
            if reason is not None:
                # Graceful degradation: a struggling pool sheds its
                # lowest-priority classes at admission so stricter SLO
                # classes keep their capacity.
                self.metrics.count("shed_requests")
                self.tracer.event("shed", priority=priority, reason=reason)
                future.set_exception(
                    ServiceDegradedError(
                        f"service degraded ({reason}); shedding "
                        f"{priority!r}-class requests"))
                return future
        capacity = self.config.queue_capacity
        if capacity is not None and self._outstanding >= capacity:
            self.metrics.count("dropped")
            future.set_exception(
                ServiceOverloadedError(
                    f"service backlog full ({self._outstanding} outstanding "
                    f"requests, capacity {capacity})"
                )
            )
            return future
        self._outstanding += 1
        request = Request(images=array, future=future, arrival=now,
                          priority=priority)
        if self.tracer.enabled:
            request.trace = self.tracer.maybe_start_request(
                request.request_id, priority, request.rows)
        self._queue.put_nowait(request)
        self.metrics.record_arrival(now, self._queue.qsize())
        return future

    async def submit(self, images: np.ndarray,
                     priority: str = DEFAULT_PRIORITY) -> np.ndarray:
        """Submit one request and await its logits."""
        return await self.submit_nowait(images, priority=priority)

    async def submit_many(self, images: np.ndarray) -> np.ndarray:
        """Submit ``images`` as contiguous ``max_batch``-row slice requests.

        A k-row submission used to create one request (and one future) per
        sample — thousands of queue entries and gather slots that the
        batcher immediately re-coalesced into ``max_batch``-row batches.
        Submitting the same contiguous slices directly enqueues
        ``ceil(k / max_batch)`` stacked requests instead: identical
        execution batches (each slice is exactly one flush) and identical
        FIFO carry semantics, with O(1) futures per executed batch.  Note
        a slice counts as one request toward ``queue_capacity`` and in the
        request-level metrics.
        """
        array = np.asarray(images, dtype=np.float64)
        step = max(self.config.max_batch, 1)
        futures = [self.submit_nowait(array[start:start + step])
                   for start in range(0, array.shape[0], step)]
        results = await asyncio.gather(*futures)
        if not results:
            # Mirror run_model's empty-input behaviour: (0, 0) logits.
            return np.zeros((0, 0), dtype=np.float64)
        return np.concatenate(results, axis=0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_conversion_estimate(self, batch: List[Request]) -> None:
        if self._conversions_per_sample is not None:
            return
        # Probe on the caller's model: replicas may be mid-forward in worker
        # threads, but the original stays digital and idle while serving.
        self._conversions_per_sample = estimate_conversions_per_sample(
            self.model, batch[0].images[0],
            macro_config=self.config.context.macro_config,
            max_mapped_layers=self.config.context.max_mapped_layers,
        )

    def _fail_queued(self, error: BaseException) -> None:
        """Fail every request still sitting in the request queue."""
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is not CLOSE:
                fail_requests([item], error)
                self._finish_request_traces([item], error=error)
                self._outstanding -= 1

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _trace_batch_formed(self, batch: List[Request]) -> None:
        """Close queue-wait spans; open the primary trace's batch span.

        The first traced request of a batch is its *primary*: batch- and
        dispatch-level spans attach to that one trace (a batch is one
        execution, not one per client), and every other traced request in
        the batch records the primary's trace id for cross-reference.
        """
        if not self.tracer.enabled:
            return
        traced = [request for request in batch if request.trace is not None]
        if not traced:
            return
        now = self.tracer.clock()
        for request in traced:
            self.tracer.end(request.trace.queue_span, now)
        primary = traced[0].trace
        primary.batch_span = self.tracer.begin(
            "batch", category="batch", trace_id=primary.trace_id,
            parent=primary.root, start_s=now,
            rows=sum(request.rows for request in batch),
            requests=len(batch))
        for other in traced[1:]:
            other.trace.root.args["batched_into"] = primary.trace_id

    def _batch_primary_trace(self, batch: List[Request]
                             ) -> Optional[RequestTrace]:
        """The batch's primary trace handle (first traced request), if any."""
        if not self.tracer.enabled:
            return None
        for request in batch:
            if request.trace is not None:
                return request.trace
        return None

    def _finish_request_traces(self, batch: List[Request],
                               error: Optional[BaseException] = None) -> None:
        """End every span of the batch's traced requests (success or failure).

        Idempotent per span, so a request finished here after its batch
        span closed normally only picks up whatever is still open — which
        is what keeps failure paths (admission races, retries exhausted,
        drain) from leaking unclosed spans as orphans.
        """
        if not self.tracer.enabled:
            return
        now = self.tracer.clock()
        outcome = {} if error is None else {"error": repr(error)}
        for request in batch:
            trace = request.trace
            if trace is None:
                continue
            self.tracer.end(trace.queue_span, now)
            self.tracer.end(trace.batch_span, now, **outcome)
            self.tracer.end(trace.root, now, **outcome)

    async def _dispatch_loop(self) -> None:
        try:
            while True:
                try:
                    batch = await self._batcher.next_batch()
                except Exception as exc:  # noqa: BLE001 — defense in depth
                    # A batcher failure must not wedge the service with
                    # accepted-but-undispatchable requests.
                    self._fail_queued(exc)
                    break
                if batch is None:
                    break
                self._trace_batch_formed(batch)
                if self._conversions_per_sample is None:
                    try:
                        # Off the event loop: the probe runs a real forward,
                        # and arrivals must keep flowing while it does.
                        await asyncio.to_thread(self._ensure_conversion_estimate,
                                                batch)
                    except Exception:
                        # Energy estimation is best-effort; never fail
                        # traffic over it.
                        self._conversions_per_sample = 0
                try:
                    rows = sum(request.rows for request in batch)
                    estimate = rows * self._conversions_per_sample
                    worker = await self._place_batch(rows)
                    worker.accelerator.begin_inference(estimate)
                    self.metrics.record_dispatch(self._queue.qsize())
                    await self._worker_queues[worker.index].put(
                        (batch, estimate, 0))
                except Exception as exc:  # noqa: BLE001 — fail, don't hang
                    fail_requests(batch, exc)
                    self._finish_request_traces(batch, error=exc)
                    self._outstanding -= len(batch)
        finally:
            # Always broadcast shutdown, one sentinel per consumer, even if
            # dispatch died: workers must never be left blocking on their
            # queues.
            for queue, worker in zip(self._worker_queues, self._workers):
                for _ in range(worker.max_inflight):
                    queue.put_nowait(None)

    async def _worker_loop(self, index: int) -> None:
        """One consumer of a worker's queue: serve its batches one by one.

        A worker slot runs ``max_inflight`` consumers.  A pipeline worker's
        consumers keep that many batches in flight, so stages overlap
        across batches (the pipeline's throughput win); the worker
        serialises pipeline *entry*, so batch order (and with it analog
        bit identity) is preserved.  Other workers get one consumer, and a
        dispatch deadline times one forward.
        """
        queue = self._worker_queues[index]
        state = self._worker_states[index]
        while True:
            item = await queue.get()
            if item is None:
                return
            # Fetched per item: a respawn replaces the worker object at
            # this index, and batches queued before (or during) the death
            # must run on whatever currently backs the slot.
            await self._serve_batch(self._workers[index], state, item)

    async def _serve_batch(self, worker, state, item) -> None:
        loop = asyncio.get_running_loop()
        batch, estimate, retries = item
        if not state.alive and not self._stopping:
            # Queued before the worker's death was noticed: skip the doomed
            # forward (the worker is closed or closing) and place the batch
            # again.  No forward ran, so no retry is spent.
            state.accelerator.cancel_inference(estimate)
            await self._retry_or_fail(
                batch, retries,
                RuntimeError(f"worker {state.index} died before serving "
                             "the batch"), reached_worker=False)
            return
        primary = self._batch_primary_trace(batch)
        dispatch_span = None
        try:
            inputs = stack_requests(batch)
            if primary is not None:
                dispatch_span = self.tracer.begin(
                    "dispatch", category="dispatch",
                    trace_id=primary.trace_id,
                    parent=primary.batch_span or primary.root,
                    worker=state.index, mode=state.mode, attempt=retries)
            timeout_s = self.config.dispatch_timeout_s
            forward = worker.forward(inputs, traced=dispatch_span is not None)
            if timeout_s is not None:
                logits, measured, remote = await asyncio.wait_for(
                    forward, timeout=timeout_s)
            else:
                logits, measured, remote = await forward
            now = loop.time()
            if dispatch_span is not None:
                dispatch_end = self.tracer.clock()
                self.tracer.end(dispatch_span, dispatch_end)
                if remote:
                    # Re-anchor the worker-clock spans inside the observed
                    # dispatch window — the tree stays connected without a
                    # shared clock epoch.
                    self.tracer.attach_remote(
                        remote, parent=dispatch_span,
                        start_s=dispatch_span.start_s, end_s=dispatch_end)
            # Scatter first: it validates the worker returned one logits
            # row per batched sample row before any future resolves.
            scatter_results(batch, logits)
            # Retire the booked estimate from the in-flight gauge but
            # credit the measured cost, so neither an optimistic nor a
            # pessimistic estimate leaves phantom load behind.
            state.accelerator.complete_inference(
                measured if measured else estimate, booked=estimate)
            state.transport_s = worker.transport_s
            state.stage_stats = worker.stage_stats
            self._outstanding -= len(batch)
            self.metrics.record_batch(
                rows=int(inputs.shape[0]),
                request_latencies_s=[now - request.arrival
                                     for request in batch],
                now=now,
                conversions=measured,
                estimated_conversions=0.0 if measured else float(estimate),
                request_classes=[request.priority for request in batch],
            )
            self._finish_request_traces(batch)
        except asyncio.TimeoutError:
            # Dispatch deadline: the forward outlived its SLO budget — a
            # wedged worker (injected hang, livelock) that never raises.
            # Classified exactly like a death, plus a hard kill() first:
            # an orderly close would otherwise wait on the hung process.
            # Must precede the generic handler — on Python 3.11+
            # asyncio.TimeoutError is the builtin TimeoutError.
            if dispatch_span is not None:
                self.tracer.end(dispatch_span, error="dispatch_timeout")
            state.accelerator.cancel_inference(estimate)
            exc = WorkerHungError(
                f"worker {state.index} exceeded its "
                f"{self.config.dispatch_timeout_s}s dispatch deadline")
            self.metrics.count("dispatch_timeouts")
            self._timeout_times.append(loop.time())
            self.tracer.event("dispatch_timeout", worker=state.index,
                              mode=state.mode, attempt=retries)
            if not self._stopping:
                self._note_worker_death(state, exc, kill=True)
                await self._retry_or_fail(batch, retries, exc)
                return
            fail_requests(batch, exc)
            self._finish_request_traces(batch, error=exc)
            self._outstanding -= len(batch)
        except Exception as exc:  # noqa: BLE001 — classify, retry or fail
            if dispatch_span is not None:
                self.tracer.end(dispatch_span, error=repr(exc))
            state.accelerator.cancel_inference(estimate)
            if (self._is_corruption(exc) and state.alive
                    and not self._stopping):
                # A CRC check caught slot bit-rot: the payload is bad but
                # the worker is healthy, so the batch is re-dispatched
                # without killing anything.
                self.metrics.count("corruptions")
                self.tracer.event("slot_corruption", worker=state.index,
                                  mode=state.mode, attempt=retries,
                                  error=repr(exc))
                await self._retry_or_fail(batch, retries, exc)
                return
            # A fault is worker-level either by type (StageDiedError) or
            # by correlation: the worker was marked dead while this batch
            # raced its teardown, so errors like "pipeline is not running"
            # still count.
            death = self._is_worker_death(exc) or not state.alive
            if death and not self._stopping:
                # Worker-level fault (a worker or stage process died): the
                # batch itself is fine, so it is re-dispatchable.  Mark the
                # worker down and respawn it.
                self._note_worker_death(state, exc)
                await self._retry_or_fail(batch, retries, exc)
                return
            # Request-level failure (stacking errors, forward exceptions,
            # scatter row mismatch): it would fail the same way on any
            # replica, so it propagates to exactly this batch's clients.
            # The worker itself survives any single bad batch.
            fail_requests(batch, exc)
            self._finish_request_traces(batch, error=exc)
            self._outstanding -= len(batch)

    async def _retry_or_fail(self, batch: List[Request], retries: int,
                             exc: BaseException,
                             reached_worker: bool = True) -> None:
        """Re-dispatch a dead worker's batch, or fail it to its clients.

        Retries are bounded by ``max_retries`` and disabled entirely under
        ``retry_policy="fail_fast"`` (the pre-fault-tolerance behaviour,
        for noise-stream-sensitive runs).  With
        ``redispatch_backoff_base_s > 0`` each attempt waits
        ``base * 2**(attempt-1)`` (capped by ``REDISPATCH_BACKOFF_MAX_S``)
        plus up to 25% seeded jitter before re-entering placement, so a
        flapping pool is not hammered by its own retry traffic.  A batch
        that never reached its worker (queued behind one that died) is
        placed again at once without spending a retry; ``recovery_wait_s``
        still bounds its wait for a live worker.
        """
        if (self.config.retry_policy == "redispatch"
                and (retries < self.config.max_retries or not reached_worker)
                and not self._stopping):
            base = self.config.redispatch_backoff_base_s
            if reached_worker and base > 0.0 and retries >= 0:
                wait_s = min(base * (2.0 ** retries),
                             REDISPATCH_BACKOFF_MAX_S)
                wait_s *= 1.0 + 0.25 * self._backoff_rng.random()
                self.metrics.count("backoff_waits")
                self.metrics.count("backoff_total_s", wait_s)
                self.tracer.event("redispatch_backoff", attempt=retries + 1,
                                  wait_s=round(wait_s, 6))
                await asyncio.sleep(wait_s)
            try:
                await self._redispatch(
                    batch, retries + 1 if reached_worker else retries)
                return
            except Exception as redispatch_exc:  # noqa: BLE001
                exc = redispatch_exc
        fail_requests(batch, exc)
        self._finish_request_traces(batch, error=exc)
        self._outstanding -= len(batch)

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def _is_worker_death(self, exc: BaseException) -> bool:
        """Whether ``exc`` means the *worker* died rather than the batch."""
        from repro.shard.pipeline import StageDiedError

        return isinstance(exc, StageDiedError)

    def _is_corruption(self, exc: BaseException) -> bool:
        """Whether ``exc`` is a transport-integrity (CRC) failure.

        Corruption means the *payload* went bad in flight, not the worker:
        the batch is re-dispatched but nothing is killed or respawned.
        """
        from repro.shard.pipeline import StageCorruptionError

        return isinstance(exc, (IntegrityError, StageCorruptionError))

    def _note_worker_death(self, state: WorkerState, exc: BaseException,
                           kill: bool = False) -> None:
        """Mark a worker dead once and kick off its background recovery.

        ``kill=True`` (hung workers: dispatch timeouts, heartbeat trips)
        SIGKILLs the worker's processes before teardown — a wedged process
        never exits on its own, and an orderly close would wait on it.
        """
        if not state.alive or self._stopping:
            return
        state.alive = False
        self.metrics.count("worker_deaths")
        self.tracer.event("worker_death", worker=state.index,
                          mode=state.mode, error=repr(exc))
        if self._degraded_since is None:
            self._degraded_since = asyncio.get_running_loop().time()
        dead = self._workers[state.index]
        task = asyncio.create_task(
            self._recover_worker(state.index, dead, kill_first=kill),
            name=f"serve-respawn-{state.index}")
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    async def _recover_worker(self, index: int, dead_worker,
                              kill_first: bool = False) -> None:
        """Release a dead worker's resources and (optionally) respawn it.

        Closing the dead worker first unlinks its shared-memory segments
        even mid-crash (the parent owns them).  A process worker's
        replacement runs the stage payloads already in memory, so respawn
        never recompiles.

        Respawn attempts retry with exponential backoff (seeded jitter)
        up to ``max_respawn_failures`` times; exhausting them opens this
        slot's circuit breaker — capacity stays degraded and no further
        respawns are attempted for the slot, so a poisoned spawn path
        (e.g. an injected ``respawn`` crash) cannot spin hot.
        """
        if kill_first:
            try:
                await asyncio.to_thread(dead_worker.kill)
            except Exception:  # noqa: BLE001 — already half-dead
                pass
        try:
            await dead_worker.close()
        except Exception:  # noqa: BLE001 — it is already dead
            pass
        if not self.config.respawn or self._stopping:
            return
        if index in self._respawn_breaker_open:
            return
        config = self.config
        failures = 0
        while not self._stopping:
            try:
                if self._injector is not None:
                    self._injector.fire("respawn")
                worker = await self._build_worker()
                break
            except Exception as exc:  # noqa: BLE001 — count and back off
                failures += 1
                self.metrics.count("respawn_failures")
                self.tracer.event("respawn_failure", worker=index,
                                  attempt=failures, error=repr(exc))
                if failures >= config.max_respawn_failures:
                    self._respawn_breaker_open.add(index)
                    self.metrics.count("breaker_trips")
                    self.tracer.event("respawn_breaker_open", worker=index)
                    warnings.warn(
                        f"worker {index} respawn failed {failures} times "
                        f"(last: {exc!r}); circuit breaker open, pool "
                        "capacity stays degraded",
                        RuntimeWarning, stacklevel=2)
                    return
                wait_s = min(
                    config.respawn_backoff_base_s * (2.0 ** (failures - 1)),
                    RESPAWN_BACKOFF_MAX_S)
                wait_s *= 1.0 + 0.25 * self._backoff_rng.random()
                if wait_s > 0:
                    self.metrics.count("backoff_waits")
                    self.metrics.count("backoff_total_s", wait_s)
                    await asyncio.sleep(wait_s)
        else:
            return
        if self._stopping:
            await worker.close()
            return
        self._workers[index] = worker
        self._worker_states[index].alive = True
        self.metrics.count("respawns")
        self.tracer.event("worker_respawn", worker=index)
        if self._degraded_since is not None and self.pool_recovered():
            loop = asyncio.get_running_loop()
            self.metrics.record_recovery(loop.time() - self._degraded_since)
            self._degraded_since = None

    async def _watchdog_loop(self) -> None:
        """Trip hung workers whose heartbeat counters stop advancing.

        Each process/pipeline worker runs a beat thread bumping a counter
        in a parent-owned shm ring.  This loop samples every alive
        worker's counters; when none of them changed for
        ``heartbeat_timeout_s`` the process is frozen at the OS level
        (SIGSTOP, pathological GC, a crashed beat thread) and is killed
        and respawned.  An injected ``hang`` (a sleeping forward) keeps
        beating — the *dispatch deadline* owns that case; the watchdog
        owns true freezes that a deadline alone cannot distinguish from
        slow work.
        """
        timeout_s = self.config.heartbeat_timeout_s
        interval = max(self.config.heartbeat_interval_s, 0.01)
        while not self._stopping:
            await asyncio.sleep(interval)
            if self._stopping or not self._started:
                return
            loop = asyncio.get_running_loop()
            now = loop.time()
            for state in list(self._worker_states):
                if not state.alive:
                    self._heartbeat_seen.pop(state.index, None)
                    continue
                worker = self._workers[state.index]
                counts = worker.heartbeat_counts()
                if counts is None:
                    continue  # ring degraded at spawn: watchdog blind here
                seen = self._heartbeat_seen.get(state.index)
                if (seen is None or seen[0] is not worker
                        or seen[1] != counts):
                    self._heartbeat_seen[state.index] = (worker, counts, now)
                    continue
                if now - seen[2] >= timeout_s:
                    self._heartbeat_seen.pop(state.index, None)
                    self.metrics.count("heartbeat_trips")
                    self._timeout_times.append(now)
                    self.tracer.event("heartbeat_trip", worker=state.index,
                                      mode=state.mode,
                                      stalled_s=round(now - seen[2], 3))
                    self._note_worker_death(
                        state,
                        WorkerHungError(
                            f"worker {state.index} heartbeat stalled for "
                            f"{now - seen[2]:.2f}s"),
                        kill=True)

    def _shedding_now(self, now: float) -> Optional[str]:
        """The active degradation reason, or None when admitting normally.

        Sheds when the alive fraction of the pool dropped below
        ``shed_alive_fraction`` or when ``shed_timeout_threshold`` dispatch
        timeouts / heartbeat trips landed inside the sliding
        ``shed_timeout_window_s``.
        """
        config = self.config
        states = self._worker_states
        if config.shed_alive_fraction is not None and states:
            alive = sum(1 for s in states if s.alive)
            if alive / len(states) < config.shed_alive_fraction:
                return (f"alive fraction {alive}/{len(states)} below "
                        f"{config.shed_alive_fraction}")
        if config.shed_timeout_threshold is not None:
            horizon = now - config.shed_timeout_window_s
            times = self._timeout_times
            while times and times[0] < horizon:
                times.popleft()
            if len(times) >= config.shed_timeout_threshold:
                return (f"{len(times)} timeouts in the last "
                        f"{config.shed_timeout_window_s}s")
        return None

    def fault_report(self) -> Dict[str, Dict[str, int]]:
        """Parent-side injected-fault fire counts per site and action.

        Live while serving; after :meth:`stop` the final counts survive
        (worker-process counts never leave their processes).  Empty when
        no faults are configured.
        """
        if self._injector is not None:
            return self._injector.report()
        return dict(self._fault_report)

    async def _place_batch(self, rows: int) -> WorkerState:
        """Select a worker, waiting out a total loss of capacity.

        When every worker is dead but a respawn is pending, placement
        waits (bounded by ``recovery_wait_s``) instead of failing the
        batch — the kill-storm contract is zero client-visible failures
        as long as the pool can recover.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.recovery_wait_s
        while True:
            try:
                return self._scheduler.select(rows)
            except NoAliveWorkersError:
                if (self._stopping or not self._respawn_tasks
                        or loop.time() >= deadline):
                    raise
                await asyncio.sleep(0.005)

    async def _redispatch(self, batch: List[Request], retries: int) -> None:
        """Re-queue a dead worker's batch onto a surviving replica.

        The retried batch re-enters placement exactly like a fresh one
        (occupancy booked on the new worker); on analog backends it will
        draw fresh noise there — see the module docstring and
        ``retry_policy``.
        """
        rows = sum(request.rows for request in batch)
        estimate = rows * (self._conversions_per_sample or 0)
        worker = await self._place_batch(rows)
        worker.accelerator.begin_inference(estimate)
        self.metrics.count("retried_batches")
        primary = self._batch_primary_trace(batch)
        self.tracer.event(
            "retry", trace_id=primary.trace_id if primary else None,
            worker=worker.index, attempt=retries, rows=rows)
        await self._worker_queues[worker.index].put((batch, estimate, retries))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def worker_snapshots(self) -> List[WorkerSnapshot]:
        """Per-worker load and occupancy summaries."""
        return [
            WorkerSnapshot(
                index=state.index,
                batches=state.assigned_batches,
                rows=state.assigned_rows,
                conversions=state.accelerator.completed_conversions,
                busy_seconds=state.accelerator.busy_seconds,
                mode=state.mode,
                transport_s=state.transport_s,
                alive=state.alive,
                stages=tuple(
                    StageOccupancy(
                        index=int(stage.get("stage", 0)),
                        layer_start=int(stage.get("layers", (0, 0))[0]),
                        layer_stop=int(stage.get("layers", (0, 0))[1]),
                        batches=int(stage.get("batches", 0)),
                        busy_s=float(stage.get("forward_s", 0.0)),
                        bubble_s=float(stage.get("bubble_s", 0.0)),
                        transport_s=float(stage.get("transport_s", 0.0)),
                        conversions=int(stage.get("conversions", 0)),
                    )
                    for stage in state.stage_stats
                ),
            )
            for state in self._worker_states
        ]

    def shm_segment_names(self) -> List[str]:
        """Shared-memory segments currently owned by the workers.

        Used by the leak tests: every listed name must be gone from the
        system after :meth:`stop` / the workers' ``close``.
        """
        return [name for worker in self._workers
                for name in worker.segment_names]

    def process_worker_pids(self) -> Dict[int, List[int]]:
        """PIDs of the live worker processes, keyed by worker index.

        Process and pipeline workers report every live stage process (one
        for a process worker).  Thread workers (and dead workers) are
        absent.  This is what the kill-storm loadgen scenario
        and the chaos tests aim their SIGKILLs at.
        """
        pids: Dict[int, List[int]] = {}
        for state in self._worker_states:
            live = self._workers[state.index].pids() if state.alive else []
            if live:
                pids[state.index] = live
        return pids

    def alive_worker_count(self) -> int:
        """Workers currently accepting placements."""
        return sum(1 for state in self._worker_states if state.alive)

    def transport_counters(self) -> Dict[str, int]:
        """Summed parent-side shm traffic across the live workers.

        Requests count the batches the service wrote into the workers'
        first rings; responses count the logits it copied out of their
        last rings.  Thread workers and rings not yet built (before a
        worker's first batch) contribute zeros; the exposition reports
        the totals as ``shm_*`` gauges.
        """
        totals = dict.fromkeys(TRANSPORT_COUNTERS, 0)
        for worker in self._workers:
            for key, value in worker.transport_counters().items():
                totals[key] += int(value)
        return totals

    def pool_recovered(self) -> bool:
        """Whether every worker slot is alive again."""
        return self._started and all(
            state.alive for state in self._worker_states)

    async def stage_profiles(self) -> List[Dict[str, float]]:
        """Per-worker plan-stage (DAC/crossbar/ADC/digital) breakdowns.

        Collect before :meth:`stop` — thread workers read their runner's
        plan directly, process and pipeline workers report the breakdown
        their stages shipped with the latest completed batch.
        """
        return [await worker.stage_profile() for worker in self._workers]

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Freeze the service metrics (latency, batching, energy, workers)."""
        if self._plan_cache is not None:
            self.metrics.counts.update(plan_cache_hits=self._plan_cache.hits,
                                       plan_cache_misses=self._plan_cache.misses)
        return self.metrics.snapshot(self.worker_snapshots())


def serve_requests(model: Model, images: np.ndarray,
                   config: Optional[ServeConfig] = None
                   ) -> Tuple[np.ndarray, MetricsSnapshot]:
    """Serve every sample of ``images`` as its own request, synchronously.

    Convenience wrapper for tests and benchmarks: starts a service, submits
    all samples up front (so the batcher sees the full queue), awaits every
    response, drains and returns ``(logits, metrics_snapshot)`` with logits
    in submission order.
    """

    async def _run() -> Tuple[np.ndarray, MetricsSnapshot]:
        service = InferenceService(model, config)
        await service.start()
        try:
            logits = await service.submit_many(images)
            snapshot = service.metrics_snapshot()
        finally:
            await service.stop()
        return logits, snapshot

    return asyncio.run(_run())
