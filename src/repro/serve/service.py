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

Fault tolerance: the clock-free :class:`~repro.serve.recovery.RecoveryPolicy`
built per ``start()`` makes every recovery decision, and this module carries
the decisions out (kill, close, respawn, sleep, count, trace, resolve
futures).  A dead or hung worker is marked unplaceable, its batches
re-dispatch to surviving replicas, and it respawns from the stage payloads
already in memory (only a cold start reads the on-disk
:class:`~repro.exec.plan.PlanCache`).  A request-level error (a forward
exception) fails only its own batch.  A retried analog batch draws fresh
noise on its new replica, so runs that need bit identity even under faults
pin ``retry_policy="fail_fast"``.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import pickle
import warnings
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exec.backend import ExecutionBackend, ExecutionContext
from repro.exec.engine import BatchRunner
from repro.exec.plan import PlanCache, plan_fingerprint
from repro.exec.registry import create_backend
from repro.faults import injector as fault_injector
from repro.faults.injector import SITES, WORKER_SITES, FaultInjector, FaultSpec
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
from repro.serve.recovery import (
    CORRUPT,
    HEARTBEAT_INTERVAL_S,
    HUNG,
    REQUEST,
    RecoveryPolicy,
)
from repro.serve.scheduler import (
    NoAliveWorkersError,
    Scheduler,
    WorkerState,
    build_worker_states,
)
from repro.serve.workers import (
    TRANSPORT_COUNTERS,
    PipelineWorker,
    ThreadWorker,
    Worker,
)


#: Fault-rule checks: (the rule is invalid when, what is wrong and the fix).
FAULT_RULE_CHECKS = (
    (lambda rule, mode: rule.site not in SITES,
     "is not a known site; name one of " + ", ".join(SITES)),
    (lambda rule, mode: mode == "thread" and rule.site != "respawn",
     "never fires on thread workers (only 'respawn' does); serve with "
     "workers='process' to inject it"),
    (lambda rule, mode: mode == "process" and rule.site == "pipeline.edge.write",
     "fires only between pipeline stages; set pipeline_stages >= 2"),
    (lambda rule, mode: (rule.action == "crash" and rule.crash_mode == "exit"
                         and rule.site not in WORKER_SITES),
     "runs in the serving process, where crash_mode 'exit' would exit the "
     "service; use crash_mode 'raise', or exit at a worker-process site ("
     + ", ".join(WORKER_SITES) + ")"),
)


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

    The recovery fields (``retry_policy``, ``max_retries``, ``respawn``,
    the timeouts, the backoff base and the ``shed_*`` triggers) feed
    :class:`~repro.serve.recovery.RecoveryPolicy`, whose module also holds
    the fixed recovery constants: capacity wait, heartbeat period, respawn
    backoff and breaker.

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
        What happens to the batches of a worker that died or hung (never
        plain forward exceptions, which fail only their own batch):
        ``"redispatch"`` (default) re-queues them onto surviving replicas;
        ``"fail_fast"`` fails them at once, for runs that need bit identity
        even under faults (a retried analog batch draws fresh noise on its
        new replica).  Respawn restores capacity either way.
    max_retries:
        Re-dispatch attempts per batch that reached a worker; a batch still
        queued on a worker that died is placed again for free.
    respawn:
        Rebuild a dead worker in the background from the stage payloads
        already in memory (a respawn never recompiles).
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
        Per-dispatch deadline: a forward that exceeds it marks its worker
        *hung* (hard-killed, respawned, the batch re-dispatched like a
        death).  ``None`` (default) disables it.  The first batch per
        worker rides the warm-up path, so leave headroom.
    heartbeat_timeout_s:
        Enables the heartbeat watchdog: a process or pipeline worker whose
        shared-memory beat counters stall this long is hung even with no
        batch in flight (a frozen or SIGSTOPped process the dispatch
        deadline alone cannot see).  ``None`` (default) disables it.
    redispatch_backoff_base_s:
        Base of the exponential backoff (seeded jitter, capped) before
        each batch re-dispatch; ``0`` (default) re-dispatches at once.
    shm_integrity:
        CRC32 per shm slot (process-worker and pipeline stage rings),
        written into a slot header and checked on read; a mismatch
        re-dispatches the batch without killing the worker.  Off by
        default (no extra bytes or work on the hot path).
    shed_alive_fraction:
        Graceful degradation: shed while fewer than this fraction of the
        workers are alive.  Shedding rejects the laxest priority class
        (largest ``max_wait_ms``; the default class when none are
        configured) at admission with :class:`ServiceDegradedError`.
        ``None`` (default) disables this trigger.
    shed_timeout_threshold / shed_timeout_window_s:
        Second trigger: shed while at least this many timeouts landed in
        the trailing window; dispatch timeouts and heartbeat trips both
        count.  ``None`` disables it.
    faults:
        Optional :class:`repro.faults.FaultSpec` installing the
        deterministic chaos injector into this service and every worker
        process it spawns.  ``None`` (default; production) leaves every
        injection site a no-op.  A rule at a site the workers never reach,
        or a ``crash_mode="exit"`` outside a worker process, is rejected
        at construction (:data:`FAULT_RULE_CHECKS`).
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
    plan_cache: Optional[str] = None
    priority_classes: Optional[Dict[str, float]] = None
    dispatch_timeout_s: Optional[float] = None
    heartbeat_timeout_s: Optional[float] = None
    redispatch_backoff_base_s: float = 0.0
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
        for name, wait_ms in (self.config.priority_classes or {}).items():
            if wait_ms < 0:
                raise ValueError(
                    f"priority class {name!r} max_wait_ms must be >= 0")
        self._worker_mode = ("pipeline" if self.config.pipeline_stages > 1
                             else self.config.workers)
        for rule in (self.config.faults.rules if self.config.faults else ()):
            for invalid, problem in FAULT_RULE_CHECKS:
                if invalid(rule, self._worker_mode):
                    raise ValueError(f"fault site {rule.site!r} {problem}")
        # Validates the recovery fields; start() builds a fresh one per run.
        self._policy = RecoveryPolicy(self.config)
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
        self._plan_cache: Optional[PlanCache] = None
        self._payloads: Optional[List[bytes]] = None
        self._respawn_tasks: set = set()
        self._watchdog_task: Optional[asyncio.Task] = None
        self._signature: Optional[Tuple[int, ...]] = None
        self._injector: Optional[FaultInjector] = None
        self._fault_spec_dict = (self.config.faults.to_dict()
                                 if self.config.faults is not None else None)
        self._fault_report: Dict[str, Dict[str, int]] = {}

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
        self._policy = RecoveryPolicy(config)
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
        heartbeat = (HEARTBEAT_INTERVAL_S
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
            if self._watchdog_task is not None:
                self._watchdog_task.cancel()
                await asyncio.gather(self._watchdog_task,
                                     return_exceptions=True)
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
        if self._policy.sheds:
            reason = self._policy.shed_reason(
                priority, self.alive_worker_count(), len(self._worker_states),
                now)
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
                self._fail_batch([item], error)

    def _fail_batch(self, batch: List[Request], error: BaseException) -> None:
        """Fail every request of ``batch`` to its client, for good."""
        fail_requests(batch, error)
        self._finish_request_traces(batch, error=error)
        self._outstanding -= len(batch)

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
                    await self._place_batch(batch)
                except Exception as exc:  # noqa: BLE001 — fail, don't hang
                    self._fail_batch(batch, exc)
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
        except Exception as exc:  # noqa: BLE001 — classify, retry or fail
            # On Python 3.11+ asyncio.TimeoutError is the builtin one: a
            # blown dispatch deadline, i.e. a wedged worker that never raises.
            fault = self._policy.classify(
                exc, isinstance(exc, asyncio.TimeoutError), state.alive,
                self._stopping)
            state.accelerator.cancel_inference(estimate)
            if fault == HUNG:
                exc = WorkerHungError(
                    f"worker {state.index} exceeded its "
                    f"{self.config.dispatch_timeout_s}s dispatch deadline")
                self.metrics.count("dispatch_timeouts")
                self._policy.note_timeout(loop.time())
                self.tracer.event("dispatch_timeout", worker=state.index,
                                  mode=state.mode, attempt=retries)
            if dispatch_span is not None:
                self.tracer.end(dispatch_span, error=(
                    "dispatch_timeout" if fault == HUNG else repr(exc)))
            if fault == REQUEST:
                # Stacking errors, forward exceptions, a scatter row
                # mismatch: they would fail the same way on any replica,
                # and the worker survives any single bad batch.
                self._fail_batch(batch, exc)
                return
            if fault == CORRUPT:
                # Slot bit-rot on a healthy worker: nothing is killed.
                self.metrics.count("corruptions")
                self.tracer.event("slot_corruption", worker=state.index,
                                  mode=state.mode, attempt=retries,
                                  error=repr(exc))
            else:
                # A hung worker is hard-killed first: an orderly close
                # would wait on the wedged process.
                self._note_worker_death(state, exc, kill=fault == HUNG)
            await self._retry_or_fail(batch, retries, exc)

    async def _retry_or_fail(self, batch: List[Request], retries: int,
                             exc: BaseException,
                             reached_worker: bool = True) -> None:
        """Re-dispatch a faulted worker's batch as the policy decides
        (after its backoff wait), or fail it to its clients."""
        retry = self._policy.retry(retries, reached_worker, self._stopping)
        if retry is not None:
            if retry.wait_s > 0.0:
                self.tracer.event("redispatch_backoff", attempt=retry.attempt,
                                  wait_s=round(retry.wait_s, 6))
                await self._sleep_backoff(retry.wait_s)
            try:
                await self._place_batch(batch, retry=retry.attempt)
                return
            except Exception as redispatch_exc:  # noqa: BLE001
                exc = redispatch_exc
        self._fail_batch(batch, exc)

    async def _sleep_backoff(self, wait_s: float) -> None:
        self.metrics.count("backoff_waits")
        self.metrics.count("backoff_total_s", wait_s)
        await asyncio.sleep(wait_s)

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def _note_worker_death(self, state: WorkerState, exc: BaseException,
                           kill: bool = False) -> None:
        """Mark a worker dead once and start its background recovery;
        ``kill=True`` (a hung worker) SIGKILLs its processes first."""
        if not state.alive or self._stopping:
            return
        state.alive = False
        self.metrics.count("worker_deaths")
        self.tracer.event("worker_death", worker=state.index,
                          mode=state.mode, error=repr(exc))
        self._policy.worker_died(asyncio.get_running_loop().time())
        dead = self._workers[state.index]
        task = asyncio.create_task(
            self._recover_worker(state.index, dead, kill_first=kill),
            name=f"serve-respawn-{state.index}")
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    async def _recover_worker(self, index: int, dead_worker,
                              kill_first: bool = False) -> None:
        """Release a dead worker's resources and respawn it if allowed.

        Closing the dead worker first unlinks its shared-memory segments
        even mid-crash (the parent owns them).  Failed respawns back off
        until the policy opens the slot's breaker, so a poisoned spawn path
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
        while self._policy.may_respawn(index, self._stopping):
            try:
                if self._injector is not None:
                    self._injector.fire("respawn")
                worker = await self._build_worker()
                break
            except Exception as exc:  # noqa: BLE001 — count and back off
                failures, wait_s = self._policy.respawn_failed(index)
                self.metrics.count("respawn_failures")
                self.tracer.event("respawn_failure", worker=index,
                                  attempt=failures, error=repr(exc))
                if wait_s is None:
                    self.metrics.count("breaker_trips")
                    self.tracer.event("respawn_breaker_open", worker=index)
                    warnings.warn(
                        f"worker {index} respawn failed {failures} times "
                        f"(last: {exc!r}); circuit breaker open, pool "
                        "capacity stays degraded", RuntimeWarning)
                    return
                await self._sleep_backoff(wait_s)
        else:
            return
        if self._stopping:
            await worker.close()
            return
        self._workers[index] = worker
        self._worker_states[index].alive = True
        self.metrics.count("respawns")
        self.tracer.event("worker_respawn", worker=index)
        recovery_s = self._policy.respawned(
            index, asyncio.get_running_loop().time(), self.pool_recovered())
        if recovery_s is not None:
            self.metrics.record_recovery(recovery_s)

    async def _watchdog_loop(self) -> None:
        """Feed every worker's heartbeat counters to the policy each beat,
        and kill and respawn the workers it trips.

        A tripped worker is frozen at the OS level (SIGSTOP, a crashed beat
        thread).  An injected ``hang`` (a sleeping forward) keeps beating:
        the dispatch deadline owns that case.
        """
        while not self._stopping:
            await asyncio.sleep(HEARTBEAT_INTERVAL_S)
            if self._stopping or not self._started:
                return
            now = asyncio.get_running_loop().time()
            for state in list(self._worker_states):
                worker = self._workers[state.index]
                stalled_s = self._policy.heartbeat(
                    state.index, worker,
                    worker.heartbeat_counts() if state.alive else None, now)
                if stalled_s is None:
                    continue
                self.metrics.count("heartbeat_trips")
                self.tracer.event("heartbeat_trip", worker=state.index,
                                  mode=state.mode, stalled_s=round(stalled_s, 3))
                self._note_worker_death(
                    state,
                    WorkerHungError(f"worker {state.index} heartbeat stalled "
                                    f"for {stalled_s:.2f}s"),
                    kill=True)

    def fault_report(self) -> Dict[str, Dict[str, int]]:
        """Parent-side injected-fault fire counts per site and action.

        Live while serving; after :meth:`stop` the final counts survive
        (worker-process counts never leave their processes).  Empty when
        no faults are configured.
        """
        if self._injector is not None:
            return self._injector.report()
        return dict(self._fault_report)

    async def _place_batch(self, batch: List[Request],
                           retry: Optional[int] = None) -> None:
        """Book ``batch`` on a worker and queue it there.

        ``retry`` is a re-dispatch's attempt number (None for a fresh
        batch); a retried analog batch draws fresh noise on its new
        replica.  While no worker is alive but a respawn is pending,
        placement waits as long as the policy allows.
        """
        rows = sum(request.rows for request in batch)
        estimate = rows * (self._conversions_per_sample or 0)
        loop = asyncio.get_running_loop()
        start = loop.time()
        while True:
            try:
                worker = self._scheduler.select(rows)
                break
            except NoAliveWorkersError:
                if not self._policy.await_capacity(
                        loop.time() - start, bool(self._respawn_tasks),
                        self._stopping):
                    raise
                await asyncio.sleep(0.005)
        worker.accelerator.begin_inference(estimate)
        if retry is None:
            self.metrics.record_dispatch(self._queue.qsize())
        else:
            self.metrics.count("retried_batches")
            primary = self._batch_primary_trace(batch)
            self.tracer.event(
                "retry", trace_id=primary.trace_id if primary else None,
                worker=worker.index, attempt=retry, rows=rows)
        await self._worker_queues[worker.index].put(
            (batch, estimate, retry or 0))

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
        absent.  This is what the chaos tests aim their SIGKILLs and
        SIGSTOPs at.
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
