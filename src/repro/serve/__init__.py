"""``repro.serve`` — the dynamic-batching inference service layer.

This package turns the execution engine (:mod:`repro.exec`) into a serving
system::

    requests -> queue -> DynamicBatcher -> Scheduler -> worker BatchRunner
                                                        (exec backend)

* :mod:`repro.serve.batcher` — request objects and the dynamic micro-batcher
  (flush on ``max_batch`` rows or ``max_wait_ms``, whichever first),
* :mod:`repro.serve.scheduler` — round-robin placement over
  occupancy-tracked :class:`~repro.core.accelerator.AFPRAccelerator`
  worker pools,
* :mod:`repro.serve.service` — the asyncio :class:`InferenceService`,
* :mod:`repro.serve.recovery` — the clock-free recovery policy behind it,
* :mod:`repro.serve.workers` — the ``Worker`` protocol and its substrates:
  in-loop threads, or shipped plans run by a :mod:`repro.shard` stage
  pipeline (one stage for ``workers="process"``, ``N`` for
  ``pipeline_stages=N``),
* :mod:`repro.serve.metrics` — latency percentiles, queue depth, batch-size
  histogram, throughput and energy-per-request,
* :mod:`repro.serve.loadgen` — seeded open-loop Poisson / bursty / uniform
  load generation,
* :mod:`repro.serve.energy` — conversion-count estimation behind the
  energy-per-request figure for digital backends,
* :mod:`repro.serve.cli` — the ``python -m repro serve`` / ``loadtest``
  subcommands.

Quickstart::

    from repro.serve import ServeConfig, serve_requests

    logits, metrics = serve_requests(model, images,
                                     ServeConfig(backend="ideal", max_batch=64))
    print(metrics.render())
"""

from repro.serve.batcher import DEFAULT_PRIORITY, DynamicBatcher, Request
from repro.serve.energy import estimate_conversions_per_sample
from repro.serve.loadgen import (
    ARRIVAL_PROCESSES,
    LoadResult,
    assign_priorities,
    bursty_arrivals,
    make_arrivals,
    poisson_arrivals,
    run_loadtest,
    run_open_loop,
    uniform_arrivals,
)
from repro.serve.metrics import (
    MetricsSnapshot,
    ServiceMetrics,
    StageOccupancy,
    WorkerSnapshot,
)
from repro.serve.scheduler import NoAliveWorkersError, Scheduler, WorkerState
from repro.serve.service import (
    InferenceService,
    ServeConfig,
    ServiceClosedError,
    ServiceDegradedError,
    ServiceOverloadedError,
    serve_requests,
)

__all__ = [
    "DEFAULT_PRIORITY",
    "DynamicBatcher",
    "Request",
    "estimate_conversions_per_sample",
    "ARRIVAL_PROCESSES",
    "LoadResult",
    "assign_priorities",
    "bursty_arrivals",
    "make_arrivals",
    "poisson_arrivals",
    "run_loadtest",
    "run_open_loop",
    "uniform_arrivals",
    "MetricsSnapshot",
    "ServiceMetrics",
    "StageOccupancy",
    "WorkerSnapshot",
    "NoAliveWorkersError",
    "Scheduler",
    "WorkerState",
    "InferenceService",
    "ServeConfig",
    "ServiceClosedError",
    "ServiceDegradedError",
    "ServiceOverloadedError",
    "serve_requests",
]
