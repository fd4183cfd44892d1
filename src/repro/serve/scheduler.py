"""The multi-macro scheduler: place batches on a pool of serving workers.

Each worker owns one model replica, one prepared execution backend and one
:class:`~repro.core.accelerator.AFPRAccelerator` acting as its occupancy
ledger (``macros_per_worker`` macros of modelled analog hardware).  The
scheduler's only job is placement: given the next batch, pick the worker it
runs on.  It cycles round-robin over the alive workers, which balances a
pool of identical replicas fed uniform batches.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.accelerator import AFPRAccelerator
from repro.core.config import MacroConfig


class NoAliveWorkersError(RuntimeError):
    """Raised by :meth:`Scheduler.select` when every worker is dead.

    The service treats this as a *transient* condition while a respawn is
    pending, and only fails batches once the recovery wait budget is
    exhausted.
    """


@dataclasses.dataclass
class WorkerState:
    """Scheduling-relevant state of one serving worker.

    ``mode`` records the execution substrate the worker dispatches to —
    ``"thread"`` for the in-loop replicas sharing the service process,
    ``"process"`` for a dedicated interpreter on its own core running a
    shipped execution plan, ``"pipeline"`` for a replica sharded across a
    chain of stage processes (:mod:`repro.shard`).  Placement treats them
    identically; the tag and the per-stage occupancy flow into the
    per-worker metrics snapshots.

    ``alive`` gates placement: a worker whose process died is skipped
    until its respawn completes.
    """

    index: int
    accelerator: AFPRAccelerator
    assigned_rows: int = 0
    assigned_batches: int = 0
    mode: str = "thread"
    #: Placement eligibility: False while the worker is dead.
    alive: bool = True
    #: Seconds spent moving batches to/from the worker (process transport);
    #: updated by the worker loop so snapshots survive worker shutdown.
    transport_s: float = 0.0
    #: Per-pipeline-stage occupancy dicts (busy / bubble / transport /
    #: conversions) of a ``mode == "pipeline"`` worker; empty otherwise.
    #: Updated by the worker loop so snapshots survive worker shutdown.
    stage_stats: List[dict] = dataclasses.field(default_factory=list)


class Scheduler:
    """Round-robin placement over a fixed pool whose liveness changes.

    The service flips ``alive`` on death and respawn, so the eligible set
    is re-derived on every pick instead of cached.
    """

    def __init__(self, workers: List[WorkerState]) -> None:
        if not workers:
            raise ValueError("scheduler needs at least one worker")
        self.workers = workers
        self._next = 0

    def select(self, rows: int) -> WorkerState:
        """Pick the next alive worker for a batch of ``rows`` rows and book it."""
        pool = [worker for worker in self.workers if worker.alive]
        if not pool:
            raise NoAliveWorkersError(
                f"no alive workers among {len(self.workers)} (all dead)")
        worker = pool[self._next % len(pool)]
        self._next += 1
        worker.assigned_rows += rows
        worker.assigned_batches += 1
        return worker


def build_worker_states(num_workers: int, macro_config: Optional[MacroConfig] = None,
                        macros_per_worker: int = 8,
                        mode: str = "thread") -> List[WorkerState]:
    """Create one occupancy-tracking accelerator per worker."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    config = macro_config if macro_config is not None else MacroConfig()
    return [
        WorkerState(index=i, mode=mode,
                    accelerator=AFPRAccelerator(config, num_macros=macros_per_worker))
        for i in range(num_workers)
    ]
