"""``repro.shard`` — pipeline-parallel sharded execution of compiled plans.

PRs 1-4 made a single worker fast (compiled plans, code-domain kernels,
shared-memory process serving); this package scales *out*: a compiled
:class:`~repro.exec.plan.ModelPlan`'s op program is cut into op ranges
(one per stage), each stage runs in its own process worker, and
micro-batches stream between stages over per-edge shared-memory slot
rings::

    model -> ModelPlan -> partition (greedy cost balance + macro budget)
          -> [stage 0 plan | stage 1 plan | ... | stage N-1 plan]
          -> ShardedPipeline: parent ==ring==> P0 ==ring==> P1 ... ==ring==> parent

* :mod:`repro.shard.partition` — measure per-op cost (probe forward on a
  pickled plan copy) and cut the op program greedily, only where one
  tensor is live, under a per-stage crossbar (macro) budget; produces
  pickled stage payloads.
* :mod:`repro.shard.pipeline` — the stage-process executor with
  backpressured shared-memory edges, per-stage occupancy / bubble /
  transport accounting and crash-safe segment unlinking.

Pipelined execution is bit-identical to running the same plan on one
worker: stages snapshot the plan's exact post-prepare state (macro
generator streams included) and FIFO edges preserve batch order, so every
macro sees the same batches in the same order as the uncut plan.

Serving integration: ``ServeConfig(pipeline_stages=N)`` (see
:mod:`repro.serve.service`) builds one pipeline per worker replica;
``python -m repro run|serve|loadtest --pipeline-stages N`` from the shell.

Quickstart::

    from repro.shard import run_pipelined

    report = run_pipelined(model, images, backend="analog", num_stages=2,
                           calibration=images[:16])
    print(report.render())
"""

import dataclasses
import time
from typing import Dict, List, Optional

import numpy as np

from repro.exec.backend import ExecutionContext
from repro.exec.engine import BatchRunner
from repro.shard.partition import (
    CapacityError,
    PartitionError,
    StagePartition,
    build_stage_payloads,
    plan_partition,
    probe_op_costs,
    static_op_costs,
)
from repro.shard.pipeline import (
    PipelineStageError,
    ShardedPipeline,
    StageDiedError,
)


@dataclasses.dataclass
class PipelinedReport:
    """Outcome of one :func:`run_pipelined` execution."""

    backend: str
    logits: np.ndarray
    samples: int
    wall_time_s: float
    prepare_time_s: float
    num_stages: int
    partition: StagePartition
    stage_stats: List[Dict]
    conversions: int = 0

    @property
    def samples_per_second(self) -> float:
        """Steady-state pipelined inference throughput."""
        if self.wall_time_s <= 0:
            return float("inf")
        return self.samples / self.wall_time_s

    def render(self) -> str:
        """Throughput line, the partition table and per-stage occupancy."""
        lines = [
            f"Pipelined {self.backend}: {self.samples} samples through "
            f"{self.num_stages} stages in {self.wall_time_s * 1e3:.1f} ms "
            f"({self.samples_per_second:.1f} samples/s), "
            f"prepare {self.prepare_time_s * 1e3:.1f} ms, "
            f"{self.conversions} conversions",
            self.partition.describe(),
        ]
        for stage in self.stage_stats:
            lines.append(
                f"  stage {stage['stage']}: {stage['batches']} batches, "
                f"busy {stage['forward_s'] * 1e3:.1f} ms, "
                f"bubble {stage['bubble_s'] * 1e3:.1f} ms, "
                f"transport {stage['transport_s'] * 1e3:.1f} ms, "
                f"BLAS threads {stage.get('blas_threads')}"
            )
        return "\n".join(lines)


def run_pipelined(model, images: np.ndarray, backend="ideal",
                  context: Optional[ExecutionContext] = None,
                  num_stages: int = 2,
                  probe: Optional[np.ndarray] = None,
                  max_macros_per_stage: Optional[int] = None,
                  slots: int = 2,
                  **context_overrides) -> PipelinedReport:
    """Run ``images`` through ``model`` on a sharded stage pipeline.

    Mirrors :func:`repro.exec.run_model`'s context handling: the backend is
    prepared and compiled exactly as a single-worker run would, the plan is
    cut into ``num_stages`` stage payloads (cost-balanced on a probe
    forward when ``probe`` — defaulting to ``context.calibration`` — is
    available, parameter-count proxy otherwise, capped at
    ``max_macros_per_stage`` macros per stage), and the evaluation batches
    stream through the stage processes.  Logits are bit-identical to the
    single-worker plan on every backend.
    """
    runner = BatchRunner(model, backend, context=context, **context_overrides)
    ctx = runner.context
    try:
        if probe is None:
            probe = ctx.calibration
        partition = build_stage_payloads(
            runner.plan, num_stages, probe=probe,
            max_macros_per_stage=max_macros_per_stage)
        backend_name = runner.backend.name
        prepare_time = runner.prepare_time_s
    finally:
        runner.close()

    images = np.asarray(images, dtype=np.float64)
    batch_size = max(int(ctx.batch_size), 1)
    pipeline = ShardedPipeline(partition.payloads, max_batch=batch_size,
                               slots=slots)
    pipeline.start()
    try:
        start = time.perf_counter()
        futures = [pipeline.submit(images[offset:offset + batch_size])
                   for offset in range(0, images.shape[0], batch_size)]
        outputs = [future.result() for future in futures]
        wall_time = time.perf_counter() - start
        stage_stats = pipeline.stage_stats()
    finally:
        pipeline.close()
    logits = (np.concatenate([logit for logit, _ in outputs], axis=0)
              if outputs else np.zeros((0, 0), dtype=np.float64))
    conversions = (sum(stage["conversions"] for stage in stage_stats)
                   if stage_stats else 0)
    return PipelinedReport(
        backend=backend_name,
        logits=logits,
        samples=int(images.shape[0]),
        wall_time_s=wall_time,
        prepare_time_s=prepare_time,
        num_stages=num_stages,
        partition=partition,
        stage_stats=stage_stats,
        conversions=conversions,
    )


__all__ = [
    "CapacityError",
    "PartitionError",
    "PipelineStageError",
    "PipelinedReport",
    "ShardedPipeline",
    "StageDiedError",
    "StagePartition",
    "build_stage_payloads",
    "plan_partition",
    "probe_op_costs",
    "run_pipelined",
    "static_op_costs",
]
