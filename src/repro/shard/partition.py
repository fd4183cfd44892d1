"""Partition a compiled execution plan into pipeline stages.

The partitioner answers one question: *where to cut a plan's op program*
(see :class:`~repro.exec.plan.ModelPlan`) so that ``N`` pipeline stage
workers carry balanced work and no stage exceeds its crossbar budget.  A
stage is an op range of the program, and a cut may only fall where exactly
one tensor is live (:meth:`~repro.exec.plan.ModelPlan.cut_points` — never
inside a residual block), so the unit the cut balances is the *segment*
between two neighbouring cut points.  Inputs, per op:

* **cost** — measured when a probe batch is available: the plan is
  pickled, reloaded into a throwaway copy (so the probe forward cannot
  disturb the real plan's noise-generator streams) and each op is timed,
  exactly the wall-clock the ``--profile`` stage instrumentation meters.
  Without a probe batch the parameter count of each op's layer stands in
  as a static cost proxy (matmul-dominated networks scale with it).
* **macro count** — how many AFPR macros the op's mapped tiles occupy; the
  capacity constraint ``max_macros_per_stage`` bounds the sum per stage,
  which is what makes a model whose mapped tiles exceed one worker's
  crossbar budget runnable: cut it across stages until every stage fits.

The cut itself is a greedy balance over the segments: each stage takes
segments until it reaches its fair share of the remaining cost (stopping
early when adding the next segment would overshoot more than stopping
undershoots, or when the capacity bound would be exceeded), always leaving
at least one segment per remaining stage.  When greed paints itself into a
capacity corner, an exact dynamic program over the (small) boundary space
finds the minimum-bottleneck feasible cut instead, and
:class:`CapacityError` is raised only when no contiguous cut can satisfy
the budget.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exec.plan import ModelPlan


class PartitionError(ValueError):
    """Raised when a model cannot be cut into the requested stages."""


class CapacityError(PartitionError):
    """Raised when no contiguous cut satisfies the per-stage macro budget."""


def static_op_costs(plan: ModelPlan) -> List[float]:
    """Parameter-count cost proxy per op (min 1 per op)."""
    costs = []
    for op in plan.ops:
        layer = getattr(op, "layer", None)
        params = layer.parameters() if layer is not None else ()
        costs.append(float(max(sum(p.value.size for p in params), 1)))
    return costs


def probe_op_costs(plan_payload: bytes, probe: np.ndarray) -> List[float]:
    """Measure per-op forward seconds on a throwaway plan copy.

    ``plan_payload`` is a pickled :class:`~repro.exec.plan.ModelPlan`; the
    probe forward runs on the reloaded copy, so the caller's plan keeps its
    exact post-prepare state (noise-generator streams included) — the same
    reason the pipeline ships pickled stages instead of forked state.
    """
    plan = pickle.loads(plan_payload)
    x = np.asarray(probe, dtype=np.float64)
    stack: list = []
    costs: List[float] = []
    for op in plan.ops:
        start = time.perf_counter()
        x = op(x, stack)
        costs.append(time.perf_counter() - start)
    return costs


def _stage_loads(boundaries: Sequence[Tuple[int, int]],
                 values: Sequence[float]) -> List[float]:
    return [sum(values[start:stop]) for start, stop in boundaries]


def _capacity_dp(costs: Sequence[float], macros: Sequence[int],
                 num_stages: int, cap: int) -> Optional[List[Tuple[int, int]]]:
    """Minimum-bottleneck contiguous cut under the macro budget, or None."""
    n = len(costs)
    prefix_cost = np.concatenate([[0.0], np.cumsum(costs)])
    prefix_mac = np.concatenate([[0], np.cumsum(macros)])
    infeasible = float("inf")
    # best[s][i]: minimal max-stage-cost cutting units [0, i) into s stages.
    best = [[infeasible] * (n + 1) for _ in range(num_stages + 1)]
    cut = [[-1] * (n + 1) for _ in range(num_stages + 1)]
    best[0][0] = 0.0
    for s in range(1, num_stages + 1):
        for i in range(s, n + 1):
            for j in range(s - 1, i):
                if prefix_mac[i] - prefix_mac[j] > cap:
                    continue
                if best[s - 1][j] == infeasible:
                    continue
                candidate = max(best[s - 1][j],
                                float(prefix_cost[i] - prefix_cost[j]))
                if candidate < best[s][i]:
                    best[s][i] = candidate
                    cut[s][i] = j
    if best[num_stages][n] == infeasible:
        return None
    boundaries: List[Tuple[int, int]] = []
    stop = n
    for s in range(num_stages, 0, -1):
        start = cut[s][stop]
        boundaries.append((start, stop))
        stop = start
    return boundaries[::-1]


def plan_partition(costs: Sequence[float], macros: Sequence[int],
                   num_stages: int,
                   max_macros_per_stage: Optional[int] = None
                   ) -> List[Tuple[int, int]]:
    """Greedy cost-balanced contiguous cut of a list of units into stages.

    ``costs`` and ``macros`` give each unit's load (the plan's segments
    between cut points, see :func:`build_stage_payloads`).  Returns
    ``num_stages`` ``(start, stop)`` unit ranges.  Deterministic for
    identical inputs.  Raises :class:`PartitionError` when there are fewer
    units than stages and :class:`CapacityError` when the macro budget
    cannot be met by any contiguous cut.
    """
    n = len(costs)
    if len(macros) != n:
        raise ValueError("costs and macros must align per unit")
    if num_stages < 1:
        raise PartitionError("num_stages must be >= 1")
    if num_stages > n:
        raise PartitionError(
            f"cannot cut {n} segments into {num_stages} stages"
        )
    cap = max_macros_per_stage
    if cap is not None:
        if cap < 1:
            raise CapacityError("max_macros_per_stage must be >= 1")
        worst = max(macros)
        if worst > cap:
            index = list(macros).index(worst)
            raise CapacityError(
                f"segment {index} alone occupies {worst} macros, exceeding "
                f"the {cap}-macro stage budget — no cut point splits it"
            )
        if sum(macros) > cap * num_stages:
            raise CapacityError(
                f"{sum(macros)} mapped macros exceed {num_stages} stages x "
                f"{cap}-macro budget; raise pipeline_stages (needs >= "
                f"{-(-sum(macros) // cap)})"
            )
    boundaries: List[Tuple[int, int]] = []
    start = 0
    remaining_cost = float(sum(costs))
    for stage in range(num_stages):
        stages_left = num_stages - stage
        if stages_left == 1:
            stop = n
        else:
            max_stop = n - (stages_left - 1)
            target = remaining_cost / stages_left
            stop = start + 1
            acc = float(costs[start])
            mac = int(macros[start])
            while stop < max_stop:
                cost, mac_next = float(costs[stop]), int(macros[stop])
                if cap is not None and mac + mac_next > cap:
                    break
                if acc >= target:
                    break
                if acc + cost - target > target - acc:
                    break  # overshooting hurts balance more than stopping
                acc += cost
                mac += mac_next
                stop += 1
        boundaries.append((start, stop))
        remaining_cost -= float(sum(costs[start:stop]))
        start = stop
    if cap is not None and max(_stage_loads(boundaries, macros)) > cap:
        # Greedy balance ran a stage over budget (typically the tail);
        # fall back to the exact minimum-bottleneck feasible cut.
        feasible = _capacity_dp(costs, macros, num_stages, cap)
        if feasible is None:
            raise CapacityError(
                f"no contiguous {num_stages}-stage cut keeps every stage "
                f"within the {cap}-macro budget"
            )
        boundaries = feasible
    return boundaries


@dataclasses.dataclass(frozen=True)
class StagePartition:
    """One resolved pipeline partition, ready to ship to stage workers."""

    #: ``(start, stop)`` op range per stage.
    boundaries: List[Tuple[int, int]]
    #: Per-op cost the cut balanced (seconds or proxy units).
    op_costs: List[float]
    #: Per-op macro counts the capacity bound consumed.
    op_macros: List[int]
    #: Whether ``op_costs`` was measured (probe) or a static proxy.
    measured: bool
    #: Pickled stage plan (:meth:`~repro.exec.plan.ModelPlan.stage`) per stage.
    payloads: List[bytes]

    @property
    def num_stages(self) -> int:
        """Number of pipeline stages in the partition."""
        return len(self.boundaries)

    def stage_costs(self) -> List[float]:
        """Summed op cost per stage (what the greedy cut balanced)."""
        return _stage_loads(self.boundaries, self.op_costs)

    def stage_macros(self) -> List[int]:
        """Summed macro count per stage (the capacity the budget bounds)."""
        return [int(load) for load in _stage_loads(self.boundaries,
                                                   self.op_macros)]

    def describe(self) -> str:
        """One line per stage: op range, cost share and macro count."""
        total = sum(self.op_costs) or 1.0
        unit = "measured" if self.measured else "parameter-proxy"
        lines = [f"Pipeline partition ({self.num_stages} stages, {unit} cost):"]
        for index, ((start, stop), cost, macs) in enumerate(
                zip(self.boundaries, self.stage_costs(), self.stage_macros())):
            lines.append(
                f"  stage {index}: ops {start}..{stop - 1}  "
                f"cost {100.0 * cost / total:5.1f} %  macros {macs}"
            )
        return "\n".join(lines)


def build_stage_payloads(plan: ModelPlan, num_stages: int,
                         probe: Optional[np.ndarray] = None,
                         max_macros_per_stage: Optional[int] = None
                         ) -> StagePartition:
    """Cut a prepared plan into ``num_stages`` pickled stage payloads.

    Call with the plan freshly prepared (before any forward): the stage
    payloads snapshot the ops' exact post-prepare state, which is what
    keeps pipelined execution bit-identical to running the uncut plan on
    one worker.  The parent may ``plan.close()`` once the payloads exist.
    One stage has nothing to balance, so it runs no probe forward.
    """
    measured = probe is not None and num_stages > 1
    if measured:
        costs = probe_op_costs(pickle.dumps(plan), probe)
    else:
        costs = static_op_costs(plan)
    macros = plan.op_macros()
    cuts = plan.cut_points()
    segments = list(zip(cuts, cuts[1:]))
    chosen = plan_partition(_stage_loads(segments, costs),
                            _stage_loads(segments, macros), num_stages,
                            max_macros_per_stage=max_macros_per_stage)
    boundaries = [(segments[start][0], segments[stop - 1][1])
                  for start, stop in chosen]
    payloads = [pickle.dumps(plan.stage(start, stop))
                for start, stop in boundaries]
    return StagePartition(boundaries=boundaries, op_costs=costs,
                          op_macros=macros, measured=measured,
                          payloads=payloads)
