"""Per-layer ledger: turn recorded span trees into per-layer metrics.

Spans come from the program's own tracing: ``plan_trace`` records one
``L<i>`` span per mapped layer with ``dac`` / ``crossbar`` / ``adc``
children, and a traced service records ``queue_wait`` / ``dispatch`` /
``worker_forward`` spans per request or batch.
"""

from __future__ import annotations

import collections
from typing import Dict, Sequence, Tuple

from host import bare_matmul_ms
from measure import median, self_time, spans_by_parent

#: Layers the ledger reports (ResNet-lite maps ten matmul layers).
LEDGER_LAYERS = 10
STAGES = ("dac", "crossbar", "adc")


def layer_metrics(spans, shapes: Sequence[Tuple[int, int, int]],
                  batch_rows: int) -> Dict[str, float]:
    """``exec.L<i>.{ms,dac_ms,crossbar_ms,adc_ms,vs_matmul}`` medians.

    ``shapes`` are the per-sample GEMM shapes of the matmul layers (see
    :func:`host.layer_shapes`); ``vs_matmul`` divides the layer's median
    time by a bare same-shape float64 matmul at ``batch_rows`` samples,
    timed in this process.
    """
    children = spans_by_parent(spans)
    layer_ms = collections.defaultdict(list)
    stage_ms = collections.defaultdict(list)
    for span in spans:
        if span.category != "layer":
            continue
        layer_ms[span.name].append(span.duration_s * 1e3)
        per_stage = dict.fromkeys(STAGES, 0.0)
        for child in children.get(span.span_id, ()):
            if child.name in per_stage:
                per_stage[child.name] += child.duration_s * 1e3
        for stage, value in per_stage.items():
            stage_ms[(span.name, stage)].append(value)
    metrics: Dict[str, float] = {}
    for index, (rows, inputs, outputs) in enumerate(shapes):
        name = f"L{index}"
        if name not in layer_ms:
            raise RuntimeError(f"traced pass recorded no {name} spans")
        ms = median(layer_ms[name])
        metrics[f"exec.{name}.ms"] = ms
        for stage in STAGES:
            metrics[f"exec.{name}.{stage}_ms"] = median(stage_ms[(name, stage)])
        metrics[f"exec.{name}.vs_matmul"] = ms / bare_matmul_ms(
            rows * max(batch_rows, 1), inputs, outputs)
    return metrics


def serve_span_metrics(spans) -> Dict[str, float]:
    """Median queue wait, worker forward and dispatch overhead (ms)."""
    children = spans_by_parent(spans)
    queue, forward, overhead = [], [], []
    for span in spans:
        if span.name == "queue_wait":
            queue.append(span.duration_s * 1e3)
        elif span.name == "worker_forward":
            forward.append(span.duration_s * 1e3)
        elif span.name == "dispatch" and span.end_s is not None:
            kids = [(c.start_s, c.end_s) for c in children.get(span.span_id, ())
                    if c.end_s is not None]
            overhead.append(self_time(span.start_s, span.end_s, kids) * 1e3)
    return {
        "serve.queue_wait_ms": median(queue),
        "serve.worker_forward_ms": median(forward),
        "serve.dispatch_overhead_ms": median(overhead),
    }


def stage_metrics(profile: Dict[str, float]) -> Dict[str, float]:
    """Per-batch DAC / crossbar / ADC / digital ms from a stage profile."""
    forwards = max(profile.get("forwards", 0.0), 1.0)
    return {f"exec.{stage}_ms": profile[f"{stage}_s"] * 1e3 / forwards
            for stage in ("dac", "crossbar", "adc", "digital")}


def profile_delta(after: Dict[str, float], before: Dict[str, float]
                  ) -> Dict[str, float]:
    """Element-wise difference of two cumulative stage profiles."""
    return {key: after[key] - before.get(key, 0.0) for key in after}
