"""The tracing core: spans, the service-side tracer, worker-side buffers.

One sampled request produces a *connected span tree* across every serving
layer::

    request                      (root; one per sampled request)
      queue_wait                 (submit -> batch formation)
      batch                      (formation -> results scattered)
        dispatch                 (placement -> worker.forward returned)
          worker_forward         (remote; process/thread worker plan forward)
            L0, L1, ...          (per mapped layer)
              dac / crossbar / adc
          stage_0, stage_1, ...  (remote; pipeline stage forwards)
            Lk ...

Two clock domains are involved.  The service side stamps spans with its own
``time.perf_counter``.  Workers and pipeline stages record their spans with
*their* ``perf_counter`` clocks into a :class:`PlanTraceBuffer` (activated
thread-locally around the forward, so the disabled path costs one
thread-local read per layer), ship them back piggybacked on the existing
result messages as tuples *relative to the forward start*, and the parent
re-anchors them inside the parent-observed dispatch window
(:meth:`Tracer.attach_remote`): the round-trip slack that is not accounted
for by the remote forwards is split evenly before/after, which keeps every
remote span nested inside its dispatch span without assuming the two
clocks share an epoch.

Per-layer converter spans are *duration-accurate aggregates*: the DAC /
crossbar / ADC child spans of a layer carry exactly the wall-clock the
layer's :class:`~repro.exec.plan.StageProfile` timers metered during that
forward, laid out sequentially from the layer start (the individual
conversions interleave far too finely to record one span each).  Summing
them therefore reproduces the profile breakdown — spans and ``--profile``
are one timing pathway.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

_trace_ids = itertools.count(1)
_span_ids = itertools.count(1)


@dataclasses.dataclass
class Span:
    """One timed operation in a trace tree (service-clock seconds)."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_s: float
    end_s: Optional[float] = None
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span duration (0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return max(self.end_s - self.start_s, 0.0)


@dataclasses.dataclass(frozen=True)
class SpanEvent:
    """An instant event (worker death, retry, ...), optionally trace-bound."""

    name: str
    timestamp_s: float
    trace_id: Optional[int] = None
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class RequestTrace:
    """The live per-request trace handle carried on a queued request."""

    trace_id: int
    root: Span
    queue_span: Optional[Span] = None
    #: Set on the batch-primary request once its batch is formed.
    batch_span: Optional[Span] = None


class Tracer:
    """Span collector of one :class:`~repro.serve.InferenceService`.

    All mutation happens on the event-loop thread (same contract as
    :class:`~repro.serve.metrics.ServiceMetrics`).  ``sample_rate`` is the
    per-request sampling probability (seeded, so runs are reproducible);
    ``0`` disables tracing entirely and reduces the per-request cost to a
    single attribute check.  The span store is bounded by ``max_spans`` —
    spans past the bound are counted in ``dropped_spans`` instead of
    growing without limit.
    """

    def __init__(self, sample_rate: float = 0.0, seed: int = 0,
                 max_spans: int = 200_000) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"trace sample rate must be within [0, 1], got {sample_rate}")
        self.sample_rate = float(sample_rate)
        self.enabled = self.sample_rate > 0.0
        self.max_spans = max(int(max_spans), 1)
        self.spans: List[Span] = []
        self.events: List[SpanEvent] = []
        self.dropped_spans = 0
        self.traced_requests = 0
        self._rng = random.Random(seed)

    # -- clock ----------------------------------------------------------
    @staticmethod
    def clock() -> float:
        """The tracer's clock (``perf_counter`` seconds)."""
        return time.perf_counter()

    # -- span lifecycle -------------------------------------------------
    def begin(self, name: str, *, category: str = "serve",
              trace_id: Optional[int] = None, parent: Optional[Span] = None,
              start_s: Optional[float] = None, **args) -> Span:
        """Open a span (new trace when ``trace_id`` and ``parent`` are None)."""
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else next(_trace_ids)
        return Span(
            trace_id=trace_id,
            span_id=next(_span_ids),
            parent_id=None if parent is None else parent.span_id,
            name=name,
            category=category,
            start_s=self.clock() if start_s is None else start_s,
            args=dict(args),
        )

    def end(self, span: Optional[Span], end_s: Optional[float] = None,
            **args) -> None:
        """Close a span and commit it to the store (idempotent)."""
        if span is None or span.end_s is not None:
            return
        span.end_s = self.clock() if end_s is None else end_s
        if args:
            span.args.update(args)
        self._store(span)

    def _store(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(span)

    def event(self, name: str, *, trace_id: Optional[int] = None,
              timestamp_s: Optional[float] = None, **args) -> None:
        """Record an instant event (no-op while tracing is disabled)."""
        if not self.enabled:
            return
        self.events.append(SpanEvent(
            name=name,
            timestamp_s=self.clock() if timestamp_s is None else timestamp_s,
            trace_id=trace_id,
            args=dict(args),
        ))

    # -- request sampling -----------------------------------------------
    def maybe_start_request(self, request_id: int, priority: str,
                            rows: int) -> Optional[RequestTrace]:
        """Sample one request; returns its trace handle or None.

        This is the per-request hot-path hook: with tracing disabled it is
        one attribute check, which is what the ``bench_obs`` disabled-
        overhead gate measures.
        """
        if not self.enabled:
            return None
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return None
        self.traced_requests += 1
        now = self.clock()
        root = self.begin("request", category="request", start_s=now,
                          request_id=request_id, priority=priority, rows=rows)
        queue_span = self.begin("queue_wait", category="queue",
                                trace_id=root.trace_id, parent=root,
                                start_s=now)
        return RequestTrace(trace_id=root.trace_id, root=root,
                            queue_span=queue_span)

    # -- remote span re-anchoring ---------------------------------------
    def attach_remote(self, remote: Sequence[Tuple], *, parent: Span,
                      start_s: float, end_s: float) -> List[Span]:
        """Re-anchor worker-clock spans inside a parent-observed window.

        ``remote`` is a list of ``(stage_index, forward_s, records)``
        tuples — one per remote forward, in execution order; ``records``
        are :class:`PlanTraceBuffer` tuples relative to that forward's
        start.  The stages are laid out sequentially, centred inside the
        ``[start_s, end_s]`` dispatch window: the slack the remote
        forwards do not account for (transport, queue hops) is split
        evenly before and after, so the tree stays connected without
        assuming worker clocks share the parent's epoch.
        """
        total_remote = sum(max(float(forward_s), 0.0)
                           for _, forward_s, _ in remote)
        window = max(end_s - start_s, 0.0)
        anchor = start_s + max(window - total_remote, 0.0) / 2.0
        created: List[Span] = []
        for stage_index, forward_s, records in remote:
            forward_s = max(float(forward_s), 0.0)
            name = ("worker_forward" if stage_index is None
                    else f"stage_{int(stage_index)}")
            stage_span = self.begin(name, category="worker",
                                    trace_id=parent.trace_id, parent=parent,
                                    start_s=anchor)
            if stage_index is not None:
                stage_span.args["stage"] = int(stage_index)
            self.end(stage_span, anchor + forward_s)
            created.append(stage_span)
            created.extend(self._attach_records(records, stage_span,
                                                anchor, forward_s))
            anchor += forward_s
        return created

    def _attach_records(self, records: Sequence[Tuple], root: Span,
                        anchor: float, forward_s: float) -> List[Span]:
        created: List[Span] = []
        for name, category, rel_start, rel_end, parent_index in records:
            rel_start = min(max(float(rel_start), 0.0), forward_s)
            rel_end = min(max(float(rel_end), rel_start), forward_s)
            parent = (root if parent_index < 0 or parent_index >= len(created)
                      else created[parent_index])
            span = self.begin(str(name), category=str(category),
                              trace_id=root.trace_id, parent=parent,
                              start_s=anchor + rel_start)
            self.end(span, anchor + rel_end)
            created.append(span)
        return created


# ----------------------------------------------------------------------
# Worker-side plan tracing
# ----------------------------------------------------------------------
class PlanTraceBuffer:
    """Per-forward span records, relative to the forward start.

    Records are plain tuples ``(name, category, start_rel_s, end_rel_s,
    parent_index)`` — picklable, tiny, and shipped back to the parent on
    the existing result messages.  ``parent_index`` refers to an earlier
    record in the same buffer; ``-1`` parents the record at the remote
    forward root.  :meth:`record_layer` is the hook
    :meth:`~repro.exec.plan.ModelPlan.forward` calls around each compiled
    mapped-layer op: one layer span plus sequential DAC / crossbar / ADC
    child spans carrying the profile deltas that layer's forward
    accumulated.
    """

    def __init__(self, t0: Optional[float] = None) -> None:
        self.t0 = time.perf_counter() if t0 is None else float(t0)
        self.records: List[Tuple[str, str, float, float, int]] = []

    def record(self, name: str, category: str, start: float, end: float,
               parent_index: int = -1) -> int:
        """Append one record (absolute perf_counter times); returns its index."""
        self.records.append((name, category, start - self.t0,
                             end - self.t0, parent_index))
        return len(self.records) - 1

    def record_layer(self, name: str, start: float, end: float,
                     dac_s: float = 0.0, crossbar_s: float = 0.0,
                     adc_s: float = 0.0) -> None:
        """One mapped-layer forward plus its converter-stage children.

        The children are duration-accurate aggregates of the layer's
        profile-timer deltas, laid out sequentially from the layer start
        and clamped into the layer span (see the module docstring).
        """
        layer_index = self.record(name, "layer", start, end)
        duration = max(end - start, 0.0)
        cursor = 0.0
        for stage, seconds in (("dac", dac_s), ("crossbar", crossbar_s),
                               ("adc", adc_s)):
            seconds = max(float(seconds), 0.0)
            if seconds <= 0.0:
                continue
            stop = min(cursor + seconds, duration)
            self.record(stage, stage, start + cursor, start + stop,
                        layer_index)
            cursor = stop


_active_buffer = threading.local()


def plan_trace_buffer() -> Optional[PlanTraceBuffer]:
    """The thread's active plan-trace buffer, or None (the fast path)."""
    return getattr(_active_buffer, "buffer", None)


@contextmanager
def plan_trace(buffer: PlanTraceBuffer) -> Iterator[PlanTraceBuffer]:
    """Activate ``buffer`` for plan-layer tracing on this thread."""
    previous = getattr(_active_buffer, "buffer", None)
    _active_buffer.buffer = buffer
    try:
        yield buffer
    finally:
        _active_buffer.buffer = previous


def validate_span_tree(spans: Sequence[Span]) -> Dict[int, Span]:
    """Check every trace in ``spans`` is one connected tree; return roots.

    Raises :class:`ValueError` on an orphan span (a ``parent_id`` that is
    not in the span set), on a trace with no root, or on more than one
    root per trace.  Returns ``{trace_id: root span}``.
    """
    by_id = {span.span_id: span for span in spans}
    roots: Dict[int, Span] = {}
    for span in spans:
        if span.parent_id is None:
            if span.trace_id in roots:
                raise ValueError(
                    f"trace {span.trace_id} has multiple roots "
                    f"({roots[span.trace_id].name!r} and {span.name!r})")
            roots[span.trace_id] = span
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            raise ValueError(
                f"orphan span {span.name!r} (id {span.span_id}) references "
                f"missing parent {span.parent_id}")
        if parent.trace_id != span.trace_id:
            raise ValueError(
                f"span {span.name!r} crosses traces: {span.trace_id} vs "
                f"parent's {parent.trace_id}")
    for span in spans:
        if span.trace_id not in roots:
            raise ValueError(f"trace {span.trace_id} has no root span")
    return roots
