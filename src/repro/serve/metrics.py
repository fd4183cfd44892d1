"""The serving metrics core: latency percentiles, queue depth, batching,
throughput, energy-per-request and the fault-tolerance event counters.

Everything a load test needs to judge a serving configuration is collected
here, updated from the event loop only (no locks needed) and frozen into an
immutable :class:`MetricsSnapshot` on demand.

Every exported number is declared once, in :data:`METRICS`: its name, kind,
unit, help text and section.  The ASCII report (:meth:`MetricsSnapshot.render`),
the Prometheus text and the JSON document
(:mod:`repro.obs.exposition`) all iterate that table, so adding a metric
is one table entry plus the code that measures it.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
import types
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.power.efficiency import energy_per_request

COUNTER, GAUGE = "counter", "gauge"
QUANTILES = ("p50", "p95", "p99")


@dataclasses.dataclass(frozen=True)
class Metric:
    """One declared metric (see :data:`METRICS`).

    ``name`` is what the snapshot row holds it under (an event counter's
    key for :meth:`ServiceMetrics.count`); without its section prefix it
    is also the JSON key.  ``kind`` is ``"counter"`` or ``"gauge"``, or
    empty for a value only the JSON and the report carry.  ``section``
    is the JSON sub-object ("" is the top level) and the report line.
    ``family`` names the Prometheus family when it is not ``name``
    (plus ``_total`` for a counter); ``labels`` are the fixed labels that
    set this entry apart within a shared family.  ``report`` is the report
    text before the value (the JSON key with spaces by default).
    """

    name: str
    kind: str
    unit: str
    help: str
    section: str = ""
    family: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()
    report: Optional[str] = None

    @property
    def prometheus(self) -> str:
        """The Prometheus family, without the ``repro_serve_`` namespace."""
        if self.family:
            return self.family
        return self.name + "_total" if self.kind == COUNTER else self.name

    @property
    def key(self) -> str:
        """The JSON key inside its section."""
        return self.name.removeprefix(self.section + "_")

    @property
    def text(self) -> str:
        """The report text before the value."""
        return self.key.replace("_", " ") if self.report is None else self.report


def _family(family: str, unit: str, help: str, section: str, label: str,
            values: Sequence[str], name: str = "{}", report: str = "{}"
            ) -> Tuple[Metric, ...]:
    """One gauge family split by ``label``: an entry per label value."""
    return tuple(Metric(name.format(value), GAUGE, unit, help, section, family,
                        ((label, value),), report.format(value))
                 for value in values)


#: Every exported serving metric, in Prometheus order.  Rows of the
#: labelled sections (classes, workers and their stages, histogram
#: buckets) render row by row; see :meth:`MetricsSnapshot.sections`.
METRICS: Tuple[Metric, ...] = (
    Metric("requests", COUNTER, "requests", "Requests completed successfully."),
    Metric("samples", COUNTER, "rows", "Input rows served across all requests."),
    Metric("batches", COUNTER, "batches", "Batches executed by workers."),
    Metric("dropped", COUNTER, "requests",
           "Requests rejected by admission control."),
    Metric("worker_deaths", COUNTER, "workers",
           "Worker processes or pipeline stages found dead.", "fault_tolerance"),
    Metric("retried_batches", COUNTER, "batches",
           "Batches re-dispatched after a worker death.", "fault_tolerance",
           report="batches re-dispatched"),
    Metric("respawns", COUNTER, "workers",
           "Background worker respawns completed.", "fault_tolerance"),
    Metric("recovery_times_s", "", "s",
           "Per incident: first lost capacity to a fully-alive pool again.",
           "fault_tolerance", report="worst recovery"),
    Metric("dispatch_timeouts", COUNTER, "batches",
           "Batches that blew their dispatch deadline (hung worker).",
           "fault_tolerance"),
    Metric("heartbeat_trips", COUNTER, "workers",
           "Workers killed after their heartbeat counter stalled.",
           "fault_tolerance"),
    Metric("corruptions", COUNTER, "slots",
           "Shared-memory slots failing their CRC32 check.", "fault_tolerance",
           report="corrupt slots"),
    Metric("shed_requests", COUNTER, "requests",
           "Requests shed at admission under graceful degradation.",
           "fault_tolerance"),
    Metric("respawn_failures", COUNTER, "attempts",
           "Failed worker respawn attempts.", "fault_tolerance"),
    Metric("breaker_trips", COUNTER, "breakers",
           "Respawn circuit breakers opened.", "fault_tolerance"),
    Metric("backoff_waits", COUNTER, "waits",
           "Retry/respawn exponential-backoff waits taken.", "fault_tolerance"),
    Metric("backoff_total_s", COUNTER, "s",
           "Total seconds spent in retry/respawn backoff.", "fault_tolerance",
           "backoff_seconds_total", report="backoff"),
    Metric("plan_cache_hits", COUNTER, "lookups",
           "Compiled-plan cache hits at cold starts.", "plan_cache"),
    Metric("plan_cache_misses", COUNTER, "lookups",
           "Compiled-plan cache misses at cold starts.", "plan_cache"),
    Metric("conversions", COUNTER, "conversions",
           "Analog macro conversions spent (metered or estimated)."),
    Metric("conversions_estimated", "", "bool",
           "Whether conversions come from the mapping geometry, not a meter.",
           report="estimated"),
    Metric("throughput_rps", GAUGE, "req/s",
           "Completed requests per second of serving wall time.",
           report="throughput"),
    Metric("wall_time_s", GAUGE, "s",
           "Wall time from first arrival to last completion.",
           family="wall_time_seconds", report="wall time"),
    Metric("energy_per_request_j", GAUGE, "J",
           "Modelled conversion energy per request.",
           family="energy_per_request_joules", report="energy/request"),
    Metric("mean_batch_rows", GAUGE, "rows", "Mean rows per executed batch.",
           report="rows/batch"),
    *_family("queue_depth", "requests",
             "Request-queue depth sampled at arrivals and dispatches.",
             "queue_depth", "stat", ("max", "mean")),
    *_family("latency_ms", "ms", "End-to-end request latency percentiles (ms).",
             "latency_ms", "quantile", QUANTILES, report=""),
    Metric("requests", GAUGE, "requests",
           "Requests completed per priority class.", "class_latency_ms",
           "class_requests"),
    *_family("class_latency_ms", "ms",
             "Per-priority-class latency percentiles (ms).", "class_latency_ms",
             "quantile", QUANTILES, name="{}_ms"),
    Metric("batch_rows_bucket", COUNTER, "batches",
           "Cumulative batches with at most `le` rows.", "batch_histogram",
           "batch_rows_bucket"),
    Metric("batch_rows_sum", COUNTER, "rows",
           "Total rows across executed batches.", "batch_histogram",
           "batch_rows_sum"),
    Metric("batch_rows_count", COUNTER, "batches", "Total executed batches.",
           "batch_histogram", "batch_rows_count"),
    Metric("index", "", "", "Worker slot.", "workers"),
    Metric("mode", "", "", "Worker substrate: thread, process or pipeline.",
           "workers"),
    Metric("batches", COUNTER, "batches", "Batches served per worker.",
           "workers", "worker_batches_total"),
    Metric("rows", COUNTER, "rows", "Rows served per worker.", "workers",
           "worker_rows_total"),
    Metric("conversions", "", "conversions",
           "Macro conversions credited per worker.", "workers"),
    Metric("busy_seconds", COUNTER, "modelled s",
           "Modelled macro-pool busy seconds per worker (AFPR-CIM timing "
           "model, not wall clock).", "workers", "worker_busy_seconds",
           report="modelled busy"),
    Metric("transport_s", COUNTER, "s",
           "Seconds moving batches to/from the worker.", "workers",
           "worker_transport_seconds", report="transport"),
    Metric("alive", GAUGE, "bool", "1 while the worker substrate is alive.",
           "workers", "worker_alive"),
    Metric("index", "", "", "Pipeline stage.", "workers.stages"),
    Metric("layers", "", "ops", "The stage's [start, stop) op range.",
           "workers.stages"),
    Metric("batches", "", "batches", "Batches through the stage.",
           "workers.stages"),
    Metric("busy_s", COUNTER, "s", "Forward-compute seconds per pipeline stage.",
           "workers.stages", "stage_busy_seconds", report="busy"),
    Metric("bubble_s", COUNTER, "s",
           "Starved-for-input seconds per pipeline stage.", "workers.stages",
           "stage_bubble_seconds", report="bubble"),
    Metric("transport_s", COUNTER, "s",
           "Slot-wait and copy seconds per pipeline stage.", "workers.stages",
           "stage_transport_seconds", report="transport"),
    Metric("conversions", "", "conversions", "Macro conversions of the stage.",
           "workers.stages"),
    Metric("alive_workers", GAUGE, "workers",
           "Workers accepting placements now.", "live"),
    Metric("outstanding_requests", GAUGE, "requests",
           "Admitted requests not yet resolved.", "live"),
    Metric("ready", GAUGE, "bool", "1 while /readyz answers 200.", "live"),
    Metric("shm_request_writes", GAUGE, "batches",
           "Batches written into the workers' request rings.", "live"),
    Metric("shm_request_bytes", GAUGE, "bytes",
           "Bytes written into the workers' request rings.", "live"),
    Metric("shm_response_writes", GAUGE, "batches",
           "Logits copied out of the workers' response rings.", "live"),
    Metric("shm_response_bytes", GAUGE, "bytes",
           "Bytes copied out of the workers' response rings.", "live"),
)

#: The sections whose single row is the snapshot itself.
_SNAPSHOT_SECTIONS = ("", "fault_tolerance", "plan_cache")

#: Report title of each section's rows, formatted with the row's labels
#: and values; a value named in the title is not repeated after it.
_TITLES = {
    "": "traffic",
    "fault_tolerance": "fault tolerance",
    "plan_cache": "plan cache",
    "queue_depth": "queue depth",
    "latency_ms": "latency p50/p95/p99",
    "class_latency_ms": "class {class}",
    "batch_histogram": "batch-size histogram",
    "workers": "worker {index} ({mode})",
    "workers.stages": "pipeline stages (worker {worker}): stage {index} "
                      "(ops {layers})",
    "live": "live",
}

#: Report scale and suffix of a value by its declared unit.
_REPORT_UNITS = {"s": (1e3, "ms"), "modelled s": (1e6, "us"),
                 "J": (1e9, "nJ"), "ms": (1.0, "ms"), "req/s": (1.0, "req/s")}

_REPORT_WIDTH = 100

Row = Tuple[str, Dict[str, str], List[Tuple[Metric, object]]]


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
    #: Modelled macro-pool busy time (the accelerator's timing model).
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
    """Immutable summary of a service run (see :data:`METRICS`)."""

    requests: int
    samples: int
    batches: int
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
    #: The event counters (:data:`EVENT_COUNTERS`), read-only.
    counters: Mapping[str, float] = dataclasses.field(
        default_factory=lambda: types.MappingProxyType(dict(EVENT_COUNTERS)))
    recovery_times_s: tuple = ()

    def sections(self, live: Optional[Mapping[str, float]] = None
                 ) -> Iterator[Tuple[str, List[Row]]]:
        """Each run of :data:`METRICS` sharing a section, with its rows.

        A row is ``(section, labels, [(metric, value), ...])``; a worker's
        stage rows follow its own row.  ``live`` holds the probe's live
        gauges (their section is empty without it).
        """
        for section, group in itertools.groupby(
                METRICS, key=lambda metric: metric.section.split(".")[0]):
            group = list(group)
            yield section, [
                (name, labels, [(metric, values[metric.name])
                                for metric in group if metric.section == name
                                and metric.name in values])
                for name, labels, values in self._rows(section, live)]

    def _rows(self, section: str, live: Optional[Mapping[str, float]]
              ) -> Iterator[Tuple[str, Dict[str, str], Mapping]]:
        if section in _SNAPSHOT_SECTIONS:
            yield section, {}, {**vars(self), **self.counters}
        elif section == "queue_depth":
            yield section, {}, {"max": self.max_queue_depth,
                                "mean": self.mean_queue_depth}
        elif section == "latency_ms":
            yield section, {}, {q: getattr(self, f"latency_{q}_ms")
                                for q in QUANTILES}
        elif section == "class_latency_ms":
            for name in sorted(self.class_latency_ms):
                yield section, {"class": name}, self.class_latency_ms[name]
        elif section == "batch_histogram":
            count = rows_sum = 0
            for rows in sorted(self.batch_histogram):
                count += self.batch_histogram[rows]
                rows_sum += rows * self.batch_histogram[rows]
                yield section, {"le": str(rows)}, {"batch_rows_bucket": count}
            yield section, {"le": "+Inf"}, {"batch_rows_bucket": count}
            yield section, {}, {"batch_rows_sum": rows_sum,
                                "batch_rows_count": count}
        elif section == "workers":
            for worker in self.workers:
                labels = {"worker": str(worker.index), "mode": worker.mode}
                yield section, labels, vars(worker)
                for stage in worker.stages:
                    yield ("workers.stages", {**labels, "stage": str(stage.index)},
                           {**vars(stage),
                            "layers": [stage.layer_start, stage.layer_stop]})
        elif section == "live" and live:
            yield section, {}, live

    def render(self) -> str:
        """ASCII report of the snapshot (the loadtest CLI output).

        One line per section row, wrapped; a row whose values are all zero
        is left out.
        """
        lines = ["Serving metrics", "---------------"]
        merged: Dict[Tuple, Row] = {}  # the top level's two table runs
        for section, rows in self.sections():
            if section == "batch_histogram":
                merged[section, ()] = (section, {}, [])
                continue
            for name, labels, values in rows:
                key = (name, tuple(labels.items()))
                merged.setdefault(key, (name, labels, []))[2].extend(values)
        for name, labels, values in merged.values():
            if name == "batch_histogram":
                lines.append(f"{_TITLES[name]} "
                             + _render_histogram(self.batch_histogram))
            elif any(value for _, value in values):
                template = _TITLES[name]
                fields = {**labels, **{metric.name: value
                                       for metric, value in values}}
                titled = set(re.findall(r"{(\w+)}", template))
                items = [f"{metric.text} {_report_value(value, metric.unit)}"
                         .strip() for metric, value in values
                         if metric.name not in titled]
                lines.extend(_wrap(template.format(**fields), items))
        return "\n".join(lines)


def _report_value(value, unit: str) -> str:
    if isinstance(value, (tuple, list)):
        value = max(value, default=0.0)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if unit in _REPORT_UNITS:
        scale, suffix = _REPORT_UNITS[unit]
        return f"{value * scale:.2f} {suffix}"
    return f"{value:.1f}" if isinstance(value, float) else str(value)


def _wrap(title: str, items: List[str]) -> List[str]:
    """``title`` then ``items`` joined by commas, wrapped at the width."""
    lines, line = [], f"{title:<20} "
    for index, item in enumerate(items):
        piece = item + ("," if index < len(items) - 1 else "")
        if len(line) + len(piece) > _REPORT_WIDTH and line.strip() != title:
            lines.append(line.rstrip())
            line = " " * 21
        line += piece + " "
    lines.append(line.rstrip())
    return lines


def _render_histogram(histogram: Dict[int, int]) -> str:
    if not histogram:
        return "(empty)"
    return "  ".join(f"{rows}r x{count}" for rows, count in sorted(histogram.items()))


#: The event counters :meth:`ServiceMetrics.count` increments, with their
#: zero: every declared counter of a snapshot section that is not a typed
#: snapshot field.
EVENT_COUNTERS: Dict[str, float] = {
    metric.name: 0.0 if metric.unit == "s" else 0
    for metric in METRICS
    if metric.kind == COUNTER and metric.section in _SNAPSHOT_SECTIONS
    and metric.name not in {field.name
                            for field in dataclasses.fields(MetricsSnapshot)}
}


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
        self.counts: Dict[str, float] = dict(EVENT_COUNTERS)
        self.requests = 0
        self.samples = 0
        self.batches = 0
        self.conversions = 0
        self.estimated_conversions = 0.0
        self.recovery_times_s: List[float] = []
        self.first_arrival: Optional[float] = None
        self.last_completion: Optional[float] = None

    # -- update hooks ---------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the event counter ``name`` (:data:`EVENT_COUNTERS`)."""
        self.counts[name] += amount

    def record_arrival(self, now: float, queue_depth: int) -> None:
        """A request entered the queue."""
        if self.first_arrival is None:
            self.first_arrival = now
        self.queue_depths.append(queue_depth)

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

    def record_recovery(self, seconds: float) -> None:
        """The pool returned to fully-alive, ``seconds`` after capacity loss."""
        self.recovery_times_s.append(float(seconds))

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
                    **{f"{q}_ms": percentile_ms(values, int(q[1:]))
                       for q in QUANTILES},
                }
                for name, values in class_latencies.items()
            },
            counters=types.MappingProxyType(dict(self.counts)),
            recovery_times_s=tuple(self.recovery_times_s),
        )
