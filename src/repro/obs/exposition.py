"""Metrics exposition: Prometheus text and JSON renderings of a snapshot.

Both renderers take the frozen :class:`~repro.serve.metrics.MetricsSnapshot`
(the single source of serving truth) plus optional live gauges from the
service probe (queue depth, alive workers) and produce scrape-ready output:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``_total`` counters, labelled gauges,
  a cumulative ``le`` histogram for batch sizes).  Non-finite values are
  clamped (an idle snapshot reports ``throughput_rps = inf`` because no
  wall time has elapsed; Prometheus scrapers reject ``inf`` in practice,
  so it is exposed as ``0``).
* :func:`snapshot_to_json` — a plain-dict rendering for ``/metrics.json``
  and ``--metrics-out``, structurally identical to the snapshot.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.obs.health import HARDWARE_HEALTH

NAMESPACE = "repro_serve"


def _finite(value: float, default: float = 0.0) -> float:
    value = float(value)
    return value if math.isfinite(value) else default


def _format(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels.items())
    return "{" + inner + "}"


class _PromWriter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed = set()

    def sample(self, name: str, kind: str, help_text: str, value: float,
               labels: Optional[Dict[str, str]] = None) -> None:
        full = f"{NAMESPACE}_{name}"
        if full not in self._typed:
            self.lines.append(f"# HELP {full} {help_text}")
            self.lines.append(f"# TYPE {full} {kind}")
            self._typed.add(full)
        self.lines.append(
            f"{full}{_labels(labels or {})} {_format(_finite(value))}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(snapshot, extra_gauges: Optional[Dict[str, float]] = None
                      ) -> str:
    """Render a :class:`MetricsSnapshot` in Prometheus text format.

    ``extra_gauges`` lets the probe add live values the frozen snapshot
    cannot know (e.g. ``outstanding_requests``, ``ready``).
    """
    out = _PromWriter()
    out.sample("requests_total", "counter",
               "Requests completed successfully.", snapshot.requests)
    out.sample("samples_total", "counter",
               "Input rows served across all requests.", snapshot.samples)
    out.sample("batches_total", "counter",
               "Batches executed by workers.", snapshot.batches)
    out.sample("dropped_total", "counter",
               "Requests rejected by admission control.", snapshot.dropped)
    out.sample("worker_deaths_total", "counter",
               "Worker processes or pipeline stages found dead.",
               snapshot.worker_deaths)
    out.sample("retried_batches_total", "counter",
               "Batches re-dispatched after a worker death.",
               snapshot.retried_batches)
    out.sample("respawns_total", "counter",
               "Background worker respawns completed.", snapshot.respawns)
    out.sample("dispatch_timeouts_total", "counter",
               "Batches that blew their dispatch deadline (hung worker).",
               snapshot.dispatch_timeouts)
    out.sample("heartbeat_trips_total", "counter",
               "Workers killed after their heartbeat counter stalled.",
               snapshot.heartbeat_trips)
    out.sample("corruptions_total", "counter",
               "Shared-memory slots failing their CRC32 check.",
               snapshot.corruptions)
    out.sample("shed_requests_total", "counter",
               "Requests shed at admission under graceful degradation.",
               snapshot.shed_requests)
    out.sample("respawn_failures_total", "counter",
               "Failed worker respawn attempts.", snapshot.respawn_failures)
    out.sample("breaker_trips_total", "counter",
               "Respawn circuit breakers opened.", snapshot.breaker_trips)
    out.sample("backoff_waits_total", "counter",
               "Retry/respawn exponential-backoff waits taken.",
               snapshot.backoff_waits)
    out.sample("backoff_seconds_total", "counter",
               "Total seconds spent in retry/respawn backoff.",
               snapshot.backoff_total_s)
    out.sample("plan_cache_hits_total", "counter",
               "Compiled-plan cache hits during (re)spawns.",
               snapshot.plan_cache_hits)
    out.sample("plan_cache_misses_total", "counter",
               "Compiled-plan cache misses during (re)spawns.",
               snapshot.plan_cache_misses)
    out.sample("conversions_total", "counter",
               "Analog macro conversions spent (metered or estimated).",
               snapshot.conversions)

    out.sample("throughput_rps", "gauge",
               "Completed requests per second of serving wall time.",
               snapshot.throughput_rps)
    out.sample("wall_time_seconds", "gauge",
               "Wall time from first arrival to last completion.",
               snapshot.wall_time_s)
    out.sample("energy_per_request_joules", "gauge",
               "Modelled conversion energy per request.",
               snapshot.energy_per_request_j)
    out.sample("mean_batch_rows", "gauge",
               "Mean rows per executed batch.", snapshot.mean_batch_rows)
    for stat, value in (("max", snapshot.max_queue_depth),
                        ("mean", snapshot.mean_queue_depth)):
        out.sample("queue_depth", "gauge",
                   "Request-queue depth sampled at arrivals and dispatches.",
                   value, {"stat": stat})
    for quantile, value in (("p50", snapshot.latency_p50_ms),
                            ("p95", snapshot.latency_p95_ms),
                            ("p99", snapshot.latency_p99_ms)):
        out.sample("latency_ms", "gauge",
                   "End-to-end request latency percentiles (ms).",
                   value, {"quantile": quantile})
    for name in sorted(snapshot.class_latency_ms):
        stats = snapshot.class_latency_ms[name]
        out.sample("class_requests", "gauge",
                   "Requests completed per priority class.",
                   stats.get("requests", 0.0), {"class": name})
        for quantile in ("p50", "p95", "p99"):
            out.sample("class_latency_ms", "gauge",
                       "Per-priority-class latency percentiles (ms).",
                       stats.get(f"{quantile}_ms", 0.0),
                       {"class": name, "quantile": quantile})

    # Batch-size histogram in cumulative Prometheus form.
    cumulative = 0
    row_seconds = 0.0
    for rows in sorted(snapshot.batch_histogram):
        count = snapshot.batch_histogram[rows]
        cumulative += count
        row_seconds += rows * count
        out.sample("batch_rows_bucket", "counter",
                   "Cumulative batches with at most `le` rows.",
                   cumulative, {"le": str(rows)})
    out.sample("batch_rows_bucket", "counter",
               "Cumulative batches with at most `le` rows.",
               cumulative, {"le": "+Inf"})
    out.sample("batch_rows_sum", "counter",
               "Total rows across executed batches.", row_seconds)
    out.sample("batch_rows_count", "counter",
               "Total executed batches.", cumulative)

    for worker in snapshot.workers:
        labels = {"worker": str(worker.index), "mode": worker.mode}
        out.sample("worker_batches_total", "counter",
                   "Batches served per worker.", worker.batches, labels)
        out.sample("worker_rows_total", "counter",
                   "Rows served per worker.", worker.rows, labels)
        out.sample("worker_busy_seconds", "counter",
                   "Forward-compute seconds per worker.",
                   worker.busy_seconds, labels)
        out.sample("worker_transport_seconds", "counter",
                   "Seconds moving batches to/from the worker.",
                   worker.transport_s, labels)
        out.sample("worker_alive", "gauge",
                   "1 while the worker substrate is alive.",
                   1.0 if getattr(worker, "alive", True) else 0.0, labels)
        for stage in worker.stages:
            stage_labels = dict(labels)
            stage_labels["stage"] = str(stage.index)
            out.sample("stage_busy_seconds", "counter",
                       "Forward-compute seconds per pipeline stage.",
                       stage.busy_s, stage_labels)
            out.sample("stage_bubble_seconds", "counter",
                       "Starved-for-input seconds per pipeline stage.",
                       stage.bubble_s, stage_labels)
            out.sample("stage_transport_seconds", "counter",
                       "Slot-wait and copy seconds per pipeline stage.",
                       stage.transport_s, stage_labels)
    for key, value in (extra_gauges or {}).items():
        out.sample(key, "gauge", "Live service gauge.", value)
    for config, name, value in HARDWARE_HEALTH.entries():
        out.sample(f"hw_{name}", "gauge",
                   "Hardware characterization headline scalar.",
                   value, {"config": config})
    return out.render()


def snapshot_to_json(snapshot,
                     extra_gauges: Optional[Dict[str, float]] = None) -> dict:
    """Plain-dict rendering of a snapshot for ``/metrics.json``."""
    document = {
        "requests": snapshot.requests,
        "samples": snapshot.samples,
        "batches": snapshot.batches,
        "dropped": snapshot.dropped,
        "wall_time_s": snapshot.wall_time_s,
        "throughput_rps": _finite(snapshot.throughput_rps),
        "latency_ms": {
            "p50": snapshot.latency_p50_ms,
            "p95": snapshot.latency_p95_ms,
            "p99": snapshot.latency_p99_ms,
        },
        "mean_batch_rows": snapshot.mean_batch_rows,
        "batch_histogram": {str(rows): count for rows, count
                            in sorted(snapshot.batch_histogram.items())},
        "queue_depth": {"max": snapshot.max_queue_depth,
                        "mean": snapshot.mean_queue_depth},
        "conversions": snapshot.conversions,
        "conversions_estimated": snapshot.conversions_estimated,
        "energy_per_request_j": snapshot.energy_per_request_j,
        "class_latency_ms": {name: dict(stats) for name, stats
                             in snapshot.class_latency_ms.items()},
        "fault_tolerance": {
            "worker_deaths": snapshot.worker_deaths,
            "retried_batches": snapshot.retried_batches,
            "respawns": snapshot.respawns,
            "recovery_times_s": list(snapshot.recovery_times_s),
            "dispatch_timeouts": snapshot.dispatch_timeouts,
            "heartbeat_trips": snapshot.heartbeat_trips,
            "corruptions": snapshot.corruptions,
            "shed_requests": snapshot.shed_requests,
            "respawn_failures": snapshot.respawn_failures,
            "breaker_trips": snapshot.breaker_trips,
            "backoff_waits": snapshot.backoff_waits,
            "backoff_total_s": snapshot.backoff_total_s,
        },
        "plan_cache": {"hits": snapshot.plan_cache_hits,
                       "misses": snapshot.plan_cache_misses},
        "workers": [
            {
                "index": worker.index,
                "mode": worker.mode,
                "batches": worker.batches,
                "rows": worker.rows,
                "conversions": worker.conversions,
                "busy_seconds": worker.busy_seconds,
                "transport_s": worker.transport_s,
                "alive": bool(getattr(worker, "alive", True)),
                "stages": [
                    {
                        "index": stage.index,
                        "layers": [stage.layer_start, stage.layer_stop],
                        "batches": stage.batches,
                        "busy_s": stage.busy_s,
                        "bubble_s": stage.bubble_s,
                        "transport_s": stage.transport_s,
                        "conversions": stage.conversions,
                    }
                    for stage in worker.stages
                ],
            }
            for worker in snapshot.workers
        ],
    }
    if extra_gauges:
        document["live"] = {key: _finite(value)
                            for key, value in extra_gauges.items()}
    hardware = HARDWARE_HEALTH.as_dict()
    if hardware:
        document["hardware_health"] = hardware
    return document
