"""Metrics exposition: Prometheus text and JSON renderings of a snapshot.

Both renderers take the frozen :class:`~repro.serve.metrics.MetricsSnapshot`
(the single source of serving truth) plus optional live gauges from the
service probe (queue depth, alive workers) and iterate the metric table
:data:`repro.serve.metrics.METRICS` through
:meth:`~repro.serve.metrics.MetricsSnapshot.sections`, so neither names a
metric itself:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``_total`` counters, labelled gauges,
  a cumulative ``le`` histogram for batch sizes).  Non-finite values are
  clamped (an idle snapshot reports ``throughput_rps = inf`` because no
  wall time has elapsed; Prometheus scrapers reject ``inf`` in practice,
  so it is exposed as ``0``).
* :func:`snapshot_to_json` — a plain-dict rendering for ``/metrics.json``
  and ``--metrics-out``, one sub-object per section.
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
    """Buffers samples per family; renders each family as one contiguous
    group (the text format requires it), families in first-seen order."""

    def __init__(self) -> None:
        self.families: Dict[str, List[str]] = {}

    def sample(self, name: str, kind: str, help_text: str, value: float,
               labels: Optional[Dict[str, str]] = None) -> None:
        full = f"{NAMESPACE}_{name}"
        lines = self.families.get(full)
        if lines is None:
            lines = self.families[full] = [f"# HELP {full} {help_text}",
                                           f"# TYPE {full} {kind}"]
        lines.append(
            f"{full}{_labels(labels or {})} {_format(_finite(value))}")

    def render(self) -> str:
        return "".join(line + "\n" for lines in self.families.values()
                       for line in lines)


def render_prometheus(snapshot, extra_gauges: Optional[Dict[str, float]] = None
                      ) -> str:
    """Render a :class:`MetricsSnapshot` in Prometheus text format.

    Every declared metric with a kind becomes a sample of its family;
    ``extra_gauges`` are the probe's live gauges (``outstanding_requests``,
    ``ready``, ...), which the frozen snapshot cannot know.
    """
    out = _PromWriter()
    for _, rows in snapshot.sections(extra_gauges):
        for _, labels, values in rows:
            for metric, value in values:
                if metric.kind:
                    out.sample(metric.prometheus, metric.kind, metric.help,
                               value, {**labels, **dict(metric.labels)})
    for config, name, value in HARDWARE_HEALTH.entries():
        out.sample(f"hw_{name}", "gauge",
                   "Hardware characterization headline scalar.",
                   value, {"config": config})
    return out.render()


def snapshot_to_json(snapshot,
                     extra_gauges: Optional[Dict[str, float]] = None) -> dict:
    """Plain-dict rendering of a snapshot for ``/metrics.json``.

    Each section is a sub-object (the top level's merge into the
    document): per-class rows keyed by class, workers a list with each
    worker's stages nested, the batch histogram ``{rows: batches}``.
    """
    document: dict = {}
    for section, rows in snapshot.sections(extra_gauges):
        if section == "batch_histogram":
            document[section] = {str(rows): count for rows, count
                                 in sorted(snapshot.batch_histogram.items())}
            continue
        if section == "class_latency_ms":
            document[section] = {}
        elif section == "workers":
            document[section] = []
        for name, labels, values in rows:
            row = {metric.key: _plain(value) for metric, value in values}
            if name == "":
                document.update(row)
            elif name == "class_latency_ms":
                document[name][labels["class"]] = row
            elif name == "workers":
                document[name].append({**row, "stages": []})
            elif name == "workers.stages":
                document["workers"][-1]["stages"].append(row)
            else:
                document[name] = row
    hardware = HARDWARE_HEALTH.as_dict()
    if hardware:
        document["hardware_health"] = hardware
    return document


def _plain(value):
    """A JSON-safe value: tuples as lists, non-finite floats as 0."""
    if isinstance(value, tuple):
        return list(value)
    return _finite(value) if isinstance(value, float) else value
