"""Observability-layer tests: span trees, exporters, exposition, probes.

The contracts under test (this PR's tentpole):

* one sampled request yields one *connected* span tree — queue_wait ->
  batch -> dispatch -> worker/stage forwards -> per-layer DAC/crossbar/ADC
  — across thread, process and pipeline worker substrates, exported as
  valid Chrome/Perfetto trace-event JSON;
* ``trace_sample_rate=0`` serving is bit-identical to untraced serving on
  every backend (tracing never touches the numpy noise streams);
* worker deaths, batch retries and respawns show up as instant events in
  the exported trace, and readiness flips to 503 during a full-pool
  outage and recovers with the respawn;
* ``/metrics`` (Prometheus text), ``/metrics.json``, ``/healthz`` and
  ``/readyz`` answer correctly from the stdlib scrape server;
* metrics-rendering edge cases: single-sample percentiles, empty
  per-class buckets, zero-wall-time (infinite) throughput.
"""

import asyncio
import dataclasses
import json
import os
import signal
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exec.backend import ExecutionContext
from repro.exec.engine import run_model
from repro.faults import FaultRule, FaultSpec
from repro.nn import DatasetConfig, SGD, Sequential, SyntheticImageDataset, Trainer
from repro.nn.layers import Flatten, Linear, ReLU
from repro.obs.export import (
    REQUIRED_EVENT_KEYS,
    aggregate_profile,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.exposition import NAMESPACE, render_prometheus, snapshot_to_json
from repro.obs.http import MetricsServer, ServiceProbe
from repro.obs.trace import (
    PlanTraceBuffer,
    Span,
    Tracer,
    plan_trace,
    plan_trace_buffer,
    validate_span_tree,
)
from repro.serve import InferenceService, ServeConfig, serve_requests
from repro.serve.cli import build_serve_parser, _config_from_args
from repro.serve.loadgen import run_loadtest
from repro.serve.metrics import (
    EVENT_COUNTERS,
    METRICS,
    ServiceMetrics,
    StageOccupancy,
    WorkerSnapshot,
    percentile_ms,
)


def run_async(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def trained_setup():
    dataset = SyntheticImageDataset(DatasetConfig(num_classes=4, image_size=10,
                                                  noise_sigma=0.3, seed=7))
    x_train, y_train, x_test, _ = dataset.train_test_split(96, 48)
    model = Sequential(
        Flatten(),
        Linear(300, 32, rng=np.random.default_rng(0)),
        ReLU(),
        Linear(32, 4, rng=np.random.default_rng(1)),
    )
    Trainer(model, SGD(model.parameters(), learning_rate=0.05), batch_size=32).fit(
        x_train, y_train, epochs=1
    )
    return model, x_train, x_test


def _span_names(spans):
    return {span.name for span in spans}


def _span_categories(spans):
    return {span.category for span in spans}


class TestTracerCore:
    def test_sample_rate_validated(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(sample_rate=0.0)
        assert not tracer.enabled
        assert tracer.maybe_start_request(1, "standard", 1) is None
        tracer.event("worker_death", worker=0)
        assert tracer.events == []
        assert tracer.spans == []

    def test_sampling_is_seeded_and_reproducible(self):
        picks_a = [Tracer(sample_rate=0.5, seed=3).maybe_start_request(
            i, "standard", 1) is not None for i in range(64)]
        picks_b = [Tracer(sample_rate=0.5, seed=3).maybe_start_request(
            i, "standard", 1) is not None for i in range(64)]
        # Two tracers seeded identically sample identically, and a 0.5
        # rate traces some-but-not-all requests.
        assert picks_a[0] == picks_b[0]
        full = [Tracer(sample_rate=0.5, seed=3)]
        tracer = full[0]
        picks = [tracer.maybe_start_request(i, "standard", 1) is not None
                 for i in range(64)]
        assert any(picks) and not all(picks)

    def test_rate_one_traces_every_request(self):
        tracer = Tracer(sample_rate=1.0)
        handles = [tracer.maybe_start_request(i, "standard", 2)
                   for i in range(8)]
        assert all(handle is not None for handle in handles)
        assert tracer.traced_requests == 8
        # Every handle opens a root plus a queue-wait child on one trace.
        for handle in handles:
            assert handle.queue_span.parent_id == handle.root.span_id
            assert handle.queue_span.trace_id == handle.trace_id

    def test_span_store_bounded(self):
        tracer = Tracer(sample_rate=1.0, max_spans=2)
        for index in range(4):
            span = tracer.begin(f"s{index}")
            tracer.end(span)
        assert len(tracer.spans) == 2
        assert tracer.dropped_spans == 2

    def test_end_is_idempotent(self):
        tracer = Tracer(sample_rate=1.0)
        span = tracer.begin("op")
        tracer.end(span, 10.0)
        tracer.end(span, 99.0)
        assert span.end_s == 10.0
        assert len(tracer.spans) == 1
        tracer.end(None)  # no-op, never raises

    def test_validate_span_tree_rejects_orphans(self):
        root = Span(trace_id=1, span_id=1, parent_id=None, name="request",
                    category="request", start_s=0.0, end_s=1.0)
        orphan = Span(trace_id=1, span_id=2, parent_id=999, name="lost",
                      category="serve", start_s=0.0, end_s=1.0)
        with pytest.raises(ValueError, match="orphan"):
            validate_span_tree([root, orphan])

    def test_validate_span_tree_rejects_double_roots_and_rootless(self):
        a = Span(trace_id=1, span_id=1, parent_id=None, name="request",
                 category="request", start_s=0.0)
        b = Span(trace_id=1, span_id=2, parent_id=None, name="request",
                 category="request", start_s=0.0)
        with pytest.raises(ValueError, match="multiple roots"):
            validate_span_tree([a, b])
        child = Span(trace_id=5, span_id=9, parent_id=8, name="x",
                     category="serve", start_s=0.0)
        with pytest.raises(ValueError):
            validate_span_tree([child])


class TestPlanTraceBuffer:
    def test_record_layer_lays_converters_sequentially(self):
        buffer = PlanTraceBuffer(t0=100.0)
        buffer.record_layer("L0", 100.0, 100.010,
                            dac_s=0.002, crossbar_s=0.003, adc_s=0.001)
        names = [record[0] for record in buffer.records]
        assert names == ["L0", "dac", "crossbar", "adc"]
        layer = buffer.records[0]
        assert layer[4] == -1  # parented at the remote forward root
        # Children parent at the layer and tile back-to-back from its start.
        dac, crossbar, adc = buffer.records[1:]
        assert dac[4] == crossbar[4] == adc[4] == 0
        assert dac[2] == pytest.approx(0.0)
        assert dac[3] == pytest.approx(0.002)
        assert crossbar[2] == pytest.approx(0.002)
        assert adc[3] == pytest.approx(0.006)

    def test_record_layer_clamps_into_layer_and_skips_zero(self):
        buffer = PlanTraceBuffer(t0=0.0)
        # Converter totals exceeding the layer duration are clamped; a
        # zero-duration stage is skipped entirely.
        buffer.record_layer("L1", 0.0, 0.004, dac_s=0.010, crossbar_s=0.0,
                            adc_s=0.005)
        names = [record[0] for record in buffer.records]
        assert names == ["L1", "dac", "adc"]
        dac = buffer.records[1]
        assert dac[3] <= 0.004 + 1e-12
        adc = buffer.records[2]
        assert adc[2] == adc[3]  # fully clamped away, zero-width

    def test_plan_trace_activates_and_restores(self):
        assert plan_trace_buffer() is None
        outer = PlanTraceBuffer()
        inner = PlanTraceBuffer()
        with plan_trace(outer):
            assert plan_trace_buffer() is outer
            with plan_trace(inner):
                assert plan_trace_buffer() is inner
            assert plan_trace_buffer() is outer
        assert plan_trace_buffer() is None


class TestAttachRemote:
    def test_remote_spans_nest_inside_dispatch_window(self):
        tracer = Tracer(sample_rate=1.0)
        parent = tracer.begin("dispatch", category="dispatch", start_s=10.0)
        buffer = PlanTraceBuffer(t0=0.0)
        buffer.record_layer("L0", 0.0, 0.01, dac_s=0.004)
        created = tracer.attach_remote(
            [(None, 0.01, buffer.records)], parent=parent,
            start_s=10.0, end_s=10.05)
        tracer.end(parent, 10.05)
        worker = created[0]
        assert worker.name == "worker_forward"
        # Slack is centred: the forward floats inside the dispatch window.
        assert worker.start_s >= 10.0
        assert worker.end_s <= 10.05 + 1e-12
        assert worker.parent_id == parent.span_id
        layer = next(span for span in created if span.name == "L0")
        assert layer.parent_id == worker.span_id
        validate_span_tree(tracer.spans)

    def test_pipeline_stages_laid_sequentially(self):
        tracer = Tracer(sample_rate=1.0)
        parent = tracer.begin("dispatch", category="dispatch", start_s=0.0)
        created = tracer.attach_remote(
            [(0, 0.01, []), (1, 0.02, [])], parent=parent,
            start_s=0.0, end_s=0.05)
        tracer.end(parent, 0.05)
        stage0 = next(span for span in created if span.name == "stage_0")
        stage1 = next(span for span in created if span.name == "stage_1")
        assert stage0.end_s <= stage1.start_s + 1e-12
        assert stage0.args["stage"] == 0 and stage1.args["stage"] == 1

    def test_bogus_parent_index_falls_back_to_stage_root(self):
        tracer = Tracer(sample_rate=1.0)
        parent = tracer.begin("dispatch", category="dispatch", start_s=0.0)
        records = [("L0", "layer", 0.0, 0.01, 57)]  # index out of range
        created = tracer.attach_remote([(None, 0.01, records)], parent=parent,
                                       start_s=0.0, end_s=0.02)
        tracer.end(parent, 0.02)
        layer = created[-1]
        assert layer.parent_id == created[0].span_id
        validate_span_tree(tracer.spans)


class TestChromeExport:
    def _sample_spans(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.begin("request", category="request", start_s=1.0)
        child = tracer.begin("queue_wait", category="queue", parent=root,
                             start_s=1.0)
        tracer.end(child, 1.5)
        tracer.end(root, 2.0)
        tracer.event("retry", trace_id=root.trace_id, timestamp_s=1.2,
                     worker=0)
        return tracer

    def test_every_event_carries_required_keys(self):
        tracer = self._sample_spans()
        document = chrome_trace(tracer.spans, tracer.events)
        events = validate_chrome_trace(document)
        assert events  # metadata + spans + instants
        for event in events:
            for key in REQUIRED_EVENT_KEYS:
                assert key in event
        phases = {event["ph"] for event in events}
        assert {"X", "i", "M"} <= phases
        assert document["displayTimeUnit"] == "ms"

    def test_one_tid_per_trace_and_rebased_timestamps(self):
        tracer = self._sample_spans()
        other = tracer.begin("request", category="request", start_s=5.0)
        tracer.end(other, 6.0)
        events = [event for event
                  in chrome_trace(tracer.spans, tracer.events)["traceEvents"]
                  if event["ph"] == "X"]
        tids = {event["args"]["trace_id"]: event["tid"] for event in events}
        assert len(set(tids.values())) == len(tids)
        assert min(event["ts"] for event in events) == 0.0

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="must be a list"):
            validate_chrome_trace({"traceEvents": {}})
        with pytest.raises(ValueError, match="missing required key"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "ts": 0, "pid": 1, "tid": 1}]})
        with pytest.raises(ValueError, match="negative duration"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "ts": 0, "pid": 1, "tid": 1, "name": "x",
                 "dur": -4}]})

    def test_write_roundtrip_and_jsonl(self, tmp_path):
        tracer = self._sample_spans()
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer.spans, tracer.events)
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)
        jsonl = tmp_path / "spans.jsonl"
        count = write_spans_jsonl(str(jsonl), tracer.spans, tracer.events)
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(lines) == count == len(tracer.spans) + len(tracer.events)
        kinds = {line["kind"] for line in lines}
        assert kinds == {"span", "event"}


class TestAggregateProfile:
    def test_converter_spans_fold_back_to_profile(self):
        tracer = Tracer(sample_rate=1.0)
        parent = tracer.begin("dispatch", category="dispatch", start_s=0.0)
        buffer = PlanTraceBuffer(t0=0.0)
        buffer.record_layer("L0", 0.0, 0.01, dac_s=0.002, crossbar_s=0.003,
                            adc_s=0.001)
        tracer.attach_remote([(None, 0.01, buffer.records)], parent=parent,
                             start_s=0.0, end_s=0.01)
        tracer.end(parent, 0.01)
        profile = aggregate_profile(tracer.spans)
        assert profile["dac_s"] == pytest.approx(0.002, rel=1e-6)
        assert profile["crossbar_s"] == pytest.approx(0.003, rel=1e-6)
        assert profile["adc_s"] == pytest.approx(0.001, rel=1e-6)
        assert profile["total_s"] == pytest.approx(0.01, rel=1e-6)
        assert profile["forwards"] == 1

    def test_layer_fallback_without_worker_roots(self):
        spans = [Span(trace_id=1, span_id=1, parent_id=None, name="L0",
                      category="layer", start_s=0.0, end_s=0.02)]
        profile = aggregate_profile(spans)
        assert profile["total_s"] == pytest.approx(0.02)
        assert profile["forwards"] == 1


class TestMetricsEdgeCases:
    def test_percentile_single_sample_and_empty(self):
        assert percentile_ms([], 99) == 0.0
        for q in (50, 95, 99):
            assert percentile_ms([0.004], q) == pytest.approx(4.0)

    def test_zero_wall_time_throughput_is_clamped_in_expositions(self):
        metrics = ServiceMetrics()
        metrics.record_batch(rows=1, request_latencies_s=[0.001], now=5.0)
        snapshot = metrics.snapshot()
        # No recorded arrival: zero wall time reports infinite throughput.
        assert snapshot.throughput_rps == float("inf")
        text = render_prometheus(snapshot)
        line = next(line for line in text.splitlines()
                    if line.startswith(f"{NAMESPACE}_throughput_rps"))
        assert line.split()[-1] == "0"
        document = snapshot_to_json(snapshot)
        assert document["throughput_rps"] == 0.0
        json.dumps(document)  # must stay JSON-serialisable (no Infinity)

    def test_empty_class_bucket_renders_zero_percentiles(self):
        metrics = ServiceMetrics()
        metrics.class_latencies_s["interactive"] = []
        snapshot = metrics.snapshot()
        stats = snapshot.class_latency_ms["interactive"]
        assert stats["requests"] == 0.0
        assert stats["p50_ms"] == stats["p99_ms"] == 0.0
        text = render_prometheus(snapshot)
        assert f'{NAMESPACE}_class_requests{{class="interactive"}} 0' in text

    def test_single_sample_snapshot_percentiles_coincide(self):
        metrics = ServiceMetrics()
        metrics.record_arrival(0.0, 1)
        metrics.record_batch(rows=1, request_latencies_s=[0.002], now=0.5)
        snapshot = metrics.snapshot()
        assert snapshot.latency_p50_ms == snapshot.latency_p99_ms
        assert snapshot.latency_p50_ms == pytest.approx(2.0)


class TestPrometheusRendering:
    def _snapshot(self):
        metrics = ServiceMetrics()
        metrics.record_arrival(0.0, 2)
        metrics.record_batch(rows=4, request_latencies_s=[0.001] * 4, now=1.0,
                             conversions=10,
                             request_classes=["standard"] * 4)
        metrics.record_batch(rows=2, request_latencies_s=[0.002] * 2, now=2.0)
        return metrics.snapshot()

    def test_headers_once_and_counters_suffixed(self):
        text = render_prometheus(self._snapshot())
        lines = text.splitlines()
        helps = [line for line in lines
                 if line.startswith(f"# HELP {NAMESPACE}_requests_total")]
        assert len(helps) == 1
        assert f"{NAMESPACE}_requests_total 6" in text
        assert f"{NAMESPACE}_samples_total 6" in text
        assert f'{NAMESPACE}_latency_ms{{quantile="p99"}}' in text
        assert text.endswith("\n")

    def test_batch_histogram_is_cumulative(self):
        text = render_prometheus(self._snapshot())
        assert f'{NAMESPACE}_batch_rows_bucket{{le="2"}} 1' in text
        assert f'{NAMESPACE}_batch_rows_bucket{{le="4"}} 2' in text
        assert f'{NAMESPACE}_batch_rows_bucket{{le="+Inf"}} 2' in text
        assert f"{NAMESPACE}_batch_rows_count 2" in text

    def test_extra_gauges_rendered(self):
        text = render_prometheus(self._snapshot(),
                                 extra_gauges={"ready": 1.0,
                                               "outstanding_requests": 3.0})
        assert f"{NAMESPACE}_ready 1" in text
        assert f"{NAMESPACE}_outstanding_requests 3" in text


class TestMetricTable:
    """The renderings against the declared table: nothing missing, nothing
    undeclared."""

    LIVE = {"alive_workers": 1.0, "outstanding_requests": 3.0, "ready": 1.0,
            "shm_request_writes": 4.0, "shm_request_bytes": 512.0,
            "shm_response_writes": 5.0, "shm_response_bytes": 256.0}

    def _snapshot(self):
        metrics = ServiceMetrics(energy_per_conversion_j=1e-12)
        metrics.record_arrival(0.0, 3)
        metrics.record_batch(rows=4, request_latencies_s=[0.001, 0.002, 0.003,
                                                          0.004],
                             now=1.0, conversions=100,
                             request_classes=["interactive"] + ["batch"] * 3)
        metrics.record_batch(rows=1, request_latencies_s=[0.005], now=2.0,
                             conversions=20, request_classes=["interactive"])
        metrics.record_recovery(0.25)
        # Every event counter distinct and nonzero.
        for amount, name in enumerate(EVENT_COUNTERS, start=2):
            metrics.count(name, amount)
        stages = (StageOccupancy(0, 0, 3, 1, 0.5, 0.25, 0.125, 12),
                  StageOccupancy(1, 3, 6, 1, 0.75, 0.0625, 0.03125, 8))
        workers = [
            WorkerSnapshot(index=0, batches=1, rows=4, conversions=100,
                           busy_seconds=2.5e-4),
            WorkerSnapshot(index=1, batches=1, rows=1, conversions=20,
                           busy_seconds=1.25e-4, mode="pipeline",
                           transport_s=0.0625, stages=stages, alive=False),
        ]
        return metrics.snapshot(workers)

    def test_event_counters_are_the_fourteen(self):
        snapshot = self._snapshot()
        assert len(EVENT_COUNTERS) == 14
        assert dict(snapshot.counters) == {
            name: amount for amount, name in enumerate(EVENT_COUNTERS, start=2)}
        with pytest.raises(TypeError):
            snapshot.counters["dropped"] = 0  # read-only
        with pytest.raises(KeyError):
            ServiceMetrics().count("undeclared")

    def test_every_declared_metric_is_rendered_everywhere(self):
        snapshot = self._snapshot()
        text = render_prometheus(snapshot, extra_gauges=self.LIVE)
        document = snapshot_to_json(snapshot, extra_gauges=self.LIVE)
        report = snapshot.render()
        samples = [line for line in text.splitlines()
                   if not line.startswith("#")]
        for metric in METRICS:
            if metric.kind:
                family = f"{NAMESPACE}_{metric.prometheus}"
                assert f"# HELP {family} {metric.help}" in text
                assert f"# TYPE {family} {metric.kind}" in text
                wanted = [f'{key}="{value}"' for key, value in metric.labels]
                assert any(line.split("{")[0].split(" ")[0] == family
                           and all(pair in line for pair in wanted)
                           for line in samples), metric
            section = metric.section
            if section == "":
                assert metric.key in document
            elif section == "batch_histogram":
                assert document[section] == {"1": 1, "4": 1}
            elif section == "class_latency_ms":
                assert all(metric.key in row
                           for row in document[section].values())
            elif section == "workers":
                assert all(metric.key in row for row in document[section])
            elif section == "workers.stages":
                assert len(document["workers"][1]["stages"]) == 2
                assert all(metric.key in row
                           for row in document["workers"][1]["stages"])
            else:
                assert metric.key in document[section], metric
            # The probe's gauges are not in a snapshot; the histogram line,
            # the latency line and the row titles carry the rest.
            if (section not in ("live", "batch_histogram")
                    and metric.name not in ("index", "mode", "layers")):
                assert metric.text in report, metric
        for title in ("latency p50/p95/p99", "class batch", "class interactive",
                      "worker 0 (thread)", "worker 1 (pipeline)",
                      "stage 1 (ops [3, 6])", "batch-size histogram 1r x1"):
            assert title in report

    def test_every_rendered_family_and_key_is_declared(self):
        snapshot = self._snapshot()
        text = render_prometheus(snapshot, extra_gauges=self.LIVE)
        document = snapshot_to_json(snapshot, extra_gauges=self.LIVE)
        families = {metric.prometheus for metric in METRICS if metric.kind}
        helps = [line.split()[2][len(NAMESPACE) + 1:]
                 for line in text.splitlines() if line.startswith("# HELP")]
        # The characterization gauges (hw_*) are published, not declared.
        assert sorted(name for name in helps
                      if not name.startswith("hw_")) == sorted(families)

        def keys(section):
            return {metric.key for metric in METRICS
                    if metric.section == section}

        sections = {metric.section.split(".")[0] for metric in METRICS} - {""}
        assert set(document) <= keys("") | sections | {"hardware_health"}
        for section in ("fault_tolerance", "plan_cache", "queue_depth",
                        "latency_ms", "live"):
            assert set(document[section]) == keys(section)
        for row in document["class_latency_ms"].values():
            assert set(row) == keys("class_latency_ms")
        for worker in document["workers"]:
            assert set(worker) == keys("workers") | {"stages"}
            for stage in worker["stages"]:
                assert set(stage) == keys("workers.stages")

    def test_families_are_contiguous(self):
        # Two workers (one pipelined) and two priority classes: after each
        # family's # TYPE line come all of its samples, then the next
        # family — never a sample of a family already left behind.
        text = render_prometheus(self._snapshot(), extra_gauges=self.LIVE)
        order, family = [], None
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                family = line.split()[2]
                order.append(family)
            elif not line.startswith("#"):
                assert line.split("{")[0].split(" ")[0] == family, line
        assert len(order) == len(set(order))

class TestProbesAndServer:
    def test_endpoints_against_live_service(self, trained_setup):
        model, _, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_batch=8))
            await service.start()
            server = MetricsServer(ServiceProbe(service)).start()
            try:
                await service.submit_many(x_test[:8])

                def get(path):
                    try:
                        with urllib.request.urlopen(server.url(path),
                                                    timeout=5) as response:
                            return response.status, response.read()
                    except urllib.error.HTTPError as exc:
                        return exc.code, exc.read()

                status, body = await asyncio.to_thread(get, "/metrics")
                assert status == 200
                assert f"{NAMESPACE}_requests_total".encode() in body
                status, body = await asyncio.to_thread(get, "/metrics.json")
                assert status == 200
                assert json.loads(body)["requests"] >= 1
                status, body = await asyncio.to_thread(get, "/healthz")
                assert status == 200
                status, body = await asyncio.to_thread(get, "/readyz")
                assert status == 200
                assert json.loads(body)["ready"] is True
                status, body = await asyncio.to_thread(get, "/nope")
                assert status == 404
                await service.stop()
                # Stopped: liveness stays green, readiness flips.
                status, _ = await asyncio.to_thread(get, "/healthz")
                assert status == 200
                status, body = await asyncio.to_thread(get, "/readyz")
                assert status == 503
                assert json.loads(body)["ready"] is False
            finally:
                server.close()
                await service.stop()

        run_async(scenario())

    def test_readiness_flips_when_queue_over_capacity(self, trained_setup):
        model, _, _ = trained_setup

        async def scenario():
            service = InferenceService(
                model, ServeConfig(max_batch=8, queue_capacity=4))
            await service.start()
            probe = ServiceProbe(service)
            try:
                ready, detail = probe.ready()
                assert ready and detail["under_capacity"]
                service._outstanding = 4  # saturated admission window
                ready, detail = probe.ready()
                assert not ready and not detail["under_capacity"]
            finally:
                service._outstanding = 0
                await service.stop()

        run_async(scenario())

    def test_readiness_flips_during_full_pool_outage_and_recovers(
            self, trained_setup):
        model, _, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, workers="process", num_workers=1,
                max_retries=4))
            await service.start()
            probe = ServiceProbe(service)
            try:
                await service.submit_many(x_test[:8])  # warm the worker up
                assert probe.ready()[0]
                pids = service.process_worker_pids()
                os.kill(pids[sorted(pids)[0]][0], signal.SIGKILL)
                future = service.submit_nowait(x_test[0])  # trip the death
                deadline = asyncio.get_running_loop().time() + 20.0
                saw_outage = False
                while asyncio.get_running_loop().time() < deadline:
                    if not probe.ready()[0]:
                        saw_outage = True
                        break
                    await asyncio.sleep(0.01)
                assert saw_outage, "readiness never flipped on the dead pool"
                await future  # the retried batch must still be served
                while not probe.ready()[0]:
                    assert asyncio.get_running_loop().time() < deadline, \
                        "readiness did not recover after respawn"
                    await asyncio.sleep(0.02)
            finally:
                await service.stop()

        run_async(scenario())


class TestServiceTracing:
    def test_thread_service_builds_connected_trees(self, trained_setup):
        model, _, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, trace_sample_rate=1.0))
            await service.start()
            try:
                await service.submit_many(x_test[:16])
            finally:
                await service.stop()
            return service.tracer

        tracer = run_async(scenario())
        roots = validate_span_tree(tracer.spans)
        assert len(roots) == 2  # one trace per stacked request
        names = _span_names(tracer.spans)
        assert {"request", "queue_wait", "batch", "dispatch",
                "worker_forward"} <= names
        validate_chrome_trace(chrome_trace(tracer.spans, tracer.events))

    def test_pipeline_process_trace_is_one_connected_tree(self, trained_setup):
        # The acceptance-criteria shape: pipeline_stages=2 over process
        # stages, one traced request, single connected tree with queue ->
        # batch -> dispatch -> per-stage -> per-layer converter spans.
        model, x_train, x_test = trained_setup
        context = ExecutionContext(calibration=x_train[:16],
                                   max_mapped_layers=2, seed=0)

        async def scenario():
            service = InferenceService(model, ServeConfig(
                backend="analog", max_batch=8, pipeline_stages=2,
                context=context, trace_sample_rate=1.0))
            await service.start()
            try:
                await service.submit(x_test[0])
            finally:
                await service.stop()
            return service.tracer

        tracer = run_async(scenario())
        roots = validate_span_tree(tracer.spans)
        assert len(roots) == 1
        names = _span_names(tracer.spans)
        assert {"request", "queue_wait", "batch", "dispatch", "stage_0",
                "stage_1"} <= names
        categories = _span_categories(tracer.spans)
        assert {"layer", "dac", "crossbar", "adc"} <= categories
        # Remote spans nest inside the dispatch window.
        by_id = {span.span_id: span for span in tracer.spans}
        dispatch = next(span for span in tracer.spans
                        if span.name == "dispatch")
        for span in tracer.spans:
            if span.name.startswith("stage_"):
                assert by_id[span.parent_id] is dispatch
                assert span.start_s >= dispatch.start_s - 1e-9
                assert span.end_s <= dispatch.end_s + 1e-9
        validate_chrome_trace(chrome_trace(tracer.spans, tracer.events))

    def test_process_worker_trace_ships_layer_spans(self, trained_setup):
        model, x_train, x_test = trained_setup
        context = ExecutionContext(calibration=x_train[:16],
                                   max_mapped_layers=1, seed=0)

        async def scenario():
            service = InferenceService(model, ServeConfig(
                backend="analog", max_batch=8, workers="process",
                context=context, trace_sample_rate=1.0))
            await service.start()
            try:
                await service.submit_many(x_test[:8])
            finally:
                await service.stop()
            return service.tracer

        tracer = run_async(scenario())
        validate_span_tree(tracer.spans)
        names = _span_names(tracer.spans)
        assert "worker_forward" in names
        assert any(span.category == "layer" for span in tracer.spans)
        assert any(span.category == "crossbar" for span in tracer.spans)

    def test_partial_sampling_tags_cobatched_requests(self, trained_setup):
        model, _, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=64, trace_sample_rate=1.0))
            await service.start()
            try:
                futures = [service.submit_nowait(x_test[i]) for i in range(4)]
                await asyncio.gather(*futures)
            finally:
                await service.stop()
            return service.tracer

        tracer = run_async(scenario())
        roots = validate_span_tree(tracer.spans)
        # All four requests coalesced: one primary holds the batch span,
        # the other roots cross-reference it.
        batch_spans = [span for span in tracer.spans if span.name == "batch"]
        assert len(batch_spans) == 1
        tagged = [span for span in roots.values()
                  if "batched_into" in span.args]
        assert len(tagged) == len(roots) - 1
        assert all(span.args["batched_into"] == batch_spans[0].trace_id
                   for span in tagged)

    def test_traced_serving_is_bit_identical(self, trained_setup):
        model, x_train, x_test = trained_setup
        for backend in ("ideal", "analog"):
            context = ExecutionContext(
                calibration=None if backend == "ideal" else x_train[:16],
                max_mapped_layers=1, seed=0)
            config = ServeConfig(backend=backend, max_batch=8,
                                 context=context)
            untraced, _ = serve_requests(model, x_test[:8], config)
            traced, _ = serve_requests(
                model, x_test[:8],
                dataclasses.replace(config, trace_sample_rate=1.0))
            sampled, _ = serve_requests(
                model, x_test[:8],
                dataclasses.replace(config, trace_sample_rate=0.25))
            np.testing.assert_array_equal(untraced, traced)
            np.testing.assert_array_equal(untraced, sampled)

    def test_disabled_tracing_stores_nothing(self, trained_setup):
        model, _, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_batch=8))
            await service.start()
            try:
                await service.submit_many(x_test[:8])
            finally:
                await service.stop()
            return service.tracer

        tracer = run_async(scenario())
        assert tracer.spans == [] and tracer.events == []


class TestKillStormTracing:
    def test_deaths_and_retries_appear_in_exported_trace(self, trained_setup,
                                                         tmp_path):
        model, _, x_test = trained_setup
        trace_path = tmp_path / "storm.json"
        # Each worker process hard-exits on its fourth forward and on its
        # second response-ring write (once per process).
        storm = FaultSpec(seed=3, rules=(
            FaultRule(site="worker.forward", action="crash",
                      crash_mode="exit", at=(3,), max_fires=1),
            FaultRule(site="shm.response.write", action="crash",
                      crash_mode="exit", at=(1,), max_fires=1)))
        config = ServeConfig(max_batch=8, workers="process", num_workers=2,
                             max_retries=4, trace_sample_rate=1.0,
                             faults=storm)
        result = run_loadtest(model, x_test[:48], config, rate_rps=500.0,
                              num_requests=48, trace_out=str(trace_path),
                              metrics_port=0)
        assert result.failures == 0
        assert result.chaos["worker_deaths"] >= 1 and result.chaos["recovered"]
        assert result.obs["scrapes"]["/healthz"] == 200
        document = json.loads(trace_path.read_text())
        events = validate_chrome_trace(document)
        instants = {event["name"] for event in events if event["ph"] == "i"}
        assert "worker_death" in instants
        assert "retry" in instants
        assert "worker_respawn" in instants


class TestLoadgenObs:
    def test_loadtest_collects_trace_metrics_and_scrapes(self, trained_setup,
                                                         tmp_path):
        model, _, x_test = trained_setup
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        config = ServeConfig(max_batch=8, trace_sample_rate=1.0)
        result = run_loadtest(model, x_test[:32], config, rate_rps=100000.0,
                              num_requests=32, trace_out=str(trace_path),
                              metrics_port=0, metrics_out=str(metrics_path))
        assert result.failures == 0
        obs = result.obs
        assert obs["traced_requests"] == 32
        assert obs["spans"] > 0 and obs["dropped_spans"] == 0
        assert set(obs["scrapes"]) == {"/metrics", "/metrics.json",
                                       "/healthz", "/readyz"}
        assert all(status == 200 for status in obs["scrapes"].values())
        validate_chrome_trace(json.loads(trace_path.read_text()))
        metrics = json.loads(metrics_path.read_text())
        assert metrics["requests"] == 32
        assert "observability:" in result.render()

    def test_loadtest_without_obs_flags_keeps_obs_none(self, trained_setup):
        model, _, x_test = trained_setup
        result = run_loadtest(model, x_test[:8], ServeConfig(max_batch=8),
                              rate_rps=100000.0, num_requests=8)
        assert result.obs is None


class TestObsCli:
    def test_serve_parser_accepts_obs_flags(self):
        parser = build_serve_parser("loadtest")
        args = parser.parse_args([
            "--trace-out", "trace.json", "--trace-sample", "0.5",
            "--metrics-port", "0", "--metrics-out", "metrics.json"])
        assert args.trace_out == "trace.json"
        assert args.trace_sample == 0.5
        assert args.metrics_port == 0
        config = _config_from_args(args)
        assert config.trace_sample_rate == 0.5

    def test_trace_out_implies_full_sampling(self):
        parser = build_serve_parser("loadtest")
        config = _config_from_args(
            parser.parse_args(["--trace-out", "trace.json"]))
        assert config.trace_sample_rate == 1.0
        config = _config_from_args(parser.parse_args([]))
        assert config.trace_sample_rate == 0.0

    def test_run_parser_accepts_trace_out(self):
        from repro.exec.cli import build_run_parser

        args = build_run_parser().parse_args(["--trace-out", "t.json"])
        assert args.trace_out == "t.json"

    def test_run_rejects_trace_out_with_pipeline(self):
        from repro.exec.cli import build_run_parser, run_run_command

        args = build_run_parser().parse_args(
            ["--trace-out", "t.json", "--pipeline-stages", "2"])
        with pytest.raises(SystemExit):
            run_run_command(args)


class TestTransportCounters:
    def test_thread_service_reports_zero_shm_counters(self, trained_setup):
        model, _, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(max_batch=8))
            await service.start()
            try:
                await service.submit_many(x_test[:8])
                return service.transport_counters()
            finally:
                await service.stop()

        counters = run_async(scenario())
        assert counters == {"request_writes": 0, "request_bytes": 0,
                            "response_writes": 0, "response_bytes": 0}

    def test_shm_service_counts_ring_writes(self, trained_setup):
        model, _, x_test = trained_setup

        async def scenario():
            service = InferenceService(model, ServeConfig(
                max_batch=8, workers="process"))
            await service.start()
            try:
                # The first batch travels by value (it teaches the rings
                # their layout); later batches go zero-copy both ways.
                await service.submit_many(x_test[:8])
                await service.submit_many(x_test[8:16])
                return service.transport_counters()
            finally:
                await service.stop()

        counters = run_async(scenario())
        assert counters["request_writes"] >= 1
        assert counters["request_bytes"] > 0
        assert counters["response_writes"] >= 1
        assert counters["response_bytes"] > 0
