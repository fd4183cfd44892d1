"""The scrape surface: ``/metrics``, ``/metrics.json``, ``/healthz``, ``/readyz``.

A :class:`MetricsServer` is a stdlib ``ThreadingHTTPServer`` on a daemon
thread — no framework, no sockets held after :meth:`close`.  It talks to
the service through a :class:`ServiceProbe`, which is deliberately
duck-typed (anything with ``metrics_snapshot`` / ``alive_worker_count``
works) so this module imports nothing from :mod:`repro.serve`.

Probe semantics (the contract ROADMAP item 1 asks for):

``/healthz``
    Liveness — 200 as long as the serving process is up and the event
    loop has ever started.  A chaos run that downs every *worker* keeps
    liveness green; the supervisor should not restart the parent because
    its children died.
``/readyz``
    Readiness — 200 only while the service is started, accepting, at
    least one worker is alive (plans compiled — a worker only reports
    ready after its plan is built), and the admission queue is under its
    capacity limit.  503 otherwise, with the failing conditions in the
    JSON body.  During a full-pool outage readiness flips to 503 and
    recovers when the respawn completes.

The HTTP thread reads service state concurrently with the event loop;
every structure it touches is either a frozen snapshot, a defensive copy
(see ``ServiceMetrics.snapshot``), or a single attribute read — all safe
under the GIL.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from .exposition import render_prometheus, snapshot_to_json

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServiceProbe:
    """Adapter between an ``InferenceService`` and the scrape endpoints."""

    def __init__(self, service) -> None:
        self.service = service

    # -- probe state ----------------------------------------------------
    def healthy(self) -> Tuple[bool, Dict[str, object]]:
        started = bool(getattr(self.service, "_started", False))
        return True, {"status": "ok", "started": started}

    def ready(self) -> Tuple[bool, Dict[str, object]]:
        service = self.service
        started = bool(getattr(service, "_started", False))
        accepting = bool(getattr(service, "_accepting", False))
        alive = int(service.alive_worker_count()) if started else 0
        outstanding = int(getattr(service, "_outstanding", 0))
        capacity = getattr(service.config, "queue_capacity", None)
        under_capacity = capacity is None or outstanding < capacity
        ready = started and accepting and alive > 0 and under_capacity
        return ready, {
            "ready": ready,
            "started": started,
            "accepting": accepting,
            "alive_workers": alive,
            "outstanding": outstanding,
            "queue_capacity": capacity,
            "under_capacity": under_capacity,
        }

    # -- metrics --------------------------------------------------------
    def _live_gauges(self) -> Dict[str, float]:
        service = self.service
        ready, _ = self.ready()
        gauges = {
            "alive_workers": float(service.alive_worker_count()
                                   if getattr(service, "_started", False)
                                   else 0),
            "outstanding_requests": float(getattr(service, "_outstanding", 0)),
            "ready": 1.0 if ready else 0.0,
        }
        counters = getattr(service, "transport_counters", None)
        if callable(counters):
            for key, value in counters().items():
                gauges[f"shm_{key}"] = float(value)
        return gauges

    def metrics_text(self) -> str:
        return render_prometheus(self.service.metrics_snapshot(),
                                 extra_gauges=self._live_gauges())

    def metrics_json(self) -> dict:
        return snapshot_to_json(self.service.metrics_snapshot(),
                                extra_gauges=self._live_gauges())


class _Handler(BaseHTTPRequestHandler):
    probe: ServiceProbe  # set per-server via the factory in MetricsServer

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                self._respond(200, PROMETHEUS_CONTENT_TYPE,
                              self.probe.metrics_text().encode("utf-8"))
            elif path == "/metrics.json":
                self._respond_json(200, self.probe.metrics_json())
            elif path == "/healthz":
                ok, body = self.probe.healthy()
                self._respond_json(200 if ok else 503, body)
            elif path == "/readyz":
                ok, body = self.probe.ready()
                self._respond_json(200 if ok else 503, body)
            else:
                self._respond_json(404, {"error": f"unknown path {path}",
                                         "paths": ["/metrics", "/metrics.json",
                                                   "/healthz", "/readyz"]})
        except Exception as exc:  # scrape must never take the service down
            self._respond_json(500, {"error": repr(exc)})

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, status: int, document: dict) -> None:
        self._respond(status, "application/json",
                      json.dumps(document).encode("utf-8"))

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass  # scrapes should not spam the serving console


class MetricsServer:
    """A daemon-thread HTTP server exposing one probe's scrape endpoints."""

    def __init__(self, probe: ServiceProbe, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.probe = probe
        handler = type("BoundHandler", (_Handler,), {"probe": probe})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self._server.server_address[1]

    def url(self, path: str = "/metrics") -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}{path}"

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-obs-http", daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
