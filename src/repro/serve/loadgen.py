"""Open-loop load generation: drive the service with a realistic arrival
process.

Open loop means arrivals do not wait for completions — exactly how outside
traffic hits a real service — so queueing delay and batching behaviour show
up honestly instead of being hidden by client back-pressure.  Every process
is seeded, so a load test (and the CI smoke job) is reproducible down to
the arrival timestamps.

Arrival processes
-----------------
``poisson``
    Exponential inter-arrival times at a fixed mean rate — the standard
    memoryless traffic model.
``bursty``
    A two-state modulated Poisson process: geometrically-distributed runs
    of requests at ``burst_factor x`` the base rate separated by quiet
    phases, with the phases sized so the *mean* offered rate equals the
    requested rate.  Sustained bursts grow queues and stretch tail latency.
``uniform``
    Deterministic, evenly spaced arrivals — the control case.

Verdicts
--------
:func:`run_loadtest` drives one open loop; what it summarises follows from
the service config, never from a separate drive switch:

``ServeConfig.faults``
    A chaos drive: the faults come from the seeded ``FaultSpec`` (hangs,
    crashes, slot corruption, delays at named injection sites; a
    ``crash`` with ``crash_mode="exit"`` at a worker-process site is a
    worker death).  After the traffic, the run waits for the pool to
    respawn to full strength, and ``LoadResult.chaos`` carries the
    recovery summary, the fault-tolerance counters and the injector's
    fire report.  The contract is zero client-visible failures and full
    recovery, replayable from ``(seed, fault_spec)`` alone.
``ServeConfig.queue_capacity``
    An overload drive: ``LoadResult.chaos`` adds an admission-control
    summary (completed vs. dropped); with an offered rate above capacity
    it checks that overload sheds load instead of failing served requests.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.model import Model
from repro.obs.http import MetricsServer, ServiceProbe
from repro.obs.trace import validate_span_tree
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.exposition import snapshot_to_json
from repro.serve.metrics import METRICS, MetricsSnapshot
from repro.serve.service import InferenceService, ServeConfig


def poisson_arrivals(rate_rps: float, num_requests: int, seed: int = 0) -> np.ndarray:
    """Cumulative arrival times (seconds) of a Poisson process."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    return np.cumsum(gaps)


def bursty_arrivals(rate_rps: float, num_requests: int, seed: int = 0,
                    burst_factor: float = 8.0, burst_fraction: float = 0.25,
                    mean_burst_length: float = 16.0) -> np.ndarray:
    """Cumulative arrival times of a two-state (on/off) modulated Poisson
    process.

    The generator alternates between a *burst* state emitting at
    ``burst_factor x rate_rps`` and a *quiet* state emitting at a reduced
    off-rate.  State runs are geometrically distributed: bursts hold for
    ``mean_burst_length`` requests on average, quiet phases for however long
    keeps the burst share of requests at ``burst_fraction`` — and the
    off-rate is chosen so the overall mean rate stays ``rate_rps``.  Unlike
    an i.i.d. heavy-tailed gap mixture, the runs produce *sustained* bursts,
    which is what actually grows queues and stretches tail latency.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if burst_factor <= 1.0:
        raise ValueError("burst_factor must be > 1")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    if mean_burst_length < 1.0:
        raise ValueError("mean_burst_length must be >= 1")
    rng = np.random.default_rng(seed)
    burst_rate = burst_factor * rate_rps
    # Mean interval must equal 1/rate:  f/burst_rate + (1-f)/off_rate = 1/rate.
    off_interval = (1.0 / rate_rps - burst_fraction / burst_rate) / (1.0 - burst_fraction)
    # Burst runs average mean_burst_length requests; quiet runs are sized so
    # bursts carry burst_fraction of all requests.
    mean_quiet_length = mean_burst_length * (1.0 - burst_fraction) / burst_fraction
    gaps: List[float] = []
    in_burst = bool(rng.random() < burst_fraction)
    while len(gaps) < num_requests:
        if in_burst:
            run = rng.geometric(min(1.0, 1.0 / mean_burst_length))
            gaps.extend(rng.exponential(1.0 / burst_rate, size=run))
        else:
            run = rng.geometric(min(1.0, 1.0 / mean_quiet_length))
            gaps.extend(rng.exponential(off_interval, size=run))
        in_burst = not in_burst
    return np.cumsum(np.asarray(gaps[:num_requests], dtype=np.float64))


def uniform_arrivals(rate_rps: float, num_requests: int, seed: int = 0) -> np.ndarray:
    """Evenly spaced arrivals at exactly ``rate_rps`` (seed unused)."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    return (np.arange(num_requests) + 1) / rate_rps


#: Arrival-process name -> generator of cumulative arrival times.
ARRIVAL_PROCESSES: Dict[str, Callable[..., np.ndarray]] = {
    "poisson": poisson_arrivals,
    "bursty": bursty_arrivals,
    "uniform": uniform_arrivals,
}


def make_arrivals(pattern: str, rate_rps: float, num_requests: int,
                  seed: int = 0, **kwargs) -> np.ndarray:
    """Generate arrival times for a named pattern.

    Raises ``KeyError`` listing the known patterns on an unknown name.
    """
    try:
        generator = ARRIVAL_PROCESSES[pattern]
    except KeyError:
        raise KeyError(
            f"unknown arrival pattern {pattern!r}; "
            f"known patterns: {', '.join(sorted(ARRIVAL_PROCESSES))}"
        ) from None
    return generator(rate_rps, num_requests, seed=seed, **kwargs)


@dataclasses.dataclass(frozen=True)
class LoadResult:
    """Outcome of one open-loop load run."""

    logits: np.ndarray
    snapshot: MetricsSnapshot
    offered_rate_rps: float
    wall_time_s: float
    failures: int
    #: Per-worker plan-stage breakdowns, when the load test collected them.
    stage_profiles: Optional[List[Dict[str, float]]] = None
    #: Chaos recovery and overload shedding summary, when the config
    #: asks for either (``faults`` / ``queue_capacity``).
    chaos: Optional[Dict[str, object]] = None
    #: Observability summary (trace export, scrape statuses), when the
    #: load test ran with ``trace_out`` / ``metrics_port`` / ``metrics_out``.
    obs: Optional[Dict[str, object]] = None

    @property
    def achieved_rps(self) -> float:
        """Completed requests per second over the whole run."""
        if self.wall_time_s <= 0:
            return float("inf")
        return self.snapshot.requests / self.wall_time_s

    def render(self) -> str:
        """Offered vs. achieved load followed by the metrics report."""
        text = (
            f"Offered load: {self.offered_rate_rps:.1f} req/s, "
            f"achieved {self.achieved_rps:.1f} req/s, "
            f"{self.failures} failed/dropped\n" + self.snapshot.render()
        )
        if self.chaos:
            pairs = ", ".join(f"{key}={value}"
                              for key, value in self.chaos.items())
            text += f"\nsummary: {pairs}"
        if self.obs:
            pairs = ", ".join(f"{key}={value}"
                              for key, value in sorted(self.obs.items()))
            text += f"\nobservability: {pairs}"
        return text


async def run_open_loop(service: InferenceService, images: np.ndarray,
                        arrivals: np.ndarray, time_scale: float = 1.0,
                        priorities: Optional[Sequence[str]] = None
                        ) -> LoadResult:
    """Fire requests at the service on an arrival schedule (open loop).

    ``images`` provides the request payloads (request ``i`` sends sample
    ``i % len(images)``); ``arrivals`` are cumulative offsets in seconds,
    multiplied by ``time_scale`` (``0`` submits everything immediately —
    useful for deterministic tests).  ``priorities`` optionally tags
    request ``i`` with SLO class ``priorities[i]``.  Returns logits in
    request order with failed/dropped rows zero-filled.
    """
    images = np.asarray(images, dtype=np.float64)
    arrivals = np.asarray(arrivals, dtype=np.float64) * time_scale
    if priorities is not None and len(priorities) != len(arrivals):
        raise ValueError(
            f"got {len(priorities)} priorities for {len(arrivals)} arrivals")
    loop = asyncio.get_running_loop()
    start = loop.time()
    futures: List["asyncio.Future"] = []
    for i, offset in enumerate(arrivals):
        delay = start + float(offset) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        submit_kwargs = ({} if priorities is None
                         else {"priority": priorities[i]})
        try:
            futures.append(service.submit_nowait(images[i % len(images)],
                                                 **submit_kwargs))
        except Exception:  # noqa: BLE001 — a closed service fails the request
            futures.append(None)
    results = await asyncio.gather(
        *[f for f in futures if f is not None], return_exceptions=True
    )
    wall_time = loop.time() - start
    rows = []
    failures = 0
    result_iter = iter(results)
    sample_logit: Optional[np.ndarray] = None
    for future in futures:
        outcome = None if future is None else next(result_iter)
        if outcome is None or isinstance(outcome, BaseException):
            failures += 1
            rows.append(None)
        else:
            rows.append(outcome)
            sample_logit = outcome
    width = sample_logit.shape[1] if sample_logit is not None else 0
    logits = np.zeros((len(futures), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if row is not None:
            logits[i] = row[0]
    duration = float(arrivals[-1]) if len(arrivals) else 0.0
    offered = len(arrivals) / duration if duration > 0 else float("inf")
    return LoadResult(
        logits=logits,
        snapshot=service.metrics_snapshot(),
        offered_rate_rps=offered,
        wall_time_s=wall_time,
        failures=failures,
    )


def assign_priorities(priority_mix: Dict[str, float], num_requests: int,
                      seed: int = 0) -> List[str]:
    """Seeded per-request SLO-class assignment from a ``{class: weight}``
    mix (weights are normalised, so they need not sum to one)."""
    if not priority_mix:
        raise ValueError("priority_mix must name at least one class")
    names = sorted(priority_mix)
    weights = np.asarray([float(priority_mix[name]) for name in names])
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("priority_mix weights must be non-negative and "
                         "sum to a positive total")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(names), size=num_requests,
                       p=weights / weights.sum())
    return [names[pick] for pick in picks]


def _scrape(url: str, timeout_s: float = 5.0) -> Dict[str, object]:
    """GET one scrape endpoint; returns ``{status, bytes}`` (503 is a valid
    probe answer, so HTTP errors are captured rather than raised)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            return {"status": int(response.status),
                    "bytes": len(response.read())}
    except urllib.error.HTTPError as exc:  # 503 from /readyz etc.
        return {"status": int(exc.code), "bytes": len(exc.read())}


async def _collect_obs(service: InferenceService,
                       server: Optional[MetricsServer],
                       trace_out: Optional[str],
                       metrics_out: Optional[str]) -> Dict[str, object]:
    """Export the trace, self-scrape the endpoints, dump the snapshot.

    Runs while the service is still up (the probes answer live state) and
    *validates* what it produced — a malformed Chrome trace, a disconnected
    span tree or a failing scrape raises, which is what lets the CI
    obs-smoke step be a single loadtest command.
    """
    obs: Dict[str, object] = {}
    tracer = service.tracer
    if trace_out is not None:
        document = write_chrome_trace(trace_out, tracer.spans, tracer.events)
        validate_chrome_trace(document)
        validate_span_tree(tracer.spans)
        obs.update(trace_out=trace_out,
                   traced_requests=tracer.traced_requests,
                   spans=len(tracer.spans), span_events=len(tracer.events),
                   dropped_spans=tracer.dropped_spans)
    if server is not None:
        scrapes = {}
        for path in ("/metrics", "/metrics.json", "/healthz", "/readyz"):
            scrapes[path] = await asyncio.to_thread(_scrape, server.url(path))
        for path in ("/metrics", "/metrics.json", "/healthz"):
            if scrapes[path]["status"] != 200:
                raise RuntimeError(
                    f"scrape of {path} failed with "
                    f"HTTP {scrapes[path]['status']}")
        obs["metrics_port"] = server.port
        obs["scrapes"] = {path: result["status"]
                          for path, result in scrapes.items()}
    if metrics_out is not None:
        document = snapshot_to_json(service.metrics_snapshot())
        with open(metrics_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        obs["metrics_out"] = metrics_out
    return obs


async def _await_pool_recovery(service: InferenceService,
                               timeout_s: float) -> bool:
    """Poll until the worker pool is back at full strength (or time out)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not service.pool_recovered():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(0.02)
    return True


def run_loadtest(model: Model, images: np.ndarray, config: Optional[ServeConfig] = None,
                 pattern: str = "poisson", rate_rps: float = 2000.0,
                 num_requests: int = 256, seed: int = 0,
                 time_scale: float = 1.0,
                 collect_profile: bool = False,
                 recovery_timeout_s: float = 30.0,
                 priority_mix: Optional[Dict[str, float]] = None,
                 trace_out: Optional[str] = None,
                 metrics_port: Optional[int] = None,
                 metrics_out: Optional[str] = None) -> LoadResult:
    """Start a service, drive it with a seeded arrival process, drain, report.

    ``collect_profile=True`` additionally gathers every worker's plan-stage
    breakdown (fetched from the worker processes in ``workers="process"``
    mode) before shutting the service down.

    The summary in ``LoadResult.chaos`` follows from ``config`` (see the
    module docstring): with ``faults`` set, the run waits (up to
    ``recovery_timeout_s``) for the pool to respawn to full strength and
    reports the recovery, the fault-tolerance counters and the injector's
    fire counts; with ``queue_capacity`` set, it reports admission-control
    shedding.  ``priority_mix`` tags requests with seeded SLO classes, e.g.
    ``{"interactive": 0.2, "batch": 0.8}``.

    Observability (:mod:`repro.obs`): ``trace_out`` exports the run's span
    trees as validated Chrome/Perfetto trace-event JSON (pair it with
    ``ServeConfig(trace_sample_rate=...)``); ``metrics_port`` serves
    ``/metrics``, ``/metrics.json``, ``/healthz`` and ``/readyz`` during
    the run (``0`` picks a free port) and self-scrapes them before
    shutdown, failing the load test on a malformed endpoint;
    ``metrics_out`` writes the final snapshot as JSON.  The collected
    summary lands in ``LoadResult.obs``.
    """
    config = config if config is not None else ServeConfig()
    arrivals = make_arrivals(pattern, rate_rps, num_requests, seed=seed)
    priorities = (assign_priorities(priority_mix, num_requests, seed=seed)
                  if priority_mix else None)

    async def _run() -> LoadResult:
        service = InferenceService(model, config)
        await service.start()
        server: Optional[MetricsServer] = None
        try:
            if metrics_port is not None:
                server = MetricsServer(ServiceProbe(service),
                                       port=metrics_port).start()
            result = await run_open_loop(service, images, arrivals,
                                         time_scale=time_scale,
                                         priorities=priorities)
            chaos: Dict[str, object] = {}
            if config.faults is not None:
                recovered = await _await_pool_recovery(
                    service, recovery_timeout_s)
                # The recovery wait post-dates the traffic snapshot, so
                # re-snapshot to include late respawns in the report.
                snapshot = service.metrics_snapshot()
                result = dataclasses.replace(result, snapshot=snapshot)
                chaos.update(
                    recovered=recovered,
                    alive_workers=service.alive_worker_count(),
                    **{metric.name: snapshot.counters[metric.name]
                       for metric in METRICS
                       if metric.section == "fault_tolerance" and metric.kind},
                    recovery_s=max(snapshot.recovery_times_s, default=0.0),
                    # Parent-side fire counts only; worker-site fires show
                    # up through their effects (the counters above).
                    fault_report=service.fault_report())
            if config.queue_capacity is not None:
                chaos.update(completed=result.snapshot.requests,
                             dropped=result.snapshot.counters["dropped"],
                             queue_capacity=config.queue_capacity)
            if chaos:
                result = dataclasses.replace(result, chaos=chaos)
            if collect_profile:
                result = dataclasses.replace(
                    result, stage_profiles=await service.stage_profiles())
            if trace_out is not None or server is not None or metrics_out is not None:
                # Collected before stop: the probes answer live state and
                # every span of the drained traffic is closed by now.
                obs = await _collect_obs(service, server, trace_out,
                                         metrics_out)
                result = dataclasses.replace(result, obs=obs)
        finally:
            if server is not None:
                server.close()
            await service.stop()
        return result

    return asyncio.run(_run())
