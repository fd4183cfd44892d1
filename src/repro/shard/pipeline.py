"""The pipeline executor: stage processes joined by shared-memory slot rings.

:class:`ShardedPipeline` runs pickled stage plans as a chain of dedicated
worker processes.  Batches stream through the chain as micro-batches: while
stage 1 computes batch *b*, stage 0 is already computing batch *b+1*, so
steady-state throughput approaches the slowest stage instead of the sum of
all stages — the standard pipeline-parallel deployment of multi-macro CIM
accelerators.  A chain of one stage running the whole op program
(``plan.stage(0, len(plan.ops))``) is the serving layer's process worker
(``ServeConfig(workers="process")``).

Every **edge** of the chain (parent→stage 0, stage *i*→stage *i+1*, last
stage→parent) owns one parent-created :class:`~repro.serve.shm.SlotRing`
and a *ready* queue carrying ``(seq, slot, shape)`` coordinates of filled
slots downstream.  Slots are owned by sequence number: batches complete in
FIFO order and at most ``W = stages + slots`` of them are in flight, so
batch ``seq`` owns slot ``seq % W`` on every edge — batch ``seq - W`` has
fully completed (every stage read its slots, the parent copied its result
out) before ``seq`` is admitted.  The in-flight window is the
backpressure; no free-slot queue returns drained slots upstream.  Slot
layouts are learned from the first batch, which rides the queues by value;
oversized batches keep falling back to by-value transfer per batch.  The
parent creates and unlinks every segment, so ``close()`` removes them from
``/dev/shm`` even when a stage process was SIGKILLed mid-batch (stages
attach tracker-free and only ever close their mapping).

Fault-injection sites: the parent's edge-0 writes fire
``shm.request.write``, the last stage's writes fire
``shm.response.write`` and interior edges fire ``pipeline.edge.write``.

Completion messages accumulate per-stage accounting as they flow: each
stage appends its cumulative forward seconds, bubble seconds (input
starvation after the first batch — the pipeline-imbalance signal),
transport seconds (slot copies), conversions and its plan's
DAC/crossbar/ADC/digital profile, so the parent always holds a current
per-stage occupancy snapshot without a separate stats round-trip.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import multiprocessing.connection
import pickle
import queue as queue_module
import threading
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec import blas
from repro.faults import injector as fault_injector
from repro.obs.trace import PlanTraceBuffer, plan_trace
from repro.serve.shm import IntegrityError, SlotRing

#: Serialises stage-process forks across threads (concurrent respawns).  A
#: fork from another thread between a ``Process.start``'s sentinel
#: ``pipe()`` and its parent-side ``close`` of the write end hands that
#: write end to the other child, and the first process's death then goes
#: unseen by :meth:`ShardedPipeline._watch_stages` while the other lives.
_FORK_LOCK = threading.Lock()


class PipelineStageError(RuntimeError):
    """Raised (via batch futures) when a stage fails or dies mid-run."""


class StageDiedError(PipelineStageError):
    """A stage *process* died (SIGKILL, OOM, crash) rather than a batch
    merely raising inside its forward.

    The distinction matters to the serving layer's failure classifier:
    a dead stage is a worker-level fault whose in-flight batches are
    re-dispatchable to other replicas, while a plain
    :class:`PipelineStageError` from a forward exception would fail the
    same way anywhere and must be returned to the client.
    """


class StageCorruptionError(PipelineStageError):
    """A stage-ring slot failed its CRC32 check (``checksum=True`` rings).

    Classified apart from both plain stage errors and stage deaths: the
    *transport* mangled the batch, so the batch is re-dispatchable and the
    stage processes themselves stay up.
    """


def _start_heartbeat(ring: SlotRing, slot: int, interval_s: float) -> None:
    """Daemon thread bumping this process's heartbeat counter.

    The counter lives in a parent-owned shared-memory ring; the parent's
    watchdog declares the process hung when the counter stops advancing.
    A daemon thread dies with the process, so a SIGKILLed/SIGSTOPped (or
    otherwise frozen) worker stops beating — which is exactly the class
    of fault the dispatch deadline alone cannot see while no batch is in
    flight.
    """
    cell = ring.view(slot, (1,), np.float64)

    def _beat() -> None:
        count = 0.0
        while True:
            count += 1.0
            cell[0] = count
            time.sleep(interval_s)

    threading.Thread(target=_beat, daemon=True,
                     name=f"heartbeat-{slot}").start()


def _stage_main(payload: bytes, stage_index: int, ready_in, ready_out,
                control, options: Optional[Dict] = None) -> None:
    """One pipeline stage process: load the stage plan, stream batches.

    Messages on the ready queues:

    * ``("batch", seq, desc, stats[, traced])`` — one micro-batch; ``desc``
      is ``("shm", slot, shape)`` or ``("data", array)``; ``stats`` is the
      list of upstream per-stage accounting dicts this stage appends to.
      A truthy ``traced`` flag asks every stage to record per-layer plan
      spans for this batch (stage-local ``perf_counter`` clock, relative
      to the stage's forward start) and ship them in its stats dict under
      ``"spans"`` / ``"batch_forward_s"`` — the parent re-anchors them.
    * ``("err", seq, message, stats[, kind])`` — a batch a stage failed
      on; propagated untouched so the parent can fail exactly that
      future.  ``kind == "corrupt"`` marks a CRC failure so the parent
      can classify it as a re-dispatchable transport fault.
    * ``("attach", descs)`` — ring coordinates for every edge; the stage
      attaches its input/output rings and forwards the message.  Batch
      ``seq`` is written to output slot ``seq % slots`` (see the module
      docstring for why that slot is free).  An output that is a view of
      the input slot (a reshape-only stage) is safe to hand on: the slot
      is not rewritten before the batch has left the last edge.
    * ``None`` — shutdown; forwarded downstream before exiting.

    ``options`` carries the robustness extras: ``checksum`` switches the
    stage rings to CRC32 slot headers, ``fault_spec`` installs the
    process-global deterministic fault injector, and ``heartbeat`` is the
    ``(name, slots, interval_s)`` coordinates of the parent's heartbeat
    ring this stage bumps its own slot in.
    """
    options = options or {}
    try:
        if options.get("fault_spec"):
            fault_injector.install(options["fault_spec"])
        # One BLAS thread for the stage process's lifetime: its parallelism
        # comes from the other stages and workers, and its plan forwards
        # then find the count at 1 and make no set calls.
        blas.set_blas_threads(1)
        plan = pickle.loads(payload)
        conversions_baseline = plan.conversions()
        heartbeat = options.get("heartbeat")
        if heartbeat is not None:
            hb_name, hb_slots, hb_interval = heartbeat
            hb_ring = SlotRing.attach(hb_name, hb_slots, 8)
            _start_heartbeat(hb_ring, stage_index, hb_interval)
    except BaseException as exc:  # noqa: BLE001 — report, then die
        control.put(("error", stage_index, repr(exc)))
        return
    control.put(("ready", stage_index))
    in_ring: Optional[SlotRing] = None
    out_ring: Optional[SlotRing] = None
    batches = 0
    forward_s = 0.0
    bubble_s = 0.0
    transport_s = 0.0
    in_row_nbytes = 0
    out_row_nbytes = 0
    served_first = False
    try:
        while True:
            wait_start = time.perf_counter()
            message = ready_in.get()
            waited = time.perf_counter() - wait_start
            if message is None:
                ready_out.put(None)
                return
            kind = message[0]
            if kind == "attach":
                descs = message[1]
                in_ring = SlotRing.attach(*descs[stage_index])
                out_ring = SlotRing.attach(*descs[stage_index + 1])
                if fault_injector.get_installed() is not None:
                    # Downstream handoff corruption is injected post-CRC
                    # into the slot this stage just wrote.
                    last = stage_index + 2 == len(descs)
                    out_ring.fault_site = ("shm.response" if last
                                           else "pipeline.edge")
                ready_out.put(message)
                continue
            if kind == "err":
                ready_out.put(message)
                continue
            _, seq, desc, stats = message[:4]
            traced = bool(message[4]) if len(message) > 4 else False
            if served_first:
                bubble_s += waited
            served_first = True
            batch_forward_s = 0.0
            batch_spans: List = []
            try:
                if desc[0] == "shm":
                    batch = in_ring.read(desc[1], desc[2])
                else:
                    batch = desc[1]
                fault_injector.fire("worker.forward")
                tick = time.perf_counter()
                if traced:
                    buffer = PlanTraceBuffer(t0=tick)
                    with plan_trace(buffer):
                        result = plan.forward(batch)
                    batch_spans = buffer.records
                else:
                    result = plan.forward(batch)
                batch_forward_s = time.perf_counter() - tick
                forward_s += batch_forward_s
                result = np.ascontiguousarray(
                    np.asarray(result, dtype=np.float64))
            except BaseException as exc:  # noqa: BLE001 — fail the batch only
                err_kind = ("corrupt" if isinstance(exc, IntegrityError)
                            else "error")
                ready_out.put(("err", seq,
                               f"stage {stage_index}: {exc!r}", stats,
                               err_kind))
                continue
            rows = max(int(np.asarray(batch).shape[0]), 1)
            in_row_nbytes = max(in_row_nbytes,
                                int(np.asarray(batch).nbytes) // rows)
            out_rows = max(int(result.shape[0]), 1)
            out_row_nbytes = max(out_row_nbytes, result.nbytes // out_rows)
            tick = time.perf_counter()
            if out_ring is not None and out_ring.fits(result.nbytes):
                slot_out = seq % out_ring.slots
                out_ring.write(slot_out, result)
                desc_out: Tuple = ("shm", slot_out, result.shape)
            else:
                desc_out = ("data", result)
            transport_s += time.perf_counter() - tick
            batches += 1
            stage_stats = {
                "stage": stage_index,
                "layers": plan.op_range,
                "batches": batches,
                "forward_s": forward_s,
                "bubble_s": bubble_s,
                "transport_s": transport_s,
                "conversions": plan.conversions() - conversions_baseline,
                "macros": plan.num_macros(),
                "in_row_nbytes": in_row_nbytes,
                "out_row_nbytes": out_row_nbytes,
                "profile": plan.stage_profile(),
                "blas_threads": blas.blas_threads(),
                "scratch_bytes": plan.arena.nbytes(),
                "largest_slab": plan.arena.largest_slab(),
            }
            if traced:
                stage_stats["spans"] = batch_spans
                stage_stats["batch_forward_s"] = batch_forward_s
            ready_out.put(("batch", seq, desc_out, stats + [stage_stats],
                           traced))
    finally:
        for ring in (in_ring, out_ring):
            if ring is not None:
                ring.close()


class ShardedPipeline:
    """Stage processes joined by per-edge shared-memory slot rings.

    ``submit`` enqueues one micro-batch and returns a
    :class:`concurrent.futures.Future` resolving to ``(logits, stats)``;
    multiple submissions stream through the stages concurrently (that is
    the whole point), with in-flight batches capped at the window
    ``stages + slots`` — also the slot count of every edge ring.
    ``forward`` is the synchronous single-batch convenience.

    The parent owns every shared-memory segment and every queue; ``close``
    shuts the chain down (sentinel first, terminate stragglers), fails any
    pending futures and always unlinks the segments — including after a
    stage crash.
    """

    def __init__(self, payloads: Sequence[bytes], max_batch: int = 64,
                 slots: int = 2, start_timeout_s: float = 60.0,
                 checksum: bool = False, fault_spec: Optional[Dict] = None,
                 heartbeat_interval_s: Optional[float] = None) -> None:
        if not payloads:
            raise ValueError("need at least one stage payload")
        self.num_stages = len(payloads)
        self._payloads = list(payloads)
        self.max_batch = max(int(max_batch), 1)
        self.slots = max(int(slots), 1)
        #: In-flight batch bound and ring slots per edge (batch ``seq``
        #: owns slot ``seq % window`` on every edge).
        self.window = self.num_stages + self.slots
        self.start_timeout_s = start_timeout_s
        #: CRC32 slot headers on every stage ring (see repro.serve.shm).
        self.checksum = bool(checksum)
        #: Deterministic fault spec (plain dict form) installed into every
        #: stage process; None disables injection entirely.
        self.fault_spec = fault_spec
        #: Stage heartbeat period; None disables the heartbeat ring.
        self.heartbeat_interval_s = heartbeat_interval_s
        self._heartbeat_ring: Optional[SlotRing] = None
        self._procs: List[multiprocessing.Process] = []
        self._ready: List = []
        self._control = None
        self._rings: List[Optional[SlotRing]] = []
        self._shm_ready = False
        self._started = False
        self._closed = False
        self._failure: Optional[BaseException] = None
        self._seq = 0
        self._futures: Dict[int, "concurrent.futures.Future"] = {}
        self._submit_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._latest_stats: List[Dict] = []
        self._in_row_nbytes: Optional[int] = None
        self._response_reads = 0
        self._response_bytes = 0
        self._collector: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the stage processes and wait until every plan loaded."""
        if self._started:
            raise RuntimeError("pipeline already started")
        context = multiprocessing.get_context()
        edges = self.num_stages + 1
        self._ready = [context.Queue() for _ in range(edges)]
        self._control = context.Queue()
        self._rings = [None] * edges
        heartbeat = None
        if self.heartbeat_interval_s is not None:
            try:
                # One 8-byte float64 counter slot per stage, parent-owned.
                self._heartbeat_ring = SlotRing(self.num_stages, 8)
                heartbeat = (self._heartbeat_ring.name, self.num_stages,
                             float(self.heartbeat_interval_s))
            except Exception as exc:  # noqa: BLE001 — /dev/shm unavailable
                warnings.warn(
                    f"stage heartbeat ring unavailable ({exc!r}); "
                    "running without the heartbeat watchdog",
                    RuntimeWarning, stacklevel=2)
                self._heartbeat_ring = None
        options = {"checksum": self.checksum, "fault_spec": self.fault_spec,
                   "heartbeat": heartbeat}
        self._procs = [
            context.Process(
                target=_stage_main,
                args=(self._payloads[index], index, self._ready[index],
                      self._ready[index + 1], self._control, options),
                daemon=True,
                name=f"pipeline-stage-{index}",
            )
            for index in range(self.num_stages)
        ]
        with _FORK_LOCK:
            for proc in self._procs:
                proc.start()
        self._started = True
        try:
            self._await_stage_readiness()
        except Exception:
            self.close()
            raise
        self._collector = threading.Thread(target=self._collect_loop,
                                           daemon=True,
                                           name="pipeline-collector")
        self._collector.start()
        threading.Thread(target=self._watch_stages, daemon=True,
                         name="pipeline-watcher").start()

    def _await_stage_readiness(self) -> None:
        deadline = time.monotonic() + self.start_timeout_s
        pending = set(range(self.num_stages))
        while pending:
            timeout = max(deadline - time.monotonic(), 0.01)
            try:
                message = self._control.get(timeout=timeout)
            except queue_module.Empty:
                raise PipelineStageError(
                    f"stages {sorted(pending)} did not come up within "
                    f"{self.start_timeout_s:.0f}s"
                ) from None
            if message[0] == "error":
                raise PipelineStageError(
                    f"stage {message[1]} failed to load its plan: {message[2]}"
                )
            pending.discard(message[1])

    def close(self) -> None:
        """Shut the stages down, fail pending work, unlink every segment."""
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        try:
            self._ready[0].put(None)
        except Exception:  # noqa: BLE001 — queue may already be broken
            pass
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._collector is not None:
            self._collector.join(timeout=2.0)
        self._fail_pending(PipelineStageError("pipeline closed"))
        for ring in self._rings:
            if ring is not None:
                ring.close()
                ring.unlink()
        if self._heartbeat_ring is not None:
            self._heartbeat_ring.close()
            self._heartbeat_ring.unlink()
            self._heartbeat_ring = None
        for q in self._ready + [self._control]:
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass

    def kill(self) -> None:
        """SIGKILL every stage process immediately (hung-pipeline reaper).

        ``close()`` joins the stages with a grace period first, which is
        right for an orderly stop but wrong for a *hung* stage that will
        never drain its sentinel; the serving layer's watchdog calls this
        before ``close()`` so teardown cannot block on a wedged process.
        """
        for proc in self._procs:
            if proc.is_alive():
                try:
                    proc.kill()
                except Exception:  # noqa: BLE001 — already reaped
                    pass

    def pids(self) -> List[int]:
        """PIDs of the live stage processes, in stage order."""
        return [int(proc.pid) for proc in self._procs if proc.is_alive()]

    def heartbeat_counts(self) -> Optional[Tuple[float, ...]]:
        """Current per-stage heartbeat counters, or None when disabled."""
        if self._heartbeat_ring is None:
            return None
        return tuple(
            float(self._heartbeat_ring.view(stage, (1,), np.float64)[0])
            for stage in range(self.num_stages)
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, images: np.ndarray,
               traced: bool = False) -> "concurrent.futures.Future":
        """Enqueue one micro-batch; future resolves to ``(logits, stats)``.

        Blocks only while ``window`` batches are in flight; the returned
        future completes when the batch has flowed through every stage.
        ``traced=True`` asks every stage to record per-layer plan spans for
        this batch and ship them back in its stats dict (see
        :func:`_stage_main`).
        """
        if not self._started or self._closed:
            raise PipelineStageError("pipeline is not running")
        if self._failure is not None:
            raise self._failure_class()(
                f"pipeline failed: {self._failure}") from self._failure
        batch = np.ascontiguousarray(np.asarray(images, dtype=np.float64))
        with self._submit_lock:
            if not self._wait_for_inflight_capacity():
                raise self._failure_class()(
                    "pipeline failed while waiting for submission capacity"
                    + (f": {self._failure}" if self._failure else ""))
            seq = self._seq
            self._seq += 1
            future: "concurrent.futures.Future" = concurrent.futures.Future()
            self._futures[seq] = future
            if self._in_row_nbytes is None:
                rows = max(int(batch.shape[0]), 1)
                self._in_row_nbytes = max(batch.nbytes // rows, 1)
            ring = self._rings[0]
            if self._shm_ready and ring is not None and ring.fits(batch.nbytes):
                slot = seq % self.window
                ring.write(slot, batch)
                self._ready[0].put(("batch", seq, ("shm", slot, batch.shape),
                                    [], traced))
            else:
                self._ready[0].put(("batch", seq, ("data", batch), [],
                                    traced))
            if (self._failure is not None or self._closed) and not future.done():
                # The pipeline died around this submission and the
                # collector's cleanup may already have drained the future
                # table; fail the future here rather than leave it hanging.
                self._futures.pop(seq, None)
                future.set_exception(
                    self._failure if self._failure is not None
                    else PipelineStageError("pipeline closed"))
        return future

    def _wait_for_inflight_capacity(self) -> bool:
        """Hold ``submit`` while ``window`` batches are in flight.

        This is the backpressure, and what makes slot ``seq % window``
        free: a future leaves ``_futures`` only once its batch left the
        last edge (a cancelled future stays until then), and batches
        complete in order.  Returns False when the pipeline failed or
        closed while waiting.
        """
        while len(self._futures) >= self.window:
            if self._closed or self._failure is not None:
                return False
            time.sleep(0.001)
        return True

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Run one batch through the whole chain and return its logits."""
        logits, _ = self.submit(images).result()
        return logits

    # ------------------------------------------------------------------
    # Parent-side collection
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        final_ready = self._ready[-1]
        while True:
            try:
                message = final_ready.get(timeout=0.2)
            except queue_module.Empty:
                if self._closed or self._failure is not None:
                    return
                continue
            except (OSError, ValueError, EOFError):
                return  # queues torn down under us during close
            if message is None:
                return
            kind = message[0]
            if kind == "attach":
                continue  # the attach round-trip marker; nothing to do
            if kind == "err":
                _, seq, text, stats = message[:4]
                corrupt = len(message) > 4 and message[4] == "corrupt"
                self._record_stats(stats)
                error_class = (StageCorruptionError if corrupt
                               else PipelineStageError)
                self._settle(seq, error=error_class(text))
                continue
            _, seq, desc, stats = message[:4]
            if desc[0] == "shm":
                try:
                    logits = np.array(self._rings[-1].read(desc[1], desc[2]))
                except IntegrityError as exc:
                    self._record_stats(stats)
                    self._settle(seq, error=StageCorruptionError(
                        f"final stage ring: {exc}"))
                    continue
                self._response_reads += 1
                self._response_bytes += logits.nbytes
            else:
                logits = desc[1]
            self._record_stats(stats)
            self._maybe_build_rings(stats)
            self._settle(seq, result=(logits, stats))

    def _settle(self, seq: int, result=None,
                error: Optional[BaseException] = None) -> None:
        """Complete batch ``seq``'s future, unless its waiter cancelled it."""
        future = self._futures.pop(seq, None)
        if future is None or not future.set_running_or_notify_cancel():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def _watch_stages(self) -> None:
        """Fail every in-flight batch as soon as any stage process exits.

        Waiting on the process sentinels makes death detection immediate,
        so batches do not pile up behind a dead worker while the serving
        layer still places work on it.
        """
        multiprocessing.connection.wait([proc.sentinel
                                         for proc in self._procs])
        if not self._closed:
            dead = [index for index, proc in enumerate(self._procs)
                    if not proc.is_alive()]
            self._abort(StageDiedError(
                f"pipeline stage process(es) {dead} died"))

    def _record_stats(self, stats: List[Dict]) -> None:
        if stats:
            with self._state_lock:
                self._latest_stats = stats

    def _maybe_build_rings(self, stats: List[Dict]) -> None:
        """Learn slot layouts from the first completed batch, go zero-copy."""
        if self._shm_ready or self._rings[0] is not None:
            return
        if len(stats) != self.num_stages or self._in_row_nbytes is None:
            return
        row_nbytes = [self._in_row_nbytes] + [
            int(stage["out_row_nbytes"]) for stage in stats
        ]
        if any(nbytes <= 0 for nbytes in row_nbytes):
            return
        rings: List[SlotRing] = []
        try:
            for nbytes in row_nbytes:
                rings.append(SlotRing(self.window, nbytes * self.max_batch,
                                      checksum=self.checksum))
        except Exception as exc:  # noqa: BLE001 — /dev/shm unavailable
            for ring in rings:
                ring.close()
                ring.unlink()
            self._shm_ready = True  # don't retry every batch
            self._rings = [None] * (self.num_stages + 1)
            warnings.warn(
                f"shared-memory stage rings unavailable ({exc!r}); "
                "pipeline stays on by-value transport",
                RuntimeWarning, stacklevel=2)
            return
        self._rings = list(rings)
        if self.fault_spec:
            # Edge 0 is written by the parent process; the other edges'
            # writers set their own site when they attach.
            rings[0].fault_site = "shm.request"
        descs = [(ring.name, self.window, ring.slot_nbytes, ring.checksum)
                 for ring in rings]
        self._ready[0].put(("attach", descs))
        self._shm_ready = True

    def _failure_class(self) -> type:
        """Error type preserving whether the recorded failure was a death."""
        if isinstance(self._failure, StageDiedError):
            return StageDiedError
        return PipelineStageError

    def _abort(self, error: BaseException) -> None:
        self._failure = error
        self._fail_pending(error)

    def _fail_pending(self, error: BaseException) -> None:
        with self._submit_lock:
            pending = list(self._futures.values())
            self._futures.clear()
        for future in pending:
            if future.set_running_or_notify_cancel():
                future.set_exception(error)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stage_stats(self) -> List[Dict]:
        """Latest raw per-stage accounting dicts (profiles included)."""
        with self._state_lock:
            return [dict(stage) for stage in self._latest_stats]

    def transport_counters(self) -> Dict[str, int]:
        """Parent-side shm traffic: edge-0 writes and final-edge copy-outs.

        The ``response_*`` keys count the parent's reads of the last edge
        (the logits it copies out); the stage processes' own writes are
        not visible here.
        """
        ring = self._rings[0] if self._rings else None
        return {
            "request_writes": ring.writes if ring is not None else 0,
            "request_bytes": ring.bytes_written if ring is not None else 0,
            "response_writes": self._response_reads,
            "response_bytes": self._response_bytes,
        }

    @property
    def segment_names(self) -> List[str]:
        """Names of the live shared-memory segments (empty pre-warm-up)."""
        names = [ring.name for ring in self._rings if ring is not None]
        if self._heartbeat_ring is not None:
            names.append(self._heartbeat_ring.name)
        return names
