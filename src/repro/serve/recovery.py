"""The serving core's recovery policy: every fault decision, none of the effects.

An :class:`~repro.serve.service.InferenceService` builds one
:class:`RecoveryPolicy` per ``start()`` and consults it only on a failure,
at a watchdog tick and (when shedding is configured) at admission; the
service carries the answers out (kill, close, respawn, sleep, count, trace,
resolve futures).  The policy reads no clock and does no I/O: a decision
that depends on time takes ``now`` (seconds on any monotonic clock), so a
virtual clock or a seeded fault schedule can drive it directly.

Backoff attempt ``k`` (0-based) waits ``min(base * 2**k, cap)`` times
``1 + BACKOFF_JITTER * u``, ``u`` drawn from one RNG seeded by the context
seed, apart from the numpy streams so jitter never perturbs served numerics.
"""

from __future__ import annotations

import collections
from random import Random
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

from repro.serve.batcher import DEFAULT_PRIORITY

if TYPE_CHECKING:
    from repro.serve.service import ServeConfig

#: How long a batch waits for a respawn while no worker is alive.
RECOVERY_WAIT_S = 30.0
#: Beat period of the worker heartbeat threads and of the parent watchdog.
HEARTBEAT_INTERVAL_S = 0.05
#: Backoff base between failed respawn attempts of one slot.
RESPAWN_BACKOFF_BASE_S = 0.05
#: Consecutive failed respawns of one slot that open its circuit breaker.
MAX_RESPAWN_FAILURES = 3
#: Cap on one batch re-dispatch backoff (before jitter).
REDISPATCH_BACKOFF_MAX_S = 1.0
#: Cap on the backoff between failed respawn attempts (before jitter).
RESPAWN_BACKOFF_MAX_S = 5.0
#: Largest jitter, as a fraction of the backoff.
BACKOFF_JITTER = 0.25

#: Fault classes returned by :meth:`RecoveryPolicy.classify`.
HUNG, DEAD, CORRUPT, REQUEST = "hung", "dead", "corrupt", "request"


class Retry(NamedTuple):
    """Re-dispatch a batch after ``wait_s`` seconds as attempt ``attempt``."""

    wait_s: float
    attempt: int


#: The recovery fields of ``ServeConfig``: (name, check, valid range).
RECOVERY_FIELDS = (
    ("retry_policy", lambda v: v in ("redispatch", "fail_fast"),
     "'redispatch' or 'fail_fast'"),
    ("max_retries", lambda v: v >= 0, ">= 0"),
    ("dispatch_timeout_s", lambda v: v is None or v > 0, "> 0 (or None)"),
    ("heartbeat_timeout_s", lambda v: v is None or v > 0, "> 0 (or None)"),
    ("redispatch_backoff_base_s", lambda v: v >= 0, ">= 0"),
    ("shed_alive_fraction", lambda v: v is None or 0 < v <= 1,
     "in (0, 1] (or None)"),
    ("shed_timeout_threshold", lambda v: v is None or v >= 1, ">= 1 (or None)"),
    ("shed_timeout_window_s", lambda v: v > 0, "> 0"),
)


class InvalidSetting(ValueError):
    """A ``ServeConfig`` setting that cannot work; :attr:`field` names it."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class RecoveryPolicy:
    """Every recovery decision of one serving run, as plain synchronous calls."""

    def __init__(self, config: "ServeConfig") -> None:
        for name, ok, valid in RECOVERY_FIELDS:
            value = getattr(config, name)
            if not ok(value):
                raise InvalidSetting(name, f"{name} {value!r} must be {valid}")
        self.config = config
        #: Whether admission consults :meth:`shed_reason` at all.
        self.sheds = (config.shed_alive_fraction is not None
                      or config.shed_timeout_threshold is not None)
        # Degradation sheds the laxest configured class (largest flush
        # budget, the lowest SLO tier); with no classes, the default one.
        classes = config.priority_classes or {DEFAULT_PRIORITY: 0.0}
        laxest = max(classes.values())
        self.shed_classes = frozenset(
            name for name, wait in classes.items() if wait >= laxest)
        self._rng: Optional[Random] = None
        self._timeouts: collections.deque = collections.deque()
        self._respawn_failures: Dict[int, int] = {}
        self._breaker_open: set = set()
        self._heartbeats: Dict[int, Tuple[object, tuple, float]] = {}
        #: When the pool first lost a worker since it was last whole.
        self.degraded_since: Optional[float] = None

    def _backoff(self, base: float, attempt: int, cap: float) -> float:
        if self._rng is None:  # seeded on first use: most runs never back off
            self._rng = Random(
                f"serve-backoff:{getattr(self.config.context, 'seed', 0)}")
        return min(base * 2.0 ** attempt, cap) * (
            1.0 + BACKOFF_JITTER * self._rng.random())

    # -- failed dispatches ---------------------------------------------
    def classify(self, exc: BaseException, timed_out: bool, alive: bool,
                 stopping: bool) -> str:
        """The fault class of a failed dispatch.  While stopping, only a
        blown deadline is still a hang (the batch then fails anyway)."""
        # Lazy: only failures need them, and repro.shard imports this package.
        from repro.serve.shm import IntegrityError
        from repro.shard.pipeline import StageCorruptionError, StageDiedError

        if timed_out:
            return HUNG
        if stopping:
            return REQUEST
        if alive and isinstance(exc, (IntegrityError, StageCorruptionError)):
            return CORRUPT
        if not alive or isinstance(exc, StageDiedError):
            return DEAD
        return REQUEST

    def retry(self, retries: int, reached_worker: bool,
              stopping: bool) -> Optional[Retry]:
        """How to re-dispatch a faulted worker's batch, or None to fail it.
        ``retries`` counts earlier attempts that reached a worker."""
        if stopping or self.config.retry_policy == "fail_fast":
            return None
        if not reached_worker:
            return Retry(0.0, retries)
        if retries >= self.config.max_retries:
            return None
        base = self.config.redispatch_backoff_base_s
        wait_s = (self._backoff(base, retries, REDISPATCH_BACKOFF_MAX_S)
                  if base > 0.0 else 0.0)
        return Retry(wait_s, retries + 1)

    def await_capacity(self, waited_s: float, respawning: bool,
                       stopping: bool) -> bool:
        """Whether placement keeps waiting while no worker is alive."""
        return respawning and not stopping and waited_s < RECOVERY_WAIT_S

    # -- respawn -------------------------------------------------------
    def worker_died(self, now: float) -> None:
        if self.degraded_since is None:
            self.degraded_since = now

    def may_respawn(self, index: int, stopping: bool) -> bool:
        return (self.config.respawn and not stopping
                and index not in self._breaker_open)

    def respawn_failed(self, index: int) -> Tuple[int, Optional[float]]:
        """Count a failed respawn of slot ``index``: ``(failures, wait_s)``,
        with ``wait_s=None`` once the slot's breaker opens for the run."""
        failures = self._respawn_failures.get(index, 0) + 1
        self._respawn_failures[index] = failures
        if failures >= MAX_RESPAWN_FAILURES:
            self._breaker_open.add(index)
            return failures, None
        return failures, self._backoff(RESPAWN_BACKOFF_BASE_S, failures - 1,
                                       RESPAWN_BACKOFF_MAX_S)

    def respawned(self, index: int, now: float,
                  pool_whole: bool) -> Optional[float]:
        """Reset slot ``index``'s failure run; the recovery time once the
        whole pool is alive again, else None."""
        self._respawn_failures.pop(index, None)
        if self.degraded_since is None or not pool_whole:
            return None
        recovery_s, self.degraded_since = now - self.degraded_since, None
        return recovery_s

    # -- watchdog and shedding -----------------------------------------
    def heartbeat(self, index: int, worker: object, counts: Optional[tuple],
                  now: float) -> Optional[float]:
        """Sample slot ``index``'s heartbeat counters: the stall time on a
        trip (which counts toward the shed window), else None.  ``None``
        counts forget the slot; a new ``worker`` restarts its stall clock."""
        if counts is None:
            self._heartbeats.pop(index, None)
            return None
        seen = self._heartbeats.get(index)
        if seen is None or seen[0] is not worker or seen[1] != counts:
            self._heartbeats[index] = (worker, counts, now)
            return None
        stalled_s = now - seen[2]
        if stalled_s < self.config.heartbeat_timeout_s:
            return None
        del self._heartbeats[index]
        self.note_timeout(now)
        return stalled_s

    def note_timeout(self, now: float) -> None:
        """Count a dispatch timeout or heartbeat trip toward the shed window."""
        if self.config.shed_timeout_threshold is not None:
            self._timeouts.append(now)

    def shed_reason(self, priority: str, alive: int, total: int,
                    now: float) -> Optional[str]:
        """Why admission sheds a ``priority`` request now, or None."""
        config = self.config
        if priority not in self.shed_classes:
            return None
        fraction = config.shed_alive_fraction
        if fraction is not None and total and alive / total < fraction:
            return f"alive fraction {alive}/{total} below {fraction}"
        window_s, times = config.shed_timeout_window_s, self._timeouts
        if config.shed_timeout_threshold is not None:
            while times and times[0] < now - window_s:
                times.popleft()
            if len(times) >= config.shed_timeout_threshold:
                return f"{len(times)} timeouts in the last {window_s}s"
        return None
