"""Seeded, deterministic fault injector with named injection sites.

A :class:`FaultSpec` is a JSON-serialisable list of :class:`FaultRule`
entries plus a seed.  Each rule targets one injection *site* (a dotted
string such as ``worker.forward``; the known sites are listed in
:data:`SITES`) and one *action*:

``delay``
    Sleep ``delay_s`` before proceeding — a pathologically slow worker.
``hang``
    Sleep ``hang_s`` (long) — a wedged worker that never exits; only a
    dispatch deadline or heartbeat watchdog recovers it.
``crash``
    ``crash_mode="raise"`` raises :class:`InjectedFaultError` (a
    request-level failure); ``crash_mode="exit"`` hard-exits the process
    (``os._exit``), reproducing a worker death.
``corrupt``
    Flip bytes of the payload handed to the site (e.g. a freshly written
    shm slot, *after* its CRC header was computed) so integrity checking
    downstream sees bit-rot.  Sites that carry no payload ignore the
    mutation and report ``corrupt_requested`` to the caller instead.

Rules trigger either on explicit 0-based call indices (``at``) or with
probability ``p`` per call.  Determinism contract: each site keeps its own
call counter and its own ``random.Random`` seeded from ``(seed, site)``
(string seeding, which CPython hashes with SHA-512 — stable across
processes and runs), and every probabilistic rule draws exactly one random
number per call whether or not it fires.  Re-running the same call
sequence against the same ``(seed, fault_spec)`` therefore reproduces the
same faults, in every process that installs the spec.

Worker processes receive the spec with their start-up options and
``install()`` it process-globally; each process then owns independent
per-site counters (worker 0 and worker 1 see the same schedule relative
to their own call streams), which is what makes chaos sweeps replayable
even across respawns.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from random import Random
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Known injection sites (documentation + spec validation).  ``.write``
#: suffixes are appended by slot rings to their configured site prefix.
SITES = (
    "worker.forward",       # a worker process or pipeline stage's forward entry
    "shm.request.write",    # parent writes a worker's first ring
    "shm.response.write",   # a worker's last stage writes its last ring
    "pipeline.edge.write",  # a stage writes an interior pipeline ring
    "plan_cache.load",      # parent looks a compiled plan up at cold start
    "respawn",              # parent enters the worker respawn path
)

#: The sites that fire inside a worker process, where ``crash_mode="exit"``
#: is a worker death; the others fire in the serving process itself.
WORKER_SITES = ("worker.forward", "shm.response.write", "pipeline.edge.write")

_ACTIONS = ("delay", "hang", "crash", "corrupt")
_CRASH_MODES = ("raise", "exit")

#: Exit status used by ``crash_mode="exit"`` so injected deaths are
#: distinguishable from organic ones in process tables and tests.
CRASH_EXIT_CODE = 23


class InjectedFaultError(RuntimeError):
    """Raised by a ``crash`` rule with ``crash_mode="raise"``."""


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One site/action pairing with its trigger schedule."""

    site: str
    action: str
    p: float = 0.0
    at: Tuple[int, ...] = ()
    delay_s: float = 0.01
    hang_s: float = 60.0
    crash_mode: str = "raise"
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"expected one of {_ACTIONS}")
        if self.crash_mode not in _CRASH_MODES:
            raise ValueError(f"unknown crash_mode {self.crash_mode!r}; "
                             f"expected one of {_CRASH_MODES}")
        if not self.site:
            raise ValueError("fault rule needs a non-empty site")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.p == 0.0 and not self.at:
            raise ValueError(f"rule for {self.site!r} can never trigger: "
                             "set p > 0 or explicit `at` call indices")
        if any(index < 0 for index in self.at):
            raise ValueError("`at` call indices must be >= 0")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be >= 1 when set")
        object.__setattr__(self, "at", tuple(sorted(self.at)))

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"site": self.site, "action": self.action}
        if self.p:
            payload["p"] = self.p
        if self.at:
            payload["at"] = list(self.at)
        if self.action == "delay":
            payload["delay_s"] = self.delay_s
        if self.action == "hang":
            payload["hang_s"] = self.hang_s
        if self.action == "crash":
            payload["crash_mode"] = self.crash_mode
        if self.max_fires is not None:
            payload["max_fires"] = self.max_fires
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultRule":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault rule keys: {sorted(unknown)}")
        data = dict(payload)
        if "at" in data:
            data["at"] = tuple(int(index) for index in data["at"])
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """A seed plus the rules of one reproducible chaos schedule."""

    seed: int
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": int(self.seed),
                "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        rules = tuple(FaultRule.from_dict(rule)
                      for rule in payload.get("rules", ()))
        return cls(seed=int(payload.get("seed", 0)), rules=rules)

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("fault spec JSON must be an object")
        return cls.from_dict(payload)


class _SiteState:
    """Per-site call counter, RNG and per-rule fire accounting."""

    __slots__ = ("rules", "rng", "calls", "fires")

    def __init__(self, seed: int, site: str,
                 rules: List[FaultRule]) -> None:
        self.rules = rules
        # String seeding keeps the stream stable across processes (no
        # PYTHONHASHSEED dependence) and decorrelated between sites.
        self.rng = Random(f"faults:{seed}:{site}")
        self.calls = 0
        self.fires = [0 for _ in rules]


class FaultInjector:
    """Evaluates a :class:`FaultSpec` at named injection sites.

    Not thread-safe by design: each process installs its own injector and
    the serving hot paths call it from one thread at a time per site.  The
    tiny race a heartbeat thread could introduce on the counters would
    only skew accounting, never corrupt state.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._states: Dict[str, _SiteState] = {}
        by_site: Dict[str, List[FaultRule]] = {}
        for rule in spec.rules:
            by_site.setdefault(rule.site, []).append(rule)
        for site, rules in by_site.items():
            self._states[site] = _SiteState(spec.seed, site, rules)

    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(self._states)

    def fire(self, site: str,
             payload: Optional[np.ndarray] = None) -> bool:
        """Evaluate ``site``'s rules for one call.

        Sleeps for ``delay``/``hang`` actions, raises or exits for
        ``crash``, and mutates ``payload`` bytes in place for ``corrupt``.
        Returns ``True`` when a ``corrupt`` rule fired but no payload was
        supplied, so sites without a mutable buffer (e.g. plan-cache
        loads) can degrade the result themselves.
        """
        state = self._states.get(site)
        if state is None:
            return False
        index = state.calls
        state.calls = index + 1
        corrupt_requested = False
        for rule_index, rule in enumerate(state.rules):
            triggered = index in rule.at
            if rule.p > 0.0:
                # Always draw, even when capped or already triggered, so
                # the stream position depends only on the call count.
                draw = state.rng.random()
                triggered = triggered or draw < rule.p
            if not triggered:
                continue
            if (rule.max_fires is not None
                    and state.fires[rule_index] >= rule.max_fires):
                continue
            state.fires[rule_index] += 1
            if rule.action == "delay":
                time.sleep(rule.delay_s)
            elif rule.action == "hang":
                time.sleep(rule.hang_s)
            elif rule.action == "crash":
                if rule.crash_mode == "exit":
                    os._exit(CRASH_EXIT_CODE)
                raise InjectedFaultError(
                    f"injected crash at {site} (call {index})")
            elif rule.action == "corrupt":
                if payload is None:
                    corrupt_requested = True
                else:
                    _flip_bytes(payload, index)
        return corrupt_requested

    def report(self) -> Dict[str, Dict[str, int]]:
        """Fire counts per site and action (this process only)."""
        summary: Dict[str, Dict[str, int]] = {}
        for site, state in self._states.items():
            actions: Dict[str, int] = {}
            for rule, fires in zip(state.rules, state.fires):
                if fires:
                    actions[rule.action] = actions.get(rule.action, 0) + fires
            if actions:
                actions["calls"] = state.calls
                summary[site] = actions
        return summary


def _flip_bytes(payload: np.ndarray, call_index: int) -> None:
    """Deterministically flip one byte of ``payload`` in place."""
    flat = payload.reshape(-1).view(np.uint8)
    if flat.size == 0:
        return
    offset = call_index % flat.size
    flat[offset] ^= 0xFF


# Process-global injector: worker initializers install the shipped spec
# here; hot paths gate on configuration and call :func:`fire`, which costs
# a single global read when nothing is installed.
_INSTALLED: Optional[FaultInjector] = None


def install(spec_or_injector: Any) -> FaultInjector:
    """Install a process-global injector from a spec/dict/injector."""
    global _INSTALLED
    if isinstance(spec_or_injector, FaultInjector):
        injector = spec_or_injector
    elif isinstance(spec_or_injector, FaultSpec):
        injector = FaultInjector(spec_or_injector)
    elif isinstance(spec_or_injector, dict):
        injector = FaultInjector(FaultSpec.from_dict(spec_or_injector))
    else:
        raise TypeError(
            f"cannot install injector from {type(spec_or_injector)!r}")
    _INSTALLED = injector
    return injector


def uninstall() -> None:
    """Remove the process-global injector (sites become free no-ops)."""
    global _INSTALLED
    _INSTALLED = None


def get_installed() -> Optional[FaultInjector]:
    return _INSTALLED


def fire(site: str, payload: Optional[np.ndarray] = None) -> bool:
    """Fire ``site`` on the process-global injector, if any."""
    injector = _INSTALLED
    if injector is None:
        return False
    return injector.fire(site, payload)
