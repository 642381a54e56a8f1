"""Health tracking for the serving layer: a small circuit breaker.

When the storage engine starts failing (injected faults, sqlite
busy/locked storms, a sick disk), retrying every request against it
makes things worse and makes every caller wait for the full retry
budget. The breaker turns repeated failures into an explicit state:

* ``HEALTHY`` — every request goes to the engine;
* ``DEGRADED`` — entered after ``failure_threshold`` consecutive engine
  faults. Writes fail fast with
  :class:`~repro.errors.DegradedServiceError`; reads are served stale
  from materialized caches. Every ``probe_interval``-th request is let
  through as a *probe* — one success closes the breaker again.

Probing is count-based rather than clock-based on purpose: the
simulation checker and the tests need deterministic behaviour, and a
served request is as good a signal source as a timer.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

import repro.obs as obs

__all__ = ["CircuitBreaker"]

HEALTHY = "healthy"
DEGRADED = "degraded"


class CircuitBreaker:
    """Consecutive-failure breaker with count-based probing.

    Parameters
    ----------
    failure_threshold:
        Consecutive engine faults before the breaker opens (DEGRADED).
    probe_interval:
        While degraded, every Nth :meth:`allow` call is admitted as a
        probe; the others are refused (and served stale / failed fast
        by the caller).
    """

    def __init__(self, failure_threshold: int = 3, probe_interval: int = 4) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        self.failure_threshold = failure_threshold
        self.probe_interval = probe_interval
        self._lock = threading.Lock()
        self._state = HEALTHY
        self._consecutive_failures = 0
        self._refused_since_probe = 0
        # lifetime counters
        self.opened = 0
        self.closed = 0
        self.probes = 0
        self.refusals = 0
        self.failures = 0
        self.successes = 0

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def healthy(self) -> bool:
        return self.state == HEALTHY

    @property
    def degraded(self) -> bool:
        return self.state == DEGRADED

    # -- the protocol --------------------------------------------------------

    def allow(self) -> bool:
        """May the next request touch the engine?

        Healthy: always. Degraded: every ``probe_interval``-th call
        (a probe); the caller must report the probe's outcome through
        :meth:`record_success` / :meth:`record_failure` like any other
        engine call.
        """
        with self._lock:
            if self._state == HEALTHY:
                return True
            self._refused_since_probe += 1
            if self._refused_since_probe >= self.probe_interval:
                self._refused_since_probe = 0
                self.probes += 1
                return True
            self.refusals += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            if self._state == DEGRADED:
                self._state = HEALTHY
                self.closed += 1
                obs.metrics().gauge("breaker_state").set(0)

    def record_failure(self) -> None:
        opened = False
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            if (
                self._state == HEALTHY
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = DEGRADED
                self.opened += 1
                self._refused_since_probe = 0
                opened = True
                obs.metrics().gauge("breaker_state").set(1)
        if opened:
            # Outside the lock: the flight-recorder dump this may
            # trigger reads registries and span buffers, and nothing
            # about it needs the breaker's state to hold still.
            obs.anomaly(
                "breaker_open", consecutive_failures=self.failure_threshold
            )

    def reset(self) -> None:
        """Force-close the breaker (e.g. after out-of-band recovery)."""
        with self._lock:
            self._state = HEALTHY
            self._consecutive_failures = 0
            self._refused_since_probe = 0
        obs.metrics().gauge("breaker_state").set(0)

    # -- introspection -------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "opened": self.opened,
                "closed": self.closed,
                "probes": self.probes,
                "refusals": self.refusals,
                "failures": self.failures,
                "successes": self.successes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.state}, failures={self.failures})"
