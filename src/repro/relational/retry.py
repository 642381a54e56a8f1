"""Retry with exponential backoff for transient storage failures.

A :class:`RetryPolicy` classifies exceptions as transient or permanent
and re-runs a callable through backoff-with-jitter until it succeeds,
the error turns out permanent, or the attempt budget is spent. The
engine batch primitives (:meth:`Engine.insert_many`,
:meth:`Engine.apply_batch`) consult :attr:`Engine.retry_policy` so that
a batch survives the occasional ``database is locked`` without the
caller ever seeing it — the graceful-degradation layer in
:mod:`repro.serve` only engages once a policy's budget is exhausted.

Classification:

* :class:`~repro.errors.TransientEngineError` — transient by
  definition (the sqlite engine maps busy/locked into it, and the fault
  harness raises it directly);
* ``sqlite3.OperationalError`` whose message mentions busy/locked —
  transient (defense in depth for paths that bypass the mapping);
* everything else — permanent. Note that
  :class:`~repro.relational.faults.SimulatedCrash` derives from
  ``BaseException`` and is therefore never even caught here: you cannot
  retry your way out of process death.
"""

from __future__ import annotations

import random
import sqlite3
import time
from typing import Any, Callable, Optional

import repro.obs as obs
from repro.errors import TransientEngineError

__all__ = ["RetryPolicy", "is_transient_error"]

_SQLITE_TRANSIENT_MARKERS = ("database is locked", "database is busy", "busy")


def is_transient_error(exc: BaseException) -> bool:
    """Default transient-vs-permanent classification."""
    if isinstance(exc, TransientEngineError):
        return True
    if isinstance(exc, sqlite3.OperationalError):
        message = str(exc).lower()
        return any(marker in message for marker in _SQLITE_TRANSIENT_MARKERS)
    return False


class RetryPolicy:
    """Exponential backoff with deterministic, seedable jitter.

    Parameters
    ----------
    max_attempts:
        Total tries including the first; ``max_attempts=1`` disables
        retrying while keeping the classification behaviour.
    base_delay / max_delay:
        The nth retry sleeps ``min(max_delay, base_delay * 2**n)``
        scaled by jitter.
    jitter:
        Fraction of the delay randomized: the sleep is drawn uniformly
        from ``[delay * (1 - jitter), delay]``. Zero makes backoff fully
        deterministic.
    seed:
        Seeds the jitter source, for reproducible schedules in tests
        and the simulation checker.
    classify:
        Replacement for :func:`is_transient_error`.
    sleep:
        Injection point for tests; defaults to :func:`time.sleep`.
    """

    def __init__(
        self,
        max_attempts: int = 5,
        base_delay: float = 0.002,
        max_delay: float = 0.25,
        jitter: float = 0.5,
        seed: Optional[int] = None,
        classify: Optional[Callable[[BaseException], bool]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.classify = classify or is_transient_error
        self._sleep = sleep
        self._rng = random.Random(seed)
        # Operational counters for stats/health endpoints.
        self.retries = 0  # sleeps taken (attempts beyond the first)
        self.absorbed = 0  # transient errors that a later attempt recovered
        self.gave_up = 0  # transient errors re-raised after budget exhaustion

    def delay(self, retry_index: int) -> float:
        """Sleep before the Nth retry (0-based), jitter applied."""
        raw = min(self.max_delay, self.base_delay * (2 ** retry_index))
        if not self.jitter:
            return raw
        low = raw * (1.0 - self.jitter)
        return low + (raw - low) * self._rng.random()

    def run(self, attempt: Callable[[], Any]) -> Any:
        """Run ``attempt`` until success or a permanent/final error.

        The callable must be safe to re-run: engine helpers pass a
        closure that leaves the engine transaction-clean on failure.
        """
        failures = 0
        while True:
            try:
                result = attempt()
            except Exception as exc:
                if not self.classify(exc):
                    raise
                failures += 1
                if failures >= self.max_attempts:
                    self.gave_up += 1
                    raise
                self.retries += 1
                span = obs.tracer().current
                if span is not None:
                    span.set(retries=failures)
                self._sleep(self.delay(failures - 1))
                continue
            if failures:
                self.absorbed += failures
            return result

    def stats(self) -> dict:
        return {
            "retries": self.retries,
            "absorbed": self.absorbed,
            "gave_up": self.gave_up,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, retries={self.retries})"
        )
