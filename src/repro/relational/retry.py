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

    At most :attr:`MAX_ATTEMPTS` tries, the first included. The nth
    retry sleeps ``min(MAX_DELAY, BASE_DELAY * 2**n)`` scaled by jitter:
    the sleep is drawn uniformly from ``[delay * (1 - JITTER), delay]``.

    Parameters
    ----------
    seed:
        Seeds the jitter source, for reproducible schedules in tests
        and the simulation checker.
    sleep:
        Injection point for tests; defaults to :func:`time.sleep`.
    """

    MAX_ATTEMPTS = 5
    BASE_DELAY = 0.002  # seconds
    MAX_DELAY = 0.25
    JITTER = 0.5

    def __init__(
        self,
        seed: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._sleep = sleep
        self._rng = random.Random(seed)

    def delay(self, retry_index: int) -> float:
        """Sleep before the Nth retry (0-based), jitter applied."""
        raw = min(self.MAX_DELAY, self.BASE_DELAY * (2 ** retry_index))
        low = raw * (1.0 - self.JITTER)
        return low + (raw - low) * self._rng.random()

    def run(self, attempt: Callable[[], Any]) -> Any:
        """Run ``attempt`` until success or a permanent/final error.

        The callable must be safe to re-run: engine helpers pass a
        closure that leaves the engine transaction-clean on failure.
        """
        failures = 0
        while True:
            try:
                return attempt()
            except Exception as exc:
                if not is_transient_error(exc):
                    raise
                failures += 1
                if failures >= self.MAX_ATTEMPTS:
                    raise
                span = obs.tracer().current
                if span is not None:
                    span.set(retries=failures)
                self._sleep(self.delay(failures - 1))
