"""A writer-preferring readers-writer lock.

The serving workload this protects is read-mostly: many threads running
object queries against (possibly materialized) view objects, with
occasional translated updates. Readers proceed concurrently; a writer
waits for running readers to drain, and new readers queue behind a
waiting writer so updates cannot starve.

The write side is reentrant for its owning thread, and the owner may
also take read locks while writing — the facade's update path reads
through the same public methods it protects.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """Readers share, writers exclude, waiting writers have priority."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._readers_waiting = 0
        self._writers_waiting = 0
        self._writer_owner: Optional[int] = None
        self._write_depth = 0
        self._owner_reads = 0

    # -- read side ---------------------------------------------------------

    def acquire_read(self) -> None:
        with self._cond:
            if self._writer_owner == threading.get_ident():
                # The writer re-entering as a reader must not deadlock
                # against itself.
                self._owner_reads += 1
                return
            self._readers_waiting += 1
            try:
                while self._writer_owner is not None or self._writers_waiting:
                    self._cond.wait()
            finally:
                self._readers_waiting -= 1
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            if self._writer_owner == threading.get_ident():
                if self._owner_reads <= 0:
                    raise RuntimeError("release_read without acquire_read")
                self._owner_reads -= 1
                return
            if self._readers <= 0:
                raise RuntimeError("release_read without acquire_read")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- write side --------------------------------------------------------

    def acquire_write(self) -> None:
        with self._cond:
            me = threading.get_ident()
            if self._writer_owner == me:
                self._write_depth += 1
                return
            self._writers_waiting += 1
            try:
                while self._writer_owner is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_owner = me
            self._write_depth = 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer_owner != threading.get_ident():
                raise RuntimeError("write lock released by a non-owner thread")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer_owner = None
                self._owner_reads = 0
                self._cond.notify_all()

    # -- context managers --------------------------------------------------

    @contextlib.contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # Used as a plain context manager the lock is its exclusive side: a
    # re-entrant mutex that can say how many threads are queued on it
    # (the write guards' serialisers are this).

    def __enter__(self) -> None:
        self.acquire_write()

    def __exit__(self, *exc_info: object) -> None:
        self.release_write()

    # -- introspection (for tests) -----------------------------------------

    @property
    def waiting_readers(self) -> int:
        """Threads parked in ``acquire_read`` (tests poll this instead
        of sleeping a fixed interval)."""
        with self._cond:
            return self._readers_waiting

    @property
    def waiting_writers(self) -> int:
        """Threads parked in ``acquire_write``."""
        with self._cond:
            return self._writers_waiting

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReadWriteLock(readers={self._readers}, "
            f"writer={self._writer_owner is not None}, "
            f"waiting={self._writers_waiting})"
        )
