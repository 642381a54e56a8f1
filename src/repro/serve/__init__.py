"""Concurrent serving layer.

Nothing below this package is thread-safe on its own: the engines
serialize only their batched fast paths, and the translation algorithms
read and write freely. :class:`ConcurrentPenguin` makes one
:class:`~repro.penguin.Penguin` session safe to share across threads
with a readers-writer lock — queries and instance lookups run
concurrently, while translated updates, materialization, and cache
syncs get exclusive access.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.concurrent import ConcurrentPenguin, ServedRead
from repro.serve.http import PenguinServer
from repro.serve.locks import ReadWriteLock

__all__ = [
    "ConcurrentPenguin",
    "ReadWriteLock",
    "CircuitBreaker",
    "PenguinServer",
    "ServedRead",
]
