"""A threshold-gated log of slow operations.

Most traces are noise; the ones worth keeping are the outliers. The
:class:`SlowLog` subscribes to the tracer's finished root spans and
retains only those whose duration crosses a threshold, each entry
carrying the span's name, duration, and attributes — enough to answer
"what was slow and what was it touching" without storing every trace.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.trace import Span


class SlowEntry:
    """One retained slow operation."""

    __slots__ = ("name", "duration", "attributes", "error")

    def __init__(
        self,
        name: str,
        duration: float,
        attributes: Dict[str, Any],
        error: Optional[str] = None,
    ) -> None:
        self.name = name
        self.duration = duration
        self.attributes = attributes
        self.error = error

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration * 1000, 3),
            "attributes": dict(self.attributes),
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def describe(self) -> str:
        attrs = " ".join(
            f"{key}={self.attributes[key]}" for key in sorted(self.attributes)
        )
        suffix = f" error={self.error!r}" if self.error else ""
        return f"{self.name} {self.duration * 1000:.3f}ms {attrs}{suffix}".rstrip()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlowEntry({self.describe()})"


class SlowLog:
    """Keeps the most recent root spans slower than ``threshold``.

    Parameters
    ----------
    threshold:
        Duration (seconds) a span must *exceed* to be retained; a span
        landing exactly on the threshold is not slow. Zero therefore
        retains every span with nonzero duration — useful in tests and
        demos.
    capacity:
        Ring-buffer size.
    """

    def __init__(self, threshold: float = 0.1, capacity: int = 128) -> None:
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold = threshold
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=capacity)
        self.observed = 0  # spans offered
        self.retained = 0  # spans kept

    def consider(self, span: Span) -> bool:
        """Tracer ``on_root`` hook: retain the span if slow enough."""
        self.observed += 1
        if span.duration <= self.threshold:
            return False
        entry = SlowEntry(
            span.name, span.duration, dict(span.attributes), span.error
        )
        with self._lock:
            self._entries.append(entry)
            self.retained += 1
        return True

    def entries(self) -> List[SlowEntry]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def render(self) -> str:
        return "\n".join(entry.describe() for entry in self.entries())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlowLog(threshold={self.threshold}, entries={len(self)}, "
            f"observed={self.observed})"
        )
