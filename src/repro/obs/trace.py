"""Hierarchical tracing of the translation pipeline.

The paper treats a translated update as a derivation the DBA can audit
("the output is the set of database operations"); tracing extends that
auditability to *time*. A :class:`Tracer` produces trees of
:class:`Span` objects — ``translate > validate > propagate > verify >
commit`` for one request, ``translate.batch > explain > apply_plan``
for a batch — with attributes recorded along the way
(relation names, plan sizes, cache hits, retry counts).

Design constraints, in order:

* **zero cost when disabled** — the singleton no-op span makes a
  disabled ``tracer.span(...)`` a dict-free constant-time call;
* **zero dependencies** — spans live in plain objects, the sink is an
  in-memory ring buffer (a bounded ``deque``), and the exporter writes
  JSON Lines with the standard library;
* **context-local nesting** — the span stack lives in a
  :mod:`contextvars` variable, so concurrent serving *threads* trace
  independently (fresh threads start with an empty context) and so do
  concurrent asyncio *tasks* sharing the event-loop thread: each task
  gets its own copy of the context at creation, and the stack is an
  immutable tuple, so one task's pushes are invisible to its siblings.
  (Thread-locals, the previous scheme, interleaved spans across
  overlapping in-flight HTTP requests.)

Finished *root* spans land in the ring buffer. A root opened while a
:class:`~repro.obs.context.TraceContext` is ambient stamps its
``trace_id``/parent span id, which is how the cluster-wide
:class:`~repro.obs.cluster.TraceAssembler` stitches fragments from
different threads back into one causal timeline.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Callable, Dict, IO, Iterator, List, Optional, Tuple, Union

from repro.obs.context import current_context, new_span_id

__all__ = ["Span", "Tracer"]

Clock = Callable[[], float]


class Span:
    """One timed operation, possibly with children.

    A span is its own context manager: ``with tracer.span(...) as s``
    pushes it onto the tracer's context-local stack on enter and pops
    (recording the end time and any error) on exit.  The stack is an
    immutable tuple held in a ``ContextVar`` — asyncio tasks copy the
    *mapping* at creation but would share a mutable list by reference,
    which is exactly the interleaving bug tuples avoid. The enter/exit
    bodies are deliberately flat because this is the hottest path of
    the whole layer: every traced operation pays it.

    Root spans (opened on an empty stack) get a ``span_id`` and, when
    a :class:`~repro.obs.context.TraceContext` is ambient, stamp its
    ``trace_id`` and parent span id for cross-thread assembly.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start",
        "end",
        "error",
        "trace_id",
        "_span_id",
        "parent_id",
        "_tracer",
        "_is_root",
    )

    def __init__(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = (
            attributes if attributes is not None else {}
        )
        self.children: List["Span"] = []
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.error: Optional[str] = None
        self.trace_id: Optional[str] = None
        self._span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self._tracer = tracer
        self._is_root = False

    @property
    def span_id(self) -> Optional[str]:
        """The root's id, minted on first read.

        Most spans are opened, closed, and evicted from the ring
        buffer without anyone ever cross-referencing them; deferring
        the id keeps that cost off the hot path entirely. Readers
        (trace assembly, the ``Traceparent`` response header, flight
        bundles) see a stable id from their first access on.
        """
        if self._span_id is None and self._is_root:
            self._span_id = new_span_id()
        return self._span_id

    @span_id.setter
    def span_id(self, value: Optional[str]) -> None:
        self._span_id = value

    # -- context management (the hot path) ------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack.get()
        if stack:
            stack[-1].children.append(self)
        else:
            self._is_root = True
            ctx = current_context()
            if ctx is not None:
                self.trace_id = ctx.trace_id
                self.parent_id = ctx.span_id or None
        tracer._stack.set(stack + (self,))
        self.start = tracer.clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        tracer = self._tracer
        self.end = tracer.clock()
        if exc is not None and self.error is None:
            self.error = f"{type(exc).__name__}: {exc}"
        stack = tracer._stack.get()
        if stack and stack[-1] is self:
            tracer._stack.set(stack[:-1])
        else:
            # Mismatched pop (a crash mid-span unwinding through
            # BaseException handlers): truncate down to this span.
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is self:
                    tracer._stack.set(stack[:index])
                    break
        if self._is_root:
            tracer._finish_root(self)
        return False

    # -- recording -----------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    # -- introspection -------------------------------------------------------

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) with ``name``, depth first."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration * 1000, 3),
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def render(self, show_durations: bool = True) -> str:
        """An indented, human-readable span tree."""
        lines: List[str] = []
        self._render_into(lines, 0, show_durations)
        return "\n".join(lines)

    def _render_into(self, lines: List[str], depth: int, show_durations: bool) -> None:
        parts = [("  " * depth) + self.name]
        if show_durations:
            parts.append(f"[{self.duration * 1000:.3f}ms]")
        if self.attributes:
            parts.extend(
                f"{key}={self.attributes[key]}" for key in sorted(self.attributes)
            )
        if self.error is not None:
            parts.append(f"error={self.error!r}")
        lines.append(" ".join(parts))
        for child in self.children:
            child._render_into(lines, depth + 1, show_durations)

    def normalized(self) -> str:
        """The tree with every timing stripped: golden-trace form.

        Two runs of the same workload produce byte-identical normalized
        trees, so translation-pipeline changes show up as fixture
        diffs.
        """
        return self.render(show_durations=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, children={len(self.children)}, "
            f"attrs={self.attributes!r})"
        )


class _NoopSpan:
    """Shared span stand-in for the disabled tracer: absorbs everything."""

    __slots__ = ()
    name = "noop"
    attributes: Dict[str, Any] = {}
    children: List[Span] = []
    duration = 0.0
    error = None
    trace_id = None
    span_id = None
    parent_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Produces span trees and keeps the :attr:`CAPACITY` most recent
    roots.

    Parameters
    ----------
    clock:
        Injection point for tests (defaults to ``time.perf_counter``).
    enabled:
        A disabled tracer hands out the shared no-op span; flipping
        :attr:`enabled` at runtime is allowed (in-flight spans finish
        normally).
    """

    #: Ring-buffer size: how many finished root spans are retained.
    CAPACITY = 256

    def __init__(
        self,
        clock: Clock = time.perf_counter,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self._roots: deque = deque(maxlen=self.CAPACITY)
        # The nesting stack: an immutable tuple per context. Tracers are
        # few and long-lived, so one ContextVar per tracer is fine (and
        # keeps independently `use()`d hubs from seeing each other's
        # in-flight spans).
        self._stack: ContextVar[Tuple[Span, ...]] = ContextVar(
            "repro_span_stack", default=()
        )
        self.dropped = 0  # roots evicted from the ring buffer

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Union[Span, _NoopSpan]:
        """A context manager opening one span under the current one."""
        if not self.enabled:
            return _NOOP_SPAN
        return Span(name, attributes, tracer=self)

    def _finish_root(self, span: Span) -> None:
        # deque.append with a maxlen is a single atomic C call under
        # the GIL, so the hot path takes no lock; the dropped counter
        # is best-effort under concurrency, which is all it needs.
        roots = self._roots
        if len(roots) == roots.maxlen:
            self.dropped += 1
        roots.append(span)

    # -- introspection -------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost live span of this context, or None."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    def roots(self) -> Tuple[Span, ...]:
        """The retained finished root spans, oldest first."""
        return tuple(self._roots)

    def take(self) -> Tuple[Span, ...]:
        """Return the retained roots and clear the buffer.

        Drains via atomic ``popleft`` so a root appended concurrently
        with the drain is either returned here or left for the next
        call — never lost.
        """
        taken: List[Span] = []
        roots = self._roots
        while True:
            try:
                taken.append(roots.popleft())
            except IndexError:
                return tuple(taken)

    # -- export --------------------------------------------------------------

    def render(self, show_durations: bool = True) -> str:
        """Every retained root span rendered as one text block."""
        return "\n".join(
            root.render(show_durations=show_durations) for root in self.roots()
        )

    def export_jsonl(self, sink: Union[str, IO[str]]) -> int:
        """Write retained roots as JSON Lines; returns spans written.

        ``sink`` is a path or an open text file object. Each line is
        one root span with its full child tree inlined.
        """
        roots = self.roots()
        if isinstance(sink, str):
            with open(sink, "w", encoding="utf-8") as handle:
                return self.export_jsonl(handle)
        for root in roots:
            sink.write(json.dumps(root.to_dict(), default=str) + "\n")
        return len(roots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(enabled={self.enabled}, roots={len(self._roots)})"
        )


#: The shared disabled tracer handed out while tracing is off.
NOOP_TRACER = Tracer(enabled=False)
