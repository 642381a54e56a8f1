"""Deterministic fault injection for any storage engine.

The paper promises that a rejected or failed translation "is rolled
back"; making that promise hold under real-world failure modes — a
transient ``database is locked``, a process crash between ``begin()``
and ``commit()``, an I/O stall — requires being able to *produce* those
failure modes on demand. :class:`FaultInjectingEngine` wraps any
:class:`~repro.relational.engine.Engine` and executes a seeded
:class:`FaultPlan`, so every failure scenario in the test suite and the
simulation checker (``python -m repro simulate``) is reproducible from a
seed.

The same rule language drives every yield point that is *not* an engine
call: a deployment's ``failpoint`` attribute holds one :class:`FaultHook`
and each point — the replication stages, the two-phase steps, ``ship`` /
``probe``, ``translated`` — ticks it with the point's name and the shard
it fired on (DESIGN.md "One fault surface, one checker").

Four fault kinds are supported:

* ``transient`` — raise :class:`~repro.errors.TransientEngineError`;
  the condition clears by itself, so a retry of the same call succeeds
  (unless the plan injects again). This models sqlite busy/locked.
* ``crash`` — raise :class:`SimulatedCrash`, which derives from
  ``BaseException`` so it sails *past* every ``except Exception``
  rollback handler, exactly as a ``kill -9`` would. Recovery is then
  the journal's job (:mod:`repro.relational.journal`).
* ``latency`` — sleep the rule's ``delay`` before the call proceeds,
  for tail-latency and timeout experiments.
* ``call`` — run the rule's ``action(point, shard)`` and proceed: kill
  this primary, wedge these links, or (:class:`SecondOperation`) run a
  second client operation beside the one parked at the point.

Rules match engine calls by operation name or by the groups
``"mutation"`` (insert/delete/replace/clear), ``"read"``
(get/get_many/scan/find_by/select/count/contains), ``"txn"``
(begin/commit/rollback), or ``"*"`` (any ticked call).
"""

from __future__ import annotations

import random
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import TransientEngineError
from repro.relational.engine import Engine
from repro.relational.schema import RelationSchema

__all__ = [
    "SimulatedCrash",
    "FaultRule",
    "FaultPlan",
    "FaultHook",
    "FaultInjectingEngine",
    "SecondOperation",
    "TransientEngineError",
]

MUTATION_OPS = ("insert", "delete", "replace", "clear")
READ_OPS = ("get", "get_many", "scan", "find_by", "select", "count", "contains")
TXN_OPS = ("begin", "commit", "rollback")
SHIP_OPS = ("ship", "probe")

KINDS = ("transient", "crash", "latency", "call")

_GROUPS: Dict[str, Tuple[str, ...]] = {
    "mutation": MUTATION_OPS,
    "read": READ_OPS,
    "txn": TXN_OPS,
    "ship": SHIP_OPS,
}


class SimulatedCrash(BaseException):
    """Stand-in for process death at an arbitrary instruction.

    Deliberately *not* an :class:`Exception`: the library's rollback
    handlers all catch ``Exception``, and a real crash would never give
    them the chance to run. Code under test must therefore survive this
    propagating through every layer — which is precisely what the
    journal-based recovery path is for.
    """

    def __init__(self, operation: str, index: int) -> None:
        super().__init__(f"simulated crash during {operation!r} #{index}")
        self.operation = operation
        self.index = index


class FaultRule:
    """One injection rule of a :class:`FaultPlan`.

    Parameters
    ----------
    kind:
        ``"transient"``, ``"crash"``, ``"latency"`` or ``"call"``.
    operations:
        Operation names and/or group names this rule matches.
    at:
        Fire on exactly the Nth matching call (1-based), once. Without
        it the rule fires on every matching call.
    action:
        What a ``call`` rule runs, as ``action(point, shard)``.
    shard:
        Match only ticks fired on this shard; ``None`` = any (engine
        calls carry no shard).

    A rule also reads three attributes a chaos test may set on it:
    ``rate``, the probability that a rule without ``at`` fires on each
    matching call, drawn from the plan's seeded generator (1.0: every
    call); ``times``, a cap on how often it fires (``None``: unlimited);
    and ``delay``, what a ``latency`` rule sleeps, in seconds.
    """

    __slots__ = (
        "kind", "operations", "at", "rate", "times", "delay", "action",
        "shard", "seen", "fired",
    )

    def __init__(
        self,
        kind: str,
        operations: Sequence[str] = ("mutation",),
        at: Optional[int] = None,
        action: Optional[Callable[[str, Optional[int]], None]] = None,
        shard: Optional[int] = None,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.kind = kind
        self.operations = tuple(operations)
        self.at = at
        self.rate = 1.0
        self.times = None if at is None else 1
        self.delay = 0.0
        self.action = action
        self.shard = shard
        self.seen = 0  # matching calls observed
        self.fired = 0  # faults actually injected

    def matches(self, operation: str, shard: Optional[int] = None) -> bool:
        if self.shard is not None and shard != self.shard:
            return False
        for target in self.operations:
            if target == "*" or target == operation:
                return True
            if operation in _GROUPS.get(target, ()):
                return True
        return False

    @property
    def exhausted(self) -> bool:
        if self.times is None:
            return False
        return self.fired >= self.times

    def decide(self, operation: str, rng: random.Random) -> bool:
        """Whether this rule fires on this (matching) call."""
        if self.exhausted:
            return False
        self.seen += 1
        if self.at is not None:
            fire = self.seen == self.at
        else:
            fire = rng.random() < self.rate
        if fire:
            self.fired += 1
        return fire

    def reset(self) -> None:
        self.seen = 0
        self.fired = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        trigger = f"at={self.at}" if self.at is not None else f"rate={self.rate}"
        return (
            f"FaultRule({self.kind}, ops={self.operations!r}, {trigger}, "
            f"fired={self.fired})"
        )


class FaultPlan:
    """A seeded, ordered set of :class:`FaultRule` to execute.

    The plan is deterministic: the same seed and the same sequence of
    engine calls produce the same injections::

        FaultPlan().add(FaultRule("transient", ("insert",), at=3))  # 3rd insert fails once
        FaultPlan().add(FaultRule("crash", ("commit",), at=1))      # die inside commit
        FaultPlan().call_at("post_apply", kill, shard=0)  # run kill("post_apply", 0)
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = []
        self._rng = random.Random(seed)

    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def call_at(
        self,
        operation: str,
        action: Callable[[str, Optional[int]], None],
        at: int = 1,
        shard: Optional[int] = None,
    ) -> "FaultPlan":
        """Run ``action(point, shard)`` on the ``at``-th matching tick."""
        return self.add(
            FaultRule("call", (operation,), at=at, action=action, shard=shard)
        )

    # -- execution ----------------------------------------------------------

    def decide(
        self, operation: str, shard: Optional[int] = None
    ) -> Optional[FaultRule]:
        """The first rule firing on this call, or None."""
        for rule in self.rules:
            if rule.matches(operation, shard) and rule.decide(
                operation, self._rng
            ):
                return rule
        return None

    def reset(self) -> None:
        """Rewind every rule and the seeded generator (same seed)."""
        for rule in self.rules:
            rule.reset()
        self._rng = random.Random(self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)})"


class FaultHook:
    """The one tick: a :class:`FaultPlan` consulted at a named point.

    :class:`FaultInjectingEngine` ticks it with the engine operation it
    is about to delegate; a deployment's ``failpoint`` is ticked with
    the name of the yield point and ``shard=`` the shard it fired on.
    Either way the first firing rule is recorded and carried out:
    ``latency`` sleeps, ``call`` runs the rule's action, ``crash``
    raises :class:`SimulatedCrash`, ``transient`` raises
    :class:`~repro.errors.TransientEngineError`.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self.injected: Dict[str, int] = dict.fromkeys(KINDS, 0)
        self.history: List[Tuple[str, int, str]] = []
        self._op_counts: Dict[str, int] = {}
        self._sleep = time.sleep

    def tick(self, operation: str, shard: Optional[int] = None) -> None:
        index = self._op_counts.get(operation, 0) + 1
        self._op_counts[operation] = index
        rule = self.plan.decide(operation, shard)
        if rule is None:
            return
        self.injected[rule.kind] += 1
        self.history.append((operation, index, rule.kind))
        if rule.kind == "latency":
            self._sleep(rule.delay)
        elif rule.kind == "call":
            rule.action(operation, shard)
        elif rule.kind == "crash":
            raise SimulatedCrash(operation, index)
        else:
            raise TransientEngineError(
                f"injected transient fault during {operation!r} #{index}"
            )

    def operation_count(self, operation: str) -> int:
        """How many times ``operation`` has been ticked so far."""
        return self._op_counts.get(operation, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultHook({self.plan!r})"


class SecondOperation:
    """A ``call`` action: run a second client operation beside the one
    parked at the point.

    The first operation stays parked until the second has finished *or
    is queued behind it* — ``queued()`` is read off the deployment's
    write guard, nothing is slept for — so what the pair ends as does
    not depend on thread timing. :meth:`join` returns the second's
    outcome (what it returned, or the exception it raised) once the
    first has moved on.
    """

    def __init__(
        self, call: Callable[[], Any], queued: Callable[[], Any]
    ) -> None:
        self.call = call
        self.queued = queued
        self.outcome: Any = None
        self.held_back = False
        self._thread = threading.Thread(
            target=self._run, name="second", daemon=True
        )

    def _run(self) -> None:
        try:
            self.outcome = self.call()
        except (Exception, SimulatedCrash) as exc:  # noqa: BLE001 - its outcome
            self.outcome = exc

    def __call__(self, point: str, shard: Optional[int]) -> None:
        self._thread.start()
        for _ in range(60_000):  # a bound, not a pace: see join()
            if not self._thread.is_alive() or self.queued():
                break
            self._thread.join(0.001)
        self.held_back = self._thread.is_alive()

    def join(self) -> Any:
        self._thread.join(60)  # a bound, not a pace: finished or deadlocked
        if self._thread.is_alive():
            return TimeoutError("the second operation never finished")
        return self.outcome


class FaultInjectingEngine(Engine):
    """An engine wrapper that ticks a :class:`FaultHook` per call.

    Every delegated call first *ticks*: the plan decides whether to
    inject, and the injection (if any) is recorded in :attr:`injected`
    and :attr:`history` before the fault is raised (or the latency
    slept). Batched operations deliberately use the generic loops
    inherited from :class:`Engine`, so per-operation faults fire inside
    batches and the engine-level :class:`~repro.relational.retry.RetryPolicy`
    gets to absorb them.

    The wrapper shares the base engine's transaction state and
    changelog, so journals, materialized views, and recovery all work
    unchanged on top of it. Given a :class:`FaultHook` instead of a
    plan it ticks that one — a deployment's ``failpoint`` and its
    engines can then share one plan and one history.
    """

    def __init__(
        self, base: Engine, plan: Union[FaultPlan, FaultHook, None] = None
    ) -> None:
        self.base = base
        self.hook = plan if isinstance(plan, FaultHook) else FaultHook(plan)
        self.operation_count = self.hook.operation_count

    plan = property(lambda self: self.hook.plan)
    injected = property(lambda self: self.hook.injected)
    history = property(lambda self: self.hook.history)

    # -- catalog (not ticked: DDL is setup, not workload) -------------------

    def create_relation(self, schema: RelationSchema) -> None:
        self.base.create_relation(schema)

    def drop_relation(self, name: str) -> None:
        self.base.drop_relation(name)

    def relation_names(self) -> Tuple[str, ...]:
        return self.base.relation_names()

    def schema(self, name: str) -> RelationSchema:
        return self.base.schema(name)

    def has_relation(self, name: str) -> bool:
        return self.base.has_relation(name)

    def create_index(self, name: str, attribute_names: Sequence[str]) -> None:
        self.base.create_index(name, attribute_names)

    # -- mutations, reads, begin / commit: tick, then delegate ---------------
    # (installed below the class, one per name in MUTATION_OPS, READ_OPS
    # and "begin" / "commit"; insert_many / apply_batch stay the inherited
    # generic loops over the ticked primitives, wrapped in this engine's
    # retry policy)

    def rollback(self) -> None:
        # Never ticked: rollback is the recovery path; injecting faults
        # into it would only test the injector, not the system.
        self.base.rollback()

    @property
    def in_transaction(self) -> bool:
        return getattr(self.base, "in_transaction", False)

    # -- passthrough introspection -------------------------------------------

    @property
    def changelog(self):
        return self.base.changelog

    def operation_counters(self) -> Dict[str, int]:
        counters = getattr(self.base, "operation_counters", None)
        return counters() if counters is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjectingEngine({self.base!r}, {self.plan!r})"


def _ticked(operation: str):
    def call(self, *args, **kwargs):
        self.hook.tick(operation)
        return getattr(self.base, operation)(*args, **kwargs)

    call.__name__ = operation
    return call


for _operation in MUTATION_OPS + READ_OPS + ("begin", "commit"):
    setattr(FaultInjectingEngine, _operation, _ticked(_operation))
