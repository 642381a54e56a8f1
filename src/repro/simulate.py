"""One seeded checker: every deployment, under every fault, held to one
in-memory ``Penguin``.

A fixed translator maps a view-object update to a *valid* relational
update or rejects it and "is rolled back" — whichever session carried the
request, whatever failed underneath. ``python -m repro simulate --preset
NAME --seed S --steps N`` drives a seeded stream of ``insert / replace /
delete / re-key / update_where / delete_where / get / query`` (keys
zipfian over a population small enough to collide) against one
deployment, arms faults from the one fault surface
(:mod:`repro.relational.faults`) on a seeded schedule, and checks **every
step** against the model: the request is run on the model inside a
transaction — outcome class and after-state kept, then rolled back — and

* *acked* ⇒ the model accepts and the deployment's state is the
  after-state: ``get(key)`` is the requested instance, nothing else moved;
* *rejected* ⇒ the model rejects with the same error class and the state
  is the before-state;
* *refused or failed by a fault* ⇒ the client retries while it is told to
  come back; the state is the before- or the after-state, and the last
  answer is the model's on whichever of the two the failed attempts left
  — the model follows that one;
* *two operations in flight* ⇒ both outcomes and the state are those of
  one of the two serial orders;
* a *read* is refused (beside a fault only) or is the model's answer,
  marked stale when a cache or a replica gave it.

After settling (``catch_up`` — a dead primary ships nothing — probes to
failover, heal, ``catch_up``; a crash: restart and ``recover()``)
``check_integrity() == []``, no journal entry is ``PENDING``, live replicas
are byte-identical with lag 0 and ``replay_audit()`` is the live state, so
no rejected write left a ``committed`` record (a two-phase commit's
participants excepted). **An armed fault that does not fire fails the
run.** A preset is data — a deployment and a fault menu; a failure prints
seed, step, operation, fault and the steps of its episode up to it, which
:func:`replay` re-runs. DESIGN.md "One fault surface, one checker".
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.instance import Instance
from repro.errors import DegradedServiceError
from repro.obs.audit import MemoryAuditLog
from repro.obs.history import divergence
from repro.penguin import Penguin
from repro.relational.faults import (
    FaultHook, FaultInjectingEngine, FaultRule, SecondOperation,
    SimulatedCrash, TransientEngineError,
)
from repro.relational.journal import MemoryJournal
from repro.relational.retry import RetryPolicy
from repro.replicate import ReplicationConfig
from repro.serve.breaker import CircuitBreaker
from repro.serve.concurrent import ConcurrentPenguin
from repro.shard import ShardedPenguin
from repro.workloads.hospital import hospital_session, new_chart, rehome, restarted
from repro.workloads.synthetic import ZipfianWorkload

__all__ = ["PRESETS", "replay", "simulate"]

OBJECT = "patient_chart"
#: The four resident charts and eight free keys: small enough to collide.
KEYS = tuple(range(100, 112))
TAGS = ("ann", "bob", "cy")
VERBS = (
    ("insert", 3), ("replace", 3), ("delete", 2), ("rekey", 1),
    ("update_where", 1), ("delete_where", 1), ("get", 2), ("query", 1),
)
#: Steps per fresh deployment and model (a killed stack stays dead; a
#: two-phase commit's participants are exempt from audit replay).
EPISODE = 16
#: A client's attempts while it is told to come back (> ``miss_threshold``).
RETRIES = 4
#: What a fault, not the translator, answers with.
FAULTED = (DegradedServiceError, TransientEngineError, SimulatedCrash)


@dataclass(eq=False)
class Op:
    """One client operation. ``key`` is a patient id, or the ``name`` a
    query-driven verb or a query selects by (``tag``: the name
    ``update_where`` writes); a re-key's ``chart`` carries the new id."""

    verb: str
    key: Any
    chart: Optional[Dict[str, Any]] = None
    tag: Optional[str] = None

    def __repr__(self) -> str:
        if self.chart is None:
            return f"{self.verb}({self.key!r}, {self.tag!r})"
        leaves = len(self.chart["VISIT"][0]["DIAGNOSIS"])
        return f"{self.verb}({self.key} -> {self.chart['patient_id']}, {leaves} leaves)"


@dataclass(frozen=True)
class Fault:
    """One row of a fault menu: ``kind`` at yield point ``point``, on its
    ``at``-th tick. ``verb`` is what the faulted step must be (default: a
    keyed write the model accepts); an ``aimed`` fault fires on one victim
    shard only; an ``absorbed`` one must not reach the client."""

    kind: str
    point: str
    at: int = 1
    verb: Optional[str] = None
    aimed: bool = True
    absorbed: bool = False

    @property
    def name(self) -> str:
        return f"{self.kind}@{self.point}#{self.at}" + (f"[{self.verb}]" if self.verb else "")


@dataclass(eq=False)
class Step:
    """One realised step: the operation, the fault armed for it, its victim
    shard and (a race) the second operation."""

    op: Op
    fault: Optional[Fault] = None
    victim: Optional[int] = None
    second: Optional[Op] = None

    def __repr__(self) -> str:
        text = repr(self.op)
        if self.fault is not None:
            text += f"  fault={self.fault.name} shard={self.victim}"
        return text + (f" beside {self.second!r}" if self.second else "")


#: name -> (deployment, fault menu): the retired campaigns, as data.
PRESETS: Dict[str, Tuple[str, Tuple[Fault, ...]]] = {
    "crash": ("single", (
        Fault("crash", "mutation"), Fault("crash", "mutation", 2), Fault("crash", "commit"),
        Fault("transient", "mutation"), Fault("transient", "read", 2),
    )),
    "degraded": ("concurrent", (
        Fault("transient", "mutation"), Fault("transient", "read"), Fault("second", "read"),
    )),
    "twophase": ("sharded", tuple(
        Fault("crash", point, at, verb="rekey", aimed=False)
        for point in ("prepare", "apply", "commit") for at in (1, 2)
    )),
    "race": ("sharded", (
        Fault("second", "translated"),
        Fault("second", "selected", verb="update_where", aimed=False),
        Fault("second", "translated", verb="rekey"),
    )),
    "failover": ("replicated", (
        Fault("kill", "pre_apply"), Fault("kill", "post_apply"), Fault("kill", "pre_ship"),
        Fault("kill", "pre_ship", 2), Fault("kill", "post_ship"),
        Fault("kill_target", "pre_promote"), Fault("kill_target", "post_drain"),
        Fault("kill_target", "post_promote"),
    )),
    "quorum": ("replicated", (
        Fault("wedge", "request"), Fault("wedge", "post_apply"),
        Fault("wedge_one", "pre_ship", absorbed=True),
        Fault("transient", "ship", absorbed=True),
        Fault("wedge", "request", verb="rekey"), Fault("wedge", "pre_ship", verb="rekey"),
        Fault("second", "translated"),
    )),
}


class Violation(Exception):
    """A step broke the rule, or an invariant did not hold after it."""


class _Undo(Exception):  # discards the model's look-ahead transaction
    pass


def canon(value: Any) -> Any:
    """A read's answer as a hashable value: a query's instances in any
    order, each instance exactly — siblings come in key order on every
    engine, so their order is part of what must agree."""
    if isinstance(value, list):
        return tuple(sorted(map(canon, value), key=repr))
    return _frozen(value.to_dict() if isinstance(value, Instance) else value)


def _frozen(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _frozen(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(map(_frozen, value))
    return value


def state(session) -> Dict[str, List[Tuple[Any, ...]]]:
    """The logical database a session serves, relation by relation."""
    names = session.graph.relation_names
    if isinstance(session, ShardedPenguin):
        return {name: session.all_rows(name) for name in names}
    # Inside a transaction, its overlay; never through a fault injector.
    engine = session._reading()[0] if isinstance(session, Penguin) else session.engine
    engine = engine.base if isinstance(engine, FaultInjectingEngine) else engine
    return {name: sorted(engine.scan(name), key=repr) for name in names}


def attempt(session, op: Op, selected=None) -> Optional[type]:
    """``op`` through the one write surface: None when acked, else the
    error's class. ``selected`` runs between a query-driven verb's select
    and its translate half."""
    where = f"name = '{op.key}'"

    def transform(chart):
        if selected is not None:
            selected()
        return {**chart, "name": op.tag}

    try:
        if op.verb == "insert":
            session.insert(OBJECT, op.chart)
        elif op.verb in ("replace", "rekey"):
            session.replace(OBJECT, (op.key,), op.chart)
        elif op.verb == "delete":
            session.delete(OBJECT, (op.key,))
        elif op.verb == "delete_where":
            session.delete_where(OBJECT, where)
        else:
            session.update_where(OBJECT, where, transform)
    except (Exception, SimulatedCrash) as exc:  # noqa: BLE001 - the outcome
        return type(exc)
    return None


def _is(error: Optional[type], classes) -> bool:
    return error is not None and issubclass(error, classes)


def _told(error: Optional[type]) -> str:
    return "acked" if error is None else error.__name__


class Report:
    """What one preset's run did, and the first violation if any."""

    def __init__(self, preset: str, seed: int, steps: int) -> None:
        self.preset, self.seed, self.steps = preset, seed, steps
        self.fired = {fault.name: 0 for fault in PRESETS[preset][1]}
        self.counts = dict.fromkeys((
            "acked", "rejected", "refused or failed", "raced", "read",
            "stale reads marked", "retries", "episodes", "failovers",
        ), 0)
        self.violation: Optional[str] = None
        self.ran = 0  # steps run, the violating one included
        self.prefix: List[Step] = []

    @property
    def ok(self) -> bool:
        return self.violation is None

    def summary(self) -> str:
        lines = [
            f"simulate {self.preset} (seed={self.seed}, steps={self.steps}, "
            f"deployment={PRESETS[self.preset][0]})",
            "  steps      : " + ", ".join(f"{n} {what}" for what, n in self.counts.items()),
            "  faults     : " + ", ".join(f"{name} fired {n}" for name, n in self.fired.items()),
        ]
        if self.ok:
            return "\n".join(lines + [
                "  invariants : all held (0 lost acked writes, 0 torn states, "
                "every replica converged)"
            ])
        last = self.prefix[-1]
        lines += [
            f"  invariants : VIOLATED — {self.violation}",
            f"    seed={self.seed}, step {self.ran} ({len(self.prefix)} of its episode), "
            f"operation {last.op!r}, fault {last.fault.name if last.fault else None}",
            "    shortest failing prefix (a fresh deployment, then):",
        ]
        return "\n".join(
            lines + [f"      {n}. {step!r}" for n, step in enumerate(self.prefix, 1)]
        )


class Simulation:
    """One preset under one seed; :meth:`run` draws the steps or, given a
    script, replays them on one fresh deployment."""

    def __init__(self, preset: str, seed: int, steps: int) -> None:
        self.report = Report(preset, seed, steps)
        self.kind, menu = PRESETS[preset]
        self.rng = random.Random(f"{preset}/{seed}")
        self.zipf = ZipfianWorkload(len(KEYS), seed=self.rng.randrange(1 << 30))
        self.keys = list(KEYS)
        self.rng.shuffle(self.keys)  # which key is hot depends on the seed
        order = list(menu)
        self.rng.shuffle(order)
        self.schedule = itertools.cycle(order)
        self.calm = 1  # steps until the next fault is armed
        self.deployment = None

    # -- deployments (stacks come from hospital_session only) -----------------

    def _build(self) -> None:
        self._close()
        self.hook, replication = FaultHook(), None
        self.model = hospital_session(4)
        if self.kind in ("single", "concurrent"):
            base = hospital_session(4)
            engine = FaultInjectingEngine(base.engine, self.hook)
            engine.retry_policy = RetryPolicy(seed=0, sleep=lambda _: None)
            session = restarted(
                base, engine=engine, journal=MemoryJournal(), audit=MemoryAuditLog()
            )
            if self.kind == "concurrent":
                session = ConcurrentPenguin(session, breaker=CircuitBreaker(1, 3))
                session.materialize(OBJECT)
                session.query(OBJECT)  # warm the cache stale reads come from
        else:
            if self.kind == "replicated":
                replication = ReplicationConfig(replicas=2)
            session = hospital_session(4, shards=2, replication=replication)
            session.failpoint = self.hook
        self.deployment = session
        self.router = getattr(session, "router", None)
        self.replica_sets = []
        if replication is not None:
            self.replica_sets = [shard.replica_set for shard in session.shards]
        self.unaudited: set = set()  # shards whose trail misses a 2PC sub-plan
        self.trail: List[Step] = []
        self.left: Optional[int] = None  # steps until a killed stack is rebuilt
        self.report.counts["episodes"] += 1

    def _close(self) -> None:
        if isinstance(self.deployment, ShardedPenguin):
            self.report.counts["failovers"] += sum(rs.failovers for rs in self.replica_sets)
            self.deployment.close()
        self.deployment = None

    def _penguins(self):
        """(shard id, primary's Penguin) per stack that journals and audits."""
        if isinstance(self.deployment, ShardedPenguin):
            return [(shard.shard_id, shard.penguin) for shard in self.deployment.shards]
        return [(None, getattr(self.deployment, "penguin", self.deployment))]

    def _owner(self, key: Any) -> Optional[int]:
        if self.router is None or not isinstance(key, int):
            return None
        return self.router.shard_of((key,))

    def _disturbed(self) -> bool:
        breaker = getattr(self.deployment, "breaker", None)
        return breaker is not None and not breaker.healthy

    # -- drawing steps ---------------------------------------------------------

    def _pick(self, keys: Sequence[int]) -> int:
        return keys[self.zipf.sample_rank() % len(keys)]

    def _present(self) -> List[int]:
        return sorted(row[0] for row in self.model.engine.scan("PATIENT"))

    def _write(self, key: int, verb: Optional[str] = None) -> Op:
        rng = self.rng
        verb = verb or rng.choice(("insert", "replace", "delete", "rekey"))
        if verb == "delete":
            return Op(verb, key)
        leaves = rng.choice((None, ("flu", "mild", rng.randrange(1, 9), 1.5)))
        chart = new_chart(
            key, rng.choice(TAGS), 1950 + rng.randrange(50),
            rng.choice(("checkup", "follow-up")), leaves=leaves,
        )
        if verb != "rekey":
            return Op(verb, key, chart)
        # Re-key to an absent key — sharded: one another shard owns, so
        # the plan is a two-phase commit.
        present = self._present()
        absent = [k for k in (*self.keys, *range(200, 232)) if k not in present and k != key]
        far = [k for k in absent if self._owner(k) != self._owner(key)] or absent
        held = self.model.get(OBJECT, (key,))
        return Op(verb, key, rehome(held.to_dict() if held else chart, far[0]))

    def _random(self) -> Step:
        verb = self.rng.choices(*zip(*VERBS))[0]
        if verb in ("update_where", "delete_where", "query"):
            return Step(Op(verb, self.rng.choice(TAGS), tag=self.rng.choice(TAGS)))
        if verb == "get":
            return Step(Op(verb, self._pick(self.keys)))
        return Step(self._write(self._pick(self.keys), verb))

    def _aimed(self, fault: Fault, victim: Optional[int]) -> Optional[Step]:
        """A step ``fault`` can fire on: a write the model accepts, on a key
        the victim owns when any key routes there; None while the victim
        holds no chart to aim a re-key or a select at."""
        present = self._present()
        mine = [k for k in self.keys if self._owner(k) == victim] or self.keys
        held = [k for k in present if k in mine]
        if fault.verb is None:
            key, verb = self._pick(mine), "insert"
            if key in present:  # (a crash at the n-th mutation needs n of them)
                verb = self.rng.choice(("replace", "delete")[fault.kind == "crash":])
            op = self._write(key, verb)
        elif not held:
            return None
        else:
            key = self.rng.choice(held)
            op = self._write(key, "rekey")
            if fault.verb == "update_where":
                name = self.model.engine.get("PATIENT", (key,))[1]
                op = Op("update_where", name, tag=self.rng.choice(TAGS))
        second = None
        if fault.kind == "second":  # a second writer, colliding on the key
            second = self._write(key, "replace" if fault.verb else None)
        return Step(op, fault, victim, second)

    def _draw(self) -> Step:
        if self.deployment is None or self.left == 0 or len(self.trail) >= EPISODE:
            self._build()
        step = None
        self.calm -= 1
        if self.calm < 0 and self.left is None and not self._disturbed():
            fault, victim = next(self.schedule), None
            if self.router is not None and fault.aimed:
                victim = self.rng.randrange(self.router.num_shards)
            step = self._aimed(fault, victim)
            self.calm = self.rng.randint(0, 2)
        return step or self._random()

    # -- arming ------------------------------------------------------------------

    def _arm(self, step: Step) -> List[FaultRule]:
        fault, victim, plan = step.fault, step.victim, self.hook.plan
        if fault.kind in ("crash", "transient"):
            shard = victim if fault.point == "ship" else None
            plan.add(FaultRule(fault.kind, (fault.point,), at=fault.at, shard=shard))
        elif fault.kind == "second":
            self.second = SecondOperation(
                lambda: attempt(self.deployment, step.second),
                lambda: self.deployment.queued,
            )
            shard = victim if fault.point == "translated" else None
            plan.call_at(fault.point, self.second, fault.at, shard)
        else:
            if fault.kind == "kill_target":  # the primary dies first
                plan.call_at("request", self._act("kill"), shard=victim)
            plan.call_at(fault.point, self._act(fault.kind), fault.at, victim)
        return list(plan.rules)

    def _act(self, kind: str):
        """``kill`` the primary; ``kill_target``: the promotion target — the
        most caught-up live replica, or (``post_promote``) the stack just
        promoted; ``wedge`` every link, ``wedge_one`` the first."""

        def act(point: str, shard: int) -> None:
            replica_set = self.deployment.shard(shard).replica_set
            live = [r for r in replica_set.replicas if not r.killed]
            if kind.startswith("wedge"):
                for replica in live[:1] if kind == "wedge_one" else live:
                    replica_set.link(replica.name).wedge()
            elif kind == "kill_target" and point != "post_promote" and live:
                max(live, key=lambda r: (r.received_count, r.name)).kill()
            else:
                replica_set.primary.kill()

        return act

    def _fired(self, step: Step, rules: List[FaultRule]) -> None:
        del self.hook.plan.rules[:]
        if not all(rule.fired for rule in rules):
            raise Violation(
                f"scheduled fault never fired: {step.fault.name} on shard "
                f"{step.victim} — the operation never reached it"
            )
        if rules:
            self.report.fired[step.fault.name] += 1
            if step.fault.kind.startswith("kill") and self.left is None:
                self.left = 2  # two steps on the promoted stack, then rebuild

    # -- one step ----------------------------------------------------------------

    def _foresee(self, ops: Sequence[Op]) -> Tuple[List[Tuple[Optional[type], Any]], frozenset]:
        """[(error class, state) after each of ``ops`` in turn on the model],
        and their keys' instances at the end — read in one transaction
        block on the model, which ``_Undo`` discards: nothing lands."""
        seen = []
        try:
            with self.model.transaction():
                for op in ops:
                    seen.append((attempt(self.model, op), state(self.model)))
                views = frozenset(
                    canon(self.model.get(OBJECT, (op.key,)))
                    for op in ops if isinstance(op.key, int)
                )
                raise _Undo
        except _Undo:
            return seen, views

    def _request(self, op: Op) -> Optional[type]:
        self.hook.tick("request", shard=self._owner(op.key))
        return attempt(self.deployment, op, lambda: self.hook.tick("selected"))

    def _step(self, step: Step) -> None:
        op, calm = step.op, step.fault is None and not self._disturbed()
        if op.verb in ("get", "query"):
            return self._read(op, calm)
        for each in (op, step.second):
            if each is not None and each.verb == "rekey":  # both participants
                self.unaudited |= {self._owner(each.key), self._owner(each.chart["patient_id"])}
        rules = self._arm(step) if step.fault else []
        if step.second is not None:
            return self._race(step, rules)
        futures, beside = self._foresee([op, op])
        states = [state(self.model)] + [after for _, after in futures]
        attempts = [self._request(op)]
        while _is(attempts[-1], DegradedServiceError) and len(attempts) < RETRIES:
            if len(attempts) == 1 and isinstance(op.key, int):
                self._read(Op("get", op.key), calm, beside)
            attempts.append(self._request(op))
        last = attempts[-1]
        self.report.counts["retries"] += len(attempts) - 1
        for rs in self.replica_sets if last is None else ():
            acks = sum(rs.link(r.name).cursor >= rs.stream_length for r in rs.replicas)
            if acks < rs.config.quorum:
                raise Violation(f"acked with shard {rs.shard_id} below its quorum")
        self._settle(last is SimulatedCrash)
        self._fired(step, rules)
        after = state(self.deployment)
        told = f"{_told(last)} after {len(attempts) - 1} retries"
        if _is(last, FAULTED) and (calm or step.fault and step.fault.absorbed):
            raise Violation(f"{told}, with no fault armed that may reach the client")
        if after not in states:
            raise Violation(f"{told}: torn — neither the before- nor an after-state")
        landed = states.index(after)
        if _is(last, FAULTED):
            self.report.counts["refused or failed"] += 1
            if landed > 1:
                raise Violation(f"{told}: the write landed twice")
        else:
            # No failed attempt landed — or one did, and this is its retry.
            allowed = futures[:len(attempts)]
            if (last, after) not in allowed:
                raise Violation(
                    f"{told} with the state after {landed} landing(s); the model: "
                    + " or ".join(
                        f"{_told(error)} after {n}" for n, (error, _) in enumerate(allowed, 1)
                    )
                )
            self.report.counts["acked" if last is None else "rejected"] += 1
        for _ in range(landed):
            attempt(self.model, op)

    def _race(self, step: Step, rules: List[FaultRule]) -> None:
        """Two operations in flight end as one of the two serial orders."""
        first, second = step.op, step.second
        error_a = self._request(first)
        self._fired(step, rules)
        error_b = self.second.join()
        if isinstance(error_b, BaseException):  # it never finished
            error_b = type(error_b)
        after = state(self.deployment)
        self.report.counts["raced"] += 1
        for pair in ((first, second), (second, first)):
            seen = dict(zip(map(id, pair), self._foresee(pair)[0]))
            if (error_a, error_b, after) == (
                seen[id(first)][0], seen[id(second)][0], seen[id(pair[1])][1]
            ):
                for op in pair:
                    attempt(self.model, op)
                return
        raise Violation(
            f"{first!r} beside {second!r} ended {_told(error_a)} / {_told(error_b)} "
            f"(second held back: {self.second.held_back}) — the outcomes and "
            f"state of neither serial order"
        )

    def _read(self, op: Op, calm: bool, beside: frozenset = frozenset()) -> None:
        """A read is refused (beside a fault only), or the model's answer
        (``beside`` a faulted write: or what that may have left) — marked
        stale when a cache or a replica gave it; both are brought up to
        date whenever a step settles, so stale is never *older* here."""
        get = op.verb == "get"
        argument = (op.key,) if get else f"name = '{op.key}'"
        read = self.model.get if get else self.model.query
        allowed = {canon(read(OBJECT, argument))} | beside
        self.report.counts["read"] += 1
        name = op.verb if self.kind == "single" else op.verb + "_served"
        try:
            served = getattr(self.deployment, name)(OBJECT, argument)
        except DegradedServiceError:
            if calm:
                raise Violation(f"{op!r} refused with no fault live") from None
            return
        stale = getattr(served, "stale", False)
        self.report.counts["stale reads marked"] += stale
        down = self._disturbed() or any(
            rs.shard_id == self._owner(op.key) and not rs.health()["primary_up"]
            for rs in self.replica_sets
        )
        if stale and calm or down and get and not stale:
            raise Violation(f"{op!r}: stale={stale} with the primary down={down}")
        if canon(getattr(served, "value", served)) not in allowed:
            raise Violation(f"{op!r} read no state the model has been in")

    # -- settling, and what must hold afterwards ---------------------------------

    def _settle(self, crashed: bool) -> None:
        if self.kind == "concurrent":
            self.deployment.sync()
        if crashed:
            self.deployment = restarted(self.deployment)
            if isinstance(self.deployment, ShardedPenguin):
                self.deployment.failpoint = self.hook
                again = self.deployment.recover().two_phase
                if not self.deployment.recovery.clean or again.resolved:
                    raise Violation("recovery conflicted, or is not idempotent")
        for replica_set in self.replica_sets:
            links = [replica_set.link(r.name) for r in replica_set.replicas]
            sends = sum(link.sends for link in links)
            if not replica_set.health()["primary_up"] and (
                replica_set.catch_up() or sends != sum(link.sends for link in links)
            ):
                raise Violation("a killed stack shipped to its replicas")
            for _ in range(4 * replica_set.config.miss_threshold):
                if replica_set.health()["primary_up"]:
                    break
                replica_set.probe()
            for link in links:
                link.heal()
            replica_set.catch_up()
            if not replica_set.quorum_reachable():
                self.left = 0  # this shard can ack nothing more: rebuild

    def _invariants(self) -> None:
        violations = self.deployment.check_integrity()
        if violations:
            raise Violation(f"{len(violations)} structural integrity violations")
        for shard_id, penguin in self._penguins():
            if penguin.journal.pending():
                raise Violation(f"shard {shard_id}: a journal entry left PENDING")
            # (a two-phase commit is audited whole, on its owner only)
            if shard_id not in self.unaudited and not penguin.replay_audit().ok:
                raise Violation(f"shard {shard_id}: audit replay is not the live state")
        for replica_set in self.replica_sets:
            for replica in replica_set.replicas:
                if not replica.killed and (
                    replica.divergent
                    or replica_set.lag(replica)
                    or divergence(replica_set.primary.engine, replica.engine)
                ):
                    raise Violation(
                        f"shard {replica_set.shard_id} replica {replica.name} "
                        f"did not converge on its primary"
                    )

    def run(self, script: Optional[Sequence[Step]] = None) -> Report:
        try:
            if script is not None:
                self._build()
            for index in range(self.report.steps):
                step = script[index] if script is not None else self._draw()
                self.trail.append(step)
                self.report.ran += 1
                if self.left:
                    self.left -= 1
                try:
                    self._step(step)
                    self._invariants()
                except Violation as violation:
                    self.report.violation = str(violation)
                    self.report.prefix = list(self.trail)
                    break
        finally:
            self._close()
        return self.report


def simulate(preset: str, seed: int = 0, steps: int = 40) -> Report:
    """Run one preset's seeded stream; same arguments, same report."""
    return Simulation(preset, seed, steps).run()


def replay(preset: str, prefix: Sequence[Step]) -> Report:
    """Re-run a failing report's ``prefix`` on a fresh deployment."""
    return Simulation(preset, 0, len(prefix)).run(script=prefix)
