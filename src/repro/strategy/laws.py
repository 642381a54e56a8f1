"""Round-trip law harness: execute PutGet/GetPut-style laws against a
translator configuration.

The static checker (:mod:`repro.strategy.checks`) reasons about the
policy answers; this module *runs* the translator against seeded
databases and checks the laws a well-behaved view-update translator
must satisfy (the BIRDS/lens laws, transposed to view objects):

* **insert-putget** — a successful complete insertion is visible on
  read-back, and re-inserting the same instance now rejects (CASE 1);
* **insert-liveness** — when insertion is allowed and no switch or
  completer can justify a rejection, a fresh instance must be accepted;
* **delete-fresh** — deleting the freshly inserted instance succeeds
  and leaves zero orphans;
* **delete-populated** — deleting a referenced instance either commits
  with structural integrity intact or rejects *cleanly* (an
  :class:`~repro.errors.UpdateError`, never an engine error);
* **reject-zero-trace** — a rejected update leaves no trace in the
  engine, the journal, the audit log, or the materialized cache;
* **replace-getput** — replacing an instance with itself is a no-op,
  in whatever order the copy lists its siblings (Figure 4's components
  are sets);
* **replace-putget** — a non-key replacement is reflected on read-back;
* **replace-idempotent** — re-translating the already-applied
  replacement emits the empty plan, siblings reversed or not;
* **key-rehome** — an allowed pivot key change rehomes the instance and
  retargets references, keeping integrity intact.

(That the compiled program equals the readable walk of
``tests/reference_translate.py`` is a test, not a law of a configuration:
``tests/strategy/test_compiled_parity.py`` runs it over the same
``chain_case`` × ``random_policy`` configurations.)

Every case is rebuilt from its seed for every law, so laws never
contaminate each other and a falsification report can always print the
exact seed + schema that reproduces it.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.dependency_island import NodeRole
from repro.core.updates.operations import Replacement
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
    null_completer,
)
from repro.core.view_object import ViewObjectDefinition
from repro.errors import ReproError, UpdateError
from repro.relational.engine import Engine
from repro.relational.journal import MemoryJournal
from repro.relational.memory_engine import MemoryEngine
from repro.obs.audit import MemoryAuditLog
from repro.structural.integrity import IntegrityChecker
from repro.structural.schema_graph import ConnectionKind, StructuralSchema

__all__ = [
    "StrategyCase",
    "chain_case",
    "workload_case",
    "random_policy",
    "run_laws",
]

LAW_NAMES = (
    "insert-putget",
    "delete-fresh",
    "delete-populated",
    "reject-zero-trace",
    "replace-getput",
    "replace-putget",
    "replace-idempotent",
    "key-rehome",
)


class StrategyCase:
    """One reproducible schema+data scenario for the law harness.

    ``build()`` returns a *fresh* ``(graph, view_object, engine)``
    triple every time it is called — same seed, same bytes — so each
    law starts from the identical database state.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        build: Callable[[], Tuple[StructuralSchema, ViewObjectDefinition, Engine]],
        params: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.seed = seed
        self._build = build
        self.params = dict(params or {})

    def build(self) -> Tuple[StructuralSchema, ViewObjectDefinition, Engine]:
        return self._build()

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}(seed={self.seed}, {inner})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StrategyCase({self.describe()})"


def chain_case(seed: int, adversarial: bool = False) -> StrategyCase:
    """A seeded member of the synthetic chain family (optionally with
    the adversarial mutations of :func:`random_chain_case`)."""
    from repro.workloads.synthetic import random_chain_case

    def build():
        engine = MemoryEngine()
        graph, view_object, _ = random_chain_case(
            engine, seed, adversarial=adversarial
        )
        return graph, view_object, engine

    engine = MemoryEngine()
    _, _, params = random_chain_case(engine, seed, adversarial=adversarial)
    name = "adversarial-chain" if adversarial else "chain"
    return StrategyCase(name, seed, build, params)


def workload_case(workload: str, object_name: Optional[str] = None) -> StrategyCase:
    """A canonical workload (hospital / university / cad) as a law case."""
    if workload == "hospital":
        from repro.workloads.hospital import (
            hospital_schema,
            patient_chart_object,
            populate_hospital,
        )

        def build():
            graph = hospital_schema()
            engine = MemoryEngine()
            graph.install(engine)
            populate_hospital(engine)
            return graph, patient_chart_object(graph), engine

    elif workload == "university":
        from repro.workloads.figures import course_info_object
        from repro.workloads.university import (
            populate_university,
            university_schema,
        )

        def build():
            graph = university_schema()
            engine = MemoryEngine()
            graph.install(engine)
            populate_university(engine)
            return graph, course_info_object(graph), engine

    elif workload == "cad":
        from repro.workloads.cad import assembly_object, cad_schema, populate_cad

        def build():
            graph = cad_schema()
            engine = MemoryEngine()
            graph.install(engine)
            populate_cad(engine)
            return graph, assembly_object(graph), engine

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return StrategyCase(workload, 0, build, {"workload": workload})


# -- seeded policy corpus ------------------------------------------------------


def random_policy(
    view_object: ViewObjectDefinition, seed: int
) -> TranslatorPolicy:
    """A seeded translator policy over the object's relations.

    Deliberately spans the whole quality spectrum — permissive,
    partial, contradictory, and unsatisfiable configurations — so the
    static checker and the law harness can disagree-hunt on the same
    corpus.
    """
    rng = random.Random(seed * 7919 + 17)
    policy = TranslatorPolicy(
        allow_insertion=rng.random() < 0.85,
        allow_deletion=rng.random() < 0.85,
        allow_replacement=rng.random() < 0.85,
    )
    graph = view_object.graph
    for relation in sorted(graph.relation_names):
        relation_policy = RelationPolicy(
            can_modify=rng.random() < 0.85,
            can_insert=rng.random() < 0.85,
            can_replace_existing=rng.random() < 0.85,
            allow_key_replacement=rng.random() < 0.75,
            allow_db_key_replacement=rng.random() < 0.75,
            allow_merge_on_key_conflict=rng.random() < 0.25,
            on_reference_delete=rng.choice(
                [
                    ReferenceRepair.AUTO,
                    ReferenceRepair.AUTO,
                    ReferenceRepair.DELETE,
                    ReferenceRepair.NULLIFY,
                    ReferenceRepair.PROHIBIT,
                ]
            ),
        )
        policy.set_relation(relation, relation_policy)
    return policy


# -- results -------------------------------------------------------------------

HELD = "held"
REJECTED = "rejected"
SKIPPED = "skipped"
FALSIFIED = "falsified"


class LawResult:
    __slots__ = ("law", "status", "detail")

    def __init__(self, law: str, status: str, detail: str = "") -> None:
        self.law = law
        self.status = status
        self.detail = detail

    def to_dict(self) -> Dict[str, str]:
        return {"law": self.law, "status": self.status, "detail": self.detail}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LawResult({self.law!r}, {self.status!r})"


class LawReport:
    """All law verdicts for one (case, policy) configuration."""

    def __init__(
        self,
        case: StrategyCase,
        policy_summary: Dict[str, Any],
        results: List[LawResult],
    ) -> None:
        self.case = case
        self.policy_summary = policy_summary
        self.results = results

    @property
    def falsified(self) -> List[LawResult]:
        return [r for r in self.results if r.status == FALSIFIED]

    @property
    def ok(self) -> bool:
        return not self.falsified

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case": self.case.name,
            "seed": self.case.seed,
            "schema": dict(self.case.params),
            "policy": self.policy_summary,
            "results": [r.to_dict() for r in self.results],
            "falsified": [r.law for r in self.falsified],
        }

    def render(self) -> str:
        """The falsification report; always prints the failing seed and
        schema so a run can be replayed exactly (CI == local)."""
        lines = [
            f"law report for {self.case.describe()}:",
            f"  policy : {_summarize(self.policy_summary)}",
        ]
        for result in self.results:
            mark = {
                HELD: "ok",
                REJECTED: "ok (clean reject)",
                SKIPPED: "skipped",
                FALSIFIED: "FALSIFIED",
            }[result.status]
            suffix = f" -- {result.detail}" if result.detail else ""
            lines.append(f"  {result.law:<18}: {mark}{suffix}")
        if self.falsified:
            lines.append(
                f"  REPRODUCE WITH    : case={self.case.name} "
                f"seed={self.case.seed} "
                f"schema={dict(sorted(self.case.params.items()))}"
            )
        return "\n".join(lines)


def _summarize(summary: Dict[str, Any]) -> str:
    gates = summary.get("gates", {})
    on = [k for k, v in sorted(gates.items()) if v]
    return f"gates={'+'.join(on) or 'none'}"


# -- the harness ---------------------------------------------------------------


class _Session:
    """One fresh database + translator + full observability stack."""

    def __init__(self, case: StrategyCase, policy: TranslatorPolicy) -> None:
        from repro.penguin import Penguin

        self.graph, self.view_object, self.engine = case.build()
        self.journal = MemoryJournal()
        self.audit = MemoryAuditLog()
        self.penguin = Penguin(
            self.graph,
            engine=self.engine,
            install=False,
            journal=self.journal,
            audit=self.audit,
            strictness="off",
        )
        self.penguin.register_object(self.view_object)
        self.name = self.view_object.name
        self.policy = policy
        self.analysis = self.penguin.set_policy(self.name, policy).analysis

    def fingerprint(self) -> Tuple[Any, ...]:
        dump = tuple(
            (name, tuple(sorted(map(repr, self.engine.scan(name)))))
            for name in sorted(self.engine.relation_names())
        )
        cached = tuple(
            (
                name,
                tuple(
                    sorted(repr(i.to_dict()) for i in self.penguin.query(name))
                ),
            )
            for name in sorted(self.penguin.materialized_names)
        )
        # Rejections are *supposed* to be journaled/audited (rolled_back
        # records are the audit trail working as designed); the trace a
        # rejected update must never leave is a *committed* entry.
        committed_journal = self.journal.counts()["committed"]
        committed_audit = sum(
            1
            for record in self.audit.records()
            if record.state == "committed"
        )
        return (dump, committed_journal, committed_audit, cached)

    def instances(self):
        return self.penguin.query(self.name)

    def first_instance(self):
        instances = self.instances()
        return instances[0] if instances else None

    def integrity_violations(self) -> int:
        return len(IntegrityChecker(self.graph).check(self.engine))


def run_laws(
    case: StrategyCase, policy: Optional[TranslatorPolicy] = None
) -> LawReport:
    """Execute every law against one configuration."""
    policy = policy or TranslatorPolicy.permissive()
    summary = _policy_summary(policy)
    results: List[LawResult] = []
    for law, runner in _LAWS:
        session = _Session(case, policy)
        try:
            results.append(runner(session))
        except AssertionError as exc:  # pragma: no cover - harness bug guard
            results.append(LawResult(law, FALSIFIED, f"harness: {exc}"))
    return LawReport(case, summary, results)


def _policy_summary(policy: TranslatorPolicy) -> Dict[str, Any]:
    return {
        "gates": {
            "insert": policy.allow_insertion,
            "delete": policy.allow_deletion,
            "replace": policy.allow_replacement,
        },
        "relations": {
            name: {
                "can_modify": rp.can_modify,
                "can_insert": rp.can_insert,
                "can_replace_existing": rp.can_replace_existing,
                "allow_key_replacement": rp.allow_key_replacement,
                "allow_db_key_replacement": rp.allow_db_key_replacement,
                "allow_merge_on_key_conflict": rp.allow_merge_on_key_conflict,
                "on_reference_delete": rp.on_reference_delete.value,
            }
            for name, rp in sorted(policy.relations.items())
        },
        "default_completer": policy.completer is null_completer,
    }


# -- instance synthesis --------------------------------------------------------


def synthesize_fresh_instance(
    session: _Session, offset: int = 500000
) -> Optional[Dict[str, Any]]:
    """A brand-new instance dict derived from an existing one.

    Walks the projection tree: every island component gets fresh values
    for the key attributes it owns (inherited connecting attributes
    follow the parent's fresh values by name), peninsula components are
    pruned (they belong to *existing* instances), and outside
    components are kept verbatim so they bind to existing tuples.
    Deterministic — no RNG.
    """
    source = session.first_instance()
    if source is None:
        return None
    view_object = session.view_object
    analysis = session.analysis
    graph = session.graph

    def fresh(value: Any) -> Any:
        # A *constant* shift keeps distinct originals distinct — a
        # per-call counter would let sibling keys collide (a+5 == b+1).
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value + offset
        if isinstance(value, float):
            return value + offset
        return f"{value}~L{offset}"

    def walk(node_id: str, payload: Dict[str, Any], overrides: Dict[str, Any]):
        node = view_object.node(node_id)
        data = dict(payload)
        for attr, value in overrides.items():
            if attr in data:
                data[attr] = value
        role = analysis.role(node_id)
        child_overrides = dict(overrides)
        if role is NodeRole.ISLAND:
            schema = graph.relation(node.relation)
            # Key attributes that bind the component to an *existing*
            # tuple elsewhere stay verbatim: attrs referencing another
            # relation, and attrs connecting to a non-island tree child
            # (GRADES.student_id names a real STUDENT). Freshening them
            # would dangle the connection.
            reference_bound: set = set()
            for connection in graph.connections_from(
                node.relation, ConnectionKind.REFERENCE
            ):
                reference_bound.update(connection.source_attributes)
            for child in view_object.tree.children(node_id):
                # Peninsula children are pruned from the synthesized
                # instance, so only OUTSIDE children (kept verbatim)
                # pin their connecting attributes.
                if analysis.role(child.node_id) is not NodeRole.OUTSIDE:
                    continue
                if child.path is not None and len(child.path) > 0:
                    reference_bound.update(
                        child.path.traversals[0].start_attributes
                    )
            for attr in schema.key:
                if (
                    attr in overrides
                    or attr not in data
                    or attr in reference_bound
                ):
                    continue
                new_value = fresh(data[attr])
                data[attr] = new_value
                child_overrides[attr] = new_value
        for child in view_object.tree.children(node_id):
            components = data.get(child.node_id)
            if analysis.role(child.node_id) is NodeRole.PENINSULA:
                data[child.node_id] = []
                continue
            if components:
                data[child.node_id] = [
                    walk(child.node_id, component, child_overrides)
                    for component in components
                ]
        return data

    root = source.to_dict()
    return walk(view_object.pivot_node_id, root, {})


def rekey_pivot(
    session: _Session, offset: int = 700000
) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """(old dict, new dict) where only the pivot key changed; connecting
    attributes in descendants follow by name (the system-rewritten
    attributes of Section 5.3)."""
    source = session.first_instance()
    if source is None:
        return None
    view_object = session.view_object
    graph = session.graph
    pivot_schema = graph.relation(view_object.pivot_relation)

    old = source.to_dict()
    overrides: Dict[str, Any] = {}
    for index, attr in enumerate(pivot_schema.key):
        if attr in old:
            value = old[attr]
            if isinstance(value, int) and not isinstance(value, bool):
                overrides[attr] = value + offset + index
            else:
                overrides[attr] = f"{value}~K{offset + index}"

    def walk(node_id: str, payload: Dict[str, Any]):
        data = dict(payload)
        for attr, value in overrides.items():
            if attr in data:
                data[attr] = value
        for child in view_object.tree.children(node_id):
            components = data.get(child.node_id)
            if components:
                data[child.node_id] = [
                    walk(child.node_id, component) for component in components
                ]
        return data

    return old, walk(view_object.pivot_node_id, old)


def _mutable_pivot_attribute(session: _Session) -> Optional[str]:
    """A nonkey, non-connecting text attribute of the pivot selection —
    safe to rewrite without touching keys or references."""
    view_object = session.view_object
    graph = session.graph
    schema = graph.relation(view_object.pivot_relation)
    connected = set()
    for connection in graph.connections:
        if connection.source == view_object.pivot_relation:
            connected.update(connection.source_attributes)
        if connection.target == view_object.pivot_relation:
            connected.update(connection.target_attributes)
    for attr in view_object.projection(view_object.pivot_node_id).attributes:
        if attr in schema.key or attr in connected:
            continue
        if schema.attribute(attr).domain.name == "text":
            return attr
    return None


# -- justification: which rejections are sanctioned by the dialog --------------


def _insert_reject_justified(session: _Session) -> bool:
    policy = session.policy
    if policy.completer is not null_completer:
        return True
    for relation_policy in policy.relations.values():
        if not (relation_policy.can_modify and relation_policy.can_insert):
            return True
    return False


def _delete_reject_justified(session: _Session) -> bool:
    policy = session.policy
    for relation_policy in policy.relations.values():
        if relation_policy.on_reference_delete is ReferenceRepair.PROHIBIT:
            return True
    return False


def _replace_reject_justified(session: _Session) -> bool:
    policy = session.policy
    for relation_policy in policy.relations.values():
        if not relation_policy.can_modify:
            return True
    return False


def _key_reject_justified(session: _Session) -> bool:
    policy = session.policy
    for relation in session.analysis.island_relations:
        relation_policy = policy.relations.get(relation) or RelationPolicy()
        if not (
            relation_policy.allow_key_replacement
            and relation_policy.allow_db_key_replacement
        ):
            return True
    return _replace_reject_justified(session)


# -- the laws ------------------------------------------------------------------


def _law_insert_putget(session: _Session) -> LawResult:
    law = "insert-putget"
    fresh = synthesize_fresh_instance(session)
    if fresh is None:
        return LawResult(law, SKIPPED, "no source instance")
    before = session.fingerprint()
    try:
        session.penguin.insert(session.name, fresh)
    except UpdateError as exc:
        if session.fingerprint() != before:
            return LawResult(law, FALSIFIED, f"rejection left a trace: {exc}")
        if session.policy.allow_insertion and not _insert_reject_justified(
            session
        ):
            return LawResult(
                law,
                FALSIFIED,
                f"insertion allowed, nothing in the policy justifies the "
                f"rejection: {exc}",
            )
        return LawResult(law, REJECTED, str(exc))
    except ReproError as exc:
        return LawResult(
            law, FALSIFIED, f"unclean failure ({type(exc).__name__}): {exc}"
        )
    key = _key_of(session, fresh)
    read_back = session.penguin.get(session.name, key)
    if read_back is None:
        return LawResult(law, FALSIFIED, "inserted instance not readable")
    root_values = read_back.root.values
    for attr, value in fresh.items():
        if isinstance(value, (dict, list)):
            continue
        if attr in root_values and root_values[attr] != value:
            return LawResult(
                law,
                FALSIFIED,
                f"read-back differs at {attr!r}: {root_values[attr]!r} != "
                f"{value!r}",
            )
    try:
        session.penguin.insert(session.name, fresh)
    except UpdateError:
        return LawResult(law, HELD)
    except ReproError as exc:
        return LawResult(
            law, FALSIFIED, f"duplicate insert died uncleanly: {exc}"
        )
    return LawResult(
        law, FALSIFIED, "re-inserting the same instance did not reject"
    )


def _law_delete_fresh(session: _Session) -> LawResult:
    law = "delete-fresh"
    fresh = synthesize_fresh_instance(session)
    if fresh is None:
        return LawResult(law, SKIPPED, "no source instance")
    try:
        session.penguin.insert(session.name, fresh)
    except ReproError:
        return LawResult(law, SKIPPED, "insertion unavailable under policy")
    key = _key_of(session, fresh)
    try:
        session.penguin.delete(session.name, key)
    except UpdateError as exc:
        if session.policy.allow_deletion and not _delete_reject_justified(
            session
        ):
            return LawResult(
                law,
                FALSIFIED,
                f"deletion of an unreferenced fresh instance rejected: {exc}",
            )
        return LawResult(law, REJECTED, str(exc))
    except ReproError as exc:
        return LawResult(
            law, FALSIFIED, f"unclean failure ({type(exc).__name__}): {exc}"
        )
    if session.penguin.get(session.name, key) is not None:
        return LawResult(law, FALSIFIED, "instance still readable after delete")
    orphans = session.integrity_violations()
    if orphans:
        return LawResult(
            law, FALSIFIED, f"{orphans} integrity violation(s) left behind"
        )
    return LawResult(law, HELD)


def _law_delete_populated(session: _Session) -> LawResult:
    law = "delete-populated"
    instance = session.first_instance()
    if instance is None:
        return LawResult(law, SKIPPED, "empty database")
    before = session.fingerprint()
    try:
        session.penguin.delete(session.name, instance)
    except UpdateError as exc:
        if session.fingerprint() != before:
            return LawResult(law, FALSIFIED, f"rejection left a trace: {exc}")
        return LawResult(law, REJECTED, str(exc))
    except ReproError as exc:
        if session.fingerprint() != before:
            return LawResult(
                law,
                FALSIFIED,
                f"unclean failure with residue ({type(exc).__name__}): {exc}",
            )
        return LawResult(
            law,
            FALSIFIED,
            f"unclean failure ({type(exc).__name__}), expected a clean "
            f"UpdateError: {exc}",
        )
    violations = session.integrity_violations()
    if violations:
        return LawResult(
            law,
            FALSIFIED,
            f"committed deletion left {violations} integrity violation(s)",
        )
    return LawResult(law, HELD)


def _law_reject_zero_trace(session: _Session) -> LawResult:
    law = "reject-zero-trace"
    instance = session.first_instance()
    if instance is None:
        return LawResult(law, SKIPPED, "empty database")
    session.penguin.materialize(session.name)
    session.penguin.query(session.name)  # warm the cache
    before = session.fingerprint()
    duplicate = instance.to_dict()
    try:
        session.penguin.insert(session.name, duplicate)
    except UpdateError:
        pass
    except ReproError as exc:
        return LawResult(
            law, FALSIFIED, f"unclean failure ({type(exc).__name__}): {exc}"
        )
    else:
        return LawResult(
            law, FALSIFIED, "inserting an existing instance did not reject"
        )
    session.penguin.query(session.name)
    if session.fingerprint() != before:
        return LawResult(
            law,
            FALSIFIED,
            "rejected update left a trace in engine/journal/audit/cache",
        )
    return LawResult(law, HELD)


def _siblings_reversed(data: Dict[str, Any]) -> Dict[str, Any]:
    """The same instance dict with every component list back to front."""
    return {
        name: [_siblings_reversed(child) for child in reversed(value)]
        if isinstance(value, list)
        else value
        for name, value in data.items()
    }


def _law_replace_getput(session: _Session) -> LawResult:
    law = "replace-getput"
    instance = session.first_instance()
    if instance is None:
        return LawResult(law, SKIPPED, "empty database")
    before = session.fingerprint()
    same = instance.to_dict()
    for how, payload in (
        ("identity", same),
        ("reordered identity", _siblings_reversed(same)),
    ):
        try:
            plan = session.penguin.replace(session.name, instance, payload)
        except UpdateError as exc:
            if session.policy.allow_replacement and not _replace_reject_justified(
                session
            ):
                return LawResult(
                    law, FALSIFIED, f"{how} replacement rejected: {exc}"
                )
            return LawResult(law, REJECTED, str(exc))
        except ReproError as exc:
            return LawResult(
                law, FALSIFIED, f"unclean failure ({type(exc).__name__}): {exc}"
            )
        if len(plan) != 0:
            return LawResult(
                law, FALSIFIED, f"{how} replacement emitted {len(plan)} op(s)"
            )
        if session.fingerprint()[0] != before[0]:
            return LawResult(law, FALSIFIED, f"{how} replacement changed data")
    return LawResult(law, HELD)


def _law_replace_putget(session: _Session) -> LawResult:
    law = "replace-putget"
    instance = session.first_instance()
    if instance is None:
        return LawResult(law, SKIPPED, "empty database")
    attr = _mutable_pivot_attribute(session)
    if attr is None:
        return LawResult(law, SKIPPED, "no mutable nonkey pivot attribute")
    mutated = instance.to_dict()
    mutated[attr] = "strategy-law-mutation"
    try:
        session.penguin.replace(session.name, instance, mutated)
    except UpdateError as exc:
        if session.policy.allow_replacement and not _replace_reject_justified(
            session
        ):
            return LawResult(
                law,
                FALSIFIED,
                f"non-key island replacement rejected without cause: {exc}",
            )
        return LawResult(law, REJECTED, str(exc))
    except ReproError as exc:
        return LawResult(
            law, FALSIFIED, f"unclean failure ({type(exc).__name__}): {exc}"
        )
    key = _key_of(session, mutated)
    read_back = session.penguin.get(session.name, key)
    if read_back is None:
        return LawResult(law, FALSIFIED, "instance vanished after replacement")
    if read_back.root.values.get(attr) != "strategy-law-mutation":
        return LawResult(
            law,
            FALSIFIED,
            f"update not reflected on read: {attr!r} is "
            f"{read_back.root.values.get(attr)!r}",
        )
    return LawResult(law, HELD)


def _law_replace_idempotent(session: _Session) -> LawResult:
    law = "replace-idempotent"
    instance = session.first_instance()
    if instance is None:
        return LawResult(law, SKIPPED, "empty database")
    attr = _mutable_pivot_attribute(session)
    if attr is None:
        return LawResult(law, SKIPPED, "no mutable nonkey pivot attribute")
    mutated = instance.to_dict()
    mutated[attr] = "strategy-law-mutation"
    try:
        session.penguin.replace(session.name, instance, mutated)
    except ReproError:
        return LawResult(law, SKIPPED, "replacement unavailable under policy")
    key = _key_of(session, mutated)
    applied = session.penguin.get(session.name, key)
    if applied is None:
        return LawResult(law, FALSIFIED, "instance vanished after replacement")
    for again in (applied, _siblings_reversed(applied.to_dict())):
        explanation = session.penguin.explain_update(
            session.name, Replacement(applied, again)
        )
        if len(explanation.plan):
            return LawResult(
                law,
                FALSIFIED,
                f"translate∘translate is not idempotent: re-translating the "
                f"applied replacement still emits "
                f"{len(explanation.plan)} op(s)",
            )
    return LawResult(law, HELD)


def _law_key_rehome(session: _Session) -> LawResult:
    law = "key-rehome"
    pair = rekey_pivot(session)
    if pair is None:
        return LawResult(law, SKIPPED, "empty database")
    old, new = pair
    old_key = _key_of(session, old)
    new_key = _key_of(session, new)
    if old_key == new_key:
        return LawResult(law, SKIPPED, "pivot key not rewritable")
    try:
        session.penguin.replace(session.name, old, new)
    except UpdateError as exc:
        if (
            session.policy.allow_replacement
            and not _key_reject_justified(session)
        ):
            return LawResult(
                law,
                FALSIFIED,
                f"allowed key replacement rejected: {exc}",
            )
        return LawResult(law, REJECTED, str(exc))
    except ReproError as exc:
        return LawResult(
            law, FALSIFIED, f"unclean failure ({type(exc).__name__}): {exc}"
        )
    if session.penguin.get(session.name, old_key) is not None:
        return LawResult(law, FALSIFIED, "old key still resolves after rehome")
    if session.penguin.get(session.name, new_key) is None:
        return LawResult(law, FALSIFIED, "new key does not resolve")
    violations = session.integrity_violations()
    if violations:
        return LawResult(
            law,
            FALSIFIED,
            f"key rehome left {violations} integrity violation(s)",
        )
    return LawResult(law, HELD)


def _key_of(session: _Session, payload: Dict[str, Any]) -> Tuple[Any, ...]:
    return tuple(payload[a] for a in session.view_object.object_key)


_LAWS: List[Tuple[str, Callable[[_Session], LawResult]]] = [
    ("insert-putget", _law_insert_putget),
    ("delete-fresh", _law_delete_fresh),
    ("delete-populated", _law_delete_populated),
    ("reject-zero-trace", _law_reject_zero_trace),
    ("replace-getput", _law_replace_getput),
    ("replace-putget", _law_replace_putget),
    ("replace-idempotent", _law_replace_idempotent),
    ("key-rehome", _law_key_rehome),
]
