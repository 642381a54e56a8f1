"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — regenerate the paper's figures and the Section 6 dialog
  transcript on the university workload;
* ``dump --workload NAME DIR`` — generate a workload and write its
  structural schema and data as JSON;
* ``check DIR`` — reload a dumped workload and run the structural
  integrity checker;
* ``query --workload NAME --object OBJECT TEXT`` — run an object query
  against a freshly generated workload and print the instances;
* ``materialize --workload NAME --object OBJECT`` — run a read-heavy
  query loop twice, dynamically instantiated and then served from a
  materialized view-object cache, and print the speedup plus the
  cache's maintenance statistics;
* ``simulate --preset NAME|all --seed S --steps N`` — drive a seeded
  stream of view-object operations, with a seeded schedule of faults
  (crashes, transient faults, primary and promotion-target kills,
  partitions, a second writer on the same key), against a single,
  concurrent, sharded or replicated deployment and check every step
  against one in-memory ``Penguin`` (:mod:`repro.simulate`); exit 0 iff
  every invariant held and every armed fault fired;
* ``trace`` — run the canonical Figure-4 workload (query, EXPLAIN,
  insert, get, delete) with tracing on and print the span trees, the
  update EXPLAIN, and any slow-log entries; ``--jsonl FILE`` exports
  the spans as JSON Lines; ``--follow REQUEST_ID`` instead issues one
  re-homing HTTP write against a replicated 2-shard cluster and
  prints the assembled cross-thread trace, failing unless every leg
  (HTTP task, micro-batch, translation, both 2PC participants, log
  ship, replica applies) is present under one trace id;
* ``flight`` — kill a primary in a replicated deployment and dump the
  flight-recorder bundle the failover anomaly triggers (last spans,
  metrics snapshot, audit tails from every stack); ``--inspect FILE``
  renders an existing bundle;
* ``metrics`` — run the same workload with the metrics registry live
  and print the Prometheus-style exposition (or ``--json`` snapshot);
* ``audit`` — run a deterministic audited workload on the hospital
  schema (a Figure-4-style insert/replace/delete round trip plus a
  seeded mixed batch) and interrogate the trail: ``tail`` prints the
  newest audit records, ``why``/``history`` print a tuple's provenance
  chain and image sequence, ``as-of`` reconstructs a past state, and
  ``replay`` re-executes the log onto a fresh engine and verifies the
  final state byte-for-byte;
* ``validate --workload NAME | --sweep N`` — run the definition-time
  strategy checker and the round-trip law harness against a workload's
  spanning object, or sweep N seeded random chain cases under seeded
  random policies and assert that every law-falsified configuration
  carries a >=HIGH risk finding; ``--adversarial`` grafts hostile
  schema hazards onto the sweep, ``--json FILE`` exports the reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.core.dependency_island import analyze_island
from repro.core.query import execute_query
from repro.core.tree_builder import build_maximal_tree
from repro.core.information_metric import InformationMetric
from repro.dialog.answers import ScriptedAnswers
from repro.dialog.drivers import run_replacement_dialog
from repro.dialog.transcript import Transcript
from repro.errors import QueryError
from repro.core.updates.policy import TranslatorPolicy
from repro.penguin import Penguin
from repro.relational.memory_engine import MemoryEngine
from repro.relational.persistence import dump_database, load_database
from repro.structural.integrity import IntegrityChecker
from repro.structural.rendering import to_ascii
from repro.structural.serialization import graph_from_dict, graph_to_dict
from repro.workloads.cad import assembly_object, cad_schema, populate_cad
from repro.workloads.figures import alternate_course_object, course_info_object
from repro.workloads.hospital import (
    hospital_schema,
    hospital_session,
    new_chart,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.university import populate_university, university_schema

WORKLOADS = {
    "university": (university_schema, populate_university),
    "hospital": (hospital_schema, populate_hospital),
    "cad": (cad_schema, populate_cad),
}

OBJECTS = {
    ("university", "course_info"): course_info_object,
    ("university", "course_staffing"): alternate_course_object,
    ("hospital", "patient_chart"): patient_chart_object,
    ("cad", "assembly_bom"): assembly_object,
}

PAPER_ANSWERS = [
    True, True, True, False,
    True, True, True,
    True, True, True,
    True, True, False,
    True, True, True,
]


def _build(workload: str):
    schema_factory, populate = WORKLOADS[workload]
    graph = schema_factory()
    engine = MemoryEngine()
    graph.install(engine)
    populate(engine)
    return graph, engine


def cmd_demo(args: argparse.Namespace) -> int:
    graph, engine = _build("university")
    print("=== Figure 1: structural schema ===")
    print(to_ascii(graph))
    metric = InformationMetric()
    subgraph = metric.extract_subgraph(graph, "COURSES")
    print("\n=== Figure 2(a): relevant subgraph G ===")
    print(subgraph.describe())
    tree = build_maximal_tree(graph, subgraph, metric.weights)
    print("\n=== Figure 2(b): maximal tree T ===")
    print(tree.describe())
    omega = course_info_object(graph)
    print("\n=== Figure 2(c): view object ω ===")
    print(omega.describe())
    print("\n=== Section 5: island analysis ===")
    print(analyze_island(omega).describe())
    omega_prime = alternate_course_object(graph)
    print("\n=== Figure 3: ω' ===")
    print(omega_prime.describe())
    print("\n=== Figure 4: graduate courses with < 5 students ===")
    for instance in execute_query(
        omega, engine, "level = 'graduate' and count(STUDENT) < 5"
    ):
        print(instance.describe())
    print("\n=== Section 6: translator dialog (replacement portion) ===")
    policy = TranslatorPolicy()
    transcript = Transcript()
    run_replacement_dialog(
        omega, ScriptedAnswers(PAPER_ANSWERS), policy, transcript
    )
    print(transcript.render())
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    graph, engine = _build(args.workload)
    target = Path(args.directory)
    target.mkdir(parents=True, exist_ok=True)
    (target / "schema.json").write_text(
        json.dumps(graph_to_dict(graph), indent=2)
    )
    (target / "data.json").write_text(json.dumps(dump_database(engine)))
    print(f"dumped workload {args.workload!r} to {target}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    target = Path(args.directory)
    missing = [
        name for name in ("schema.json", "data.json")
        if not (target / name).is_file()
    ]
    if missing:
        print(
            f"no dump in {str(target)!r}: missing {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    graph = graph_from_dict(
        json.loads((target / "schema.json").read_text())
    )
    engine = MemoryEngine()
    counts = load_database(
        engine, json.loads((target / "data.json").read_text())
    )
    print("loaded:", counts)
    violations = IntegrityChecker(graph).check(engine)
    if not violations:
        print("structural integrity: OK")
        return 0
    print(f"structural integrity: {len(violations)} violation(s)")
    for violation in violations[:20]:
        print("  -", violation.message)
    return 1


def cmd_query(args: argparse.Namespace) -> int:
    factory = OBJECTS.get((args.workload, args.object))
    if factory is None:
        known = sorted(
            name for workload, name in OBJECTS if workload == args.workload
        )
        print(
            f"unknown object {args.object!r} for workload "
            f"{args.workload!r}; known: {known}",
            file=sys.stderr,
        )
        return 2
    graph, engine = _build(args.workload)
    view_object = factory(graph)
    try:
        instances = execute_query(view_object, engine, args.text)
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(instances)} instance(s)")
    for instance in instances:
        print(instance.describe())
    return 0


def cmd_materialize(args: argparse.Namespace) -> int:
    known = sorted(
        name for workload, name in OBJECTS if workload == args.workload
    )
    if args.object is None:
        args.object = known[0]
    factory = OBJECTS.get((args.workload, args.object))
    if factory is None:
        print(
            f"unknown object {args.object!r} for workload "
            f"{args.workload!r}; known: {known}",
            file=sys.stderr,
        )
        return 2

    def build_session() -> Penguin:
        graph, engine = _build(args.workload)
        session = Penguin(graph, engine=engine, install=False)
        session.register_object(factory(graph))
        return session

    def run_loop(session: Penguin) -> float:
        """args.queries queries with a self-replace write every
        args.update_every iterations (0 disables writes)."""
        pivot = session.object(args.object).pivot_relation
        schema = session.engine.schema(pivot)
        rows = list(session.engine.scan(pivot))
        started = time.perf_counter()
        for i in range(args.queries):
            if args.update_every and i % args.update_every == args.update_every - 1:
                values = rows[i % len(rows)]
                session.engine.replace(pivot, schema.key_of(values), values)
            session.query(args.object, args.text)
        return time.perf_counter() - started

    baseline = build_session()
    uncached = run_loop(baseline)

    session = build_session()
    session.materialize(args.object)
    cached = run_loop(session)

    rate = lambda seconds: args.queries / seconds if seconds else float("inf")
    print(
        f"workload={args.workload} object={args.object} "
        f"queries={args.queries} update_every={args.update_every or 'never'}"
    )
    print(f"dynamic instantiation : {uncached:8.3f}s  ({rate(uncached):8.1f} q/s)")
    print(f"materialized          : {cached:8.3f}s  ({rate(cached):8.1f} q/s)")
    speedup = uncached / cached if cached else float("inf")
    print(f"speedup               : {speedup:8.1f}x")
    view = session.materialized(args.object)
    print("cache stats           :")
    for field, value in view.stats.as_dict().items():
        print(f"  {field:<16} {value}")
    print(f"  {'staleness':<16} {view.staleness()}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulate import PRESETS, simulate

    presets = list(PRESETS) if args.preset == "all" else [args.preset]
    reports = [simulate(name, args.seed, args.steps) for name in presets]
    print("\n".join(report.summary() for report in reports))
    return 0 if all(report.ok for report in reports) else 1


def _observed_session() -> Penguin:
    graph, engine = _build("university")
    session = Penguin(graph, engine=engine, install=False)
    session.register_object(course_info_object(graph))
    return session


def _figure4_course(session: Penguin) -> dict:
    """The canonical insert: a graduate course in an existing department."""
    dept = session.engine.get("DEPARTMENT", ("Computer Science",))
    return {
        "course_id": "CS999",
        "title": "View Objects",
        "units": 3,
        "level": "graduate",
        "dept_name": "Computer Science",
        "DEPARTMENT": [{"dept_name": dept[0], "building": dept[1]}],
        "CURRICULUM": [],
        "GRADES": [],
    }


def _run_figure4_workload(session: Penguin) -> str:
    """Figure 4's query plus one insert/get/delete round trip.

    Returns the rendered update EXPLAIN of the insert, produced before
    the insert executes (the explanation never touches the engine).
    """
    from repro.core.updates.operations import CompleteInsertion

    course = _figure4_course(session)
    session.query("course_info", "level = 'graduate' and count(STUDENT) < 5")
    explanation = session.explain_update(
        "course_info", CompleteInsertion(course)
    )
    session.insert("course_info", course)
    session.get("course_info", ("CS999",))
    session.delete("course_info", ("CS999",))
    return explanation.render()


def _http_json(url, method="GET", payload=None, headers=None):
    """One JSON request; returns (status, body, response headers)."""
    import urllib.request

    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    for key, value in (headers or {}).items():
        request.add_header(key, value)
    with urllib.request.urlopen(request, timeout=10) as response:
        return (
            response.status,
            json.loads(response.read() or b"{}"),
            dict(response.headers),
        )


#: Span names one followed cluster write must produce, in causal order.
#: Each entry accepts any of its aliases — the owner-shard translation
#: spans as "translate" on the single-shard batch path and "explain"
#: (propagate/validate children) on the cross-shard path.
TRACE_LEGS = (
    ("http.request",),              # asyncio front end
    ("serve.batch",),               # micro-batch executor fragment
    ("translate", "explain"),       # owner-shard view-update translation
    ("shard.two_phase",),           # cross-shard coordinator
    ("2pc.prepare",),               # participant intent legs
    ("2pc.apply",),                 # participant apply legs
    ("replicate.ship",),            # primary -> replica log shipping
    ("replica.apply",),             # replica applies, inside each ship
)


def _trace_follow(args: argparse.Namespace) -> int:
    """One HTTP write against a 2-shard, 2-replica cluster, followed
    end to end by its request id: the write re-homes a patient chart
    to the other shard, so the assembled trace must contain the HTTP
    task, the micro-batch fragment, the owner-shard translation, both
    2PC participant legs, and each replica's ship+apply fragments —
    all under one trace id."""
    import repro.obs as obs
    from repro.obs.cluster import TraceAssembler
    from repro.serve.http import PenguinServer

    request_id = args.follow
    hub = obs.configure(slow_threshold=args.slow_threshold)
    assembled = None
    try:
        sharded = _build_sharded_hospital(shards=2, patients=6, replicas=2)
        server = PenguinServer(sharded, port=0)
        handle = server.in_background()
        try:
            router = sharded.router
            source = next(
                pid for pid in range(70000, 70512)
                if router.shard_of((pid,)) == 0
            )
            target = next(
                pid for pid in range(71000, 71512)
                if router.shard_of((pid,)) == 1
            )
            rng = random.Random(0)
            _http_json(
                f"{handle.url}/objects/patient_chart",
                "POST",
                {"instance": _audit_chart(source, rng)},
            )
            status, _, headers = _http_json(
                f"{handle.url}/objects/patient_chart/{source}",
                "PUT",
                {"instance": _audit_chart(target, rng)},
                {"X-Request-Id": request_id},
            )
            print(
                f"PUT /objects/patient_chart/{source} -> {status} "
                f"(re-homed patient {source} -> {target} across shards, "
                f"X-Request-Id {headers.get('X-Request-Id')})"
            )
            # The executor's fragment, which holds the ships and the
            # replica applies, may close just after the response is
            # written; poll the assembler until both applies arrive.
            assembler = TraceAssembler(hub.tracer)
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                assembled = assembler.assemble(request_id=request_id)
                if (
                    assembled is not None
                    and len(assembled.find_all("replica.apply")) >= 2
                ):
                    break
                time.sleep(0.02)
        finally:
            handle.stop()
            sharded.close()
    finally:
        obs.disable()
    if assembled is None:
        print(f"no trace found for request id {request_id!r}")
        return 1
    print()
    print(assembled.render())
    names = set(assembled.span_names())
    apply_shards = sorted(
        str(span.attributes.get("shard"))
        for span in assembled.find_all("2pc.apply")
    )
    checks = [
        (
            f"leg {' / '.join(aliases)} present",
            any(name in names for name in aliases),
        )
        for aliases in TRACE_LEGS
    ]
    checks.append(
        ("2pc apply legs on both shards", apply_shards == ["0", "1"])
    )
    checks.append(
        ("audit cross-link recorded", bool(assembled.audit_asns()))
    )
    print()
    ok = True
    for label, passed in checks:
        ok = ok and passed
        print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
    print("trace-follow:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    import repro.obs as obs

    if args.follow:
        return _trace_follow(args)

    session = _observed_session()
    hub = obs.configure(slow_threshold=args.slow_threshold)
    try:
        explain_text = _run_figure4_workload(session)
    finally:
        obs.disable()
    print("=== update EXPLAIN (computed without executing) ===")
    print(explain_text)
    print("\n=== span trees (Figure-4 workload) ===")
    print(hub.tracer.render(show_durations=not args.no_durations))
    if hub.slow_log is not None and len(hub.slow_log):
        print("\n=== slow operations (threshold "
              f"{args.slow_threshold * 1000:.0f}ms) ===")
        print(hub.slow_log.render())
    if args.jsonl:
        written = hub.tracer.export_jsonl(args.jsonl)
        print(f"\nwrote {written} root span(s) to {args.jsonl}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    import repro.obs as obs

    session = _observed_session()
    hub = obs.configure()
    try:
        _run_figure4_workload(session)
    finally:
        obs.disable()
    if args.json:
        print(json.dumps(hub.metrics.snapshot(), indent=2, default=str))
    else:
        print(hub.metrics.render_text())
    return 0


def _audit_chart(pid: int, rng: random.Random) -> dict:
    """One synthetic patient chart (5 base tuples across 5 relations)."""
    return new_chart(
        pid,
        f"Audit Patient {pid}",
        birth_year=1930 + rng.randrange(80),
        ward_name=rng.choice(["East-1", "East-2", "West-1", "ICU", None]),
        physician_id=9000 + rng.randrange(8),
        reason="audit",
        leaves=(
            rng.choice(["hypertension", "migraine"]),
            rng.choice(["mild", "moderate"]),
            5 + rng.randrange(25),
            round(rng.uniform(0.5, 200.0), 1),
        ),
    )


FIGURE4_PATIENT = 77001


def _run_audit_workload(ops: int, seed: int) -> Penguin:
    """Build an audited hospital session and run the scripted workload.

    The workload is deterministic per ``(ops, seed)``: a Figure-4-style
    insert/replace/delete round trip on patient ``FIGURE4_PATIENT``,
    then ``ops`` seeded mixed view updates (insert-heavy so the trail
    ends with live tuples to interrogate).
    """
    from repro.obs.audit import MemoryAuditLog

    graph, engine = _build("hospital")
    session = Penguin(
        graph, engine=engine, install=False, audit=MemoryAuditLog()
    )
    session.register_object(patient_chart_object(graph))

    rng = random.Random(seed)
    chart = _audit_chart(FIGURE4_PATIENT, rng)
    session.insert("patient_chart", chart)
    revised = dict(chart)
    revised["name"] = "Audit Patient (revised)"
    revised["ward_name"] = "ICU"
    session.replace("patient_chart", (FIGURE4_PATIENT,), revised)
    session.delete("patient_chart", (FIGURE4_PATIENT,))

    live: list = []
    next_pid = 80000
    for _ in range(ops):
        roll = rng.random()
        if not live or roll < 0.55:
            pid = next_pid
            next_pid += 1
            session.insert("patient_chart", _audit_chart(pid, rng))
            live.append(pid)
        elif roll < 0.85:
            pid = rng.choice(live)
            session.replace(
                "patient_chart", (pid,), _audit_chart(pid, rng)
            )
        else:
            pid = live.pop(rng.randrange(len(live)))
            session.delete("patient_chart", (pid,))
    return session


def _non_negative(text: str) -> int:
    """An argparse type: a count, refused below zero at parse time."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def _coerce_key(tokens) -> tuple:
    """CLI key tokens to tuple values (ints where they parse as ints)."""
    key = []
    for token in tokens:
        try:
            key.append(int(token))
        except ValueError:
            key.append(token)
    return tuple(key)


def cmd_audit(args: argparse.Namespace) -> int:
    session = _run_audit_workload(args.ops, args.seed)
    log = session.audit

    if args.audit_command == "tail":
        print(f"audit log: {len(log)} record(s), head ASN {log.head_asn()}")
        for record in log.tail(args.count):
            print(record.describe())
        return 0

    if args.audit_command in ("why", "history"):
        key = _coerce_key(args.key)
        links = (
            session.why(args.relation, key)
            if args.audit_command == "why"
            else session.tuple_history(args.relation, key)
        )
        label = "provenance" if args.audit_command == "why" else "history"
        print(f"{label} of {args.relation}{key}: {len(links)} link(s)")
        for link in links:
            print(link.describe())
        return 0

    if args.audit_command == "as-of":
        state = session.as_of(args.asn, relation=args.relation)
        if args.relation is not None:
            state = {args.relation: state}
        print(f"state as of ASN {args.asn}:")
        for relation in sorted(state):
            rows = state[relation]
            print(f"  {relation:<14} {len(rows)} tuple(s)")
        return 0

    # replay: the audit log as a correctness oracle (CI smoke path).
    report = session.replay_audit()
    print(report.summary())
    return 0 if report.ok else 1


def _build_sharded_hospital(shards: int, patients: int, replicas: int = 0):
    """A sharded hospital deployment, loaded and object-registered."""
    from repro.replicate import ReplicationConfig

    sharded = hospital_session(
        patients,
        shards=shards,
        replication=ReplicationConfig(replicas=replicas) if replicas else None,
    )
    # Materialized caches give the DEGRADED path something to serve
    # stale reads from (and exercise per-shard maintenance).
    sharded.materialize("patient_chart", "lazy")
    return sharded


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    import repro.obs as obs
    from repro.serve.http import PenguinServer

    obs.configure()  # live metrics so /metrics has content
    sharded = _build_sharded_hospital(
        args.shards, args.patients, replicas=args.replicas
    )
    server = PenguinServer(sharded, host=args.host, port=args.port)

    async def _serve_forever() -> None:
        await server.start()
        print(f"topology: {sharded.describe()}")
        print(
            f"listening on http://{server.host}:{server.port}", flush=True
        )
        try:
            while True:
                await asyncio.sleep(3600)
        finally:
            await server.stop()

    try:
        asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_flight(args: argparse.Namespace) -> int:
    from repro.obs.cluster import FlightRecorder

    if args.inspect:
        print(FlightRecorder.inspect(args.inspect))
        return 0

    # Demo: a replicated deployment with the recorder installed, a
    # killed primary, and the failure detector's failover anomaly
    # freezing the last spans/metrics/audit tails into a bundle.
    import repro.obs as obs

    hub = obs.configure()
    try:
        sharded = _build_sharded_hospital(shards=2, patients=4, replicas=2)
        recorder = FlightRecorder(args.directory)
        sharded.attach_flight_recorder(recorder)
        rng = random.Random(0)
        pid = 70000
        sharded.insert("patient_chart", _audit_chart(pid, rng))
        replica_set = sharded.shard(0).replica_set
        replica_set.primary.kill()
        for _ in range(replica_set.config.miss_threshold + 1):
            replica_set.probe()
        sharded.close()
    finally:
        obs.disable()
    path = recorder.latest()
    if path is None:
        print("no flight bundle was produced")
        return 1
    print(f"wrote {path}")
    print()
    print(FlightRecorder.inspect(path))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.strategy.validate import (
        WORKLOADS,
        render_result,
        sweep,
        validate_workload,
    )

    if args.workload is None and not args.sweep:
        print(
            "nothing to validate: pass --workload NAME and/or --sweep N",
            file=sys.stderr,
        )
        return 2

    payload = {}
    ok = True
    falsified = 0
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            print(
                f"unknown workload {args.workload!r}; "
                f"known: {sorted(WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
        result = validate_workload(args.workload)
        print(render_result(result))
        ok = ok and result["agreement"]
        falsified += int(result["falsified"])
        result.pop("_risk_report")
        result.pop("_law_report")
        payload["workload"] = result
    if args.sweep:
        outcome = sweep(
            count=args.sweep,
            base_seed=args.seed,
            adversarial=args.adversarial,
        )
        print(
            f"sweep: {outcome['cases']} case(s)"
            + (" (adversarial)" if args.adversarial else "")
            + f", {outcome['falsified']} falsified by the laws, "
            f"{outcome['disagreements']} checker/law disagreement(s)"
        )
        for result in outcome["disagreement_cases"]:
            print(f"  DISAGREEMENT: {result['case']}")
        ok = ok and not outcome["disagreements"]
        falsified += outcome["falsified"]
        payload["sweep"] = outcome
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.json}")
    if args.strict and falsified:
        print(f"strict mode: {falsified} falsified configuration(s)")
        return 1
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Updating Relational Databases "
        "through Object-Based Views' (SIGMOD 1991)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="regenerate the paper's figures")

    dump = commands.add_parser("dump", help="dump a generated workload")
    dump.add_argument("--workload", choices=sorted(WORKLOADS), default="university")
    dump.add_argument("directory")

    check = commands.add_parser("check", help="integrity-check a dump")
    check.add_argument("directory")

    query = commands.add_parser("query", help="run an object query")
    query.add_argument("--workload", choices=sorted(WORKLOADS), default="university")
    query.add_argument("--object", default="course_info")
    query.add_argument("text")

    materialize = commands.add_parser(
        "materialize",
        help="compare cached vs dynamic instantiation on a query loop",
    )
    materialize.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="university"
    )
    materialize.add_argument(
        "--object",
        default=None,
        help="view object name (default: the workload's first object)",
    )
    materialize.add_argument("--queries", type=int, default=100)
    materialize.add_argument(
        "--update-every",
        type=int,
        default=10,
        metavar="N",
        help="issue one base-table write every N queries (0 = read-only)",
    )
    materialize.add_argument(
        "--text", default=None, help="object query text (default: all instances)"
    )

    simulate = commands.add_parser(
        "simulate",
        help="seeded operations and faults against a deployment, every "
        "step checked against one in-memory Penguin",
    )
    simulate.add_argument(
        "--preset", default="all",
        help="crash, degraded, twophase, race, failover, quorum, or all",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--steps", type=int, default=40, metavar="N",
        help="operations per preset",
    )

    trace = commands.add_parser(
        "trace",
        help="trace the Figure-4 workload and print span trees + EXPLAIN",
    )
    trace.add_argument(
        "--jsonl",
        default=None,
        metavar="FILE",
        help="also export the root spans as JSON Lines",
    )
    trace.add_argument(
        "--slow-threshold",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="slow-log retention threshold (default 0.05s)",
    )
    trace.add_argument(
        "--no-durations",
        action="store_true",
        help="print the normalized (timing-free) span trees",
    )
    trace.add_argument(
        "--follow",
        default=None,
        metavar="REQUEST_ID",
        help="follow one HTTP write (tagged with this X-Request-Id) "
             "across a 2-shard, 2-replica cluster and print the "
             "assembled cross-component trace",
    )

    flight = commands.add_parser(
        "flight",
        help="inspect a flight-recorder bundle, or run the injected-"
             "failover demo that produces one",
    )
    flight.add_argument(
        "--inspect",
        default=None,
        metavar="FILE",
        help="render an existing bundle instead of running the demo",
    )
    flight.add_argument(
        "--directory",
        default="flight-bundles",
        help="where the demo writes its bundle (default ./flight-bundles)",
    )

    metrics = commands.add_parser(
        "metrics",
        help="run the Figure-4 workload and print the metrics registry",
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print the snapshot as JSON instead of text exposition",
    )

    audit = commands.add_parser(
        "audit",
        help="run an audited hospital workload and interrogate the trail",
    )
    audit.add_argument("--ops", type=int, default=40,
                       help="seeded mixed view updates after the "
                            "Figure-4 round trip (default 40)")
    audit.add_argument("--seed", type=int, default=0)
    audit_commands = audit.add_subparsers(
        dest="audit_command", required=True
    )

    audit_tail = audit_commands.add_parser(
        "tail", help="print the newest audit records"
    )
    audit_tail.add_argument("-n", "--count", type=_non_negative, default=10)

    for name, help_text in (
        ("why", "print a tuple's provenance chain (follows re-homing)"),
        ("history", "print a tuple's before/after image sequence"),
    ):
        sub = audit_commands.add_parser(name, help=help_text)
        sub.add_argument("--relation", default="PATIENT")
        sub.add_argument(
            "--key",
            nargs="+",
            default=[str(FIGURE4_PATIENT)],
            help="key values (integers are coerced; default: the "
                 "Figure-4 patient)",
        )

    audit_as_of = audit_commands.add_parser(
        "as-of", help="reconstruct the state at a past ASN"
    )
    audit_as_of.add_argument("asn", type=int)
    audit_as_of.add_argument("--relation", default=None)

    audit_commands.add_parser(
        "replay",
        help="re-execute the audit log on a fresh engine and verify "
             "the final state byte-for-byte",
    )

    serve = commands.add_parser(
        "serve",
        help="serve a sharded hospital deployment over HTTP/JSON "
             "(asyncio front end with write micro-batching)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (default 8642; 0 = an ephemeral port)",
    )
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument(
        "--replicas", type=int, default=0,
        help="attach N log-shipping replicas per shard (0 = none)",
    )
    serve.add_argument(
        "--patients", type=int, default=25,
        help="resident hospital population (patient charts loaded at start)",
    )

    validate = commands.add_parser(
        "validate",
        help="run the strategy checker and the round-trip law harness "
             "against a workload object or a seeded chain-case sweep",
    )
    validate.add_argument(
        "--workload", default=None,
        help="validate one named workload (hospital, university, cad); "
             "omit with --sweep to run the chain corpus",
    )
    validate.add_argument(
        "--sweep", type=int, default=0, metavar="N",
        help="validate N seeded random chain cases under seeded "
             "random policies and assert checker/law agreement",
    )
    validate.add_argument(
        "--seed", type=int, default=0,
        help="first seed of the sweep corpus",
    )
    validate.add_argument(
        "--adversarial", action="store_true",
        help="graft adversarial schema hazards onto the sweep cases",
    )
    validate.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the full risk/law report as JSON",
    )
    validate.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on any law falsification, not only on "
             "checker/law disagreement",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "demo": cmd_demo,
        "dump": cmd_dump,
        "check": cmd_check,
        "query": cmd_query,
        "materialize": cmd_materialize,
        "simulate": cmd_simulate,
        "trace": cmd_trace,
        "flight": cmd_flight,
        "metrics": cmd_metrics,
        "audit": cmd_audit,
        "serve": cmd_serve,
        "validate": cmd_validate,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
