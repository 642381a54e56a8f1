"""The ``python -m repro`` command-line interface."""

import asyncio
import json
import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.__main__ import build_parser, main
from repro.serve.load import http_request
from repro.workloads.hospital import new_chart


def test_demo_prints_all_figures(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "Figure 2(b)" in out
    assert "PEOPLE#2" in out  # the duplicated node
    assert "Figure 3" in out
    assert "Figure 4" in out
    assert (
        "Is replacement of tuples in an object instance allowed? <YES>" in out
    )


def test_dump_and_check_round_trip(tmp_path, capsys):
    assert main(["dump", "--workload", "university", str(tmp_path)]) == 0
    assert (tmp_path / "schema.json").exists()
    assert (tmp_path / "data.json").exists()
    json.loads((tmp_path / "schema.json").read_text())
    assert main(["check", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "structural integrity: OK" in out


def test_check_detects_corruption(tmp_path, capsys):
    main(["dump", "--workload", "university", str(tmp_path)])
    data = json.loads((tmp_path / "data.json").read_text())
    for entry in data["relations"]:
        if entry["schema"]["name"] == "GRADES":
            entry["rows"].append(["GHOST-COURSE", 999999, "A"])
    (tmp_path / "data.json").write_text(json.dumps(data))
    assert main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "violation" in out


def test_query_command(capsys):
    assert main(
        [
            "query",
            "--workload",
            "university",
            "--object",
            "course_info",
            "level = 'graduate' and count(STUDENT) < 5",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "1 instance(s)" in out
    assert "(COURSES:" in out


def test_query_unknown_object(capsys):
    assert main(
        ["query", "--workload", "cad", "--object", "nope", "units = 1"]
    ) == 2
    err = capsys.readouterr().err
    assert "assembly_bom" in err


def test_query_unknown_attribute(capsys):
    assert main(
        [
            "query", "--workload", "university", "--object", "course_info",
            "bogus_attr = 1",
        ]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("query error: ")
    assert "bogus_attr" in err
    assert "Traceback" not in err


def test_check_without_a_dump(tmp_path, capsys):
    target = tmp_path / "nonexistent"
    assert main(["check", str(target)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err
    assert "schema.json" in err


@pytest.mark.parametrize("workload", ["university", "hospital", "cad"])
def test_dump_all_workloads(tmp_path, workload):
    target = tmp_path / workload
    assert main(["dump", "--workload", workload, str(target)]) == 0
    assert main(["check", str(target)]) == 0


def test_materialize_command(capsys):
    assert main(
        ["materialize", "--queries", "10", "--update-every", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "dynamic instantiation" in out
    assert "speedup" in out
    assert "hits" in out
    assert "patched" in out
    assert "staleness" in out


def test_materialize_default_object_per_workload(capsys):
    assert main(
        [
            "materialize",
            "--workload",
            "hospital",
            "--queries",
            "5",
            "--update-every",
            "0",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "object=patient_chart" in out
    assert "materialized " in out


def test_materialize_unknown_object(capsys):
    assert main(
        ["materialize", "--workload", "cad", "--object", "nope"]
    ) == 2
    assert "assembly_bom" in capsys.readouterr().err


def test_trace_command_emits_explain_and_span_tree(capsys):
    assert main(["trace", "--no-durations"]) == 0
    out = capsys.readouterr().out
    # The EXPLAIN block, computed before anything executes.
    assert "=== update EXPLAIN (computed without executing) ===" in out
    assert "update translation on 'course_info'" in out
    assert "INSERT COURSES" in out
    # The span trees for the Figure-4 workload: query, insert, get, delete.
    assert "=== span trees (Figure-4 workload) ===" in out
    for name in ("translate", "validate", "propagate", "commit", "query"):
        assert name in out, f"span {name!r} missing from trace output"
    assert "op=insert" in out
    assert "op=delete" in out
    # Child spans are indented under their roots.
    assert "\n  validate" in out


def test_trace_command_jsonl_export(tmp_path, capsys):
    target = tmp_path / "spans.jsonl"
    assert main(["trace", "--jsonl", str(target)]) == 0
    out = capsys.readouterr().out
    assert f"root span(s) to {target}" in out
    lines = target.read_text().splitlines()
    assert lines, "JSONL export wrote no spans"
    names = [json.loads(line)["name"] for line in lines]
    assert "translate" in names


def test_trace_command_slow_log(capsys):
    # A zero threshold makes every root span "slow".
    assert main(["trace", "--slow-threshold", "0"]) == 0
    out = capsys.readouterr().out
    assert "=== slow operations" in out


def test_trace_refuses_a_negative_slow_threshold(capsys):
    with pytest.raises(SystemExit) as refused:
        main(["trace", "--slow-threshold", "-1"])
    assert refused.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_metrics_command_text_exposition(capsys):
    assert main(["metrics"]) == 0
    out = capsys.readouterr().out
    assert out.strip(), "metrics snapshot was empty"
    assert "translations_total" in out
    assert "plan_ops" in out
    assert '# TYPE' in out


def test_metrics_command_json_snapshot(capsys):
    assert main(["metrics", "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["counters"], "no counters recorded on the Figure-4 workload"
    totals = {
        key: value
        for key, value in snap["counters"].items()
        if key.startswith("translations_total")
    }
    assert sum(totals.values()) >= 2  # the insert and the delete


def test_simulate_command(capsys):
    assert main(["simulate", "--preset", "crash", "--seed", "0", "--steps", "20"]) == 0
    out = capsys.readouterr().out
    assert "simulate crash (seed=0, steps=20, deployment=single)" in out
    assert "crash@mutation#1 fired" in out
    assert "all held" in out


def test_simulate_refuses_an_unknown_preset(capsys):
    with pytest.raises(SystemExit) as refused:
        main(["simulate", "--preset", "nope"])
    assert refused.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_audit_tail_prints_the_newest_records(capsys):
    assert main(["audit", "--ops", "3", "--seed", "0", "tail", "-n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "audit log: 6 record(s), head ASN 6"
    assert [line.split()[0] for line in lines[1:]] == ["#5", "#6"]
    assert main(["audit", "--ops", "3", "tail", "-n", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    with pytest.raises(SystemExit) as refused:
        main(["audit", "tail", "-n", "-1"])
    assert refused.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_audit_lineage_commands(capsys):
    assert main(
        ["audit", "--ops", "3", "why", "--relation", "PATIENT", "--key", "77001"]
    ) == 0
    assert "provenance of PATIENT(77001,): 3 link(s)" in capsys.readouterr().out
    assert main(
        ["audit", "--ops", "3", "history", "--relation", "VISIT", "--key", "77001", "1"]
    ) == 0
    assert "history of VISIT(77001, 1): 2 link(s)" in capsys.readouterr().out
    assert main(["audit", "--ops", "3", "as-of", "2", "--relation", "PATIENT"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "state as of ASN 2:",
        "  PATIENT        26 tuple(s)",
    ]


@pytest.mark.parametrize("command", [
    ["as-of", "2", "--relation", "NOPE"],
    ["why", "--relation", "NOPE", "--key", "77001"],
    ["history", "--relation", "NOPE", "--key", "77001", "1"],
])
def test_audit_refuses_a_relation_the_schema_lacks(capsys, command):
    assert main(["audit", "--ops", "3", *command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"audit {command[0]}: unknown relation: 'NOPE'" in captured.err


@pytest.mark.parametrize("command, message", [
    (["audit", "--ops", "3", "as-of", "-3"], "audit as-of: no ASN -3"),
    (["audit", "--ops", "3", "as-of", "99999"], "audit as-of: no ASN 99999"),
    (["audit", "--ops", "3", "history", "--relation", "VISIT", "--key", "77001", "1", "2", "3"],
     "audit history: relation 'VISIT' has a 2-attribute key"),
    (["audit", "--ops", "3", "why", "--relation", "VISIT", "--key", "77001", "1", "2", "3"],
     "audit why: relation 'VISIT' has a 2-attribute key"),
    (["simulate", "--preset", "crash", "--steps", "-1"], "must be >= 1, not -1"),
    (["validate", "--sweep", "-2"], "must be >= 0, not -2"),
    (["flight", "--inspect", "{missing}/bundle.jsonl"], "flight --inspect: "),
    (["trace", "--jsonl", "{missing}/spans.jsonl"], "trace --jsonl: "),
], ids=["as-of-negative", "as-of-past-head", "history-key-arity", "why-key-arity",
        "simulate-steps", "validate-sweep", "flight-inspect", "trace-jsonl"])
def test_the_cli_refuses_input_that_names_nothing(capsys, tmp_path, command, message):
    missing = tmp_path / "missing"
    try:
        code = main([token.format(missing=missing) for token in command])
    except SystemExit as exit:
        code = exit.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_materialize_query_text(capsys):
    assert main(
        ["materialize", "--queries", "3", "--update-every", "0", "--text", "units >= 4"]
    ) == 0
    assert "queries=3 update_every=never" in capsys.readouterr().out


async def _every_verb(host, port):
    """GET, PUT, POST and DELETE on patient charts, then ``/health``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        async def call(method, path, payload=None):
            body = json.dumps(payload).encode() if payload is not None else None
            status, answer = await http_request(reader, writer, method, path, body, host)
            return status, json.loads(answer or b"{}")

        status, got = await call("GET", "/objects/patient_chart/100")
        assert status == 200
        chart = got["instance"]
        chart["name"] = "Renamed Patient"
        assert (await call("PUT", "/objects/patient_chart/100", {"instance": chart}))[0] == 200
        fresh = new_chart(90_001, "Served Patient", 1970, "smoke")
        assert (await call("POST", "/objects/patient_chart", {"instance": fresh}))[0] == 201
        assert (await call("DELETE", "/objects/patient_chart/90001"))[0] == 200
        status, health = await call("GET", "/health")
        assert status == 200
        return health
    finally:
        writer.close()


@pytest.mark.timeout(120)
def test_serve_answers_every_verb_and_stops_cleanly_on_sigint():
    """The foreground server: it listens, answers each verb with no
    shard degraded, and SIGINT is a clean exit."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--shards", "4", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    ) as server:
        lines = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in server.stdout], daemon=True
        )
        reader.start()
        output = []
        try:
            while not output or "listening on" not in output[-1]:
                output.append(lines.get(timeout=60))
            host, port = output[-1].split("http://")[1].strip().rsplit(":", 1)
            health = asyncio.run(_every_verb(host, int(port)))
            assert health["num_shards"] == 4
            assert health["degraded"] == []
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
        reader.join(timeout=30)
        assert not reader.is_alive()
    while not lines.empty():
        output.append(lines.get())
    assert output[-1].strip() == "shutting down"


def test_the_campaign_commands_are_gone_with_no_alias():
    parser = build_parser()
    (commands,) = [
        action for action in parser._actions if isinstance(action.choices, dict)
    ]
    assert len(commands.choices) == 12  # 16 parsers with ``audit``'s own five
    assert not {"chaos", "chaos-failover"} & set(commands.choices)
    simulate = commands.choices["simulate"]
    assert sorted(
        option for action in simulate._actions for option in action.option_strings
        if option.startswith("--")
    ) == ["--help", "--preset", "--seed", "--steps"]
