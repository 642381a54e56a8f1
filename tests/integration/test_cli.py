"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


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
            "--policy",
            "eager",
            "--queries",
            "5",
            "--update-every",
            "0",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "object=patient_chart" in out
    assert "eager" in out


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
