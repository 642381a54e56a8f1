"""BENCHMARK.json states exactly what the benchmark reports, within the
driver's limits."""

import json
import os
import re

from benchmarks.e2e.catalogue import END_TO_END, PER_LAYER, benchmark_json
from benchmarks.e2e.compare import spread, verdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_the_catalogue():
    assert load() == benchmark_json()


def test_benchmark_json_is_within_the_contract():
    spec = load()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * 30 <= 3420  # a run takes about 2 x run_seconds here
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_every_per_layer_metric_names_what_it_should_move():
    assert all(moves for *_, moves in PER_LAYER)
    assert len({name for name, *_ in END_TO_END + PER_LAYER}) == len(
        END_TO_END) + len(PER_LAYER)


def test_compare_reports_unresolved_not_unchanged_when_spread_exceeds_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert spread(steady) < 0.05 < spread(noisy)
    assert verdict(steady, steady, "lower", 0.1)[0] == "within"
    assert verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    assert verdict(steady, [130.0, 131.0, 129.0, 130.5, 129.5], "lower", 0.1)[0] == "worse"
    assert verdict(steady, [130.0, 131.0, 129.0, 130.5, 129.5], "higher", 0.1)[0] == "better"
    # every run of B better than every run of A resolves a noisy pair
    assert verdict(noisy, [10.0, 11.0, 12.0, 10.5, 11.5], "lower", 0.1)[0] == "better"
