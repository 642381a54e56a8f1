"""All four workloads and the traced pass at 1% of the requests, and the
exact-count metrics repeating for a seed."""

import pytest

from benchmarks.e2e.catalogue import END_TO_END, PER_LAYER, WORKLOADS
from benchmarks.e2e.workloads import run_workload

NAMES = [name for name, _ in WORKLOADS]
EXACT = (
    "fsyncs_per_write",
    "stored_bytes_per_user_byte",
    "core.updates.plan_ops_per_request",
    "core.updates.rejected_ratio",
    "relational.journal.bytes_per_write",
    "obs.audit.bytes_per_write",
)


def quiet(_line):
    pass


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, extras = run_workload(name, seed=5, seconds=10, trace=False,
                                  ops_scale=0.01, log=quiet)
    assert result["correct"], result
    assert extras["host_slowdown"] > 0 and extras["raw.throughput_ops_s"] > 0
    assert result["failed"] == 0 and result["attempted"] >= 200
    assert list(result["metrics"]) == [n for n, *_ in END_TO_END]
    for metric, entry in result["metrics"].items():
        assert entry["value"] > 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name):
    result, _ = run_workload(name, seed=5, seconds=10, trace=True,
                             ops_scale=0.01, log=quiet)
    assert result["correct"], result
    metrics = result["metrics"]
    assert list(metrics) == [n for n, *_ in PER_LAYER]
    value = lambda metric: metrics[metric]["value"]
    assert value("unattributed_share") <= 0.15
    assert value("failed_ratio") == 0
    over_http = name == "http-cluster"
    for layer in ("serve.share", "shard.share", "replicate.share"):
        assert (value(layer) > 0) == over_http, layer
    if name == "translate-deep":
        assert value("core.updates.rejected_ratio") == pytest.approx(0.1)
        assert value("relational.journal.write_share") == 0
        assert value("obs.audit.write_share") == 0
    if name == "durable-write":
        assert value("fsyncs_per_write") == 3
        assert value("recover_s") > 0


@pytest.mark.parametrize("name", ["translate-deep", "durable-write"])
def test_exact_counts_repeat_for_a_seed(name):
    runs = [
        run_workload(name, seed=11, seconds=10, trace=True, ops_scale=0.01,
                     log=quiet)[0]["metrics"]
        for _ in range(2)
    ]
    for metric in EXACT:
        assert runs[0][metric]["value"] == runs[1][metric]["value"], metric
    other = run_workload(name, seed=12, seconds=10, trace=True,
                         ops_scale=0.01, log=quiet)[0]["metrics"]
    assert other["core.updates.rejected_ratio"] == runs[0][
        "core.updates.rejected_ratio"]


def test_a_pass_cut_short_by_its_deadline_still_checks_out():
    # 3200 requests at 1.5 x 0.2 s: stops after the first chunks; what was
    # not sent must not be in the reference model.
    lines = []
    result, _ = run_workload("durable-write", seed=5, seconds=0.2, trace=False,
                             ops_scale=10, log=lines.append)
    assert any("stopped early" in line for line in lines)
    assert result["correct"], result
    assert 200 < result["attempted"] < 3200 + 480
