"""Smoke test of the benchmark at tiny sizes.

Checks that every metric ``BENCHMARK.json`` names is reported with its unit,
that the traced run removes its wrappers, and that a wrong answer injected
into the program is counted instead of aborting the run.
"""

import json
import os

import pytest

import repro
import repro.api
import repro.core.lattice
import repro.engine.core
from repro.core.objects import BOTTOM, TOP
from perfbench import run
from perfbench.workloads import Meter

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

TINY = {
    "closure_tree": {"generations": 2, "fanout": 2},
    "lookup_mix": {"generations": 2, "fanout": 2, "round_ops": 40},
    "wal_commit": {"documents": 10, "sections": 1, "keywords": 2, "generations": 2, "fanout": 2},
}

REPORTED = {
    "closure_tree": {"closure_s", "closure_vs_datalog"},
    "lookup_mix": {"lookup_p50_ms", "lookup_p90_ms", "adhoc_p50_ms", "insert_p50_ms"},
    "wal_commit": {
        "insert_p50_ms", "put_p50_ms", "commit_p90_ms", "reopen_s", "wal_bytes_per_user_byte",
    },
}


def tiny_run(name, tmp_path, trace=False):
    return run.run_workload(name, 3, 0.3, trace, sizes=TINY[name], out=str(tmp_path))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    document = tiny_run(name, tmp_path, trace)
    line = json.loads(json.dumps(run.result_line(document)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {entry["name"]: entry["unit"] for entry in declared} == {
        metric: entry["unit"] for metric, entry in line["metrics"].items()
    }
    for entry in line["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    report = document["end_to_end"]
    common = {
        "setup_s", "setup_wall_s", "error_rate", "peak_rss_mb", "ops_per_s", "key_op_p50_ms",
        "ref_slice_ms", "datalog.closure_s",
    }
    assert common | REPORTED[name] <= set(report)
    assert all(entry["unit"] for entry in report.values())
    assert report["error_rate"]["value"] == 0
    assert {"seed", "python", "nproc", "flush_policy", "cold_cache_policy"} <= set(document["context"])


def test_operations_are_scaled_by_the_visits_on_either_side():
    meter = Meter()
    meter.visits = [2.0, 4.0, 8.0]
    meter.samples = {"op": [3.0, 6.0, 8.0]}
    meter._visit_before = {"op": [0, 1, 2]}
    assert meter.in_reference_units("op") == [1.0, 1.0, 1.0]


def test_traced_run_removes_its_wrappers(tmp_path):
    held = (repro.engine.core.union_all, repro.engine.core.match_plan, repro.api.union_all)
    tiny_run("closure_tree", tmp_path, trace=True)
    assert (repro.engine.core.union_all, repro.engine.core.match_plan, repro.api.union_all) == held
    assert repro.engine.core.union_all is repro.core.lattice.union_all


def _once(original, wrong):
    """``original`` with its first call's result replaced by ``wrong(result)``."""
    calls = []

    def patched(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(None)
        return wrong(result) if len(calls) == 1 else result

    return patched


class _WrongClosure:
    value = BOTTOM


INJECTIONS = {
    "closure_tree": ("Session", "close", lambda result: _WrongClosure()),
    "lookup_mix": ("Cursor", "all", lambda result: TOP),
    "wal_commit": ("Session", "get", lambda result: BOTTOM),
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_injected_wrong_answer_counts_in_error_rate(name, tmp_path, monkeypatch):
    class_name, method, wrong = INJECTIONS[name]
    owner = getattr(repro.api, class_name)
    monkeypatch.setattr(owner, method, _once(getattr(owner, method), wrong))
    document = tiny_run(name, tmp_path)
    line = run.result_line(document)
    assert line["failed"] == 1 and line["correct"] is False
    assert document["end_to_end"]["error_rate"]["value"] == pytest.approx(1 / line["attempted"])
    assert document["errors"]
