"""End-to-end benchmark with a per-layer breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closure_tree --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

``--workload`` is ``closure_tree``, ``lookup_mix``, ``wal_commit`` or
``all`` (each workload in its own child process, one after another).
``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` spends half the time untraced and half traced, and reports the
per-layer metrics.  The report, with every metric named in this directory's
README and the run's context, precedes the last line, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("closure_tree", "lookup_mix", "wal_commit")
#: String hashing is fixed in every run, so that the layout of the program's
#: sets and dicts, and with it the memory order of its scans, does not change
#: from one run to the next; only ``--seed`` varies the inputs.
HASH_SEED = "0"

#: A fixed number of seconds per reference slice (``workloads.reference_slice``),
#: near the slowest the 2-core VM the benchmark was tuned on gave (2.5 to
#: 4.2 ms as the host's load varied); it turns ``setup_s``, which is measured
#: in slices, back into seconds.
NOMINAL_SLICE_S = 0.004

#: Metrics ``--trace 0`` puts on the last line (``BENCHMARK.json`` end_to_end);
#: every workload has each.
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "op_mean_xref": "x", "key_op_p50_xref": "x",
}

#: Layers whose self time the traced run reports (span layer names).
LAYERS = (
    "core.lattice", "engine", "lint.shapes", "plan.execute", "plan.statistics",
    "plan.optimize", "plan.compile", "plan.parameters", "parser", "lint",
    "store.update", "store.commit", "store.codec.encode", "store.codec.decode",
    "store.recovery",
)


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` unless at least ten samples
    lie beyond it (so a p90 needs 100 samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if not ordered or len(ordered) - rank < 10 and q > 0.5:
        return None
    return ordered[rank - 1]


def timing(values: List[float], q: float = 0.5, scale: float = 1.0) -> dict:
    value = statistics.median(values) if q == 0.5 and values else percentile(values, q)
    return {"value": None if value is None else value * scale, "samples": len(values)}


def make_workload(name: str, seed: int, scratch: str, sizes: Optional[dict] = None):
    from perfbench import workloads

    sizes = sizes or {}
    if name == "closure_tree":
        return workloads.ClosureTree(seed, **sizes)
    if name == "lookup_mix":
        return workloads.LookupMix(seed, **sizes)
    return workloads.WalCommit(seed, scratch, **sizes)


def run_phase(workload, meter, seconds: float) -> None:
    """Run whole rounds until ``seconds`` have passed (at least one round)."""
    deadline = time.perf_counter() + seconds
    while True:
        workload.round(meter, deadline)
        gc.collect()
        if time.perf_counter() >= deadline:
            meter.visit(force=True)
            return


def end_to_end(workload, meter) -> Dict[str, dict]:
    """The end-to-end report of an untraced phase (gated and per-workload metrics)."""
    samples = meter.samples
    busy = meter.busy_seconds()
    operations = meter.operations()
    # The gated times are in units of the reference slice timed on either
    # side of each operation (``workloads.Meter``): the host's speed drifts
    # between runs by more than any bound, and the slice drifts with it.
    scaled = [value for kind in samples for value in meter.in_reference_units(kind)]
    report: Dict[str, dict] = {
        # Set-up time in seconds on a host where one slice takes
        # NOMINAL_SLICE_S: each set-up in slices, times that constant.
        "setup_s": dict(timing(meter.setups_in_reference_units(), scale=NOMINAL_SLICE_S), unit="s"),
        "setup_wall_s": dict(timing(meter.setups), unit="s"),
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "op_mean_xref": {
            "value": statistics.fmean(scaled) if scaled else None,
            "unit": "x", "samples": len(scaled),
        },
        "key_op_p50_xref": dict(timing(meter.in_reference_units(workload.key_op)), unit="x"),
        "ref_slice_ms": dict(timing(meter.visits, scale=1e3), unit="ms"),
        "ops_per_s": {
            "value": operations / busy if busy else None,
            "unit": "1/s", "samples": operations,
        },
        "key_op_p50_ms": dict(timing(samples.get(workload.key_op, []), scale=1e3), unit="ms"),
        "error_rate": {
            "value": meter.failed / meter.attempted if meter.attempted else None,
            "unit": "ratio", "samples": meter.attempted,
        },
    }

    def add(name: str, kind: str, q: float, unit: str, scale: float) -> None:
        report[name] = dict(timing(samples.get(kind, []), q, scale), unit=unit)

    report["datalog.closure_s"] = dict(timing(meter.reference), unit="s")
    if workload.name == "closure_tree":
        add("closure_s", "closure", 0.5, "s", 1.0)
        closure, datalog = report["closure_s"]["value"], report["datalog.closure_s"]["value"]
        report["closure_vs_datalog"] = {
            "value": closure / datalog if closure and datalog else None, "unit": "x",
        }
    elif workload.name == "lookup_mix":
        add("lookup_p50_ms", "lookup", 0.5, "ms", 1e3)
        add("lookup_p90_ms", "lookup", 0.9, "ms", 1e3)
        add("adhoc_p50_ms", "adhoc", 0.5, "ms", 1e3)
        add("insert_p50_ms", "insert", 0.5, "ms", 1e3)
    else:
        commits = samples.get("put", []) + samples.get("insert", [])
        add("insert_p50_ms", "insert", 0.5, "ms", 1e3)
        add("put_p50_ms", "put", 0.5, "ms", 1e3)
        report["commit_p90_ms"] = dict(timing(commits, 0.9, 1e3), unit="ms")
        add("reopen_s", "reopen", 0.5, "s", 1.0)
        report["wal_bytes_per_user_byte"] = {
            "value": workload.wal_bytes / workload.user_bytes if workload.user_bytes else None,
            "unit": "ratio",
        }
    return report


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(workload, untraced, traced, recorder) -> Dict[str, dict]:
    """Per-layer metrics of the traced phase, each per timed operation."""
    from perfbench.tracing import self_times

    layer_ns, calls, op_total_ns, op_self_ns = self_times(recorder.spans)
    ops = max(1, traced.operations())
    totals = recorder.totals

    def total(name: str) -> float:
        return totals.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def layer_calls(layer: str, function: Optional[str] = None) -> int:
        return sum(
            count for (name, func), count in calls.items()
            if name == layer and function in (None, func)
        )

    metrics: Dict[str, dict] = {}
    for layer in LAYERS:
        metrics[f"{layer}.time_s"] = {"value": layer_ns.get(layer, 0) / 1e9 / ops, "unit": "s/op"}
    per_op = {
        "core.lattice.union_calls": layer_calls("core.lattice", "union"),
        "core.lattice.union_all_calls": layer_calls("core.lattice", "union_all"),
        "core.order.subobject_checks": recorder.subobject_checks,
        "engine.rounds": total("engine.iterations"),
        "engine.match_attempts": total("engine.match_attempts"),
        "lint.shapes.calls": layer_calls("lint.shapes"),
        "plan.execute.calls": layer_calls("plan.execute"),
        "plan.statistics.calls": layer_calls("plan.statistics"),
        "parser.calls": layer_calls("parser"),
        "exec.batches": total("exec.batches"),
        "api.plan_cache.invalidations": total("session.plan_cache.invalidations"),
        "store.commits": total("store.commits"),
        "store.wal.fsyncs": total("store.wal.fsyncs"),
        "store.wal.records_replayed": total("store.wal.records_replayed"),
    }
    for name, value in per_op.items():
        metrics[name] = {"value": value / ops, "unit": "count/op"}
    metrics["store.wal.bytes"] = {"value": total("store.wal.bytes") / ops, "unit": "B/op"}
    metrics["store.wal.append.time_s"] = {
        "value": total("ns:store.wal.append_ns") / 1e9 / ops, "unit": "s/op",
    }
    hits = total("session.plan_cache.hits")
    ratios = {
        "core.memo.hit_ratio": ratio(total("memo.hits"), total("memo.hits") + total("memo.misses")),
        "core.intern.hit_ratio": ratio(
            total("intern.hits"), total("intern.hits") + total("intern.misses")
        ),
        "engine.useful_ratio": ratio(total("engine.substitutions"), total("engine.match_attempts")),
        "api.plan_cache.hit_ratio": ratio(hits, hits + total("session.plan_cache.misses")),
        "trace.unattributed_share": ratio(op_self_ns, op_total_ns),
    }
    for name, value in ratios.items():
        metrics[name] = {"value": value, "unit": "ratio"}
    # Traced mean operation time over untraced mean operation time.
    metrics["trace.overhead"] = {
        "value": ratio(
            traced.busy_seconds() / ops,
            untraced.busy_seconds() / max(1, untraced.operations()),
        ),
        "unit": "x",
    }
    # The Datalog reference row, on each workload's own tree; the ratio needs
    # a closure, so it reads 0 outside closure_tree.
    datalog = statistics.median(untraced.reference + traced.reference)
    closures = untraced.samples.get("closure")
    closure_vs = statistics.median(closures) / datalog if closures else 0.0
    metrics["datalog.closure_s"] = {"value": datalog, "unit": "s"}
    metrics["closure_vs_datalog"] = {"value": closure_vs, "unit": "x"}
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    sizes: Optional[dict] = None,
    out: str = os.path.join(HERE, "out"),
) -> dict:
    """Run one workload in this process; returns its full result document.

    ``sizes`` overrides the workload's input sizes (the smoke test's tiny
    runs); ``out`` holds the WAL files while they live and the span log.
    """
    from perfbench.tracing import Instrumentation, SpanRecorder, write_spans
    from perfbench.workloads import Meter

    os.makedirs(out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=out)
    try:
        workload = make_workload(name, seed, scratch, sizes)
        untraced = Meter()
        run_phase(workload, untraced, seconds / 2 if trace else seconds)
        report = end_to_end(workload, untraced)
        meters = [untraced]
        layers = None
        spans_path = None
        if trace:
            recorder = SpanRecorder()
            traced = Meter(recorder)
            instrumentation = Instrumentation(recorder).install()
            try:
                run_phase(workload, traced, seconds / 2)
            finally:
                instrumentation.remove()
            layers = per_layer(workload, untraced, traced, recorder)
            spans_path = os.path.join(out, f"spans-{name}-seed{seed}.jsonl")
            write_spans(recorder.spans, spans_path)
            meters.append(traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "clients": "1 process, 1 thread, 1 session (closed loop)",
        "flush_policy": "none (memory store)",
    }
    context.update(workload.context())
    if spans_path is not None:
        context["spans"] = spans_path
    return {
        "context": context,
        "end_to_end": report,
        "per_layer": layers,
        "attempted": sum(meter.attempted for meter in meters),
        "failed": sum(meter.failed for meter in meters),
        "errors": [error for meter in meters for error in meter.errors],
    }


def result_line(document: dict) -> dict:
    """The last output line: correct, attempted, failed and metrics."""
    if document["per_layer"] is not None:
        metrics = document["per_layer"]
    else:
        metrics = {
            name: {"value": document["end_to_end"][name]["value"], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    complete = all(entry["value"] is not None for entry in metrics.values())
    return {
        "correct": document["failed"] == 0 and complete,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }


def print_report(document: dict) -> None:
    context = document["context"]
    print(f"== perfbench {context['workload']} (seed {context['seed']}) ==")
    for key, value in context.items():
        print(f"  {key}: {value}")
    sections = [("end-to-end (untraced)", document["end_to_end"])]
    if document["per_layer"] is not None:
        sections.append(("per layer (traced, per timed operation)", document["per_layer"]))
    for title, metrics in sections:
        print(f"-- {title}")
        for name, entry in metrics.items():
            value = entry["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            samples = f"  (n={entry['samples']})" if "samples" in entry else ""
            print(f"  {name:32s} {shown:>14s} {entry['unit']}{samples}")
    for error in document["errors"]:
        print(f"  failure: {error}")
    print(json.dumps({"report": document}))


def run_all(args) -> int:
    """Each workload in its own child process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Become (no child is left behind) a process whose hashing is fixed.
        environment = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        command = [sys.executable, os.path.abspath(__file__), *sys.argv[1:]]
        os.execve(sys.executable, command, environment)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    if args.workload == "all":
        return run_all(args)
    document = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(document)
    print(json.dumps(result_line(document)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
