#!/usr/bin/env python3
"""Vehicle-Key repository benchmark: served keys, secure echo, chaos sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload keys-r256 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke        # every workload, 1 s, both modes
    python3 perfbench/run.py --self-test    # smoke + metric names + negative checks

Workloads (``BENCHMARK.json`` records why each exists):

- ``keys-r256``: a child-process ``KeyEstablishmentServer`` (journal on,
  ``fsync="batch"``) serves a closed loop of two loopback connections,
  each running honest 256-round sessions back to back.
- ``secure-echo``: two connections each establish one data-phase session
  (set-up), then pipeline windows of 64 records alternating 64 B and
  1 KiB payloads and verify every echo.
- ``chaos-sweep``: in-process ``run_chaos`` sessions with the data phase
  on: one fixed stratified catalogue block, repeated, that the seed does
  not change (``sweep.py`` gives the measurements behind that choice).

Every workload serves ``build_chaos_pipeline()``, the tiny model the
chaos runs use, so ``predict`` is a smaller share of a session than at
the default ``repro serve`` size.  The first run in a checkout trains it
once and keeps it under ``.perfbench_work/`` (the benchmark's build).
Set-up (loading that model, server start with journal recovery,
warm-up) runs three times per run; ``setup_s`` is the median, and it is
kept out of the measured window.  The gated times are CPU times scaled
by a reference kernel run beside them (``common.nominal_ms``); wall
throughput and latency are printed and reported per layer.

``--trace 0`` measures the window untraced and prints the end-to-end
metrics.  ``--trace 1`` measures half the window untraced and half with
the span tracer installed (``tracer.py``), prints the per-layer metrics,
and writes the spans and the per-layer table of the latest traced run
under ``.perfbench_work/traces/<workload>/``.  The last line of standard output is always
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a
failed correctness check prints it with ``"correct": false`` and exits 1.
"""

import argparse
import asyncio
import json
import math
import os
import shutil
import sys
import time

import common

common.require_source()

import served  # noqa: E402 - needs the package source on the path
import sweep  # noqa: E402
import tracer  # noqa: E402
from repro.faults import chaos  # noqa: E402

WORKLOADS = ("keys-r256", "secure-echo", "chaos-sweep")

#: Preferred tail percentile per workload at the default run length; see
#: :func:`common.tail` for the >= 10-samples-beyond rule.
TAIL_PREFERRED = {"keys-r256": 90.0, "secure-echo": 99.0, "chaos-sweep": 80.0}

#: The end-to-end metrics, reported by every untraced run.  An operation
#: is a session on ``keys-r256`` and ``chaos-sweep`` and a record on
#: ``secure-echo``.  The times are CPU times of every benchmark process
#: in nominal milliseconds (``common.nominal_ms``): wall-clock throughput
#: and latency are reported per layer, ungated, because on the shared
#: 2-vCPU host steal and core speed moved them by 25-130% between runs of
#: the same code.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_op": "ms",
}

#: Per-layer metrics that are not ``<layer>.self_share``/``.calls_per_op``.
_EXTRA_LAYER_METRICS = {
    "wall.throughput_per_s": "1/s",
    "wall.latency_p50_ms": "ms",
    "wall.setup_s": "s",
    "ref.cpu_ms": "ms",
    "setup.load_s": "s",
    "setup.ready_s": "s",
    "server.admit_share": "ratio",
    "server.tick_wait_share": "ratio",
    "server.run_share": "ratio",
    "server.deliver_share": "ratio",
    "server.overhead_share": "ratio",
    "account.unexplained_share": "ratio",
    "server.tick_sessions": "count",
    "server.cpu_busy_share": "ratio",
    **{f"server.{name}": "count" for name in served.STATUS_COUNTERS},
    "predict.windows_per_call": "count",
    "secure.records_per_drain": "count",
    "framing.wire_bytes_per_record": "B",
    "journal.fsyncs_per_op": "count",
    "journal.appends_per_1k_ops": "count",
    "faults.arq_retries_per_session": "count",
    "establish.attempts_per_session": "count",
    "establish.success_share": "ratio",
    "client.cpu_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: The per-layer metrics, reported by every traced run.
PER_LAYER = {
    **{f"{layer}.self_share": "ratio" for layer in tracer.LAYERS},
    **{f"{layer}.calls_per_op": "count" for layer in tracer.LAYERS},
    **_EXTRA_LAYER_METRICS,
}

#: Layers whose spans run inside the server's batch tick.
_TICK_LAYERS = (
    "batch", "probing.fastpath", "channel.batched_gain", "window",
    "predict", "reconcile", "amplify", "session",
)


# -- workload runners ---------------------------------------------------------
def _run_chaos(pipeline_path, seconds, trace, tamper):
    costs, times, loads = [], [], []
    for _ in range(common.SETUPS):
        ref_before = common.reference_cpu_s()
        began, cpu0 = time.monotonic(), time.process_time()
        pipeline, load_s = common.load_pipeline(pipeline_path)
        chaos.run_chaos(pipeline, 1, seed=sweep.warmup_seed())
        cpu, wall = time.process_time() - cpu0, time.monotonic() - began
        costs.append(common.nominal_ms(cpu, (ref_before + common.reference_cpu_s()) / 2.0))
        times.append(wall)
        loads.append(load_s)
    window = seconds / 2.0 if trace else seconds
    cpu0 = time.process_time()
    rows, start, end = sweep.sweep(pipeline, window, tamper)
    cpu1 = time.process_time()
    cost_ms_per_op, throughput, latency_p50_ms = sweep.figures(rows)
    ref_cpu_s = common.median([row["ref_cpu_s"] for row in rows])
    record = {
        "setup_s": common.median(costs) / 1e3,
        "setup_wall_s": common.median(times),
        "load_s": common.median(loads),
    }
    traced_rows = []
    if trace:
        # The traced half re-runs the same block, so the tracing overhead
        # compares like with like.
        counts = {}
        active = tracer.Tracer(tracer.counting_hooks(counts)).install()
        try:
            traced_rows, _, _ = sweep.sweep(pipeline, window)
        finally:
            active.uninstall()
        record["spans"] = active.resolved("sweep")
        record["counts"] = counts
        record["traced"] = {
            "rows": traced_rows,
            "wall_s": sum(row["wall_s"] for row in traced_rows),
            "cost_ms_per_op": sweep.figures(traced_rows)[0],
        }
    problems = [
        f"sweep seed {row['seed']}: {[v.invariant for v in row['report'].violations]}"
        for row in rows + traced_rows
        if not row["report"].ok
    ]
    wall = end - start
    record.update(
        ops=len(rows),
        failed=sum(1 for row in rows if not row["report"].ok),
        problems=problems,
        peak_rss_mb=common.peak_rss_mb(),
        cost_ms_per_op=cost_ms_per_op,
        ref_cpu_ms=1e3 * ref_cpu_s,
        throughput=throughput,
        latency_p50_ms=latency_p50_ms,
        latencies_ms=[1e3 * row["wall_s"] for row in rows],
        success_share=sum(row["report"].successes for row in rows) / len(rows),
        client_cpu_share=(cpu1 - cpu0) / wall,
        server_cpu_share=0.0,
        secured_sessions=sum(row["report"].secured_sessions for row in traced_rows),
    )
    return record


def run_workload(name, seed, seconds, trace, tamper=False):
    """Run one workload; returns ``(result, record)``.

    ``result`` is the final-line object; ``record`` holds everything the
    printed report and the trace table are built from.
    """
    pipeline_path = common.pipeline_path()
    workdir = os.path.join(common.WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if name == "chaos-sweep":
            record = _run_chaos(pipeline_path, seconds, trace, tamper)
        else:
            runner = served.run_keys if name == "keys-r256" else served.run_echo
            record = asyncio.run(
                runner(pipeline_path, seed, seconds, trace, tamper, workdir)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if record.get("peak_connections", 0) > common.NPROC:
        record["problems"].append(
            f"{record['peak_connections']} connections open at once > nproc {common.NPROC}"
        )
    latencies = record["latencies_ms"]
    record["tail_pct"], record["tail_ms"] = common.tail(latencies, TAIL_PREFERRED[name])
    if trace:
        metrics = _per_layer(name, record)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": record["setup_s"],
            "peak_rss_mb": record["peak_rss_mb"],
            "cpu_ms_per_op": record["cost_ms_per_op"],
        }
        units = END_TO_END
    result = {
        "correct": not record["problems"],
        "attempted": max(record["ops"], 1),
        "failed": record["failed"],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return result, record


# -- per-layer metrics ----------------------------------------------------------
def _per_layer(name, record):
    traced = record["traced"]
    spans = record["spans"]
    counts = record["counts"]
    ops = traced["ops"] if "ops" in traced else len(traced["rows"])
    table = common.layer_table(tracer.layer_totals(spans), traced["wall_s"], ops)
    record["table"] = table
    metrics = common.layer_metrics(table, ops)
    status = record.get("status", {})
    batch_calls = table["batch"]["calls"]
    labels = sum(len(s["label"].split(",")) for s in spans if s["name"] == "batch" and s["label"])
    breakdown = {"session": [], "admit": [], "tick_wait": [], "run": [], "deliver": []}
    if name == "keys-r256":
        breakdown = served.session_breakdown(traced["rows"], spans)
    p50 = {part: 1e3 * common.median(values) for part, values in breakdown.items()}
    session = p50["session"]

    def share(value):
        return value / session if session > 0 else 0.0

    tick_self_ms = sum(table[layer]["self_ms"] for layer in _TICK_LAYERS) / max(batch_calls, 1)
    overhead_ms = session - p50["run"]
    record["breakdown_ms"] = dict(p50, overhead=overhead_ms, tick_self_per_call=tick_self_ms)
    untraced_cost = record["cost_ms_per_op"]
    metrics.update(
        {
            "wall.throughput_per_s": record["throughput"],
            "wall.latency_p50_ms": record["latency_p50_ms"],
            "wall.setup_s": record["setup_wall_s"],
            "ref.cpu_ms": record["ref_cpu_ms"],
            "setup.load_s": record["load_s"],
            "setup.ready_s": record["setup_wall_s"] - record["load_s"],
            "server.admit_share": share(p50["admit"]),
            "server.tick_wait_share": share(p50["tick_wait"]),
            "server.run_share": share(p50["run"]),
            "server.deliver_share": share(p50["deliver"]),
            "server.overhead_share": share(overhead_ms),
            "account.unexplained_share": (
                1.0 - share(p50["admit"] + p50["tick_wait"] + tick_self_ms + p50["deliver"])
                if session > 0 else 0.0
            ),
            "server.tick_sessions": labels / batch_calls if batch_calls else 0.0,
            "server.cpu_busy_share": record["server_cpu_share"],
            **{f"server.{key}": status.get(key, 0) for key in served.STATUS_COUNTERS},
            "predict.windows_per_call": (
                counts["windows"] / table["predict"]["calls"] if table["predict"]["calls"] else 0.0
            ),
            "secure.records_per_drain": (
                ops / table["secure.open"]["calls"]
                if name == "secure-echo" and table["secure.open"]["calls"] else 0.0
            ),
            "framing.wire_bytes_per_record": record.get("wire_bytes_per_record", 0.0),
            "journal.fsyncs_per_op": counts["fsyncs"] / max(ops, 1),
            "journal.appends_per_1k_ops": 1e3 * counts["appends"] / max(ops, 1),
            "faults.arq_retries_per_session": (
                counts["retries"] / counts["establishments"] if counts["establishments"] else 0.0
            ),
            "establish.attempts_per_session": (
                counts["attempts"] / counts["establishments"] if counts["establishments"] else 0.0
            ),
            "establish.success_share": record["success_share"],
            "client.cpu_share": record["client_cpu_share"],
            "trace.overhead_share": (
                traced["cost_ms_per_op"] / untraced_cost - 1.0 if untraced_cost > 0 else 0.0
            ),
        }
    )
    return metrics


def _absolute_table(name, record):
    """The traced per-layer figures in absolute units (ms or us per operation or call)."""
    table = record["table"]
    breakdown = record["breakdown_ms"]
    traced = record["traced"]
    ops = max(traced["ops"] if "ops" in traced else len(traced["rows"]), 1)

    def per_op(layer):
        return table[layer]["total_ms"] / ops

    def per_call(layer, scale=1.0):
        return table[layer]["us_per_call"] * scale

    rows = {
        "server.admit_ms": breakdown["admit"],
        "server.tick_wait_ms": breakdown["tick_wait"],
        "server.deliver_ms": breakdown["deliver"],
        "server.overhead_ms": breakdown["overhead"],
        "batch.run_episodes_ms": per_call("batch", 1e-3),
        "probing.fastpath_ms": per_op("probing.fastpath"),
        "probing.run_loop_ms": per_op("probing.run_loop"),
        "channel.batched_gain_ms": per_op("channel.batched_gain"),
        "channel.path_gain_ms": per_op("channel.path_gain"),
        "channel.gain_ms": per_op("channel.gain"),
        "window.ms": per_op("window"),
        "predict.ms": per_call("predict", 1e-3),
        "reconcile.ms": per_op("reconcile"),
        "amplify.ms": per_op("amplify"),
        "session.run_ms": per_op("session"),
        "session.self_ms": table["session"]["self_ms_per_op"],
        "framing.encode_us": per_call("framing.encode"),
        "framing.decode_us": per_call("framing.decode"),
        "secure.open_us_per_record": table["secure.open"]["total_ms"] * 1e3 / ops if name == "secure-echo" else 0.0,
        "secure.seal_us_per_record": table["secure.seal"]["total_ms"] * 1e3 / ops if name == "secure-echo" else 0.0,
        "secure.derive_ms": per_call("secure.derive", 1e-3),
        "secure.payload_phase_ms": (
            table["secure.payload"]["total_ms"] / record["secured_sessions"]
            if record.get("secured_sessions") else 0.0
        ),
        "journal.append_us": per_call("journal.append"),
    }
    return rows


# -- reporting --------------------------------------------------------------------
_ALIASES = {
    "keys-r256": ("sessions_per_s", "session_p50_ms", "session_tail_ms"),
    "secure-echo": ("records_per_s", "record_p50_ms", "record_tail_ms"),
    "chaos-sweep": ("sessions_per_s", "session_p50_ms", "session_tail_ms"),
}


def _print_report(name, seed, result, record):
    """Human-readable lines before the final JSON line."""
    rate, p50, tail_name = _ALIASES[name]
    latencies = record["latencies_ms"]
    lines = [
        f"workload {name} seed {seed}: {record['ops']} operations, "
        f"nproc {common.NPROC}, loopback TCP" if name != "chaos-sweep"
        else f"workload {name} seed {seed}: {record['ops']} sessions, in-process",
        f"  setup_s = {record['setup_s']:.4f} s nominal CPU (median of {common.SETUPS}; wall "
        f"{record['setup_wall_s']:.4f} s, model load {record['load_s']:.4f} s, "
        f"server start {record.get('server_start_s', 0.0):.4f} s)",
        f"  peak_rss_mb = {record['peak_rss_mb']:.2f} MB",
        f"  cpu_ms_per_op = {record['cost_ms_per_op']:.4f} ms nominal CPU "
        f"(reference kernel {record['ref_cpu_ms']:.2f} ms CPU here, "
        f"{common.REF_NOMINAL_MS:g} ms nominal)",
        f"  {rate} = {record['throughput']:.4f} 1/s (wall)",
        f"  {p50} = {record['latency_p50_ms']:.4f} ms (wall)",
        f"  {tail_name} = {record['tail_ms']:.4f} ms "
        f"(p{record['tail_pct']:g}, n={len(latencies)})",
        f"  key_success_share = {record['success_share']:.4f} ratio",
        f"  failed_share = {record['failed'] / max(record['ops'], 1):.4f} ratio",
        f"  client.cpu_share = {record['client_cpu_share']:.4f} ratio",
    ]
    if "table" in record:
        lines.append("  per-layer (traced half):")
        for key, value in _absolute_table(name, record).items():
            lines.append(f"    {key} = {value:.4f}")
    for problem in record["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    print("\n".join(lines))


def _write_trace(name, seed, record):
    """Spans as JSONL plus the per-layer table, under .perfbench_work/traces/."""
    folder = os.path.join(common.WORK, "traces", name)
    tracer.write_jsonl(os.path.join(folder, "spans.jsonl"), record["spans"])
    with open(os.path.join(folder, "table.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "layers": record["table"],
                "absolute": _absolute_table(name, record),
                "breakdown_ms": record["breakdown_ms"],
                "status": record.get("status", {}),
            },
            handle,
            indent=2,
        )
    print(f"  trace written to {os.path.relpath(folder, common.ROOT)}")


# -- smoke and self-test ----------------------------------------------------------
def _self_test(check: bool) -> int:
    """Run every workload briefly in both modes (and tampered when ``check``)."""
    failures = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, record = run_workload(name, 1, 1.0, trace)
            expected = PER_LAYER if trace else END_TO_END
            got = {key: entry["unit"] for key, entry in result["metrics"].items()}
            status = "ok" if result["correct"] else "INCORRECT"
            print(f"smoke {name} trace={int(trace)}: {status}, {result['attempted']} ops")
            if not check:
                continue
            if not result["correct"]:
                failures.append(f"{name} trace={int(trace)}: {record['problems']}")
            if got != expected:
                failures.append(f"{name} trace={int(trace)}: metric names/units differ")
            values = [entry["value"] for entry in result["metrics"].values()]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                failures.append(f"{name} trace={int(trace)}: non-finite metric")
            if not trace and not all(values):
                failures.append(f"{name}: an end-to-end metric is zero")
        if check:
            result, _ = run_workload(name, 1, 1.0, False, tamper=True)
            print(f"negative check {name}: {'caught' if not result['correct'] else 'MISSED'}")
            if result["correct"]:
                failures.append(f"{name}: a tampered run passed its correctness check")
    for failure in failures:
        print(f"SELF-TEST FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one checked output; the run must fail")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload for 1 s in both modes")
    parser.add_argument("--self-test", action="store_true",
                        help="smoke plus metric-name and negative checks")
    args = parser.parse_args(argv)
    if args.smoke or args.self_test:
        return _self_test(check=args.self_test)
    if args.workload is None:
        parser.error("--workload is required")
    result, record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), tamper=args.tamper
    )
    _print_report(args.workload, args.seed, result, record)
    if args.trace:
        _write_trace(args.workload, args.seed, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
