"""hardylab benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload config-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same rounds alternately without and with spans and reports the
per-layer metrics. Report lines go to stdout; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
IMPORT_PAIRS = 7

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "aux_items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

POLYTOPE_CLASSES = ("inside", "boundary", "outside")

PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.run.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.svg_rects_per_pixel": "ratio",
    "chsh.scan_surface.busy_s": "s",
    "chsh.scan_surface.cells": "count",
    "chsh.optimize_delta.busy_s": "s",
    "chsh.evaluate.busy_s": "s",
    "chsh.delta_from_probabilities.busy_s": "s",
    "chsh.delta_closed_form.busy_s": "s",
    "chsh.delta_closed_form.calls": "count",
    "hardy.solve_hardy.busy_s": "s",
    "hardy.check_hardy.busy_s": "s",
    "hardy.hardy_inequality_lhs_rhs.busy_s": "s",
    "qstate.make_state.busy_s": "s",
    "qstate.config_from_file.busy_s": "s",
    "correlations.joint_distribution.calls": "count",
    "correlations.joint_distribution.busy_s": "s",
    "correlations.correlation.calls": "count",
    "correlations.batch_probabilities.ns_per_config": "ns",
    "correlations.batch_correlation.ns_per_config": "ns",
    "correlations.batch_probabilities.calls": "count",
    "lhv.strategy_from_text.busy_s": "s",
    "lhv.simulate.busy_s": "s",
    "lhv.simulate.trials": "count",
    **{f"lhv.is_locally_realizable.{c}.{m}": u for c in POLYTOPE_CLASSES for m, u in (("busy_s", "s"), ("calls", "count"))},
    "trace.overhead_ratio": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="scan-export, config-sweep, local-models, cli-session or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set the workload up and exit (timed by the parent)")
    return parser.parse_args(argv)


def _provenance(workload) -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hardylab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    fields = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "HARDY_LAB_THREADS": os.environ.get("HARDY_LAB_THREADS", "unset"),
        "simulate_workers": getattr(workload, "workers", "n/a"),
        "commit": commit or "unknown",
        "src_sha256": digest.hexdigest()[:16],
    }
    return " ".join(f"{key}={value}" for key, value in fields.items())


def _quantiles(values):
    """(p50, p90, n): the nearest-rank p90, only with at least ten samples
    beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered)) - 1
    p90 = ordered[rank] if len(ordered) - 1 - rank >= 10 else float("nan")
    return statistics.median(ordered), p90, len(ordered)


def _setup_probe(args, ctx, workloads) -> float:
    """Seconds of one set-up process, in reference-host seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    with workloads.Bracket("interpreter", during=True) as bracket:
        child = ctx.run_child(cmd)
    if child.code != 0:
        raise RuntimeError(f"set-up failed: {child.stderr.decode()[-500:]}")
    return child.seconds * bracket.scale


def _import_ms(ctx) -> float:
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(ctx.run_child([sys.executable, "-c", "pass"]).seconds)
        full.append(ctx.run_child([sys.executable, "-c", "import hardylab.cli"]).seconds)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def _layer_values(result, spans_module) -> dict[str, float]:
    summary = spans_module.summarize(result.processes.values())
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name, entry in summary.items():
        for metric in ("busy_s", "calls"):
            key = f"{name}.{metric}"
            if key in values:
                values[key] = float(entry[metric])
        if name in ("correlations.batch_probabilities", "correlations.batch_correlation") and entry["batch_count"]:
            values[f"{name}.ns_per_config"] = entry["batch_s"] / entry["batch_count"] * 1e9
    values["cli.run.self_s"] = summary.get("cli.run", {}).get("self_s", 0.0)
    values["chsh.scan_surface.cells"] = float(summary.get("chsh.scan_surface", {}).get("count", 0))
    values["lhv.simulate.trials"] = float(summary.get("lhv.simulate", {}).get("count", 0))
    values["cli.output_bytes"] = float(result.output_bytes)
    values["cli.svg_rects_per_pixel"] = result.svg_rects_per_pixel
    return values


def _run_all(args) -> int:
    """Run every workload in its own process; print their reports."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hardylab" / "__init__.py").is_file():
        print(f"error: no hardylab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(ROOT, work, args.seed, sys.executable)
        workload = workloads.WORKLOADS[args.workload](ctx)
        if args.setup_only:
            workload.setup()
            return 0 if ctx.tally.failed == 0 else 1
        return _measure(args, ctx, workload, spans, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _host_times(rounds) -> dict[str, float]:
    """Each operation's median time over the rounds, every time first
    rescaled to the reference host by the loop run around it (see
    workloads.Bracket). The median drops rounds that other load hit
    between the loop and the operation."""
    return {key: statistics.median(r.times[key] * r.scales[key] for r in rounds) for key in rounds[0].times}


def _measure(args, ctx, workload, spans, workloads) -> int:
    setup_times = [_setup_probe(args, ctx, workloads)]
    workload.setup()
    tracer = spans.Tracer(labels={"lhv.is_locally_realizable": workloads.checks.polytope_class}) if args.trace else None

    plain, traced = [], []
    measured = 0.0
    index = 0
    while measured < args.seconds or not plain or (args.trace and not traced):
        if args.trace and index % 2 == 1:
            result = workloads.traced_round(workload, tracer)
            traced.append(result)
        else:
            result = workload.round(traced=False)
            plain.append(result)
        measured += sum(result.times.values()) / getattr(workload, "clients", 1)
        index += 1
        # Set-ups are spread over the run, so their median sees the same
        # host as the rounds rather than one burst at the start.
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(_setup_probe(args, ctx, workloads))
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(_setup_probe(args, ctx, workloads))

    tally = ctx.tally
    print(f"# hardylab benchmark: workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# provenance: {_provenance(workload)}")
    print(f"# work per round: {workload.describe()}; rounds untraced={len(plain)} traced={len(traced)}")
    host = _host_times(plain)

    def rate(ops):
        return sum(workload.items[op] for op in ops) / sum(host[op] for op in ops)

    if workload.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = max(r.rss_mb for r in plain + traced)
    rounds_note = f"rounds, median reference-host time of each of {len(host)} operations"
    end_to_end = {
        "setup_s": (statistics.median(setup_times), len(setup_times), "set-ups, median reference-host time"),
        "items_per_s": (rate(workload.primary_ops), len(plain), f"{rounds_note}; {workload.primary[0]}: {workload.primary[1]}"),
        "aux_items_per_s": (rate(workload.secondary_ops), len(plain), f"{rounds_note}; {workload.secondary[0]}: {workload.secondary[1]}"),
        "peak_rss_mb": (rss, 1, "largest resident set of a process doing the work"),
    }
    for key, (value, count, note) in end_to_end.items():
        print(f"metric {key} = {value:.6g} {END_TO_END[key]} (n={count} {note})")
    print(f"metric failed_ratio = {tally.failed_ratio:.6g} (n={tally.attempted} operations checked)")
    p50, p90, n = _quantiles([ms for r in plain for ms in r.latencies_ms])
    p90_text = f"{p90:.6g}" if p90 == p90 else "n/a (fewer than 100 samples)"
    print(f"metric {workload.latency_name}_p50 = {p50:.6g} ms, p90 = {p90_text} (n={n})")
    for reason in tally.reasons:
        print(f"# failed: {reason}")

    if args.trace:
        per_round = [_layer_values(r, spans) for r in traced]
        metrics = {key: statistics.median(v[key] for v in per_round) for key in PER_LAYER}
        metrics["cli.import_ms"] = _import_ms(ctx)
        traced_host = _host_times(traced)
        metrics["trace.overhead_ratio"] = sum(traced_host.values()) / sum(host.values())
        for key, value in metrics.items():
            print(f"layer {key} = {value:.6g} {PER_LAYER[key]} (median of {len(traced)} traced rounds)")
        for op, op_spans in traced[0].processes.items() if not workload.in_process else ():
            summary = spans.summarize([op_spans])
            print(f"# detail {op}: {traced[0].times[op]:.4g} s, cli.run.self_s {summary.get('cli.run', {}).get('self_s', 0.0):.4g}, "
                  f"chsh.scan_surface.busy_s {summary.get('chsh.scan_surface', {}).get('busy_s', 0.0):.4g}")
        out = {key: {"value": value, "unit": PER_LAYER[key]} for key, value in metrics.items()}
    else:
        out = {key: {"value": value, "unit": END_TO_END[key]} for key, (value, _, _) in end_to_end.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
