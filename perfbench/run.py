"""SEPE's end-to-end benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload synth_cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload three times at a third of the time each, untraced, traced and
untraced, and reports the per-layer metrics plus the tracing overhead;
the spans are written to ``perfbench/_work/traces/``.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Exit codes: 0 all outputs correct; 1 an output was wrong, lost or
raised; 2 the program under test cannot be imported; 3 the native tier
degraded, so the run measured a different program (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = WORK / f"run-{os.getpid()}"
    scratch = run_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Toolchain probes, compiler temporaries and JIT shared objects all
    # land in this private directory, removed when the run ends.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        return measure(args, spec)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


IMPORT_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
started = time.perf_counter()
import workloads
print(time.perf_counter() - started)
"""


def import_seconds(reps: int = 3) -> float:
    """Median time to import the program and the benchmark's workloads,
    each in a fresh interpreter (imports happen once per process)."""
    code = IMPORT_PROBE.format(src=str(ROOT / "src"), here=str(HERE))
    samples = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def measure(args, spec) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import workloads
        from repro.codegen.native import detect_toolchain, native_enabled
        from repro.errors import NativeUnavailableError
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    from harness import Tally, Tracer

    import_s = import_seconds()

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()

    def run(seconds, tracer):
        context = workloads.Context(args.seed, seconds, import_s, tracer, tally)
        return workload(context)

    if args.trace:
        # Untraced, traced, untraced: the traced third is compared with
        # the mean of its neighbours, so warm-up and drift largely cancel.
        third = args.seconds / 3
        before = run(third, Tracer(False))
        tracer = Tracer(True)
        workloads.install_layer_spans(tracer)
        hits, misses = workloads.cache_counts()
        try:
            outcome = run(third, tracer)
        finally:
            tracer.restore()
        after_hits, after_misses = workloads.cache_counts()
        after = run(third, Tracer(False))
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        untraced_rate = (before.e2e["ops_per_s"] + after.e2e["ops_per_s"]) / 2
        values = dict(outcome.layers)
        values["cache.hits"] = after_hits - hits
        values["cache.misses"] = after_misses - misses
        values["trace.overhead_pct"] = 100.0 * (
            untraced_rate / outcome.e2e["ops_per_s"] - 1.0
        )
        values["trace.spans"] = len(tracer.spans)
        section = "per_layer"
        for name in spec[section]:
            values.setdefault(name["name"], 0.0)  # layer not exercised here
    else:
        outcome = run(args.seconds, Tracer(False))
        values = dict(outcome.e2e)
        values["success_rate"] = 1 - tally.failed / tally.attempted
        rusage = resource.getrusage(resource.RUSAGE_SELF)
        values["peak_rss_mb"] = rusage.ru_maxrss / 1024
        section = "end_to_end"

    declared = {metric["name"]: metric["unit"] for metric in spec[section]}
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: missing {missing}, extra {extra}")

    try:
        compiler = detect_toolchain().identity
    except NativeUnavailableError as exc:
        compiler = f"unavailable: {exc}"
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_enabled": native_enabled(),
        "compiler": compiler,
        **outcome.facts,
    }
    print("# host " + json.dumps(facts, sort_keys=True))
    for name, unit in declared.items():
        print(f"{name:34s} {float(values[name]):16.6f} {unit}")
    error_rate = tally.failed / tally.attempted
    print(f"{'error_rate':34s} {error_rate:16.6f} ratio ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    if outcome.degraded:
        print(
            f"error: native tier degraded ({outcome.degraded}); this run "
            "measures a different program and reports no result",
            file=sys.stderr,
        )
        return 3
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
