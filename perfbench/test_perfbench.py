"""Tests of the benchmark itself, at smoke size.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(about five minutes; the serve workload JIT-compiles its routes three
times per set-up).  Each benchmark run is a subprocess started from the
checkout root, the way the benchmark command is meant to be run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth_cold", "serve_mix", "table_mix")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import EXACT_COUNTS  # noqa: E402


def bench(*args: str, fault: str = "", cwd: Path = ROOT):
    """Run the benchmark; returns (exit code, parsed result or None)."""
    argv = ["perfbench/run.py", *args]
    if fault:
        # The fault is a monkeypatch, so it must live in the benchmark's
        # own process: enter it, then call the benchmark's main().
        code = (
            "import sys; sys.path[:0] = ['src', 'perfbench']\n"
            "from repro.fuzz.faults import injected_fault\n"
            "import run\n"
            f"with injected_fault({fault!r}):\n"
            f"    sys.exit(run.main({list(args)!r}))\n"
        )
        argv = ["-c", code]
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result


def smoke(workload: str, seed: int = 7, trace: int = 0):
    return ("--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace))


def test_exact_counts_are_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(EXACT_COUNTS) <= names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_fires_under_an_injected_fault(workload):
    code, result = bench(*smoke(workload), fault="interp-bitflip")
    assert code == 1
    assert result is not None and result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_runs_are_correct_and_exact_counts_repeat(workload):
    runs = [bench(*smoke(workload, trace=trace)) for trace in (0, 0, 1, 1)]
    for code, result in runs:
        assert code == 0 and result["correct"] and result["failed"] == 0
    untraced = [result["metrics"] for _, result in runs[:2]]
    traced = [result["metrics"] for _, result in runs[2:]]
    assert untraced[0]["bucket_collisions"] == untraced[1]["bucket_collisions"]
    for name in EXACT_COUNTS[1:]:
        assert traced[0][name] == traced[1][name], name
    if workload == "synth_cold":
        assert traced[0]["cache.hits"]["value"] == 0
    if workload == "serve_mix":
        assert traced[0]["serve.pending"]["value"] == 0
        assert traced[0]["routes.native"]["value"] == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    code, result = bench(*smoke("table_mix"), cwd=tmp_path)
    assert code != 0
    assert result is None
