"""Reference-vs-fast inference comparison: the ``BENCH_infer.json`` source.

Quantifies the headline claim of the bitwise-parallel inference engine:
the reference ``keybuilder`` join performs four Python-level lattice
joins per byte per key, while the fast engine folds whole keys with two
machine operations (``diff |= key ^ key0``) — big-int words or NumPy
column reductions.  Every row times one engine on the same corpus
against the reference :func:`repro.core.quads.join_keys` and records
both the speedup and a byte-for-byte parity verdict, so the committed
artifact is simultaneously a perf trajectory and a correctness witness.

Used by ``benchmarks/bench_infer.py`` (the CI smoke-bench that uploads
``BENCH_infer.json``).
"""

from __future__ import annotations

import json
import platform
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.fast_infer import (
    PatternAccumulator,
    join_keys_bigint,
    join_keys_numpy,
)
from repro.core.quads import Quad, join_keys
from repro.obs.trace import span

_HEX = b"0123456789abcdef"

_ACCUMULATOR_CHUNK = 8192
"""Chunk size for the streaming-accumulator row (models file streaming)."""


def make_corpus(
    num_keys: int,
    key_len: int = 16,
    seed: int = 0,
    variable: bool = False,
) -> List[bytes]:
    """A deterministic keybuilder corpus with real constant structure.

    Keys carry a constant ``id-`` prefix and a constant ``:`` separator
    with hex payload bytes, so the join produces a mix of concrete and ⊤
    quads — the shape the engine must handle, not a degenerate all-⊤
    corpus.  ``variable=True`` trims up to 4 trailing bytes per key to
    exercise the ⊤-padded variable-length path.
    """
    rng = random.Random(seed)
    prefix = b"id-"
    body = key_len - len(prefix) - 1
    if body < 1:
        raise ValueError(f"key_len too small: {key_len}")
    keys = []
    for _ in range(num_keys):
        payload = bytes(rng.choice(_HEX) for _ in range(body))
        key = prefix + payload[: body // 2] + b":" + payload[body // 2 :]
        if variable:
            key = key[: len(key) - rng.randint(0, 4)]
        keys.append(key)
    return keys


def _time_engine(
    run: Callable[[], Any], repeats: int
) -> float:
    """Best-of-``repeats`` wall time of one engine invocation."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _accumulator_join(keys: Sequence[bytes]) -> List[Quad]:
    """Streaming row: fold the corpus through chunked accumulator updates."""
    accumulator = PatternAccumulator()
    for start in range(0, len(keys), _ACCUMULATOR_CHUNK):
        accumulator.update(keys[start : start + _ACCUMULATOR_CHUNK])
    return accumulator.joined_quads()


def _parallel_join(keys: Sequence[bytes], jobs: int) -> List[Quad]:
    """Sharded row: the multi-core driver, reduced back to quads."""
    from repro.core.fast_infer import infer_pattern_parallel

    return list(infer_pattern_parallel(keys, jobs=jobs).quads)


def compare_infer(
    num_keys: int = 100_000,
    key_len: int = 16,
    repeats: int = 3,
    seed: int = 0,
    jobs: Optional[int] = 2,
) -> Dict[str, Any]:
    """Time every inference engine against the reference join.

    Two corpora are measured: the headline fixed-length corpus
    (``num_keys`` × ``key_len`` bytes) and a variable-length variant
    that exercises ⊤-padding and prefix truncation.  Returns a
    JSON-ready report; each row carries absolute seconds, ns/key, the
    speedup over the reference join on the same corpus, and whether the
    engine's output matched the reference byte for byte.
    """
    from repro.bench.ledger import fingerprint

    report: Dict[str, Any] = {
        "benchmark": "infer_compare",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "fingerprint": fingerprint(),
        "numpy": True,
        "params": {
            "num_keys": num_keys,
            "key_len": key_len,
            "repeats": repeats,
            "seed": seed,
            "jobs": jobs,
        },
        "corpora": [],
    }
    corpora = [
        ("fixed", make_corpus(num_keys, key_len, seed=seed)),
        (
            "variable",
            make_corpus(num_keys, key_len, seed=seed + 1, variable=True),
        ),
    ]
    with span("bench.infer_compare", keys=num_keys, key_len=key_len):
        for name, keys in corpora:
            reference = join_keys(keys)
            reference_seconds = _time_engine(
                lambda: join_keys(keys), repeats
            )
            rows: List[Dict[str, Any]] = [
                _row("reference", reference_seconds, reference_seconds,
                     len(keys), parity=True)
            ]
            engines: List[Any] = [
                ("bigint", lambda: join_keys_bigint(keys)),
                ("accumulator", lambda: _accumulator_join(keys)),
            ]
            if name == "fixed":
                engines.append(("numpy", lambda: join_keys_numpy(keys)))
            if jobs and jobs > 1:
                engines.append(
                    ("parallel", lambda: _parallel_join(keys, jobs))
                )
            for engine_name, run in engines:
                seconds = _time_engine(run, repeats)
                rows.append(
                    _row(
                        engine_name,
                        seconds,
                        reference_seconds,
                        len(keys),
                        parity=run() == reference,
                    )
                )
            report["corpora"].append(
                {
                    "name": name,
                    "keys": len(keys),
                    "key_len": key_len,
                    "rows": rows,
                }
            )
    report["best_speedup"] = best_speedup(report)
    report["all_parity"] = all(
        row["parity"]
        for corpus in report["corpora"]
        for row in corpus["rows"]
    )
    return report


def _row(
    engine: str,
    seconds: float,
    reference_seconds: float,
    num_keys: int,
    parity: bool,
) -> Dict[str, Any]:
    return {
        "engine": engine,
        "seconds": seconds,
        "ns_per_key": seconds * 1e9 / num_keys if num_keys else 0.0,
        "speedup_vs_reference": (
            reference_seconds / seconds if seconds else float("inf")
        ),
        "parity": parity,
    }


def best_speedup(report: Dict[str, Any]) -> float:
    """Largest parity-clean speedup on the headline fixed-length corpus."""
    best = 0.0
    for corpus in report["corpora"]:
        if corpus["name"] != "fixed":
            continue
        for row in corpus["rows"]:
            if row["engine"] != "reference" and row["parity"]:
                best = max(best, row["speedup_vs_reference"])
    return best


def render_comparison(report: Dict[str, Any]) -> str:
    """Human-readable table of the comparison report."""
    lines = [
        f"inference engines, {report['params']['num_keys']} keys x "
        f"{report['params']['key_len']}B "
        f"(best of {report['params']['repeats']}):"
    ]
    for corpus in report["corpora"]:
        lines.append(f"  corpus {corpus['name']} ({corpus['keys']} keys):")
        for row in corpus["rows"]:
            lines.append(
                f"    {row['engine']:12s} {row['seconds'] * 1000:9.2f} ms  "
                f"{row['ns_per_key']:9.1f} ns/key  "
                f"{row['speedup_vs_reference']:7.1f}x  "
                f"parity={'ok' if row['parity'] else 'FAIL'}"
            )
    lines.append(
        f"  best fixed-corpus speedup: {report['best_speedup']:.1f}x"
    )
    from repro.bench.report import fingerprint_block

    lines.append(
        fingerprint_block(
            repeats=report["params"].get("repeats"),
            keys=report["params"].get("num_keys"),
        )
    )
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    """Persist the report as indented JSON (the committed artifact)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
