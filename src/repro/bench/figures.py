"""Reproduction of the paper's Figures 13 through 20 as data series.

No plotting library is assumed offline, so each ``figure*`` function
returns the numeric series the corresponding figure plots (box-plot
samples, line series, bar heights); :mod:`repro.bench.report` renders
them as text.  The *shape* of each figure — orderings, crossovers,
trends — is what EXPERIMENTS.md compares against the paper.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.experiment import ExperimentSpec, experiment_grid
from repro.bench.metrics import pearson_correlation
from repro.bench.runner import measure_b_time, measure_h_time
from repro.bench.suite import make_hash_suite
from repro.codegen.cache import get_compile_cache
from repro.containers.low_mixing import LowMixingMap
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize, synthesize_short_key
from repro.hashes.registry import baseline_hashes
from repro.keygen.distributions import Distribution
from repro.keygen.generator import generate_keys
from repro.keygen.keyspec import KEY_TYPES

HashCallable = Callable[[bytes], int]

DEFAULT_KEY_TYPES = tuple(KEY_TYPES)


def _boxplot_series(
    key_types: Sequence[str],
    arch: str,
    samples: int,
    affectations: int,
    reduced_grid: bool,
) -> Dict[str, List[float]]:
    series: Dict[str, List[float]] = {}
    for key_type in key_types:
        suite = make_hash_suite(key_type, arch=arch)
        cells = experiment_grid(key_types=[key_type], reduced=reduced_grid)
        for cell in cells:
            for name, function in suite.items():
                runs = measure_b_time(
                    function,
                    cell,
                    samples=samples,
                    affectations=affectations,
                )
                series.setdefault(name, []).extend(
                    run.elapsed_seconds for run in runs
                )
    return series


def figure13(
    key_types: Sequence[str] = DEFAULT_KEY_TYPES,
    samples: int = 1,
    affectations: int = 5000,
    reduced_grid: bool = True,
) -> Dict[str, List[float]]:
    """Figure 13: B-Time box-plot samples per hash function (x86).

    Gperf is included in the returned series; the paper excludes it from
    the plot (two orders of magnitude slower) but reports it in Table 1 —
    report rendering marks it as the outlier.
    """
    return _boxplot_series(
        key_types, "x86", samples, affectations, reduced_grid
    )


def figure14(
    key_types: Sequence[str] = DEFAULT_KEY_TYPES,
    samples: int = 1,
    affectations: int = 5000,
    reduced_grid: bool = True,
) -> Dict[str, List[int]]:
    """Figure 14: bucket-collision counts per hash function."""
    series: Dict[str, List[int]] = {}
    for key_type in key_types:
        suite = make_hash_suite(key_type)
        cells = experiment_grid(key_types=[key_type], reduced=reduced_grid)
        for cell in cells:
            for name, function in suite.items():
                runs = measure_b_time(
                    function, cell, samples=samples, affectations=affectations
                )
                series.setdefault(name, []).extend(
                    run.bucket_collisions for run in runs
                )
    return series


def figure15(
    key_types: Sequence[str] = DEFAULT_KEY_TYPES,
    samples: int = 1,
    affectations: int = 5000,
    reduced_grid: bool = True,
) -> Dict[str, List[float]]:
    """Figure 15: B-Time on aarch64 — the suite without the Pext family.

    Substitution note: we cannot change the host CPU; what the paper's
    aarch64 run changes *algorithmically* is the absence of the Pext
    family (no ``bext``), which this series reproduces.
    """
    return _boxplot_series(
        key_types, "aarch64", samples, affectations, reduced_grid
    )


def figure16(
    exponents: Sequence[int] = tuple(range(4, 15)),
    repeats: int = 3,
) -> Dict[str, List[Tuple[int, float]]]:
    """Figure 16: synthesis time vs key size (RQ6).

    Keys are all-digit formats of 2^4 .. 2^14 bytes with no constant
    subsequences, so nothing can be skipped.  Returns per-family series
    of (key_bytes, seconds); the report computes Pearson correlations
    (the paper's linearity evidence — smallest r = 0.993).
    """
    series: Dict[str, List[Tuple[int, float]]] = {}
    for family in (HashFamily.OFFXOR, HashFamily.AES, HashFamily.PEXT):
        points: List[Tuple[int, float]] = []
        for exponent in exponents:
            size = 1 << exponent
            regex = f"[0-9]{{{size}}}"
            best = float("inf")
            for _ in range(repeats):
                get_compile_cache().clear()  # Every repeat is cold.
                started = time.perf_counter()
                synthesize(regex, family)
                best = min(best, time.perf_counter() - started)
            points.append((size, best))
        series[family.value] = points
    return series


def synthesis_linearity(
    series: Dict[str, List[Tuple[int, float]]]
) -> Dict[str, float]:
    """Pearson r between key size and synthesis time, per family."""
    return {
        name: pearson_correlation(
            [float(size) for size, _ in points],
            [seconds for _, seconds in points],
        )
        for name, points in series.items()
    }


DISCARD_STEPS = (0, 8, 16, 24, 32, 40, 48)
"""The X axis of Figures 17 and 18: least-significant bits discarded."""


def _low_mixing_run(
    suite: Dict[str, HashCallable],
    keys: Sequence[bytes],
    discard_bits: int,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    bucket_collisions: Dict[str, int] = {}
    true_collisions: Dict[str, int] = {}
    for name, function in suite.items():
        table = LowMixingMap(function, discard_bits=discard_bits)
        for key in keys:
            table.insert(key, None)
        bucket_collisions[name] = table.bucket_collisions()
        truncated = {function(key) >> discard_bits for key in set(keys)}
        true_collisions[name] = len(set(keys)) - len(truncated)
    return bucket_collisions, true_collisions


def figure17_18(
    key_types: Sequence[str] = ("SSN", "IPV4", "MAC", "URL1"),
    keys_per_type: int = 10_000,
    discard_steps: Sequence[int] = DISCARD_STEPS,
) -> Tuple[
    Dict[str, List[Tuple[int, int]]], Dict[str, List[Tuple[int, int]]]
]:
    """Figures 17 and 18: low-mixing container sweeps (RQ7).

    For each discard amount X, keys are stored in a container indexing
    buckets by ``hash >> X``; returns (bucket-collision series,
    true-collision series), each mapping function name to
    ``[(X, count), ...]`` aggregated over key types.
    """
    bucket_series: Dict[str, List[Tuple[int, int]]] = {}
    true_series: Dict[str, List[Tuple[int, int]]] = {}
    suites = {
        key_type: make_hash_suite(key_type) for key_type in key_types
    }
    key_samples = {
        key_type: generate_keys(
            key_type, keys_per_type, Distribution.UNIFORM, seed=4
        )
        for key_type in key_types
    }
    for discard in discard_steps:
        totals_bucket: Dict[str, int] = {}
        totals_true: Dict[str, int] = {}
        for key_type in key_types:
            bucket, true = _low_mixing_run(
                suites[key_type], key_samples[key_type], discard
            )
            for name in bucket:
                totals_bucket[name] = totals_bucket.get(name, 0) + bucket[name]
                totals_true[name] = totals_true.get(name, 0) + true[name]
        for name in totals_bucket:
            bucket_series.setdefault(name, []).append(
                (discard, totals_bucket[name])
            )
            true_series.setdefault(name, []).append(
                (discard, totals_true[name])
            )
    return bucket_series, true_series


def figure18_four_digits(
    discard_bits: int = 32,
) -> Dict[str, Dict[str, int]]:
    """Figure 18's four-digit worst case: keys ``\\d{4}``, forced short-key
    synthesis, MSB vs LSB bucket indexing at 32 discarded bits."""
    keys = [f"{i:04d}".encode() for i in range(10_000)]
    functions: Dict[str, HashCallable] = {
        "STL": baseline_hashes()["STL"].function,
        "Pext": synthesize_short_key(r"\d{4}", HashFamily.PEXT).function,
    }
    results: Dict[str, Dict[str, int]] = {}
    for name, function in functions.items():
        msb_table = LowMixingMap(function, discard_bits=discard_bits)
        lsb_table = LowMixingMap(function, discard_bits=0)
        for key in keys:
            msb_table.insert(key, None)
            lsb_table.insert(key, None)
        msb_true = len(set(keys)) - len(
            {function(key) >> discard_bits for key in keys}
        )
        lsb_true = len(set(keys)) - len(
            {function(key) & ((1 << (64 - discard_bits)) - 1) for key in keys}
        )
        results[name] = {
            "msb_bucket_collisions": msb_table.bucket_collisions(),
            "msb_true_collisions": msb_true,
            "lsb_bucket_collisions": lsb_table.bucket_collisions(),
            "lsb_true_collisions": lsb_true,
        }
    return results


def figure19(
    exponents: Sequence[int] = tuple(range(4, 15)),
    keys_per_size: int = 200,
    repeats: int = 3,
) -> Dict[str, List[Tuple[int, float]]]:
    """Figure 19: hashing time vs key size (RQ8).

    All-digit keys of 2^4 .. 2^14 bytes, hashed by Pext and the library
    baselines; the paper's claim is linear scaling for all of them
    (smallest Pearson r = 0.9979 for Pext).
    """
    functions: Dict[str, HashCallable] = {
        name: named.function
        for name, named in baseline_hashes().items()
        if name != "Polymur"
    }
    series: Dict[str, List[Tuple[int, float]]] = {
        name: [] for name in functions
    }
    series["Pext"] = []
    for exponent in exponents:
        size = 1 << exponent
        keys = [
            str(index).rjust(size, "0").encode()[:size]
            for index in range(keys_per_size)
        ]
        pext = synthesize(f"[0-9]{{{size}}}", HashFamily.PEXT)
        for name, function in functions.items():
            series[name].append(
                (size, measure_h_time(function, keys, repeats=repeats))
            )
        series["Pext"].append(
            (size, measure_h_time(pext.function, keys, repeats=repeats))
        )
    return series


def figure20(
    key_types: Sequence[str] = ("SSN", "URL1"),
    samples: int = 1,
    affectations: int = 5000,
    spread: int = 300,
) -> Dict[str, List[float]]:
    """Figure 20: B-Time grouped by container type (RQ9).

    Returns container name → B-Time samples aggregated over the hash
    suite; the paper's finding is Multi variants slower, and relative
    hash-function ordering independent of container.

    The default spread is small relative to the affectation count so
    keys repeat: duplicate keys are what make the Multi variants do
    extra work (their chains grow where unique-key containers reject
    the insert).
    """
    from repro.keygen.driver import ALLOWED_MIXES, ExecutionMode
    from repro.keygen.keyspec import key_spec

    series: Dict[str, List[float]] = {}
    for key_type in key_types:
        suite = make_hash_suite(
            key_type, include=["STL", "Naive", "OffXor", "Aes", "Pext"]
        )
        for container_name in (
            "unordered_map",
            "unordered_set",
            "unordered_multimap",
            "unordered_multiset",
        ):
            cell = ExperimentSpec(
                key_spec=key_spec(key_type),
                container_name=container_name,
                distribution=Distribution.NORMAL,
                spread=spread,
                mode=ExecutionMode.BATCHED,
                mix=ALLOWED_MIXES[0],
            )
            for name, function in suite.items():
                runs = measure_b_time(
                    function, cell, samples=samples, affectations=affectations
                )
                series.setdefault(container_name, []).extend(
                    run.elapsed_seconds for run in runs
                )
    return series
