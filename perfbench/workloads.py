"""The three workloads, each driven only through SEPE's public API.

Every workload is a function ``(ctx) -> Outcome``.  Inputs are generated
from the run seed before any timed region; every output is checked
against an independent reference (the IR interpreter for synthesized
hashes, ``stl_hash_bytes`` for fallback keys, a ``dict`` replay for the
container) and every mismatch, exception or lost key is counted in the
run's :class:`~harness.Tally`.

Timed work is repeated in fixed-size, seed-determined passes, so the
exact counts (collisions, fallback keys, IR ops, C++ bytes) repeat for a
fixed seed no matter how many passes fit in the time budget.
"""

from __future__ import annotations

import gc
import threading
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.codegen.cache as cache_module
import repro.core.synthesis as synthesis_module
import repro.verify.verifier as verifier_module
from repro.codegen.cache import get_compile_cache
from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir
from repro.codegen.native import detect_toolchain
from repro.containers import UnorderedMap
from repro.core import HashFamily, infer_pattern, synthesize
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen.distributions import Distribution
from repro.keygen.generator import KeyGenerator
from repro.keygen.keyspec import KEY_TYPE_NAMES
from repro.serve import HashService

from harness import (
    Histogram,
    Repeats,
    Tally,
    Tracer,
    median,
    now_ns,
    rng_for,
    settle,
    subseed,
)

SETUP_REPS = 3
"""Cold set-ups per run; ``setup_s`` reports their median."""

EXAMPLES = 1000
"""Seeded example keys per format fed to ``infer_pattern``."""

CHECK_KEYS = 16
"""Seeded keys per plan on which every tier is checked against the
interpreter (the interpreter costs up to ~0.7 ms per key on Aes/INTS)."""

EXACT_COUNTS = (
    "bucket_collisions",
    "stream.fallback_keys",
    "codegen.ir_ops",
    "codegen.cpp_bytes",
)
"""Metrics that must repeat exactly for a fixed seed."""


@dataclass
class Context:
    seed: int
    seconds: float
    import_s: float
    tracer: Tracer
    tally: Tally


@dataclass
class Outcome:
    """What a workload measured: end-to-end values, per-layer values
    (traced runs only) and host facts that qualify the numbers."""

    e2e: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)
    degraded: Optional[str] = None


# -- shared steps --------------------------------------------------------


def install_layer_spans(tracer: Tracer) -> None:
    """Span the public entry points of the synthesis and codegen layers.

    The benchmark wraps the module attributes the pipeline looks up at
    call time; :meth:`Tracer.restore` puts the originals back.
    """
    tracer.wrap(synthesis_module, "build_plan", "core.synthesis.build_plan")
    tracer.wrap(verifier_module, "verify_plan", "verify.verify_plan")
    tracer.wrap(cache_module.CompileCache, "scalar", "codegen.scalar")
    tracer.wrap(cache_module.CompileCache, "batch", "codegen.batch")

    def native_built(artifact) -> None:
        tracer.count_once(
            "codegen.cpp_bytes", artifact.fingerprint, len(artifact.source)
        )
        tracer.sample("codegen.native.compiler_ms", artifact.function.compile_ms)

    def optimized(func) -> None:
        key = (cache_module.plan_fingerprint(func.plan), func.name)
        tracer.count_once("codegen.ir_ops", key, len(func.instrs))

    tracer.wrap(
        cache_module.CompileCache, "native", "codegen.native", native_built
    )
    tracer.wrap(cache_module, "optimize", "codegen.optimize", optimized)


def synthesis_layers(tracer: Tracer) -> Dict[str, float]:
    """Per-layer synthesis figures.  The counts sum over the distinct
    functions the workload compiled: IR instructions after ``optimize``
    per generated Python function, C++ bytes per native plan."""
    compiler_ms = tracer.samples.get("codegen.native.compiler_ms")
    return {
        "infer.ms": tracer.median_ms("core.fast_infer.infer"),
        "plan.ms": tracer.median_ms("core.synthesis.build_plan"),
        "verify.ms": tracer.median_ms("verify.verify_plan"),
        "codegen.scalar.ms": tracer.median_ms("codegen.scalar"),
        "codegen.batch.ms": tracer.median_ms("codegen.batch"),
        "codegen.native.ms": tracer.median_ms("codegen.native"),
        "codegen.native.compiler_ms": median(compiler_ms) if compiler_ms else 0.0,
        "codegen.ir_ops": tracer.total("codegen.ir_ops"),
        "codegen.cpp_bytes": tracer.total("codegen.cpp_bytes"),
    }


def cache_counts() -> Tuple[int, int]:
    stats = get_compile_cache().stats()
    return stats["hits"], stats["misses"]


def examples_for(seed: int, name: str) -> List[bytes]:
    generator = KeyGenerator(
        name, Distribution.UNIFORM, seed=subseed(seed, "examples", name)
    )
    return generator.take(EXAMPLES)


def uniform_pool(seed: int, name: str, purpose: str, size: int) -> List[bytes]:
    generator = KeyGenerator(
        name, Distribution.UNIFORM, seed=subseed(seed, purpose, name)
    )
    return generator.distinct_pool(size)


def synthesize_plan(examples, family, tracer: Tracer, tag: str):
    """Examples → ``infer_pattern`` → strict ``synthesize`` → batch hash."""
    with tracer.span("core.fast_infer.infer", tag):
        pattern = infer_pattern(examples)
    with tracer.span("core.synthesis.synthesize", tag):
        synthesized = synthesize(pattern, family, verify="strict")
    with tracer.span("synthesized.batch_function", tag):
        synthesized.batch_function
    return synthesized


def reference(synthesized, keys: Sequence[bytes]) -> List[int]:
    """The interpreter's hashes: the oracle every tier must match."""
    func = build_ir(synthesized.plan)
    return [interpret(func, key) for key in keys]


def wrong_count(values, expected: Sequence) -> int:
    """Positions where ``values`` differs from ``expected``, counting a
    length mismatch as that many wrong values."""
    return sum(got != want for got, want in zip(values, expected)) + abs(
        len(values) - len(expected)
    )


def fill_collisions(hash_function, keys: Sequence[bytes]) -> int:
    table = UnorderedMap(hash_function)
    for key in keys:
        table.insert(key, None)
    return table.bucket_collisions()


# -- synth_cold ------------------------------------------------------------

PLANS = [(name, family) for name in KEY_TYPE_NAMES for family in HashFamily]
FAMILIES = list(HashFamily)
JIT_PLANS = [
    (name, FAMILIES[index % len(FAMILIES)])
    for index, name in enumerate(KEY_TYPE_NAMES)
]
"""The plans whose first native access is timed: every format once and
every family twice (a full sweep JITs for ~30 s).  Each round JITs the
next one, in turn."""
SECONDS_PER_ROUND = 1.6
"""A sweep takes ~0.7 s and a native build ~0.9 s.  The number of rounds
follows from ``--seconds`` alone, so the exact counts repeat for a
fixed seed and run length."""
COLLISION_KEYS = 2048


def synth_cold(ctx: Context) -> Outcome:
    """Rounds of cold synthesis of all 8 formats x 4 families, then the
    first native access of one plan, each round from an empty compile
    cache.  Every plan's synthesis and every native build are sampled
    across the whole run, and each reports its median (see
    :class:`~harness.Repeats`).
    """
    tracer, tally, seed = ctx.tracer, ctx.tally, ctx.seed
    examples = {name: examples_for(seed, name) for name in KEY_TYPE_NAMES}
    check_keys = {
        name: uniform_pool(seed, name, "check", CHECK_KEYS)
        for name in KEY_TYPE_NAMES
    }
    collision_keys = {
        name: uniform_pool(seed, name, "collisions", COLLISION_KEYS)
        for name in KEY_TYPE_NAMES
    }
    settle()

    setup_ns = []
    for _ in range(SETUP_REPS):
        started = now_ns()
        with tracer.span("codegen.native.detect_toolchain"):
            detect_toolchain(refresh=True)
        setup_ns.append(now_ns() - started)

    hits0, _ = cache_counts()
    synth, jit = Repeats(), Repeats()
    collisions = 0
    degraded = None
    for round_index in range(max(1, int(ctx.seconds / SECONDS_PER_ROUND))):
        gc.collect()
        get_compile_cache().clear()
        built = {}
        for name, family in PLANS:
            tag = f"{name}/{family.value}#{round_index}"
            tally.ops(1)
            started = now_ns()
            try:
                synthesized = synthesize_plan(examples[name], family, tracer, tag)
            except Exception as exc:  # counted, the sweep goes on
                tally.fail(1, f"synthesis of {tag} raised {exc!r}")
                continue
            synth.offer((name, family), now_ns() - started)
            built[(name, family)] = synthesized
        plan = JIT_PLANS[round_index % len(JIT_PLANS)]
        if plan in built:
            synthesized = built[plan]
            tag = f"{plan[0]}/{plan[1].value}#{round_index}"
            tally.ops(1)
            started = now_ns()
            with tracer.span("synthesized.native_module", tag):
                module = synthesized.native_module
            if module is None:
                degraded = f"no native module for {tag}"
            else:
                jit.offer(plan, now_ns() - started)
                keys = check_keys[plan[0]]
                expected = reference(synthesized, keys)
                wrong = wrong_count([module(key) for key in keys], expected)
                wrong += wrong_count(module.hash_many(keys), expected)
                if wrong:
                    tally.fail(1, f"native tier of {tag} disagrees with the interpreter")
        for (name, family), synthesized in built.items():
            keys = check_keys[name]
            expected = reference(synthesized, keys)
            wrong = wrong_count([synthesized(key) for key in keys], expected)
            wrong += wrong_count(synthesized.hash_many(keys), expected)
            if wrong:
                tally.fail(
                    1,
                    f"scalar/batch tier of {name}/{family.value} disagrees "
                    "with the interpreter",
                )
        if round_index == 0:
            collisions = sum(
                fill_collisions(synthesized, collision_keys[name])
                for (name, _), synthesized in built.items()
            )
    hits, _ = cache_counts()
    if hits != hits0:
        tally.fail(hits - hits0, "compile-cache hits in a cold sweep")
    if not jit.samples:
        raise RuntimeError("no plan reached the native tier")
    plan_us = [
        (synth.median_ns(plan) + jit.median_ns(plan)) / 1e3 for plan in jit.samples
    ]

    e2e = {
        "setup_s": ctx.import_s + median(setup_ns) / 1e9,
        "synth_ms_p50": synth.median_ms(),
        "ops_per_s": len(plan_us) / (sum(plan_us) / 1e6),
        "op_us_p50": median(plan_us),
        "bucket_collisions": collisions,
    }
    layers = {}
    if tracer.enabled:
        layers = synthesis_layers(tracer)
    return Outcome(e2e, layers, {"native_plans": len(plan_us)}, degraded)


# -- serve_mix ---------------------------------------------------------------

SERVE_FORMATS = ("SSN", "MAC", "URL2")
UNROUTED_FORMAT = "CPF"  # 14-byte keys: no route claims the length
UNROUTED_SHARE = 0.02
SERVE_POOL = 4096
STREAM_KEYS = 65536  # per producer per pass
REQUEST_BLOCKS = 256  # each: 64 hash() calls, then one 64-key hash_many()
BLOCK = 64


class Sink:
    """The service sink: counts every delivered key and keeps a seeded
    sample of two (key, value) pairs per batch for the oracle."""

    def __init__(self, seed: int, timed: bool):
        self.lock = threading.Lock()
        self.seed = seed
        self.timed = timed
        self.delivered = 0
        self.flushes = 0
        self.fallback = 0
        self.busy_ns = 0
        self.samples: List[tuple] = []

    def __call__(self, route, keys, values) -> None:
        started = now_ns() if self.timed else 0
        count = len(keys)
        with self.lock:
            self.delivered += count
            self.flushes += 1
            if route is None:
                self.fallback += count
            pick = (self.flushes * 40503 + self.seed) % count
            self.samples.append((route, keys[pick], values[pick]))
            self.samples.append((route, keys[-1], values[-1]))
            if self.timed:
                self.busy_ns += now_ns() - started


def mixed_keys(rng, pools, unrouted, count: int) -> List[bytes]:
    keys = []
    for _ in range(count):
        if rng.random() < UNROUTED_SHARE:
            keys.append(rng.choice(unrouted))
        else:
            keys.append(rng.choice(pools[rng.choice(SERVE_FORMATS)]))
    return keys


class Producers:
    """The stream phase's two closed-loop producers: the calling thread
    and one worker, each bound to its own shard for the whole run."""

    def __init__(self, service: HashService, traffic: List[List[bytes]]):
        self.service = service
        self.traffic = traffic
        self.start = threading.Barrier(2, timeout=120)
        self.done = threading.Barrier(2, timeout=120)
        self.stopping = False
        self.error: Optional[BaseException] = None
        self.submit = service.submitter()  # binds this thread first
        self.worker = threading.Thread(
            target=self._work, name="perfbench-producer", daemon=True
        )
        self.worker.start()

    def _work(self) -> None:
        submit = self.service.submitter()
        while True:
            self.start.wait()
            if self.stopping:
                return
            try:
                for key in self.traffic[1]:
                    submit(key)
            except Exception as exc:  # reported by the main thread
                self.error = exc
            self.done.wait()

    def stream_pass(self) -> int:
        """One pass of both producers plus the final flush; returns ns."""
        submit = self.submit
        self.start.wait()
        started = now_ns()
        for key in self.traffic[0]:
            submit(key)
        self.done.wait()
        self.service.flush()
        return now_ns() - started

    def close(self) -> None:
        self.stopping = True
        try:
            self.start.wait()
        except threading.BrokenBarrierError:
            pass
        self.worker.join(timeout=60)
        if self.worker.is_alive():
            raise RuntimeError("producer thread did not stop")


def serve_setup(seed, examples, tracer: Tracer, synth: Repeats, timed_sink):
    """One cold set-up: probe the toolchain, then synthesize and
    register the three routes (registration JIT-compiles each)."""
    detect_toolchain(refresh=True)
    get_compile_cache().clear()
    sink = Sink(seed, timed_sink)
    service = HashService(shards=2, sink=sink)
    for name in SERVE_FORMATS:
        started = now_ns()
        synthesized = synthesize_plan(examples[name], HashFamily.PEXT, tracer, name)
        synth.offer(name, now_ns() - started)
        with tracer.span("serve.register", name):
            service.register(synthesized, label=name)
    return service, sink


def request_pass(service, singles, batches, blocks, histograms):
    """The closed-loop client: per block, 64 ``hash()`` calls then one
    64-key ``hash_many()``.  Offers each block's ``hash()`` latencies to
    ``blocks`` and, when traced, every latency to the (single, batch)
    ``histograms``.  Returns (ns spent, results in order: every single
    result, then every batch result)."""
    hash_one, hash_many = service.hash, service.hash_many
    single_ns, batch_ns = array("q"), array("q")
    singles_out: List[int] = []
    batches_out: List[List[int]] = []
    started_pass = now_ns()
    for block, batch in enumerate(batches):
        block_ns = array("q")
        for key in singles[block * BLOCK:(block + 1) * BLOCK]:
            started = now_ns()
            value = hash_one(key)
            block_ns.append(now_ns() - started)
            singles_out.append(value)
        blocks.offer(block, sum(block_ns), np.frombuffer(block_ns, np.int64))
        single_ns.extend(block_ns)
        started = now_ns()
        values = hash_many(batch)
        batch_ns.append(now_ns() - started)
        batches_out.append(values)
    elapsed = now_ns() - started_pass
    if histograms is not None:
        histograms[0].add(single_ns)
        histograms[1].add(batch_ns)
    return elapsed, singles_out + batches_out


def per_key_ns(function, keys: Sequence[bytes]) -> float:
    started = now_ns()
    for key in keys:
        function(key)
    return (now_ns() - started) / len(keys)


def serve_mix(ctx: Context) -> Outcome:
    """HashService with three routes: buffered stream writes from two
    producers, then synchronous hash() / hash_many() requests."""
    tracer, tally, seed = ctx.tracer, ctx.tally, ctx.seed
    examples = {name: examples_for(seed, name) for name in SERVE_FORMATS}
    pools = {
        name: uniform_pool(seed, name, "pool", SERVE_POOL)
        for name in SERVE_FORMATS
    }
    unrouted = uniform_pool(seed, UNROUTED_FORMAT, "pool", 512)
    traffic = [
        mixed_keys(rng_for(seed, "stream", lane), pools, unrouted, STREAM_KEYS)
        for lane in range(2)
    ]
    singles = mixed_keys(rng_for(seed, "requests"), pools, unrouted, REQUEST_BLOCKS * BLOCK)
    batches = [
        mixed_keys(rng_for(seed, "batch", index), pools, unrouted, BLOCK)
        for index in range(REQUEST_BLOCKS)
    ]
    settle()

    synth = Repeats()
    setup_ns = []
    for _ in range(SETUP_REPS):
        started = now_ns()
        service, sink = serve_setup(seed, examples, tracer, synth, tracer.enabled)
        setup_ns.append(now_ns() - started)
    routes = service.table.routes
    native_routes = sum(1 for route in routes if route.native)
    degraded = None
    if native_routes != len(SERVE_FORMATS):
        degraded = f"only {native_routes} of {len(SERVE_FORMATS)} routes are native"

    expected: Dict[bytes, int] = {key: stl_hash_bytes(key) for key in unrouted}
    for route, name in zip(routes, SERVE_FORMATS):
        expected.update(zip(pools[name], reference(route.synthesized, pools[name])))
    expected_singles = [expected[key] for key in singles]
    expected_batches = [[expected[key] for key in batch] for batch in batches]

    settle()
    producers = Producers(service, traffic)
    stream_ns = passes = measured = 0
    # Latency histograms feed only per-layer tails; 8 MB each, so they
    # exist only in the traced run and stay out of peak_rss_mb.
    histograms = (Histogram(), Histogram()) if tracer.enabled else None
    blocks = Repeats()
    try:
        while measured < ctx.seconds * 1e9:
            submitted = 2 * STREAM_KEYS
            with tracer.span("serve.stream_pass", f"pass{passes}"):
                before = sink.delivered
                stream_elapsed = producers.stream_pass()
            if producers.error is not None:
                raise producers.error
            stream_ns += stream_elapsed
            tally.ops(submitted)
            tally.fail(submitted - (sink.delivered - before), "stream keys lost")
            samples, sink.samples = sink.samples, []
            tally.fail(
                sum(
                    (route is None) == (len(key) in service.table.fast)
                    or int(value) != expected[key]
                    for route, key, value in samples
                ),
                "stream values wrong at the sink",
            )
            with tracer.span("serve.request_pass", f"pass{passes}"):
                request_elapsed, results = request_pass(
                    service, singles, batches, blocks, histograms
                )
            measured += stream_elapsed + request_elapsed
            tally.ops(len(singles) + len(batches))
            tally.fail(
                wrong_count(results[:len(singles)], expected_singles),
                "hash() results wrong",
            )
            tally.fail(
                sum(
                    wrong_count(got, want) > 0
                    for got, want in zip(results[len(singles):], expected_batches)
                ),
                "hash_many() batches wrong",
            )
            # A route's format is synthesized again from an empty cache
            # (not installed), so synth_ms_p50 samples the whole run and
            # not only the set-up.
            name = SERVE_FORMATS[passes % len(SERVE_FORMATS)]
            gc.collect()
            get_compile_cache().clear()
            started = now_ns()
            synthesize_plan(examples[name], HashFamily.PEXT, tracer, f"{name}@{passes}")
            synth.offer(name, now_ns() - started)
            passes += 1
    finally:
        producers.close()
    stats = service.stats()
    tally.fail(stats["pending"], "keys still pending after flush")

    e2e = {
        "setup_s": ctx.import_s + median(setup_ns) / 1e9,
        "synth_ms_p50": synth.median_ms(),
        "ops_per_s": 2 * STREAM_KEYS * passes / (stream_ns / 1e9),
        "op_us_p50": median(np.concatenate(list(blocks.fastest_payload.values()))) / 1e3,
        "bucket_collisions": sum(
            fill_collisions(route.scalar, pools[name])
            for route, name in zip(routes, SERVE_FORMATS)
        ),
    }
    facts = {"routes_native": native_routes, "stream_passes": passes}
    layers = {}
    if tracer.enabled:
        layers = synthesis_layers(tracer)
        layers.update(serve_layers(service, traffic[0], singles, batches))
        layers.update(
            {
                "stream.flushes": sink.flushes / passes,
                "stream.keys_per_flush": sink.delivered / sink.flushes,
                "stream.fallback_keys": sink.fallback / passes,
                "stream.sink_ns_per_key": sink.busy_ns / sink.delivered,
                "request.us_p99": histograms[0].percentile_ns(99) / 1e3,
                "batch.us_p50": histograms[1].percentile_ns(50) / 1e3,
                "batch.us_p99": histograms[1].percentile_ns(99) / 1e3,
                "serve.hashed": stats["hashed"],
                "serve.fallback": stats["fallback"],
                "serve.pending": stats["pending"],
                "routes.native": native_routes,
            }
        )
        stream_ns_per_key = stream_ns / sink.delivered
        layers["stream.framework_ns_per_key"] = (
            stream_ns_per_key
            - layers["kernel.array_ns_per_key"]
            - layers["stream.sink_ns_per_key"]
        )
    return Outcome(e2e, layers, facts, degraded)


def serve_layers(service, stream_keys, singles, batches) -> Dict[str, float]:
    """Per-layer timings of the serve stack, each layer called directly
    on the workload's own keys after the timed passes."""
    table = service.table
    resolve_ns = per_key_ns(table.resolve, stream_keys)
    by_route: Dict[str, List[bytes]] = {}
    for key in stream_keys:
        route = table.resolve(key)
        if route is not None:
            by_route.setdefault(route.route_id, []).append(key)
    kernel = {"array": 0, "list": 0, "numpy": 0}
    kernel_keys = 0
    for route in table.routes:
        keys = by_route.get(route.route_id, [])
        module = route.synthesized.native_module
        for first in range(0, len(keys) - 1023, 1024):
            batch = keys[first:first + 1024]
            for tier, function in (
                ("array", module.hash_many_array),
                ("list", module.hash_many),
                ("numpy", route.synthesized.hash_many),
            ):
                started = now_ns()
                function(batch)
                kernel[tier] += now_ns() - started
            kernel_keys += len(batch)
    routed = [key for key in singles if table.resolve(key) is not None]
    closure = native = service_ns = 0.0
    for route in table.routes:
        keys = [key for key in routed if table.resolve(key) is route]
        share = len(keys) / len(routed)
        closure += share * per_key_ns(route.synthesized.function, keys)
        tier_ns = per_key_ns(route.scalar, keys)
        native += share * tier_ns
        service_ns += share * (per_key_ns(service.hash, keys) - tier_ns)
    started = now_ns()
    for batch in batches:
        service.hash_many(batch)
    batch_ns = (now_ns() - started) / (len(batches) * BLOCK)
    return {
        "route.resolve_ns": resolve_ns,
        "kernel.array_ns_per_key": kernel["array"] / kernel_keys,
        "kernel.list_ns_per_key": kernel["list"] / kernel_keys,
        "numpy.batch_ns_per_key": kernel["numpy"] / kernel_keys,
        "scalar.closure_ns": closure,
        "scalar.native_ns": native,
        "scalar.fallback_ns": per_key_ns(stl_hash_bytes, singles),
        "scalar.service_overhead_ns": service_ns,
        "batch.service_ns_per_key": batch_ns,
    }


# -- table_mix ---------------------------------------------------------------

TABLE_FORMATS = ("SSN", "MAC", "URL2")
TABLE_SPREAD = 10_000
AFFECTATIONS = 10_000
MIX = (0.6, 0.2)  # insert, find; erase gets the rest
INSERT, FIND, ERASE = 0, 1, 2
POOL_CHECK_KEYS = 64
CHUNK = 500
"""Affectations per timed unit: the schedule is fixed, so a container
does the same work in each 500-op stretch on every pass, and each
stretch reports the median over passes of its time and of its median
affectation latency."""
RESYNTHESES_PER_PASS = 4


def affectation_schedule(rng, pool: List[bytes]) -> List[Tuple[int, bytes, int]]:
    """The paper's interweaved mode: the first half inserts, the rest
    draws insert/find/erase at 0.6/0.2/0.2; keys with replacement."""
    schedule = []
    for position in range(AFFECTATIONS):
        index = rng.randrange(len(pool))
        if position < AFFECTATIONS // 2:
            op = INSERT
        else:
            roll = rng.random()
            op = INSERT if roll < MIX[0] else FIND if roll < sum(MIX) else ERASE
        schedule.append((op, pool[index], index))
    return schedule


def replay(schedule) -> Tuple[List[Optional[int]], Dict[bytes, int]]:
    """The container oracle: the same schedule replayed on a dict."""
    contents: Dict[bytes, int] = {}
    found: List[Optional[int]] = []
    for op, key, value in schedule:
        if op == INSERT:
            contents.setdefault(key, value)
        elif op == FIND:
            found.append(contents.get(key))
        else:
            contents.pop(key, None)
    return found, contents


def run_schedule(table, schedule, latencies: array) -> List[Optional[int]]:
    insert, find, erase = table.insert, table.find, table.erase
    found = []
    record = latencies.append
    previous = now_ns()
    for op, key, value in schedule:
        if op == INSERT:
            insert(key, value)
        elif op == FIND:
            found.append(find(key))
        else:
            erase(key)
        current = now_ns()
        record(current - previous)
        previous = current
    return found


def timed_hash(function, spent: List[int]):
    """The traced run's container hash: the same callable, timed."""

    def hash_key(key):
        started = now_ns()
        value = function(key)
        spent[0] += now_ns() - started
        return value

    return hash_key


def table_mix(ctx: Context) -> Outcome:
    """Affectations on UnorderedMap with the SynthesizedHash as its hash,
    over SSN/MAC/URL2 x 4 families (the paper's B-Time mix)."""
    tracer, tally, seed = ctx.tracer, ctx.tally, ctx.seed
    examples = {name: examples_for(seed, name) for name in TABLE_FORMATS}
    pools, schedules, expected, op_codes = {}, {}, {}, {}
    for name in TABLE_FORMATS:
        generator = KeyGenerator(
            name, Distribution.NORMAL, seed=subseed(seed, "pool", name)
        )
        pools[name] = generator.distinct_pool(TABLE_SPREAD)
        schedules[name] = affectation_schedule(
            rng_for(seed, "schedule", name), pools[name]
        )
        expected[name] = replay(schedules[name])
        op_codes[name] = np.fromiter((op for op, _, _ in schedules[name]), np.int8)
    cells = [(name, family) for name in TABLE_FORMATS for family in HashFamily]
    settle()

    synth = Repeats()
    setup_ns = []
    for rep in range(SETUP_REPS):
        started = now_ns()
        get_compile_cache().clear()
        hashes = {}
        for name, family in cells:
            begun = now_ns()
            hashes[(name, family)] = synthesize_plan(
                examples[name], family, tracer, f"{name}/{family.value}#{rep}"
            )
            synth.offer((name, family), now_ns() - begun)
        setup_ns.append(now_ns() - started)

    check_keys = {
        name: rng_for(seed, "pool-check", name).sample(pools[name], POOL_CHECK_KEYS)
        for name in TABLE_FORMATS
    }

    def check_pool(cell, synthesized) -> None:
        keys = check_keys[cell[0]]
        tally.ops(1)
        if wrong_count([synthesized(key) for key in keys], reference(synthesized, keys)):
            tally.fail(1, f"{cell[0]}/{cell[1].value} pool hashes disagree with the interpreter")

    for cell, synthesized in hashes.items():
        check_pool(cell, synthesized)

    if tracer.enabled:  # per-layer only; see serve_mix
        every = Histogram()
        by_op = {op: Histogram() for op in (INSERT, FIND, ERASE)}
    hash_spent = {cell: [0] for cell in cells}
    quality: Dict[Tuple[str, HashFamily], Tuple[int, int, int, int]] = {}
    elapsed_ns = ops = passes = 0
    stretches, latency = Repeats(), Repeats()
    while True:
        # Some cells' hashes are re-synthesized cold per pass and used from
        # then on (same plan, so the same function), so that synth_ms_p50
        # samples the whole run and not only the set-up.
        gc.collect()
        get_compile_cache().clear()
        first = passes * RESYNTHESES_PER_PASS
        for index in range(first, first + RESYNTHESES_PER_PASS):
            name, family = cell = cells[index % len(cells)]
            begun = now_ns()
            hashes[cell] = synthesize_plan(
                examples[name], family, tracer, f"{name}/{family.value}@{passes}"
            )
            synth.offer(cell, now_ns() - begun)
            check_pool(cell, hashes[cell])
        pass_spent = []
        with tracer.span("containers.pass", f"pass{passes}"):
            for cell in cells:
                name, family = cell
                function = hashes[cell]
                if tracer.enabled:
                    function = timed_hash(function, hash_spent[cell])
                table = UnorderedMap(function)
                spent = array("q")
                found = run_schedule(table, schedules[name], spent)
                spent_np = np.frombuffer(spent, dtype=np.int64)
                elapsed_ns += int(spent_np.sum())
                for start in range(0, len(spent_np), CHUNK):
                    piece = spent_np[start:start + CHUNK]
                    stretches.offer((cell, start), int(piece.sum()))
                    latency.offer((cell, start), int(np.median(piece)))
                pass_spent.append(spent_np)
                ops += len(schedules[name])
                tally.ops(len(schedules[name]))
                want_found, want_contents = expected[name]
                tally.fail(wrong_count(found, want_found), "find() results wrong")
                if dict(table.items()) != want_contents:
                    tally.fail(1, f"{name}/{family.value} final contents wrong")
                if passes == 0:
                    quality[cell] = (
                        table.bucket_collisions(),
                        table.bucket_count,
                        max(table.bucket_sizes()),
                        table.true_collisions(),
                    )
                if tracer.enabled:
                    for op, histogram in by_op.items():
                        histogram.add(spent_np[op_codes[name] == op])
        if tracer.enabled:
            every.add(np.concatenate(pass_spent))
        passes += 1
        if elapsed_ns >= ctx.seconds * 1e9:
            break

    e2e = {
        "setup_s": ctx.import_s + median(setup_ns) / 1e9,
        "synth_ms_p50": synth.median_ms(),
        "ops_per_s": AFFECTATIONS * len(cells) / (stretches.total_ms() / 1e3),
        "op_us_p50": latency.median_ms() * 1e3,
        "bucket_collisions": sum(q[0] for q in quality.values()),
    }
    layers = {}
    if tracer.enabled:
        layers = synthesis_layers(tracer)
        hash_ns = sum(spent[0] for spent in hash_spent.values())
        op_ns = elapsed_ns / ops
        layers.update(
            {
                "table.hash_ns_per_op": hash_ns / ops,
                "table.container_ns_per_op": op_ns - hash_ns / ops,
                "table.insert_ns": by_op[INSERT].percentile_ns(50),
                "table.find_ns": by_op[FIND].percentile_ns(50),
                "table.erase_ns": by_op[ERASE].percentile_ns(50),
                "table.op_us_p99": every.percentile_ns(99) / 1e3,
                "table.bucket_count": sum(q[1] for q in quality.values()),
                "table.max_bucket": max(q[2] for q in quality.values()),
                "table.true_collisions": sum(q[3] for q in quality.values()),
            }
        )
        closure = []
        for (name, family), synthesized in hashes.items():
            closure.append(per_key_ns(synthesized.function, pools[name]))
        layers["scalar.closure_ns"] = sum(closure) / len(closure)
        for family in HashFamily:
            family_cells = [cell for cell in cells if cell[1] is family]
            per_cell_ops = passes * AFFECTATIONS * len(family_cells)
            layers[f"table.hash_ns_per_op.{family.value}"] = (
                sum(hash_spent[cell][0] for cell in family_cells) / per_cell_ops
            )
            layers[f"bucket_collisions.{family.value}"] = sum(
                quality[cell][0] for cell in family_cells
            )
    return Outcome(e2e, layers, {}, None)


WORKLOADS = {
    "synth_cold": synth_cold,
    "serve_mix": serve_mix,
    "table_mix": table_mix,
}
