"""Multi-format dispatch: one hash callable serving several formats.

Real applications rarely hash a single key format: a request router sees
session ids *and* resource paths; a network controller sees MAC *and*
IPv6 strings.  The paper's Figure 2 shows the handwritten version of
the answer — Polymur branches on key length before hashing — and SEPE
itself falls back to the standard hash for sub-word keys (footnote 5).

:class:`FormatDispatcher` automates that pattern over synthesized
functions: each registered format gets a specialized hash; at call time
the dispatcher routes by key length first (an O(1) dict probe, since
SEPE formats are fixed-length) and by template match when lengths
collide; anything unrecognized goes to the general-purpose fallback.
The common fast path — unique length, no verification — costs one dict
lookup over calling the specialized function directly.
"""

from __future__ import annotations

import os
import threading
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as _np

from repro.core.fast_infer import ENGINE_AUTO
from repro.core.inference import (
    KeyLike,
    infer_pattern,
    infer_pattern_parallel,
)
from repro.core.pattern import KeyPattern
from repro.core.plan import HashFamily
from repro.core.synthesis import SynthesizedHash, synthesize
from repro.errors import SynthesisError
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.obs.metrics import (
    NS_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)

HashCallable = Callable[[bytes], int]

FormatSource = Union[str, KeyPattern, SynthesizedHash]

_Entry = Tuple[
    KeyPattern,
    HashCallable,
    Counter,
    SynthesizedHash,
    Optional[Histogram],
]


class FormatDispatcher:
    """Route keys to format-specialized hashes, falling back when unsure.

    Every routing decision is counted: each registered format owns a
    route counter and misses land on a fallback counter, all held in a
    :class:`repro.obs.metrics.MetricsRegistry` (a private one by
    default, so two dispatchers never share counts).  A counter bump is
    one integer add, so the fast path stays one dict probe plus one add.
    :meth:`stats` snapshots the traffic split.

    Args:
        fallback: general-purpose hash for unrecognized keys (defaults to
            the STL murmur port, matching SEPE's own fallback rule).
        verify: when True, even a unique-length match is template-checked
            before the specialized function runs; non-conforming keys go
            to the fallback.  Off by default — the paper's functions also
            assume conforming input (footnote 3's "assume you do not need
            to assert key format").
        registry: metrics registry holding the route counters; pass a
            shared registry to aggregate several dispatchers.
        latency: when True, every hashed key (and every ``hash_many``
            group) is timed into a per-route nanosecond histogram
            (``dispatch.latency_ns.<label>``, exponential
            :data:`~repro.obs.metrics.NS_LATENCY_BUCKETS` edges) — the
            scrape surface the metric exporters publish.  Off by
            default: the untimed fast path stays one dict probe plus
            one counter add.
        prefer_native: when True, registration eagerly JIT-compiles each
            format's emitted C++ (through the compile cache) and routes
            scalar calls and ``hash_many`` groups to the native entry
            points; formats whose native tier degrades (no compiler,
            unsupported ISA) silently keep the Python/NumPy path, so the
            dispatcher works identically on hosts without a toolchain.
            Defaults to the ``SEPE_NATIVE_DISPATCH=1`` environment
            toggle (off otherwise).
    """

    def __init__(
        self,
        fallback: HashCallable = stl_hash_bytes,
        verify: bool = False,
        registry: Optional[MetricsRegistry] = None,
        latency: bool = False,
        prefer_native: Optional[bool] = None,
    ):
        if prefer_native is None:
            prefer_native = (
                os.environ.get("SEPE_NATIVE_DISPATCH", "") == "1"
            )
        self._prefer_native = bool(prefer_native)
        self._fallback = fallback
        self._verify = verify
        self._by_length: Dict[int, List[_Entry]] = {}
        self._variable: List[_Entry] = []
        self._registry = registry if registry is not None else MetricsRegistry()
        self._fallback_counter = self._registry.counter("dispatch.fallback")
        self._requests = self._registry.counter("dispatch.requests_total")
        self._native_formats = self._registry.counter(
            "dispatch.native_formats"
        )
        self._latency = latency
        self._fallback_latency: Optional[Histogram] = (
            self._registry.histogram(
                "dispatch.latency_ns.fallback", NS_LATENCY_BUCKETS
            )
            if latency
            else None
        )
        self._started_monotonic = time.monotonic()
        self._labels: List[str] = []
        # Resolved-route cache: key length -> entry, for lengths where
        # resolution is unambiguous (one candidate, no verification).
        # Saves the candidate-list walk on every call; invalidated on
        # registration.
        self._route_cache: Dict[int, _Entry] = {}
        # Guards the registration structures against concurrent
        # register()/stats()/describe() — NOT taken on the hashing hot
        # path, which reads dicts that mutate only under this lock.
        # Contention is observable: a blocked acquisition first fails a
        # non-blocking attempt and counts a lock-wait event.
        self._state_lock = threading.Lock()
        self._lock_waits = self._registry.counter("dispatch.lock_waits")

    # -- registration --------------------------------------------------

    def _acquire_state_lock(self) -> None:
        """Take the state lock, counting the wait when it was held."""
        if self._state_lock.acquire(blocking=False):
            return
        self._lock_waits.inc()
        self._state_lock.acquire()

    def register(
        self,
        source: FormatSource,
        family: HashFamily = HashFamily.PEXT,
    ) -> SynthesizedHash:
        """Register a format; synthesizes unless given a SynthesizedHash.

        Returns the synthesized function so callers can inspect it.

        Raises:
            SynthesisError: propagated from synthesis for unsupported
                formats (e.g. sub-word keys — register those under the
                fallback instead, which is what SEPE itself does).
        """
        if isinstance(source, SynthesizedHash):
            synthesized = source
        else:
            synthesized = synthesize(source, family)
        pattern = synthesized.pattern
        function = synthesized.function
        if self._prefer_native:
            # Compile eagerly so the first routed key never pays JIT
            # latency; degradation leaves the Python callable in place.
            # Kept outside the state lock: a JIT compile must not stall
            # concurrent stats() readers.
            native_scalar = synthesized.native_function
            if native_scalar is not None:
                function = native_scalar
                self._native_formats.inc()
        self._acquire_state_lock()
        try:
            label = (
                synthesized.plan.pattern_regex
                or f"format-{len(self._labels)}"
            )
            counter = self._registry.counter(f"dispatch.route.{label}")
            histogram = (
                self._registry.histogram(
                    f"dispatch.latency_ns.{label}", NS_LATENCY_BUCKETS
                )
                if self._latency
                else None
            )
            self._labels.append(label)
            entry = (pattern, function, counter, synthesized, histogram)
            if pattern.is_fixed_length:
                self._by_length.setdefault(
                    pattern.body_length, []
                ).append(entry)
            else:
                self._variable.append(entry)
            self._route_cache.clear()
        finally:
            self._state_lock.release()
        return synthesized

    def register_examples(
        self,
        keys: Iterable[KeyLike],
        family: HashFamily = HashFamily.PEXT,
        engine: str = ENGINE_AUTO,
        jobs: Optional[int] = None,
    ) -> SynthesizedHash:
        """Register a format learned from example keys (Figure 5a, inline).

        The format is inferred through the bitwise-parallel engine of
        :mod:`repro.core.fast_infer` — pass ``jobs > 1`` to shard the
        join across processes for very large corpora — then registered
        like any other source.  This is the production registration
        path: hand the dispatcher a key sample, get routed hashing.

        Raises:
            EmptyKeySetError: when ``keys`` is empty.
            SynthesisError: propagated from synthesis.
        """
        if jobs is not None and jobs > 1:
            pattern = infer_pattern_parallel(keys, jobs=jobs)
        else:
            pattern = infer_pattern(keys, engine=engine)
        return self.register(pattern, family=family)

    @property
    def format_count(self) -> int:
        """Number of registered formats."""
        return sum(len(v) for v in self._by_length.values()) + len(
            self._variable
        )

    # -- dispatch --------------------------------------------------------

    def _resolve(self, key: bytes) -> Optional[_Entry]:
        """Find the entry for ``key`` without touching any counter.

        Caches the resolution by key length when it is unambiguous (one
        fixed-length candidate, verification off) so steady-state calls
        skip the candidate walk — the compiled callable is re-used, not
        re-resolved, per call.
        """
        length = len(key)
        entry = self._route_cache.get(length)
        if entry is not None:
            return entry
        candidates = self._by_length.get(length)
        if candidates:
            if len(candidates) == 1 and not self._verify:
                entry = candidates[0]
                self._route_cache[length] = entry
                return entry
            for entry in candidates:
                if entry[0].matches(key):
                    return entry
        for entry in self._variable:
            if entry[0].matches(key):
                return entry
        return None

    def route(self, key: bytes) -> HashCallable:
        """The function that would hash ``key`` (for inspection/tests)."""
        self._requests.inc()
        entry = self._resolve(key)
        if entry is None:
            self._fallback_counter.inc()
            return self._fallback
        entry[2].inc()
        return entry[1]

    def __call__(self, key: bytes) -> int:
        if not self._latency:
            return self.route(key)(key)
        function = self.route(key)
        started = time.perf_counter_ns()
        value = function(key)
        self._observe_latency(key, time.perf_counter_ns() - started)
        return value

    def _observe_latency(self, key: bytes, elapsed_ns: float) -> None:
        """Record one latency observation on the route that served ``key``.

        Called right after :meth:`route`, so ``_resolve`` hits the route
        cache and costs one dict probe; the fallback owns its own
        histogram.
        """
        entry = self._resolve(key)
        histogram = entry[4] if entry is not None else self._fallback_latency
        if histogram is not None:
            histogram.observe(elapsed_ns)

    def _group_hash_many(
        self, entry: _Entry, grouped_keys: List[bytes]
    ) -> List[int]:
        """One group through the fastest batch tier this entry has."""
        if self._prefer_native:
            native = entry[3].native_batch_function
            if native is not None:
                return native(grouped_keys)
        return entry[3].hash_many(grouped_keys)

    def _homogeneous_entry(self, keys: Sequence[bytes]) -> Optional[_Entry]:
        """The single entry serving every key of the batch, or None.

        Only lengths in the resolved-route cache qualify — exactly the
        lengths where per-key resolution is length-only (one candidate,
        verification off) — so taking the batch shortcut routes each
        key to the same entry the per-key walk would have picked.
        """
        if not keys:
            return None
        length = len(keys[0])
        entry = self._route_cache.get(length)
        if entry is None:
            self._resolve(keys[0])  # may populate the cache
            entry = self._route_cache.get(length)
            if entry is None:
                return None
        for key in keys:
            if len(key) != length:
                return None
        return entry

    def hash_many(self, keys: Sequence[bytes]) -> List[int]:
        """Hash a batch of keys, routing once per group, not per key.

        Keys are grouped by resolved format; each group is hashed by one
        call to that format's batch kernel (compiled lazily through the
        compile cache), so per-key dispatch and function-call overhead
        is paid once per *group*.  Unrecognized keys go through the
        scalar fallback.  Results are positionally aligned with
        ``keys``, and route/fallback counters advance by group sizes
        exactly as per-key routing would.

        Contiguous same-length batches on an unambiguous route skip
        per-key resolution and the index scatter entirely: one length
        sweep, then one batch-kernel call (the native ``hash_many``
        when the format has it) — the grouped-traffic fast path that
        recovers most of the native tier's margin over per-key routing.
        """
        entry = self._homogeneous_entry(keys)
        if entry is not None:
            count = len(keys)
            self._requests.inc(count)
            entry[2].inc(count)
            grouped = keys if isinstance(keys, list) else list(keys)
            if self._latency and entry[4] is not None:
                started = time.perf_counter_ns()
                values = self._group_hash_many(entry, grouped)
                per_key_ns = (
                    time.perf_counter_ns() - started
                ) / count
                histogram = entry[4]
                for _ in range(count):
                    histogram.observe(per_key_ns)
            else:
                values = self._group_hash_many(entry, grouped)
            return values
        out: List[int] = [0] * len(keys)
        self._requests.inc(len(keys))
        groups: Dict[int, Tuple[_Entry, List[int], List[bytes]]] = {}
        fallback_indices: List[int] = []
        fallback_keys: List[bytes] = []
        for index, key in enumerate(keys):
            entry = self._resolve(key)
            if entry is None:
                fallback_indices.append(index)
                fallback_keys.append(key)
                continue
            group = groups.get(id(entry))
            if group is None:
                groups[id(entry)] = (entry, [index], [key])
            else:
                group[1].append(index)
                group[2].append(key)
        for entry, indices, grouped_keys in groups.values():
            entry[2].inc(len(indices))
            if self._latency and entry[4] is not None:
                started = time.perf_counter_ns()
                values = self._group_hash_many(entry, grouped_keys)
                per_key_ns = (time.perf_counter_ns() - started) / len(
                    grouped_keys
                )
                for _ in indices:
                    entry[4].observe(per_key_ns)
            else:
                values = self._group_hash_many(entry, grouped_keys)
            for index, value in zip(indices, values):
                out[index] = value
        if fallback_indices:
            self._fallback_counter.inc(len(fallback_indices))
            fallback = self._fallback
            fallback_latency = self._fallback_latency if self._latency else None
            for index, key in zip(fallback_indices, fallback_keys):
                if fallback_latency is not None:
                    started = time.perf_counter_ns()
                    out[index] = fallback(key)
                    fallback_latency.observe(time.perf_counter_ns() - started)
                else:
                    out[index] = fallback(key)
        return out

    def hash_many_array(self, keys: Sequence[bytes]):
        """Hash a batch into a NumPy uint64 array (the fastest tier).

        A contiguous same-length batch served by one native-backed
        route goes straight through the module's ``hash_many_array``
        entry point — no per-key resolution, no ``tolist`` boxing
        (the single largest cost of the list contract, ~36 vs ~16
        ns/key on the reference container).  Heterogeneous batches and
        non-native routes fall back to :meth:`hash_many` plus one array
        conversion, so callers can use this unconditionally.
        """
        entry = self._homogeneous_entry(keys)
        if entry is not None and self._prefer_native:
            module = entry[3].native_module
            if module is not None:
                count = len(keys)
                self._requests.inc(count)
                entry[2].inc(count)
                grouped = keys if isinstance(keys, list) else list(keys)
                if self._latency and entry[4] is not None:
                    started = time.perf_counter_ns()
                    values = module.hash_many_array(grouped)
                    per_key_ns = (
                        time.perf_counter_ns() - started
                    ) / count
                    histogram = entry[4]
                    for _ in range(count):
                        histogram.observe(per_key_ns)
                    return values
                return module.hash_many_array(grouped)
        return _np.asarray(self.hash_many(keys), dtype=_np.uint64)

    # -- introspection -----------------------------------------------------

    def describe(self) -> List[str]:
        """Human-readable routing table, one line per registered format."""
        from repro.core.regex_render import render_regex

        self._acquire_state_lock()
        try:
            fixed = [
                (length, entry[0])
                for length in sorted(self._by_length)
                for entry in self._by_length[length]
            ]
            variable = [entry[0] for entry in self._variable]
        finally:
            self._state_lock.release()
        lines = [
            f"len {length:4d}: {render_regex(pattern)}"
            for length, pattern in fixed
        ]
        for pattern in variable:
            lines.append(
                f"len {pattern.min_length}+  : {render_regex(pattern)}"
            )
        lines.append("otherwise  : fallback")
        return lines

    def stats(self) -> Dict[str, object]:
        """Per-format registration and route counts, plus fallback traffic.

        Returns a plain dict::

            {
              "registered": 3,
              "total_routes": 120,
              "fallback_routes": 7,
              "formats": [
                {"regex": ..., "length": 11, "routes": 64},
                {"regex": ..., "length": None, "routes": 49},
              ],
            }

        ``length`` is None for variable-length formats.  Counts include
        every routing decision, whether made via :meth:`route` directly
        or through ``__call__``.  The snapshot also carries
        ``elapsed_seconds`` since construction and the implied ``qps``;
        with ``latency=True`` each format (and the fallback) adds a
        ``latency`` summary (observation ``count`` and ``mean_ns``) from
        its histogram.

        The whole snapshot is taken in one critical section — entry
        list and every counter value read back to back under the state
        lock — so concurrent registrations cannot interleave a
        half-visible format, and ``total_routes`` is the sum of exactly
        the per-format counts reported beside it.  Formatting (regex
        rendering) happens after release; waits on the lock are counted
        in ``dispatch.lock_waits``.
        """
        self._acquire_state_lock()
        try:
            entries: List[Tuple[_Entry, Optional[int]]] = [
                (entry, length)
                for length in sorted(self._by_length)
                for entry in self._by_length[length]
            ]
            entries.extend((entry, None) for entry in self._variable)
            counts = [entry[2].value for entry, _length in entries]
            fallback_routes = self._fallback_counter.value
            native_formats = self._native_formats.value
        finally:
            self._state_lock.release()
        formats = [
            self._format_stats(entry, length, routes)
            for (entry, length), routes in zip(entries, counts)
        ]
        total = sum(counts)
        stats: Dict[str, object] = {
            "registered": len(entries),
            "total_routes": total + fallback_routes,
            "fallback_routes": fallback_routes,
            "formats": formats,
            "prefer_native": self._prefer_native,
            "native_formats": native_formats,
        }
        elapsed = time.monotonic() - self._started_monotonic
        stats["elapsed_seconds"] = elapsed
        stats["qps"] = (
            (total + fallback_routes) / elapsed if elapsed > 0 else 0.0
        )
        if self._latency and self._fallback_latency is not None:
            histogram = self._fallback_latency
            stats["fallback_latency"] = {
                "count": histogram.count,
                "mean_ns": histogram.mean,
            }
        return stats

    @staticmethod
    def _format_stats(
        entry: _Entry, length: Optional[int], routes: int
    ) -> Dict[str, object]:
        from repro.core.regex_render import render_regex

        record: Dict[str, object] = {
            "regex": render_regex(entry[0]),
            "length": length,
            "routes": routes,
            # True only when the native module is already loaded — this
            # must never trigger a compile from a stats snapshot.
            "native": entry[3]._native_state == "loaded",
        }
        histogram = entry[4]
        if histogram is not None:
            record["latency"] = {
                "count": histogram.count,
                "mean_ns": histogram.mean,
            }
        return record


def build_dispatcher(
    formats: Sequence[str],
    family: HashFamily = HashFamily.PEXT,
    fallback: HashCallable = stl_hash_bytes,
    verify: bool = False,
) -> FormatDispatcher:
    """Convenience: dispatcher over several format regexes at once."""
    dispatcher = FormatDispatcher(fallback=fallback, verify=verify)
    for regex in formats:
        dispatcher.register(regex, family=family)
    return dispatcher
