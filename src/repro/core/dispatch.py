"""Multi-format dispatch: one hash callable serving several formats.

Real applications rarely hash a single key format: a request router sees
session ids *and* resource paths; a network controller sees MAC *and*
IPv6 strings.  The paper's Figure 2 shows the handwritten version of
the answer — Polymur branches on key length before hashing — and SEPE
itself falls back to the standard hash for sub-word keys (footnote 5).

:class:`FormatDispatcher` automates that pattern over synthesized
functions.  It is a single-lane view over the serve layer's routing
objects: each registered format becomes a
:class:`~repro.serve.routes.RouteState` (its scalar and batch tiers
chosen once, at registration) in an immutable
:class:`~repro.serve.routes.RouteTable`, which routes by key length
where one format owns the length and by template match where formats
contest it; anything unrecognized goes to the general-purpose fallback.
The dispatcher adds only the per-route counters, latency histograms and
``stats()`` snapshot.
"""

from __future__ import annotations

import itertools
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

from repro.core.fast_infer import ENGINE_AUTO
from repro.core.inference import KeyLike, infer_pattern
from repro.core.pattern import KeyPattern
from repro.core.plan import HashFamily
from repro.core.synthesis import SynthesizedHash
from repro.errors import SynthesisError
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.obs.metrics import (
    NS_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.serve.routes import RouteState, RouteTable, build_route_state

HashCallable = Callable[[bytes], int]

FormatSource = Union[str, KeyPattern, SynthesizedHash]


class FormatDispatcher:
    """Route keys to format-specialized hashes, falling back when unsure.

    Every routing decision is counted: each registered format owns a
    route counter and misses land on a fallback counter, all held in a
    :class:`repro.obs.metrics.MetricsRegistry` (a private one by
    default, so two dispatchers never share counts).  A counter bump is
    one integer add, so the fast path stays a length probe, a counter
    lookup and one add.  :meth:`stats` snapshots the traffic split.

    Args:
        fallback: general-purpose hash for unrecognized keys (defaults to
            the STL murmur port, matching SEPE's own fallback rule).
        verify: when True, every key is template-checked before a
            specialized function runs (the route table trusts no
            length); non-conforming keys go to the fallback.  Off by
            default — the paper's functions also assume conforming
            input (footnote 3's "assume you do not need to assert key
            format").
        registry: metrics registry holding the route counters; pass a
            shared registry to aggregate several dispatchers.
        latency: when True, every hashed key (and every ``hash_many``
            group) is timed into a per-route nanosecond histogram
            (``dispatch.latency_ns.<label>``, exponential
            :data:`~repro.obs.metrics.NS_LATENCY_BUCKETS` edges) — the
            scrape surface the metric exporters publish.  Off by
            default.
        prefer_native: when True, registration eagerly JIT-compiles each
            format's emitted C++ (through the compile cache) and its
            route may serve scalar calls and batches from the native
            entry points; formats whose native tier degrades (no
            compiler, unsupported ISA) keep the Python/NumPy path, so
            the dispatcher works identically on hosts without a
            toolchain.
    """

    def __init__(
        self,
        fallback: HashCallable = stl_hash_bytes,
        verify: bool = False,
        registry: Optional[MetricsRegistry] = None,
        latency: bool = False,
        prefer_native: bool = False,
    ):
        self._prefer_native = bool(prefer_native)
        self._fallback = fallback
        self._table = RouteTable((), trust_length=not verify)
        self._serials = itertools.count()
        # route_id -> (route counter, latency histogram or None).
        self._metrics: Dict[str, Tuple[Counter, Optional[Histogram]]] = {}
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
        # Guards registration against concurrent register()/stats()/
        # describe() — NOT taken on the hashing hot path, which reads
        # the current table snapshot by reference.  Contention is
        # observable: a blocked acquisition first fails a non-blocking
        # attempt and counts a lock-wait event.
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
        # Synthesis and tier selection — with prefer_native, an eager
        # JIT compile so the first routed key never pays it — stay
        # outside the state lock: a compile must not stall concurrent
        # stats() readers.
        route = build_route_state(
            f"r{next(self._serials)}",
            source,
            family,
            prefer_native=self._prefer_native,
        )
        if route.native:
            self._native_formats.inc()
        self._acquire_state_lock()
        try:
            # Metrics first: a reader that sees the new table finds them.
            self._metrics[route.route_id] = (
                self._registry.counter(f"dispatch.route.{route.label}"),
                self._registry.histogram(
                    f"dispatch.latency_ns.{route.label}", NS_LATENCY_BUCKETS
                )
                if self._latency
                else None,
            )
            self._table = self._table.added(route)
        finally:
            self._state_lock.release()
        return route.synthesized

    def register_examples(
        self,
        keys: Iterable[KeyLike],
        family: HashFamily = HashFamily.PEXT,
        engine: str = ENGINE_AUTO,
    ) -> SynthesizedHash:
        """Register a format learned from example keys (Figure 5a, inline).

        The format is inferred through the bitwise-parallel engine of
        :mod:`repro.core.fast_infer`, then registered like any other
        source.  This is the production registration path: hand the
        dispatcher a key sample, get routed hashing.

        Raises:
            EmptyKeySetError: when ``keys`` is empty.
            SynthesisError: propagated from synthesis.
        """
        return self.register(infer_pattern(keys, engine=engine), family=family)

    @property
    def format_count(self) -> int:
        """Number of registered formats."""
        return len(self._table)

    # -- dispatch --------------------------------------------------------

    def _lookup(self, key: bytes) -> Tuple[HashCallable, Optional[Histogram]]:
        """Count one routing decision; the callable and its histogram."""
        self._requests.inc()
        route = self._table.resolve(key)
        if route is None:
            self._fallback_counter.inc()
            return self._fallback, self._fallback_latency
        counter, histogram = self._metrics[route.route_id]
        counter.inc()
        return route.scalar, histogram

    def route(self, key: bytes) -> HashCallable:
        """The function that would hash ``key`` (for inspection/tests)."""
        return self._lookup(key)[0]

    def __call__(self, key: bytes) -> int:
        function, histogram = self._lookup(key)
        if histogram is None:
            return function(key)
        started = time.perf_counter_ns()
        value = function(key)
        histogram.observe(time.perf_counter_ns() - started)
        return value

    def _hash_group(
        self, route: RouteState, tier: Callable, keys: List[bytes]
    ):
        """One route's group through ``tier``: count it, time it."""
        counter, histogram = self._metrics[route.route_id]
        count = len(keys)
        counter.inc(count)
        if histogram is None:
            return tier(keys)
        started = time.perf_counter_ns()
        values = tier(keys)
        per_key_ns = (time.perf_counter_ns() - started) / count
        for _ in range(count):
            histogram.observe(per_key_ns)
        return values

    def _hash_fallback(self, keys: List[bytes]) -> List[int]:
        """Unrouted keys through the scalar fallback, counted."""
        self._fallback_counter.inc(len(keys))
        fallback = self._fallback
        histogram = self._fallback_latency
        if histogram is None:
            return [fallback(key) for key in keys]
        values = []
        for key in keys:
            started = time.perf_counter_ns()
            values.append(fallback(key))
            histogram.observe(time.perf_counter_ns() - started)
        return values

    def hash_many(self, keys: Sequence[bytes]) -> List[int]:
        """Hash a batch of keys, routing once per group, not per key.

        Keys are grouped by route; each group is hashed by one call to
        that route's batch tier, so per-key dispatch and function-call
        overhead is paid once per *group*.  Unrecognized keys go
        through the scalar fallback.  Results are positionally aligned
        with ``keys``, and route/fallback counters advance by group
        sizes exactly as per-key routing would.  A same-length batch on
        a length one route owns skips per-key resolution entirely (see
        :meth:`~repro.serve.routes.RouteTable.hash_many`).
        """
        self._requests.inc(len(keys))
        return self._table.hash_many(
            keys, self._hash_group, self._hash_fallback
        )

    def hash_many_array(self, keys: Sequence[bytes]):
        """Hash a batch into a NumPy uint64 array (the fastest tier).

        A same-length batch served by one native-backed route goes
        straight through the module's ``hash_many_array`` entry point —
        no per-key resolution, no ``tolist`` boxing (the single largest
        cost of the list contract, ~36 vs ~16 ns/key on the reference
        container).  Every other batch takes the :meth:`hash_many`
        grouping plus one array conversion, so callers can use this
        unconditionally.
        """
        self._requests.inc(len(keys))
        return self._table.hash_many(
            keys, self._hash_group, self._hash_fallback, array=True
        )

    # -- introspection -----------------------------------------------------

    @staticmethod
    def _ordered(table: RouteTable) -> List[Tuple[RouteState, Optional[int]]]:
        """Routes with their fixed length (None if variable), table order:
        fixed formats by length, then variable ones."""
        fixed = sorted(
            (route for route in table.routes if route.pattern.is_fixed_length),
            key=lambda route: route.pattern.body_length,
        )
        variable = [
            route for route in table.routes
            if not route.pattern.is_fixed_length
        ]
        return [(route, route.pattern.body_length) for route in fixed] + [
            (route, None) for route in variable
        ]

    def describe(self) -> List[str]:
        """Human-readable routing table, one line per registered format."""
        from repro.core.regex_render import render_regex

        lines = []
        for route, length in self._ordered(self._table):
            if length is None:
                lines.append(
                    f"len {route.pattern.min_length}+  : "
                    f"{render_regex(route.pattern)}"
                )
            else:
                lines.append(
                    f"len {length:4d}: {render_regex(route.pattern)}"
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

        The whole snapshot is taken in one critical section — route
        list and every counter value read back to back under the state
        lock — so concurrent registrations cannot interleave a
        half-visible format, and ``total_routes`` is the sum of exactly
        the per-format counts reported beside it.  Formatting (regex
        rendering) happens after release; waits on the lock are counted
        in ``dispatch.lock_waits``.
        """
        self._acquire_state_lock()
        try:
            routes = self._ordered(self._table)
            counts = [
                self._metrics[route.route_id][0].value for route, _ in routes
            ]
            fallback_routes = self._fallback_counter.value
            native_formats = self._native_formats.value
        finally:
            self._state_lock.release()
        formats = [
            self._format_stats(route, length, routes_served)
            for (route, length), routes_served in zip(routes, counts)
        ]
        total = sum(counts)
        stats: Dict[str, object] = {
            "registered": len(routes),
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
        if self._fallback_latency is not None:
            histogram = self._fallback_latency
            stats["fallback_latency"] = {
                "count": histogram.count,
                "mean_ns": histogram.mean,
            }
        return stats

    def _format_stats(
        self, route: RouteState, length: Optional[int], routes: int
    ) -> Dict[str, object]:
        from repro.core.regex_render import render_regex

        record: Dict[str, object] = {
            "regex": render_regex(route.pattern),
            "length": length,
            "routes": routes,
            # True only when the native module is already loaded — this
            # must never trigger a compile from a stats snapshot.
            "native": route.synthesized._native_state == "loaded",
        }
        histogram = self._metrics[route.route_id][1]
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
