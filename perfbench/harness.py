"""Shared machinery of the benchmark: seeded inputs, the output tally,
statistics, and the in-memory span tracer of the traced run.

Nothing here imports :mod:`repro`; the workloads do, after ``run.py``
has put the checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import random
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

now_ns = time.perf_counter_ns


def subseed(seed: int, *tags: object) -> int:
    """A 63-bit seed derived from the run seed and a purpose tag, so each
    input stream is reproducible on its own and independent of the rest."""
    text = "/".join([str(seed), *map(str, tags)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_for(seed: int, *tags: object) -> random.Random:
    return random.Random(subseed(seed, *tags))


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def settle() -> None:
    """Collect, then freeze every object alive now (the generated inputs)
    out of the cyclic collector, so collections inside timed regions cost
    what the program's own garbage costs, not the size of the inputs."""
    gc.collect()
    gc.freeze()


class Histogram:
    """Latencies counted at nanosecond resolution up to ``ceiling_ns``
    (longer ones count at the ceiling), in memory that does not grow with
    the run's length."""

    def __init__(self, ceiling_ns: int = 1_000_000):
        self.ceiling = ceiling_ns
        self.counts = np.zeros(ceiling_ns + 1, dtype=np.int64)

    def add(self, samples_ns) -> None:
        samples = np.minimum(np.asarray(samples_ns, dtype=np.int64), self.ceiling)
        self.counts += np.bincount(samples, minlength=self.ceiling + 1)

    def percentile_ns(self, q: float) -> float:
        """Smallest latency with at least ``q`` percent of samples at or
        below it; 0.0 for an empty histogram."""
        cumulative = np.cumsum(self.counts)
        if cumulative[-1] == 0:
            return 0.0
        rank = max(1, int(np.ceil(q / 100 * cumulative[-1])))
        return float(np.searchsorted(cumulative, rank))


class Repeats:
    """Every repetition of each fixed unit of work, and what the fastest
    repetition recorded.

    The benchmark repeats every timed unit (a plan's synthesis or native
    build, a block of requests, a stretch of a container's schedule)
    across the whole run.  On a shared host, interference from other tenants comes
    in bursts of 0.1-1 s that slow everything by up to ~1.5x, and some
    runs land in a slow stretch lasting tens of seconds.  The median of a
    unit's repetitions moves least from run to run for work of a few
    tens of milliseconds or a few hundred affectations; for a block of
    64 sub-10 us requests the fastest repetition does.  Each metric says
    which it reports.
    """

    def __init__(self) -> None:
        self.samples: Dict[object, List[int]] = defaultdict(list)
        self.fastest_payload: Dict[object, object] = {}

    def offer(self, unit: object, ns: int, payload: object = None) -> None:
        runs = self.samples[unit]
        if not runs or ns < min(runs):
            self.fastest_payload[unit] = payload
        runs.append(ns)

    def median_ns(self, unit: object) -> float:
        return median(self.samples[unit])

    def median_ms(self) -> float:
        """The median over units of each unit's median repetition."""
        return median([self.median_ns(unit) for unit in self.samples]) / 1e6

    def total_ms(self) -> float:
        """The sum over units of each unit's median repetition."""
        return sum(self.median_ns(unit) for unit in self.samples) / 1e6


class Tally:
    """Operations attempted and failed, with the first few failure reasons.

    A failed operation is one that raised, returned a value the oracle
    rejects, or lost a key.
    """

    MAX_REASONS = 8

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def fail(self, count: int, reason: str) -> None:
        if count <= 0:
            return
        self.failed += count
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(f"{count} x {reason}")


class Tracer:
    """In-memory spans and counters for the traced run.

    Spans are recorded only around coarse calls into a layer (one
    synthesis stage, one cache lookup, one stream pass); per-key layers
    are timed by aggregate counters instead, so tracing never allocates
    per key.  A disabled tracer records nothing and patches nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[tuple] = []  # (name, start_ns, end_ns, parent, tag)
        self.distinct: Dict[str, Dict[object, float]] = defaultdict(dict)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._patches: List[tuple] = []

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append((name, now_ns(), 0, parent, tag))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record = self.spans[index]
            self.spans[index] = record[:2] + (now_ns(),) + record[3:]

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count_once(self, name: str, key: object, amount: float) -> None:
        """Count ``amount`` under ``name`` once per distinct ``key``, so a
        count does not depend on how many repetitions fit in the run."""
        self.distinct[name][key] = amount

    def total(self, name: str) -> float:
        return sum(self.distinct[name].values())

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a spanned wrapper until
        :meth:`restore`; ``on_result`` sees every return value."""
        if not self.enabled:
            return
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def durations_ms(self, name: str) -> List[float]:
        return [
            (end - start) / 1e6
            for span_name, start, end, _, _ in self.spans
            if span_name == name
        ]

    def median_ms(self, name: str) -> float:
        """Median duration of the named spans; 0.0 when the layer was
        never called in this workload."""
        durations = self.durations_ms(name)
        return median(durations) if durations else 0.0

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (run end only)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, tag in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "id": tag,
                        }
                    )
                    + "\n"
                )
