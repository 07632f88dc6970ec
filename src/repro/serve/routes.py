"""Immutable route state: the one routing and tier-selection policy.

:class:`~repro.serve.service.HashService` (every shard) and
:class:`repro.core.dispatch.FormatDispatcher` route through a
:class:`RouteTable` and hash through the callables its
:class:`RouteState` entries chose; neither keeps a resolver or a tier
order of its own.

The serving hot path must never take a lock, so the routing structure
is a persistent data structure: a :class:`RouteTable` is built once,
shared by reference with every shard, and *replaced* — never mutated —
when the reconciler lands a resynthesized plan.  Under CPython a plain
attribute store is an atomic reference swap, so readers either see the
whole old table or the whole new one; a shard mid-batch keeps hashing
with the state it already resolved (the "stale plan serves until the
swap lands" contract).

Each :class:`RouteState` pre-resolves the fastest callable of every
kind at build time — scalar (native → interp), list batch (ordered by
the static cost model's predicted ns/key, falling back to the fixed
native → NumPy preference when the model abstains) and array batch
(native only) — through the process
:class:`repro.codegen.cache.CompileCache`, so a hot-swap pays JIT cost
in the reconciler thread and the traffic threads only ever call
already-compiled functions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.core.pattern import KeyPattern
from repro.core.plan import HashFamily
from repro.core.synthesis import FormatSource, SynthesizedHash, synthesize

_FAST_LENGTH_SPAN = 64
"""Widest bounded variable-length range eagerly expanded into the
length → route map; wider ranges resolve through the match walk."""

GroupHasher = Callable[["RouteState", Callable, List[bytes]], Sequence]
"""``hash_group(route, tier, keys) -> values`` of :meth:`RouteTable.hash_many`."""

_FIXED_BATCH_ORDER = ("native", "numpy")
"""Fallback batch-tier preference when the cost model abstains."""


def _pick_batch_tier(
    synthesized: SynthesizedHash,
    candidates: Dict[str, Callable],
) -> Tuple[Callable, str, bool]:
    """Choose the batch callable by predicted cost, or fixed order.

    Returns ``(callable, tier_name, cost_ordered)``.  The static cost
    model (:mod:`repro.verify.cost`) prices every candidate tier; when
    it prices all of them, the cheapest wins.  When it abstains on any
    candidate — unknown opcode, non-vectorizable plan — the fixed
    native → NumPy preference decides, so an unpriceable plan routes
    exactly as it did before the model existed.
    """
    from repro.obs.metrics import get_registry
    from repro.verify.cost import predict_plan_costs

    registry = get_registry()
    prediction = predict_plan_costs(synthesized.plan)
    if all(prediction.cost(tier) is not None for tier in candidates):
        for tier in prediction.order():
            if tier in candidates:
                registry.counter("serve.routes.cost_ordered").inc()
                return candidates[tier], tier, True
    registry.counter("serve.routes.fixed_order").inc()
    for tier in _FIXED_BATCH_ORDER:
        if tier in candidates:
            return candidates[tier], tier, False
    raise ValueError("no batch candidates")  # pragma: no cover


class RouteState:
    """One route's plan plus its pre-resolved callables, frozen.

    Attributes:
        route_id: stable identity across hot swaps (``"r0"``, ...).
        label: human-readable route name (the plan's format regex).
        synthesized: the full synthesis artifact behind the callables.
        generation: 0 at registration, +1 per verified hot swap.
        scalar: fastest ``hash(key) -> int`` available.
        batch: fastest ``hash_many(keys) -> list[int]`` available.
        batch_array: native ``hash_many_array`` returning a NumPy
            uint64 array, or None when the native tier degraded.
        native: True when the native module backs the callables.
        batch_tier: name of the tier serving ``batch`` (``"native"`` or
            ``"numpy"``).
        cost_ordered: True when the static cost model picked the batch
            tier; False when it abstained and the fixed preference
            order decided.
    """

    __slots__ = (
        "route_id",
        "label",
        "synthesized",
        "generation",
        "scalar",
        "batch",
        "batch_array",
        "native",
        "batch_tier",
        "cost_ordered",
    )

    def __init__(
        self,
        route_id: str,
        synthesized: SynthesizedHash,
        generation: int = 0,
        prefer_native: bool = True,
        label: Optional[str] = None,
    ):
        self.route_id = route_id
        self.synthesized = synthesized
        self.generation = generation
        self.label = label or synthesized.plan.pattern_regex or route_id
        scalar = synthesized.function
        batch_array = None
        native = False
        module = synthesized.native_module if prefer_native else None
        # Candidate batch callables by cost-model tier name.  The list
        # batch kernel is the "numpy" tier whether or not it actually
        # vectorized — when the model abstains on it (tail_xor), the
        # fixed order decides, which is exactly the loop-fallback case.
        candidates = {"numpy": synthesized.batch_function}
        if module is not None:
            scalar = module
            candidates["native"] = module.hash_many
            batch_array = module.hash_many_array
            native = True
        self.batch, self.batch_tier, self.cost_ordered = _pick_batch_tier(
            synthesized, candidates
        )
        self.scalar = scalar
        self.batch_array = batch_array
        self.native = native

    @property
    def pattern(self) -> KeyPattern:
        """The key pattern this route's plan was synthesized for."""
        return self.synthesized.pattern

    @property
    def family(self) -> HashFamily:
        return self.synthesized.family

    def __repr__(self) -> str:
        return (
            f"RouteState({self.route_id}, {self.label!r}, "
            f"gen={self.generation}, native={self.native})"
        )


def build_route_state(
    route_id: str,
    source: Union[FormatSource, SynthesizedHash],
    family: HashFamily = HashFamily.PEXT,
    *,
    generation: int = 0,
    prefer_native: bool = True,
    verify: Optional[str] = None,
    label: Optional[str] = None,
) -> RouteState:
    """Synthesize (unless given an artifact) and freeze a route state.

    Raises:
        SynthesisError: propagated for unsupported formats.
        VerificationError: under ``verify="strict"`` when the static
            verifier refutes the plan — the swap/registration must not
            happen.
    """
    if isinstance(source, SynthesizedHash):
        synthesized = source
    else:
        synthesized = synthesize(source, family=family, verify=verify)
    return RouteState(
        route_id,
        synthesized,
        generation=generation,
        prefer_native=prefer_native,
        label=label,
    )


class RouteTable:
    """An immutable snapshot of every route, with O(1) length routing.

    The routing policy of both the hash service and
    :class:`repro.core.dispatch.FormatDispatcher`.  ``fast`` maps
    every key length that exactly one route can serve to that route
    (fixed routes, plus every length of a variable route whose range
    spans at most 64 bytes); the shard hot path is one dict probe
    against it.  Contested lengths (two fixed routes colliding, or a
    variable route overlapping a fixed one) resolve through
    :meth:`resolve_checked`'s template walk.  An unbounded or wider
    variable route could claim almost any length, so it leaves ``fast``
    empty and every key is template-checked; so does
    ``trust_length=False``.
    """

    __slots__ = (
        "version", "routes", "fast", "trust_length", "_fixed", "_variable"
    )

    def __init__(
        self,
        routes: Sequence[RouteState],
        version: int = 0,
        trust_length: bool = True,
    ):
        self.version = version
        self.routes: Tuple[RouteState, ...] = tuple(routes)
        self.trust_length = trust_length
        fixed: Dict[int, List[RouteState]] = {}
        variable: List[RouteState] = []
        for route in self.routes:
            pattern = route.pattern
            if pattern.is_fixed_length:
                fixed.setdefault(pattern.body_length, []).append(route)
            else:
                variable.append(route)
        self._fixed = {length: tuple(states) for length, states in
                       fixed.items()}
        self._variable = tuple(variable)
        self.fast = (
            self._build_fast_map(fixed, variable) if trust_length else {}
        )

    @staticmethod
    def _build_fast_map(
        fixed: Dict[int, List[RouteState]],
        variable: List[RouteState],
    ) -> Dict[int, RouteState]:
        claims: Dict[int, List[RouteState]] = {
            length: list(states) for length, states in fixed.items()
        }
        wide = False
        for route in variable:
            pattern = route.pattern
            upper = pattern.max_length
            if (
                upper is None
                or upper - pattern.min_length > _FAST_LENGTH_SPAN
            ):
                wide = True  # could claim almost any length; no fast map
                continue
            for length in range(pattern.min_length, upper + 1):
                claims.setdefault(length, []).append(route)
        if wide:
            return {}
        return {
            length: states[0]
            for length, states in claims.items()
            if len(states) == 1
        }

    def resolve(self, key: bytes) -> Optional[RouteState]:
        """The route serving ``key``, or None (fallback traffic).

        Lengths owned by exactly one route resolve by length alone —
        the paper's functions assume conforming input (footnote 3).
        Contested lengths fall through to template matching.
        """
        route = self.fast.get(len(key))
        if route is not None:
            return route
        return self.resolve_checked(key)

    def resolve_checked(self, key: bytes) -> Optional[RouteState]:
        """Template-matching resolution (no length-trust shortcut)."""
        for route in self._fixed.get(len(key), ()):
            if route.pattern.matches(key):
                return route
        for route in self._variable:
            if route.pattern.matches(key):
                return route
        return None

    def _homogeneous(self, keys: Sequence[bytes]) -> Optional[RouteState]:
        """The route serving every key of ``keys`` by length, or None.

        Only a length in ``fast`` qualifies, so the batch shortcut
        sends each key to the route :meth:`resolve` would have picked.
        """
        if not keys:
            return None
        length = len(keys[0])
        route = self.fast.get(length)
        if route is None:
            return None
        for key in keys:
            if len(key) != length:
                return None
        return route

    def hash_many(
        self,
        keys: Sequence[bytes],
        hash_group: GroupHasher,
        hash_fallback: Callable[[List[bytes]], List[int]],
        array: bool = False,
    ):
        """Hash a batch grouped by route, positionally aligned.

        ``hash_group(route, tier, keys)`` hashes one group through
        ``tier`` (``route.batch`` or ``route.batch_array``) and does the
        caller's per-route accounting; ``hash_fallback(keys)`` does the
        same for the keys no route serves.  A batch whose keys all
        share one ``fast`` length is a single group with no per-key
        resolution or scatter.  ``array=True`` returns a NumPy uint64
        array, and sends such a batch through the route's native array
        entry point when it has one (no list boxing).
        """
        route = self._homogeneous(keys)
        if route is not None:
            grouped = keys if isinstance(keys, list) else list(keys)
            if not array:
                return hash_group(route, route.batch, grouped)
            if route.batch_array is not None:
                return hash_group(route, route.batch_array, grouped)
            return _np.asarray(
                hash_group(route, route.batch, grouped), dtype=_np.uint64
            )
        out: List[int] = [0] * len(keys)
        groups: Dict[str, Tuple[RouteState, List[int], List[bytes]]] = {}
        fallback_indices: List[int] = []
        fallback_keys: List[bytes] = []
        fast = self.fast
        for index, key in enumerate(keys):
            # resolve(), inlined: no call frame per fast-map key.
            route = fast.get(len(key))
            if route is None:
                route = self.resolve_checked(key)
                if route is None:
                    fallback_indices.append(index)
                    fallback_keys.append(key)
                    continue
            group = groups.get(route.route_id)
            if group is None:
                groups[route.route_id] = (route, [index], [key])
            else:
                group[1].append(index)
                group[2].append(key)
        for route, indices, grouped in groups.values():
            values = hash_group(route, route.batch, grouped)
            for index, value in zip(indices, values):
                out[index] = value
        if fallback_keys:
            values = hash_fallback(fallback_keys)
            for index, value in zip(fallback_indices, values):
                out[index] = value
        return _np.asarray(out, dtype=_np.uint64) if array else out

    def get(self, route_id: str) -> Optional[RouteState]:
        for route in self.routes:
            if route.route_id == route_id:
                return route
        return None

    def with_route(self, new_state: RouteState) -> "RouteTable":
        """A new table with the same-id route replaced (the hot swap)."""
        if self.get(new_state.route_id) is None:
            raise KeyError(f"no route {new_state.route_id!r} to replace")
        replaced = tuple(
            new_state if route.route_id == new_state.route_id else route
            for route in self.routes
        )
        return RouteTable(
            replaced,
            version=self.version + 1,
            trust_length=self.trust_length,
        )

    def added(self, new_state: RouteState) -> "RouteTable":
        """A new table with an additional route appended."""
        if self.get(new_state.route_id) is not None:
            raise KeyError(f"route {new_state.route_id!r} already exists")
        return RouteTable(
            self.routes + (new_state,),
            version=self.version + 1,
            trust_length=self.trust_length,
        )

    def __len__(self) -> int:
        return len(self.routes)

    def __repr__(self) -> str:
        return (
            f"RouteTable(v{self.version}, "
            f"routes=[{', '.join(r.route_id for r in self.routes)}])"
        )
