"""Bitwise-parallel pattern inference: the quad join as word-level ops.

The reference ``keybuilder`` path (:func:`repro.core.quads.join_keys`)
performs one lattice join per bit pair per key — four Python calls per
byte.  This module computes the *exact* same join with two machine
operations per key, using the observation that a quad stays concrete
across a corpus iff **both of its bits are constant**, and a bit is
constant iff ``key_i XOR key_0`` is zero at that bit for every ``i``.
The whole position-wise join therefore collapses to

    diff |= int(key_i) ^ int(key_0)        # over whole-key words

after which ``~diff`` marks the constant bits and the first key supplies
their values.  Variable-length corpora need no special lattice handling:
a byte position is joined with ⊤ by every key too short to reach it, so
only positions below the *shortest* key can stay concrete — the engine
folds prefixes of ``min_length`` bytes and pads the tail with ⊤.

Three interchangeable executions of that idea live here, all pinned
byte-for-byte against the reference join by ``tests/core/test_fast_infer.py``:

- a pure-Python big-int path (``int.from_bytes`` + XOR/OR folding, any
  corpus shape, with an early exit once every bit is known to vary);
- a NumPy path that stacks equal-length keys into a ``uint8`` matrix and
  reduces columns with array OR/AND (``or ^ and`` is exactly the
  difference mask, without materializing a per-key XOR matrix);
- a mergeable :class:`PatternAccumulator` — the join is a commutative
  monoid, so chunk-level ``(base, diff, min, max)`` states combine in
  any order, enabling streaming inference over corpora that do not fit
  in memory and joins of per-shard drift samples
  (:mod:`repro.serve.drift`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.core.pattern import KeyPattern
from repro.core.quads import _BYTE_QUADS, QUADS_PER_BYTE, Quad, join_keys
from repro.errors import EmptyKeySetError
from repro.obs.metrics import get_registry
from repro.obs.trace import span

KeyLike = Union[str, bytes]

ENGINE_AUTO = "auto"
ENGINE_BIGINT = "bigint"
ENGINE_NUMPY = "numpy"
ENGINE_REFERENCE = "reference"

ENGINES = (ENGINE_AUTO, ENGINE_BIGINT, ENGINE_NUMPY, ENGINE_REFERENCE)

_NUMPY_MIN_KEYS = 64
"""Below this corpus size the matrix copy costs more than it saves."""

_BULK_CHUNK = 1 << 16
"""Keys per NumPy reduction chunk; bounds the joined-buffer footprint."""

_SATURATION_STRIDE = 1 << 12
"""How often the big-int fold checks whether every bit already varies."""


def as_key_bytes(key: KeyLike) -> bytes:
    """Accept str or bytes keys; strings are encoded as UTF-8."""
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        return bytes(key)
    raise TypeError(f"keys must be str or bytes, got {type(key).__name__}")


# -- mask <-> quad expansion ------------------------------------------------


def _expand_quads(
    base: bytes, diff: int, min_len: int, max_len: int
) -> List[Quad]:
    """Expand a (first-key prefix, difference mask) pair into quads.

    ``diff`` covers the ``min_len``-byte prefix in big-endian order
    (bit 0 = least-significant bit of the last prefix byte); a quad is
    concrete iff both of its bits are clear in ``diff``.  Bytes past
    ``min_len`` were joined with ⊤ by some key and pad out as ⊤.
    """
    quads: List[Quad] = []
    if min_len:
        table = _BYTE_QUADS
        for base_byte, diff_byte in zip(base, diff.to_bytes(min_len, "big")):
            if diff_byte == 0:
                quads.extend(table[base_byte])
            else:
                for shift in (6, 4, 2, 0):
                    if (diff_byte >> shift) & 3:
                        quads.append(None)
                    else:
                        quads.append((base_byte >> shift) & 3)
    if max_len > min_len:
        quads.extend([None] * (QUADS_PER_BYTE * (max_len - min_len)))
    return quads


# -- the streaming accumulator ----------------------------------------------


AccumulatorState = Tuple[int, int, int, bytes, int]
"""Picklable snapshot: (count, min_len, max_len, base_prefix, diff)."""


class PatternAccumulator:
    """Mergeable, streaming state for the quad-semilattice join.

    The join of Section 3.1 is a commutative, associative, idempotent
    fold, so partial joins computed over any partition of a corpus —
    successive :meth:`update` chunks, or :meth:`merge`-d states from
    other processes — finish to the same :class:`KeyPattern` as one
    monolithic join.  State is four scalars and one short prefix:

    - ``base``: the ``min_length``-byte prefix of the first key seen;
    - ``diff``: big-endian int over that prefix, set where any key
      disagreed with ``base`` (⊤ bits);
    - ``min_length`` / ``max_length``: the observed length range;
    - ``count``: keys folded so far (only emptiness matters).
    """

    __slots__ = ("_count", "_min_len", "_max_len", "_base", "_base_int",
                 "_diff")

    def __init__(self) -> None:
        self._count = 0
        self._min_len = 0
        self._max_len = 0
        self._base = b""
        self._base_int = 0
        self._diff = 0

    # -- introspection ------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of keys folded into this state."""
        return self._count

    @property
    def min_length(self) -> int:
        """Shortest key seen (0 before the first update)."""
        return self._min_len

    @property
    def max_length(self) -> int:
        """Longest key seen (0 before the first update)."""
        return self._max_len

    # -- state transport -----------------------------------------------------

    def state(self) -> AccumulatorState:
        """Snapshot as a plain picklable tuple (for worker transport)."""
        return (
            self._count,
            self._min_len,
            self._max_len,
            self._base,
            self._diff,
        )

    @classmethod
    def from_state(cls, state: AccumulatorState) -> "PatternAccumulator":
        """Rebuild an accumulator from a :meth:`state` snapshot."""
        acc = cls()
        count, min_len, max_len, base, diff = state
        acc._count = count
        acc._min_len = min_len
        acc._max_len = max_len
        acc._base = base
        acc._base_int = int.from_bytes(base, "big")
        acc._diff = diff
        return acc

    # -- folding -------------------------------------------------------------

    def _truncate(self, new_min: int) -> None:
        """Shrink the tracked prefix when a shorter key arrives.

        Big-endian layout makes truncation a right shift: dropping the
        trailing bytes of the prefix drops the low-order bits.
        """
        drop = 8 * (self._min_len - new_min)
        self._base = self._base[:new_min]
        self._base_int >>= drop
        self._diff >>= drop
        self._min_len = new_min

    def update(
        self, keys: Iterable[KeyLike], engine: str = ENGINE_AUTO
    ) -> "PatternAccumulator":
        """Fold a chunk of keys into the state; returns ``self``.

        Equal-length chunks of at least ``_NUMPY_MIN_KEYS`` bytes keys
        take the NumPy column-reduce path when ``engine`` allows it;
        everything else takes the big-int fold.
        """
        if engine not in (ENGINE_AUTO, ENGINE_BIGINT, ENGINE_NUMPY):
            raise ValueError(f"unknown accumulator engine: {engine!r}")
        if engine != ENGINE_BIGINT and isinstance(keys, (list, tuple)):
            if self._update_bulk(keys, force=engine == ENGINE_NUMPY):
                return self
            if engine == ENGINE_NUMPY:
                raise ValueError(
                    "numpy engine requires a list of "
                    "equal-length byte keys"
                )
        base_int = self._base_int
        min_len = self._min_len
        max_len = self._max_len
        diff = self._diff
        count = self._count
        full = (1 << (8 * min_len)) - 1
        saturated = count > 0 and diff == full
        for key in keys:
            if not isinstance(key, bytes):
                key = as_key_bytes(key)
            length = len(key)
            if count == 0:
                self._base = key
                base_int = int.from_bytes(key, "big")
                min_len = max_len = length
                full = (1 << (8 * length)) - 1
                count = 1
                continue
            count += 1
            if length < min_len:
                drop = 8 * (min_len - length)
                self._base = self._base[:length]
                base_int >>= drop
                diff >>= drop
                min_len = length
                full = (1 << (8 * length)) - 1
                saturated = diff == full
            elif length > max_len:
                max_len = length
            if saturated or not min_len:
                continue
            key_int = int.from_bytes(key, "big")
            if length > min_len:
                key_int >>= 8 * (length - min_len)
            diff |= key_int ^ base_int
            if not (count & (_SATURATION_STRIDE - 1)) and diff == full:
                saturated = True
        self._count = count
        self._min_len = min_len
        self._max_len = max_len
        self._base_int = base_int
        self._diff = diff
        return self

    def _update_bulk(self, keys: Sequence[KeyLike], force: bool = False) -> bool:
        """NumPy column-reduce fast path; False when it does not apply.

        Requires a reasonably large chunk (unless ``force``-d by an
        explicit engine choice) and equal-length ``bytes`` keys
        (mixed lengths fall back to the big-int loop).  Reduces each
        chunk to per-column OR and AND; ``or ^ and`` is the set of bits
        that vary within the chunk, which merges into the running state
        exactly like a sub-accumulator would.
        """
        if len(keys) < _NUMPY_MIN_KEYS and not force:
            return False
        first = keys[0]
        if not isinstance(first, bytes):
            return False
        length = len(first)
        if length == 0:
            return False
        for key in keys:
            if type(key) is not bytes or len(key) != length:
                return False
        col_or = None
        col_and = None
        for start in range(0, len(keys), _BULK_CHUNK):
            chunk = keys[start : start + _BULK_CHUNK]
            matrix = _np.frombuffer(b"".join(chunk), dtype=_np.uint8)
            matrix = matrix.reshape(len(chunk), length)
            chunk_or = _np.bitwise_or.reduce(matrix, axis=0)
            chunk_and = _np.bitwise_and.reduce(matrix, axis=0)
            if col_or is None:
                col_or, col_and = chunk_or, chunk_and
            else:
                col_or |= chunk_or
                col_and &= chunk_and
        partial = PatternAccumulator()
        partial._count = len(keys)
        partial._min_len = partial._max_len = length
        partial._base = first
        partial._base_int = int.from_bytes(first, "big")
        partial._diff = int.from_bytes((col_or ^ col_and).tobytes(), "big")
        self.merge(partial)
        return True

    def merge(self, other: "PatternAccumulator") -> "PatternAccumulator":
        """Fold another accumulator's state into this one; returns ``self``.

        ``a.update(X).merge(b.update(Y))`` finishes identically to
        ``a.update(X + Y)`` — the monoid law the drift detector's per-shard
        samples and the parity tests rely on.
        """
        if other._count == 0:
            return self
        if self._count == 0:
            self._count = other._count
            self._min_len = other._min_len
            self._max_len = other._max_len
            self._base = other._base
            self._base_int = other._base_int
            self._diff = other._diff
            return self
        new_min = min(self._min_len, other._min_len)
        if self._min_len > new_min:
            self._truncate(new_min)
        drop = 8 * (other._min_len - new_min)
        other_base = other._base_int >> drop
        self._diff |= (other._diff >> drop) | (self._base_int ^ other_base)
        self._max_len = max(self._max_len, other._max_len)
        self._count += other._count
        return self

    # -- finishing -----------------------------------------------------------

    def joined_quads(self) -> List[Quad]:
        """The position-wise join so far, as :func:`join_keys` lists it."""
        if self._count == 0:
            return []
        return _expand_quads(
            self._base, self._diff, self._min_len, self._max_len
        )

    def finish(self) -> KeyPattern:
        """Close the fold and build the inferred :class:`KeyPattern`.

        Raises:
            EmptyKeySetError: when no key was ever folded in.
        """
        if self._count == 0:
            raise EmptyKeySetError(
                "cannot infer a pattern from zero examples"
            )
        return KeyPattern(
            quads=tuple(self.joined_quads()),
            min_length=self._min_len,
            max_length=self._max_len,
        )


# -- one-shot joins ----------------------------------------------------------


def join_keys_bigint(keys: Sequence[bytes]) -> List[Quad]:
    """The reference join, computed by big-int XOR/OR folding."""
    return PatternAccumulator().update(keys, engine=ENGINE_BIGINT
                                       ).joined_quads()


def join_keys_numpy(keys: Sequence[bytes]) -> List[Quad]:
    """The reference join via NumPy column reduction.

    Raises:
        ValueError: when the corpus is not a list of equal-length
            byte keys of workable size.
    """
    acc = PatternAccumulator()
    if keys:
        acc.update(list(keys), engine=ENGINE_NUMPY)
    return acc.joined_quads()


def choose_engine(keys: Sequence[bytes]) -> str:
    """Pick the fastest applicable engine for an in-memory corpus."""
    if (
        len(keys) >= _NUMPY_MIN_KEYS
        and keys[0]
        and all(
            type(key) is bytes and len(key) == len(keys[0]) for key in keys
        )
    ):
        return ENGINE_NUMPY
    return ENGINE_BIGINT


def join_keys_fast(
    keys: Sequence[bytes], engine: str = ENGINE_AUTO
) -> List[Quad]:
    """Drop-in, bit-exact replacement for :func:`join_keys`.

    ``engine`` selects the execution: ``"auto"`` (default) picks NumPy
    for large equal-length corpora and big-int otherwise,
    ``"reference"`` runs the original per-quad join (the parity
    oracle), and ``"bigint"`` / ``"numpy"`` force a path.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown inference engine {engine!r}; expected one of {ENGINES}"
        )
    if not keys:
        return []
    chosen = engine if engine != ENGINE_AUTO else choose_engine(keys)
    get_registry().counter(f"inference.engine.{chosen}").inc()
    with span("inference.fast_join", keys=len(keys), engine=chosen):
        if chosen == ENGINE_REFERENCE:
            return join_keys(keys)
        if chosen == ENGINE_NUMPY:
            return join_keys_numpy(keys)
        return join_keys_bigint(keys)


def infer_pattern_fast(
    keys: Sequence[bytes], engine: str = ENGINE_AUTO
) -> KeyPattern:
    """Infer a :class:`KeyPattern` from byte keys via the fast join.

    Raises:
        EmptyKeySetError: when ``keys`` is empty.
    """
    if not keys:
        raise EmptyKeySetError("cannot infer a pattern from zero examples")
    joined = join_keys_fast(keys, engine=engine)
    lengths = [len(key) for key in keys]
    return KeyPattern(
        quads=tuple(joined),
        min_length=min(lengths),
        max_length=max(lengths),
    )

