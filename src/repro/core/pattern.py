"""The :class:`KeyPattern` data model: a key format as a quad sequence.

A pattern records, for every bit-pair position of a key, either the
constant value of that pair or ⊤ (the pair varies between keys).  Patterns
come from two sources — joining example keys (:mod:`repro.core.inference`)
or expanding a regular expression (:mod:`repro.core.regex_expand`) — and
feed code generation (:mod:`repro.core.synthesis`).

Variable-length formats are modeled as a fixed *body* of ``min_length``
bytes plus an optional *tail*: quads past the body describe bytes that may
or may not be present (they joined with ⊤ against absent positions, so the
tail quads are always ⊤).  Fixed-length keys — the common case for every
format the paper evaluates — have ``min_length == max_length``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.core.quads import (
    QUADS_PER_BYTE,
    Quad,
    quads_const_mask,
)
from repro.errors import KeyFormatError

TOP = None
"""The ⊤ element of the quad-semilattice, re-exported for readability:
``pattern.quads[i] is TOP`` reads better than a bare ``is None``."""


@dataclass(frozen=True)
class BytePattern:
    """The constant-bit template of one byte position.

    Attributes:
        const_mask: 8-bit mask with ones at constant bit positions.
        const_value: the constant bits themselves (zero where variable).
    """

    const_mask: int
    const_value: int

    def __post_init__(self) -> None:
        if not 0 <= self.const_mask <= 0xFF:
            raise ValueError(f"const_mask out of byte range: {self.const_mask}")
        if self.const_value & ~self.const_mask:
            raise ValueError("const_value has bits outside const_mask")

    @property
    def is_constant(self) -> bool:
        """True when every bit of this byte is fixed."""
        return self.const_mask == 0xFF

    @property
    def is_free(self) -> bool:
        """True when no bit of this byte is fixed."""
        return self.const_mask == 0

    @property
    def variable_mask(self) -> int:
        """8-bit mask of the bits that vary."""
        return ~self.const_mask & 0xFF

    def matches(self, byte: int) -> bool:
        """Check whether a concrete byte fits this template."""
        return (byte & self.const_mask) == self.const_value

    def possible_bytes(self) -> List[int]:
        """Enumerate every byte value consistent with the template."""
        return list(_byte_class(self.const_mask, self.const_value))


@lru_cache(maxsize=None)
def _byte_class(mask: int, value: int) -> Tuple[int, ...]:
    """The sorted bytes ``b`` with ``b & mask == value``, tabled."""
    return tuple(byte for byte in range(256) if byte & mask == value)


@dataclass(frozen=True)
class KeyPattern:
    """A key format: quads for ``max_length`` bytes plus length bounds.

    Attributes:
        quads: tuple of ``4 * max_length`` lattice elements, in key order
            (first key byte first, most-significant pair of each byte
            first).
        min_length: minimum key length in bytes.  Bytes past ``min_length``
            form the variable tail.
        max_length: maximum key length in bytes, or ``None`` when the tail
            is unbounded (e.g. a trailing ``.*`` in the format regex).
    """

    quads: Tuple[Quad, ...]
    min_length: int
    max_length: Optional[int] = None
    _byte_patterns: Tuple[BytePattern, ...] = field(
        default=(), repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.min_length < 0:
            raise ValueError("min_length must be non-negative")
        if self.max_length is not None:
            if self.max_length < self.min_length:
                raise ValueError("max_length < min_length")
            expected = QUADS_PER_BYTE * self.max_length
            if len(self.quads) != expected:
                raise ValueError(
                    f"expected {expected} quads for max_length "
                    f"{self.max_length}, got {len(self.quads)}"
                )
        elif len(self.quads) < QUADS_PER_BYTE * self.min_length:
            raise ValueError("fewer quads than min_length requires")
        patterns = []
        for index in range(len(self.quads) // QUADS_PER_BYTE):
            group = self.quads[
                QUADS_PER_BYTE * index : QUADS_PER_BYTE * (index + 1)
            ]
            mask, value = quads_const_mask(group)
            patterns.append(BytePattern(mask, value))
        object.__setattr__(self, "_byte_patterns", tuple(patterns))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def fixed(quads: Sequence[Quad]) -> "KeyPattern":
        """Build a fixed-length pattern from a quad sequence."""
        if len(quads) % QUADS_PER_BYTE:
            raise ValueError("quad count must be a multiple of 4")
        length = len(quads) // QUADS_PER_BYTE
        return KeyPattern(tuple(quads), min_length=length, max_length=length)

    # -- basic queries -------------------------------------------------------

    @property
    def is_fixed_length(self) -> bool:
        """True when every key this pattern matches has the same length."""
        return self.max_length == self.min_length

    @property
    def num_bytes(self) -> int:
        """Number of byte positions described by the quads."""
        return len(self.quads) // QUADS_PER_BYTE

    @property
    def body_length(self) -> int:
        """Length of the fixed body (bytes guaranteed present)."""
        return self.min_length

    def byte_pattern(self, index: int) -> BytePattern:
        """The constant-bit template of byte position ``index``."""
        return self._byte_patterns[index]

    def byte_patterns(self) -> Tuple[BytePattern, ...]:
        """All byte templates, in key order."""
        return self._byte_patterns

    # -- constant structure --------------------------------------------------

    def constant_byte_positions(self) -> List[int]:
        """Indices of fully-constant bytes within the fixed body."""
        return [
            index
            for index in range(self.body_length)
            if self._byte_patterns[index].is_constant
        ]

    def variable_byte_positions(self) -> List[int]:
        """Indices of body bytes with at least one varying bit."""
        return [
            index
            for index in range(self.body_length)
            if not self._byte_patterns[index].is_constant
        ]

    def constant_runs(self, min_run: int = 1) -> List[Tuple[int, int]]:
        """Maximal runs of fully-constant body bytes as (start, length).

        Only runs of at least ``min_run`` bytes are reported; the paper's
        skip-table construction (Section 3.2.1) only skips runs at least as
        long as a machine word.
        """
        runs: List[Tuple[int, int]] = []
        index = 0
        while index < self.body_length:
            if self._byte_patterns[index].is_constant:
                start = index
                while (
                    index < self.body_length
                    and self._byte_patterns[index].is_constant
                ):
                    index += 1
                if index - start >= min_run:
                    runs.append((start, index - start))
            else:
                index += 1
        return runs

    def variable_runs(self) -> List[Tuple[int, int]]:
        """Maximal runs of non-constant body bytes as (start, length)."""
        runs: List[Tuple[int, int]] = []
        index = 0
        while index < self.body_length:
            if not self._byte_patterns[index].is_constant:
                start = index
                while (
                    index < self.body_length
                    and not self._byte_patterns[index].is_constant
                ):
                    index += 1
                runs.append((start, index - start))
            else:
                index += 1
        return runs

    def variable_bit_count(self) -> int:
        """Total number of varying bits in the fixed body.

        This is what decides whether **Pext** can build a bijection: the
        paper notes Pext is a bijection whenever the key has at most 64
        relevant bits (Section 4.2).
        """
        return sum(
            8 - bin(self._byte_patterns[index].const_mask).count("1")
            for index in range(self.body_length)
        )

    # -- matching ------------------------------------------------------------

    def matches(self, key: bytes) -> bool:
        """Check whether a concrete key conforms to this pattern."""
        if len(key) < self.min_length:
            return False
        if self.max_length is not None and len(key) > self.max_length:
            return False
        limit = min(len(key), self.num_bytes)
        return all(
            self._byte_patterns[index].matches(key[index])
            for index in range(limit)
        )

    def require_match(self, key: bytes) -> None:
        """Raise :class:`KeyFormatError` unless ``key`` fits the pattern."""
        if not self.matches(key):
            raise KeyFormatError(
                f"key {key!r} does not match pattern of length "
                f"[{self.min_length}, {self.max_length}]"
            )

    # -- masks ---------------------------------------------------------------

    def word_const_mask(self, offset: int, width: int = 8) -> Tuple[int, int]:
        """Little-endian (mask, value) template of ``width`` bytes at ``offset``.

        Bit 0 of the result corresponds to bit 0 of the byte at ``offset``,
        matching what :func:`repro.isa.memory.load_u64_le` produces, so the
        mask can be fed directly to ``pext``.
        """
        if offset < 0 or offset + width > self.num_bytes:
            raise ValueError(
                f"word [{offset}, {offset + width}) outside pattern "
                f"of {self.num_bytes} bytes"
            )
        mask = 0
        value = 0
        for index in range(width):
            byte = self._byte_patterns[offset + index]
            mask |= byte.const_mask << (8 * index)
            value |= byte.const_value << (8 * index)
        return mask, value
