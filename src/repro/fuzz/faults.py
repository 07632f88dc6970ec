"""Deliberate fault injection — the fuzzer's own smoke test.

A fuzzer that has never caught a bug is unfalsifiable.  This module
plants known bugs in the pipeline so the test suite can assert the
whole find→shrink→persist machinery actually fires: inject a fault, run
the harness, and demand a minimized reproducer comes out the other end.

Faults are context managers that monkey-patch one implementation and
restore it on exit, so they compose with any harness invocation and
never leak into other tests.  Each fault is *conditional* (keyed off a
property of the input) rather than unconditional, because a bug that
fires on every key shrinks trivially — the conditional form exercises
the shrinker's actual search.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.codegen import interp as interp_module
from repro.core.synthesis import SynthesizedHash

FAULT_KINDS = ("interp-bitflip", "batch-flip")


@contextmanager
def injected_fault(kind: str) -> Iterator[None]:
    """Plant one known bug for the duration of the block.

    - ``interp-bitflip`` — the IR interpreter flips the low bit of its
      result for keys whose last byte is odd, so every differential
      oracle that trusts the interpreter sees a divergence.
    - ``batch-flip`` — ``SynthesizedHash.hash_many`` perturbs the final
      element of any batch larger than one, the classic off-by-one that
      batch-vs-scalar oracles exist to catch.

    Raises:
        ValueError: for an unknown fault kind.
    """
    if kind == "interp-bitflip":
        # ``interpret`` looks _interpret up at call time, so patching the
        # module attribute poisons every oracle that consults it; the
        # compile cache is unaffected because compiled callables never
        # route through the interpreter.
        original = interp_module._interpret

        def flipped(func, key, registers=None):
            result = original(func, key, registers)
            if key and key[-1] & 1:
                result ^= 1
            return result

        interp_module._interpret = flipped
        try:
            yield
        finally:
            interp_module._interpret = original
    elif kind == "batch-flip":
        original_many = SynthesizedHash.hash_many

        def corrupted(self, keys):
            values = list(original_many(self, keys))
            if len(values) > 1:
                values[-1] ^= 0x2
            return values

        SynthesizedHash.hash_many = corrupted
        try:
            yield
        finally:
            SynthesizedHash.hash_many = original_many
    else:
        raise ValueError(
            f"unknown fault kind {kind!r}; known: {', '.join(FAULT_KINDS)}"
        )
