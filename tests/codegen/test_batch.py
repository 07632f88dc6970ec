"""Differential tests for the batch backend.

The reference interpreter is the oracle: for every family and every
lowering tier (vectorized, generated loop, list comprehension) the
batched result must equal ``[interpret(func, k) for k in keys]``
bit for bit.
"""

import random

import pytest

from repro.codegen.batch import (
    VECTOR_MIN_KEYS,
    _expression_body,
    compile_plan_batch,
    emit_python_batch,
)
from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir, optimize
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.keygen.distributions import Distribution
from repro.keygen.generator import generate_keys
from repro.keygen.keyspec import KEY_TYPES

FIXED_FORMATS = ("SSN", "MAC", "IPV4", "IPV6")
VARIABLE_REGEX = r"[0-9a-f]{8,23}"  # odd lengths: exercises tail_xor


def reference(plan, keys):
    func = optimize(build_ir(plan, name="ref"))
    return [interpret(func, key) for key in keys]


def fixed_keys(key_type, count=64, seed=11):
    return generate_keys(key_type, count, Distribution.UNIFORM, seed=seed)


def variable_keys(count=64, seed=11):
    rng = random.Random(seed)
    alphabet = b"0123456789abcdef"
    return [
        bytes(rng.choice(alphabet) for _ in range(rng.randrange(8, 24)))
        for _ in range(count)
    ]


class TestBatchParityFixedLength:
    @pytest.mark.parametrize("key_type", FIXED_FORMATS)
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_matches_interpreter(self, key_type, family):
        plan = synthesize(KEY_TYPES[key_type].regex, family).plan
        keys = fixed_keys(key_type)
        batch = compile_plan_batch(plan, name="hash_many")
        assert batch(keys) == reference(plan, keys)

    @pytest.mark.parametrize("family", list(HashFamily))
    def test_loop_form_matches_interpreter(self, family):
        """The non-vectorized tier, forced, against the same oracle."""
        plan = synthesize(KEY_TYPES["SSN"].regex, family).plan
        keys = fixed_keys("SSN")
        batch = compile_plan_batch(plan, name="hash_many", vectorize=False)
        assert batch(keys) == reference(plan, keys)

    @pytest.mark.parametrize("family", list(HashFamily))
    def test_small_batch_guard_path(self, family):
        """Below VECTOR_MIN_KEYS the generated guard takes the loop
        fallback inside the vectorized function; results must agree."""
        plan = synthesize(KEY_TYPES["MAC"].regex, family).plan
        keys = fixed_keys("MAC", count=VECTOR_MIN_KEYS - 1)
        batch = compile_plan_batch(plan, name="hash_many")
        assert batch(keys) == reference(plan, keys)

    def test_empty_batch(self):
        plan = synthesize(KEY_TYPES["SSN"].regex, HashFamily.PEXT).plan
        batch = compile_plan_batch(plan, name="hash_many")
        assert batch([]) == []

    def test_matches_scalar_synthesis(self):
        synthesized = synthesize(KEY_TYPES["IPV4"].regex, HashFamily.PEXT)
        keys = fixed_keys("IPV4")
        assert synthesized.hash_many(keys) == [
            synthesized(key) for key in keys
        ]


class TestBatchParityVariableLength:
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_tail_xor_matches_interpreter(self, family):
        plan = synthesize(VARIABLE_REGEX, family).plan
        assert not plan.is_fixed_length
        keys = variable_keys()
        batch = compile_plan_batch(plan, name="hash_many")
        assert batch(keys) == reference(plan, keys)

    def test_variable_length_never_vectorizes(self):
        plan = synthesize(VARIABLE_REGEX, HashFamily.NAIVE).plan
        func = optimize(build_ir(plan, name="hash_many"))
        assert "_np" not in emit_python_batch(func, "hash_many")


class TestVectorTier:
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_fixed_length_emits_vector_source(self, family):
        plan = synthesize(KEY_TYPES["SSN"].regex, family).plan
        func = optimize(build_ir(plan, name="hash_many"))
        source = emit_python_batch(func, "hash_many")
        assert "_np.frombuffer" in source
        # The loop form rides along as the guard's fallback.
        assert "def _hash_many_rows(" in source

    @pytest.mark.parametrize("key_type", FIXED_FORMATS)
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_vector_equals_loop_form(self, key_type, family):
        plan = synthesize(KEY_TYPES[key_type].regex, family).plan
        keys = fixed_keys(key_type, count=VECTOR_MIN_KEYS * 4)
        vector = compile_plan_batch(plan, name="hash_many")
        loop = compile_plan_batch(plan, name="hash_many", vectorize=False)
        assert vector(keys) == loop(keys)

    def test_non_conforming_lengths_fall_back(self):
        """Keys of the wrong length can't reshape into the lane matrix;
        the generated guard must route them through the loop form rather
        than raise or mis-hash."""
        plan = synthesize(KEY_TYPES["SSN"].regex, HashFamily.NAIVE).plan
        keys = fixed_keys("SSN", count=VECTOR_MIN_KEYS * 2)
        keys[3] = keys[3] + b"X"  # 12 bytes among 11-byte keys
        batch = compile_plan_batch(plan, name="hash_many")
        assert batch(keys) == reference(plan, keys)


class TestComprehensionForm:
    def test_naive_collapses_to_expression(self):
        plan = synthesize(KEY_TYPES["SSN"].regex, HashFamily.NAIVE).plan
        func = optimize(build_ir(plan, name="hash_many"))
        assert _expression_body(func) is not None
        source = emit_python_batch(func, "hash_many", vectorize=False)
        assert "for key in keys]" in source

    def test_pext_does_not_collapse(self):
        """Multi-run pext masks reference a register several times, so
        substitution would duplicate work; the loop form must win."""
        plan = synthesize(KEY_TYPES["SSN"].regex, HashFamily.PEXT).plan
        func = optimize(build_ir(plan, name="hash_many"))
        source = emit_python_batch(func, "hash_many", vectorize=False)
        assert "_append(" in source


class TestOrderingAndTypes:
    def test_results_align_with_input_order(self):
        plan = synthesize(KEY_TYPES["MAC"].regex, HashFamily.OFFXOR).plan
        keys = fixed_keys("MAC", count=128)
        batch = compile_plan_batch(plan, name="hash_many")
        results = batch(keys)
        shuffled = list(keys)
        random.Random(3).shuffle(shuffled)
        remapped = dict(zip(keys, results))
        assert batch(shuffled) == [remapped[key] for key in shuffled]

    def test_returns_plain_python_ints(self):
        """Downstream container code does modulo and comparisons on the
        results; numpy scalars would silently change semantics."""
        plan = synthesize(KEY_TYPES["SSN"].regex, HashFamily.AES).plan
        keys = fixed_keys("SSN", count=VECTOR_MIN_KEYS * 2)
        for value in compile_plan_batch(plan, name="hash_many")(keys):
            assert type(value) is int
            assert 0 <= value < 1 << 64
