"""Parity and property tests for the bitwise-parallel inference engine.

The contract under test: every fast path — big-int folding, NumPy column
reduction, chunked/merged accumulators — produces *byte-for-byte* the
same join as the reference per-quad implementation
(:func:`repro.core.quads.join_keys`), on every corpus shape we can
think of plus randomized fuzz corpora.
"""

from __future__ import annotations

import random

import pytest

from repro.core.fast_infer import (
    ENGINE_BIGINT,
    ENGINE_NUMPY,
    PatternAccumulator,
    as_key_bytes,
    choose_engine,
    join_keys_bigint,
    join_keys_fast,
    join_keys_numpy,
)
from repro.core.inference import (
    _coverage_report_reference,
    coverage_report,
    infer_pattern,
    infer_pattern_from_file,
)
from repro.core.quads import join_keys, quads_const_mask
from repro.errors import EmptyKeySetError


def random_corpus(rng, n, min_len, max_len, alphabet=None):
    keys = []
    for _ in range(n):
        length = rng.randint(min_len, max_len)
        if alphabet:
            keys.append(bytes(rng.choice(alphabet) for _ in range(length)))
        else:
            keys.append(bytes(rng.randrange(256) for _ in range(length)))
    return keys


ADVERSARIAL_CORPORA = [
    [b"JFK", b"LAX", b"GRU"],
    [b"JFK", b"JFKL"],                      # prefix relationship
    [b"JFKL", b"JFK"],                      # ...in the other order
    [b"a"],                                  # single key
    [b""],                                   # single empty key
    [b"", b"abc", b"ab"],                    # empty key in a mixed set
    [b"\x00" * 12] * 7,                      # empty-byte (NUL) heavy
    [b"\x00" * 12, b"\x00" * 11 + b"\x01"],  # NULs with one varying bit
    [b"\xff" * 16] * 3,                      # 0xFF-heavy, all constant
    [b"\xff" * 16, b"\xfe" + b"\xff" * 15],  # 0xFF-heavy, one bit varies
    [b"\xff\x00" * 8, b"\x00\xff" * 8],      # alternating saturation
    [b"same-length-1", b"same-length-2"],
    [bytes([i]) for i in range(256)],        # every byte value, length 1
]


class TestJoinParity:
    @pytest.mark.parametrize("keys", ADVERSARIAL_CORPORA)
    def test_bigint_matches_reference_adversarial(self, keys):
        assert join_keys_bigint(keys) == join_keys(keys)

    @pytest.mark.parametrize("keys", ADVERSARIAL_CORPORA)
    def test_auto_engine_matches_reference_adversarial(self, keys):
        assert join_keys_fast(keys) == join_keys(keys)

    @pytest.mark.parametrize(
        "keys",
        [corpus for corpus in ADVERSARIAL_CORPORA
         if len({len(key) for key in corpus}) == 1 and corpus[0]],
    )
    def test_numpy_matches_reference_adversarial(self, keys):
        assert join_keys_numpy(keys) == join_keys(keys)

    def test_empty_corpus_joins_empty(self):
        assert join_keys_fast([]) == []
        assert join_keys_bigint([]) == []

    def test_fuzz_mixed_length_corpora(self):
        rng = random.Random(1234)
        for round_index in range(30):
            keys = random_corpus(rng, rng.randint(1, 80), 0, 12)
            reference = join_keys(keys)
            assert join_keys_bigint(keys) == reference, round_index
            assert join_keys_fast(keys) == reference, round_index

    def test_fuzz_structured_corpora(self):
        # Low-entropy alphabets freeze many quads: the interesting case.
        rng = random.Random(99)
        for alphabet in (b"01", b"0123456789", b"abcdef", b"\x00\xff"):
            for _ in range(10):
                keys = random_corpus(rng, 50, 6, 6, alphabet=alphabet)
                reference = join_keys(keys)
                assert join_keys_bigint(keys) == reference
                assert join_keys_numpy(keys) == reference

    def test_fuzz_numpy_equal_length(self):
        rng = random.Random(7)
        for length in (1, 2, 7, 8, 9, 16, 33):
            keys = random_corpus(rng, 100, length, length)
            assert join_keys_numpy(keys) == join_keys(keys)

    def test_numpy_engine_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            join_keys_numpy([b"ab", b"abc"])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            join_keys_fast([b"ab"], engine="quantum")

    def test_choose_engine_prefers_numpy_for_large_uniform(self):
        keys = [b"abcd"] * 100
        assert choose_engine(keys) == ENGINE_NUMPY
        assert choose_engine([b"ab", b"abc"] * 50) == ENGINE_BIGINT
        assert choose_engine([b"abcd"] * 3) == ENGINE_BIGINT

    def test_reference_engine_is_selectable(self):
        keys = [b"JFK", b"LAX"]
        assert join_keys_fast(keys, engine="reference") == join_keys(keys)


class TestPatternAccumulator:
    def test_chunked_updates_equal_one_shot(self):
        rng = random.Random(5)
        keys = random_corpus(rng, 90, 0, 10)
        one_shot = PatternAccumulator().update(keys)
        chunked = PatternAccumulator()
        for start in range(0, len(keys), 7):
            chunked.update(keys[start : start + 7])
        assert chunked.joined_quads() == one_shot.joined_quads()
        assert chunked.joined_quads() == join_keys(keys)
        assert chunked.count == len(keys)

    def test_merge_equals_union(self):
        rng = random.Random(6)
        for _ in range(20):
            left = random_corpus(rng, rng.randint(0, 40), 0, 9)
            right = random_corpus(rng, rng.randint(1, 40), 0, 9)
            merged = (
                PatternAccumulator()
                .update(left)
                .merge(PatternAccumulator().update(right))
            )
            assert merged.joined_quads() == join_keys(left + right)

    def test_merge_is_commutative(self):
        a_keys = [b"abcdef", b"abcxyz"]
        b_keys = [b"ab", b"abcd0f"]
        ab = (
            PatternAccumulator().update(a_keys)
            .merge(PatternAccumulator().update(b_keys))
        )
        ba = (
            PatternAccumulator().update(b_keys)
            .merge(PatternAccumulator().update(a_keys))
        )
        assert ab.joined_quads() == ba.joined_quads()
        assert ab.finish() == ba.finish()

    def test_merge_with_empty_is_identity(self):
        acc = PatternAccumulator().update([b"JFK", b"LAX"])
        before = acc.joined_quads()
        acc.merge(PatternAccumulator())
        assert acc.joined_quads() == before
        empty = PatternAccumulator()
        empty.merge(acc)
        assert empty.joined_quads() == before

    def test_finish_builds_the_inferred_pattern(self):
        keys = [b"abc", b"abcd", b"ab"]
        pattern = PatternAccumulator().update(keys).finish()
        assert pattern == infer_pattern(keys)
        assert pattern.min_length == 2
        assert pattern.max_length == 4

    def test_finish_empty_raises(self):
        with pytest.raises(EmptyKeySetError):
            PatternAccumulator().finish()

    def test_accepts_str_keys(self):
        acc = PatternAccumulator().update(["JFK", "LAX"])
        assert acc.joined_quads() == join_keys([b"JFK", b"LAX"])

    def test_rejects_non_key_types(self):
        with pytest.raises(TypeError):
            PatternAccumulator().update([123])

    def test_shorter_key_truncates_state_any_order(self):
        # min-length truncation must commute with every arrival order.
        keys = [b"longestkey", b"long", b"longer01"]
        expected = join_keys(keys)
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0]):
            acc = PatternAccumulator()
            for index in order:
                acc.update([keys[index]])
            assert acc.joined_quads() == expected

    def test_state_round_trip(self):
        acc = PatternAccumulator().update([b"abc", b"abd", b"ab"])
        restored = PatternAccumulator.from_state(acc.state())
        assert restored.joined_quads() == acc.joined_quads()
        assert restored.count == acc.count
        restored.update([b"zz"])
        assert restored.joined_quads() == join_keys(
            [b"abc", b"abd", b"ab", b"zz"]
        )

    def test_bulk_numpy_update_matches_scalar(self):
        rng = random.Random(11)
        keys = random_corpus(rng, 300, 8, 8)
        bulk = PatternAccumulator().update(keys)            # bulk path
        scalar = PatternAccumulator().update(
            keys, engine=ENGINE_BIGINT
        )
        assert bulk.joined_quads() == scalar.joined_quads()
        assert bulk.count == scalar.count == len(keys)

    def test_saturated_corpus_early_exit_stays_exact(self):
        # Every bit varies quickly; the fold may stop XORing but the
        # result and the length bookkeeping must stay exact.
        rng = random.Random(12)
        keys = random_corpus(rng, 10_000, 6, 6)
        keys.append(b"\x00" * 6)
        keys.append(b"\xff" * 6)
        keys.append(b"tail-is-longer")
        assert join_keys_bigint(keys) == join_keys(keys)


class TestRewiredInference:
    def test_infer_pattern_engines_agree(self):
        keys = ["000-00", "555-55", "123-45"]
        reference = infer_pattern(keys, engine="reference")
        assert infer_pattern(keys) == reference
        assert infer_pattern(keys, engine="bigint") == reference

    def test_infer_pattern_from_file_streams(self, tmp_path):
        rng = random.Random(31)
        keys = [
            "".join(rng.choice("0123456789abcdef") for _ in range(12))
            for _ in range(500)
        ]
        path = tmp_path / "keys.txt"
        path.write_text("\n".join(keys) + "\n\n", encoding="utf-8")
        assert infer_pattern_from_file(str(path)) == infer_pattern(keys)

    def test_infer_pattern_from_file_empty_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(EmptyKeySetError):
            infer_pattern_from_file(str(path))

    def test_coverage_report_numpy_parity(self):
        rng = random.Random(41)
        corpora = [
            random_corpus(rng, 400, 6, 6),
            random_corpus(rng, 400, 0, 9),
            [b"\xff" * 4] * 300,
        ]
        for keys in corpora:
            assert coverage_report(keys) == _coverage_report_reference(keys)

    def test_coverage_report_small_corpus(self):
        assert coverage_report(["ab", "ac", "ad"]) == [1, 3]
        assert coverage_report(["ab", "a"]) == [1, 1]

    def test_as_key_bytes(self):
        assert as_key_bytes("J") == b"J"
        assert as_key_bytes(bytearray(b"J")) == b"J"
        with pytest.raises(TypeError):
            as_key_bytes(3.14)


class TestDispatcherRegisterExamples:
    def test_register_examples_routes_conforming_keys(self):
        from repro.core.dispatch import FormatDispatcher

        dispatcher = FormatDispatcher()
        synthesized = dispatcher.register_examples(
            ["123-45-6789", "987-65-4321", "000-11-2222"]
        )
        assert dispatcher.format_count == 1
        assert dispatcher(b"555-66-7777") == synthesized.function(
            b"555-66-7777"
        )
        stats = dispatcher.stats()
        assert stats["total_routes"] == 1
        assert stats["fallback_routes"] == 0

    def test_register_examples_empty_raises(self):
        from repro.core.dispatch import FormatDispatcher

        with pytest.raises(EmptyKeySetError):
            FormatDispatcher().register_examples([])


class TestQuadsConstMaskRegression:
    @staticmethod
    def _naive(quads):
        mask = 0
        value = 0
        for quad in quads:
            mask <<= 2
            value <<= 2
            if quad is not None:
                mask |= 3
                value |= quad
        return mask, value

    def test_matches_naive_on_fuzzed_patterns(self):
        rng = random.Random(51)
        for _ in range(100):
            quads = [
                rng.choice([None, 0, 1, 2, 3])
                for _ in range(rng.randint(0, 70))
            ]
            assert quads_const_mask(quads) == self._naive(quads)

    def test_long_pattern_fast_and_exact(self):
        # The old implementation shifted a growing big int per quad —
        # quadratic for patterns of thousands of quads.  4 * 4096 quads
        # must both finish promptly and agree with the naive fold.
        quads = ([0, 3, None, 2] * 4096)
        assert quads_const_mask(quads) == self._naive(quads)

    def test_partial_leading_group(self):
        assert quads_const_mask([0, 3]) == (15, 3)
        assert quads_const_mask([None, 3]) == (3, 3)
        assert quads_const_mask([2, None, 1, 0, 3]) == self._naive(
            [2, None, 1, 0, 3]
        )

    def test_empty(self):
        assert quads_const_mask([]) == (0, 0)
