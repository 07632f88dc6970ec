"""Structural tests for the C++ backend (no C++ toolchain assumed)."""

import pytest

from repro.codegen.cpp_backend import (
    emit_cpp,
    emit_cpp_native,
    emit_skip_table_cpp,
)
from repro.core.plan import (
    CombineOp,
    HashFamily,
    LoadOp,
    SkipTable,
    SynthesisPlan,
)
from repro.core.synthesis import synthesize
from repro.errors import SynthesisError


def make_plan(family=HashFamily.OFFXOR, combine=CombineOp.XOR, **overrides):
    defaults = dict(
        family=family,
        key_length=16,
        loads=(LoadOp(0), LoadOp(8)),
        skip_table=None,
        combine=combine,
        total_variable_bits=128,
        bijective=False,
        pattern_regex=r"\d{16}",
    )
    defaults.update(overrides)
    return SynthesisPlan(**defaults)


class TestHeaders:
    def test_x86_includes(self):
        source = emit_cpp(make_plan(), "x86")
        for header in ("cstddef", "cstdint", "cstring", "string"):
            assert f"#include <{header}>" in source
        assert "#include <immintrin.h>" in source
        assert "std::memcpy" in source
        assert "struct synthesizedOffxorHash {" in source
        assert "size_t operator()(const std::string& key) const" in source

    def test_aarch64_includes(self):
        source = emit_cpp(make_plan(), "aarch64")
        assert "#include <arm_neon.h>" in source

    def test_format_in_comment(self):
        source = emit_cpp(make_plan(), "x86")
        assert r"\d{16}" in source

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            emit_cpp(make_plan(), "riscv")


class TestWordStruct:
    def test_struct_name_by_family(self):
        assert "struct synthesizedOffxorHash" in emit_cpp(make_plan())
        assert "struct synthesizedNaiveHash" in emit_cpp(
            make_plan(family=HashFamily.NAIVE)
        )

    def test_loads_present(self):
        source = emit_cpp(make_plan())
        assert "sepe_load_u64_le(ptr + 0)" in source
        assert "sepe_load_u64_le(ptr + 8)" in source

    def test_pext_intrinsic_and_mask(self):
        plan = make_plan(
            family=HashFamily.PEXT,
            loads=(LoadOp(0, mask=0x0F0F), LoadOp(8, mask=0x0F, shift=8)),
            combine=CombineOp.OR,
        )
        source = emit_cpp(plan, "x86")
        assert "_pext_u64" in source
        assert "0xf0f" in source
        assert "<<= 8" in source

    def test_pext_rejected_on_aarch64(self):
        plan = make_plan(family=HashFamily.PEXT)
        with pytest.raises(SynthesisError):
            emit_cpp(plan, "aarch64")

    def test_or_vs_xor_combine(self):
        assert " ^ " in emit_cpp(make_plan(combine=CombineOp.XOR))
        assert " | " in emit_cpp(make_plan(combine=CombineOp.OR))

    def test_partial_width_uses_memcpy(self):
        plan = make_plan(
            key_length=4,
            loads=(LoadOp(0, width=4),),
            short_key=True,
        )
        source = emit_cpp(plan)
        assert "std::memcpy(&h0, ptr + 0, 4)" in source

    def test_variable_length_tail_loop(self):
        table = SkipTable(initial_offset=0, skips=(8,))
        plan = make_plan(key_length=None, skip_table=table, loads=(LoadOp(0),))
        source = emit_cpp(plan)
        assert "while (p + 8 <= end)" in source


class TestAesStruct:
    def test_x86_aesenc(self):
        plan = make_plan(family=HashFamily.AES, combine=CombineOp.AESENC)
        source = emit_cpp(plan, "x86")
        assert "_mm_aesenc_si128" in source
        assert "__m128i" in source

    def test_aarch64_neon_aes(self):
        plan = make_plan(family=HashFamily.AES, combine=CombineOp.AESENC)
        source = emit_cpp(plan, "aarch64")
        assert "vaeseq_u8" in source
        assert "vaesmcq_u8" in source

    def test_odd_loads_duplicated(self):
        plan = make_plan(
            family=HashFamily.AES,
            combine=CombineOp.AESENC,
            loads=(LoadOp(0),),
            key_length=8,
        )
        source = emit_cpp(plan, "x86")
        # The single word at offset 0 appears twice in the absorbed pair.
        assert source.count("sepe_load_u64_le(ptr + 0)") == 2


class TestSkipTableEmission:
    def test_structure(self):
        table = SkipTable(initial_offset=4, skips=(8, 16, 8))
        plan = make_plan(key_length=None, skip_table=table, loads=(LoadOp(4),))
        source = emit_skip_table_cpp(plan)
        assert "sepe_skip[] = {4, 8, 16, 8}" in source
        assert "for (size_t c = 1; c <= 3; ++c)" in source

    def test_requires_table(self):
        with pytest.raises(SynthesisError):
            emit_skip_table_cpp(make_plan())


class TestBalancedOutput:
    @pytest.mark.parametrize("target", ["x86", "aarch64"])
    @pytest.mark.parametrize(
        "family", [HashFamily.NAIVE, HashFamily.OFFXOR, HashFamily.AES]
    )
    def test_braces_balanced(self, target, family):
        combine = (
            CombineOp.AESENC if family is HashFamily.AES else CombineOp.XOR
        )
        source = emit_cpp(make_plan(family=family, combine=combine), target)
        assert source.count("{") == source.count("}")
        assert source.count("(") == source.count(")")


class TestNativeUnit:
    """The JIT unit spells its primitives with builtins, not headers."""

    @pytest.mark.parametrize("family", list(HashFamily))
    @pytest.mark.parametrize(
        "regex",
        [r"\d{3}-\d{2}-\d{4}", r"\d{8,24}", r"[a-f0-9]{12}:[a-f0-9]{4,12}"],
    )
    def test_header_free_on_x86(self, family, regex):
        plan = synthesize(regex, family).plan
        source = emit_cpp_native(plan, "x86")
        assert "#include" not in source
        assert "std::string" not in source
        assert "_pext_u64" not in source
        assert "__m128i" not in source
        assert 'extern "C" uint64_t sepe_native_hash(' in source
        assert 'extern "C" void sepe_native_hash_many(' in source
        if family is HashFamily.AES:
            assert "__builtin_ia32_aesenc128" in source
        if family is not HashFamily.PEXT:
            arm = emit_cpp_native(plan, "aarch64")
            assert "std::" not in arm
            includes = [
                line for line in arm.splitlines() if "#include" in line
            ]
            expected = (
                ["#include <arm_neon.h>"]
                if family is HashFamily.AES
                else []
            )
            assert includes == expected

    def test_shares_the_core_with_the_paper_unit(self):
        plan = synthesize(r"\d{8,24}", HashFamily.PEXT).plan
        paper = emit_cpp(plan, "x86")
        native = emit_cpp_native(plan, "x86")
        assert "__builtin_ia32_pext_di(h0, 0xf0f0f0f0f0f0f0fULL)" in native
        assert "_pext_u64(h0, UINT64_C(0xf0f0f0f0f0f0f0f))" in paper
        cores = [
            source[source.index("sepe_hash_core(") :].split("\n}\n")[0]
            for source in (paper, native)
        ]
        assert len(cores[0].splitlines()) == len(cores[1].splitlines())
        assert "while (p + 8 <= end)" in cores[1]
