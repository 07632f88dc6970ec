"""Cold synthesis does each step once.

A strict ``synthesize`` lowers its plan once (``build_ir`` and
``optimize``), shares that lowering between the verifier and both
Python emitters, and abstractly interprets each IR under the format
once.  The memo lives on the plan object, so ``dataclasses.replace``
and a second synthesis lower afresh and the compile cache's hit and
miss counts stay what they were.  Byte classes come from a table.
"""

import hashlib
import json
import sys
from dataclasses import replace

import pytest

import repro.codegen.ir as ir_module
import repro.verify  # noqa: F401 - binds every lazily imported verifier
import repro.verify.absint as absint_module
from repro.codegen.cache import get_compile_cache, lower
from repro.core.pattern import BytePattern
from repro.core.plan import HashFamily
from repro.core.regex_expand import pattern_from_regex
from repro.core.synthesis import build_plan, synthesize
from repro.keygen.keyspec import KEY_TYPE_NAMES, KEY_TYPES

SSN = KEY_TYPES["SSN"].regex


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``, under
    every ``repro`` module that imported the function by name."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, name, None) is original
        ):
            monkeypatch.setattr(loaded, name, counting)
    return calls


class TestOnePass:
    @pytest.mark.parametrize("family", list(HashFamily))
    @pytest.mark.parametrize("key_type", ["SSN", "URL2"])
    def test_strict_synthesis_lowers_and_analyzes_once(
        self, monkeypatch, key_type, family
    ):
        get_compile_cache().clear()
        built = _count_calls(monkeypatch, ir_module, "build_ir")
        optimized = _count_calls(monkeypatch, ir_module, "optimize")
        analyzed = _count_calls(monkeypatch, absint_module, "analyze_ir")
        synthesized = synthesize(
            KEY_TYPES[key_type].regex, family, verify="strict"
        )
        synthesized.batch_function
        assert len(built) == 1
        assert len(optimized) == 1
        pairs = [
            (id(args[0]), id(args[1] if len(args) > 1 else kwargs["pattern"]))
            for args, kwargs in analyzed
        ]
        assert len(pairs) == len(set(pairs))
        raw = lower(synthesized.plan, optimized=False)
        assert pairs.count((id(raw), id(synthesized.pattern))) == 1

    def test_replace_lowers_afresh(self, monkeypatch):
        plan = build_plan(pattern_from_regex(SSN), HashFamily.PEXT)
        built = _count_calls(monkeypatch, ir_module, "build_ir")
        assert lower(plan) is lower(plan)
        mixed = replace(plan, final_mix=True)
        assert lower(mixed) is not lower(plan)
        assert len(built) == 2
        opcodes = [instr.opcode for instr in lower(mixed).instrs]
        assert "mul64" in opcodes
        assert "mul64" not in [instr.opcode for instr in lower(plan).instrs]

    def test_each_cold_synthesis_lowers_its_own_plan(self, monkeypatch):
        cache = get_compile_cache()
        hits = cache.stats()["hits"]
        built = _count_calls(monkeypatch, ir_module, "build_ir")
        plans = []
        for _ in range(2):
            cache.clear()
            synthesized = synthesize(SSN, HashFamily.PEXT, verify="strict")
            synthesized.batch_function
            plans.append(synthesized.plan)
        assert plans[0] == plans[1] and plans[0] is not plans[1]
        assert len(built) == 2
        assert cache.stats()["hits"] == hits


def _bitwise_byte_class(mask, value):
    """Every byte matching the template, by walking the submasks of its
    free bits (the reference the table must reproduce)."""
    free = ~mask & 0xFF
    subset, values = free, []
    while True:
        values.append(value | subset)
        if not subset:
            return sorted(values)
        subset = (subset - 1) & free


def test_possible_bytes_matches_bitwise_enumeration():
    for mask in range(256):
        for value in _bitwise_byte_class(~mask & 0xFF, 0):
            # ``value`` runs over every submask of ``mask``.
            assert BytePattern(mask, value).possible_bytes() == (
                _bitwise_byte_class(mask, value)
            )


# sha256 (first 16 hex digits) of the JSON of [scalar source, batch
# source, verify_plan(...).to_dict()] per format/family/final_mix,
# recorded while every consumer still lowered and analyzed the plan on
# its own.  Sharing those steps must not change a byte; a deliberate
# codegen or lint change re-records them with ``_digest``.
UNSHARED_DIGESTS = {
    "SSN/naive/0": "bd81ff1927b53932",
    "SSN/naive/1": "94ec18ae2629b743",
    "SSN/offxor/0": "fe17071fb4bc3c0e",
    "SSN/offxor/1": "977a87c9a7c98ad9",
    "SSN/aes/0": "106e5aa4c256cb73",
    "SSN/aes/1": "a3c3d1e257a6508f",
    "SSN/pext/0": "ac2ce645dec5e253",
    "SSN/pext/1": "7fa910d4f90a19dd",
    "CPF/naive/0": "040a6f562549a33d",
    "CPF/naive/1": "16db08dc10b12e54",
    "CPF/offxor/0": "38c283c633f39b6e",
    "CPF/offxor/1": "6ad5dba9e2cecf7d",
    "CPF/aes/0": "99fa3e0696ba7bb9",
    "CPF/aes/1": "b91379cd496b2d8e",
    "CPF/pext/0": "4d948aa5ac5cc609",
    "CPF/pext/1": "4387f2ff21953b10",
    "MAC/naive/0": "eec8a2e2e8e2520f",
    "MAC/naive/1": "2612174f097fed27",
    "MAC/offxor/0": "64ba37cba63fff78",
    "MAC/offxor/1": "181e9303b7628549",
    "MAC/aes/0": "a1768a1782a5ed54",
    "MAC/aes/1": "e8c26cbad1efdf7c",
    "MAC/pext/0": "80cdd037129c0dd7",
    "MAC/pext/1": "ba18603d6a3e4357",
    "IPV4/naive/0": "f1960fe9bf38afcf",
    "IPV4/naive/1": "88411833dd54fd08",
    "IPV4/offxor/0": "8f593c3b39765ae5",
    "IPV4/offxor/1": "76573b13a9d38105",
    "IPV4/aes/0": "4effeed04f2699c4",
    "IPV4/aes/1": "945b5c80c0fe2afd",
    "IPV4/pext/0": "3ee7f8af896b341f",
    "IPV4/pext/1": "b11dc9c644687a2e",
    "IPV6/naive/0": "1d21510fd220604c",
    "IPV6/naive/1": "34e235a6a98bb9a9",
    "IPV6/offxor/0": "7c5634f42d93d5ab",
    "IPV6/offxor/1": "ff01728adea98366",
    "IPV6/aes/0": "aa0fc6a7707a93fc",
    "IPV6/aes/1": "20cfac2773b17031",
    "IPV6/pext/0": "d19578d23cf10119",
    "IPV6/pext/1": "de8cf7500ba6285b",
    "INTS/naive/0": "bc936a1951a81656",
    "INTS/naive/1": "bc5bffbe22a4ad72",
    "INTS/offxor/0": "22fde377861a495a",
    "INTS/offxor/1": "133f6015a7009e8f",
    "INTS/aes/0": "fd993ab6118d21f4",
    "INTS/aes/1": "3169232f1c90ab25",
    "INTS/pext/0": "b6b0f4d30ccdc741",
    "INTS/pext/1": "1c18ad3b3fd4e5c8",
    "URL1/naive/0": "e01c18ec9401b737",
    "URL1/naive/1": "307c818d811ef9ac",
    "URL1/offxor/0": "9bc30956f8c3cd0e",
    "URL1/offxor/1": "0d222c024f85a25e",
    "URL1/aes/0": "a810563cf0c3fff3",
    "URL1/aes/1": "c19473fd6e07ee34",
    "URL1/pext/0": "8082cb7a3dedef9d",
    "URL1/pext/1": "d64b157c7d96654b",
    "URL2/naive/0": "83d5e48d80b89af4",
    "URL2/naive/1": "34ae42c295e75a04",
    "URL2/offxor/0": "43210c6da8b8c64c",
    "URL2/offxor/1": "693e936c152056d9",
    "URL2/aes/0": "410eb2639995eed1",
    "URL2/aes/1": "7bfe7a3dfe8db5af",
    "URL2/pext/0": "d2a05e8161a1ba80",
    "URL2/pext/1": "22ef436c40bb14d8",
}


def _digest(key_type, family, final_mix):
    synthesized = synthesize(
        KEY_TYPES[key_type].regex,
        family,
        final_mix=final_mix,
        verify="strict",
    )
    batch = get_compile_cache().batch(
        synthesized.plan, name=f"{synthesized.name}_many"
    )
    blob = json.dumps(
        [
            synthesized.python_source,
            batch.source,
            synthesized.verification.to_dict(),
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def test_digest_table_covers_every_case():
    assert set(UNSHARED_DIGESTS) == {
        f"{key_type}/{family.value}/{mix}"
        for key_type in KEY_TYPE_NAMES
        for family in HashFamily
        for mix in (0, 1)
    }


@pytest.mark.parametrize("case", sorted(UNSHARED_DIGESTS))
def test_sources_and_verification_unchanged(case):
    key_type, family, mix = case.split("/")
    assert _digest(key_type, HashFamily(family), bool(int(mix))) == (
        UNSHARED_DIGESTS[case]
    )
