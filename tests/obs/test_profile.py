"""Tests for per-opcode profiling and span self-time trees."""

import pytest

from repro.codegen.interp import interpret, interpret_profiled_many
from repro.codegen.ir import build_ir, optimize
from repro.core.plan import HashFamily
from repro.core.regex_expand import pattern_from_regex
from repro.core.synthesis import build_plan, synthesize
from repro.core.validate import sample_conforming_keys
from repro.obs import capture_spans
from repro.obs.profile import (
    profile_batch,
    profile_format,
    profile_interp,
    render_profile,
    render_self_time_tree,
    self_time_tree,
    stage_self_times,
)
from repro.obs.trace import SpanRecord

SSN = r"\d{3}-\d{2}-\d{4}"
FAMILIES = [
    HashFamily.NAIVE,
    HashFamily.OFFXOR,
    HashFamily.AES,
    HashFamily.PEXT,
]


def _keys(synthesized, count=200, seed=0):
    return sample_conforming_keys(synthesized.pattern, count, seed=seed)


class TestProfiledInterpreter:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_parity_with_plain_interpreter(self, family):
        synthesized = synthesize(SSN, family)
        func = optimize(build_ir(synthesized.plan))
        keys = _keys(synthesized, count=64)
        stats = {}
        values, wall, cpu = interpret_profiled_many(func, keys, stats)
        assert values == [interpret(func, key) for key in keys]
        assert wall > 0 and cpu >= 0

    def test_stats_accumulate_across_calls(self):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        func = optimize(build_ir(synthesized.plan))
        keys = _keys(synthesized, count=16)
        stats = {}
        interpret_profiled_many(func, keys, stats)
        first = {op: entry[0] for op, entry in stats.items()}
        interpret_profiled_many(func, keys, stats)
        assert all(entry[0] == 2 * first[op] for op, entry in stats.items())

    def test_self_times_sum_to_internal_totals(self):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        func = optimize(build_ir(synthesized.plan))
        stats = {}
        _values, wall, cpu = interpret_profiled_many(
            func, _keys(synthesized, count=400), stats
        )
        attributed = sum(entry[1] for entry in stats.values())
        assert attributed == pytest.approx(wall, rel=1e-9)
        attributed_cpu = sum(entry[2] for entry in stats.values())
        assert attributed_cpu == pytest.approx(cpu, rel=1e-9)

    def test_tail_xor_parity(self):
        synthesized = synthesize(r"abcdefgh[0-9]{4}.*", HashFamily.OFFXOR)
        func = optimize(build_ir(synthesized.plan))
        assert "tail_xor" in {instr.opcode for instr in func.instrs}
        keys = [b"abcdefgh1234" + b"x" * extra for extra in range(20)]
        stats = {}
        values, _wall, _cpu = interpret_profiled_many(func, keys, stats)
        assert values == [interpret(func, key) for key in keys]
        assert stats["tail_xor"][0] == len(keys)

    def test_immediate_operand_parity(self):
        from repro.codegen.ir import IRFunction

        plan = build_plan(pattern_from_regex(r"\d{8}"), HashFamily.NAIVE)
        func = IRFunction("imm", plan)
        word = func.emit("load64", (0, 8))
        mixed = func.emit("xor", (word, 0x5A5A))
        summed = func.emit("add", (0xFFFFFFFFFFFFFFFF, mixed))
        folded = func.emit("tail_xor", (summed, 8))
        func.emit_ret(folded)
        constant = IRFunction("imm_ret", plan)
        constant.emit_ret(0x1234)
        keys = [b"12345678", b"87654321", b"12345678tail"]
        for subject in (func, constant):
            values, _wall, _cpu = interpret_profiled_many(subject, keys, {})
            assert values == [interpret(subject, key) for key in keys]
        assert interpret(constant, keys[0]) == 0x1234

    def test_unknown_opcode_raises(self):
        import dataclasses

        synthesized = synthesize(SSN, HashFamily.NAIVE)
        func = optimize(build_ir(synthesized.plan))
        bogus = dataclasses.replace(func.instrs[0], opcode="bogus")
        func.instrs[0] = bogus
        with pytest.raises(ValueError, match="unknown IR opcode"):
            interpret_profiled_many(func, [b"123-45-6789"], {})


class TestProfileReports:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_interp_coverage_bounds(self, family):
        """Acceptance: opcode self-times are ≤100% and ≥95% of wall."""
        synthesized = synthesize(SSN, family)
        report = profile_interp(synthesized, _keys(synthesized, count=500))
        assert report.mode == "interp"
        assert 0.95 <= report.coverage <= 1.001
        assert report.attributed_wall <= report.harness_wall * 1.001

    def test_counts_match_instruction_schedule(self):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        count = 120
        report = profile_interp(synthesized, _keys(synthesized, count))
        func = optimize(build_ir(synthesized.plan))
        expected = {}
        for instr in func.instrs:
            expected[instr.opcode] = expected.get(instr.opcode, 0) + 1
        for opcode, stat in report.opcodes.items():
            assert stat.count == expected[opcode] * count

    def test_hot_ranking_and_dict_shape(self):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        report = profile_interp(synthesized, _keys(synthesized, count=100))
        hot = report.hot()
        walls = [stat.wall_seconds for stat in hot]
        assert walls == sorted(walls, reverse=True)
        document = report.to_dict()
        assert document["keys"] == 100
        assert document["opcodes"][0]["opcode"] == hot[0].opcode
        assert 0.0 < document["coverage"] <= 1.001

    def test_profile_format_end_to_end(self):
        report = profile_format(SSN, count=200, seed=3)
        assert report.keys == 200
        assert report.family == "pext"
        text = render_profile(report)
        assert "hot opcode" in text
        assert "pext" in text

    def test_profile_batch_vectorizes_fixed_length(self):
        pytest.importorskip("numpy")
        synthesized = synthesize(SSN, HashFamily.PEXT)
        report = profile_batch(synthesized, _keys(synthesized, count=300))
        assert report.mode == "vector"
        # Vector attribution covers the kernel work plus an explicit
        # batch-setup pseudo-stage; the bar is a little lower than the
        # interpreter's because timestamps bracket whole array ops.
        assert report.coverage >= 0.85
        assert "(batch setup)" in report.opcodes

    @pytest.mark.parametrize("family", FAMILIES)
    def test_profile_batch_times_the_kernel_schedule(self, family):
        synthesized = synthesize(SSN, family)
        report = profile_batch(synthesized, _keys(synthesized, count=300))
        assert report.mode == "vector"
        assert report.coverage >= 0.85
        # Every instruction of the batch kernel runs once per batch.
        expected = {"(batch setup)": 1}
        for instr in optimize(build_ir(synthesized.plan)).instrs:
            expected[instr.opcode] = expected.get(instr.opcode, 0) + 1
        counts = {op: stat.count for op, stat in report.opcodes.items()}
        assert counts == expected

    def test_profile_batch_below_vector_minimum_uses_interp(self):
        from repro.codegen.batch import VECTOR_MIN_KEYS

        synthesized = synthesize(SSN, HashFamily.PEXT)
        keys = _keys(synthesized, count=8)
        assert len(keys) < VECTOR_MIN_KEYS
        report = profile_batch(synthesized, keys)
        assert report.mode == "interp"
        assert "(batch setup)" not in report.opcodes

    def test_profile_batch_falls_back_for_variable_length(self):
        synthesized = synthesize(r"[a-z]+@corp\.com", HashFamily.OFFXOR)
        keys = _keys(synthesized, count=50)
        report = profile_batch(synthesized, keys)
        assert report.mode == "interp"


def _record(span_id, parent_id, name, started, wall, cpu=None):
    return SpanRecord(
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        depth=0,
        started=started,
        wall_seconds=wall,
        cpu_seconds=wall if cpu is None else cpu,
        thread="main",
    )


class TestSelfTimeTree:
    def test_self_time_subtracts_direct_children(self):
        records = [
            _record(1, None, "root", 0.0, 1.0),
            _record(2, 1, "child_a", 0.1, 0.3),
            _record(3, 1, "child_b", 0.5, 0.2),
            _record(4, 2, "grandchild", 0.15, 0.1),
        ]
        tree = self_time_tree(records)
        assert len(tree) == 1
        root = tree[0]
        assert root["self_wall"] == pytest.approx(0.5)
        child_a = root["children"][0]
        assert child_a["name"] == "child_a"
        assert child_a["self_wall"] == pytest.approx(0.2)

    def test_orphan_parent_becomes_root(self):
        records = [_record(7, 99, "orphan", 0.0, 0.4)]
        tree = self_time_tree(records)
        assert tree[0]["name"] == "orphan"
        assert tree[0]["self_wall"] == pytest.approx(0.4)

    def test_stage_totals_aggregate_by_name(self):
        records = [
            _record(1, None, "stage", 0.0, 0.5),
            _record(2, None, "stage", 1.0, 0.25),
        ]
        totals = stage_self_times(records)
        assert totals["stage"]["calls"] == 2
        assert totals["stage"]["wall_seconds"] == pytest.approx(0.75)

    def test_render_over_real_synthesis_spans(self):
        from repro.codegen.cache import get_compile_cache

        get_compile_cache().clear()
        with capture_spans() as sink:
            synthesize(SSN, HashFamily.PEXT)
        text = render_self_time_tree(sink.records())
        assert "synthesize" in text
        assert "self" in text
