"""Translation validation for the IR optimizer.

Instead of trusting :func:`repro.codegen.ir.optimize`, validate each of
its outputs (the Alive2 approach from PAPERS.md, scaled down to this
IR): abstractly interpret the function before and after the rewrite and
require the *return values* to agree exactly — same known-bit masks,
same per-bit provenance, same width.  Because the optimizer only drops
dead code, any divergence at all means it deleted something live.

Registers shared by both versions must agree too; the optimizer renames
nothing, so a surviving register computing a different abstract value is
equally a miscompile.  A successful validation is per-function — it
certifies this run of the optimizer on this plan, not the pass in
general, which is exactly the guarantee the pipeline needs.
"""

from __future__ import annotations

from typing import Optional

from repro.codegen.ir import IRFunction
from repro.core.pattern import KeyPattern
from repro.errors import SepeError
from repro.obs.trace import span
from repro.verify.absint import AbstractResult, AbstractValue, analyze_ir

__all__ = ["translation_validate"]


def _describe(value: Optional[AbstractValue]) -> str:
    if value is None:
        return "<no return value>"
    return (
        f"width={value.width} zeros={value.zeros:#x} ones={value.ones:#x} "
        f"influence={sorted(value.influence(), key=str)}"
    )


def translation_validate(
    before: IRFunction,
    after: IRFunction,
    pattern: Optional[KeyPattern] = None,
    original: Optional[AbstractResult] = None,
) -> Optional[str]:
    """Check that ``after`` computes the same abstract value as ``before``.

    Returns ``None`` when the rewrite is proved equivalent under the
    abstract semantics, or a human-readable counterexample description
    when it is not (including when either version fails to analyze).
    ``original``, when given, is ``before`` already analyzed under
    ``pattern``.
    """
    with span("verify.tv", function=before.name):
        try:
            original = original or analyze_ir(before, pattern)
        except SepeError as error:
            return f"original function fails abstract interpretation: {error}"
        try:
            rewritten = analyze_ir(after, pattern)
        except SepeError as error:
            return f"optimized function fails abstract interpretation: {error}"
        if (original.ret is None) != (rewritten.ret is None):
            return (
                "return value mismatch: "
                f"{_describe(original.ret)} vs {_describe(rewritten.ret)}"
            )
        if original.ret != rewritten.ret:
            return (
                "optimizer changed the abstract return value: "
                f"{_describe(original.ret)} vs {_describe(rewritten.ret)}"
            )
        shared = set(original.values) & set(rewritten.values)
        for register in sorted(shared):
            if original.values[register] != rewritten.values[register]:
                return (
                    f"register {register!r} diverges after optimization: "
                    f"{_describe(original.values[register])} vs "
                    f"{_describe(rewritten.values[register])}"
                )
        return None
