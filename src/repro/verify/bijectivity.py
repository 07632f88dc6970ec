"""The bijectivity prover: certify or refute ``SynthesisPlan.bijective``.

The paper's headline safety property (Section 3.2.3, Figure 12) is that
a Pext plan whose format has at most 64 variable bits is a *bijection*
on conforming keys.  The planner records that as a boolean; this module
turns the boolean into a machine-checked theorem over the plan's actual
IR, in the translation-validation style of Alive2 (PAPERS.md): every
plan is re-proved, not trusted.

The proof goes through bit provenance (:mod:`repro.verify.absint`).
Lower the plan, abstractly interpret it under the format, peel any
invertible finalizer suffix (odd-multiplier ``mul64`` and
``x ^ (x >> s)`` rounds — each a 64-bit bijection), and inspect the
remaining core value:

- every hash bit may depend on **at most one** key bit (overlapping
  shift lanes would merge two provenances into one bit — refuted);
- no :data:`~repro.verify.absint.TAIL` influence (a variable-length
  tail folds unbounded bytes into 64 bits — never injective);
- every variable key bit of the format reaches the hash (a dead input
  bit means two conforming keys differing only there collide).

Together with the transfer functions' per-bit copy/negate semantics,
those conditions make the key recoverable from the hash, i.e. the
function injective on conforming keys.  Refutations carry
human-readable reasons; dead bits are reported separately because they
are a distribution bug even for plans that never claimed bijectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.codegen.ir import Instr, IRFunction, build_ir
from repro.core.pattern import KeyPattern
from repro.core.plan import SynthesisPlan
from repro.errors import SepeError
from repro.obs.trace import span
from repro.verify.absint import TAIL, AbstractResult, analyze_ir
from repro.verify.bit_report import (
    bit_report,
    resolve_pattern,
    variable_key_bits,
)

__all__ = ["BijectivityResult", "prove_bijectivity", "resolve_pattern"]


@dataclass(frozen=True)
class BijectivityResult:
    """Verdict of the prover on one plan.

    Attributes:
        certified: the plan is *proved* injective on conforming keys.
        claimed: what the planner recorded (``plan.bijective``).
        reasons: why certification failed (empty when certified).
        variable_bits: variable bits in the format, or ``None`` when no
            pattern was available.
        dead_bits: variable key-bit indices (``byte * 8 + bit``) that
            provably never influence the hash — a distribution bug.
        failed_preconditions: machine-readable refusal records, one per
            reason, each ``{"precondition": <stable-name>, ...detail}``
            — e.g. ``{"precondition": "too-many-variable-bits",
            "variable_bits": 71, "limit": 64}`` — so tooling can react
            to *which* proof obligation failed instead of parsing
            prose.
    """

    certified: bool
    claimed: bool
    reasons: Tuple[str, ...] = ()
    variable_bits: Optional[int] = None
    dead_bits: Tuple[int, ...] = ()
    failed_preconditions: Tuple[Dict, ...] = ()

    @property
    def refutes_claim(self) -> bool:
        """True when the planner claimed a bijection we cannot prove."""
        return self.claimed and not self.certified

    def to_dict(self) -> Dict:
        return {
            "certified": self.certified,
            "claimed": self.claimed,
            "refutes_claim": self.refutes_claim,
            "reasons": list(self.reasons),
            "variable_bits": self.variable_bits,
            "dead_bits": list(self.dead_bits),
            "failed_preconditions": [
                dict(entry) for entry in self.failed_preconditions
            ],
        }


def _variable_key_bits(pattern: KeyPattern) -> List[int]:
    """All variable bit indices — shared with :mod:`.bit_report`."""
    return variable_key_bits(pattern)


def _peel_invertible_suffix(
    func: IRFunction, result: AbstractResult
) -> Optional[str]:
    """Walk back through invertible finalizer steps from the return.

    Recognizes the two shapes :func:`repro.codegen.ir._emit_final_mix`
    emits — ``x * odd_constant`` and ``x ^ (x >> s)`` with ``s >= 1`` —
    both 64-bit bijections, so certifying the peeled core certifies the
    whole function.  Returns the core register name, or ``None`` when
    the return value is not a register.
    """
    defs: Dict[str, Instr] = {
        instr.dest: instr for instr in func.instrs if instr.opcode != "ret"
    }
    register = result.ret_register
    while register is not None:
        instr = defs.get(register)
        if instr is None:
            break
        if instr.opcode == "mul64" and instr.args[1] % 2 == 1:
            source = instr.args[0]
            register = source if isinstance(source, str) else None
            continue
        if instr.opcode == "xor":
            peeled = _peel_xorshift(instr, defs)
            if peeled is not None:
                register = peeled
                continue
        break
    return register


def _peel_xorshift(
    instr: Instr, defs: Dict[str, Instr]
) -> Optional[str]:
    """Match ``dest = x ^ (x >> s)`` in either operand order."""
    for source, other in (
        (instr.args[0], instr.args[1]),
        (instr.args[1], instr.args[0]),
    ):
        if not (isinstance(source, str) and isinstance(other, str)):
            continue
        shifted = defs.get(other)
        if (
            shifted is not None
            and shifted.opcode == "shr"
            and shifted.args[0] == source
            and shifted.args[1] >= 1
        ):
            return source
    return None


def prove_bijectivity(
    plan: SynthesisPlan,
    pattern: Optional[KeyPattern] = None,
    func: Optional[IRFunction] = None,
    result: Optional[AbstractResult] = None,
) -> BijectivityResult:
    """Certify or refute that ``plan`` is injective on conforming keys.

    Args:
        plan: the plan to judge.
        pattern: the key format; re-expanded from ``plan.pattern_regex``
            when omitted.
        func: pre-built IR for the plan (rebuilt when omitted).
        result: a pre-computed abstract interpretation of ``func`` under
            ``pattern`` (requires ``func``); computed when omitted.
    """
    with span("verify.bijectivity", family=plan.family.value):
        return _prove(plan, pattern, func, result)


def _prove(
    plan: SynthesisPlan,
    pattern: Optional[KeyPattern],
    func: Optional[IRFunction],
    result: Optional[AbstractResult],
) -> BijectivityResult:
    claimed = plan.bijective
    pattern = resolve_pattern(plan, pattern)
    reasons: List[str] = []
    failed: List[Dict] = []
    variable_bits: Optional[int] = None
    dead_bits: Tuple[int, ...] = ()

    def refuse(precondition: str, message: str, **detail) -> None:
        reasons.append(message)
        failed.append({"precondition": precondition, **detail})

    if pattern is None:
        refuse(
            "no-format",
            "no key format available (plan records no parsable regex)",
        )
        return BijectivityResult(
            False, claimed, tuple(reasons),
            failed_preconditions=tuple(failed),
        )
    variable_bits = pattern.variable_bit_count()
    if func is None:
        try:
            func = build_ir(plan, name="verify")
        except SepeError as error:
            refuse(
                "lowering-failed",
                f"plan fails to lower to IR: {error}",
                error=str(error),
            )
            return BijectivityResult(
                False, claimed, tuple(reasons), variable_bits,
                failed_preconditions=tuple(failed),
            )
    try:
        result = result or analyze_ir(func, pattern)
    except SepeError as error:
        refuse(
            "absint-failed",
            f"abstract interpretation failed: {error}",
            error=str(error),
        )
        return BijectivityResult(
            False, claimed, tuple(reasons), variable_bits,
            failed_preconditions=tuple(failed),
        )
    if result.ret is None:
        refuse("no-return", "function has no return value")
        return BijectivityResult(
            False, claimed, tuple(reasons), variable_bits,
            failed_preconditions=tuple(failed),
        )

    # Dead input bits are judged on the *returned* value: a variable key
    # bit absent there provably never reaches the hash, bijective or not.
    # The classification is the public bit_report, so the prover, the
    # dead-input-bits lint, and the perfect tier all see the same facts.
    dead = bit_report(plan, pattern, func=func, result=result).dead_bits
    dead_bits = dead
    if dead:
        preview = ", ".join(
            f"byte {bit // 8} bit {bit % 8}" for bit in dead[:4]
        )
        suffix = "..." if len(dead) > 4 else ""
        refuse(
            "dead-input-bits",
            f"{len(dead)} variable key bit(s) never reach the hash "
            f"({preview}{suffix})",
            count=len(dead),
            bits=list(dead[:16]),
        )

    if not plan.is_fixed_length or not pattern.is_fixed_length:
        refuse(
            "variable-length",
            "variable-length plans fold an arbitrary tail into 64 bits",
        )
    elif plan.key_length != pattern.body_length:
        refuse(
            "length-mismatch",
            f"plan key length {plan.key_length} != format body "
            f"{pattern.body_length}",
            plan_length=plan.key_length,
            format_length=pattern.body_length,
        )
    if variable_bits > 64:
        refuse(
            "too-many-variable-bits",
            f"format has {variable_bits} > 64 variable bits; 64-bit "
            f"hashes cannot be injective",
            variable_bits=variable_bits,
            limit=64,
        )

    core_register = _peel_invertible_suffix(func, result)
    core = (
        result.values.get(core_register)
        if core_register is not None
        else result.ret
    )
    if core is None:
        core = result.ret
    if core.width != 64:
        refuse(
            "core-width",
            f"core value is {core.width}-bit, expected 64",
            width=core.width,
        )
    else:
        overlaps = [
            (index, entry)
            for index, entry in enumerate(core.prov)
            if len(entry) > 1
        ]
        if overlaps:
            index, entry = overlaps[0]
            named = ", ".join(str(bit) for bit in sorted(entry, key=str)[:6])
            refuse(
                "overlapping-lanes",
                f"hash bit {index} is influenced by {len(entry)} key bits "
                f"({named}) — lanes overlap, so distinct keys can collide",
                hash_bit=index,
                influences=len(entry),
            )
        if any(TAIL in entry for entry in core.prov):
            if plan.is_fixed_length:
                refuse(
                    "tail-in-fixed",
                    "fixed-length plan folds tail bytes (malformed IR)",
                )
    return BijectivityResult(
        certified=not reasons,
        claimed=claimed,
        reasons=tuple(reasons),
        variable_bits=variable_bits,
        dead_bits=dead_bits,
        failed_preconditions=tuple(failed),
    )
