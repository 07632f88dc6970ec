"""Batch backend: hash many keys with one generated call.

The scalar backend (:mod:`repro.codegen.python_backend`) already removes
per-byte loops, but every *call* still pays CPython's function-call
overhead: frame setup, argument binding, dispatcher routing.  At the
paper's key sizes (8–32 formatted bytes) that fixed cost dominates
H-Time, the same per-invocation regime Thorup's "High Speed Hashing"
describes and the reason HighwayHash amortizes across SIMD lanes.

Three lowerings, strongest applicable wins:

- **Vectorized** (fixed-length plans): the batch is
  joined into one buffer, reshaped ``(n, key_length)``, and every IR
  instruction is applied to a whole *column of keys* as a ``uint64``
  lane array — loads become strided views, pext runs / shifts / xors
  become single array ops, and the AES round becomes T-table gathers
  over index arrays.  This is lane parallelism in the HighwayHash
  sense: per-key interpreter cost drops to (a share of) a handful of
  array operations.  A generated guard falls back to the loop form for
  tiny batches and non-conforming key lengths, so semantics never
  change.
- **List comprehension** (Naive/OffXor, every intermediate used once):
  the body collapses to one expression evaluated in a comprehension —
  CPython's specialized frame, no per-key ``append`` call.
- **Generated loop** (everything else, and the fallback body): the same
  unrolled scalar body inside ``for key in keys``, with ``ret`` lowered
  to a bound ``append``.

The vector body is produced per IR instruction
(:func:`_emit_vector_lines`), so :func:`repro.obs.profile.profile_batch`
can time this kernel's own statements, group by group.

Differential tests (:mod:`tests.codegen.test_batch`) pin
``hash_many(keys) == [interpret(func, k) for k in keys]`` for all four
families, on both the vector and loop paths.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.codegen.ir import AES_ROUND_KEY, IRFunction, build_ir, optimize
from repro.codegen.python_backend import (
    _AES_GATHER,
    MASK64,
    _pext_expression,
    compile_source,
    emit_body_lines,
    statement_rhs,
)
from repro.core.plan import HashFamily, SynthesisPlan
from repro.obs.trace import span

BatchHashCallable = Callable[[Sequence[bytes]], List[int]]

_COMPREHENSION_FAMILIES = (HashFamily.NAIVE, HashFamily.OFFXOR)

VECTOR_MIN_KEYS = 16
"""Below this batch size the generated guard takes the loop fallback:
array setup costs more than it amortizes."""


_INLINABLE = ("const", "load64", "shl", "shr", "mul64", "xor", "or", "add")
"""Opcodes whose right-hand side references each operand once."""


def _expression_body(func: IRFunction) -> Optional[str]:
    """Render the whole body as one expression, or None if impossible.

    Substitution is only safe when every intermediate register is
    consumed exactly once (else the inlined expression would recompute
    work the statement form shares) and every opcode's right-hand side
    (:func:`repro.codegen.python_backend.statement_rhs`) references its
    operand once.  That covers the Naive/OffXor load/xor chains;
    ``pext`` (multi-run masks reference the source once per run),
    ``rotl``/``aes_fold`` (two references), ``tail_xor`` and
    ``aes_absorb`` (statements) all bail out.
    """
    uses: Dict[str, int] = {}
    for instr in func.instrs:
        for arg in instr.args:
            if isinstance(arg, str):
                uses[arg] = uses.get(arg, 0) + 1
    exprs: Dict[str, str] = {}
    for instr in func.instrs:
        op, dest = instr.opcode, instr.dest
        args = tuple(
            exprs[arg] if isinstance(arg, str) else arg for arg in instr.args
        )
        if op == "ret":
            return args[0]
        if op not in _INLINABLE or uses.get(dest, 0) > 1:
            return None
        rhs = statement_rhs(op, args)
        exprs[dest] = rhs if op in ("const", "load64") else f"({rhs})"
    return None


def _signature(name: str) -> str:
    return f"def {name}(keys, _ifb=int.from_bytes, _aes=_aesenc):"


def _loop_form_lines(func: IRFunction, name: str) -> List[str]:
    """The per-key forms: comprehension when safe, else generated loop."""
    lines = [_signature(name)]
    expression = (
        _expression_body(func)
        if func.plan.family in _COMPREHENSION_FAMILIES
        else None
    )
    if expression is not None:
        lines.append(f"    return [{expression} for key in keys]")
        return lines
    lines.extend(
        [
            "    out = []",
            "    _append = out.append",
            "    for key in keys:",
        ]
    )
    lines.extend(
        emit_body_lines(func, indent="        ", ret_template="_append({0})")
    )
    lines.append("    return out")
    return lines


def _emit_vector_aes_absorb(
    dest: str, state: str, lo: str, hi: str, wide: set
) -> List[str]:
    """Lane-pair AES round: the 128-bit state as two uint64 arrays.

    Mirrors the scalar backend's T-table lowering
    (``python_backend._emit_aes_absorb``) with the 128-bit ``_x`` split
    into ``_xl``/``_xh`` — valid because the round is xor/lookup only,
    no carries cross the lane boundary.
    """
    state_lo = f"{state}_lo" if state in wide else f"({state} & {hex(MASK64)})"
    state_hi = f"{state}_hi" if state in wide else f"({state} >> 64)"
    lines = [
        f"    _xl = {state_lo} ^ {lo}",
        f"    _xh = {state_hi} ^ {hi}",
    ]
    columns: List[str] = []
    for col in range(4):
        terms = []
        for row in range(4):
            shift = 8 * _AES_GATHER[col][row]
            if shift < 64:
                extract = (
                    "_xl & 0xff" if shift == 0 else f"(_xl >> {shift}) & 0xff"
                )
            else:
                shift -= 64
                extract = (
                    "_xh & 0xff" if shift == 0 else f"(_xh >> {shift}) & 0xff"
                )
            terms.append(f"_T{row}V[{extract}]")
        columns.append(" ^ ".join(terms))
    lines.append(f"    _c0 = {columns[0]}")
    lines.append(f"    _c1 = {columns[1]}")
    lines.append(f"    _c2 = {columns[2]}")
    lines.append(f"    _c3 = {columns[3]}")
    round_lo = AES_ROUND_KEY & MASK64
    round_hi = AES_ROUND_KEY >> 64
    lines.append(f"    {dest}_lo = (_c0 | (_c1 << 32)) ^ {hex(round_lo)}")
    lines.append(f"    {dest}_hi = (_c2 | (_c3 << 32)) ^ {hex(round_hi)}")
    return lines


def _emit_vector_arith(
    lines: List[str], op: str, dest: str, args: tuple
) -> None:
    """Emit one vectorizable arithmetic op over uint64 lane arrays.

    No ``& MASK64`` is emitted: uint64 arrays wrap modulo 2**64 by
    construction, which is exactly the scalar semantics the masks
    implement for Python ints.
    """
    if op == "pext":
        lines.append(f"    {dest} = {_pext_expression(args[0], args[1])}")
    elif op == "shl":
        lines.append(f"    {dest} = {args[0]} << {args[1]}")
    elif op == "shr":
        lines.append(f"    {dest} = {args[0]} >> {args[1]}")
    elif op == "mul64":
        lines.append(f"    {dest} = {args[0]} * _u64({hex(args[1])})")
    elif op == "rotl":
        amount = args[1]
        lines.append(
            f"    {dest} = ({args[0]} << {amount}) | "
            f"({args[0]} >> {64 - amount})"
        )
    elif op == "xor":
        lines.append(f"    {dest} = {args[0]} ^ {args[1]}")
    elif op == "or":
        lines.append(f"    {dest} = {args[0]} | {args[1]}")
    elif op == "add":
        lines.append(f"    {dest} = {args[0]} + {args[1]}")


class _VectorKernel(NamedTuple):
    """The vector tier's source, grouped per IR instruction.

    :func:`_emit_batch_lines` joins the parts into the kernel;
    :func:`repro.obs.profile.profile_batch` compiles the same parts
    with a timestamp after each group.
    """

    prologue: List[str]
    """Module-level bindings: NumPy and the AES T-tables."""
    setup: List[str]
    """Statements before the first instruction: size and length guards
    (each falls back to ``_<name>_rows``), the join, the byte matrix."""
    groups: List[Tuple[str, List[str]]]
    """``(opcode, statements)`` per IR instruction, in order."""


def _emit_vector_lines(func: IRFunction, name: str) -> Optional[_VectorKernel]:
    """Vectorized body over uint64 lane arrays, or None when inapplicable.

    Only fixed-length plans qualify (variable-length needs the per-key
    tail loop); any opcode outside the vectorizable set, or a return of
    a compile-time scalar, bails to the loop form.
    """
    plan = func.plan
    if not plan.is_fixed_length:
        return None
    length = plan.key_length
    groups: List[Tuple[str, List[str]]] = []
    wide: set = set()  # registers holding 128-bit lane pairs
    scalars: set = set()  # registers holding per-plan (not per-key) ints
    uses_aes = any(instr.opcode == "aes_absorb" for instr in func.instrs)
    returned: Optional[str] = None
    for instr in func.instrs:
        op, dest, args = instr.opcode, instr.dest, instr.args
        lines: List[str] = []
        if op == "const":
            value = args[0]
            if value >= 1 << 64:
                wide.add(dest)
                lines.append(f"    {dest}_lo = {hex(value & MASK64)}")
                lines.append(f"    {dest}_hi = {hex(value >> 64)}")
            else:
                scalars.add(dest)
                lines.append(f"    {dest} = {hex(value)}")
        elif op == "load64":
            offset, width = args
            if width == 8:
                lines.append(
                    f"    {dest} = _np.ascontiguousarray("
                    f"_a[:, {offset}:{offset + 8}]).view('<u8').ravel()"
                )
            else:
                lines.extend(
                    [
                        "    _wb = _np.zeros((n, 8), dtype=_np.uint8)",
                        f"    _wb[:, :{width}] = "
                        f"_a[:, {offset}:{offset + width}]",
                        f"    {dest} = _wb.view('<u8').ravel()",
                    ]
                )
        elif op in ("pext", "shl", "shr", "mul64", "rotl", "xor", "or", "add"):
            # uint64 lane arrays wrap implicitly, so the emitted ops
            # carry no `& MASK64`.  A per-plan Python-int operand would
            # break that invariant (ints don't wrap), and a 128-bit lane
            # pair can't flow through plain arithmetic — degrade both to
            # the loop form.
            register_args = [arg for arg in args if isinstance(arg, str)]
            if any(arg in scalars or arg in wide for arg in register_args):
                return None
            _emit_vector_arith(lines, op, dest, args)
        elif op == "aes_absorb":
            state, lo, hi = args
            if lo in scalars or hi in scalars:
                return None
            lines.extend(_emit_vector_aes_absorb(dest, state, lo, hi, wide))
            wide.add(dest)
        elif op == "aes_fold":
            source = args[0]
            if source not in wide:
                return None
            lines.append(f"    {dest} = {source}_lo ^ {source}_hi")
        elif op == "ret":
            returned = args[0]
            if returned in scalars or returned in wide:
                return None
            lines.append(f"    return {returned}.tolist()")
        else:
            return None
        groups.append((op, lines))
    if returned is None:
        return None
    prologue = [
        "import numpy as _np",
        "_u64 = _np.uint64",
    ]
    if uses_aes:
        prologue.extend(
            f"_T{i}V = _np.asarray(_T{i}, dtype=_np.uint64)"
            for i in range(4)
        )
    setup = [
        "    n = len(keys)",
        f"    if n < {VECTOR_MIN_KEYS}:",
        f"        return _{name}_rows(keys)",
        "    buf = b''.join(keys)",
        f"    if len(buf) != n * {length}:",
        f"        return _{name}_rows(keys)",
        f"    _a = _np.frombuffer(buf, dtype=_np.uint8).reshape(n, {length})",
    ]
    return _VectorKernel(prologue, setup, groups)


def emit_python_batch(
    func: IRFunction, name: str, vectorize: bool = True
) -> str:
    """Render an IR function as batched Python source defining ``name``.

    The emitted function takes a sequence of ``bytes`` keys and returns
    a list of 64-bit ints, in order.

    Args:
        vectorize: allow the NumPy lane-array lowering (the default;
            skipped when the plan does not qualify).  Pass False to
            force the loop form, e.g. for differential tests of both
            tiers.
    """
    with span(
        "codegen.python.emit_batch",
        function=name,
        instrs=len(func.instrs),
    ):
        return _emit_batch_lines(func, name, vectorize)


def _emit_batch_lines(func: IRFunction, name: str, vectorize: bool) -> str:
    doc = f"Batched {func.plan.family.value} hash"
    if func.plan.pattern_regex:
        doc += f" for format {func.plan.pattern_regex!r}"
    kernel = _emit_vector_lines(func, name) if vectorize else None
    if kernel is None:
        lines = _loop_form_lines(func, name)
        lines.insert(1, f'    """{doc}."""')
        return "\n".join(lines) + "\n"
    # Vector tier: the loop form rides along as `_<name>_rows`, the
    # generated guard's fallback for tiny or non-conforming batches.
    lines = _loop_form_lines(func, f"_{name}_rows")
    lines.append("")
    lines.extend(kernel.prologue)
    lines.append(_signature(name))
    lines.append(f'    """{doc} (vectorized)."""')
    lines.extend(kernel.setup)
    for _opcode, group in kernel.groups:
        lines.extend(group)
    return "\n".join(lines) + "\n"


def compile_plan_batch(
    plan: SynthesisPlan,
    name: str = "sepe_hash_many",
    vectorize: bool = True,
) -> BatchHashCallable:
    """Lower a plan to a callable ``hash_many(keys) -> list[int]``."""
    func = optimize(build_ir(plan, name=name))
    return compile_source(emit_python_batch(func, name, vectorize), name)
