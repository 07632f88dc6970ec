"""A reference interpreter for the hash IR.

The Python backend compiles IR to source; this module *executes* the IR
directly.  It exists for differential testing: for any plan and key, the
interpreter and the compiled function must agree bit for bit, which
pins the backend's lowering (pext run-decomposition, shift masking,
tail loops) against an independent, dead-simple evaluator.

Each opcode's concrete semantics is written once, as an entry of
:data:`STEPS` — ``step(registers, args, key) -> int``, where an ``int``
argument in an operand position is an immediate and a ``str`` names a
register.  Two loops walk that one table:

- :func:`interpret` (and :func:`interpret_registers`) — the oracle;
- :func:`interpret_profiled_many` — the same walk with chained
  per-instruction timestamps for the performance observatory
  (:mod:`repro.obs.profile`), so opcode self-times sum to the loop's
  elapsed time by construction.

It is deliberately slow and obvious, because its value is as an oracle,
not an engine.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.codegen.ir import AES_ROUND_KEY, IRFunction
from repro.isa.aes import aesenc
from repro.isa.bits import MASK64, pext, rotl64
from repro.obs.trace import span

Step = Callable[[Dict[str, int], tuple, bytes], int]


def _get(registers: Dict[str, int], arg) -> int:
    """An operand: an ``int`` is an immediate, a ``str`` a register."""
    return arg if isinstance(arg, int) else registers[arg]


def _tail_xor(registers, args, key) -> int:
    acc = _get(registers, args[0])
    position = args[1]
    length = len(key)
    while position + 8 <= length:
        acc ^= int.from_bytes(key[position : position + 8], "little")
        position += 8
    if position < length:
        acc ^= int.from_bytes(key[position:length], "little")
    return acc


def _aes_absorb(registers, args, key) -> int:
    state, lo, hi = (_get(registers, arg) for arg in args)
    return aesenc(state ^ (lo | (hi << 64)), AES_ROUND_KEY)


def _aes_fold(registers, args, key) -> int:
    value = _get(registers, args[0])
    return (value ^ (value >> 64)) & MASK64


STEPS: Dict[str, Step] = {
    "const": lambda r, a, k: a[0],
    "load64": lambda r, a, k: int.from_bytes(k[a[0] : a[0] + a[1]], "little"),
    "pext": lambda r, a, k: pext(_get(r, a[0]), a[1]),
    "shl": lambda r, a, k: (_get(r, a[0]) << a[1]) & MASK64,
    "shr": lambda r, a, k: _get(r, a[0]) >> a[1],
    "mul64": lambda r, a, k: (_get(r, a[0]) * a[1]) & MASK64,
    "rotl": lambda r, a, k: rotl64(_get(r, a[0]), a[1]),
    "xor": lambda r, a, k: _get(r, a[0]) ^ _get(r, a[1]),
    "or": lambda r, a, k: _get(r, a[0]) | _get(r, a[1]),
    "add": lambda r, a, k: (_get(r, a[0]) + _get(r, a[1])) & MASK64,
    "aes_absorb": _aes_absorb,
    "aes_fold": _aes_fold,
    "tail_xor": _tail_xor,
    "ret": lambda r, a, k: _get(r, a[0]),
}
"""Concrete semantics of every IR opcode; ``ret``'s value is the result."""


def interpret(func: IRFunction, key: bytes) -> int:
    """Evaluate an IR function on a key.

    Raises:
        ValueError: on an unknown opcode or a function without ``ret``.
    """
    with span("codegen.interp", function=func.name):
        return _interpret(func, key)


def interpret_registers(func: IRFunction, key: bytes):
    """Evaluate like :func:`interpret`, also exposing the registers.

    Returns ``(value, registers)`` where ``registers`` maps every
    register assigned before the return to its concrete 64-bit value.
    The dataflow soundness oracle compares this environment against the
    analyzer's abstract values register by register — the return value
    alone would let an unsound intermediate fact hide behind a sound
    final one.
    """
    registers: Dict[str, int] = {}
    return _interpret(func, key, registers), registers


def _interpret(
    func: IRFunction,
    key: bytes,
    registers: Optional[Dict[str, int]] = None,
) -> int:
    if registers is None:
        registers = {}
    for instr in func.instrs:
        op = instr.opcode
        step = STEPS.get(op)
        if step is None:
            raise ValueError(f"unknown IR opcode: {op}")
        value = step(registers, instr.args, key)
        if op == "ret":
            return value
        registers[instr.dest] = value
    raise ValueError("IR function fell off the end without ret")


def interpret_profiled_many(
    func: IRFunction, keys, stats: Dict[str, list]
) -> tuple:
    """Evaluate an IR function on many keys under per-opcode timing.

    Semantics are identical to mapping :func:`interpret` over ``keys``;
    on top of that, every instruction's wall and per-thread CPU cost is
    accumulated into ``stats`` — a mapping ``opcode -> [count,
    wall_seconds, cpu_seconds]`` mutated in place so one dict can
    aggregate across several calls.

    Timestamps are *chained*: one ``perf_counter``/``thread_time`` pair
    is read per instruction boundary and each delta is attributed to the
    instruction that just executed.  The chain runs across keys, so
    per-key setup (register dict, loop advance) and the profiler's own
    accounting land inside the next instruction's window rather than
    escaping measurement: attributed self-times sum to the returned
    totals exactly, and only entry/exit bookkeeping (a few hundred
    nanoseconds per *corpus*, not per key) is outside them.

    Returns:
        ``(values, wall_seconds, cpu_seconds)`` — the hash values plus
        the evaluation's total elapsed wall/CPU time (entry to exit).

    Raises:
        ValueError: on an unknown opcode or a function without ``ret``.
    """
    values = []
    append = values.append
    instrs = func.instrs
    cpu_entry = cpu_prev = time.thread_time()
    wall_entry = wall_prev = time.perf_counter()
    for key in keys:
        registers: Dict[str, int] = {}
        for instr in instrs:
            op = instr.opcode
            step = STEPS.get(op)
            if step is None:
                raise ValueError(f"unknown IR opcode: {op}")
            value = step(registers, instr.args, key)
            cpu_now = time.thread_time()
            wall_now = time.perf_counter()
            entry = stats.get(op)
            if entry is None:
                entry = stats[op] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += wall_now - wall_prev
            entry[2] += cpu_now - cpu_prev
            wall_prev = wall_now
            cpu_prev = cpu_now
            if op == "ret":
                append(value)
                break
            registers[instr.dest] = value
        else:
            raise ValueError("IR function fell off the end without ret")
    return values, wall_prev - wall_entry, cpu_prev - cpu_entry
