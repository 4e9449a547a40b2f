"""Cycle-counting interpreter for the virtual R2000.

Executes a linked :class:`~repro.pipeline.linker.Executable`, counting
cycles with per-opcode latencies and classifying memory traffic by the
:class:`MemKind` tags the code generator attached -- the reproduction's
``pixie``.

The instruction stream is pre-decoded once per executable into flat int
tuples (cached on the executable) and interpreted by an integer-dispatch
loop; this keeps whole-benchmark simulations in the millions of
instructions per second range, fast enough to regenerate the paper's
tables in seconds.  Latencies and which opcodes write ``rd`` come from
the opcode table (:data:`~repro.target.isa.OPS`), but each opcode's
value is written out by hand in the dispatch loop: the loop is the
oracle the table's value templates, and the translator built from
them, are tested against.

An optional *contract checker* maintains a shadow call stack and verifies,
at every return, that the callee preserved exactly the registers its
compilation plan promised to preserve (all callee-saved registers under
the default convention; everything outside the usage summary for closed
procedures under IPRA), and that sp and the return pc are intact.  This
dynamically validates the whole save/restore scheme on real executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.arith import MachineTrap, sdiv, srem
from repro.pipeline.linker import Executable
from repro.sim.stats import RunStats
from repro.target.isa import MemKind, Opcode, OPS, srl
from repro.target.registers import (
    ALL_REGISTERS,
    AT0,
    AT1,
    AT2,
    NUM_REGISTERS,
    RA,
    SP,
    ZERO,
)

DEFAULT_STACK_WORDS = 1 << 16
DEFAULT_MAX_CYCLES = 2_000_000_000

_SCRATCH_MASK = (1 << AT0.index) | (1 << AT1.index) | (1 << AT2.index)

# dense opcode numbering for the dispatch loop
_OPNUM: Dict[Opcode, int] = {op: i for i, op in enumerate(Opcode)}
_KINDNUM: Dict[MemKind, int] = {k: i for i, k in enumerate(MemKind)}
_KINDS: List[MemKind] = list(MemKind)
_LAT: List[int] = [OPS[op].latency for op in Opcode]

(_ADD, _SUB, _MUL, _DIV, _REM, _AND, _OR, _XOR, _SLL, _SRL, _SRA, _SLT,
 _SLE, _SEQ, _SNE, _ADDI, _LI, _LA, _MOVE, _NEG, _NOT, _LW, _SW, _B,
 _BEQZ, _BNEZ, _JAL, _JALR, _JR, _PRINT, _HALT) = (
    _OPNUM[op] for op in Opcode
)

#: ``rd`` slot that discards writes to $zero.  Decoding redirects any
#: write whose destination is register 0 here, so the hot loop never
#: needs the per-instruction ``regs[0] = 0`` reset: the register array
#: simply carries one extra scratch word past the architected file.
DUMP_INDEX = NUM_REGISTERS


class ContractViolation(AssertionError):
    """The simulated program broke a calling-convention contract."""


@dataclass
class _Frame:
    func: str
    return_pc: int
    sp: int
    snapshot: Tuple[int, ...]
    preserve_mask: int


def _decode(exe: Executable) -> List[Tuple[int, int, int, int, int, int]]:
    """Flatten instructions to (opnum, rd, rs, rt, imm, kind) int tuples."""
    decoded = []
    for ins in exe.instrs:
        op = _OPNUM[ins.op]
        rd = ins.rd.index if ins.rd is not None else 0
        if rd == 0 and OPS[ins.op].writes:
            rd = DUMP_INDEX  # $zero is hardwired: discard the write
        decoded.append((
            op,
            rd,
            ins.rs.index if ins.rs is not None else 0,
            ins.rt.index if ins.rt is not None else 0,
            ins.imm if ins.imm is not None else 0,
            _KINDNUM[ins.kind] if ins.kind is not None else 0,
        ))
    return decoded


def decoded_stream(exe: Executable) -> List[Tuple[int, int, int, int, int, int]]:
    """The executable's decoded instruction stream, cached on ``exe``
    (shared by the interpreter and the trace translator)."""
    code = getattr(exe, "_decoded", None)
    if code is None:
        code = _decode(exe)
        exe._decoded = code  # type: ignore[attr-defined]
    return code


def run_program(
    exe: Executable,
    stack_words: int = DEFAULT_STACK_WORDS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    check_contracts: bool = False,
    block_counts: Optional[Dict[int, int]] = None,
) -> RunStats:
    """Execute ``exe`` until HALT; returns the collected statistics.

    Raises :class:`MachineTrap` on run-time faults (bad address, divide
    by zero, cycle budget exceeded) and :class:`ContractViolation` when
    ``check_contracts`` is set and a convention is broken.

    ``block_counts`` enables block-level profiling: pass a dict
    pre-seeded with the pcs of interest (usually block-start labels) and
    each visit increments the entry -- the profile-feedback extension's
    data source.
    """
    mem_size = exe.data_size + stack_words
    mem: List[int] = [0] * mem_size
    for a, v in exe.data_init.items():
        mem[a] = v
    # one extra slot past the architected file swallows writes to $zero
    regs: List[int] = [0] * (NUM_REGISTERS + 1)
    regs[SP.index] = mem_size
    return interpret(
        exe, exe.entry_pc, regs, mem, [], 0, max_cycles,
        check_contracts, block_counts,
    )


def interpret(
    exe: Executable,
    pc: int,
    regs: List[int],
    mem: List[int],
    output: List[int],
    cycles: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    check_contracts: bool = False,
    block_counts: Optional[Dict[int, int]] = None,
) -> RunStats:
    """Interpret ``exe`` from ``pc`` until HALT, on the machine state
    ``regs`` (``NUM_REGISTERS + 1`` slots), ``mem`` and ``output`` with
    ``cycles`` already spent -- :func:`run_program`'s loop, which the
    trace translator also resumes when a trace's budget test trips.

    The returned statistics count what this call executed; their
    ``cycles`` is the running total and their ``output`` is ``output``.
    Traps and ``block_counts`` are as in :func:`run_program`.
    """
    code = decoded_stream(exe)
    mem_size = len(mem)

    stats = RunStats()
    ncode = len(code)
    shadow: List[_Frame] = []
    preserved_masks = exe.preserved_masks

    nkinds = len(_KINDS)
    load_counts = [0] * nkinds
    store_counts = [0] * nkinds
    instructions = 0
    calls = 0
    branches = 0
    lat = _LAT
    ra_idx = RA.index

    profiling = block_counts is not None

    # The cycle-budget check is hoisted out of the per-instruction path:
    # it runs at control transfers (taken backward branches, calls and
    # returns), immediately before any instruction that can itself trap
    # (using the cycle count *excluding* that instruction, so the budget
    # trap preempts exactly the instructions it used to preempt), and at
    # HALT (excluding HALT's own latency, which was never checked).  Any
    # execution that exceeded the budget under the per-instruction check
    # still raises the same trap; only unobservable work between the
    # overrun point and the next check point differs.
    while True:
        if pc < 0 or pc >= ncode:
            raise MachineTrap(f"pc {pc} outside code")
        if profiling and pc in block_counts:
            block_counts[pc] += 1
        op, rd, rs, rt, imm, kind = code[pc]
        cycles += lat[op]
        instructions += 1
        npc = pc + 1

        if op == _LW:
            if cycles - 2 > max_cycles:
                raise MachineTrap("cycle budget exceeded")
            addr = regs[rs] + imm
            if addr < 1 or addr >= mem_size:
                raise MachineTrap(f"bad load address {addr} at pc={pc}")
            regs[rd] = mem[addr]
            load_counts[kind] += 1
        elif op == _SW:
            if cycles - 2 > max_cycles:
                raise MachineTrap("cycle budget exceeded")
            addr = regs[rt] + imm
            if addr < 1 or addr >= mem_size:
                raise MachineTrap(f"bad store address {addr} at pc={pc}")
            mem[addr] = regs[rs]
            store_counts[kind] += 1
        elif op == _ADD:
            regs[rd] = regs[rs] + regs[rt]
        elif op == _ADDI:
            regs[rd] = regs[rs] + imm
        elif op == _SUB:
            regs[rd] = regs[rs] - regs[rt]
        elif op == _MOVE:
            regs[rd] = regs[rs]
        elif op == _LI or op == _LA:
            regs[rd] = imm
        elif op == _BNEZ:
            branches += 1
            if regs[rs] != 0:
                npc = imm
                if imm <= pc and cycles > max_cycles:
                    raise MachineTrap("cycle budget exceeded")
        elif op == _BEQZ:
            branches += 1
            if regs[rs] == 0:
                npc = imm
                if imm <= pc and cycles > max_cycles:
                    raise MachineTrap("cycle budget exceeded")
        elif op == _B:
            npc = imm
            if imm <= pc and cycles > max_cycles:
                raise MachineTrap("cycle budget exceeded")
        elif op == _SLT:
            regs[rd] = 1 if regs[rs] < regs[rt] else 0
        elif op == _SLE:
            regs[rd] = 1 if regs[rs] <= regs[rt] else 0
        elif op == _SEQ:
            regs[rd] = 1 if regs[rs] == regs[rt] else 0
        elif op == _SNE:
            regs[rd] = 1 if regs[rs] != regs[rt] else 0
        elif op == _JAL:
            regs[ra_idx] = npc
            calls += 1
            if check_contracts:
                _push_frame(shadow, exe, preserved_masks, imm, npc, regs)
            npc = imm
            if cycles > max_cycles:
                raise MachineTrap("cycle budget exceeded")
        elif op == _JALR:
            target = regs[rs]
            regs[ra_idx] = npc
            calls += 1
            if check_contracts:
                _push_frame(shadow, exe, preserved_masks, target, npc, regs)
            npc = target
            if cycles > max_cycles:
                raise MachineTrap("cycle budget exceeded")
        elif op == _JR:
            npc = regs[rs]
            if check_contracts and shadow:
                _check_return(shadow, npc, regs)
            if cycles > max_cycles:
                raise MachineTrap("cycle budget exceeded")
        elif op == _MUL:
            regs[rd] = regs[rs] * regs[rt]
        elif op == _DIV:
            if cycles - 35 > max_cycles:
                raise MachineTrap("cycle budget exceeded")
            regs[rd] = sdiv(regs[rs], regs[rt])
        elif op == _REM:
            if cycles - 35 > max_cycles:
                raise MachineTrap("cycle budget exceeded")
            regs[rd] = srem(regs[rs], regs[rt])
        elif op == _AND:
            regs[rd] = regs[rs] & regs[rt]
        elif op == _OR:
            regs[rd] = regs[rs] | regs[rt]
        elif op == _XOR:
            regs[rd] = regs[rs] ^ regs[rt]
        elif op == _SLL:
            if cycles - 1 > max_cycles:
                raise MachineTrap("cycle budget exceeded")
            sh = regs[rt]
            if sh < 0 or sh > 63:
                raise MachineTrap(f"shift amount {sh} out of range")
            regs[rd] = regs[rs] << sh
        elif op == _SRL:
            if cycles - 1 > max_cycles:
                raise MachineTrap("cycle budget exceeded")
            sh = regs[rt]
            if sh < 0 or sh > 63:
                raise MachineTrap(f"shift amount {sh} out of range")
            regs[rd] = srl(regs[rs], sh)
        elif op == _SRA:
            if cycles - 1 > max_cycles:
                raise MachineTrap("cycle budget exceeded")
            sh = regs[rt]
            if sh < 0 or sh > 63:
                raise MachineTrap(f"shift amount {sh} out of range")
            regs[rd] = regs[rs] >> sh
        elif op == _NEG:
            regs[rd] = -regs[rs]
        elif op == _NOT:
            regs[rd] = 1 if regs[rs] == 0 else 0
        elif op == _PRINT:
            output.append(regs[rs])
        elif op == _HALT:
            if cycles - 1 > max_cycles:
                raise MachineTrap("cycle budget exceeded")
            break
        else:  # pragma: no cover - exhaustive
            raise MachineTrap(f"unknown opcode number {op}")

        pc = npc

    stats.cycles = cycles
    stats.instructions = instructions
    stats.calls = calls
    stats.branches = branches
    stats.output = output
    for i, k in enumerate(_KINDS):
        if load_counts[i]:
            stats.loads[k] = load_counts[i]
        if store_counts[i]:
            stats.stores[k] = store_counts[i]
    return stats


def _push_frame(
    shadow: List[_Frame],
    exe: Executable,
    preserved_masks: Dict[str, int],
    target_pc: int,
    return_pc: int,
    regs: List[int],
) -> None:
    func = exe.func_at_pc.get(target_pc)
    if func is None:
        raise ContractViolation(
            f"call to pc {target_pc}, which is not a function entry"
        )
    mask = preserved_masks.get(func, 0) & ~_SCRATCH_MASK
    shadow.append(
        _Frame(
            func=func,
            return_pc=return_pc,
            sp=regs[SP.index],
            snapshot=tuple(regs),
            preserve_mask=mask,
        )
    )


def _check_return(shadow: List[_Frame], npc: int, regs: List[int]) -> None:
    frame = shadow[-1]
    if npc != frame.return_pc:
        raise ContractViolation(
            f"{frame.func}: returned to pc {npc}, expected {frame.return_pc}"
        )
    shadow.pop()
    if regs[SP.index] != frame.sp:
        raise ContractViolation(
            f"{frame.func}: sp {regs[SP.index]} != {frame.sp} at return"
        )
    mask = frame.preserve_mask
    for r in ALL_REGISTERS:
        if mask & (1 << r.index) and regs[r.index] != frame.snapshot[r.index]:
            raise ContractViolation(
                f"{frame.func}: failed to preserve ${r.name} "
                f"({frame.snapshot[r.index]} -> {regs[r.index]})"
            )
