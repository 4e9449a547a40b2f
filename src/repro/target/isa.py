"""The virtual instruction set.

A small R2000-flavoured ISA: three-register ALU ops, immediate forms,
loads/stores with a single base+offset addressing mode, absolute branches
and jump-and-link.  ``Opcode`` order is load-bearing: the simulator
pre-decodes instructions to integer opcode numbers by enum position, so
new opcodes must be appended, never inserted.

:data:`OPS` is the one opcode table: each opcode's operand layout (what
it reads and writes, and what kind of label its immediate may name),
latency, value template and trap behaviour, and the MiniC operator it
implements.  The assembler text (:meth:`Instr.render`), the cycle
counts, the linker's relocations, codegen's operator selection and the
trace translator's emitted code all read it.  The interpreter's
dispatch loop in :mod:`repro.sim.simulator` deliberately does not: it
is the independent oracle the table is tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.target.registers import Register


class Opcode(enum.Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"
    SLE = "sle"
    SEQ = "seq"
    SNE = "sne"
    ADDI = "addi"
    LI = "li"
    LA = "la"
    MOVE = "move"
    NEG = "neg"
    NOT = "not"
    LW = "lw"
    SW = "sw"
    B = "b"
    BEQZ = "beqz"
    BNEZ = "bnez"
    JAL = "jal"
    JALR = "jalr"
    JR = "jr"
    PRINT = "print"
    HALT = "halt"


# ---------------------------------------------------------------------------
# Word-width semantics.
#
# MiniC values are unbounded Python ints (see ``repro.ir.arith``): the
# paper's metrics are width-independent, and unbounded ints keep the
# simulators fast.  The one opcode whose meaning *requires* a finite
# word is SRL -- a logical right shift is defined by the zero bits it
# shifts in at the top of the word.  We fix the word at 64 bits: SRL
# masks its operand to the word, shifts zeros in, and re-signs the
# result, while SRA stays an arithmetic shift of the unbounded value.
# ---------------------------------------------------------------------------

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1
_SIGN_BIT = 1 << (WORD_BITS - 1)


def to_signed(value: int) -> int:
    """Reinterpret the low ``WORD_BITS`` bits as a two's-complement int."""
    value &= WORD_MASK
    return value - (1 << WORD_BITS) if value & _SIGN_BIT else value


def srl(value: int, amount: int) -> int:
    """Logical right shift on the 64-bit word.

    The operand is truncated to the word, zeros shift in at bit 63, and
    the result is re-signed (only ``amount == 0`` can leave the sign bit
    set).  Contrast SRA, which is ``value >> amount`` on the unbounded
    int and therefore shifts copies of the sign in.
    """
    return to_signed((value & WORD_MASK) >> amount)


class MemKind(enum.Enum):
    """Why a load/store exists -- drives the paper's traffic breakdown."""

    SCALAR = "scalar"      # spilled locals/temps and global scalars
    PARAM = "param"        # parameter homing and stack-argument traffic
    SAVE = "save"          # register saves (ra, callee-/caller-saved)
    RESTORE = "restore"    # the matching reloads
    DATA = "data"          # array element traffic (not a scalar class)

    @property
    def is_scalar_class(self) -> bool:
        return self is not MemKind.DATA


@dataclass(frozen=True)
class OpInfo:
    """Everything one opcode means, defined once.

    ``syntax`` is the assembler operand layout, which also says what the
    opcode reads and writes: ``rd`` is always the destination, every
    other register named is a source.  Its tokens are the register
    fields ``rd``/``rs``/``rt``; ``imm``, a plain immediate; ``code``, a
    code label (a pc once linked); ``sym``, a function or data label or
    a plain immediate; and ``data(rs)``/``data(rt)``, a memory operand
    -- a data label plus offset, or ``imm(base)``.  JAL and JALR also
    write ``$ra``.

    ``value`` is, for the opcodes that compute a register value, a
    Python expression over ``{a}`` (``rs``), ``{b}`` (``rt``), ``{i}``
    (the immediate) and ``{off}`` (the immediate as an added term:
    `` + 5``, `` - 5`` or nothing for 0) -- the trace translator's
    emitted code and constant folder.  ``traps`` marks an opcode that
    can trap: inside ``value`` itself (``sdiv``/``srem``), or in
    ``guard``, a statement over the same names run before it.  ``minic``
    is the MiniC operator the opcode implements, if any.
    """

    syntax: str
    latency: int = 1
    value: Optional[str] = None
    traps: bool = False
    guard: Optional[str] = None
    minic: Optional[str] = None

    @cached_property
    def operands(self) -> Tuple[str, ...]:
        return tuple(t.strip() for t in self.syntax.split(",") if t)

    @cached_property
    def writes(self) -> Tuple[str, ...]:
        """The register fields written."""
        return ("rd",) if "rd" in self.operands else ()

    @cached_property
    def reads(self) -> Tuple[str, ...]:
        """The register fields read, in operand order."""
        return tuple(
            f for t in self.operands
            for f in ("rs", "rt") if t in (f, f"data({f})")
        )

    @cached_property
    def label(self) -> Optional[str]:
        """What a label in ``imm`` names: ``"code"``, ``"data"`` or
        ``"sym"`` (either), or ``None`` where no label may appear."""
        for t in self.operands:
            if t in ("code", "sym"):
                return t
            if t.startswith("data("):
                return "data"
        return None


_SHIFT_GUARD = (
    "if {b} < 0 or {b} > 63:"
    " raise MachineTrap('shift amount %d out of range' % ({b},))"
)


def _alu(
    value: str, minic: Optional[str], latency: int = 1,
    traps: bool = False, guard: Optional[str] = None,
) -> OpInfo:
    return OpInfo("rd, rs, rt", latency, value, traps, guard, minic)


# Cycle costs: a single-cycle ALU core with a load-delay-free but
# 2-cycle memory pipe and the classic long multiply/divide.
OPS: Dict[Opcode, OpInfo] = {
    Opcode.ADD: _alu("{a} + {b}", "+"),
    Opcode.SUB: _alu("{a} - {b}", "-"),
    Opcode.MUL: _alu("{a} * {b}", "*", latency=10),
    Opcode.DIV: _alu("sdiv({a}, {b})", "/", latency=35, traps=True),
    Opcode.REM: _alu("srem({a}, {b})", "%", latency=35, traps=True),
    Opcode.AND: _alu("{a} & {b}", "&"),
    Opcode.OR: _alu("{a} | {b}", "|"),
    Opcode.XOR: _alu("{a} ^ {b}", "^"),
    Opcode.SLL: _alu("{a} << {b}", "<<", traps=True, guard=_SHIFT_GUARD),
    Opcode.SRL: _alu("srl({a}, {b})", None, traps=True, guard=_SHIFT_GUARD),
    Opcode.SRA: _alu("{a} >> {b}", ">>", traps=True, guard=_SHIFT_GUARD),
    Opcode.SLT: _alu("1 if {a} < {b} else 0", "<"),
    Opcode.SLE: _alu("1 if {a} <= {b} else 0", "<="),
    Opcode.SEQ: _alu("1 if {a} == {b} else 0", "=="),
    Opcode.SNE: _alu("1 if {a} != {b} else 0", "!="),
    Opcode.ADDI: OpInfo("rd, rs, imm", value="{a}{off}"),
    Opcode.LI: OpInfo("rd, imm", value="{i}"),
    Opcode.LA: OpInfo("rd, sym", value="{i}"),
    Opcode.MOVE: OpInfo("rd, rs", value="{a}"),
    Opcode.NEG: OpInfo("rd, rs", value="-{a}", minic="-"),
    Opcode.NOT: OpInfo("rd, rs", value="1 if {a} == 0 else 0", minic="!"),
    Opcode.LW: OpInfo("rd, data(rs)", 2),
    Opcode.SW: OpInfo("rs, data(rt)", 2),
    Opcode.B: OpInfo("code"),
    Opcode.BEQZ: OpInfo("rs, code"),
    Opcode.BNEZ: OpInfo("rs, code"),
    Opcode.JAL: OpInfo("code", 2),
    Opcode.JALR: OpInfo("rs", 2),
    Opcode.JR: OpInfo("rs"),
    Opcode.PRINT: OpInfo("rs"),
    Opcode.HALT: OpInfo(""),
}

#: MiniC binary and unary operators -> the opcode implementing each
BINARY_OPERATORS: Dict[str, Opcode] = {
    info.minic: op for op, info in OPS.items()
    if info.minic and len(info.reads) == 2
}
UNARY_OPERATORS: Dict[str, Opcode] = {
    info.minic: op for op, info in OPS.items()
    if info.minic and len(info.reads) == 1
}


def latency(op: Opcode) -> int:
    return OPS[op].latency


def offset(imm: int) -> str:
    """``imm`` as an added term: `` + 5``, `` - 5``, or ``""`` for 0."""
    return f" + {imm}" if imm > 0 else (f" - {-imm}" if imm < 0 else "")


@dataclass(slots=True)
class Instr:
    """One machine instruction.  Fields not used by ``op`` stay ``None``.

    Slotted: an instance has no ``__dict__``, so each of the instructions
    the linker copies into every executable is a single allocation.
    Pickles of the older dict-based layout do not load; the artifact
    store's layout version keeps them out of reach.
    """

    op: Opcode
    rd: Optional[Register] = None
    rs: Optional[Register] = None
    rt: Optional[Register] = None
    imm: Optional[int] = None
    label: Optional[str] = None
    kind: Optional[MemKind] = None
    comment: Optional[str] = None

    def render(self) -> str:
        text = self.op.value
        operands = ", ".join(
            self._operand(t) for t in OPS[self.op].operands
        )
        if operands:
            text = f"{text} {operands}"
        if self.comment:
            text = f"{text:<28}# {self.comment}"
        return text

    def _operand(self, token: str) -> str:
        if token in ("rd", "rs", "rt"):
            return f"${getattr(self, token).name}"
        if token == "imm":
            return f"{self.imm}"
        if token == "code":
            return f"{self.label or self.imm}"
        if token == "sym":
            return f"{self.label if self.label is not None else self.imm}"
        if self.label is not None:  # data(rs) / data(rt)
            off = f"+{self.imm}" if self.imm else ""
            return f"{self.label}{off}"
        base = self.rs if token == "data(rs)" else self.rt
        return f"{self.imm or 0}(${base.name})"


@dataclass
class AsmFunction:
    """Generated code for one procedure.

    ``labels`` maps an instruction index to the label names attached just
    before it; an index equal to ``len(instrs)`` labels the end.
    """

    name: str
    instrs: List[Instr] = field(default_factory=list)
    labels: Dict[int, List[str]] = field(default_factory=dict)

    def add_label(self, label: str, index: Optional[int] = None) -> None:
        at = len(self.instrs) if index is None else index
        self.labels.setdefault(at, []).append(label)

    def emit(self, instr: Instr) -> Instr:
        self.instrs.append(instr)
        return instr

    def render(self) -> str:
        lines = [f"{self.name}:"]
        for i, ins in enumerate(self.instrs):
            for lab in self.labels.get(i, ()):
                lines.append(f"{lab}:")
            lines.append(f"    {ins.render()}")
        for lab in self.labels.get(len(self.instrs), ()):
            lines.append(f"{lab}:")
        return "\n".join(lines)

