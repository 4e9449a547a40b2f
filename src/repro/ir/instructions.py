"""IR instruction set.

The IR is a conventional three-address code over :class:`VReg` operands,
organised into basic blocks with explicit terminators.  Calls are single
instructions carrying their full argument list (the code generator expands
them into parameter moves + jal), which keeps liveness and the register
allocator simple and mirrors Ucode's call operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ir.values import Const, Value, VReg


@dataclass
class IRInstr:
    """Base class for straight-line (non-terminator) instructions."""

    def uses(self) -> Tuple[Value, ...]:
        """Operands read by this instruction (constants included)."""
        return ()

    def defs(self) -> Tuple[VReg, ...]:
        """Virtual registers written by this instruction."""
        return ()

    def use_vregs(self) -> Tuple[VReg, ...]:
        return tuple(v for v in self.uses() if isinstance(v, VReg))

    @property
    def is_call(self) -> bool:
        return False


@dataclass
class Bin(IRInstr):
    op: str
    dst: VReg
    a: Value
    b: Value

    def uses(self):
        return (self.a, self.b)

    def defs(self):
        return (self.dst,)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{self.dst} = {self.a} {self.op} {self.b}"


@dataclass
class Un(IRInstr):
    op: str
    dst: VReg
    a: Value

    def uses(self):
        return (self.a,)

    def defs(self):
        return (self.dst,)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{self.dst} = {self.op}{self.a}"


@dataclass
class Mov(IRInstr):
    dst: VReg
    src: Value

    def uses(self):
        return (self.src,)

    def defs(self):
        return (self.dst,)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{self.dst} = {self.src}"


@dataclass
class LoadIdx(IRInstr):
    """``dst = array[idx]`` -- array element read (data traffic)."""

    dst: VReg
    array: str
    idx: Value

    def uses(self):
        return (self.idx,)

    def defs(self):
        return (self.dst,)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{self.dst} = {self.array}[{self.idx}]"


@dataclass
class StoreIdx(IRInstr):
    """``array[idx] = src`` -- array element write (data traffic)."""

    array: str
    idx: Value
    src: Value

    def uses(self):
        return (self.idx, self.src)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{self.array}[{self.idx}] = {self.src}"


@dataclass
class LoadFunc(IRInstr):
    """``dst = &func`` -- materialise a function's address."""

    dst: VReg
    func: str

    def defs(self):
        return (self.dst,)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{self.dst} = &{self.func}"


@dataclass
class Call(IRInstr):
    """Direct call.  ``dst`` is None for call statements."""

    func: str
    args: List[Value] = field(default_factory=list)
    dst: Optional[VReg] = None

    def uses(self):
        return tuple(self.args)

    def defs(self):
        return (self.dst,) if self.dst is not None else ()

    @property
    def is_call(self) -> bool:
        return True

    def __repr__(self):  # pragma: no cover - cosmetic
        lhs = f"{self.dst} = " if self.dst else ""
        return f"{lhs}call {self.func}({', '.join(map(repr, self.args))})"


@dataclass
class CallInd(IRInstr):
    """Indirect call through a function-pointer value."""

    target: Value
    args: List[Value] = field(default_factory=list)
    dst: Optional[VReg] = None

    def uses(self):
        return (self.target,) + tuple(self.args)

    def defs(self):
        return (self.dst,) if self.dst is not None else ()

    @property
    def is_call(self) -> bool:
        return True

    def __repr__(self):  # pragma: no cover - cosmetic
        lhs = f"{self.dst} = " if self.dst else ""
        return f"{lhs}calli (*{self.target})({', '.join(map(repr, self.args))})"


@dataclass
class Print(IRInstr):
    value: Value

    def uses(self):
        return (self.value,)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"print {self.value}"


# --------------------------------------------------------------------------
# Terminators
# --------------------------------------------------------------------------

@dataclass
class Terminator:
    def uses(self) -> Tuple[Value, ...]:
        return ()

    def use_vregs(self) -> Tuple[VReg, ...]:
        return tuple(v for v in self.uses() if isinstance(v, VReg))

    def successors(self) -> Tuple[str, ...]:
        return ()


@dataclass
class Jump(Terminator):
    target: str

    def successors(self):
        return (self.target,)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"jump {self.target}"


@dataclass
class CJump(Terminator):
    cond: Value
    if_true: str
    if_false: str

    def uses(self):
        return (self.cond,)

    def successors(self):
        return (self.if_true, self.if_false)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"if {self.cond} -> {self.if_true} else {self.if_false}"


@dataclass
class Ret(Terminator):
    value: Optional[Value] = None

    def uses(self):
        return (self.value,) if self.value is not None else ()

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"ret {self.value}" if self.value is not None else "ret"

