"""Linking.

Two layers, mirroring the paper's compilation setting (Section 7):

* **IR linking** -- the MIPS compiler system links Ucode from separate
  program units *before* optimisation, so the inter-procedural allocator
  sees the whole program.  :func:`link_ir_modules` merges IR modules and
  resolves ``extern`` declarations.
* **Executable linking** -- machine-code functions (possibly from modules
  compiled separately) are laid out, data addresses assigned, and every
  symbolic reference patched.  Address 0 is reserved as a null guard.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.frontend.errors import LinkError
from repro.ir.function import IRModule
from repro.target.isa import AsmFunction, Instr, Opcode, OPS


@dataclass
class Executable:
    """A fully linked, runnable program image."""

    instrs: List[Instr] = field(default_factory=list)
    entry_pc: int = 0
    func_entries: Dict[str, int] = field(default_factory=dict)
    #: pc -> function name for the function starting there
    func_at_pc: Dict[int, str] = field(default_factory=dict)
    data_layout: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    data_init: Dict[int, int] = field(default_factory=dict)
    data_size: int = 1  # address 0 reserved
    #: function name -> register mask the function must preserve
    preserved_masks: Dict[str, int] = field(default_factory=dict)
    #: every code label -> pc ("fn" entries and "fn.block" block starts);
    #: used by the block-profile collector
    labels: Dict[str, int] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Stable content digest of the linked image (instructions,
        entry, data image, preservation contracts) -- the executable
        half of a tier-3 translation store key.  Cached: the image is
        immutable once linked."""
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            parts = [repr(i) for i in self.instrs]
            parts.append(f"entry={self.entry_pc}")
            parts.append(f"data_size={self.data_size}")
            parts.append(repr(sorted(self.data_init.items())))
            parts.append(repr(sorted(self.preserved_masks.items())))
            cached = hashlib.sha256(
                "\n".join(parts).encode("utf-8")
            ).hexdigest()
            self._fingerprint = cached  # type: ignore[attr-defined]
        return cached

    def run(self, **kwargs):
        """Execute the image and return its
        :class:`~repro.sim.stats.RunStats`.

        Accepts everything :func:`repro.sim.simulate` does, notably
        ``sim_tier`` ("auto"/"interp"/"jit"/"jit3") selecting the
        simulator tier.  Import is deferred: the simulator imports
        this module.
        """
        from repro.sim.jit import simulate

        return simulate(self, **kwargs)


def link_ir_modules(modules: Sequence[IRModule], name: str = "program") -> IRModule:
    """Merge IR modules into one program, resolving externs."""
    out = IRModule(name=name)
    for mod in modules:
        for gname, init in mod.globals.items():
            if gname in out.globals or gname in out.arrays:
                raise LinkError(f"duplicate global symbol {gname!r}")
            out.globals[gname] = init
        for aname, size in mod.arrays.items():
            if aname in out.globals or aname in out.arrays:
                raise LinkError(f"duplicate global symbol {aname!r}")
            out.arrays[aname] = size
        for fn in mod.functions.values():
            if fn.name in out.functions:
                raise LinkError(f"duplicate function {fn.name!r}")
            out.functions[fn.name] = fn
        out.address_taken.update(mod.address_taken)
    # resolve externs: every declared extern must be defined somewhere
    for mod in modules:
        for ename, arity in mod.externs.items():
            target = out.functions.get(ename)
            if target is None:
                raise LinkError(f"unresolved extern function {ename!r}")
            if len(target.params) != arity:
                raise LinkError(
                    f"extern {ename!r} declared with arity {arity}, "
                    f"defined with {len(target.params)}"
                )
    return out


@dataclass
class ObjectCode:
    """Machine code for one compiled module (pre-link)."""

    functions: Dict[str, AsmFunction] = field(default_factory=dict)
    globals: Dict[str, int] = field(default_factory=dict)   # name -> init
    arrays: Dict[str, int] = field(default_factory=dict)    # name -> size
    preserved_masks: Dict[str, int] = field(default_factory=dict)


def link_executable(
    objects: Sequence[ObjectCode], entry: str = "main"
) -> Executable:
    """Link object code into an executable image, in two passes.

    The first pass lays out data and assigns every function its base pc
    and every label its pc, from function sizes and label tables alone.
    The second copies each instruction once, resolving a labelled
    instruction's ``imm`` as it copies.  The copies are fresh objects:
    an executable never shares an instruction with its object code.
    """
    exe = Executable()

    # --- data layout (address 0 is the null guard) ---
    addr = 1
    for obj in objects:
        for sym, init in obj.globals.items():
            if sym in exe.data_layout:
                raise LinkError(f"duplicate data symbol {sym!r}")
            exe.data_layout[sym] = (addr, 1)
            if init:
                exe.data_init[addr] = init
            addr += 1
        for sym, size in obj.arrays.items():
            if sym in exe.data_layout:
                raise LinkError(f"duplicate data symbol {sym!r}")
            exe.data_layout[sym] = (addr, size)
            addr += size
    exe.data_size = addr

    # --- pass 1: code layout, a start stub then every function ---
    func_entries = exe.func_entries
    labels: Dict[str, int] = {}
    pc = 2  # the stub: call the entry point, then halt
    for obj in objects:
        for fname, fn in obj.functions.items():
            if fname in func_entries:
                raise LinkError(f"duplicate function symbol {fname!r}")
            func_entries[fname] = pc
            exe.func_at_pc[pc] = fname
            size = len(fn.instrs)
            for i in sorted(fn.labels):
                if 0 <= i < size:
                    for lab in fn.labels[i]:
                        if lab in labels:
                            raise LinkError(f"duplicate label {lab!r}")
                        labels[lab] = pc + i
            for lab in fn.labels.get(size, ()):
                labels[lab] = pc + size
            pc += size
        exe.preserved_masks.update(obj.preserved_masks)
    labels.update(func_entries)

    if entry not in func_entries:
        raise LinkError(f"entry point {entry!r} not defined")
    exe.entry_pc = 0
    exe.labels = labels

    # --- pass 2: copy every instruction once, relocating as it goes ---
    code = [
        Instr(Opcode.JAL, None, None, None, func_entries[entry], entry,
              None, "start"),
        Instr(Opcode.HALT),
    ]
    append = code.append
    for obj in objects:
        for fn in obj.functions.values():
            for ins in fn.instrs:
                label = ins.label
                imm = ins.imm
                if label is not None:
                    imm = _relocate(ins.op, label, imm, labels, exe)
                append(Instr(
                    ins.op, ins.rd, ins.rs, ins.rt, imm, label, ins.kind,
                    ins.comment,
                ))
    exe.instrs = code
    return exe


def _relocate(op: Opcode, label: str, imm, labels: Dict[str, int],
              exe: Executable) -> int:
    """The resolved ``imm`` of an instruction referring to ``label``."""
    kind = OPS[op].label
    if kind == "code":
        target = labels.get(label)
        if target is None:
            raise LinkError(f"unresolved code symbol {label!r}")
        return target
    if kind == "sym":
        if label in exe.func_entries:
            return exe.func_entries[label]
        if label in exe.data_layout:
            return exe.data_layout[label][0]
        raise LinkError(f"unresolved symbol {label!r}")
    if kind == "data":
        loc = exe.data_layout.get(label)
        if loc is None:
            raise LinkError(f"unresolved data symbol {label!r}")
        return (imm or 0) + loc[0]
    raise LinkError(f"relocation on unexpected opcode {op.value}")
