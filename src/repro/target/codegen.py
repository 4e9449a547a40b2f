"""Code generation: one allocated IR procedure -> assembly.

Consumes a :class:`~repro.interproc.allocator.FnPlan` (allocation +
save/restore strategy) and expands IR instructions into the virtual ISA:

* values live in their assigned registers or in frame spill homes;
  global scalars without a register are addressed symbolically (the
  linker folds the data address into the load/store immediate);
* call sites stage arguments per the callee's :class:`ParamSpec` list --
  register arguments as one *parallel* move (sequentialized cycle-free
  with the ``at2`` scratch), stack arguments into the outgoing area --
  and caller-save exactly the live registers the callee may clobber;
* callee-saved registers are saved at entry / restored at exits, or at
  the shrink-wrapped placements the plan carries;
* every load/store is tagged with a :class:`MemKind` so the simulator
  can reproduce the paper's memory-traffic breakdown.

Scratch discipline: ``at0``/``at1`` materialise operands, ``at2`` is
reserved for parallel-move cycles, and an indirect call target is moved
to ``at1`` before staging so it survives argument moves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.dataflow.liveness import instruction_live_sets
from repro.interproc.summaries import ParamSpec, default_param_specs
from repro.ir.instructions import (
    Bin,
    Call,
    CallInd,
    CJump,
    Jump,
    LoadFunc,
    LoadIdx,
    Mov,
    Print,
    Ret,
    StoreIdx,
    Un,
)
from repro.ir.values import Const, Value, VKind, VReg
from repro.target.frame import CodegenError, Frame, build_frame
from repro.target.isa import (
    AsmFunction,
    BINARY_OPERATORS,
    Instr,
    MemKind,
    Opcode,
    UNARY_OPERATORS,
)
from repro.target.parallel_move import resolve_parallel_moves
from repro.target.registers import (
    ALL_REGISTERS,
    AT0,
    AT1,
    AT2,
    RA,
    Register,
    SP,
    V0,
    ZERO,
)

__all__ = ["CodegenError", "generate_function"]

# comparisons lowered by swapping operands
_BIN_SWAPPED = {">": Opcode.SLT, ">=": Opcode.SLE}


def generate_function(plan, global_arrays: Dict[str, int]) -> AsmFunction:
    """Generate assembly for one procedure from its allocation plan."""
    return _Emitter(plan, global_arrays).run()


class _Emitter:
    def __init__(self, plan, global_arrays: Dict[str, int]):
        self.plan = plan
        self.alloc = plan.alloc
        self.fn = self.alloc.fn
        self.cfg = self.alloc.cfg
        self.global_arrays = global_arrays
        self.assignment = self.alloc.assignment
        self.specs_by_pos: Dict[int, ParamSpec] = {
            s.pos: s for s in plan.incoming_params
        }
        self.asm = AsmFunction(name=self.fn.name)
        #: id(call instr) -> register indices to caller-save around it
        self.call_saves: Dict[int, List[int]] = {}
        self.frame = self._plan_frame()
        self.cached_globals = sorted(
            (
                (v, r)
                for v, r in self.assignment.items()
                if v.kind is VKind.GLOBAL
            ),
            key=lambda pair: pair[1].index,
        )
        # Only *written* cached globals get an exit store.  The allocator
        # pins exactly those live to the exit; a read-only global's range
        # ends at its last use and its register may be reused afterwards,
        # so storing it back would write the reuser's value.
        numbering = self.alloc.liveness.numbering
        self.writeback_globals = [
            (v, r) for v, r in self.cached_globals
            if numbering.bit(v) & numbering.defined
        ]

    # ------------------------------------------------------------------
    # frame planning
    # ------------------------------------------------------------------

    def _call_specs(self, ins) -> List[ParamSpec]:
        specs = self.alloc.call_params.get(id(ins))
        if specs is None:
            specs = default_param_specs(
                len(ins.args), getattr(self.plan, "convention", None)
            )
        return specs

    def _plan_frame(self) -> Frame:
        fn, alloc = self.fn, self.alloc
        spilled: Set[VReg] = set()
        stack_param_homes: Dict[VReg, int] = {}
        for v in fn.vregs:
            if v in self.assignment or v.kind is VKind.GLOBAL:
                continue
            spec = (
                self.specs_by_pos.get(v.index)
                if v.kind is VKind.PARAM
                else None
            )
            if spec is not None and spec.on_stack:
                stack_param_homes[v] = spec.stack_slot
            else:
                spilled.add(v)

        max_out_args = 0
        needs_ra = False
        for block in fn.blocks:
            for ins in block.instrs:
                if ins.is_call:
                    needs_ra = True
                    max_out_args = max(max_out_args, len(ins.args))

        # registers holding values live across each call, to be saved by
        # the caller around the site (their slots are disjoint from the
        # callee-saved/wrapped slots below)
        numbering = alloc.liveness.numbering
        holders: Dict[int, int] = {}    # register index -> vreg numbers
        for v, r in self.assignment.items():
            holders[r.index] = holders.get(r.index, 0) | numbering.bit(v)
        held = sorted(holders.items())
        call_save_regs: Set[int] = set()
        for b in range(self.cfg.num_blocks):
            for op, live_before, live_after in instruction_live_sets(
                alloc.liveness, b
            ):
                if not op.instr.is_call:
                    continue
                clobber = self.alloc.call_clobbers.get(id(op.instr), 0)
                across = live_after & live_before & ~op.def_mask
                at_site = [
                    ri for ri, vs in held
                    if clobber >> ri & 1 and vs & across
                ]
                if at_site:
                    self.call_saves[id(op.instr)] = at_site
                    call_save_regs.update(at_site)

        save_regs: Set[int] = {r.index for r in self.plan.entry_exit_saves}
        save_regs.update(self.plan.wrapped)

        return build_frame(
            self.plan,
            spilled,
            stack_param_homes,
            save_regs,
            max_out_args,
            needs_ra,
            call_save_regs,
        )

    # ------------------------------------------------------------------
    # small emission helpers
    # ------------------------------------------------------------------

    def emit(self, **kw) -> Instr:
        return self.asm.emit(Instr(**kw))

    def _save(self, r: Register, offset: int) -> None:
        self.emit(
            op=Opcode.SW, rs=r, rt=SP, imm=offset, kind=MemKind.SAVE
        )

    def _restore(self, r: Register, offset: int) -> None:
        self.emit(
            op=Opcode.LW, rd=r, rs=SP, imm=offset, kind=MemKind.RESTORE
        )

    def read_value(self, val: Value, scratch: Register) -> Register:
        """A register holding ``val``; loads into ``scratch`` if needed."""
        if isinstance(val, Const):
            self.emit(op=Opcode.LI, rd=scratch, imm=val.value)
            return scratch
        r = self.assignment.get(val)
        if r is not None:
            return r
        if val.kind is VKind.GLOBAL:
            self.emit(
                op=Opcode.LW, rd=scratch, rs=ZERO, label=val.name,
                kind=MemKind.SCALAR,
            )
            return scratch
        self.emit(
            op=Opcode.LW, rd=scratch, rs=SP,
            imm=self.frame.home_of(val), kind=MemKind.SCALAR,
        )
        return scratch

    def write_dst(self, v: VReg, src: Register) -> None:
        """Store ``src`` into ``v``'s location."""
        r = self.assignment.get(v)
        if r is not None:
            if r.index != src.index:
                self.emit(op=Opcode.MOVE, rd=r, rs=src)
            return
        if v.kind is VKind.GLOBAL:
            self.emit(
                op=Opcode.SW, rs=src, rt=ZERO, label=v.name,
                kind=MemKind.SCALAR,
            )
            return
        self.emit(
            op=Opcode.SW, rs=src, rt=SP, imm=self.frame.home_of(v),
            kind=MemKind.SCALAR,
        )

    def dest_reg(self, v: VReg) -> Register:
        return self.assignment.get(v, AT0)

    # ------------------------------------------------------------------
    # prologue / epilogue
    # ------------------------------------------------------------------

    def _prologue(self) -> None:
        frame = self.frame
        if frame.size:
            self.emit(
                op=Opcode.ADDI, rd=SP, rs=SP, imm=-frame.size,
                comment=f"frame {frame.size}",
            )
        if frame.ra_offset is not None:
            self._save(RA, frame.ra_offset)
        for r in self.plan.entry_exit_saves:
            self._save(r, frame.save_slot(r.index))
        for idx in sorted(self.plan.wrapped):
            if self.cfg.entry in self.plan.wrapped[idx].saves:
                self._save(ALL_REGISTERS[idx], frame.save_slot(idx))
        # params first: a cached global may occupy an arrival register,
        # so its cache load must not clobber an unread incoming argument
        self._stage_incoming_params()
        for v, r in self.cached_globals:
            self.emit(
                op=Opcode.LW, rd=r, rs=ZERO, label=v.name,
                kind=MemKind.SCALAR, comment=f"cache {v.name}",
            )

    def _stage_incoming_params(self) -> None:
        params_by_pos = {v.index: v for v in self.fn.param_vregs}
        live_entry = self.alloc.liveness.live_in[self.cfg.entry]
        numbering = self.alloc.liveness.numbering
        stores: List[Tuple[Register, VReg]] = []
        moves: List[Tuple[Register, Register]] = []
        loads: List[Tuple[Register, int]] = []
        for pos, spec in sorted(self.specs_by_pos.items()):
            v = params_by_pos.get(pos)
            if v is None or spec.dead:
                continue
            assigned = self.assignment.get(v)
            if spec.reg is not None:
                if assigned is not None:
                    if assigned.index != spec.reg.index:
                        moves.append((assigned, spec.reg))
                elif numbering.bit(v) & live_entry:
                    stores.append((spec.reg, v))
            else:  # stack-passed: home *is* the incoming slot
                if assigned is not None:
                    loads.append((assigned, self.frame.size + pos))
        # stores first (they only read arrival registers), then the
        # parallel arrival moves, then loads off the caller's frame
        for src, v in stores:
            self.emit(
                op=Opcode.SW, rs=src, rt=SP, imm=self.frame.home_of(v),
                kind=MemKind.PARAM, comment=f"home {v.name}",
            )
        for dst, src in resolve_parallel_moves(moves, AT2):
            self.emit(op=Opcode.MOVE, rd=dst, rs=src)
        for dst, offset in loads:
            self.emit(
                op=Opcode.LW, rd=dst, rs=SP, imm=offset,
                kind=MemKind.PARAM,
            )

    def _epilogue(self, block_id: int) -> None:
        """Everything between the return value and ``jr $ra``."""
        frame = self.frame
        for v, r in self.writeback_globals:
            self.emit(
                op=Opcode.SW, rs=r, rt=ZERO, label=v.name,
                kind=MemKind.SCALAR, comment=f"writeback {v.name}",
            )
        self._wrapped_restores(block_id)
        for r in self.plan.entry_exit_saves:
            self._restore(r, frame.save_slot(r.index))
        if frame.ra_offset is not None:
            self._restore(RA, frame.ra_offset)
        if frame.size:
            self.emit(op=Opcode.ADDI, rd=SP, rs=SP, imm=frame.size)
        self.emit(op=Opcode.JR, rs=RA)

    def _wrapped_saves(self, block_id: int) -> None:
        for idx in sorted(self.plan.wrapped):
            if block_id in self.plan.wrapped[idx].saves:
                self._save(ALL_REGISTERS[idx], self.frame.save_slot(idx))

    def _wrapped_restores(self, block_id: int) -> None:
        for idx in sorted(self.plan.wrapped):
            if block_id in self.plan.wrapped[idx].restores:
                self._restore(ALL_REGISTERS[idx], self.frame.save_slot(idx))

    def _restored_here(self, block_id: int) -> Set[int]:
        return {
            idx
            for idx, placement in self.plan.wrapped.items()
            if block_id in placement.restores
        }

    # ------------------------------------------------------------------
    # straight-line instructions
    # ------------------------------------------------------------------

    def _emit_instr(self, ins) -> None:
        if isinstance(ins, Bin):
            self._emit_bin(ins)
        elif isinstance(ins, Un):
            self._emit_un(ins)
        elif isinstance(ins, Mov):
            src = self.read_value(ins.src, self.dest_reg(ins.dst))
            self.write_dst(ins.dst, src)
        elif isinstance(ins, LoadIdx):
            self._emit_load_idx(ins)
        elif isinstance(ins, StoreIdx):
            self._emit_store_idx(ins)
        elif isinstance(ins, LoadFunc):
            rd = self.dest_reg(ins.dst)
            self.emit(op=Opcode.LA, rd=rd, label=ins.func)
            self.write_dst(ins.dst, rd)
        elif isinstance(ins, (Call, CallInd)):
            self._emit_call(ins)
        elif isinstance(ins, Print):
            r = self.read_value(ins.value, AT0)
            self.emit(op=Opcode.PRINT, rs=r)
        else:
            raise CodegenError(f"cannot generate {ins!r}")

    def _emit_bin(self, ins: Bin) -> None:
        ra = self.read_value(ins.a, AT0)
        rb = self.read_value(ins.b, AT1)
        rd = self.dest_reg(ins.dst)
        op = BINARY_OPERATORS.get(ins.op)
        if op is not None:
            self.emit(op=op, rd=rd, rs=ra, rt=rb)
        else:
            swapped = _BIN_SWAPPED.get(ins.op)
            if swapped is None:
                raise CodegenError(f"unknown binary operator {ins.op!r}")
            self.emit(op=swapped, rd=rd, rs=rb, rt=ra)
        self.write_dst(ins.dst, rd)

    def _emit_un(self, ins: Un) -> None:
        ra = self.read_value(ins.a, AT0)
        rd = self.dest_reg(ins.dst)
        op = UNARY_OPERATORS.get(ins.op)
        if op is not None:
            self.emit(op=op, rd=rd, rs=ra)
        elif ins.op == "~":
            # ~x == -x - 1 (the ISA has no bitwise-not)
            self.emit(op=Opcode.NEG, rd=rd, rs=ra)
            self.emit(op=Opcode.ADDI, rd=rd, rs=rd, imm=-1)
        else:
            raise CodegenError(f"unknown unary operator {ins.op!r}")
        self.write_dst(ins.dst, rd)

    def _array_base(self, name: str) -> Optional[int]:
        """Local-array frame offset, or None for a global array."""
        if name in self.fn.local_arrays:
            return self.frame.arrays[name]
        if name not in self.global_arrays:
            raise CodegenError(f"unknown array {name!r}")
        return None

    def _emit_load_idx(self, ins: LoadIdx) -> None:
        base = self._array_base(ins.array)
        rd = self.dest_reg(ins.dst)
        if isinstance(ins.idx, Const):
            if base is not None:
                self.emit(
                    op=Opcode.LW, rd=rd, rs=SP,
                    imm=base + ins.idx.value, kind=MemKind.DATA,
                )
            else:
                self.emit(
                    op=Opcode.LW, rd=rd, rs=ZERO, label=ins.array,
                    imm=ins.idx.value, kind=MemKind.DATA,
                )
        else:
            idx = self.read_value(ins.idx, AT1)
            if base is not None:
                self.emit(op=Opcode.ADD, rd=AT1, rs=SP, rt=idx)
                self.emit(
                    op=Opcode.LW, rd=rd, rs=AT1, imm=base,
                    kind=MemKind.DATA,
                )
            else:
                self.emit(
                    op=Opcode.LW, rd=rd, rs=idx, label=ins.array,
                    kind=MemKind.DATA,
                )
        self.write_dst(ins.dst, rd)

    def _emit_store_idx(self, ins: StoreIdx) -> None:
        base = self._array_base(ins.array)
        src = self.read_value(ins.src, AT0)
        if isinstance(ins.idx, Const):
            if base is not None:
                self.emit(
                    op=Opcode.SW, rs=src, rt=SP,
                    imm=base + ins.idx.value, kind=MemKind.DATA,
                )
            else:
                self.emit(
                    op=Opcode.SW, rs=src, rt=ZERO, label=ins.array,
                    imm=ins.idx.value, kind=MemKind.DATA,
                )
        else:
            idx = self.read_value(ins.idx, AT1)
            if base is not None:
                self.emit(op=Opcode.ADD, rd=AT1, rs=SP, rt=idx)
                self.emit(
                    op=Opcode.SW, rs=src, rt=AT1, imm=base,
                    kind=MemKind.DATA,
                )
            else:
                self.emit(
                    op=Opcode.SW, rs=src, rt=idx, label=ins.array,
                    kind=MemKind.DATA,
                )

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _emit_call(self, ins) -> None:
        frame = self.frame
        specs = self._call_specs(ins)
        saved = self.call_saves.get(id(ins), [])
        for idx in saved:
            self._save(ALL_REGISTERS[idx], frame.call_save_slot(idx))

        indirect = isinstance(ins, CallInd)
        if indirect:
            # the target must survive argument staging: park it in at1
            target = self.read_value(ins.target, AT1)
            if target.index != AT1.index:
                self.emit(op=Opcode.MOVE, rd=AT1, rs=target)

        # stack arguments first: they only *read* registers
        for spec in specs:
            if spec.on_stack:
                src = self.read_value(ins.args[spec.pos], AT0)
                self.emit(
                    op=Opcode.SW, rs=src, rt=SP, imm=spec.stack_slot,
                    kind=MemKind.PARAM,
                )
        # register arguments: currently-in-register values form one
        # parallel move; constants and memory values load afterwards
        moves: List[Tuple[Register, Register]] = []
        loads: List[Tuple[Register, Value]] = []
        for spec in specs:
            if spec.reg is None or spec.dead:
                continue
            val = ins.args[spec.pos]
            cur = (
                self.assignment.get(val) if isinstance(val, VReg) else None
            )
            if cur is not None:
                moves.append((spec.reg, cur))
            else:
                loads.append((spec.reg, val))
        for dst, src in resolve_parallel_moves(moves, AT2):
            self.emit(op=Opcode.MOVE, rd=dst, rs=src)
        for dst, val in loads:
            self.read_value(val, dst)

        if indirect:
            self.emit(op=Opcode.JALR, rs=AT1)
        else:
            self.emit(op=Opcode.JAL, label=ins.func)

        for idx in saved:
            self._restore(ALL_REGISTERS[idx], frame.call_save_slot(idx))
        if ins.dst is not None:
            self.write_dst(ins.dst, V0)

    # ------------------------------------------------------------------
    # terminators
    # ------------------------------------------------------------------

    def _label_of(self, block_name: str) -> str:
        return f"{self.fn.name}.{block_name}"

    def _emit_terminator(self, block_id: int, term) -> None:
        if isinstance(term, Ret):
            if term.value is not None:
                r = self.read_value(term.value, AT0)
                if r.index != V0.index:
                    self.emit(op=Opcode.MOVE, rd=V0, rs=r)
            else:
                # make `return;` deterministic
                self.emit(op=Opcode.LI, rd=V0, imm=0)
            self._epilogue(block_id)
        elif isinstance(term, CJump):
            cond = self.read_value(term.cond, AT0)
            restored = self._restored_here(block_id)
            if cond.index in restored:
                self.emit(op=Opcode.MOVE, rd=AT0, rs=cond)
                cond = AT0
            self._wrapped_restores(block_id)
            self.emit(
                op=Opcode.BNEZ, rs=cond, label=self._label_of(term.if_true)
            )
            self.emit(op=Opcode.B, label=self._label_of(term.if_false))
        elif isinstance(term, Jump):
            self._wrapped_restores(block_id)
            self.emit(op=Opcode.B, label=self._label_of(term.target))
        else:
            raise CodegenError(f"cannot generate terminator {term!r}")

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self) -> AsmFunction:
        self._prologue()
        for b, block in enumerate(self.cfg.blocks):
            self.asm.add_label(self._label_of(block.name))
            if b != self.cfg.entry:
                self._wrapped_saves(b)
            for ins in block.instrs:
                self._emit_instr(ins)
            self._emit_terminator(b, block.terminator)
        return self.asm
