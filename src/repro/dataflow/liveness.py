"""Liveness of virtual registers, as bit vectors over a dense numbering.

:class:`VRegNumbering` numbers one function's vregs ``0..n-1`` once, at
the start of planning, and records every instruction's operands as those
numbers.  From there on a set of vregs is a Python int: bit ``i`` stands
for ``numbering.vregs[i]``.  The numbering lives beside the IR, never in
it, so IR fingerprints and pickles do not see it.

Block-level live-in/live-out sets drive live-range construction; the
backward per-instruction walk (:func:`instruction_live_sets`) drives
interference edges and the code generator's caller-save decisions.

Global scalars that are register-allocation candidates (call-free
procedures -- see ``repro.regalloc.candidates``) are pinned live at every
exit and treated as defined at entry, modelling the load-at-entry /
store-at-exit strategy for register-resident globals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from repro.cfg.cfg import CFG
from repro.dataflow.framework import DataflowProblem, solve
from repro.ir.instructions import IRInstr
from repro.ir.values import VReg


def bits(mask: int) -> List[int]:
    """The positions of the set bits of ``mask``, in increasing order."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def popcount(mask: int) -> int:
    return bin(mask).count("1")


class InstrOperands(NamedTuple):
    """One instruction's vreg operands as dense numbers."""

    instr: IRInstr
    #: numbers read, in operand order, repeats kept (weights count them)
    uses: Tuple[int, ...]
    #: numbers written
    defs: Tuple[int, ...]
    use_mask: int
    def_mask: int


def _mask_of(numbers: Iterable[int]) -> int:
    mask = 0
    for n in numbers:
        mask |= 1 << n
    return mask


class VRegNumbering:
    """Dense numbers for the vregs of one function.

    Numbers follow first occurrence over the blocks in layout order,
    each instruction's uses before its defs and the terminator's uses
    last, so they never depend on set iteration order (or on the hash
    seed).  Vregs that no instruction mentions get no number.
    """

    def __init__(self, cfg: CFG):
        number: Dict[VReg, int] = {}
        vregs: List[VReg] = []

        def num(v: VReg) -> int:
            n = number.get(v)
            if n is None:
                n = number[v] = len(vregs)
                vregs.append(v)
            return n

        #: per block: its instructions' operands, in order
        self.block_ops: List[List[InstrOperands]] = []
        #: per block: the vregs its terminator reads
        self.term_uses: List[Tuple[int, ...]] = []
        self.term_masks: List[int] = []
        defined = 0
        for block in cfg.blocks:
            ops: List[InstrOperands] = []
            for ins in block.instrs:
                uses = tuple([num(v) for v in ins.use_vregs()])
                defs = tuple([num(d) for d in ins.defs()])
                def_mask = _mask_of(defs)
                defined |= def_mask
                ops.append(
                    InstrOperands(ins, uses, defs, _mask_of(uses), def_mask)
                )
            self.block_ops.append(ops)
            term = tuple([num(v) for v in block.terminator.use_vregs()])
            self.term_uses.append(term)
            self.term_masks.append(_mask_of(term))
        self.vregs = vregs
        self.number = number
        #: every vreg some instruction writes
        self.defined = defined

    def bit(self, v: VReg) -> int:
        """``v``'s bit, or 0 when no instruction mentions ``v``."""
        n = self.number.get(v)
        return 0 if n is None else 1 << n

    def mask(self, vregs: Iterable[VReg]) -> int:
        m = 0
        for v in vregs:
            m |= self.bit(v)
        return m

    def vregs_of(self, mask: int) -> List[VReg]:
        """The vregs of ``mask``, in numbering order."""
        vregs = self.vregs
        return [vregs[n] for n in bits(mask)]


@dataclass
class Liveness:
    """Per-block live sets of one function, as masks over ``numbering``."""

    cfg: CFG
    numbering: VRegNumbering
    live_in: List[int]
    live_out: List[int]
    use: List[int]
    defs: List[int]


def compute_liveness(
    cfg: CFG, numbering: VRegNumbering, exit_live: int = 0
) -> Liveness:
    """Backward liveness over ``cfg``.

    ``exit_live`` is the mask of vregs considered live at every return
    (register-candidate globals, which must survive to the exit store).
    """
    use_sets: List[int] = []
    def_sets: List[int] = []
    for ops, term in zip(numbering.block_ops, numbering.term_masks):
        use = 0
        defs = 0
        for op in ops:
            use |= op.use_mask & ~defs
            defs |= op.def_mask
        use_sets.append(use | (term & ~defs))
        def_sets.append(defs)

    def transfer(b: int, out_val: int) -> int:
        return use_sets[b] | (out_val & ~def_sets[b])

    problem: DataflowProblem[int] = DataflowProblem(
        forward=False,
        top=0,
        boundary=exit_live,
        meet=operator.or_,
        transfer=transfer,
    )
    in_vals, out_vals = solve(cfg, problem)
    return Liveness(
        cfg=cfg,
        numbering=numbering,
        live_in=in_vals,
        live_out=out_vals,
        use=use_sets,
        defs=def_sets,
    )


def instruction_live_sets(
    liveness: Liveness, b: int
) -> Iterator[Tuple[InstrOperands, int, int]]:
    """Yield ``(operands, live_before, live_after)`` for each instruction
    of block ``b`` in *reverse* order, starting from the block's live-out
    set.

    The terminator's uses are folded into the initial live set.
    """
    numbering = liveness.numbering
    live = liveness.live_out[b] | numbering.term_masks[b]
    for op in reversed(numbering.block_ops[b]):
        after = live
        live = (live & ~op.def_mask) | op.use_mask
        yield op, live, after
