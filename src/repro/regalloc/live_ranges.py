"""Live ranges at basic-block granularity (Chow-Hennessy style).

A live range records, for one allocation candidate:

* the blocks where the value is live, as a bitmask over block ids (its
  APP footprint when a register is assigned to it),
* loop-weighted use/def counts (the *benefit* of residing in a register:
  every use avoids a load, every def avoids a store), and
* the call sites whose execution the range spans (the potential *cost*:
  a register clobbered at such a call must be saved/restored around it).

Interference is computed at instruction granularity (a def interferes
with everything live after it), which is slightly finer than the paper's
block-level ranges but standard practice and necessary to keep expression
temporaries from choking the register file.  Each candidate's row of the
interference graph is a bitmask over the function's vreg numbering
(:class:`~repro.dataflow.liveness.VRegNumbering`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cfg.cfg import CFG
from repro.cfg.loops import LoopInfo
from repro.dataflow.liveness import (
    Liveness,
    bits,
    instruction_live_sets,
    popcount,
)
from repro.ir.instructions import IRInstr, Mov
from repro.ir.values import VReg


@dataclass
class RangeCall:
    """A call spanned by a live range."""

    instr: IRInstr          # the Call or CallInd
    block: int
    weight: int


@dataclass
class LiveRange:
    vreg: VReg
    #: the vreg's number in the function's numbering
    num: int = 0
    #: bitmask of the block ids the range covers
    blocks: int = 0
    use_weight: int = 0         # loop-weighted count of reads
    def_weight: int = 0         # loop-weighted count of writes
    calls: List[RangeCall] = field(default_factory=list)

    @property
    def span(self) -> int:
        """Live-range size used to normalise priorities (paper: area)."""
        return max(1, popcount(self.blocks))


@dataclass
class RangeInfo:
    """Live ranges for every candidate plus the interference graph."""

    #: candidate -> range, in numbering order
    ranges: Dict[VReg, LiveRange] = field(default_factory=dict)
    #: vreg number -> bitmask of the numbers it interferes with
    rows: List[int] = field(default_factory=list)
    #: every call instruction in the function with (block, weight)
    all_calls: List[RangeCall] = field(default_factory=list)


def build_ranges(
    cfg: CFG,
    liveness: Liveness,
    loops: LoopInfo,
    candidates: int,
    block_weights: Optional[Sequence[int]] = None,
) -> RangeInfo:
    """Build live ranges and the interference graph for the candidate
    mask ``candidates`` (over ``liveness.numbering``).

    ``block_weights`` overrides the static loop-depth weights (used by the
    profile-feedback extension); it must give one weight per block id.
    """
    numbering = liveness.numbering
    n = len(numbering.vregs)
    blocks = [0] * n
    use_w = [0] * n
    def_w = [0] * n
    spanned: Dict[int, List[RangeCall]] = {}
    rows = [0] * n
    all_calls: List[RangeCall] = []
    nblocks = cfg.num_blocks
    if block_weights is not None:
        weights = list(block_weights)
    else:
        weights = [loops.weight(b) for b in range(nblocks)]

    # Block footprint from liveness: live-in blocks plus def/use blocks.
    for b in range(nblocks):
        here = 1 << b
        w = weights[b]
        for v in bits(liveness.live_in[b] & candidates):
            blocks[v] |= here
        for op in numbering.block_ops[b]:
            for v in op.uses:
                if candidates >> v & 1:
                    blocks[v] |= here
                    use_w[v] += w
            for d in op.defs:
                if candidates >> d & 1:
                    blocks[d] |= here
                    def_w[d] += w
        for v in numbering.term_uses[b]:
            if candidates >> v & 1:
                blocks[v] |= here
                use_w[v] += w

    # Instruction-level interference (one direction per def, mirrored
    # below) + spanned calls.
    entry_live = liveness.live_in[cfg.entry] & candidates
    for v in bits(entry_live):
        rows[v] |= entry_live & ~(1 << v)

    for b in range(nblocks):
        w = weights[b]
        for op, live_before, live_after in instruction_live_sets(
            liveness, b
        ):
            ins = op.instr
            if ins.is_call:
                rc = RangeCall(instr=ins, block=b, weight=w)
                all_calls.append(rc)
                across = live_after & live_before & ~op.def_mask & candidates
                for v in bits(across):
                    spanned.setdefault(v, []).append(rc)
            live = live_after & candidates
            if not live:
                continue
            if isinstance(ins, Mov) and op.uses:
                # coalescing-friendly: a copy may share with its source
                live &= ~(1 << op.uses[0])
            for d in op.defs:
                if candidates >> d & 1:
                    rows[d] |= live & ~(1 << d)
    all_calls.reverse()

    mirrored = list(rows)
    for d, row in enumerate(rows):
        bit = 1 << d
        for v in bits(row):
            mirrored[v] |= bit

    vregs = numbering.vregs
    ranges: Dict[VReg, LiveRange] = {}
    for v in range(n):
        if blocks[v]:
            ranges[vregs[v]] = LiveRange(
                vreg=vregs[v],
                num=v,
                blocks=blocks[v],
                use_weight=use_w[v],
                def_weight=def_w[v],
                calls=spanned.get(v, []),
            )
    return RangeInfo(ranges=ranges, rows=mirrored, all_calls=all_calls)
