"""Allocation results handed from the allocator to codegen and the IPRA
driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cfg.cfg import CFG
from repro.cfg.loops import LoopInfo
from repro.dataflow.liveness import Liveness
from repro.interproc.summaries import ParamSpec
from repro.ir.function import IRFunction
from repro.ir.values import VReg
from repro.regalloc.live_ranges import RangeInfo
from repro.target.registers import Register


@dataclass
class AllocationResult:
    """Output of priority-based coloring for one procedure."""

    fn: IRFunction
    cfg: CFG
    liveness: Liveness
    loops: LoopInfo
    #: candidate -> register; candidates missing here are memory-resident
    assignment: Dict[VReg, Register] = field(default_factory=dict)
    candidates: Set[VReg] = field(default_factory=set)
    ranges: Optional[RangeInfo] = None
    #: registers occupied by this procedure's own candidates
    own_assigned_mask: int = 0
    #: id(call instr) -> effective clobber mask at that site
    call_clobbers: Dict[int, int] = field(default_factory=dict)
    #: id(call instr) -> parameter staging for that call's arguments
    call_params: Dict[int, List[ParamSpec]] = field(default_factory=dict)

    def reg_of(self, v: VReg) -> Optional[Register]:
        return self.assignment.get(v)

    def is_memory(self, v: VReg) -> bool:
        return v not in self.assignment

    def busy_blocks(self, reg: Register) -> int:
        """Bitmask of the blocks where ``reg`` holds a live value of this
        procedure (the register's APP footprint from its assigned
        ranges)."""
        blocks = 0
        if self.ranges is None:
            return blocks
        for v, r in self.assignment.items():
            if r.index == reg.index:
                lr = self.ranges.ranges.get(v)
                if lr is not None:
                    blocks |= lr.blocks
        return blocks
