"""The priority function of priority-based coloring, extended per-register.

Chow-Hennessy priority of a live range is (savings / area): the loop-
weighted memory operations avoided by keeping the value in a register,
normalised by the range's size.  The paper's Section 2 extension computes
a priority for each (live range, register) pair, because under IPRA the
*cost* of a specific register depends on whether callees clobber it at the
calls the range spans:

    priority(v, r) = (benefit(v) + bonus(v, r) - cost(v, r)) / span(v)

* ``benefit``  -- loads/stores avoided by register residence;
* ``bonus``    -- parameter-passing preference (Section 4): choosing the
  register a value must occupy at a call boundary deletes a move;
* ``cost``     -- save/restore pairs around spanned calls that clobber r,
  plus (when the default convention applies) the one-time entry/exit
  save/restore for the first use of a callee-saved register.

Only ``bonus`` and ``cost`` depend on the register.  :class:`RangePriority`
computes a range's benefit, its clobber cost for every register and its
parameter bonuses once, so the allocator's (v, r) loop and the ordering
key only index them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.dataflow.liveness import bits
from repro.regalloc.context import AllocEnv
from repro.regalloc.live_ranges import LiveRange
from repro.ir.values import VKind, VReg
from repro.target.registers import NUM_REGISTERS

LOAD_COST = 1
STORE_COST = 1
MOVE_COST = 1
SAVE_RESTORE_COST = LOAD_COST + STORE_COST

#: the clobber costs of a range that spans no call
_NO_CALLS = (0,) * NUM_REGISTERS


@dataclass
class RangePriority:
    """One live range's priority inputs, each computed once."""

    lr: LiveRange
    benefit: int
    span: int
    #: register index -> save/restore cost around the calls ``lr`` spans
    clobber: Sequence[int]
    #: register index -> parameter-passing bonus
    bonus: Dict[int, int]

    def priority(self, reg_index: int, first_use_cost: int) -> float:
        """The (v, r) priority; ``first_use_cost`` is the dynamic entry/exit
        save cost (non-zero only for the first use of a callee-saved
        register when the default convention applies)."""
        net = (
            self.benefit
            + self.bonus.get(reg_index, 0)
            - self.clobber[reg_index]
            - first_use_cost
        )
        return net / self.span

    def order_key(self, reg_indices: Sequence[int]) -> float:
        """Register-independent ordering key: the optimistic priority,
        assuming the cheapest of ``reg_indices`` (no entry cost)."""
        best_cost = 0
        if self.lr.calls:
            best_cost = min((self.clobber[r] for r in reg_indices), default=0)
        best_bonus = 0
        if self.bonus:
            best_bonus = max(
                (self.bonus.get(r, 0) for r in reg_indices), default=0
            )
        return (self.benefit + best_bonus - best_cost) / self.span


@dataclass
class PriorityModel:
    """Pre-computed cost-model inputs for one procedure.

    ``entry_weight`` keeps per-invocation costs (entry/exit saves, entry
    parameter stores, global caching) in the same units as the per-block
    reference weights.  With the static loop-depth weights it is 1; with
    profile feedback it is the measured invocation count.
    """

    env: AllocEnv
    #: id(call instr) -> clobber mask
    call_clobbers: Dict[int, int] = field(default_factory=dict)
    #: vreg -> register index -> accumulated move-elimination bonus
    param_bonus: Dict[VReg, Dict[int, int]] = field(default_factory=dict)
    entry_weight: int = 1

    def add_bonus(self, v: VReg, reg_index: int, amount: int) -> None:
        by_reg = self.param_bonus.setdefault(v, {})
        by_reg[reg_index] = by_reg.get(reg_index, 0) + amount

    def benefit(self, lr: LiveRange) -> int:
        """Memory operations avoided if ``lr`` lives in a register."""
        b = LOAD_COST * lr.use_weight + STORE_COST * lr.def_weight
        if lr.vreg.kind is VKind.PARAM:
            # a memory-resident parameter costs one entry store
            b += STORE_COST * self.entry_weight
        if lr.vreg.kind is VKind.GLOBAL:
            # a register-resident global costs an entry load + exit store
            b -= (LOAD_COST + STORE_COST) * self.entry_weight
        return b

    def clobber_costs(self, lr: LiveRange) -> Sequence[int]:
        """Per register index: save/restore pairs needed around the calls
        the range spans."""
        if not lr.calls:
            return _NO_CALLS
        # calls sharing a clobber mask (the default summary, or one
        # callee's) are summed once per mask
        weight_by_mask: Dict[int, int] = {}
        for rc in lr.calls:
            mask = self.call_clobbers[id(rc.instr)]
            weight_by_mask[mask] = weight_by_mask.get(mask, 0) + rc.weight
        costs = [0] * NUM_REGISTERS
        for mask, weight in weight_by_mask.items():
            cost = SAVE_RESTORE_COST * weight
            for r in bits(mask):
                costs[r] += cost
        return costs

    def range_priority(self, lr: LiveRange) -> RangePriority:
        return RangePriority(
            lr=lr,
            benefit=self.benefit(lr),
            span=lr.span,
            clobber=self.clobber_costs(lr),
            bonus=self.param_bonus.get(lr.vreg, {}),
        )
