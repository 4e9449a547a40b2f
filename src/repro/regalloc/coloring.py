"""Priority-based coloring (Chow-Hennessy), with the paper's per-register
priority extension.

The allocator:

1. builds live ranges and the interference graph over the candidates;
2. gathers parameter-register preferences from call sites (Section 4);
3. visits candidates in decreasing order of optimistic priority;
4. for each, picks the register with the highest (v, r) priority among
   those not taken by interfering neighbours, with ties broken in favour
   of registers already used in the current call tree (Section 2: "the
   allocator will prefer a register that has already been used in the
   current call tree", minimising registers per call tree -- Fig. 1);
5. leaves the value memory-resident when every available register has
   negative priority (save/restore traffic would exceed the benefit) or
   no register is free (no live-range splitting; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro import faults
from repro.cfg.cfg import CFG, build_cfg
from repro.cfg.loops import LoopInfo, find_loops
from repro.dataflow.liveness import VRegNumbering, compute_liveness
from repro.ir.function import IRFunction
from repro.ir.values import VKind, VReg
from repro.regalloc.candidates import allocation_candidates, candidate_globals
from repro.regalloc.context import AllocEnv
from repro.regalloc.live_ranges import RangeInfo, build_ranges
from repro.regalloc.priority import (
    MOVE_COST,
    PriorityModel,
    RangePriority,
    SAVE_RESTORE_COST,
)
from repro.regalloc.result import AllocationResult
from repro.target.registers import NUM_REGISTERS


@dataclass
class ColoringOptions:
    """Ablation switches for the allocator."""

    #: prefer registers already used in the call tree on priority ties
    prefer_subtree_reg: bool = True
    #: per-block weight override (profile feedback extension): either a
    #: sequence indexed by block id or a mapping from block name to its
    #: measured execution count
    block_weights: Optional[object] = None
    #: globals that may be register-cached across this procedure's calls
    #: (mod/ref extension; None = only call-free procedures cache globals)
    allowed_globals: Optional[Set[str]] = None


def _resolve_block_weights(
    cfg: CFG, weights: Optional[object]
) -> Optional[Sequence[int]]:
    if weights is None:
        return None
    if isinstance(weights, dict):
        return [max(0, int(weights.get(b.name, 0))) for b in cfg.blocks]
    return list(weights)


def _gather_param_bonus(
    model: PriorityModel,
    ranges: RangeInfo,
    env: AllocEnv,
    fn: IRFunction,
) -> None:
    """Fill the vreg -> register -> bonus map from call-site staging and
    incoming parameter conventions."""
    for rc in ranges.all_calls:
        specs = env.param_specs(rc.instr)
        args = getattr(rc.instr, "args", [])
        for spec, arg in zip(specs, args):
            if spec.reg is None or spec.dead:
                continue
            if isinstance(arg, VReg):
                model.add_bonus(arg, spec.reg.index, MOVE_COST * rc.weight)
    # Incoming parameters: under the default convention the k-th parameter
    # arrives in a_k; occupying exactly that register deletes the entry
    # move.  Closed procedures under IPRA choose the incoming register
    # freely, so no preference is needed there.
    if env.callee_saved_convention_applies or not env.ipra:
        from repro.interproc.summaries import default_param_specs

        for v in fn.param_vregs:
            specs = default_param_specs(len(fn.params), env.convention)
            spec = specs[v.index]
            if spec.reg is not None:
                model.add_bonus(v, spec.reg.index, MOVE_COST)


def allocate_function(
    fn: IRFunction,
    env: AllocEnv,
    options: Optional[ColoringOptions] = None,
    subtree_used_mask: int = 0,
    cfg: Optional[CFG] = None,
) -> AllocationResult:
    """Run priority-based coloring on ``fn`` under environment ``env``.

    ``subtree_used_mask`` is the union of the summaries of this
    procedure's (closed) callees -- the registers already used in the
    current call tree, preferred on ties.
    """
    faults.check(faults.SITE_COLORING, fn.name)
    options = options or ColoringOptions()
    if cfg is None:
        cfg = build_cfg(fn)
    loops = find_loops(cfg)
    numbering = VRegNumbering(cfg)
    candidates = allocation_candidates(fn, options.allowed_globals)
    candidate_mask = numbering.mask(candidates)
    # A *written* register-candidate global must survive to the exit store;
    # a read-only one just has its natural range from the entry load.
    exit_live = numbering.mask(candidate_globals(candidates)) & numbering.defined
    liveness = compute_liveness(cfg, numbering, exit_live=exit_live)
    weights = _resolve_block_weights(cfg, options.block_weights)
    ranges = build_ranges(
        cfg, liveness, loops, candidate_mask, block_weights=weights,
    )

    entry_weight = 1
    if weights:
        entry_weight = max(1, weights[cfg.entry])
    model = PriorityModel(env=env, entry_weight=entry_weight)
    for rc in ranges.all_calls:
        model.call_clobbers[id(rc.instr)] = env.clobber_mask(rc.instr)
    _gather_param_bonus(model, ranges, env, fn)

    result = AllocationResult(
        fn=fn, cfg=cfg, liveness=liveness, loops=loops,
        candidates=candidates, ranges=ranges,
        call_clobbers=dict(model.call_clobbers),
    )
    for rc in ranges.all_calls:
        result.call_params[id(rc.instr)] = list(env.param_specs(rc.instr))

    # Order candidates by optimistic priority (highest first); note dead
    # ranges (zero benefit) are skipped outright.
    regs = env.convention.allocatable
    reg_indices = [r.index for r in regs]
    order: List[Tuple[float, str, RangePriority]] = []
    for lr in ranges.ranges.values():
        rp = model.range_priority(lr)
        if rp.benefit <= 0 and lr.vreg.kind is not VKind.GLOBAL:
            continue
        order.append((-rp.order_key(reg_indices), lr.vreg.name, rp))
    order.sort(key=lambda item: item[:2])

    used_mask = 0
    save_obligation = env.callee_saved_convention_applies
    callee_mask = env.convention.callee_mask
    first_use_cost = SAVE_RESTORE_COST * model.entry_weight
    rows = ranges.rows
    #: register index -> mask of the vreg numbers assigned to it
    holders = [0] * NUM_REGISTERS

    for _, _, rp in order:
        row = rows[rp.lr.num]
        tree_mask = (
            subtree_used_mask | used_mask if options.prefer_subtree_reg else 0
        )
        best: Optional[Tuple[float, int, int, int]] = None
        best_reg = None
        for r in regs:
            ri = r.index
            if row & holders[ri]:
                continue  # an interfering neighbour holds r
            bit = 1 << ri
            first_use = 0
            if save_obligation and callee_mask & bit and not used_mask & bit:
                first_use = first_use_cost
            prio = rp.priority(ri, first_use)
            if prio < 0:
                continue
            key = (
                prio,
                1 if tree_mask & bit else 0,
                1 if used_mask & bit else 0,
                -ri,
            )
            if best is None or key > best:
                best = key
                best_reg = r
        if best_reg is None:
            continue  # memory-resident
        result.assignment[rp.lr.vreg] = best_reg
        holders[best_reg.index] |= 1 << rp.lr.num
        used_mask |= 1 << best_reg.index

    result.own_assigned_mask = used_mask
    return result
