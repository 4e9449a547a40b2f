"""The one-pass inter-procedural register allocation driver.

This is the paper's central machinery.  Procedures are processed in
depth-first postorder of the call graph; each is allocated by the
priority-based colorer with per-register priorities driven by the
summaries of already-processed callees; then the save/restore strategy is
fixed:

* **intra mode** (paper -O2): every procedure uses the default linkage
  convention.  Callee-saved registers it occupies are saved at entry and
  restored at exits -- or shrink-wrapped around their regions of activity
  when shrink-wrapping is enabled.
* **open procedures** under IPRA: default linkage, but the save set also
  covers callee-saved registers clobbered by *closed* callees (which do
  not save them themselves -- the obligation propagated up to here).
* **closed procedures** under IPRA: all registers operate in caller-saved
  mode and usage propagates upward through the summary.  With
  shrink-wrapping and the Section 6 combining strategy, a callee-saved
  register whose save would land anywhere but the procedure entry is
  instead saved/restored locally (wrapped) and reported unused.

The result is one :class:`FnPlan` per procedure, consumed by codegen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.dataflow.liveness import bits
from repro.interproc.callgraph import (
    CallGraph,
    build_call_graph,
    dfs_postorder,
    sorted_callees,
)
from repro.interproc.modref import cacheable_globals, subtree_global_refs
from repro.interproc.summaries import (
    ParamSpec,
    ProcSummary,
    default_param_specs,
    default_summary,
)
from repro.ir.function import IRFunction, IRModule
from repro.ir.values import VReg
from repro.regalloc.coloring import ColoringOptions, allocate_function
from repro.regalloc.context import AllocEnv
from repro.regalloc.result import AllocationResult
from repro.shrinkwrap.placement import (
    ShrinkWrapResult,
    WrapPlacement,
    shrink_wrap,
)
from repro.target.registers import (
    Convention,
    DEFAULT_CONVENTION,
    Register,
    V0,
    registers_in_mask,
)


@dataclass
class PlanOptions:
    """Knobs of the allocation strategy (see ``repro.pipeline.options``).

    ``convention`` is the calling convention in force.
    """

    ipra: bool = False
    shrink_wrap: bool = False
    combine: bool = True            # Section 6 propagate-vs-wrap strategy
    prefer_subtree_reg: bool = True  # Fig. 1 tie-break
    smear_loops: bool = True
    externally_visible: bool = False  # separate-compilation conservatism
    entry: str = "main"
    #: profile extension: function name -> {block name -> execution count}
    block_weights: Optional[Dict[str, Dict[str, int]]] = None
    #: mod/ref extension: register-cache globals across calls whose
    #: subtrees provably never touch them
    ipra_globals: bool = False
    convention: Convention = DEFAULT_CONVENTION


@dataclass
class FnPlan:
    """Allocation plus save/restore strategy for one procedure."""

    name: str
    alloc: AllocationResult
    mode: str                       # 'intra' | 'open' | 'closed'
    #: the convention this plan was made under (codegen and the engine's
    #: preserved-mask contract read save classes from here)
    convention: Convention = DEFAULT_CONVENTION
    #: callee-saved registers saved at entry / restored at all exits
    entry_exit_saves: List[Register] = field(default_factory=list)
    #: register index -> shrink-wrapped placement
    wrapped: Dict[int, WrapPlacement] = field(default_factory=dict)
    incoming_params: List[ParamSpec] = field(default_factory=list)
    summary: Optional[ProcSummary] = None
    shrink_stats: Optional[ShrinkWrapResult] = None

    @property
    def saved_mask(self) -> int:
        m = 0
        for r in self.entry_exit_saves:
            m |= 1 << r.index
        for idx in self.wrapped:
            m |= 1 << idx
        return m


@dataclass
class ProgramPlan:
    """Plans for all procedures of a linked program."""

    module: IRModule
    plans: Dict[str, FnPlan] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    call_graph: Optional[CallGraph] = None
    summaries: Dict[str, ProcSummary] = field(default_factory=dict)


def _callee_saved_need_mask(
    alloc: AllocationResult, convention: Convention
) -> int:
    """Callee-saved registers destroyed inside this procedure's frame of
    responsibility: its own assignments plus clobbers at its call sites
    (the latter only carry callee-saved bits under IPRA, where closed
    callees do not save them)."""
    mask = alloc.own_assigned_mask
    for m in alloc.call_clobbers.values():
        mask |= m
    return mask & convention.callee_mask


def _app_blocks_for(alloc: AllocationResult, reg: Register) -> Set[int]:
    """APP footprint of a register: blocks where its assigned ranges are
    live plus blocks containing calls that clobber it."""
    blocks = alloc.busy_blocks(reg)
    bit = 1 << reg.index
    if alloc.ranges is not None:
        for rc in alloc.ranges.all_calls:
            if alloc.call_clobbers[id(rc.instr)] & bit:
                blocks |= 1 << rc.block
    return set(bits(blocks))


def _incoming_params_closed(
    fn: IRFunction, alloc: AllocationResult, convention: Convention
) -> List[ParamSpec]:
    """Section 4: a closed procedure's parameter travels in whatever
    register the allocator gave the parameter variable.  Memory-resident
    parameters arrive in a free caller-saved register (stored to their
    home in the prologue) or on the stack when none is free; parameters
    whose incoming value is never read are marked dead (no staging)."""
    live_at_entry = alloc.liveness.live_in[alloc.cfg.entry]
    numbering = alloc.liveness.numbering
    taken = {
        alloc.assignment[v].index
        for v in fn.param_vregs
        if v in alloc.assignment and numbering.bit(v) & live_at_entry
    }
    specs: List[ParamSpec] = []
    staged = {r.index for r in convention.param_regs}
    arrival_pool = list(convention.param_regs) + [
        r
        for r in registers_in_mask(convention.caller_mask)
        if r.index not in staged
    ]
    for v in fn.param_vregs:
        k = v.index
        if not numbering.bit(v) & live_at_entry:
            specs.append(ParamSpec(pos=k, dead=True))
            continue
        reg = alloc.assignment.get(v)
        if reg is not None:
            specs.append(ParamSpec(pos=k, reg=reg))
            continue
        arrival = next(
            (r for r in arrival_pool if r.index not in taken), None
        )
        if arrival is not None:
            taken.add(arrival.index)
            specs.append(ParamSpec(pos=k, reg=arrival))
        else:
            specs.append(ParamSpec(pos=k, reg=None))
    return specs


def plan_function(
    fn: IRFunction,
    options: PlanOptions,
    summaries: Dict[str, ProcSummary],
    arities: Dict[str, int],
    is_open: bool,
    allowed_globals: Optional[Set[str]] = None,
) -> FnPlan:
    """Allocate one procedure and fix its save/restore strategy."""
    convention = options.convention or DEFAULT_CONVENTION
    env = AllocEnv(
        convention=convention,
        ipra=options.ipra,
        proc_is_open=is_open,
        summaries=summaries if options.ipra else {},
        arities=arities,
    )
    subtree_mask = 0
    if options.ipra:
        for callee in sorted_callees(fn):
            s = summaries.get(callee)
            if s is not None:
                subtree_mask |= s.used_mask

    weights = None
    if options.block_weights is not None:
        weights = options.block_weights.get(fn.name)
    coloring = ColoringOptions(
        prefer_subtree_reg=options.prefer_subtree_reg,
        block_weights=weights,
        allowed_globals=allowed_globals,
    )
    alloc = allocate_function(fn, env, coloring, subtree_used_mask=subtree_mask)

    mode = "intra" if not options.ipra else ("open" if is_open else "closed")
    plan = FnPlan(name=fn.name, alloc=alloc, mode=mode, convention=convention)

    need_mask = _callee_saved_need_mask(alloc, convention)
    need_regs = list(registers_in_mask(need_mask))

    if mode in ("intra", "open"):
        plan.incoming_params = default_param_specs(len(fn.params), convention)
        if options.shrink_wrap and need_regs:
            app = {r.index: _app_blocks_for(alloc, r) for r in need_regs}
            plan.shrink_stats = shrink_wrap(
                alloc.cfg, alloc.loops, app, smear_loops=options.smear_loops
            )
            plan.wrapped = dict(plan.shrink_stats.placements)
        else:
            plan.entry_exit_saves = list(need_regs)
        if options.ipra:
            # open procedures present the default linkage to callers
            plan.summary = default_summary(fn.name, len(fn.params), convention)
        return plan

    # closed procedure under IPRA
    plan.incoming_params = _incoming_params_closed(fn, alloc, convention)
    used = alloc.own_assigned_mask | (1 << V0.index)
    for m in alloc.call_clobbers.values():
        used |= m
    saved_locally = 0

    if options.shrink_wrap and options.combine and need_regs:
        app = {r.index: _app_blocks_for(alloc, r) for r in need_regs}
        plan.shrink_stats = shrink_wrap(
            alloc.cfg, alloc.loops, app, smear_loops=options.smear_loops
        )
        for r in need_regs:
            placement = plan.shrink_stats.placements[r.index]
            if placement.save_at_entry or not placement.saves:
                continue  # propagate up the call graph (Section 6)
            plan.wrapped[r.index] = placement
            saved_locally |= 1 << r.index
        used &= ~saved_locally
    # without shrink-wrap (or with combining disabled) a closed procedure
    # propagates every callee-saved save upward

    plan.summary = ProcSummary(
        name=fn.name,
        closed=True,
        used_mask=used,
        params=plan.incoming_params,
        own_assigned_mask=alloc.own_assigned_mask,
        saved_locally_mask=saved_locally,
    )
    return plan


def plan_program(module: IRModule, options: PlanOptions) -> ProgramPlan:
    """Plan every procedure of a linked program in one pass (Section 2).

    Under IPRA, procedures are visited in depth-first postorder of the
    call graph so a closed procedure's callees are always processed first;
    members of recursion cycles are open and need no ordering guarantee.
    """
    result = ProgramPlan(module=module)
    arities = {name: len(fn.params) for name, fn in module.functions.items()}
    arities.update(module.externs)

    if options.ipra:
        cg = build_call_graph(
            module,
            entry=options.entry,
            externally_visible=options.externally_visible,
        )
        result.call_graph = cg
        result.order = dfs_postorder(cg)
    else:
        result.order = list(module.functions)

    modref: Dict[str, object] = {}
    for name in result.order:
        fn = module.functions[name]
        is_open = True
        if options.ipra and result.call_graph is not None:
            is_open = result.call_graph.is_open(name)
        allowed = None
        if options.ipra_globals and options.ipra:
            allowed = cacheable_globals(fn, modref)
        plan = plan_function(
            fn, options, result.summaries, arities, is_open,
            allowed_globals=allowed,
        )
        result.plans[name] = plan
        if plan.summary is not None:
            result.summaries[name] = plan.summary
        if options.ipra_globals:
            modref[name] = subtree_global_refs(fn, modref)
    return result
