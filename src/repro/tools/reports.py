"""Human-readable diagnostic reports over compiled programs.

These are the reproduction's equivalent of a compiler's ``-debug``
listings: allocation tables, interference summaries, call-graph exports
and executable disassembly.  The examples and the CLI build on them; they
are also handy when studying why the allocator made a particular choice.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.dataflow.liveness import popcount
from repro.interproc.allocator import FnPlan, ProgramPlan
from repro.pipeline.driver import CompiledProgram
from repro.pipeline.linker import Executable
from repro.target.isa import OPS
from repro.target.registers import DEFAULT_CONVENTION, registers_in_mask


def allocation_report(plan: FnPlan) -> str:
    """One procedure's allocation decisions as a table."""
    alloc = plan.alloc
    lines = [f"procedure {plan.name} [{plan.mode}]"]
    ranges = alloc.ranges.ranges if alloc.ranges else {}
    rows = []
    for v in sorted(alloc.candidates, key=lambda v: v.name):
        lr = ranges.get(v)
        if lr is None or not lr.blocks:
            continue
        reg = alloc.assignment.get(v)
        rows.append((
            v.name,
            v.kind.value,
            reg.name if reg else "memory",
            popcount(lr.blocks),
            lr.use_weight,
            lr.def_weight,
            len(lr.calls),
        ))
    if rows:
        lines.append(
            f"  {'value':<12s} {'kind':<7s} {'location':<9s} "
            f"{'blocks':>6s} {'uses':>6s} {'defs':>6s} {'calls':>6s}"
        )
        for name, kind, loc, blocks, uses, defs, calls in rows:
            lines.append(
                f"  {name:<12s} {kind:<7s} {loc:<9s} "
                f"{blocks:>6d} {uses:>6d} {defs:>6d} {calls:>6d}"
            )
    if plan.entry_exit_saves:
        lines.append(
            "  entry/exit saves: "
            + ", ".join(f"${r.name}" for r in plan.entry_exit_saves)
        )
    for idx, placement in sorted(plan.wrapped.items()):
        reg = registers_in_mask(1 << idx)[0]
        lines.append(
            f"  shrink-wrapped ${reg.name}: saves@{sorted(placement.saves)} "
            f"restores@{sorted(placement.restores)}"
        )
    if plan.summary is not None and plan.summary.closed:
        used = ", ".join(
            f"${r.name}" for r in registers_in_mask(plan.summary.used_mask)
        )
        lines.append(f"  summary (subtree may destroy): {used}")
    return "\n".join(lines)


def program_report(prog: CompiledProgram) -> str:
    """Allocation report for every procedure, in processing order."""
    parts = [f"optimisation: {describe_options(prog)}"]
    for name in prog.plan.order:
        parts.append(allocation_report(prog.plan.plans[name]))
    return "\n\n".join(parts)


def describe_options(prog: CompiledProgram) -> str:
    o = prog.options
    bits = [f"-O{o.opt_level}"]
    if o.shrink_wrap:
        bits.append("+shrink-wrap")
    if o.ipra and not o.combine:
        bits.append("-combining")
    if o.ipra_globals:
        bits.append("+modref-globals")
    if o.block_weights is not None:
        bits.append("+profile")
    if o.convention != DEFAULT_CONVENTION:
        conv = o.convention
        bits.append(
            f"({conv.name}: {len(conv.allocatable)} regs, "
            f"{conv.num_arg_regs} reg args)"
        )
    return " ".join(bits)


def tune_report(report: Dict) -> str:
    """Render an autotuner report (the :meth:`TuneResult.to_report`
    dict) as the human-readable search summary: one row per evaluated
    candidate, the winner vs the paper's fixed convention, and each
    program's individually-best convention."""
    lines = [
        f"convention autotune: config {report['config']}, "
        f"budget {report['budget']}, seed {report['seed']}, "
        f"{report['evaluations']} evaluations over "
        f"{len(report['programs'])} programs "
        f"({report['wall_seconds']:.2f}s)",
        f"  {'candidate':<24s} {'round':>5s} {'progs':>5s} "
        f"{'cycles':>14s} {'save/restore':>12s} {'scalar':>10s}",
        "  " + "-" * 74,
    ]
    for cand in report["candidates"]:
        t = cand["totals"]
        name = cand["convention"]["name"]
        if cand["errors"]:
            lines.append(
                f"  {name:<24s} {cand['round']:>5d} "
                f"DISQUALIFIED ({len(cand['errors'])} failures)"
            )
            continue
        lines.append(
            f"  {name:<24s} {cand['round']:>5d} {len(cand['programs']):>5d} "
            f"{t['cycles']:>14,d} {t['save_restore_memops']:>12,d} "
            f"{t['scalar_memops']:>10,d}"
        )
    win = report["winner"]
    red = win["reduction_vs_baseline"]
    lines.append(
        f"winner: {win['convention']['name']}  "
        f"(vs {report['baseline']['convention']['name']}: "
        f"cycles {red['cycles']:+.2f}%, "
        f"save/restore {red['save_restore_memops']:+.2f}%, "
        f"scalar {red['scalar_memops']:+.2f}%)"
    )
    guard = report.get("guard")
    if guard is not None:
        lines.append(
            f"guard [{guard['candidate']}]: "
            + ("holds" if guard["holds"] else "VIOLATED")
        )
    lines.append("per-program optima:")
    for name, cell in sorted(report["per_program_winners"].items()):
        lines.append(
            f"  {name:<10s} {cell['convention']:<24s} "
            f"{cell['cycles']:>12,d} cycles "
            f"({cell['reduction_pct']:+.2f}% vs baseline)"
        )
    return "\n".join(lines)


def call_graph_dot(plan: ProgramPlan) -> str:
    """The program call graph in Graphviz DOT form; open procedures are
    drawn double-circled (they act as save/restore barriers)."""
    lines = ["digraph callgraph {"]
    cg = plan.call_graph
    for name in plan.order:
        shape = "doublecircle" if (cg and cg.is_open(name)) else "ellipse"
        mode = plan.plans[name].mode
        lines.append(f'  "{name}" [shape={shape}, label="{name}\\n{mode}"];')
    if cg is not None:
        for caller in plan.order:
            for callee in sorted(cg.callees(caller)):
                if callee in plan.plans:
                    lines.append(f'  "{caller}" -> "{callee}";')
    lines.append("}")
    return "\n".join(lines)


def disassemble(exe: Executable, function: Optional[str] = None) -> str:
    """Disassemble a linked executable (optionally one function), with
    pc values and resolved branch targets annotated by symbol."""
    by_pc: Dict[int, List[str]] = {}
    for label, pc in exe.labels.items():
        by_pc.setdefault(pc, []).append(label)
    start, end = 0, len(exe.instrs)
    if function is not None:
        start = exe.func_entries[function]
        later = [p for p in exe.func_entries.values() if p > start]
        end = min(later) if later else len(exe.instrs)
    lines = []
    for pc in range(start, end):
        for label in sorted(by_pc.get(pc, ())):
            lines.append(f"{label}:")
        ins = exe.instrs[pc]
        if ins.label is not None and OPS[ins.op].label == "data":
            # linking folded the symbol's address into the offset
            ins = replace(ins, imm=ins.imm - exe.data_layout[ins.label][0])
        lines.append(f"  {pc:5d}  {ins.render()}")
    return "\n".join(lines)


def store_report(store) -> str:
    """One :class:`~repro.store.store.ArtifactStore` handle's health
    counters: traffic, the self-healing loop (corruption detection,
    quarantine, orphan reaping) and lock contention."""
    st = store.stats
    lookups = st.hits + st.misses
    rate = st.hits / lookups if lookups else 0.0
    lines = [
        f"store: {st.hits} hits / {st.misses} misses ({rate:.1%}), "
        f"{st.writes} writes ({st.write_failures} failed), "
        f"{st.evictions} evicted",
        f"  healing: {st.corruptions} corruptions detected, "
        f"{st.quarantined} quarantined, {st.reaped} orphan temps "
        f"reaped, {st.scrubs} scrub passes",
        f"  locking: {st.lock_waits} waits, "
        f"{st.lock_timeouts} timeouts",
    ]
    return "\n".join(lines)


def service_report(service) -> str:
    """One :class:`~repro.service.CompileService`'s operating picture:
    request traffic and the resilience counters (sheds, expired
    deadlines, degraded serves), plus the store report when a
    persistent store is attached."""
    s = service.stats
    lines = [
        f"service: {s.requests} requests "
        f"({s.deduped} deduped)",
        f"  outcomes: {s.compiled} compiled, {s.failed} failed, "
        f"{s.degraded} degraded, {s.shed} shed",
        f"  deadlines: {s.deadline_expired} expired, "
        f"{s.cancelled} cancelled",
    ]
    if service.store is not None:
        lines.append(
            "  " + store_report(service.store).replace("\n", "\n  ")
        )
    return "\n".join(lines)


def jit3_report(stats_or_info) -> str:
    """The trace JIT's translation decisions for one run: trace shape,
    cross-procedure inline/link counts, host register syncs elided by
    linking, and every bailout reason.  Takes
    a :class:`~repro.sim.stats.RunStats` (from a ``jit`` or ``jit3``
    run) or its ``jit3`` dict directly."""
    info = getattr(stats_or_info, "jit3", stats_or_info)
    if not info:
        return "no translation data (run with sim_tier='jit' or 'jit3')"
    lines = [
        f"traces: {info.get('traces', 0)}  "
        f"longest: {info.get('max_trace_len', 0)} instrs",
        f"inlined calls: {info.get('inlined_calls', 0)}  "
        f"linked returns: {info.get('linked_returns', 0)}  "
        f"guarded returns: {info.get('guarded_returns', 0)}",
        f"linked loops: {info.get('linked_loops', 0)}",
        f"elided host register syncs: {info.get('elided_syncs', 0)}",
    ]
    bailouts = info.get("bailouts") or {}
    if bailouts:
        lines.append("bailouts:")
        for reason, count in sorted(bailouts.items()):
            lines.append(f"  {reason}: {count}")
    else:
        lines.append("bailouts: none")
    return "\n".join(lines)


def interference_summary(plan: FnPlan) -> str:
    """Degree histogram of the interference graph (allocation pressure)."""
    alloc = plan.alloc
    if alloc.ranges is None:
        return f"{plan.name}: no ranges"
    rows = alloc.ranges.rows
    degrees = sorted(
        (popcount(rows[lr.num]), v.name)
        for v, lr in alloc.ranges.ranges.items()
    )
    if not degrees:
        return f"{plan.name}: empty interference graph"
    max_deg, max_name = degrees[-1]
    avg = sum(d for d, _ in degrees) / len(degrees)
    return (
        f"{plan.name}: {len(degrees)} ranges, max degree {max_deg} "
        f"({max_name}), mean degree {avg:.1f}"
    )
