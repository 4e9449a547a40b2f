"""The paper's Fig. 1: register re-use in simultaneously active procedures.

``main`` calls ``p``; ``p`` computes with a local before and after calling
``q``.  Variables whose ranges do not span the call to the child can share
the child's registers without any save/restore; with equal priorities the
allocator prefers a register already used in the call tree, minimising the
registers per call tree.
"""

from helpers import lower_opt

from repro.interproc import PlanOptions, plan_program
from repro.target.registers import DEFAULT_CONVENTION

SRC = """
func q(y) {
    var c = y * 2;
    return c + 1;
}
func p(x) {
    var a = x + 1;          // dead before the call to q
    var t = q(a);
    var b = t + 2;          // born after the call to q
    return b;
}
func main() {
    print p(5);
}
"""


def test_fig1_registers_shared_across_active_procedures():
    p = plan_program(
        lower_opt(SRC), PlanOptions(convention=DEFAULT_CONVENTION, ipra=True)
    )
    q_used = p.summaries["q"].used_mask
    p_alloc = p.plans["p"].alloc

    # p's ranges that do not span the call may sit in q's registers --
    # and with the tie-break they actually do.
    non_spanning = [
        v for v, lr in p_alloc.ranges.ranges.items() if not lr.calls
    ]
    reused = [
        v for v in non_spanning
        if v in p_alloc.assignment
        and q_used & (1 << p_alloc.assignment[v].index)
    ]
    assert reused, "expected register re-use between p and q (Fig. 1)"


def test_fig1_no_save_restore_executed():
    from repro.pipeline import compile_program, O3

    prog = compile_program(SRC, O3)
    stats = prog.run(check_contracts=True)
    # ra saves aside, no register save/restore traffic is needed
    from repro.target.isa import MemKind

    save_stores = stats.stores.get(MemKind.SAVE, 0)
    calls = stats.calls
    assert save_stores <= calls  # only the ra saves remain


def test_fig1_tie_break_ablation_changes_sharing():
    base = plan_program(
        lower_opt(SRC),
        PlanOptions(convention=DEFAULT_CONVENTION, ipra=True, prefer_subtree_reg=True),
    )
    off = plan_program(
        lower_opt(SRC),
        PlanOptions(convention=DEFAULT_CONVENTION, ipra=True, prefer_subtree_reg=False),
    )
    # with the preference on, p+q together touch no more registers than
    # with it off
    def tree_regs(p):
        return bin(
            p.summaries["q"].used_mask
            | p.plans["p"].alloc.own_assigned_mask
        ).count("1")

    assert tree_regs(base) <= tree_regs(off)
