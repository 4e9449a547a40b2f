"""Fig. 1 -- re-use of a register in simultaneously active procedures.

The paper's figure: procedures p and q are active at the same time, yet
the same register serves variables in both because their ranges do not
span the call; with equal priorities the allocator prefers registers
already used in the call tree, minimising registers per call tree.

The benchmark measures the whole-tree register count and the executed
save/restore traffic with and without the tie-break.
"""

from conftest import once

from repro.interproc import PlanOptions, plan_program
from repro.ir import lower_module, optimize_module
from repro.frontend import analyze, parse
from repro.pipeline import compile_program, O3
from repro.target.isa import MemKind
from repro.target.registers import DEFAULT_CONVENTION

SRC = """
func q(y) {
    var c = y * 2 + 1;
    var d = c * 3 - y;
    return c + d;
}
func p(x) {
    var a = x + 1;      // dead before the call to q (like Fig. 1's a)
    var t = q(a);
    var b = t + 2;      // born after the call       (like Fig. 1's b)
    return b;
}
func main() {
    var s = 0;
    for (var i = 0; i < 200; i = i + 1) { s = s + p(i); }
    print s;
}
"""


def tree_register_count(prefer: bool) -> int:
    mod = lower_module(analyze(parse(SRC, "fig1")))
    optimize_module(mod)
    plan = plan_program(
        mod,
        PlanOptions(
            convention=DEFAULT_CONVENTION, ipra=True, prefer_subtree_reg=prefer
        ),
    )
    mask = (
        plan.plans["p"].alloc.own_assigned_mask
        | plan.plans["q"].alloc.own_assigned_mask
    )
    return bin(mask).count("1")


def test_fig1_register_reuse(benchmark):
    stats = once(
        benchmark,
        lambda: compile_program(SRC, O3).run(check_contracts=True),
    )
    # no register save/restore beyond the ra protocol is executed
    save_ops = (
        stats.stores.get(MemKind.SAVE, 0) + stats.loads.get(MemKind.RESTORE, 0)
    )
    ra_ops = 2 * stats.calls  # worst case: every frame saves/restores ra
    assert save_ops <= ra_ops

    with_pref = tree_register_count(prefer=True)
    without_pref = tree_register_count(prefer=False)
    print(
        f"\nFig1: call-tree registers with tie-break={with_pref}, "
        f"without={without_pref}; save/restore ops executed={save_ops}"
    )
    assert with_pref <= without_pref
