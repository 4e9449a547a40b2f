"""Differential property test for the tier-3 trace JIT: random
programs under every paper configuration retire the exact same
execution as the reference interpreter.

Same generator bias as the tier "jit" test (trapping arithmetic, loops,
calls, array traffic), plus the profiling step: each executable is
profiled by one interpreter run, so the tier-3 translator actually
exercises its inlining, loop-linking and specialization paths rather
than translating cold code conservatively.  A budget sweep mirrors the
tier "jit" one: traps at tight budgets, including on a rerun over the
partially translated cache, match the interpreter's."""

from hypothesis import given, settings

from helpers import compile_cached

from test_tier_identity import outcome, programs

from repro.ir.arith import MachineTrap
from repro.pipeline import PAPER_CONFIGS
from repro.pipeline.profile import block_profile_of


@settings(max_examples=20, deadline=None)
@given(programs())
def test_tier3_identical_on_random_programs(src):
    for options in PAPER_CONFIGS.values():
        prog = compile_cached(src, options)
        exe = prog.executable
        try:
            block_profile_of(prog)
        except MachineTrap:
            pass  # the program traps; jit3 must trap identically below
        interp = outcome(exe, "interp")
        jit3 = outcome(exe, "jit3")
        assert interp == jit3


@settings(max_examples=20, deadline=None)
@given(programs())
def test_tier3_budget_traps_identical_on_random_programs(src):
    # tier 3 translates a trace on first entry and compiles a budget
    # twin on its first deopt, so a budget trap can fire between
    # translations; a rerun reuses the partial cache
    for options in PAPER_CONFIGS.values():
        prog = compile_cached(src, options)
        exe = prog.executable
        full, trap = outcome(exe, "interp")
        if trap is not None:
            continue
        block_profile_of(prog)
        for budget in (full.cycles - 1, full.cycles // 2, 7):
            interp = outcome(exe, "interp", max_cycles=budget)
            assert outcome(exe, "jit3", max_cycles=budget) == interp
            assert outcome(exe, "jit3", max_cycles=budget) == interp
