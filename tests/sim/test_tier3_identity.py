"""Differential property test for the tier-3 trace JIT: random
programs under every paper configuration retire the exact same
execution as the reference interpreter.

Same generator bias as the tier "jit" test (trapping arithmetic, loops,
calls, array traffic), plus the profiling step: each executable is
profiled by one run of the profiling translation, so the tier-3
translator actually exercises its inlining and loop-linking paths
rather than translating cold code conservatively.
That profile must equal the one the interpreter's profiling hooks
collect, digest for digest.  A trapped profile run raises the
interpreter's trap message on both sides and yields no profile.  A
budget sweep mirrors the tier "jit" one: traps at tight budgets,
including on a rerun over the partially translated cache, match the
interpreter's, and so do profile runs at those budgets."""

from hypothesis import given, settings

from helpers import compile_cached, interpreter_profile

from test_tier_identity import outcome, programs

from repro.ir.arith import MachineTrap
from repro.pipeline import PAPER_CONFIGS
from repro.pipeline.profile import block_profile_of


def profile_outcome(collect, prog, **kwargs):
    """(digest, None) for a profile run, (None, message) on a trap."""
    try:
        return collect(prog, **kwargs).digest(), None
    except MachineTrap as trap:
        return None, str(trap)


@settings(max_examples=20, deadline=None)
@given(programs())
def test_tier3_identical_on_random_programs(src):
    for options in PAPER_CONFIGS.values():
        prog = compile_cached(src, options)
        exe = prog.executable
        # attaches on success; a trap leaves jit3 to self-profile below
        # and trap identically
        digest, trap = profile_outcome(block_profile_of, prog)
        assert (digest, trap) == profile_outcome(interpreter_profile, prog)
        if trap is not None:
            assert getattr(exe, "_block_profile", None) is None
        interp = outcome(exe, "interp")
        jit3 = outcome(exe, "jit3")
        assert interp == jit3


@settings(max_examples=20, deadline=None)
@given(programs())
def test_tier3_budget_traps_identical_on_random_programs(src):
    # tier 3 translates a trace on first entry and hands an
    # over-budget tail to the interpreter, so a budget trap can fire
    # between translations; a rerun reuses the partial cache
    for options in PAPER_CONFIGS.values():
        prog = compile_cached(src, options)
        exe = prog.executable
        full, trap = outcome(exe, "interp")
        if trap is not None:
            continue
        block_profile_of(prog)
        for budget in (full.cycles - 1, full.cycles // 2, 7):
            assert profile_outcome(
                block_profile_of, prog, attach=False, max_cycles=budget
            ) == profile_outcome(
                interpreter_profile, prog, max_cycles=budget
            )
            interp = outcome(exe, "interp", max_cycles=budget)
            assert outcome(exe, "jit3", max_cycles=budget) == interp
            assert outcome(exe, "jit3", max_cycles=budget) == interp
