"""Tier-3 trace JIT unit tests: inlining and its bailouts, loop
linking, trap identity inside inlined bodies, translation on first
entry and the over-budget tail handed to the interpreter, translation
cache keying, and the fallback to the interpreter."""

import pytest

from helpers import count_tails

from repro import faults
from repro.ir.arith import MachineTrap
from repro.pipeline.driver import compile_program
from repro.pipeline.options import O2, O3_SW
from repro.pipeline.profile import attach_profile, block_profile_of
from repro.sim import jit, run_program, simulate
from repro.sim.jit import Jit3Program, run_jit3
from repro.tools.reports import jit3_report

HOT_CALL = """
func add(a, b) { return a + b; }
func main() {
  var s = 0; var i;
  for (i = 0; i < 60; i = i + 1) { s = s + add(i, 3); }
  print(s);
  return 0;
}
"""


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.clear()


def build(src=HOT_CALL, options=O3_SW):
    prog = compile_program(src, options)
    profile = block_profile_of(prog)
    return prog.executable, profile


# -- inlining and loop linking ----------------------------------------------

def test_hot_call_is_inlined_and_loop_linked():
    exe, profile = build()
    ref = run_program(exe)
    stats = run_jit3(exe, profile=profile)
    assert stats == ref
    info = stats.jit3
    assert info["inlined_calls"] >= 1
    assert info["linked_returns"] >= 1
    assert info["linked_loops"] >= 1
    assert info["elided_syncs"] > 0


# -- inline-guard bailouts ---------------------------------------------------

def test_footprint_conflict_bails_out(monkeypatch):
    monkeypatch.setattr(jit, "MAX_TRACE_REGS", 1)
    exe, profile = build()
    stats = run_jit3(exe, profile=profile)
    assert stats.jit3["inlined_calls"] == 0
    assert stats.jit3["bailouts"].get("footprint", 0) >= 1
    assert stats == run_program(exe)


def test_cold_call_is_not_inlined(monkeypatch):
    monkeypatch.setattr(jit, "HOT_CALLS", 10 ** 9)
    exe, profile = build()
    stats = run_jit3(exe, profile=profile)
    assert stats.jit3["inlined_calls"] == 0
    assert stats.jit3["bailouts"].get("cold", 0) >= 1
    assert stats == run_program(exe)


INDIRECT = """
func g(x) { return x * 2; }
func main() {
  var p = &g; var s = 0; var i;
  for (i = 0; i < 40; i = i + 1) { s = s + p(i); }
  print(s);
  return 0;
}
"""


def test_indirect_call_bails_out():
    exe, profile = build(INDIRECT)
    stats = run_jit3(exe, profile=profile)
    assert stats.jit3["bailouts"].get("indirect_call", 0) >= 1
    assert stats == run_program(exe)


TRAPPING_CALLEE = """
func div(a, b) { return a / b; }
func main() {
  var s = 0; var i;
  for (i = 20; i >= %s; i = i - 1) { s = s + div(100, i); }
  print(s);
  return 0;
}
"""


def trapping_exe_with_profile():
    # the program traps at i == 0, so it cannot be profiled directly;
    # a non-trapping twin (identical shape, identical labels) supplies
    # the name-keyed profile that makes div() hot
    _, profile = build(TRAPPING_CALLEE % "1")
    exe = compile_program(TRAPPING_CALLEE % "0", O3_SW).executable
    return exe, profile


def test_trap_inside_inlined_body_is_identical():
    # div() is hot (inlined) and traps on the last iteration (i == 0):
    # the inlined trace must raise the interpreter's exact message
    exe, profile = trapping_exe_with_profile()
    with pytest.raises(MachineTrap) as interp:
        run_program(exe)
    with pytest.raises(MachineTrap) as jit3:
        run_jit3(exe, profile=profile)
    assert str(interp.value) == str(jit3.value)


def test_trap_inside_inlined_body_is_identical_strict():
    exe, profile = trapping_exe_with_profile()
    prog = Jit3Program(exe, profile=profile)
    with pytest.raises(MachineTrap, match="divide by zero"):
        prog.run()
    assert prog.jit3_stats["inlined_calls"] >= 1


def test_budget_traps_are_identical_at_every_cycle_count():
    # traces hoist all budget checks into one entry test that hands
    # the rest of the run to the interpreter; a sweep of tight budgets
    # exercises the hand-off against the interpreter's exact behaviour
    exe, profile = build()
    full = run_program(exe).cycles

    def outcome(budget, runner):
        try:
            s = runner(max_cycles=budget)
            return ("ok", s.cycles, s.instructions, tuple(s.output))
        except MachineTrap as e:
            return ("trap", str(e))

    for budget in (1, 7, 50, full - 2, full - 1, full, full + 1):
        interp = outcome(
            budget, lambda **kw: run_program(exe, **kw)
        )
        jit3 = outcome(
            budget, lambda **kw: run_jit3(exe, profile=profile, **kw)
        )
        assert interp == jit3, f"budget {budget}: {interp} != {jit3}"


def test_budget_at_the_trap_boundary_is_identical():
    # the interpreter's guard before a trapping instruction decides
    # which trap wins when the budget runs out right there: sweep the
    # budgets around the boundary between the budget trap and the
    # divide by zero
    exe, profile = trapping_exe_with_profile()

    def message(runner, budget):
        with pytest.raises(MachineTrap) as trap:
            runner(exe, max_cycles=budget)
        return str(trap.value)

    lo, hi = 1, 10 ** 6   # smallest budget that reaches the divide
    while lo < hi:
        mid = (lo + hi) // 2
        if message(run_program, mid) == "cycle budget exceeded":
            lo = mid + 1
        else:
            hi = mid
    assert "divide by zero" in message(run_program, lo)
    for budget in range(lo - 3, lo + 3):
        assert message(
            lambda e, **kw: run_jit3(e, profile=profile, **kw), budget
        ) == message(run_program, budget), budget


def test_generous_budget_never_enters_the_interpreter(monkeypatch):
    # every trace tests the budget at entry, but a run that never nears
    # the budget never trips the test, so the interpreter runs nothing
    tails = count_tails(monkeypatch)
    exe, profile = build()
    prog = Jit3Program(exe, profile=profile)
    assert prog.run() == run_program(exe)
    assert prog.run() == run_program(exe)
    assert tails == []


def test_tight_budget_hands_one_tail_to_the_interpreter(monkeypatch):
    tails = count_tails(monkeypatch)
    exe, profile = build()
    budget = run_program(exe).cycles // 2
    with pytest.raises(MachineTrap, match="cycle budget") as interp:
        run_program(exe, max_cycles=budget)
    prog = Jit3Program(exe, max_cycles=budget, profile=profile)
    with pytest.raises(MachineTrap) as jit3:
        prog.run()
    assert str(jit3.value) == str(interp.value)
    assert len(tails) == 1
    # the translation is kept: a rerun hands off and traps the same way
    with pytest.raises(MachineTrap) as again:
        prog.run()
    assert str(again.value) == str(interp.value)
    assert len(tails) == 2


UNCALLED = """
func unused(x) { return x * 3; }
func add(a, b) { return a + b; }
func main() {
  var s = 0; var i;
  for (i = 0; i < 60; i = i + 1) { s = s + add(i, 3); }
  if (s < 0) { s = unused(s); }
  print(s);
  return 0;
}
"""


def test_profiled_run_never_translates_an_uncalled_function():
    exe, profile = build(UNCALLED)
    prog = Jit3Program(exe, profile=profile)
    assert not prog.table           # nothing is translated before run
    assert prog.run() == run_program(exe)
    assert prog.jit3_stats["inlined_calls"] >= 1
    entry = exe.func_entries["unused"]
    end = entry + prog._extent[entry]
    assert not [pc for pc in prog.table if entry <= pc < end]


# -- caching and tier separation --------------------------------------------

def test_tier2_and_tier3_translations_never_collide():
    exe, profile = build()
    a = simulate(exe, sim_tier="jit")
    b = run_jit3(exe, profile=profile)
    assert a == b
    keys = set(exe._jit_cache)
    tags = sorted(k[0] for k in keys)
    assert tags == ["jit", "jit3"]


def test_profile_digest_is_part_of_the_cache_key():
    exe, profile = build()
    run_jit3(exe, profile=profile)
    run_jit3(exe, profile=None)
    tags = [k for k in exe._jit_cache if k[0] == "jit3"]
    assert len(tags) == 2


# -- the fallback to the interpreter -----------------------------------------

def test_jit3_fault_falls_down_the_ladder():
    # the ladder has one rung: a fault at construction, at an inline
    # decision or at a loop link (both mid-run, since traces translate
    # on first entry) lands the "auto" run on the interpreter
    exe, profile = build()
    ref = run_program(exe)
    for key in ("translate", "inline", "link"):
        fresh = compile_program(HOT_CALL, O3_SW).executable
        attach_profile(fresh, profile)
        plan = faults.FaultPlan(specs=[
            faults.FaultSpec(site=faults.SITE_JIT, match=key, count=None)
        ])
        with faults.active(plan):
            stats = simulate(fresh, sim_tier="auto")
        assert stats == ref
        assert stats.sim_fallback.startswith("jit3: ")
        assert plan.fired


def test_jit3_and_jit_faults_land_on_the_interpreter():
    # with or without a profile, one failure is recorded and the
    # interpreter runs the program
    exe, profile = build()
    ref = run_program(exe)
    for attached, tag in ((profile, "jit3"), (None, "jit")):
        fresh = compile_program(HOT_CALL, O3_SW).executable
        if attached is not None:
            attach_profile(fresh, attached)
        plan = faults.FaultPlan(specs=[
            faults.FaultSpec(site=faults.SITE_JIT, count=None),
        ])
        with faults.active(plan):
            stats = simulate(fresh, sim_tier="auto")
        assert stats == ref
        assert stats.sim_fallback.startswith(f"{tag}: ")
        assert ";" not in stats.sim_fallback


# -- auto escalation and explicit tier --------------------------------------

def test_auto_escalates_when_a_profile_is_attached():
    prog = compile_program(HOT_CALL, O2)

    def tiers():
        return {key[0] for key in prog.executable._jit_cache}

    prog.run()
    assert tiers() == {"jit"}               # no profile: tier "jit"
    block_profile_of(prog)                  # attaches as a side effect
    stats = prog.run()
    assert tiers() == {"jit", "jit3"}       # profile attached: tier 3
    assert stats == prog.run(sim_tier="interp")


def test_explicit_jit3_self_profiles():
    exe = compile_program(HOT_CALL, O2).executable
    stats = simulate(exe, sim_tier="jit3")
    assert stats.jit3 is not None
    assert stats == run_program(exe)
    assert getattr(exe, "_block_profile", None) is not None


def test_jit3_tier_rejects_interpreter_features():
    exe = compile_program("func main() {}", O2).executable
    with pytest.raises(ValueError, match="check_contracts"):
        simulate(exe, sim_tier="jit3", check_contracts=True)


# -- reporting ---------------------------------------------------------------

def test_jit3_report_renders_decisions():
    exe, profile = build()
    stats = run_jit3(exe, profile=profile)
    text = jit3_report(stats)
    assert "inlined calls" in text and "linked loops" in text
    assert jit3_report(stats.jit3) == text
    assert "no translation data" in jit3_report(run_program(exe))

