"""Tier "auto" resilience: a JIT *translation* failure falls back to
the reference interpreter (recorded, bit-identical stats), while
program semantics -- traps, an explicit tier choice -- are never
papered over."""

import pytest

from repro import faults
from repro.ir.arith import MachineTrap
from repro.pipeline.driver import compile_program
from repro.pipeline.options import O3_SW
from repro.sim import run_program, simulate
from repro.sim.jit import JitProgram

SRC = """
func f(n) {
  if (n < 2) { return n; }
  return f(n - 1) + f(n - 2);
}
func main() { print f(10); }
"""


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.clear()


def fresh_exe():
    # compile fresh each time so no JitProgram translation cache from a
    # previous test hides the injected translation failure
    return compile_program(SRC, O3_SW).executable


def test_translation_failure_falls_back_to_interpreter():
    exe = fresh_exe()
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_JIT, count=None)]
    )
    with faults.active(plan):
        stats = simulate(exe, sim_tier="auto")
    assert stats.sim_fallback is not None
    assert "InjectedFault" in stats.sim_fallback
    # bit-identical to a straight interpreter run (sim_fallback is
    # excluded from RunStats equality)
    assert stats == run_program(fresh_exe())


def test_fallback_reason_is_on_the_program_run_stats():
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_JIT, count=None)]
    )
    from repro.engine.session import Compiler

    prog = Compiler(O3_SW, resilient=True).add_sources(SRC).compile()
    with faults.active(plan):
        stats = prog.run(sim_tier="auto")
    assert "InjectedFault" in stats.sim_fallback


def test_explicit_jit_tier_propagates_the_failure():
    exe = fresh_exe()
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_JIT, count=None)]
    )
    with faults.active(plan):
        with pytest.raises(faults.InjectedFault):
            simulate(exe, sim_tier="jit")


def test_machine_trap_is_not_swallowed_by_the_fallback():
    exe = fresh_exe()
    # an exhausted cycle budget is program semantics, not a translation
    # fault: tier "auto" must surface it, not rerun on the interpreter
    with pytest.raises(MachineTrap):
        simulate(exe, sim_tier="auto", max_cycles=10)


def test_fault_free_auto_tier_records_no_fallback():
    stats = simulate(fresh_exe(), sim_tier="auto")
    assert stats.sim_fallback is None
    assert stats == run_program(fresh_exe())


# -- translation failing mid-run ----------------------------------------------

# ``late``'s trace is first entered after ``main`` has printed, so
# under on-first-entry translation it fails with output already produced;
# ``late`` makes a call, so the translator does not inline it into main
LATE = """
func seven(n) { return n * 7; }
func late(n) { return seven(n); }
func main() { print 1; print late(6); }
"""


def fail_late_translation(monkeypatch, exc):
    """Make the translator raise ``exc`` when it translates ``late``'s
    entry."""
    exe = compile_program(LATE, O3_SW).executable
    late = exe.func_entries["late"]
    original = JitProgram._translate_superblock

    def translate(self, start):
        if start == late:
            # main's trace (which prints first) already ran
            assert exe.entry_pc in self.table
            raise exc
        return original(self, start)

    monkeypatch.setattr(JitProgram, "_translate_superblock", translate)
    return exe


def test_mid_run_translation_failure_falls_back_cleanly(monkeypatch):
    exe = fail_late_translation(monkeypatch, RuntimeError("late"))
    stats = simulate(exe, sim_tier="auto")
    assert stats.sim_fallback is not None
    assert "RuntimeError('late')" in stats.sim_fallback
    ref = run_program(compile_program(LATE, O3_SW).executable)
    assert stats == ref
    # the translated run's partial output never reaches the result
    assert stats.output == ref.output == [1, 42]


def test_mid_run_translation_failure_propagates_on_explicit_jit(monkeypatch):
    exe = fail_late_translation(monkeypatch, RuntimeError("late"))
    with pytest.raises(RuntimeError, match="late"):
        simulate(exe, sim_tier="jit")


def test_mid_run_machine_trap_is_not_swallowed(monkeypatch):
    exe = fail_late_translation(monkeypatch, MachineTrap("late trap"))
    with pytest.raises(MachineTrap, match="late trap"):
        simulate(exe, sim_tier="auto")


def test_tier2_inline_fault_falls_back_to_interpreter():
    # tier "jit" inlines small leaves, so it reaches the "inline" fault
    # point mid-run; tier "auto" reruns the program on the interpreter
    src = "func leaf(x) { return x + 1; }\nfunc main() { print leaf(41); }"
    exe = compile_program(src, O3_SW).executable
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_JIT, match="inline", count=None)
    ])
    with faults.active(plan):
        stats = simulate(exe, sim_tier="auto")
    assert plan.fired
    assert stats.sim_fallback.startswith("jit: ")
    assert stats == run_program(compile_program(src, O3_SW).executable)
    assert stats.output == [42]
