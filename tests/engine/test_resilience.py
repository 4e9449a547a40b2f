"""The resilient engine's fault boundary.

A fault in any per-procedure stage must demote that procedure to the
open convention (sound, conservative) instead of aborting the session;
the fault-free path must stay bit-identical to a non-resilient build;
and a transient fault must not poison the session caches.
"""

import re
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.engine.session import Compiler
from repro.engine.stats import CompileRecord
from repro.pipeline.driver import _reference_compile_program
from repro.pipeline.options import O3_SW

SRC = """
func leaf(x) { return x * 3 + 1; }
func mid(x) { var t; t = leaf(x) + leaf(x + 1); return t; }
func main() {
  var s; var i;
  s = 0;
  i = 0;
  while (i < 5) { s = s + mid(i); i = i + 1; }
  print s;
}
"""


def snap(exe):
    return ([repr(i) for i in exe.instrs], exe.preserved_masks)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.clear()


def reference():
    return _reference_compile_program(SRC, O3_SW)


def resilient_compile(plan=None):
    session = Compiler(O3_SW, resilient=True).add_sources(SRC)
    if plan is None:
        return session.compile()
    with faults.active(plan):
        return session.compile()


def test_fault_free_resilient_build_is_bit_identical():
    built = resilient_compile()
    assert built.record is not None
    assert not built.record.degradations
    assert snap(built.executable) == snap(reference().executable)


def test_plan_fault_demotes_to_open_and_stays_sound():
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_PLAN, match="leaf")]
    )
    built = resilient_compile(plan)
    assert plan.fired == [("plan", "leaf", "raise")]
    (d,) = built.record.degradations
    assert d.procedure == "leaf"
    assert d.stage == "plan"
    assert d.fallback == "open"
    assert "InjectedFault" in d.error
    # the demoted program is conservative, never wrong
    assert built.run().output == reference().run().output
    # the degraded procedure really is open: callers treat it as a
    # callee-saved barrier, so its plan is mode "open"
    assert built.plan.plans["leaf"].mode == "open"


def test_codegen_fault_restarts_and_demotes():
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_CODEGEN, match="mid")]
    )
    built = resilient_compile(plan)
    (d,) = built.record.degradations
    assert (d.procedure, d.stage) == ("mid", "codegen")
    assert built.run().output == reference().run().output


def test_coloring_fault_is_caught_by_the_plan_boundary():
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_COLORING, match="main")]
    )
    built = resilient_compile(plan)
    (d,) = built.record.degradations
    assert d.procedure == "main"
    # rung 1 replans open, which still runs coloring; the fault is
    # consumed by then (count=1), so either rung may have succeeded
    assert d.fallback in ("open", "open-noshrinkwrap")
    assert built.run().output == reference().run().output


def test_session_caches_are_not_poisoned_by_a_fault():
    session = Compiler(O3_SW, resilient=True).add_sources(SRC)
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_PLAN, match="leaf")]
    )
    with faults.active(plan):
        faulted = session.compile()
    assert faulted.record.degradations
    # same session, no faults: clean bit-identical artifact
    clean = session.compile()
    assert not clean.record.degradations
    assert snap(clean.executable) == snap(reference().executable)


def test_non_resilient_engine_propagates_the_fault():
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_PLAN, match="leaf")]
    )
    session = Compiler(O3_SW).add_sources(SRC)
    with faults.active(plan):
        with pytest.raises(faults.InjectedFault):
            session.compile()


def test_demotion_exhaustion_reraises_the_original_error():
    # a persistent coloring fault fails every rung (even the reference
    # convention runs the allocator), so the procedure is genuinely
    # uncompilable and the original error must surface
    plan = faults.FaultPlan(specs=[faults.FaultSpec(
        site=faults.SITE_COLORING, match="leaf", count=None,
    )])
    session = Compiler(O3_SW, resilient=True).add_sources(SRC)
    with faults.active(plan):
        with pytest.raises(faults.InjectedFault):
            session.compile()


def test_degradations_surface_in_session_stats():
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_PLAN, match="leaf")]
    )
    session = Compiler(O3_SW, resilient=True).add_sources(SRC)
    with faults.active(plan):
        session.compile()
    record = session.stats.records[-1]
    assert record.degraded == 1
    totals = session.stats.fault_totals()
    assert totals["degraded"] == 1
    assert "faults" in session.stats.to_dict()


def test_report_dedups_by_procedure_and_stage():
    record = CompileRecord()
    record.record("f", "plan", ValueError("a"), "open")
    record.record("f", "plan", ValueError("b"), "open-noshrinkwrap")
    record.record("f", "codegen", ValueError("c"), "open")
    assert len(record.degradations) == 2
    assert record.degraded == 2
    assert record.degradations[0].fallback == "open-noshrinkwrap"
    assert record.degraded_procedures() == {"f"}


def test_module_compile_keeps_the_demoted_names():
    plan = faults.FaultPlan(
        specs=[faults.FaultSpec(site=faults.SITE_PLAN, match="leaf")]
    )
    session = Compiler(O3_SW, resilient=True)
    with faults.active(plan):
        session.compile_module(SRC)
    record = session.stats.records[-1]
    assert record.kind == "module"
    assert record.degraded_procedures() == {"leaf"}


def test_every_fault_site_is_consulted():
    """A site no component consults guards nothing; retired sites stay
    rejected so a stale fault plan fails loudly."""
    consult = re.compile(
        r"faults\.(?:check|corrupts)\(\s*faults\.(SITE_\w+)"
    )
    consulted = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        consulted.update(consult.findall(path.read_text()))
    wired = {getattr(faults, name) for name in consulted}
    assert set(faults.ALL_SITES) <= wired, \
        set(faults.ALL_SITES) - wired
    for retired in ("cache-plan", "cache-codegen", "worker",
                    "service-queue", "suite-worker"):
        with pytest.raises(ValueError):
            faults.FaultSpec(site=retired)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        faults.FaultSpec(site="nope")
    with pytest.raises(ValueError):
        faults.FaultSpec(site=faults.SITE_PLAN, kind="explode")
    with pytest.raises(ValueError):
        faults.FaultSpec(site=faults.SITE_PLAN, kind="kill")
