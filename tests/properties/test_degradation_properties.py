"""Soundness of degradation: a resilient build in which *every*
procedure is force-demoted to the open classification must still
compute the same answer as a clean reference build, under every paper
configuration.  Demotion is allowed to cost performance, never
correctness.
"""

from hypothesis import given, settings

from repro import faults
from repro.engine.session import Compiler
from repro.pipeline.driver import _reference_compile_program
from repro.pipeline.options import PAPER_CONFIGS
from test_program_properties import programs


@settings(max_examples=10, deadline=None)
@given(programs())
def test_all_procedures_demoted_still_computes_the_same_answer(src):
    try:
        for config, options in sorted(PAPER_CONFIGS.items()):
            reference = _reference_compile_program(src, options)
            expected = reference.run().output

            plan = faults.FaultPlan(specs=[faults.FaultSpec(
                site=faults.SITE_PLAN, count=None,
            )])
            session = Compiler(options, resilient=True).add_sources(src)
            with faults.active(plan):
                degraded = session.compile()

            record = degraded.record
            # every procedure hit the fault, so every procedure must be
            # on record as demoted somewhere on the open ladder (a
            # procedure that is already open under these options skips
            # straight to the stricter rungs)
            assert record.degraded_procedures() == set(
                degraded.plan.plans
            ), config
            assert all(
                d.fallback.startswith("open") for d in record.degradations
            ), config
            assert degraded.run().output == expected, config
    finally:
        faults.clear()
