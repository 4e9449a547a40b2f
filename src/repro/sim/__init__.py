"""Virtual-machine simulators and pixie-style statistics.

Two engines, selected by the ``sim_tier`` knob on :func:`simulate`
(and on every ``RunStats``-producing entry point above it): the
reference interpreter (:func:`run_program`) and the pixie-style trace
translator with loop linking, which runs without a profile as tier
``"jit"`` (:func:`run_jit`), inlining only small leaves, and fed a
block profile as tier ``"jit3"`` (:func:`run_jit3`), adding
profile-guided branch following and inlining.  All
tiers produce bit-identical :class:`RunStats`; the interpreter
additionally supports contract checking, to which ``auto`` falls
back.  Block profiles are collected
by one run of a profiling translation (:func:`repro.sim.jit.run_profiling`,
a :class:`JitProgram` given ``block_counts``), with the interpreter's
profiling hooks kept as its test oracle.
``auto`` runs the translator (with the executable's block profile when
one is attached) and falls back to the interpreter on a translation
failure.
"""

from repro.sim.jit import (
    Jit3Program,
    JitProgram,
    run_jit,
    run_jit3,
    SIM_TIERS,
    simulate,
)
from repro.sim.simulator import (
    ContractViolation,
    DEFAULT_MAX_CYCLES,
    DEFAULT_STACK_WORDS,
    run_program,
)
from repro.sim.stats import RunStats, percent_reduction

__all__ = [
    "ContractViolation",
    "DEFAULT_MAX_CYCLES",
    "DEFAULT_STACK_WORDS",
    "Jit3Program",
    "JitProgram",
    "run_program",
    "run_jit",
    "run_jit3",
    "simulate",
    "SIM_TIERS",
    "RunStats",
    "percent_reduction",
]
