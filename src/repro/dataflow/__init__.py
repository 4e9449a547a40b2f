"""Iterative dataflow: generic framework, liveness, ANT/AV."""

from repro.dataflow.antav import AntAv, solve_ant_av
from repro.dataflow.framework import DataflowProblem, solve
from repro.dataflow.liveness import (
    InstrOperands,
    Liveness,
    VRegNumbering,
    bits,
    compute_liveness,
    instruction_live_sets,
)

__all__ = [
    "AntAv",
    "solve_ant_av",
    "DataflowProblem",
    "solve",
    "InstrOperands",
    "Liveness",
    "VRegNumbering",
    "bits",
    "compute_liveness",
    "instruction_live_sets",
]
