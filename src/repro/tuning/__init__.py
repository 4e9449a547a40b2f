"""Calling-convention autotuning over the first-class Convention API.

The paper fixes one linkage agreement -- 11 caller-saved registers,
9 callee-saved, 4 register arguments -- and measures its save/restore
penalty.  With :class:`~repro.target.registers.Convention` as data, that
agreement becomes a *search variable*: the tuner enumerates (or
successive-halves over) candidate conventions, compiles the benchmark
suite under each through the incremental engine, scores candidates on
the paper's own metrics (dynamic cycles, save/restore memory traffic)
plus compile wall-clock, and reports per-program and global optima
against the paper's fixed convention.

Entry points: :func:`repro.tuning.tune` (library),
``python -m repro.tools.tune`` (CLI).
"""

from repro.tuning.space import (
    budget_candidates,
    full_space,
    neighbors,
    sample_space,
    small_space,
)
from repro.tuning.tuner import (
    TUNE_SCHEMA_VERSION,
    CandidateResult,
    TuneResult,
    Tuner,
    check_report,
    compare_reports,
    tune,
)

__all__ = [
    "TUNE_SCHEMA_VERSION",
    "CandidateResult",
    "TuneResult",
    "Tuner",
    "budget_candidates",
    "check_report",
    "compare_reports",
    "full_space",
    "neighbors",
    "sample_space",
    "small_space",
    "tune",
]
