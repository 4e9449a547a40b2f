"""Incremental summary-keyed compilation engine.

See :mod:`repro.engine.core` for the cache model,
:mod:`repro.engine.session` for the user-facing :class:`Compiler`, and
:mod:`repro.engine.resilience` for the fault boundary of a resilient
session.
"""

from repro.engine.core import Engine
from repro.engine.resilience import DegradationRecord
from repro.engine.session import Compiler
from repro.engine.stats import CompileRecord, EngineStats, StageStats

__all__ = [
    "Compiler",
    "CompileRecord",
    "DegradationRecord",
    "Engine",
    "EngineStats",
    "StageStats",
]
