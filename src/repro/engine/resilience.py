"""Per-compile fault reporting for the resilient engine.

Chow's *open* classification is itself a graceful-degradation device:
any procedure the allocator cannot fully analyse falls back to the
default linkage convention and stays sound, merely conservative
(PAPER.md section 3).  A resilient :class:`~repro.engine.core.Engine`
extends that safety valve from "cannot analyse" to "analysis crashed":
a per-procedure fault boundary catches failures in planning or codegen
and *demotes* the procedure down an escalating ladder of ever more
conservative strategies, every rung of which presents the default
linkage (an open procedure, a callee-saved barrier) to callers.  The
rungs are fixed, in escalation order (:data:`LADDER`); each names a
strategy:

=======================  ==================================================
fallback tag             strategy
=======================  ==================================================
``open``                 replan as an open procedure (closed procedures
                         only -- the failing closed-mode machinery is
                         skipped)
``open-noshrinkwrap``    ``open`` with shrink-wrapping disabled
``open-noregalloc``      ``open-noshrinkwrap`` with an empty register
                         file: no allocation at all, every value memory-
                         resident -- the reference convention
=======================  ==================================================

Every rung keeps the *true* summaries of closed callees in view: a
demoted caller must still act as a save barrier for callee-saved
registers its closed subtree clobbers, otherwise the demotion would be
unsound rather than conservative.  A procedure that fails every rung
is genuinely uncompilable and the original error propagates.

Demoted plans are never cached: a fault must not poison the session's
plan or codegen caches, so the next fault-free compile of the same key
recomputes the clean artifact.  This ladder is the one place a failing
compile degrades: the compile service serves every request through a
resilient engine, so a procedure whose planning or codegen raises is
demoted on its first request, not retried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

#: the open-demotion ladder in escalation order: rung ``k`` (1-based)
#: applies the strategy ``LADDER[k - 1]``
LADDER: Tuple[str, ...] = ("open", "open-noshrinkwrap", "open-noregalloc")


@dataclass
class DegradationRecord:
    """One procedure demoted to the open convention by a fault."""

    procedure: str
    stage: str        # 'plan' | 'codegen'
    error: str        # repr of the exception that tripped the boundary
    fallback: str     # ladder tag of the rung that finally succeeded

    def to_dict(self) -> Dict[str, str]:
        return {
            "procedure": self.procedure,
            "stage": self.stage,
            "error": self.error,
            "fallback": self.fallback,
        }


@dataclass
class CompileReport:
    """Resilience outcome of one :meth:`Engine.compile` call."""

    degradations: List[DegradationRecord] = field(default_factory=list)
    #: store entries detected corrupt, invalidated and recomputed
    cache_corruptions: int = 0
    #: JIT translations that fell back to the interpreter tier
    jit_fallbacks: int = 0

    def degraded_procedures(self) -> Set[str]:
        return {d.procedure for d in self.degradations}

    def record(
        self, procedure: str, stage: str, error: BaseException, fallback: str
    ) -> None:
        """Record one degradation, deduplicating by (procedure, stage)."""
        for d in self.degradations:
            if d.procedure == procedure and d.stage == stage:
                d.error = repr(error)
                d.fallback = fallback
                return
        self.degradations.append(
            DegradationRecord(procedure, stage, repr(error), fallback)
        )

    def to_dict(self) -> Dict:
        return {
            "degradations": [d.to_dict() for d in self.degradations],
            "cache_corruptions": self.cache_corruptions,
            "jit_fallbacks": self.jit_fallbacks,
        }
