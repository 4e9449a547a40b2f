"""Observability for the incremental engine.

Every :meth:`Engine.compile` / :meth:`Engine.compile_module` appends
one :class:`CompileRecord`, the compile's only outcome object: per-stage
wall time and cache hit/miss counts, the procedures a resilient engine
demoted, and the store entries found corrupt.  :class:`EngineStats`
aggregates the records and serialises them to JSON
(:meth:`EngineStats.to_json`).  What happens when a program *runs* is
the run's own :class:`~repro.sim.stats.RunStats`.

The *invalidation cascade* of a compile is the number of procedures whose
plan key changed since the previous compile of the session -- the edited
procedures plus every ancestor whose merged subtree summary changed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.engine.resilience import DegradationRecord

#: the pipeline stages; their timers never overlap, so their seconds add
PIPELINE_STAGES = ("frontend", "plan", "codegen", "link")
#: the ``store`` stage has no pipeline work of its own: its seconds are
#: time spent in on-disk artifact-store I/O -- already inside the
#: pipeline stages' timers -- and its hits/misses are store-level
#: lookups (a store hit surfaces as a hit in the stage that skipped
#: work *and* here)
STAGES = PIPELINE_STAGES + ("store",)


@dataclass
class StageStats:
    """Wall time plus cache accounting for one pipeline stage."""

    seconds: float = 0.0
    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def add(self, other: "StageStats") -> None:
        self.seconds += other.seconds
        self.hits += other.hits
        self.misses += other.misses

    def to_dict(self) -> Dict[str, float]:
        return {
            "seconds": round(self.seconds, 6),
            "hits": self.hits,
            "misses": self.misses,
        }


@dataclass
class CompileRecord:
    """One :meth:`Engine.compile` / :meth:`Engine.compile_module` call."""

    kind: str = "program"            # 'program' | 'module'
    functions: int = 0
    stages: Dict[str, StageStats] = field(
        default_factory=lambda: {s: StageStats() for s in STAGES}
    )
    #: procedures whose plan key changed since the previous compile
    invalidated: int = 0
    #: wall time of the pipeline stages (store I/O runs inside them)
    total_seconds: float = 0.0
    #: procedures a resilient engine demoted to the open convention
    #: (see :mod:`repro.engine.resilience`); always empty otherwise
    degradations: List[DegradationRecord] = field(default_factory=list)
    #: store entries detected corrupt, invalidated and recomputed
    cache_corruptions: int = 0

    @property
    def degraded(self) -> int:
        return len(self.degradations)

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
            "kind": self.kind,
            "functions": self.functions,
            "invalidated": self.invalidated,
            "total_seconds": round(self.total_seconds, 6),
            "degraded": self.degraded,
            "degradations": [d.to_dict() for d in self.degradations],
            "cache_corruptions": self.cache_corruptions,
            "stages": {k: v.to_dict() for k, v in self.stages.items()},
        }


class _StageTimer:
    def __init__(self, stage: StageStats):
        self._stage = stage

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._stage.seconds += time.perf_counter() - self._t0
        return False


@dataclass
class EngineStats:
    """Aggregated observability across a session's compiles."""

    records: List[CompileRecord] = field(default_factory=list)

    def begin(self, kind: str = "program") -> CompileRecord:
        record = CompileRecord(kind=kind)
        self.records.append(record)
        return record

    def timer(self, record: CompileRecord, stage: str) -> _StageTimer:
        return _StageTimer(record.stages[stage])

    # -- aggregates ---------------------------------------------------------

    @property
    def compiles(self) -> int:
        return len(self.records)

    def stage_totals(self) -> Dict[str, StageStats]:
        totals = {s: StageStats() for s in STAGES}
        for record in self.records:
            for s in STAGES:
                totals[s].add(record.stages[s])
        return totals

    def cascade_sizes(self) -> List[int]:
        return [r.invalidated for r in self.records if r.kind == "program"]

    def fault_totals(self) -> Dict[str, int]:
        """Session-wide resilience counters (suite reports surface these
        as per-run fault totals)."""
        return {
            "degraded": sum(r.degraded for r in self.records),
            "cache_corruptions": sum(
                r.cache_corruptions for r in self.records
            ),
        }

    def to_dict(self) -> Dict:
        return {
            "compiles": self.compiles,
            "stages": {k: v.to_dict() for k, v in self.stage_totals().items()},
            "invalidation_cascades": self.cascade_sizes(),
            "faults": self.fault_totals(),
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
