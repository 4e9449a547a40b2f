"""Observability for the incremental engine.

Every :meth:`Engine.compile` appends one :class:`CompileRecord` carrying
per-stage wall time and cache hit/miss counts; :class:`EngineStats`
aggregates them and serialises to JSON (the speed benchmark writes the
result next to ``BENCH_speed.json``).

The *invalidation cascade* of a compile is the number of procedures whose
plan key changed since the previous compile of the session -- the edited
procedures plus every ancestor whose merged subtree summary changed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List

#: the ``store`` stage has no pipeline work of its own: its seconds are
#: time spent in on-disk artifact-store I/O and its hits/misses are
#: store-level lookups (a store hit surfaces as a hit in the stage that
#: skipped work *and* here)
STAGES = ("frontend", "plan", "codegen", "link", "store")


@dataclass
class StageStats:
    """Wall time plus cache accounting for one pipeline stage."""

    seconds: float = 0.0
    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

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
    total_seconds: float = 0.0
    #: resilience counters (see :mod:`repro.engine.resilience`)
    degraded: int = 0            # procedures demoted to the open convention
    cache_corruptions: int = 0   # store entries detected corrupt and redone

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "functions": self.functions,
            "invalidated": self.invalidated,
            "total_seconds": round(self.total_seconds, 6),
            "degraded": self.degraded,
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
    #: tier-3 JIT translation decision summaries, one per jit3 run of a
    #: program this engine compiled (see :attr:`RunStats.jit3`)
    jit3_runs: List[Dict] = field(default_factory=list)
    #: convention-autotuner search progress, one event dict per search
    #: step (start / evaluate / halve / done; see :mod:`repro.tuning`)
    tune_events: List[Dict] = field(default_factory=list)

    def begin(self, kind: str = "program") -> CompileRecord:
        record = CompileRecord(kind=kind)
        self.records.append(record)
        return record

    def record_jit3(self, info: Dict) -> None:
        """Record one tier-3 run's translation decisions."""
        self.jit3_runs.append(dict(info))

    def record_tune(self, event: Dict) -> None:
        """Record one autotuner search event."""
        self.tune_events.append(dict(event))

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
            "jit3_runs": [dict(r) for r in self.jit3_runs],
            "tune_events": [dict(e) for e in self.tune_events],
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
