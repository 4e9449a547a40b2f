"""The calling-convention autotuner.

Search strategy: evaluate a candidate list (from
:mod:`repro.tuning.space`) with **successive halving** -- early rounds
score every candidate on a small probe subset of the benchmark suite,
each round keeps the better half and widens the program set, and the
final round always scores the survivors (plus the paper's baseline
convention) on the full selected suite.  ``--budget small`` skips the
halving and scores its fixed micro-space directly.

Evaluation paths:

* ``jobs == 1`` -- the suite compiles on the calling thread through one
  shared incremental :class:`~repro.engine.core.Engine`, one
  :meth:`Engine.compile_batch` per candidate: the front-end caches hit
  across *every* candidate (the sources never change), plan/codegen
  caches are keyed by the candidate's ``Convention.key()`` so
  candidates never collide, and with ``store_path=`` the artifact store
  warm-starts later tuning runs.
* ``jobs > 1`` -- candidates run through
  :func:`repro.benchsuite.run_suite`'s supervised process pool; the
  convention crosses into workers as a plain spec dict.

Every run is deterministic under a fixed seed: candidate order, probe
subsets and ranking tie-breaks derive only from the seed and the
benchmark registry order, and the simulator's metrics are exact counts.
Wall-clock fields are informational and never feed a search decision.

Scoring follows the paper: total dynamic cycles first, then the
save/restore memory penalty (the quantity Chow's techniques minimise),
then total scalar traffic.  A candidate that fails to compile, crashes
a run, or -- worse -- *changes a program's output* is disqualified
outright; output equivalence against the baseline run is checked for
every (candidate, program) cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.benchsuite.harness import run_suite
from repro.benchsuite.registry import load_benchmarks
from repro.engine.core import Engine
from repro.engine.stats import EngineStats
from repro.pipeline.options import PAPER_CONFIGS
from repro.sim.stats import RunStats, percent_reduction
from repro.target.registers import (
    Convention,
    DEFAULT_CONVENTION,
    validate_convention,
)
from repro.tuning.space import budget_candidates

#: bump when the report layout changes; ``--check`` validates the
#: committed ``benchmarks/TUNE_report.json`` against this
TUNE_SCHEMA_VERSION = 2

#: metric keys every per-program cell carries
METRICS = ("cycles", "save_restore_memops", "scalar_memops")

#: report keys ``check_report`` requires at TUNE_SCHEMA_VERSION
REQUIRED_KEYS = (
    "schema_version", "config", "budget", "seed", "jobs", "programs",
    "baseline", "candidates", "winner", "per_program_winners",
)


def _metrics(stats: RunStats) -> Dict[str, int]:
    return {
        "cycles": stats.cycles,
        "save_restore_memops": stats.save_restore_memops,
        "scalar_memops": stats.scalar_memops,
    }


@dataclass
class CandidateResult:
    """One convention's evaluation over a set of programs."""

    convention: Convention
    #: program name -> metric dict (missing when the cell errored)
    programs: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: program name -> repr of the failure (compile error, run error, or
    #: an output mismatch against the baseline -- a disqualifier)
    errors: Dict[str, str] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: successive-halving round this evaluation belongs to (1-based)
    round: int = 1

    @property
    def disqualified(self) -> bool:
        return bool(self.errors)

    def totals(self) -> Dict[str, int]:
        return {
            m: sum(cell[m] for cell in self.programs.values())
            for m in METRICS
        }

    def score(self) -> Tuple:
        """Ranking key: sound candidates first, then the paper's metrics
        lexicographically, then the convention key for determinism."""
        t = self.totals()
        return (
            self.disqualified,
            t["cycles"],
            t["save_restore_memops"],
            t["scalar_memops"],
            self.convention.key(),
        )

    def to_dict(self) -> Dict:
        return {
            "convention": self.convention.to_spec(),
            "programs": {k: dict(v) for k, v in sorted(self.programs.items())},
            "totals": self.totals(),
            "errors": dict(sorted(self.errors.items())),
            "wall_seconds": round(self.wall_seconds, 4),
            "round": self.round,
        }


@dataclass
class TuneResult:
    """Everything one tuning run learned."""

    config: str
    budget: str
    seed: int
    jobs: int
    sim_tier: str
    names: List[str]
    baseline: CandidateResult
    #: final-round evaluations (full program set), best first
    finalists: List[CandidateResult] = field(default_factory=list)
    #: every evaluation of every round, in execution order
    evaluations: List[CandidateResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    stats: Optional[EngineStats] = None

    @property
    def winner(self) -> CandidateResult:
        return self.finalists[0]

    def per_program_winners(self) -> Dict[str, Dict]:
        """For each program, the finalist (or baseline) with the fewest
        cycles -- the paper's fixed convention is rarely optimal for
        *every* program even when it wins globally."""
        pool = [self.baseline] + [
            f for f in self.finalists if not f.disqualified
        ]
        out: Dict[str, Dict] = {}
        for name in self.names:
            cells = [
                # baseline wins ties: a candidate must be strictly better
                (
                    c.programs[name]["cycles"],
                    0 if c is self.baseline else 1,
                    c.convention.key(),
                    c,
                )
                for c in pool
                if name in c.programs
            ]
            if not cells:
                continue
            cells.sort(key=lambda t: t[:3])
            best = cells[0][3]
            base = self.baseline.programs.get(name, {}).get("cycles", 0)
            out[name] = {
                "convention": best.convention.name,
                "spec": best.convention.to_spec(),
                "cycles": best.programs[name]["cycles"],
                "baseline_cycles": base,
                "reduction_pct": round(
                    percent_reduction(base, best.programs[name]["cycles"]), 2
                ),
            }
        return out

    def to_report(self) -> Dict:
        base_t = self.baseline.totals()
        win_t = self.winner.totals()
        report = {
            "schema_version": TUNE_SCHEMA_VERSION,
            "config": self.config,
            "budget": self.budget,
            "seed": self.seed,
            "jobs": self.jobs,
            "sim_tier": self.sim_tier,
            "programs": list(self.names),
            "baseline": self.baseline.to_dict(),
            "candidates": [c.to_dict() for c in self.evaluations],
            "winner": {
                **self.winner.to_dict(),
                "reduction_vs_baseline": {
                    m: round(percent_reduction(base_t[m], win_t[m]), 2)
                    for m in METRICS
                },
            },
            "per_program_winners": self.per_program_winners(),
            "evaluations": len(self.evaluations),
            "wall_seconds": round(self.wall_seconds, 4),
        }
        guard = next(
            (
                f for f in self.finalists
                if f.convention.name == "worse-noargregs"
            ),
            None,
        )
        if guard is not None:
            gt = guard.totals()
            report["guard"] = {
                "candidate": guard.convention.name,
                # a strictly-worse convention must never beat the paper's
                "holds": bool(
                    guard.disqualified
                    or (
                        gt["cycles"] >= base_t["cycles"]
                        and gt["scalar_memops"] >= base_t["scalar_memops"]
                    )
                ),
                "totals": gt,
            }
        if self.stats is not None:
            report["engine"] = {
                "compiles": self.stats.compiles,
                "stages": {
                    k: v.to_dict()
                    for k, v in self.stats.stage_totals().items()
                },
            }
        return report


class Tuner:
    """Drives convention search over the benchmark suite."""

    def __init__(
        self,
        config: str = "C",
        names: Optional[Sequence[str]] = None,
        jobs: int = 1,
        sim_tier: str = "auto",
        seed: int = 0,
        store_path=None,
        on_progress: Optional[Callable[[str], None]] = None,
    ):
        if config not in PAPER_CONFIGS:
            raise ValueError(
                f"unknown config {config!r}; one of {sorted(PAPER_CONFIGS)}"
            )
        if jobs <= 0:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        benches = load_benchmarks()
        self.names = list(names) if names is not None else list(benches)
        unknown = sorted(set(self.names) - set(benches))
        if unknown:
            raise ValueError(
                f"unknown benchmarks {unknown}; available: {sorted(benches)}"
            )
        if not self.names:
            raise ValueError("no benchmarks selected")
        self._benches = benches
        self.config = config
        self.options = PAPER_CONFIGS[config]
        self.jobs = jobs
        self.sim_tier = sim_tier
        self.seed = seed
        self.on_progress = on_progress
        self.engine = Engine(self.options, store_path=store_path)
        self.stats = self.engine.stats
        #: program -> baseline output (candidate runs must reproduce it)
        self._ref_outputs: Dict[str, Tuple[int, ...]] = {}

    # -- evaluation ---------------------------------------------------------

    def _log(self, msg: str) -> None:
        if self.on_progress is not None:
            self.on_progress(msg)

    def evaluate(
        self, convention: Convention, names: Sequence[str], round_no: int = 1
    ) -> CandidateResult:
        """Score one candidate over ``names``."""
        validate_convention(convention)
        t0 = time.perf_counter()
        result = CandidateResult(convention=convention, round=round_no)
        if self.jobs == 1:
            self._evaluate_inline(convention, names, result)
        else:
            self._evaluate_pooled(convention, names, result)
        result.wall_seconds = time.perf_counter() - t0
        totals = result.totals()
        self._log(
            f"  {convention.name:<24s} cycles={totals['cycles']:>12,d} "
            f"save/restore={totals['save_restore_memops']:>9,d} "
            f"({len(result.programs)}/{len(names)} programs, "
            f"{result.wall_seconds:.2f}s)"
        )
        return result

    def _check_output(
        self, name: str, stats: RunStats, result: CandidateResult
    ) -> bool:
        """Candidate runs must reproduce the baseline output exactly --
        a convention may only move values, never change the program."""
        out = tuple(stats.output)
        ref = self._ref_outputs.setdefault(name, out)
        if out != ref:
            result.errors[name] = (
                f"output mismatch vs baseline ({len(out)} values)"
            )
            return False
        return True

    def _evaluate_inline(
        self,
        convention: Convention,
        names: Sequence[str],
        result: CandidateResult,
    ) -> None:
        options = self.options.with_(convention=convention)
        built = self.engine.compile_batch(
            [self._benches[n].source for n in names], options
        )
        for name, program in zip(names, built):
            if isinstance(program, Exception):
                result.errors[name] = repr(program)
                continue
            try:
                stats = program.run(sim_tier=self.sim_tier)
            except Exception as exc:
                result.errors[name] = repr(exc)
                continue
            if self._check_output(name, stats, result):
                result.programs[name] = _metrics(stats)

    def _evaluate_pooled(
        self,
        convention: Convention,
        names: Sequence[str],
        result: CandidateResult,
    ) -> None:
        suite = run_suite(
            configs=(self.config,),
            names=names,
            sim_tier=self.sim_tier,
            jobs=self.jobs,
            convention=convention,
        )
        for bench_result in suite:
            name = bench_result.benchmark.name
            stats = bench_result.stats.get(self.config)
            if stats is None:
                result.errors[name] = bench_result.errors.get(
                    self.config, "cell missing"
                )
                continue
            if self._check_output(name, stats, result):
                result.programs[name] = _metrics(stats)

    # -- search -------------------------------------------------------------

    def _probe_sets(self, n_candidates: int) -> List[List[str]]:
        """Program subsets per halving round: probe on a few programs,
        widen each round, always finish on the full selection.  Probe
        membership is deterministic (registry order)."""
        if n_candidates <= 6 or len(self.names) <= 3:
            return [list(self.names)]
        sets: List[List[str]] = []
        size = 3
        while size < len(self.names):
            sets.append(list(self.names[:size]))
            size *= 3
        sets.append(list(self.names))
        return sets

    def run(
        self,
        budget: str = "small",
        candidates: Optional[Sequence[Convention]] = None,
        sample: Optional[int] = None,
    ) -> TuneResult:
        """Search the candidate list of ``budget`` (or an explicit list)
        and return the ranked result."""
        t0 = time.perf_counter()
        cands = list(
            candidates
            if candidates is not None
            else budget_candidates(budget, self.seed, sample)
        )
        # dedupe on the functional key, preserving first occurrence
        seen = set()
        unique: List[Convention] = []
        for c in cands:
            if c.key() not in seen:
                seen.add(c.key())
                unique.append(c)
        if DEFAULT_CONVENTION.key() not in seen:
            unique.insert(0, DEFAULT_CONVENTION)
        cands = unique

        rounds = self._probe_sets(len(cands))
        result = TuneResult(
            config=self.config,
            budget=budget,
            seed=self.seed,
            jobs=self.jobs,
            sim_tier=self.sim_tier,
            names=list(self.names),
            baseline=None,  # type: ignore[arg-type]  # set below
            stats=self.stats,
        )

        # The baseline anchors every comparison (and seeds the reference
        # outputs), so it is always scored first, on the full suite.
        self._log(
            f"tuning {len(cands)} candidates over {len(self.names)} "
            f"programs (config {self.config}, budget {budget}, "
            f"seed {self.seed}, jobs {self.jobs})"
        )
        self._log(f"round 0: baseline on {len(self.names)} programs")
        baseline = self.evaluate(
            DEFAULT_CONVENTION, self.names, round_no=0
        )
        if baseline.disqualified:
            raise RuntimeError(
                f"baseline convention failed to evaluate: {baseline.errors}"
            )
        result.baseline = baseline
        result.evaluations.append(baseline)

        survivors = [c for c in cands if c.key() != DEFAULT_CONVENTION.key()]
        final: List[CandidateResult] = []
        for round_no, probe in enumerate(rounds, start=1):
            is_final = round_no == len(rounds)
            self._log(
                f"round {round_no}/{len(rounds)}: {len(survivors)} "
                f"candidates on {len(probe)} programs"
            )
            scored: List[CandidateResult] = []
            for conv in survivors:
                scored.append(self.evaluate(conv, probe, round_no))
            result.evaluations.extend(scored)
            scored.sort(key=CandidateResult.score)
            if is_final:
                final = scored
                break
            keep = max(2, len(scored) // 2)
            survivors = [c.convention for c in scored[:keep]]

        # rank the baseline among the finalists: the winner is whichever
        # full-suite evaluation scores best, the paper's convention
        # included
        final.append(baseline)
        final.sort(key=CandidateResult.score)
        result.finalists = final
        result.wall_seconds = time.perf_counter() - t0
        win = result.winner
        self._log(
            f"winner: {win.convention.describe()} "
            f"({result.wall_seconds:.2f}s, "
            f"{len(result.evaluations)} evaluations)"
        )
        return result


def tune(
    budget: str = "small",
    config: str = "C",
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    sim_tier: str = "auto",
    seed: int = 0,
    store_path=None,
    sample: Optional[int] = None,
    on_progress: Optional[Callable[[str], None]] = None,
) -> TuneResult:
    """One-call convenience wrapper: build a :class:`Tuner` and run it."""
    return Tuner(
        config=config, names=names, jobs=jobs, sim_tier=sim_tier,
        seed=seed, store_path=store_path, on_progress=on_progress,
    ).run(budget=budget, sample=sample)


def check_report(data: Dict) -> List[str]:
    """Schema-validate a tune report (the committed
    ``benchmarks/TUNE_report.json``); returns violation messages."""
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["report is not a JSON object"]
    found = data.get("schema_version")
    if found != TUNE_SCHEMA_VERSION:
        errors.append(
            f"schema_version {found!r} != expected {TUNE_SCHEMA_VERSION} "
            "(regenerate the report)"
        )
    for key in REQUIRED_KEYS:
        if key not in data:
            errors.append(f"report is missing required key {key!r}")
    if errors:
        return errors
    for label in ("baseline", "winner"):
        entry = data[label]
        try:
            validate_convention(
                Convention.from_spec(entry["convention"])
            )
        except Exception as exc:
            errors.append(f"{label} convention spec invalid: {exc!r}")
        for m in METRICS:
            if m not in entry.get("totals", {}):
                errors.append(f"{label} totals missing metric {m!r}")
    if errors:
        return errors
    base = data["baseline"]["totals"]
    win = data["winner"]["totals"]
    if win["cycles"] > base["cycles"]:
        errors.append(
            "winner is worse than the baseline convention "
            f"({win['cycles']} > {base['cycles']} cycles) -- the baseline "
            "is always a finalist, so this cannot happen in a valid run"
        )
    guard = data.get("guard")
    if guard is not None and not guard.get("holds"):
        errors.append(
            "guard violated: the strictly-worse candidate "
            f"{guard.get('candidate')!r} beat the baseline convention"
        )
    for name, cell in data["per_program_winners"].items():
        if cell["cycles"] > cell["baseline_cycles"]:
            errors.append(
                f"per-program winner for {name!r} is worse than baseline"
            )
    return errors
