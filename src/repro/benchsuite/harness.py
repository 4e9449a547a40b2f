"""Measurement harness regenerating the paper's Tables 1 and 2.

All comparisons follow the paper: the baseline is -O2 with shrink-wrap
disabled, and each column reports the percentage *reduction* relative to
that baseline, in executed cycles (columns I) and in scalar loads/stores
(columns II).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.benchsuite.registry import Benchmark, load_benchmarks
from repro.pipeline.driver import compile_program
from repro.pipeline.options import CompilerOptions, PAPER_CONFIGS
from repro.sim.stats import RunStats, percent_reduction

TABLE1_CONFIGS = ("A", "B", "C")
TABLE2_CONFIGS = ("D", "E")


@dataclass
class BenchResult:
    """All configuration runs for one benchmark."""

    benchmark: Benchmark
    stats: Dict[str, RunStats] = field(default_factory=dict)

    @property
    def base(self) -> RunStats:
        return self.stats["base"]

    def cycles_per_call(self) -> float:
        return self.base.cycles_per_call

    def cycle_reduction(self, config: str) -> float:
        return percent_reduction(self.base.cycles, self.stats[config].cycles)

    def scalar_reduction(self, config: str) -> float:
        return percent_reduction(
            self.base.scalar_memops, self.stats[config].scalar_memops
        )


def run_benchmark(
    benchmark: Benchmark,
    configs: Iterable[str],
    check_contracts: bool = False,
    overrides: Optional[Dict[str, CompilerOptions]] = None,
    compile_fn=None,
    sim_tier: str = "auto",
) -> BenchResult:
    """Compile and run one benchmark under the named paper configs
    (plus the baseline, always).  Verifies output equivalence across all
    configurations.

    ``compile_fn(source, options)`` replaces the one-shot
    :func:`compile_program` when given -- pass a session-cached compiler
    so repeated table regenerations share the baseline compiles.
    ``sim_tier`` selects the simulator tier for every run (both tiers
    produce identical statistics; see :func:`repro.sim.simulate`).
    """
    if compile_fn is None:
        compile_fn = compile_program
    result = BenchResult(benchmark=benchmark)
    for config in _with_base(configs):
        options = (overrides or {}).get(config) or PAPER_CONFIGS[config]
        program = compile_fn(benchmark.source, options)
        result.stats[config] = program.run(
            check_contracts=check_contracts, sim_tier=sim_tier
        )
    _check_output_equivalence(result)
    return result


def _with_base(configs: Iterable[str]) -> List[str]:
    return ["base"] + [c for c in configs if c != "base"]


def _check_output_equivalence(result: BenchResult) -> None:
    """Outputs of every configuration run must agree."""
    outputs = {tuple(s.output) for s in result.stats.values()}
    if len(outputs) > 1:
        raise AssertionError(
            f"{result.benchmark.name}: outputs differ across configurations"
        )


def _run_one(
    bench_name: str, config: str, check_contracts: bool, sim_tier: str
) -> RunStats:
    """Compile and run one (benchmark, config) cell.  Module-level and
    handed only strings, so it pickles cleanly into worker processes."""
    benchmark = load_benchmarks()[bench_name]
    program = compile_program(benchmark.source, PAPER_CONFIGS[config])
    return program.run(check_contracts=check_contracts, sim_tier=sim_tier)


def run_suite(
    configs: Iterable[str],
    names: Optional[Iterable[str]] = None,
    check_contracts: bool = False,
    sim_tier: str = "auto",
    jobs: int = 1,
) -> List[BenchResult]:
    """Run every selected benchmark under the named configs.

    ``jobs`` > 1 fans the independent (benchmark, config) cells out over
    a process pool -- each cell compiles and simulates in its own
    worker, and the results are reassembled (and output-equivalence
    checked) in suite order, so the answer is identical to a serial run.
    A cell that raises in its worker raises out of ``run_suite``, as it
    would on a serial sweep.
    """
    configs = list(configs)
    unknown = sorted(set(configs) - set(PAPER_CONFIGS))
    if unknown:
        raise ValueError(
            f"unknown configs {unknown}; available: {sorted(PAPER_CONFIGS)}"
        )
    benches = load_benchmarks()
    selected = list(names) if names is not None else list(benches)
    unknown = sorted(set(selected) - set(benches))
    if unknown:
        raise ValueError(
            f"unknown benchmarks {unknown}; available: {sorted(benches)}"
        )
    if not selected:
        raise ValueError(
            "no benchmarks selected: pass names=None for the full suite "
            "or a non-empty list of benchmark names"
        )
    if jobs <= 0:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [
            run_benchmark(
                benches[name], configs, check_contracts, sim_tier=sim_tier
            )
            for name in selected
        ]
    cells = [
        (name, config) for name in selected for config in _with_base(configs)
    ]
    results = {
        name: BenchResult(benchmark=benches[name]) for name in selected
    }
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(cells)))
    try:
        futures = [
            pool.submit(_run_one, name, config, check_contracts, sim_tier)
            for name, config in cells
        ]
        for (name, config), future in zip(cells, futures):
            results[name].stats[config] = future.result()
    finally:
        # on a failing cell, drop the cells not yet started
        pool.shutdown(cancel_futures=True)
    ordered = [results[name] for name in selected]
    for result in ordered:
        _check_output_equivalence(result)
    return ordered


def format_table1(results: List[BenchResult]) -> str:
    """Render Table 1: % reduction in cycles and scalar loads/stores for
    configs A (-O2+SW), B (-O3), C (-O3+SW) vs base (-O2)."""
    lines = [
        "Table 1. Effects of applying the techniques "
        "(vs -O2, shrink-wrap disabled)",
        f"{'program':<10s} {'cyc/call':>8s} |"
        f"{'I.A':>7s} {'I.B':>7s} {'I.C':>7s} |"
        f"{'II.A':>7s} {'II.B':>7s} {'II.C':>7s}",
        "-" * 66,
    ]
    for r in results:
        lines.append(
            f"{r.benchmark.name:<10s} {r.cycles_per_call():>8.0f} |"
            f"{r.cycle_reduction('A'):>6.1f}% {r.cycle_reduction('B'):>6.1f}% "
            f"{r.cycle_reduction('C'):>6.1f}% |"
            f"{r.scalar_reduction('A'):>6.1f}% {r.scalar_reduction('B'):>6.1f}% "
            f"{r.scalar_reduction('C'):>6.1f}%"
        )
    return "\n".join(lines)


def format_table2(results: List[BenchResult]) -> str:
    """Render Table 2: the two register classes under IPRA with only 7
    registers (D = caller-saved only, E = callee-saved only)."""
    lines = [
        "Table 2. Effects of the 2 different register classes "
        "(7 registers, vs full-file -O2 baseline)",
        f"{'program':<10s} |{'I.D':>8s} {'I.E':>8s} |{'II.D':>8s} {'II.E':>8s}",
        "-" * 50,
    ]
    for r in results:
        lines.append(
            f"{r.benchmark.name:<10s} |"
            f"{r.cycle_reduction('D'):>7.1f}% {r.cycle_reduction('E'):>7.1f}% |"
            f"{r.scalar_reduction('D'):>7.1f}% {r.scalar_reduction('E'):>7.1f}%"
        )
    return "\n".join(lines)
