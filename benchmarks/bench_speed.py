#!/usr/bin/env python
"""Toolchain speed benchmark: compile time and simulator throughput.

For every benchmark-suite program this measures

* ``compile_s`` -- wall-clock seconds for the full pipeline (parse,
  lower, allocate at O3_SW, codegen, link),
* ``sim`` -- simulated machine cycles retired per wall-clock second on
  *all three* simulator tiers (the reference interpreter, and the
  trace JIT without (``jit``) and with (``jit3``) a block profile),
  with every tier's RunStats asserted bit-identical on every program,
* ``sim_jit_first_s`` -- the first ``jit`` run of a freshly compiled
  executable, trace translation included (``sim_jit_s`` times
  warm re-runs of the cached translation),
* ``parallel_suite`` -- wall-clock for a baseline-vs-C suite sweep, run
  serially on the interpreter and fanned out over a process pool on the
  JIT tier, with identical statistics required from both, and
* ``incremental`` -- cold vs warm recompile time through a
  ``repro.Compiler`` session after editing one procedure, with the warm
  executable checked bit-identical to a from-scratch compile, and
* ``store_warm`` -- a genuinely cold OS process warm-starting from a
  populated on-disk artifact store vs a fully cold storeless process
  (both measured as subprocess children), bit-identity required.

The baseline carries ``schema_version``; ``--check`` validates the
committed file against the current version and required scenario keys,
so a renamed or dropped scenario fails CI loudly instead of silently
vanishing from the record.

Results land in ``benchmarks/BENCH_speed.json`` next to this script so a
checked-in baseline can be compared across commits (engine cache
observability goes to ``BENCH_engine_stats.json`` alongside).
``--check`` runs a fast smoke pass -- every program compiles and
simulates, throughput is positive, the JIT tier clears its aggregate
speedup floor over the interpreter, and the warm/cold recompile speedup
stays above its floor -- without overwriting the baseline; that is what
CI runs.  (The parallel sweep is identity-checked but has no wall-clock
floor: CI machines may have a single core.)

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py            # write baseline
    PYTHONPATH=src python benchmarks/bench_speed.py --check    # CI smoke pass
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Compiler
from repro.benchsuite import benchmark_names, load_benchmarks, run_suite
from repro.engine.frontend import split_chunks
from repro.pipeline import O3_SW, compile_program
from repro.pipeline.profile import block_profile_of

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_speed.json"
STATS_PATH = Path(__file__).resolve().parent / "BENCH_engine_stats.json"

#: bump when scenarios are added/renamed; ``--check`` validates the
#: checked-in baseline against this so a scenario cannot silently
#: disappear from the record
SCHEMA_VERSION = 4

#: every scenario key the baseline must carry at SCHEMA_VERSION
REQUIRED_SCENARIOS = (
    "programs", "total", "parallel_suite", "incremental", "store_warm",
)

#: --check fails below this warm/cold speedup (the recorded baseline is
#: far higher; the floor only catches cache regressions, not CI jitter)
MIN_WARM_SPEEDUP = 3.0

#: --check fails when the JIT tier's aggregate simulation throughput
#: over the whole suite is below this multiple of the interpreter's
MIN_SIM_SPEEDUP = 3.0

#: --check fails when the tier-3 trace JIT's aggregate throughput is
#: below this multiple of the interpreter's (target is 10x; 7x is the
#: regression floor under CI jitter)
MIN_SIM3_SPEEDUP = 7.0

#: --check fails when a cold process with a warm disk store is not at
#: least this much faster than a fully cold storeless compile of the
#: suite (the baseline records >= 4x; 3x absorbs CI jitter)
MIN_STORE_SPEEDUP = 3.0


def edit_one_procedure(source: str, salt: int) -> str:
    """A one-procedure edit: touch the body of the middle function (the
    canonical rebuild-after-touching-one-file scenario -- the chunk's
    text changes, siblings stay byte-identical)."""
    split = split_chunks(source)
    assert split is not None, "benchmark sources must be chunkable"
    _, chunks = split
    chunk = chunks[len(chunks) // 2]
    brace = chunk.text.rfind("}")
    edited = chunk.text[:brace] + f"/* edit {salt} */ " + chunk.text[brace:]
    return source.replace(chunk.text, edited, 1)


def bench_incremental(name: str, source: str, repeats: int) -> dict:
    """Cold session compile vs warm recompile after one-procedure edit."""
    best_cold = None
    best_warm = None
    warm_program = None
    session = None
    edited = None
    for i in range(repeats):
        session = Compiler(O3_SW)
        session.add_source(("main", source))
        t0 = time.perf_counter()
        session.compile()
        cold = time.perf_counter() - t0

        edited = edit_one_procedure(source, i)
        session.add_source(("main", edited))
        t0 = time.perf_counter()
        warm_program = session.compile()
        warm = time.perf_counter() - t0
        best_cold = cold if best_cold is None else min(best_cold, cold)
        best_warm = warm if best_warm is None else min(best_warm, warm)

    # the cache must only skip work, never change output
    reference = compile_program(("main", edited), O3_SW)
    warm_instrs = [repr(i) for i in warm_program.executable.instrs]
    ref_instrs = [repr(i) for i in reference.executable.instrs]
    if warm_instrs != ref_instrs:
        raise AssertionError(f"{name}: warm executable differs from cold")

    return {
        "cold_s": round(best_cold, 4),
        "warm_s": round(best_warm, 4),
        "speedup": round(best_cold / best_warm, 1) if best_warm else 0.0,
    }, session.stats.records


def bench_one(name: str, source: str, repeats: int) -> dict:
    best_compile = None
    best_jit_first = None
    program = None
    jit_stats = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        program = compile_program(source, O3_SW)
        dt = time.perf_counter() - t0
        best_compile = dt if best_compile is None else min(best_compile, dt)
        # the first jit run translates each trace it enters
        t0 = time.perf_counter()
        jit_stats = program.run(sim_tier="jit")
        dt = time.perf_counter() - t0
        best_jit_first = (
            dt if best_jit_first is None else min(best_jit_first, dt)
        )

    # all tiers must retire the exact same execution
    stats = program.run(sim_tier="interp")
    if jit_stats != stats:
        raise AssertionError(f"{name}: JIT RunStats differ from interpreter")
    block_profile_of(program)                # attaches; escalates "auto"
    jit3_stats = program.run(sim_tier="jit3")  # warms the trace translation
    if jit3_stats != stats:
        raise AssertionError(
            f"{name}: tier-3 RunStats differ from interpreter"
        )

    best_interp = None
    best_jit = None
    best_jit3 = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        program.run(sim_tier="interp")
        dt = time.perf_counter() - t0
        best_interp = dt if best_interp is None else min(best_interp, dt)
    for _ in range(repeats):
        t0 = time.perf_counter()
        program.run(sim_tier="jit")
        dt = time.perf_counter() - t0
        best_jit = dt if best_jit is None else min(best_jit, dt)
    for _ in range(repeats):
        t0 = time.perf_counter()
        program.run(sim_tier="jit3")
        dt = time.perf_counter() - t0
        best_jit3 = dt if best_jit3 is None else min(best_jit3, dt)

    return {
        "compile_s": round(best_compile, 4),
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "sim_interp_s": round(best_interp, 4),
        "sim_jit_first_s": round(best_jit_first, 4),
        "sim_jit_s": round(best_jit, 4),
        "sim_jit3_s": round(best_jit3, 4),
        "interp_cycles_per_s": (
            int(stats.cycles / best_interp) if best_interp else 0
        ),
        "jit_cycles_per_s": int(stats.cycles / best_jit) if best_jit else 0,
        "jit3_cycles_per_s": (
            int(stats.cycles / best_jit3) if best_jit3 else 0
        ),
        "jit_speedup": round(best_interp / best_jit, 2) if best_jit else 0.0,
        "jit3_speedup": (
            round(best_interp / best_jit3, 2) if best_jit3 else 0.0
        ),
        "jit3_inlined_calls": jit3_stats.jit3["inlined_calls"],
        "jit3_linked_loops": jit3_stats.jit3["linked_loops"],
    }


def bench_parallel_suite(jobs: int) -> dict:
    """Serial interpreter sweep vs process-parallel JIT sweep over the
    full suite (baseline + config C), statistics required identical."""
    t0 = time.perf_counter()
    serial = run_suite(("C",), sim_tier="interp", jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_suite(("C",), sim_tier="jit", jobs=jobs)
    parallel_s = time.perf_counter() - t0

    for a, b in zip(serial, parallel):
        if a.stats != b.stats:
            raise AssertionError(
                f"{a.benchmark.name}: parallel JIT sweep statistics "
                f"differ from the serial interpreter sweep"
            )
    return {
        "jobs": jobs,
        "serial_interp_s": round(serial_s, 4),
        "parallel_jit_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else 0.0,
    }


def bench_store_warm(repeats: int) -> dict:
    """Fully cold process vs cold process + warm artifact store.

    Every measurement is a real child process (the warmstart child
    protocol), so "cold" genuinely means no in-memory caches; only the
    disk store distinguishes the two sides.  The warm-started builds
    must be bit-identical to the storeless reference's.
    """
    import tempfile

    from repro.tools.warmstart import _spawn_child

    configs = ["C"]
    best_cold = None
    cold_digests = None
    for _ in range(repeats):
        rep = _spawn_child(None, configs, None)
        if best_cold is None or rep["seconds"] < best_cold:
            best_cold = rep["seconds"]
        cold_digests = rep["digests"]

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store:
        _spawn_child(store, configs, None)   # process A: warms the store
        best_warm = None
        last = None
        for _ in range(repeats):
            rep = _spawn_child(store, configs, None)
            if best_warm is None or rep["seconds"] < best_warm:
                best_warm = rep["seconds"]
            last = rep

    if last["digests"] != cold_digests:
        raise AssertionError(
            "store-warm builds are not bit-identical to the storeless "
            "cold reference"
        )
    st = last["store"]
    lookups = st["hits"] + st["misses"]
    return {
        "configs": configs,
        "programs": len(cold_digests),
        "cold_process_s": round(best_cold, 4),
        "store_warm_s": round(best_warm, 4),
        "speedup": round(best_cold / best_warm, 1) if best_warm else 0.0,
        "store_hit_rate": round(st["hits"] / lookups, 4) if lookups else 0.0,
        "store_corruptions": st["corruptions"],
    }


def validate_baseline() -> list:
    """--check: the committed baseline must carry every scenario at the
    current schema version -- a renamed or dropped scenario fails loudly
    instead of silently vanishing from the record."""
    if not RESULT_PATH.exists():
        return [f"baseline {RESULT_PATH.name} is missing"]
    try:
        data = json.loads(RESULT_PATH.read_text())
    except ValueError as exc:
        return [f"baseline {RESULT_PATH.name} is not valid JSON: {exc}"]
    errors = []
    found = data.get("schema_version")
    if found != SCHEMA_VERSION:
        errors.append(
            f"baseline schema_version {found!r} != expected "
            f"{SCHEMA_VERSION} (regenerate the baseline)"
        )
    for key in REQUIRED_SCENARIOS:
        if key not in data:
            errors.append(
                f"baseline is missing required scenario {key!r}"
            )
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--check", action="store_true",
        help="smoke-test every program once; do not rewrite the baseline",
    )
    ap.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per program (best-of, default 3)",
    )
    args = ap.parse_args(argv)

    if args.check:
        schema_errors = validate_baseline()
        if schema_errors:
            for err in schema_errors:
                print(f"FAIL: {err}", file=sys.stderr)
            return 1

    repeats = 1 if args.check else max(1, args.repeats)
    benches = load_benchmarks()
    results = {}
    for name in benchmark_names():
        results[name] = bench_one(name, benches[name].source, repeats)
        r = results[name]
        print(
            f"{name:10s} compile {r['compile_s']:7.3f}s   "
            f"{r['cycles']:>10d} cycles   "
            f"interp {r['interp_cycles_per_s']:>12,d} c/s   "
            f"jit {r['jit_speedup']:5.2f}x   "
            f"jit3 {r['jit3_speedup']:5.2f}x"
        )
        if r["cycles"] <= 0 or r["interp_cycles_per_s"] <= 0:
            print(f"FAIL: {name} produced no simulated work", file=sys.stderr)
            return 1

    total = {
        "compile_s": round(sum(r["compile_s"] for r in results.values()), 4),
        "cycles": sum(r["cycles"] for r in results.values()),
        "sim_interp_s": round(
            sum(r["sim_interp_s"] for r in results.values()), 4
        ),
        "sim_jit_first_s": round(
            sum(r["sim_jit_first_s"] for r in results.values()), 4
        ),
        "sim_jit_s": round(sum(r["sim_jit_s"] for r in results.values()), 4),
        "sim_jit3_s": round(
            sum(r["sim_jit3_s"] for r in results.values()), 4
        ),
    }
    total["interp_cycles_per_s"] = (
        int(total["cycles"] / total["sim_interp_s"])
        if total["sim_interp_s"] else 0
    )
    total["jit_cycles_per_s"] = (
        int(total["cycles"] / total["sim_jit_s"]) if total["sim_jit_s"] else 0
    )
    total["jit3_cycles_per_s"] = (
        int(total["cycles"] / total["sim_jit3_s"])
        if total["sim_jit3_s"] else 0
    )
    total["jit_speedup"] = (
        round(total["sim_interp_s"] / total["sim_jit_s"], 2)
        if total["sim_jit_s"] else 0.0
    )
    total["jit3_speedup"] = (
        round(total["sim_interp_s"] / total["sim_jit3_s"], 2)
        if total["sim_jit3_s"] else 0.0
    )
    print(
        f"{'TOTAL':10s} compile {total['compile_s']:7.3f}s   "
        f"{total['cycles']:>10d} cycles   "
        f"interp {total['interp_cycles_per_s']:>12,d} c/s   "
        f"jit {total['jit_speedup']:5.2f}x   "
        f"jit3 {total['jit3_speedup']:5.2f}x"
    )
    if total["jit_speedup"] < MIN_SIM_SPEEDUP:
        print(
            f"FAIL: aggregate JIT speedup {total['jit_speedup']}x is below "
            f"the {MIN_SIM_SPEEDUP}x regression floor",
            file=sys.stderr,
        )
        return 1
    if total["jit3_speedup"] < MIN_SIM3_SPEEDUP:
        print(
            f"FAIL: aggregate tier-3 speedup {total['jit3_speedup']}x is "
            f"below the {MIN_SIM3_SPEEDUP}x regression floor",
            file=sys.stderr,
        )
        return 1

    # process-parallel suite sweep on the JIT tier vs serial interpreter
    parallel = bench_parallel_suite(jobs=os.cpu_count() or 1)
    print(
        f"{'SUITE':10s} serial-interp {parallel['serial_interp_s']:7.3f}s   "
        f"parallel-jit({parallel['jobs']}) "
        f"{parallel['parallel_jit_s']:7.3f}s   "
        f"speedup {parallel['speedup']:5.2f}x"
    )

    # warm-vs-cold incremental recompile through a Compiler session
    from repro.engine.stats import EngineStats

    engine_stats = EngineStats()
    incremental = {}
    for name in benchmark_names():
        incremental[name], records = bench_incremental(
            name, benches[name].source, repeats
        )
        engine_stats.records.extend(records)
        r = incremental[name]
        print(
            f"{name:10s} cold {r['cold_s']:7.3f}s   warm {r['warm_s']:7.3f}s"
            f"   speedup {r['speedup']:6.1f}x"
        )
    inc_total = {
        "cold_s": round(sum(r["cold_s"] for r in incremental.values()), 4),
        "warm_s": round(sum(r["warm_s"] for r in incremental.values()), 4),
    }
    inc_total["speedup"] = (
        round(inc_total["cold_s"] / inc_total["warm_s"], 1)
        if inc_total["warm_s"]
        else 0.0
    )
    print(
        f"{'TOTAL':10s} cold {inc_total['cold_s']:7.3f}s   "
        f"warm {inc_total['warm_s']:7.3f}s   "
        f"speedup {inc_total['speedup']:6.1f}x"
    )
    if inc_total["speedup"] < MIN_WARM_SPEEDUP:
        print(
            f"FAIL: warm recompile speedup {inc_total['speedup']}x is below "
            f"the {MIN_WARM_SPEEDUP}x regression floor",
            file=sys.stderr,
        )
        return 1

    # cold process + warm disk store vs fully cold, both real processes
    store_warm = bench_store_warm(repeats)
    print(
        f"{'STORE':10s} cold-proc {store_warm['cold_process_s']:7.3f}s   "
        f"store-warm {store_warm['store_warm_s']:7.3f}s   "
        f"speedup {store_warm['speedup']:6.1f}x   "
        f"hit-rate {store_warm['store_hit_rate']:.1%}"
    )
    if store_warm["speedup"] < MIN_STORE_SPEEDUP:
        print(
            f"FAIL: store-warm speedup {store_warm['speedup']}x is below "
            f"the {MIN_STORE_SPEEDUP}x regression floor",
            file=sys.stderr,
        )
        return 1
    if store_warm["store_corruptions"]:
        print(
            f"FAIL: warm store reported "
            f"{store_warm['store_corruptions']} corrupt entries",
            file=sys.stderr,
        )
        return 1

    if not args.check:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": "O3_SW",
            "python": sys.version.split()[0],
            "repeats": repeats,
            "programs": results,
            "total": total,
            "parallel_suite": parallel,
            "incremental": {"programs": incremental, "total": inc_total},
            "store_warm": store_warm,
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
        STATS_PATH.write_text(engine_stats.to_json() + "\n")
        print(f"wrote {STATS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
