"""Chaos runner: the benchmark suite under seeded fault injection.

For every benchmark this drives two builds of the same source -- a
plain (non-resilient) reference compile and a resilient compile under a
seeded :class:`~repro.faults.FaultPlan` arming one fault per toolchain
stage (planner, coloring, shrink-wrap, codegen, JIT translation, pool
worker) -- and checks the resilience contract.  A block profile is
attached to every resilient build, so its ``auto`` run feeds the
profile to the trace translator, and a fault there must fall back to
the interpreter.  The contract:

* the resilient compile completes with **no unhandled exception**;
* its program produces the **same output** as the reference build
  (degradation is conservative, never wrong);
* every procedure a ``raise`` fault actually hit is reported
  **degraded to the open convention** in ``CompileReport``;
* a compile in which **no fault fired** is **bit-identical** to the
  reference build (the resilience layer is free on the fault-free
  path).

A final phase aims ``kill`` faults at the parallel suite runner's
worker processes and checks the suite still completes with no errored
cells.  Exit status is non-zero on any violation, so CI can run this
as a gate::

    PYTHONPATH=src python -m repro.tools.chaos --seed 0
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from repro import faults
from repro.benchsuite.harness import run_suite
from repro.benchsuite.registry import load_benchmarks
from repro.engine.session import Compiler
from repro.pipeline.driver import _reference_compile_program
from repro.pipeline.options import PAPER_CONFIGS
from repro.pipeline.profile import attach_profile, block_profile_of
from repro.service import (
    BreakerPolicy,
    CompileService,
    RetryPolicy,
    ServiceOverloaded,
)
from repro.store.store import ArtifactStore, StoreLockTimeout

#: the acceptance stages: one injected failure in each must be survived
CHAOS_SITES = (
    faults.SITE_PLAN,
    faults.SITE_COLORING,
    faults.SITE_SHRINKWRAP,
    faults.SITE_CODEGEN,
    faults.SITE_JIT,
    faults.SITE_WORKER,
)

#: sites whose fault key names the procedure being compiled, so a fired
#: raise there must surface as that procedure's degradation
_PROCEDURE_SITES = (faults.SITE_PLAN, faults.SITE_COLORING,
                    faults.SITE_CODEGEN)


def _snapshot(exe) -> tuple:
    return ([repr(i) for i in exe.instrs], exe.entry_pc, exe.data_init,
            exe.preserved_masks)


def run_chaos(seed: int, config: str, names: Optional[List[str]] = None,
              verbose: bool = True) -> List[str]:
    """Run the chaos sweep; returns a list of violation messages."""
    options = PAPER_CONFIGS[config]
    benches = load_benchmarks()
    selected = list(names) if names else list(benches)
    violations: List[str] = []
    fired_total = 0
    degraded_total = 0

    for i, name in enumerate(selected):
        source = benches[name].source
        reference = _reference_compile_program(source, options)
        ref_out = reference.run(sim_tier="interp").output
        profile = block_profile_of(reference, attach=False)

        plan = faults.FaultPlan.seeded(seed + i, sites=CHAOS_SITES)
        try:
            with faults.active(plan):
                built = Compiler(options, resilient=True) \
                    .add_sources(source).compile()
                attach_profile(built.executable, profile)
                out = built.run().output
        except Exception as exc:
            violations.append(f"{name}: unhandled exception {exc!r}")
            continue

        report = built.report
        fired_total += len(plan.fired)
        degraded_total += len(report.degradations)

        if out != ref_out:
            violations.append(
                f"{name}: degraded output {out} != reference {ref_out}"
            )
        degraded = report.degraded_procedures()
        for site, key, kind in plan.fired:
            if site in _PROCEDURE_SITES and kind == "raise" \
                    and key not in degraded:
                violations.append(
                    f"{name}: fault at {site}:{key} fired but {key} "
                    "is not reported degraded"
                )
        if not plan.fired and not report.degradations:
            if _snapshot(built.executable) != _snapshot(reference.executable):
                violations.append(
                    f"{name}: fault-free resilient build is not "
                    "bit-identical to the reference build"
                )
        if verbose:
            print(
                f"{name:<10s} fired={len(plan.fired):d} "
                f"degraded={len(report.degradations):d} "
                f"retries={report.retries:d} output-ok="
                f"{out == ref_out}"
            )

    # pool-worker phase: kill a suite worker, the suite must finish
    two = selected[:2] if len(selected) >= 2 else selected
    kill_plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SUITE_WORKER, kind="kill",
                         match=f"{two[0]}:{config}", count=1),
    ])
    try:
        with faults.active(kill_plan):
            results = run_suite([config], names=two, jobs=2,
                                task_timeout=120.0)
        errored = {r.benchmark.name: r.errors for r in results if r.errors}
        if errored:
            violations.append(f"suite kill phase: errored cells {errored}")
        elif verbose:
            retries = sum(r.retries for r in results)
            print(f"suite-kill  retries={retries} errors=0")
    except Exception as exc:
        violations.append(f"suite kill phase: unhandled exception {exc!r}")

    if verbose:
        print(
            f"total: {fired_total} faults fired, {degraded_total} "
            f"degradations, {len(violations)} violations"
        )
    return violations


def run_store_chaos(seed: int, config: str,
                    names: Optional[List[str]] = None,
                    verbose: bool = True) -> List[str]:
    """Chaos sweep over the artifact store's fault sites.

    The store's contract is stronger than the resilience layer's: store
    faults must be **completely invisible** -- every build, cold or
    warm, faulted or not, is bit-identical to a storeless reference
    compile, because the store may only ever skip work, never change it.

    Three phases:

    1. **cold + failed writes** -- ``store-write`` raises; artifacts
       simply are not cached, the build must match the reference;
    2. **warm + corrupted reads** -- a fresh session over the now-warm
       store with ``store-read`` bit-rotting payloads; checksums must
       detect every corruption and fall back to recomputation;
    3. **maintenance locking** -- a held lock times out ``gc`` with
       :class:`StoreLockTimeout` (counted, not hung), and a ``hang``
       fault at the lock site merely delays ``verify``.
    """
    options = PAPER_CONFIGS[config]
    benches = load_benchmarks()
    selected = list(names) if names else list(benches)
    violations: List[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-store-chaos-") as tmp:
        refs = {}
        for name in selected:
            refs[name] = _reference_compile_program(
                benches[name].source, options
            )

        # phase 1: cold compiles while every write fails
        write_plan = faults.FaultPlan(specs=[
            faults.FaultSpec(site=faults.SITE_STORE_WRITE, kind="raise",
                             count=None),
        ])
        cold = Compiler(options, store_path=tmp)
        try:
            with faults.active(write_plan):
                for name in selected:
                    built = Compiler(options, store_path=cold.store) \
                        .add_sources(benches[name].source).compile()
                    if _snapshot(built.executable) != \
                            _snapshot(refs[name].executable):
                        violations.append(
                            f"{name}: build under failed store writes is "
                            "not bit-identical to the reference"
                        )
        except Exception as exc:
            violations.append(
                f"store write phase: unhandled exception {exc!r}"
            )
        if cold.store.stats.write_failures == 0:
            violations.append(
                "store write phase: no write fault fired (site unwired?)"
            )
        if verbose:
            print(f"store-write  failures="
                  f"{cold.store.stats.write_failures} ok="
                  f"{not violations}")

        # warm the store for real (no faults), then corrupt its reads
        warm = Compiler(options, store_path=tmp)
        for name in selected:
            Compiler(options, store_path=warm.store) \
                .add_sources(benches[name].source).compile()

        read_plan = faults.FaultPlan(specs=[
            faults.FaultSpec(site=faults.SITE_STORE_READ, kind="corrupt",
                             count=2 + (seed % 3)),
        ])
        fresh = Compiler(options, store_path=tmp)
        try:
            with faults.active(read_plan):
                for name in selected:
                    built = Compiler(options, store_path=fresh.store) \
                        .add_sources(benches[name].source).compile()
                    if _snapshot(built.executable) != \
                            _snapshot(refs[name].executable):
                        violations.append(
                            f"{name}: warm build under corrupted store "
                            "reads is not bit-identical to the reference"
                        )
        except Exception as exc:
            violations.append(
                f"store read phase: unhandled exception {exc!r}"
            )
        fired = len(read_plan.fired)
        detected = fresh.store.stats.corruptions
        if fired and detected < fired:
            violations.append(
                f"store read phase: {fired} corruptions injected but only "
                f"{detected} detected"
            )
        if verbose:
            print(f"store-read   injected={fired} detected={detected}")

        # phase 3: lock contention (held lock -> timeout; hang -> delay)
        store = ArtifactStore(tmp, lock_timeout=0.2)
        lockfile = Path(tmp) / ".lock"
        lockfile.write_text("held")
        try:
            store.gc(max_bytes=0)
            violations.append(
                "store lock phase: gc under a held lock did not time out"
            )
        except StoreLockTimeout:
            pass
        except Exception as exc:
            violations.append(
                f"store lock phase: unexpected exception {exc!r}"
            )
        finally:
            lockfile.unlink()
        hang_plan = faults.FaultPlan(specs=[
            faults.FaultSpec(site=faults.SITE_STORE_LOCK, kind="hang",
                             hang_seconds=0.05, count=1),
        ])
        try:
            with faults.active(hang_plan):
                report = ArtifactStore(tmp).verify(remove=False)
            if report["corrupt"]:
                violations.append(
                    f"store lock phase: verify found stale corruption "
                    f"{report['corrupt_entries']}"
                )
        except Exception as exc:
            violations.append(
                f"store lock phase: verify under hang raised {exc!r}"
            )
        if verbose:
            print(f"store-lock   timeouts={store.stats.lock_timeouts} "
                  f"hangs={len(hang_plan.fired)}")

    if verbose:
        print(f"store total: {len(violations)} violations")
    return violations


def run_service_chaos(seed: int, config: str,
                      names: Optional[List[str]] = None,
                      verbose: bool = True) -> List[str]:
    """Chaos sweep over the compile service's resilience layer.

    Four phases, each against fresh :class:`CompileService` instances:

    1. **fault-free identity** -- with no faults installed, every
       response must be bit-identical to a reference compile with the
       breaker closed, nothing shed, nothing degraded (the resilience
       layer is free on the healthy path);
    2. **transient dispatch faults** -- ``service-deadline`` raises on
       the first dispatch attempts; bounded retry must absorb them and
       still return bit-identical programs;
    3. **admission shedding** -- ``service-queue`` raises for a few
       admissions; exactly those requests fail with the *typed*
       :class:`ServiceOverloaded` (never an unhandled crash) and the
       rest compile normally;
    4. **breaker + degraded serving** -- persistent dispatch failure
       trips the per-fingerprint breaker; while open, requests are
       served *degraded* through the resilient fallback engine and must
       still be bit-identical (fault-free resilient builds are); after
       ``reset_timeout`` a half-open probe on the now-healthy path
       closes the breaker again.
    """
    options = PAPER_CONFIGS[config]
    benches = load_benchmarks()
    selected = list(names) if names else list(benches)
    violations: List[str] = []
    refs = {
        name: _reference_compile_program(benches[name].source, options)
        for name in selected
    }

    def check_identical(phase: str, name: str, result) -> None:
        if _snapshot(result.program.executable) != \
                _snapshot(refs[name].executable):
            violations.append(
                f"{phase}: {name} response is not bit-identical to the "
                "reference build"
            )

    # phase 1: fault-free -- identity, breaker closed, nothing shed
    async def fault_free():
        svc = CompileService(options)
        results = await asyncio.gather(
            *(svc.compile(benches[n].source) for n in selected)
        )
        await svc.join()
        return svc, results

    try:
        svc, results = asyncio.run(fault_free())
        for name, res in zip(selected, results):
            check_identical("service fault-free", name, res)
            if res.degraded:
                violations.append(
                    f"service fault-free: {name} served degraded"
                )
        s = svc.stats
        if s.shed or s.degraded or s.retries or s.breaker_trips \
                or svc.breaker_states():
            violations.append(
                f"service fault-free: resilience machinery engaged on a "
                f"healthy path ({s.to_dict()})"
            )
        if verbose:
            print(f"svc-clean    compiled={s.compiled} "
                  f"batches={s.batches} ok={not violations}")
    except Exception as exc:
        violations.append(
            f"service fault-free phase: unhandled exception {exc!r}"
        )

    # phase 2: transient dispatch faults absorbed by bounded retry
    retry_plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="raise",
                         count=2),
    ])

    async def retried():
        svc = CompileService(
            options,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.005,
                              seed=seed),
        )
        with faults.active(retry_plan):
            results = await asyncio.gather(
                *(svc.compile(benches[n].source) for n in selected)
            )
            await svc.join()
        return svc, results

    try:
        svc, results = asyncio.run(retried())
        for name, res in zip(selected, results):
            check_identical("service retry", name, res)
        fired = len(retry_plan.fired)
        if not fired:
            violations.append(
                "service retry phase: no dispatch fault fired "
                "(site unwired?)"
            )
        if svc.stats.retries < fired:
            violations.append(
                f"service retry phase: {fired} faults fired but only "
                f"{svc.stats.retries} retries recorded"
            )
        if svc.stats.failed:
            violations.append(
                f"service retry phase: {svc.stats.failed} requests "
                "failed despite retry budget"
            )
        if verbose:
            print(f"svc-retry    fired={fired} "
                  f"retries={svc.stats.retries} "
                  f"failed={svc.stats.failed}")
    except Exception as exc:
        violations.append(
            f"service retry phase: unhandled exception {exc!r}"
        )

    # phase 3: admission control sheds with the typed error
    shed_count = min(2, max(1, len(selected) - 1))
    queue_plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_QUEUE, kind="raise",
                         count=shed_count),
    ])

    async def shedding():
        svc = CompileService(options)
        with faults.active(queue_plan):
            results = await asyncio.gather(
                *(svc.compile(benches[n].source) for n in selected),
                return_exceptions=True,
            )
            await svc.join()
        return svc, results

    try:
        svc, results = asyncio.run(shedding())
        shed = sum(
            1 for r in results if isinstance(r, ServiceOverloaded)
        )
        other = [
            r for r in results
            if isinstance(r, BaseException)
            and not isinstance(r, ServiceOverloaded)
        ]
        if other:
            violations.append(
                f"service shed phase: non-typed failures {other!r}"
            )
        if shed != len(queue_plan.fired):
            violations.append(
                f"service shed phase: {len(queue_plan.fired)} queue "
                f"faults fired but {shed} requests shed"
            )
        if svc.stats.shed != shed:
            violations.append(
                f"service shed phase: stats.shed={svc.stats.shed} "
                f"disagrees with {shed} ServiceOverloaded responses"
            )
        for name, res in zip(selected, results):
            if not isinstance(res, BaseException):
                check_identical("service shed", name, res)
        if verbose:
            print(f"svc-shed     shed={shed} "
                  f"served={len(results) - shed}")
    except Exception as exc:
        violations.append(
            f"service shed phase: unhandled exception {exc!r}"
        )

    # phase 4: breaker trips -> degraded serving -> probe closes it
    breaker_name = selected[0]
    breaker_source = benches[breaker_name].source
    trip_plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="raise",
                         count=2),
    ])

    async def breaker():
        svc = CompileService(
            options,
            retry=None,
            breaker=BreakerPolicy(failure_threshold=2,
                                  reset_timeout=0.2),
        )
        with faults.active(trip_plan):
            failures = 0
            for _ in range(2):
                try:
                    await svc.compile(breaker_source)
                except faults.InjectedFault:
                    failures += 1
            degraded = await svc.compile(breaker_source)
            await asyncio.sleep(0.25)  # past reset_timeout: probe opens
            probed = await svc.compile(breaker_source)
            await svc.join()
        return svc, failures, degraded, probed

    try:
        svc, failures, degraded, probed = asyncio.run(breaker())
        if failures != 2:
            violations.append(
                f"service breaker phase: expected 2 primary failures, "
                f"saw {failures}"
            )
        if not svc.stats.breaker_trips:
            violations.append(
                "service breaker phase: breaker never tripped"
            )
        if not degraded.degraded:
            violations.append(
                "service breaker phase: open breaker did not serve "
                "degraded"
            )
        check_identical("service breaker", breaker_name, degraded)
        if probed.degraded:
            violations.append(
                "service breaker phase: healthy half-open probe still "
                "served degraded"
            )
        check_identical("service breaker", breaker_name, probed)
        if svc.breaker_states():
            violations.append(
                f"service breaker phase: breaker still "
                f"{svc.breaker_states()} after a successful probe"
            )
        if verbose:
            print(f"svc-breaker  trips={svc.stats.breaker_trips} "
                  f"degraded={svc.stats.degraded} "
                  f"recovered={not probed.degraded}")
    except Exception as exc:
        violations.append(
            f"service breaker phase: unhandled exception {exc!r}"
        )

    if verbose:
        print(f"service total: {len(violations)} violations")
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="run the benchmark suite under seeded fault injection"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default="C",
                        choices=sorted(PAPER_CONFIGS))
    parser.add_argument("--names", nargs="*", default=None,
                        help="benchmarks to run (default: all)")
    parser.add_argument("--store", action="store_true",
                        help="run the artifact-store chaos phases instead "
                             "of the toolchain sweep")
    parser.add_argument("--service", action="store_true",
                        help="run the compile-service resilience phases "
                             "instead of the toolchain sweep")
    args = parser.parse_args(argv)
    if args.store:
        violations = run_store_chaos(args.seed, args.config, args.names)
    elif args.service:
        violations = run_service_chaos(args.seed, args.config, args.names)
    else:
        violations = run_chaos(args.seed, args.config, args.names)
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
