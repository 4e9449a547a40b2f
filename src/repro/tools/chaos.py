"""Chaos runner: the benchmark suite under seeded fault injection.

For every benchmark this drives two builds of the same source -- a
plain (non-resilient) reference compile and a resilient compile under a
seeded :class:`~repro.faults.FaultPlan` arming one fault per toolchain
stage (planner, coloring, shrink-wrap, codegen, JIT translation) -- and
checks the resilience contract.  A block profile is attached to every
resilient build, so its ``auto`` run feeds the profile to the trace
translator, and a fault there must fall back to the interpreter.  The
contract:

* the resilient compile completes with **no unhandled exception**;
* its program produces the **same output** as the reference build
  (degradation is conservative, never wrong);
* every procedure a ``raise`` fault actually hit is reported
  **degraded to the open convention** on the compile's ``CompileRecord``;
* a compile in which **no fault fired** is **bit-identical** to the
  reference build (the resilience layer is free on the fault-free
  path).

Exit status is non-zero on any violation, so CI can run this as a
gate::

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
from repro.benchsuite.registry import load_benchmarks
from repro.engine.session import Compiler
from repro.pipeline.driver import _reference_compile_program
from repro.pipeline.options import PAPER_CONFIGS
from repro.pipeline.profile import attach_profile, block_profile_of
from repro.service import CompileService, ServiceOverloaded
from repro.store.store import ArtifactStore, StoreLockTimeout

#: the acceptance stages: one injected failure in each must be survived
CHAOS_SITES = (
    faults.SITE_PLAN,
    faults.SITE_COLORING,
    faults.SITE_SHRINKWRAP,
    faults.SITE_CODEGEN,
    faults.SITE_JIT,
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

        record = built.record
        fired_total += len(plan.fired)
        degraded_total += record.degraded

        if out != ref_out:
            violations.append(
                f"{name}: degraded output {out} != reference {ref_out}"
            )
        degraded = record.degraded_procedures()
        for site, key, kind in plan.fired:
            if site in _PROCEDURE_SITES and kind == "raise" \
                    and key not in degraded:
                violations.append(
                    f"{name}: fault at {site}:{key} fired but {key} "
                    "is not reported degraded"
                )
        if not plan.fired and not record.degradations:
            if _snapshot(built.executable) != _snapshot(reference.executable):
                violations.append(
                    f"{name}: fault-free resilient build is not "
                    "bit-identical to the reference build"
                )
        if verbose:
            print(
                f"{name:<10s} fired={len(plan.fired):d} "
                f"degraded={record.degraded:d} output-ok="
                f"{out == ref_out}"
            )

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

    Three phases, each against fresh :class:`CompileService` instances:

    1. **fault-free identity** -- with no faults installed, every
       response must be bit-identical to a reference compile with
       nothing shed and nothing degraded (the resilience layer is free
       on the healthy path), and each distinct request must cost
       exactly one engine compile;
    2. **procedure faults under the service** -- per program, a
       persistent ``plan`` raise and a one-shot ``codegen`` raise
       are pinned to one procedure; two concurrent requests must both
       be served ``degraded``, with the record naming exactly that
       procedure and the run output equal to the reference output.
       Once the plan is cleared, the same request on the same service
       must be bit-identical to the reference build (demoted plans
       never reach the caches);
    3. **admission shedding** -- a service with ``max_queue=1`` receives
       every request at once; the requests past the high-water mark
       fail with the *typed* :class:`ServiceOverloaded` (never an
       unhandled crash), ``stats.shed`` counts exactly those, and the
       rest compile normally.

    Every served result, degraded or not, must also carry the
    :class:`~repro.engine.stats.CompileRecord` of its compile.
    """
    options = PAPER_CONFIGS[config]
    benches = load_benchmarks()
    selected = list(names) if names else list(benches)
    violations: List[str] = []
    refs = {
        name: _reference_compile_program(benches[name].source, options)
        for name in selected
    }

    served = 0

    def check_record(phase: str, name: str, result) -> None:
        nonlocal served
        served += 1
        record = result.program.record
        if record is None or record.functions <= 0:
            violations.append(
                f"{phase}: {name} response carries no compile record "
                f"({record!r})"
            )

    def check_served(phase: str, name: str, result) -> None:
        check_record(phase, name, result)
        if _snapshot(result.program.executable) != \
                _snapshot(refs[name].executable):
            violations.append(
                f"{phase}: {name} response is not bit-identical to the "
                "reference build"
            )

    # phase 1: fault-free -- identity, nothing shed, nothing degraded
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
            check_served("service fault-free", name, res)
            if res.degraded:
                violations.append(
                    f"service fault-free: {name} served degraded"
                )
        s = svc.stats
        if s.shed or s.degraded:
            violations.append(
                f"service fault-free: resilience machinery engaged on a "
                f"healthy path ({s.to_dict()})"
            )
        if svc.engine.stats.compiles != s.compiled:
            violations.append(
                f"service fault-free: {svc.engine.stats.compiles} engine "
                f"compiles for {s.compiled} distinct requests (each must "
                "compile exactly once)"
            )
        if verbose:
            print(f"svc-clean    compiled={s.compiled} "
                  f"engine_compiles={svc.engine.stats.compiles} "
                  f"ok={not violations}")
    except Exception as exc:
        violations.append(
            f"service fault-free phase: unhandled exception {exc!r}"
        )

    # phase 2: a faulting procedure is demoted on its first request
    async def procedure_faults(source, plan):
        svc = CompileService(options)
        with faults.active(plan):
            faulted = await asyncio.gather(
                svc.compile(source), svc.compile(source)
            )
        cleared = await svc.compile(source)
        await svc.join()
        return faulted, cleared

    demoted = 0
    for i, name in enumerate(selected):
        procs = sorted(refs[name].ir.functions)
        proc = procs[(seed + i) % len(procs)]
        plan = faults.FaultPlan(specs=[
            faults.FaultSpec(site=faults.SITE_PLAN, kind="raise",
                             match=proc, count=None),
            faults.FaultSpec(site=faults.SITE_CODEGEN, kind="raise",
                             match=proc, count=1),
        ])
        phase = f"service procedure-fault phase: {name}"
        try:
            faulted, cleared = asyncio.run(
                procedure_faults(benches[name].source, plan)
            )
            ref_out = refs[name].run().output
            fired = sorted({site for site, _, _ in plan.fired})
            if fired != sorted((faults.SITE_PLAN, faults.SITE_CODEGEN)):
                violations.append(
                    f"{phase}: faults fired at {fired}, expected plan "
                    "and codegen (site unwired?)"
                )
            for res in faulted:
                check_record("service procedure-fault", name, res)
                named = res.program.record.degraded_procedures()
                if not res.degraded or named != {proc}:
                    violations.append(
                        f"{phase}: served degraded={res.degraded} naming "
                        f"{sorted(named)}, expected {proc!r}"
                    )
                out = res.program.run().output
                if out != ref_out:
                    violations.append(
                        f"{phase}: degraded output {out} != reference "
                        f"{ref_out}"
                    )
            if faulted[0].degraded:
                demoted += 1
            if cleared.degraded:
                violations.append(
                    f"{phase}: still degraded after the faults cleared"
                )
            check_served("service procedure-fault (cleared)", name,
                         cleared)
        except Exception as exc:
            violations.append(f"{phase}: unhandled exception {exc!r}")
    if verbose:
        print(f"svc-faults   programs={len(selected)} "
              f"degraded={demoted}")

    # phase 3: admission control sheds with the typed error
    async def shedding():
        svc = CompileService(options, max_queue=1)
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
        if len(selected) > 1 and not shed:
            violations.append(
                f"service shed phase: {len(selected)} simultaneous "
                "requests against max_queue=1 and none was shed"
            )
        if svc.stats.shed != shed:
            violations.append(
                f"service shed phase: stats.shed={svc.stats.shed} "
                f"disagrees with {shed} ServiceOverloaded responses"
            )
        for name, res in zip(selected, results):
            if not isinstance(res, BaseException):
                check_served("service shed", name, res)
        if verbose:
            print(f"svc-shed     shed={shed} "
                  f"served={len(results) - shed}")
    except Exception as exc:
        violations.append(
            f"service shed phase: unhandled exception {exc!r}"
        )

    if verbose:
        print(f"service total: {served} served results checked, "
              f"{len(violations)} violations")
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
