"""The service's resilience layer: deadlines, cooperative cancellation,
degraded serving, admission control, graceful drain."""

import asyncio

import pytest

from repro import faults
from repro.frontend.errors import OptionsError
from repro.pipeline.options import O2, O3_SW
from repro.service import (
    CompileService,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
)

SRC = """
func leaf(a) {{ return a + 3; }}
func main() {{ print leaf({n}) * 2; return 0; }}
"""


def go(coro):
    return asyncio.run(coro)


# -- policies ----------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        CompileService(O2, max_queue=0)
    with pytest.raises(ValueError):
        CompileService(O2, default_deadline=-1.0)


# -- deadlines and cooperative cancellation ----------------------------------

def test_expired_deadline_cancels_before_dispatch():
    async def scenario():
        svc = CompileService(O2)
        with pytest.raises(DeadlineExceeded):
            await svc.compile(SRC.format(n=1), deadline=0.0)
        await svc.join()
        return svc

    svc = go(scenario())
    assert svc.stats.deadline_expired == 1
    assert svc.stats.cancelled == 1     # dropped pre-dispatch
    assert svc.stats.compiled == 0
    assert not svc.engine.stats.records  # the engine never ran
    assert not svc._inflight


def test_deadline_exceeded_while_dispatch_hangs():
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="hang",
                         hang_seconds=0.3, count=1),
    ])

    async def scenario():
        svc = CompileService(O2)
        with faults.active(plan):
            with pytest.raises(DeadlineExceeded):
                await svc.compile(SRC.format(n=1), deadline=0.05)
            await svc.join()
        return svc

    svc = go(scenario())
    assert len(plan.fired) == 1
    assert svc.stats.deadline_expired == 1


def test_dedup_waiter_without_deadline_keeps_request_alive():
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="hang",
                         hang_seconds=0.2, count=1),
    ])

    async def scenario():
        svc = CompileService(O2)
        src = SRC.format(n=2)
        with faults.active(plan):
            impatient = asyncio.ensure_future(
                svc.compile(src, deadline=0.05)
            )
            patient = asyncio.ensure_future(svc.compile(src))
            results = await asyncio.gather(
                impatient, patient, return_exceptions=True
            )
            await svc.join()
        return svc, results

    svc, (impatient, patient) = go(scenario())
    assert isinstance(impatient, DeadlineExceeded)
    assert patient.program.run().output == [10]
    assert patient.deduped
    assert svc.stats.compiled == 1


def test_request_behind_a_hung_one_is_cancelled_on_its_own_deadline():
    # A has no deadline and hangs in dispatch; B, queued behind it,
    # expires meanwhile and must never reach the engine
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="hang",
                         hang_seconds=0.3, count=1),
    ])

    async def scenario():
        svc = CompileService(O2)
        with faults.active(plan):
            results = await asyncio.gather(
                svc.compile(SRC.format(n=1)),
                svc.compile(SRC.format(n=2), deadline=0.05),
                return_exceptions=True,
            )
            await svc.join()
        return svc, results

    svc, (a, b) = go(scenario())
    assert a.program.run().output == [8]
    assert isinstance(b, DeadlineExceeded)
    assert svc.stats.cancelled == 1
    assert svc.engine.stats.compiles == 1
    assert not svc._inflight


def test_default_deadline_applies():
    async def scenario():
        svc = CompileService(O2, default_deadline=0.0)
        with pytest.raises(DeadlineExceeded):
            await svc.compile(SRC.format(n=1))
        await svc.join()
        return svc

    assert go(scenario()).stats.deadline_expired == 1


# -- degraded serving ---------------------------------------------------------

def _planner_crash():
    """Planning raises for every procedure on every attempt -- a planner
    bug, not a transient fault."""
    return faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_PLAN, kind="raise", count=None),
    ])


def test_procedure_fault_is_served_degraded_on_first_request():
    src = SRC.format(n=4)

    async def scenario():
        svc = CompileService(O3_SW)
        with faults.active(_planner_crash()):
            results = [await svc.compile(src) for _ in range(3)]
        await svc.join()
        return svc, results

    svc, results = go(scenario())
    clean = go(CompileService(O3_SW).compile(src))
    assert all(r.degraded for r in results)
    assert all(
        r.program.record.degraded_procedures() == {"leaf", "main"}
        for r in results
    )
    assert svc.engine.stats.compiles == 3     # one compile per request
    assert svc.stats.degraded == svc.stats.compiled == 3
    assert svc.stats.failed == 0
    assert not clean.degraded
    for r in results:
        assert r.program.run().output == clean.program.run().output == [14]


def test_deterministic_compile_errors_never_retry():
    async def scenario():
        svc = CompileService(O2)
        with pytest.raises(OptionsError):
            await svc.compile("func notmain() { return 1; }")
        await svc.join()
        return svc

    svc = go(scenario())
    assert svc.engine.stats.compiles == 1
    assert svc.stats.failed == 1


def test_degraded_results_match_the_primary_path():
    """A degraded program runs like the primary build, and once the
    fault clears the same service serves the primary build again:
    demoted plans never reach its caches."""
    from repro.tools.warmstart import executable_digest

    src = SRC.format(n=6)

    async def scenario():
        svc = CompileService(O3_SW)
        with faults.active(_planner_crash()):
            degraded = await svc.compile(src)
        healed = await svc.compile(src)
        await svc.join()
        return degraded, healed

    degraded, healed = go(scenario())
    reference = go(CompileService(O3_SW).compile(src))
    assert degraded.degraded
    assert not healed.degraded and not reference.degraded
    assert degraded.program.run().output == \
        reference.program.run().output == [18]
    assert executable_digest(healed.program.executable) == \
        executable_digest(reference.program.executable)


# -- admission control -------------------------------------------------------

def test_queue_high_water_mark_sheds_typed():
    async def scenario():
        svc = CompileService(O2, max_queue=1)
        results = await asyncio.gather(
            *(svc.compile(SRC.format(n=n)) for n in range(3)),
            return_exceptions=True,
        )
        await svc.join()
        return svc, results

    svc, results = go(scenario())
    shed = [r for r in results if isinstance(r, ServiceOverloaded)]
    served = [r for r in results if not isinstance(r, BaseException)]
    assert len(shed) == 2 and len(served) == 1
    assert svc.stats.shed == 2
    assert served[0].program.run().output is not None


# -- graceful drain ----------------------------------------------------------

def test_drain_stops_admission_but_flushes_inflight():
    async def scenario():
        svc = CompileService(O2)
        inflight = asyncio.ensure_future(svc.compile(SRC.format(n=1)))
        await asyncio.sleep(0)            # let it enqueue
        await svc.drain()
        assert svc.closed
        with pytest.raises(ServiceClosed):
            await svc.compile(SRC.format(n=2))
        return svc, await inflight

    svc, result = go(scenario())
    assert result.program.run().output == [8]
    assert svc.stats.compiled == 1


def test_drain_deadline_fails_stragglers_instead_of_hanging():
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_SERVICE_DEADLINE, kind="hang",
                         hang_seconds=0.4, count=1),
    ])

    async def scenario():
        svc = CompileService(O2)
        with faults.active(plan):
            straggler = asyncio.ensure_future(
                svc.compile(SRC.format(n=1))
            )
            await asyncio.sleep(0.05)     # request dispatched, now hung
            await svc.join(drain=True, deadline=0.05)
            result = await asyncio.gather(
                straggler, return_exceptions=True
            )
            await svc.join()              # executor work still lands
        return svc, result[0]

    svc, outcome = go(scenario())
    assert isinstance(outcome, DeadlineExceeded)
    assert svc.stats.deadline_expired == 1
    assert not svc._inflight


# -- single-flight leak fix --------------------------------------------------

def test_group_failure_resolves_every_waiter(monkeypatch):
    """A crash anywhere in result distribution (here: the store-counter
    snapshot) must fail the waiters, not leave them parked forever on
    an abandoned in-flight future."""

    async def scenario():
        svc = CompileService(O2)

        def boom():
            raise RuntimeError("snapshot exploded")

        monkeypatch.setattr(svc, "store_counters", boom)
        src = SRC.format(n=3)
        results = await asyncio.wait_for(
            asyncio.gather(
                svc.compile(src), svc.compile(src),
                return_exceptions=True,
            ),
            timeout=10.0,
        )
        await svc.join()
        return svc, results

    svc, results = go(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)
    assert svc.stats.failed == 1          # one flight served both
    assert svc.stats.deduped == 1
    assert not svc._inflight
