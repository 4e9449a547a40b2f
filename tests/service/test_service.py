"""CompileService: single-flight dedup, per-request serving and stats."""

import asyncio
import sys
import time

import pytest

from repro.frontend.errors import OptionsError
from repro.pipeline.options import O2, O3_SW
from repro.service import CompileService
from repro.sim import run_program
from repro.tools.warmstart import executable_digest

SRC = """
var g = 3;
func leaf(a) {{ return a + g; }}
func mid(a) {{ return leaf(a) * 2; }}
func main() {{ print mid({n}) + leaf(1); return 0; }}
"""


def go(coro):
    return asyncio.run(coro)


def test_single_flight_dedup(tmp_path):
    async def scenario():
        svc = CompileService(O3_SW, store_path=tmp_path)
        src = SRC.format(n=5)
        results = await asyncio.gather(
            *(svc.compile(src) for _ in range(6))
        )
        return svc, results

    svc, results = go(scenario())
    outputs = {tuple(r.program.run().output) for r in results}
    assert outputs == {(20,)}
    assert {r.fingerprint for r in results} == {results[0].fingerprint}
    deduped = [r for r in results if r.deduped]
    assert len(deduped) == 5            # one flight served all six
    assert svc.stats.requests == 6
    assert svc.stats.deduped == 5
    assert svc.stats.compiled == 1
    # all six share the very same program object: one compile happened
    assert len({id(r.program) for r in results}) == 1


def test_distinct_concurrent_requests_each_compile_once():
    async def scenario():
        svc = CompileService(O2)
        sources = [SRC.format(n=n) for n in range(4)]
        results = await asyncio.gather(
            *(svc.compile(s) for s in sources)
        )
        return svc, results

    svc, results = go(scenario())
    assert [r.program.run().output for r in results] == \
        [[10], [12], [14], [16]]
    assert svc.engine.stats.compiles == 4   # one engine call each
    assert svc.stats.compiled == 4
    assert svc.stats.deduped == 0
    # per-request records with real stage data
    assert all(r.program.record is not None for r in results)
    assert all(r.program.record.functions == 3 for r in results)


def test_result_does_not_wait_for_a_later_request(monkeypatch):
    src_a, src_b = SRC.format(n=1), SRC.format(n=2)

    async def scenario():
        svc = CompileService(O2)
        compile = svc.engine.compile
        b_done = []

        def stalling(sources, options=None):
            if sources == [("main", src_b)]:
                time.sleep(0.3)
                program = compile(sources, options)
                b_done.append(time.monotonic())
                return program
            return compile(sources, options)

        monkeypatch.setattr(svc.engine, "compile", stalling)
        a = asyncio.ensure_future(svc.compile(src_a))
        b = asyncio.ensure_future(svc.compile(src_b))
        await asyncio.wait(
            [a, b], timeout=10.0, return_when=asyncio.FIRST_COMPLETED
        )
        assert a.done() and not b.done()
        a_done = time.monotonic()
        await b
        return a.result(), b.result(), a_done, b_done[0]

    a, b, a_done, b_done = go(scenario())
    assert a.program.run().output == [12]
    assert b.program.run().output == [14]
    assert a_done < b_done


def test_batched_output_matches_individual():
    from repro.engine.core import Engine

    sources = [SRC.format(n=n) for n in range(3)]

    async def scenario():
        svc = CompileService(O3_SW)
        return await asyncio.gather(*(svc.compile(s) for s in sources))

    results = go(scenario())
    for src, res in zip(sources, results):
        solo = Engine(O3_SW).compile(src)
        assert executable_digest(res.program.executable) == \
            executable_digest(solo.executable)


def test_requests_with_different_options_not_merged():
    async def scenario():
        svc = CompileService(O2)
        src = SRC.format(n=5)
        r2, r3 = await asyncio.gather(
            svc.compile(src, O2), svc.compile(src, O3_SW)
        )
        return svc, r2, r3

    svc, r2, r3 = go(scenario())
    assert r2.fingerprint != r3.fingerprint
    assert r2.program.options.opt_level == 2
    assert r3.program.options.opt_level == 3
    assert r2.program.run().output == r3.program.run().output == [20]


def test_error_isolated_to_its_request():
    async def scenario():
        svc = CompileService(O2)
        good = svc.compile(SRC.format(n=5))
        bad = svc.compile("func notmain() { return 1; }")
        results = await asyncio.gather(good, bad, return_exceptions=True)
        return svc, results

    svc, (good, bad) = go(scenario())
    assert good.program.run().output == [20]
    assert isinstance(bad, OptionsError)
    assert svc.stats.compiled == 1
    assert svc.stats.failed == 1


@pytest.mark.parametrize("bad_first", [False, True])
def test_failed_batch_mate_keeps_the_good_record(bad_first):
    async def scenario():
        svc = CompileService(O2)
        srcs = [SRC.format(n=5), "func main() { print nope; return 0; }"]
        if bad_first:
            srcs.reverse()
        results = await asyncio.gather(
            *(svc.compile(s) for s in srcs), return_exceptions=True)
        if bad_first:
            results.reverse()
        return svc, results

    svc, (good, bad) = go(scenario())
    assert svc.engine.stats.compiles == 2
    assert isinstance(bad, Exception)
    assert good.program.record is not None
    assert good.program.record.functions == len(good.program.ir.functions) == 3


def test_store_counters_surface_in_results(tmp_path):
    async def scenario():
        svc = CompileService(O3_SW, store_path=tmp_path)
        first = await svc.compile(SRC.format(n=5))
        # a later identical request re-enters through the caches (the
        # flight has landed) -- still correct, not an error
        second = await svc.compile(SRC.format(n=5))
        return svc, first, second

    svc, first, second = go(scenario())
    assert first.store is not None
    assert first.store["writes"] > 0
    assert second.store["writes"] >= first.store["writes"]
    assert not second.deduped            # sequential, not concurrent
    assert svc.store_counters()["corruptions"] == 0
    assert executable_digest(first.program.executable) == \
        executable_digest(second.program.executable)


def test_service_run_and_join():
    async def scenario():
        svc = CompileService(O2)
        stats = await svc.run(SRC.format(n=5))
        await svc.join()
        return stats

    stats = go(scenario())
    assert stats.output == [20]


def test_sequential_requests_restart_the_drain_loop():
    async def scenario():
        svc = CompileService(O2)
        a = await svc.compile(SRC.format(n=1))
        await asyncio.sleep(0.02)        # drain loop exits when idle
        b = await svc.compile(SRC.format(n=2))
        return svc, a, b

    svc, a, b = go(scenario())
    assert a.program.run().output == [12]
    assert b.program.run().output == [14]
    assert svc.engine.stats.compiles == 2


STAGED = """
func a(x) { return x + 1; }
func b(x) { return x * 2; }
func main() {
    var i; var s = 0;
    for (i = 0; i < 300; i = i + 1) {
        if (i > 100) { s = s + a(i); }
        if (i > 200) { s = s + b(i); }
    }
    print s;
}
"""


@pytest.mark.parametrize("tier", ["jit", "auto", "jit3"])
def test_concurrent_runs_of_one_program(tier):
    # single-flight hands all six requests the same program, so their
    # runs overlap on one cached translation, which each run extends as
    # it first reaches a trace (tier "jit3" also self-profiles first)
    async def scenario():
        svc = CompileService(O2)
        runs = await asyncio.gather(
            *(svc.run(STAGED, sim_tier=tier) for _ in range(6))
        )
        program = (await svc.compile(STAGED)).program
        return runs, program

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs, program = go(scenario())
    finally:
        sys.setswitchinterval(old_interval)
    expected = run_program(program.executable)
    for stats in runs:
        assert stats == expected
        assert stats.sim_fallback is None
