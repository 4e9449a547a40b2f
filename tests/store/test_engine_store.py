"""Engine + persistent store integration: warm starts are bit-identical
and every store failure mode is invisible in the output."""

import copyreg
import hashlib
import io
import pickle
import time
from dataclasses import fields

import pytest

from repro import faults
from repro.benchsuite.registry import load_benchmarks
from repro.engine.core import Engine
from repro.interproc.allocator import FnPlan
from repro.pipeline.options import PAPER_CONFIGS, O2, O3_SW
import repro.store.store as store_module
from repro.store import StoredPlan
from repro.store.store import MAGIC, NS_CODEGEN, ArtifactStore
from repro.target.isa import Instr
from repro.tools.warmstart import executable_digest

SRC = """
var g = 3;
func leaf(a) { return a + g; }
func mid(a) {
    if (a > 2) { return leaf(a) * 2; }
    return leaf(a - 1);
}
func main() { print mid(5) + leaf(1); return 0; }
"""


def _blobs(store):
    return [
        p for d in store.root.iterdir() if d.is_dir() and len(d.name) == 2
        for p in d.glob("*.blob")
    ]


def test_fresh_session_warm_start(tmp_path):
    cold = Engine(O3_SW, store_path=tmp_path)
    p_cold = cold.compile(SRC)
    warm = Engine(O3_SW, store_path=tmp_path)
    p_warm = warm.compile(SRC)

    assert executable_digest(p_warm.executable) == \
        executable_digest(p_cold.executable)
    rec = warm.stats.records[-1]
    for stage in ("frontend", "plan", "codegen"):
        assert rec.stages[stage].misses == 0, stage
        assert rec.stages[stage].hits == 3, stage
    assert rec.stages["store"].hits > 0
    assert rec.stages["store"].misses == 0
    assert p_warm.run().output == p_cold.run().output


def test_warm_plans_are_stubs_with_paired_artifacts(tmp_path):
    Engine(O3_SW, store_path=tmp_path).compile(SRC)
    warm = Engine(O3_SW, store_path=tmp_path)
    p = warm.compile(SRC)
    assert all(
        isinstance(plan, StoredPlan) for plan in p.plan.plans.values()
    )
    # the stub preserves exactly what dependants consumed
    ref = Engine(O3_SW).compile(SRC)
    for name, plan in ref.plan.plans.items():
        stub = StoredPlan.from_plan(plan)
        assert stub.saved_mask == plan.saved_mask
        assert stub.mode == plan.mode
        assert (stub.summary is None) == (plan.summary is None)


@pytest.mark.parametrize("config", sorted(PAPER_CONFIGS))
def test_warm_start_identity_all_paper_configs(tmp_path, config):
    benches = load_benchmarks()
    options = PAPER_CONFIGS[config]
    for name in ("nim", "map"):
        source = benches[name].source
        cold = Engine(options, store_path=tmp_path).compile(source)
        warm = Engine(options, store_path=tmp_path).compile(source)
        assert executable_digest(warm.executable) == \
            executable_digest(cold.executable), (name, config)


def test_codegen_artifacts_come_back_equal(tmp_path):
    engine = Engine(O3_SW, store_path=tmp_path)
    engine.compile(SRC)
    reader = ArtifactStore(tmp_path)
    assert len(engine._codegen) == 3
    for ckey, artifact in engine._codegen.items():
        assert reader.get(NS_CODEGEN, ckey) == artifact
    assert reader.stats.hits == 3


class _DictLayoutPickler(pickle.Pickler):
    """Pickles ``Instr`` the way store version 1 did, as an object whose
    state is an attribute dict."""

    def reducer_override(self, obj):
        if type(obj) is Instr:
            state = {f.name: getattr(obj, f.name) for f in fields(Instr)}
            return copyreg.__newobj__, (Instr,), state
        return NotImplemented


def _rewrite_in_dict_layout(blob) -> bytes:
    """Re-encode one entry's payload with version-1 ``Instr`` pickles."""
    value = ArtifactStore._decode(blob.read_bytes())
    buf = io.BytesIO()
    _DictLayoutPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    payload = buf.getvalue()
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    blob.write_bytes(MAGIC + digest + b"\n" + payload)
    return payload


def test_version_1_entries_are_clean_misses(tmp_path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(store_module, "STORE_VERSION", 1)
        old = Engine(O3_SW, store_path=tmp_path)
        p_old = old.compile(SRC)
    old_blobs = sorted(_blobs(old.store))
    payloads = [_rewrite_in_dict_layout(b) for b in old_blobs]
    # addressed under version 2, the three codegen artifacts would fail
    # to unpickle and count as corrupt
    unreadable = 0
    for payload in payloads:
        try:
            pickle.loads(payload)
        except AttributeError:
            unreadable += 1
    assert unreadable == 3

    new = Engine(O3_SW, store_path=tmp_path)
    p_new = new.compile(SRC)
    rec = new.stats.records[-1]
    assert rec.stages["store"].hits == 0
    assert rec.cache_corruptions == 0
    assert new.store.stats.corruptions == 0
    assert new.store.stats.quarantined == 0
    assert new.store.quarantined_entries() == []
    assert executable_digest(p_new.executable) == \
        executable_digest(p_old.executable)
    # the recompute wrote version-2 entries next to the old ones, and a
    # fresh session warm-starts from them
    assert set(old_blobs) < set(_blobs(new.store))
    warm = Engine(O3_SW, store_path=tmp_path)
    warm.compile(SRC)
    rec = warm.stats.records[-1]
    assert rec.stages["store"].misses == 0
    assert rec.stages["codegen"].misses == 0
    assert warm.store.stats.corruptions == 0


def test_store_read_corruption_recomputes(tmp_path):
    cold = Engine(O3_SW, store_path=tmp_path)
    p_cold = cold.compile(SRC)
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_STORE_READ, kind="corrupt",
                         count=3),
    ])
    warm = Engine(O3_SW, store_path=tmp_path)
    with faults.active(plan):
        p_warm = warm.compile(SRC)
    assert len(plan.fired) == 3
    assert warm.store.stats.corruptions == 3
    assert warm.stats.records[-1].cache_corruptions == 3
    assert executable_digest(p_warm.executable) == \
        executable_digest(p_cold.executable)
    # later clean compiles count only their own corruptions
    warm.compile(SRC)
    warm.compile(SRC)
    assert [r.cache_corruptions for r in warm.stats.records] == [3, 0, 0]
    assert warm.stats.fault_totals()["cache_corruptions"] == 3
    # so does a new engine sharing the store handle
    shared = Engine(O3_SW, store_path=warm.store)
    shared.compile(SRC)
    assert shared.stats.records[-1].cache_corruptions == 0


def test_store_write_failures_are_silent(tmp_path):
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_STORE_WRITE, kind="raise",
                         count=None),
    ])
    engine = Engine(O3_SW, store_path=tmp_path)
    with faults.active(plan):
        p = engine.compile(SRC)
    assert engine.store.stats.write_failures > 0
    assert engine.store.stats.writes == 0
    assert executable_digest(p.executable) == \
        executable_digest(Engine(O3_SW).compile(SRC).executable)


def test_broken_pairing_replans_without_store(tmp_path):
    """The plan key leaves out the program's arrays and the codegen key
    does not, so recompiling the same procedures next to a changed
    array declaration hits each plan stub but misses its artifact."""
    def with_array(size):
        return f"array buf[{size}];\n" + SRC

    Engine(O3_SW, store_path=tmp_path).compile(with_array(4))
    warm = Engine(O3_SW, store_path=tmp_path)
    p1 = warm.compile(with_array(4))
    assert isinstance(p1.plan.plans["mid"], StoredPlan)

    p2 = warm.compile(with_array(8))
    # the affected procedure was replanned from scratch...
    assert isinstance(p2.plan.plans["mid"], FnPlan)
    assert not isinstance(p2.plan.plans["mid"], StoredPlan)
    # ...and the output did not change
    assert executable_digest(p2.executable) == \
        executable_digest(Engine(O3_SW).compile(with_array(8)).executable)


def test_pairing_enforced_at_lookup(tmp_path):
    """A plan stub whose codegen artifact is missing on disk must be
    ignored at plan time (no stub ever reaches codegen unpaired)."""
    import pickle

    cold = Engine(O3_SW, store_path=tmp_path)
    cold.compile(SRC)
    # drop only the codegen artifacts -- the (AsmFunction, mask) tuples
    removed = 0
    for blob in _blobs(cold.store):
        data = blob.read_bytes()
        payload = data[data.find(b"\n", len(b"repro-store:1\n")) + 1:]
        try:
            value = pickle.loads(payload)
        except Exception:
            continue
        if isinstance(value, tuple) and len(value) == 2:
            blob.unlink()   # (AsmFunction, preserved_mask) artifacts
            removed += 1
    assert removed == 3

    warm = Engine(O3_SW, store_path=tmp_path)
    p = warm.compile(SRC)
    # stubs were unusable: full plans were recomputed
    assert all(
        not isinstance(plan, StoredPlan) for plan in p.plan.plans.values()
    )
    assert executable_digest(p.executable) == \
        executable_digest(Engine(O3_SW).compile(SRC).executable)


def test_compile_batch_with_store(tmp_path):
    engine = Engine(O2, store_path=tmp_path)
    sources = [SRC, SRC.replace("5", "7"),
               "func main() { print 42; return 0; }"]
    results = engine.compile_batch(sources)
    assert [r.run().output for r in results] == [[20], [24], [42]]
    solo = Engine(O2)
    for src, batched in zip(sources, results):
        assert executable_digest(batched.executable) == \
            executable_digest(solo.compile(src).executable)
    # one record per request, each with the store stage populated
    assert len(engine.stats.records) == 3
    assert sum(
        r.stages["store"].lookups for r in engine.stats.records
    ) > 0


def test_batch_isolates_per_request_failures(tmp_path):
    engine = Engine(O2, store_path=tmp_path)
    results = engine.compile_batch([
        SRC,
        "func notmain() { return 1; }",   # no entry point
        "func main() { print 1; return 0; }",
    ])
    assert not isinstance(results[0], Exception)
    assert isinstance(results[1], Exception)
    assert not isinstance(results[2], Exception)


def test_failed_compile_closes_its_record(tmp_path):
    other = "func twice(a) { return a * 2; }\n" \
        "func main() { print twice(4); return 0; }"
    engine = Engine(O3_SW, store_path=tmp_path / "shared")
    plan = faults.FaultPlan([faults.FaultSpec(faults.SITE_CODEGEN)])
    with faults.active(plan), pytest.raises(faults.InjectedFault):
        engine.compile(SRC)
    engine.compile(other)
    failed, clean = engine.stats.records
    assert failed.total_seconds > 0
    solo = Engine(O3_SW, store_path=tmp_path / "solo")
    solo.compile(other)
    expected = solo.stats.records[-1].stages["store"]
    assert (clean.stages["store"].hits, clean.stages["store"].misses) == \
        (expected.hits, expected.misses)


def test_total_seconds_counts_store_io_once(tmp_path):
    # store I/O runs inside the frontend, plan and codegen timers, so
    # the total is the four pipeline stages, never more than the call
    engine = Engine(O3_SW, store_path=tmp_path)
    t0 = time.perf_counter()
    engine.compile(SRC)
    wall = time.perf_counter() - t0
    rec = engine.stats.records[-1]
    assert rec.stages["store"].seconds > 0
    pipeline = sum(
        rec.stages[s].seconds
        for s in ("frontend", "plan", "codegen", "link")
    )
    assert rec.total_seconds == pytest.approx(pipeline)
    assert rec.total_seconds <= wall


def test_store_disabled_engine_untouched(tmp_path):
    engine = Engine(O2)
    assert engine.store is None
    p = engine.compile(SRC)
    rec = engine.stats.records[-1]
    assert rec.stages["store"].lookups == 0
    assert rec.stages["store"].seconds == 0.0
    assert p.run().output == [20]
