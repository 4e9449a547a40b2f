"""Unit tests for the content-addressed artifact store itself."""

import os
import time
from pathlib import Path

import pytest

from repro import faults
from repro.store.store import (
    ArtifactStore,
    NS_CODEGEN,
    NS_FRONTEND,
    NS_PLAN,
    StoreLockTimeout,
    key_digest,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def test_roundtrip_and_counters(store):
    key = ("fp", ("nested", 3, True, None))
    assert store.get(NS_PLAN, key) is None
    assert store.put(NS_PLAN, key, {"value": [1, 2, 3]})
    assert store.get(NS_PLAN, key) == {"value": [1, 2, 3]}
    assert store.stats.misses == 1
    assert store.stats.hits == 1
    assert store.stats.writes == 1


def test_namespaces_do_not_collide(store):
    key = ("same", "key")
    store.put(NS_PLAN, key, "plan")
    store.put(NS_CODEGEN, key, "code")
    store.put(NS_FRONTEND, key, "fe")
    assert store.get(NS_PLAN, key) == "plan"
    assert store.get(NS_CODEGEN, key) == "code"
    assert store.get(NS_FRONTEND, key) == "fe"


def test_key_digest_is_canonical_and_strict():
    assert key_digest("ns", (1, "a")) == key_digest("ns", (1, "a"))
    assert key_digest("ns", (1, "a")) != key_digest("ns", (1, "b"))
    assert key_digest("ns", (1,)) != key_digest("ns2", (1,))
    # bool/int must not collide, str/bytes must not collide
    assert key_digest("ns", (True,)) != key_digest("ns", (1,))
    assert key_digest("ns", ("a",)) != key_digest("ns", (b"a",))
    with pytest.raises(TypeError):
        key_digest("ns", (object(),))


def test_sharding_layout(store):
    for i in range(32):
        store.put(NS_PLAN, ("k", i), i)
    shards = [
        d for d in store.root.iterdir()
        if d.is_dir() and len(d.name) == 2
    ]
    assert len(shards) > 1  # 32 keys should never land in one shard
    assert store.entry_count() == 32
    for d in shards:
        assert set(d.name) <= set("0123456789abcdef")


def test_corruption_detected_and_invalidated(store):
    key = ("c", 1)
    store.put(NS_PLAN, key, "payload")
    path = Path(store._path(NS_PLAN, key))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3] + b"XXX")
    assert store.get(NS_PLAN, key) is None
    assert store.stats.corruptions == 1
    assert not path.exists()  # invalidated, next get is a clean miss
    assert store.get(NS_PLAN, key) is None
    assert store.stats.corruptions == 1


def test_truncated_and_garbage_entries(store):
    key = ("t", 1)
    store.put(NS_PLAN, key, "payload")
    path = Path(store._path(NS_PLAN, key))
    path.write_bytes(b"not a store entry at all")
    assert store.get(NS_PLAN, key) is None
    store.put(NS_PLAN, key, "payload")
    path.write_bytes(path.read_bytes()[:10])
    assert store.get(NS_PLAN, key) is None


def test_fault_injected_read_corruption(store):
    key = ("f", 1)
    store.put(NS_PLAN, key, "payload")
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_STORE_READ, kind="corrupt",
                         count=1),
    ])
    with faults.active(plan):
        assert store.get(NS_PLAN, key) is None
    assert store.stats.corruptions == 1
    # the corrupt entry was invalidated; a rewrite reads back fine
    store.put(NS_PLAN, key, "payload")
    assert store.get(NS_PLAN, key) == "payload"


def test_fault_injected_write_failure(store):
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_STORE_WRITE, kind="raise",
                         count=1),
    ])
    with faults.active(plan):
        assert store.put(NS_PLAN, ("w", 1), "v") is False
    assert store.stats.write_failures == 1
    assert store.get(NS_PLAN, ("w", 1)) is None
    assert store.put(NS_PLAN, ("w", 1), "v") is True


def test_gc_is_lru_by_mtime(store):
    for i in range(4):
        store.put(NS_PLAN, ("lru", i), "x" * 100)
    paths = [Path(store._path(NS_PLAN, ("lru", i))) for i in range(4)]
    now = time.time()
    # ages: entry 0 oldest ... entry 3 newest
    for i, p in enumerate(paths):
        os.utime(p, (now - 1000 + i * 100, now - 1000 + i * 100))
    # touch entry 0 via a hit: it becomes the newest
    assert store.get(NS_PLAN, ("lru", 0)) == "x" * 100
    total = store.size_bytes()
    one = paths[0].stat().st_size
    report = store.gc(max_bytes=total - 2 * one + 1)
    assert report["evicted"] == 2
    assert store.stats.evictions == 2
    # the two oldest by mtime (1 and 2) are gone; 0 survived its touch
    assert paths[0].exists() and paths[3].exists()
    assert not paths[1].exists() and not paths[2].exists()


def test_gc_to_zero_and_empty_store(store):
    assert store.gc(max_bytes=0)["evicted"] == 0
    store.put(NS_PLAN, ("g", 1), "v")
    report = store.gc(max_bytes=0)
    assert report["evicted"] == 1
    assert store.entry_count() == 0
    with pytest.raises(ValueError):
        store.gc(max_bytes=-1)


def test_verify_removes_corrupt_entries(store):
    store.put(NS_PLAN, ("v", 1), "good")
    store.put(NS_PLAN, ("v", 2), "bad")
    bad = Path(store._path(NS_PLAN, ("v", 2)))
    bad.write_bytes(b"garbage")
    report = store.verify(remove=False)
    assert report == {
        "checked": 2, "corrupt": 1, "removed": 0,
        "corrupt_entries": [bad.name],
    }
    assert bad.exists()
    report = store.verify(remove=True)
    assert report["removed"] == 1
    assert not bad.exists()
    # the evidence is quarantined, not destroyed
    assert store.quarantined_entries() == [bad.name]
    assert store.stats.quarantined == 1
    assert store.get(NS_PLAN, ("v", 1)) == "good"


def test_lock_timeout_and_stale_break(tmp_path):
    store = ArtifactStore(tmp_path, lock_timeout=0.15,
                          stale_lock_seconds=60.0)
    lock = store.root / ".lock"
    lock.write_text("held")
    with pytest.raises(StoreLockTimeout):
        store.gc(max_bytes=0)
    assert store.stats.lock_timeouts == 1
    # a stale lock is broken instead of timing out
    old = time.time() - 120
    os.utime(lock, (old, old))
    store.stale_lock_seconds = 1.0
    assert store.gc(max_bytes=0)["evicted"] == 0
    assert not lock.exists()


def test_open_store_passthrough(tmp_path):
    from repro.store.store import open_store

    assert open_store(None) is None
    s = open_store(tmp_path)
    assert isinstance(s, ArtifactStore)
    assert open_store(s) is s


def test_cli_stats_gc_verify(tmp_path, capsys):
    from repro.store.cli import store_main

    store = ArtifactStore(tmp_path)
    for i in range(3):
        store.put(NS_PLAN, ("cli", i), "x" * 50)
    bad = Path(store._path(NS_PLAN, ("cli", 2)))
    bad.write_bytes(b"rot")

    assert store_main(["stats", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries: 3" in out

    assert store_main(["verify", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "corrupt: 1 removed" in out
    assert not bad.exists()

    assert store_main(["gc", str(tmp_path), "--max-bytes", "0"]) == 0
    out = capsys.readouterr().out
    assert "evicted: 2 entries" in out
    assert store.entry_count() == 0

    assert store_main(["stats", str(tmp_path), "--json"]) == 0
    import json

    assert json.loads(capsys.readouterr().out)["entries"] == 0
