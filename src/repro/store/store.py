"""Sharded, checksummed, content-addressed on-disk artifact store.

Layout (``shards`` fixed at 256)::

    <root>/
      store.json          # {"version": 2, "shards": 256}
      .lock               # advisory lock (gc/verify only)
      00/ .. ff/          # key-prefix shards, created lazily
        <digest>.blob     # one entry

A key is ``(namespace, engine cache key)`` where the engine key is a
nested tuple of primitives (content fingerprints, option fingerprints,
summary signatures -- see :mod:`repro.engine.fingerprint`).  The key is
reduced to a SHA-256 digest of a canonical recursive encoding, so two
processes computing the same fingerprints address the same entry; the
first two hex digits pick the shard.  The digest also covers
:data:`STORE_VERSION`, the layout of the pickled artifacts: an entry
written under another layout is never addressed, so it reads as a
clean miss rather than as a payload that fails to unpickle (which
would count as corruption), and LRU garbage collection reclaims it
as it ages.

An entry file is ``MAGIC + sha256(payload) + payload`` with the payload
a pickle of the artifact.  Writes go to a temporary file in the shard
directory and are published with ``os.replace`` -- readers see either
the old complete entry or the new complete entry, never a torn write,
which is the whole concurrency model for readers and writers (no locks;
last writer of identical content wins).  Reads recompute the checksum
and treat any mismatch or unpickling failure as corruption: the entry
is quarantined, counted, and the caller sees a miss and recomputes
(detect, invalidate, recompute).  Only the store checksums its
entries: bytes on disk can rot or tear, objects in the engine's
in-memory caches cannot.

Garbage collection is LRU by file mtime (a hit bumps the entry's mtime)
under a best-effort advisory lock; a stale lock older than
``stale_lock_seconds`` is broken, and a lock that cannot be acquired
within ``lock_timeout`` raises :class:`StoreLockTimeout`.

**Self-healing.**  A corrupt entry is never silently destroyed: the read
path, :meth:`ArtifactStore.verify` and :meth:`ArtifactStore.scrub` move
it into a ``quarantine/`` area next to the shards, preserving the
evidence while vacating the content address -- the next lookup is a
clean miss, the engine recomputes, and the re-``put`` repairs the store
(recompute-on-next-miss).
``scrub`` additionally re-verifies checksums *incrementally* (a persisted
shard cursor lets bounded passes cover the whole store across calls) and
reaps orphaned ``*.tmp`` files left in the shards by writers that were
killed between ``mkstemp`` and ``os.replace``.  A temp file younger than
``orphan_age_seconds`` is presumed to belong to a live writer and is
left alone, so scrubbing never races an in-flight ``put``.

Fault-injection sites (:mod:`repro.faults`): ``store-read`` bit-rots a
payload before the checksum verifies it, ``store-write`` fails a write
(swallowed: the artifact is simply not cached; key ``publish:<ns>``
consults between the temp write and the rename -- the crash-recovery
harness kills a writer there), ``store-lock`` delays or fails lock
acquisition, ``store-scrub`` fails individual scrub checks (absorbed and
counted, the pass continues).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro import faults

MAGIC = b"repro-store:1\n"
#: artifact layout version, folded into every entry's address: bump it
#: when a pickled artifact class changes shape (2: slotted ``Instr``)
STORE_VERSION = 2
SHARDS = 256
#: corrupt blobs are moved here (evidence), never silently destroyed
QUARANTINE_DIR = "quarantine"
#: persisted scrub cursor (next shard index for the incremental pass)
SCRUB_STATE = "scrub.json"

#: store key namespaces (one per engine cache layer)
NS_FRONTEND = "fe"
NS_PLAN = "plan"
NS_CODEGEN = "code"


class StoreError(RuntimeError):
    """A store operation failed in a way the caller must see."""


class StoreLockTimeout(StoreError):
    """The advisory lock could not be acquired within the timeout."""


# -- canonical key encoding --------------------------------------------------

def _encode_key(value, out: List[bytes]) -> None:
    """Canonical, process-independent encoding of an engine cache key.

    Only the types that actually occur in engine keys are accepted;
    anything else is a programming error, not data to be hashed on a
    best-effort basis.  Exact-type dispatch keeps ``bool`` (whose type
    is not ``int``) distinct from ``int`` and is what makes this hot
    path cheap; the ``isinstance`` tail readmits well-behaved
    subclasses.
    """
    t = type(value)
    if t is str:
        raw = value.encode("utf-8")
        out.append(b"s%d:%s" % (len(raw), raw))
    elif t is int:
        out.append(b"i%d;" % value)
    elif t is tuple or t is list:
        out.append(b"(")
        for item in value:
            _encode_key(item, out)
        out.append(b")")
    elif value is None:
        out.append(b"N")
    elif t is bool:
        out.append(b"T" if value else b"F")
    elif t is bytes:
        out.append(b"b%d:%s" % (len(value), value))
    elif isinstance(value, bool):
        out.append(b"T" if value else b"F")
    elif isinstance(value, int):
        out.append(b"i%d;" % value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s%d:%s" % (len(raw), raw))
    elif isinstance(value, bytes):
        out.append(b"b%d:%s" % (len(value), bytes(value)))
    elif isinstance(value, (tuple, list)):
        out.append(b"(")
        for item in value:
            _encode_key(item, out)
        out.append(b")")
    else:
        raise TypeError(
            f"store keys must be built from primitives, got {value!r}"
        )


def key_digest(namespace: str, key) -> str:
    """SHA-256 hex digest addressing ``key`` within ``namespace`` under
    the current :data:`STORE_VERSION`."""
    out: List[bytes] = []
    _encode_key((STORE_VERSION, namespace, key), out)
    return hashlib.sha256(b"".join(out)).hexdigest()


# -- counters ----------------------------------------------------------------

@dataclass
class StoreStats:
    """Cumulative counters for one :class:`ArtifactStore` handle."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_failures: int = 0
    corruptions: int = 0
    evictions: int = 0
    #: corrupt entries moved to ``quarantine/`` instead of destroyed
    quarantined: int = 0
    #: orphaned writer temp files removed by :meth:`ArtifactStore.scrub`
    reaped: int = 0
    #: completed scrub passes
    scrubs: int = 0
    #: ``_acquire_lock`` calls that found the lock held and had to wait
    lock_waits: int = 0
    lock_timeouts: int = 0
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, Union[int, float]]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "write_failures": self.write_failures,
            "corruptions": self.corruptions,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "reaped": self.reaped,
            "scrubs": self.scrubs,
            "lock_waits": self.lock_waits,
            "lock_timeouts": self.lock_timeouts,
            "seconds": round(self.seconds, 6),
        }


class ArtifactStore:
    """One process's handle on a shared on-disk store.

    Handles are cheap; any number of processes (and threads within one
    process) may point at the same root concurrently.  Counters are per
    handle, the data is shared.
    """

    def __init__(
        self,
        root: Union[str, Path],
        lock_timeout: float = 10.0,
        stale_lock_seconds: float = 60.0,
    ):
        self.root = Path(root)
        self.lock_timeout = lock_timeout
        self.stale_lock_seconds = stale_lock_seconds
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self.root.mkdir(parents=True, exist_ok=True)
        meta = self.root / "store.json"
        if not meta.exists():
            tmp = meta.with_suffix(".json.tmp%d" % os.getpid())
            tmp.write_text(
                '{"version": %d, "shards": %d}\n' % (STORE_VERSION, SHARDS)
            )
            os.replace(tmp, meta)

    # -- addressing ----------------------------------------------------------

    def _path(self, namespace: str, key) -> str:
        digest = key_digest(namespace, key)
        return os.path.join(str(self.root), digest[:2], digest + ".blob")

    # -- entry I/O -----------------------------------------------------------

    def get(self, namespace: str, key):
        """Checksummed read; ``None`` on miss or detected corruption."""
        t0 = time.perf_counter()
        path = self._path(namespace, key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            self._count("misses", t0)
            return None
        if faults.corrupts(faults.SITE_STORE_READ, namespace):
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF]) if blob else b"\xff"
        value = self._decode(blob)
        if value is _BAD:
            self._quarantine(Path(path))
            with self._lock:
                self.stats.corruptions += 1
            self._count("misses", t0)
            return None
        try:
            os.utime(path, None)  # LRU touch
        except OSError:
            pass
        self._count("hits", t0)
        return value

    def put(self, namespace: str, key, value) -> bool:
        """Atomic write-rename; failures are counted, never raised."""
        t0 = time.perf_counter()
        path = self._path(namespace, key)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        shard = os.path.dirname(path)
        try:
            faults.check(faults.SITE_STORE_WRITE, namespace)
            os.makedirs(shard, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(MAGIC)
                    fh.write(digest)
                    fh.write(b"\n")
                    fh.write(payload)
                # the kill window: a writer that dies here leaves an
                # orphaned temp file for scrub() to reap
                faults.check(
                    faults.SITE_STORE_WRITE, f"publish:{namespace}"
                )
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            self._count("write_failures", t0)
            return False
        self._count("writes", t0)
        return True

    @staticmethod
    def _decode(blob: bytes):
        if not blob.startswith(MAGIC):
            return _BAD
        head = blob[len(MAGIC):]
        nl = head.find(b"\n")
        if nl != 64:
            return _BAD
        digest, payload = head[:64], head[nl + 1:]
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            return _BAD
        try:
            return pickle.loads(payload)
        except Exception:
            return _BAD

    def _count(self, counter: str, t0: float) -> None:
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            self.stats.seconds += time.perf_counter() - t0

    # -- maintenance ---------------------------------------------------------

    def _entries(self) -> Iterator[Path]:
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                for blob in sorted(shard.glob("*.blob")):
                    yield blob

    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    def size_bytes(self) -> int:
        total = 0
        for blob in self._entries():
            try:
                total += blob.stat().st_size
            except OSError:
                pass
        return total

    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def quarantined_entries(self) -> List[str]:
        """Names of the corrupt blobs currently held as evidence."""
        qdir = self.quarantine_dir()
        if not qdir.is_dir():
            return []
        return sorted(p.name for p in qdir.glob("*.blob"))

    def _quarantine(self, path: Path) -> bool:
        """Move a corrupt blob into ``quarantine/`` -- vacating its
        content address (the next lookup misses and recomputes) while
        preserving the bytes for a post-mortem.  Falls back to a plain
        unlink if the move itself fails; either way the address is
        vacated."""
        qdir = self.quarantine_dir()
        try:
            qdir.mkdir(exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                return False
            return True
        with self._lock:
            self.stats.quarantined += 1
        return True

    def summary(self) -> Dict:
        """Stats for the CLI: layout plus this handle's counters."""
        shards = [
            s for s in self.root.iterdir()
            if s.is_dir() and len(s.name) == 2
        ]
        return {
            "root": str(self.root),
            "version": STORE_VERSION,
            "entries": self.entry_count(),
            "bytes": self.size_bytes(),
            "shards_used": len(shards),
            "quarantined_entries": len(self.quarantined_entries()),
            "counters": self.stats.to_dict(),
        }

    def _acquire_lock(self) -> Path:
        """Advisory lock for gc/verify/scrub (entry I/O is lock-free).

        Contention is observable: an acquisition that finds the lock
        held counts one ``lock_waits`` (however long it then waits), and
        giving up counts one ``lock_timeouts``.
        """
        lock = self.root / ".lock"
        deadline = time.monotonic() + self.lock_timeout
        waited = False
        while True:
            faults.check(faults.SITE_STORE_LOCK, None)
            try:
                fd = os.open(str(lock), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                return lock
            except FileExistsError:
                if not waited:
                    waited = True
                    with self._lock:
                        self.stats.lock_waits += 1
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # holder released it between open and stat
                if age > self.stale_lock_seconds:
                    try:
                        lock.unlink()
                    except OSError:
                        pass
                    continue
            if time.monotonic() >= deadline:
                with self._lock:
                    self.stats.lock_timeouts += 1
                raise StoreLockTimeout(
                    f"could not acquire {lock} within "
                    f"{self.lock_timeout:.1f}s"
                )
            time.sleep(0.02)

    def gc(self, max_bytes: int) -> Dict:
        """Evict least-recently-used entries until the store fits
        ``max_bytes``.  Returns an eviction report."""
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        lock = self._acquire_lock()
        try:
            stats: List[Tuple[float, int, Path]] = []
            for blob in self._entries():
                try:
                    st = blob.stat()
                except OSError:
                    continue
                stats.append((st.st_mtime, st.st_size, blob))
            total = sum(size for _, size, _ in stats)
            evicted = 0
            freed = 0
            # oldest first
            for _, size, blob in sorted(stats, key=lambda t: t[0]):
                if total - freed <= max_bytes:
                    break
                try:
                    blob.unlink()
                except OSError:
                    continue
                freed += size
                evicted += 1
            with self._lock:
                self.stats.evictions += evicted
            return {
                "max_bytes": max_bytes,
                "before_bytes": total,
                "after_bytes": total - freed,
                "evicted": evicted,
            }
        finally:
            try:
                lock.unlink()
            except OSError:
                pass

    def verify(self, remove: bool = True) -> Dict:
        """Re-checksum every entry; with ``remove``, move corrupt ones to
        ``quarantine/`` (see :meth:`_quarantine`)."""
        lock = self._acquire_lock()
        try:
            checked = removed = 0
            corrupt: List[str] = []
            for blob in self._entries():
                try:
                    data = blob.read_bytes()
                except OSError:
                    continue
                checked += 1
                if self._decode(data) is _BAD:
                    corrupt.append(blob.name)
                    if remove and self._quarantine(blob):
                        removed += 1
            if corrupt:
                with self._lock:
                    self.stats.corruptions += len(corrupt)
            return {
                "checked": checked,
                "corrupt": len(corrupt),
                "removed": removed,
                "corrupt_entries": corrupt,
            }
        finally:
            try:
                lock.unlink()
            except OSError:
                pass

    def scrub(
        self,
        max_entries: Optional[int] = None,
        orphan_age_seconds: float = 60.0,
        resume: bool = True,
    ) -> Dict:
        """Self-healing maintenance pass: re-verify checksums, quarantine
        corruption, reap orphaned writer temps.

        The pass walks the 256 shards starting from a cursor persisted
        in ``scrub.json``; with ``max_entries`` set it stops at the
        first shard boundary past that many re-verified entries and
        saves the cursor, so repeated bounded calls cover the whole
        store incrementally.  ``resume=False`` starts from shard ``00``
        regardless.

        Corrupt entries move to ``quarantine/`` (see
        :meth:`_quarantine`); repair is recompute-on-next-miss -- the
        vacated address misses, the engine recomputes and re-puts.
        Temp files older than ``orphan_age_seconds`` are reaped as
        debris of killed writers; younger ones are presumed live and
        left alone (never treat another process's in-flight write as
        garbage).  A failure checking one entry (I/O error, injected
        ``store-scrub`` fault) is counted and the pass continues.
        """
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        lock = self._acquire_lock()
        try:
            state_path = self.root / SCRUB_STATE
            start = 0
            if resume:
                try:
                    state = json.loads(state_path.read_text())
                    start = int(state.get("next_shard", 0)) % SHARDS
                except (OSError, ValueError):
                    start = 0
            checked = quarantined = reaped = errors = 0
            scanned = 0
            now = time.time()
            next_shard = start
            for off in range(SHARDS):
                idx = (start + off) % SHARDS
                shard = self.root / format(idx, "02x")
                scanned += 1
                next_shard = (idx + 1) % SHARDS
                if shard.is_dir():
                    for tmp in sorted(shard.glob("*.tmp")):
                        try:
                            age = now - tmp.stat().st_mtime
                        except OSError:
                            continue
                        if age >= orphan_age_seconds:
                            try:
                                tmp.unlink()
                            except OSError:
                                continue
                            reaped += 1
                    for blob in sorted(shard.glob("*.blob")):
                        checked += 1
                        try:
                            faults.check(
                                faults.SITE_STORE_SCRUB, blob.name[:2]
                            )
                            data = blob.read_bytes()
                        except OSError:
                            continue
                        except Exception:
                            errors += 1
                            continue
                        if self._decode(data) is _BAD:
                            if self._quarantine(blob):
                                quarantined += 1
                if max_entries is not None and checked >= max_entries \
                        and off + 1 < SHARDS:
                    break
            else:
                next_shard = start  # full cycle: resume where we began
            # killed writers can also strand metadata temps at the root
            for pattern in ("store.json.tmp*", "scrub.json.tmp*"):
                for tmp in sorted(self.root.glob(pattern)):
                    try:
                        if now - tmp.stat().st_mtime >= orphan_age_seconds:
                            tmp.unlink()
                            reaped += 1
                    except OSError:
                        continue
            try:
                tmp_state = state_path.with_suffix(".json.tmp%d" % os.getpid())
                tmp_state.write_text(
                    json.dumps({"next_shard": next_shard}) + "\n"
                )
                os.replace(tmp_state, state_path)
            except OSError:
                pass  # cursor is an optimisation, not a correctness need
            with self._lock:
                self.stats.corruptions += quarantined
                self.stats.reaped += reaped
                self.stats.scrubs += 1
            return {
                "checked": checked,
                "quarantined": quarantined,
                "reaped": reaped,
                "errors": errors,
                "start_shard": start,
                "shards_scanned": scanned,
                "next_shard": next_shard,
            }
        finally:
            try:
                lock.unlink()
            except OSError:
                pass


class _Bad:
    """Sentinel for an undecodable entry (never a legal stored value)."""

    def __repr__(self):  # pragma: no cover - debug aid
        return "<corrupt store entry>"


_BAD = _Bad()


def open_store(
    path: Optional[Union[str, Path]], **kwargs
) -> Optional[ArtifactStore]:
    """``None``-propagating constructor used by the session APIs."""
    if path is None:
        return None
    if isinstance(path, ArtifactStore):
        return path
    return ArtifactStore(path, **kwargs)
