"""``python -m repro store`` -- maintenance for the artifact store.

Subcommands (all take the store directory as their first argument)::

    repro store stats  PATH            # entry/byte/shard counts
    repro store verify PATH [--keep]   # re-checksum; quarantine corruption
    repro store gc     PATH --max-bytes N   # LRU-by-mtime eviction
    repro store scrub  PATH [--max-entries N] [--orphan-age S] [--restart]
                                       # quarantine corruption, reap temps

``gc``, ``verify`` and ``scrub`` hold the store's advisory lock while
they scan, so concurrent compilers keep working (readers and writers are
lock-free) but two maintenance passes never race each other.  ``scrub``
is the self-healing pass: corrupt entries move to ``quarantine/``
(evidence preserved; the vacated address repairs itself on the next
miss) and temp files orphaned by killed writers are reaped; with
``--max-entries`` it resumes from a persisted shard cursor, so bounded
nightly passes cover the store incrementally.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from repro.store.store import ArtifactStore


def _human(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def store_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro store", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_stats = sub.add_parser("stats", help="show store size and layout")
    p_stats.add_argument("path", help="store directory")
    p_stats.add_argument("--json", action="store_true", dest="as_json")

    p_verify = sub.add_parser(
        "verify", help="re-checksum every entry, quarantining corrupt ones"
    )
    p_verify.add_argument("path", help="store directory")
    p_verify.add_argument(
        "--keep", action="store_true",
        help="report corrupt entries but leave them in place",
    )
    p_verify.add_argument("--json", action="store_true", dest="as_json")

    p_gc = sub.add_parser(
        "gc", help="evict least-recently-used entries down to a byte budget"
    )
    p_gc.add_argument("path", help="store directory")
    p_gc.add_argument(
        "--max-bytes", type=int, required=True,
        help="target store size in bytes",
    )
    p_gc.add_argument("--json", action="store_true", dest="as_json")

    p_scrub = sub.add_parser(
        "scrub",
        help="quarantine corrupt entries and reap orphaned writer temps",
    )
    p_scrub.add_argument("path", help="store directory")
    p_scrub.add_argument(
        "--max-entries", type=int, default=None,
        help="stop after re-verifying this many entries (resumes from a "
             "persisted cursor next call)",
    )
    p_scrub.add_argument(
        "--orphan-age", type=float, default=60.0,
        help="temp files older than this many seconds are reaped "
             "(default 60)",
    )
    p_scrub.add_argument(
        "--restart", action="store_true",
        help="ignore the persisted cursor and start from shard 00",
    )
    p_scrub.add_argument("--json", action="store_true", dest="as_json")

    args = parser.parse_args(argv)
    store = ArtifactStore(args.path)

    if args.subcommand == "stats":
        report = store.summary()
    elif args.subcommand == "verify":
        report = store.verify(remove=not args.keep)
    elif args.subcommand == "scrub":
        report = store.scrub(
            max_entries=args.max_entries,
            orphan_age_seconds=args.orphan_age,
            resume=not args.restart,
        )
    else:  # gc
        report = store.gc(max_bytes=args.max_bytes)

    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    if args.subcommand == "stats":
        print(f"store:   {report['root']} (v{report['version']})")
        print(f"entries: {report['entries']}")
        print(f"bytes:   {report['bytes']} ({_human(report['bytes'])})")
        print(f"shards:  {report['shards_used']} in use")
        if report["quarantined_entries"]:
            print(f"quarantine: {report['quarantined_entries']} entries")
    elif args.subcommand == "scrub":
        print(f"checked:     {report['checked']} entries "
              f"(shards {report['start_shard']:02x}.., "
              f"{report['shards_scanned']} scanned)")
        print(f"quarantined: {report['quarantined']}")
        print(f"reaped:      {report['reaped']} orphaned temp files")
        if report["errors"]:
            print(f"errors:      {report['errors']} (entries skipped)")
    elif args.subcommand == "verify":
        what = "removed" if not args.keep else "found (kept)"
        print(f"checked: {report['checked']}")
        print(f"corrupt: {report['corrupt']} {what}")
    else:
        freed = report["before_bytes"] - report["after_bytes"]
        print(f"evicted: {report['evicted']} entries, "
              f"{freed} bytes freed")
        print(f"kept:    {report['after_bytes']} bytes "
              f"({_human(report['after_bytes'])}, "
              f"budget {report['max_bytes']})")
    return 0
