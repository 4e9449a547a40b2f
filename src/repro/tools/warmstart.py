"""Warm-start acceptance check: two processes, one artifact store.

Process A compiles the benchmark suite against an empty store; a
*fresh* process B (no in-memory caches, only the disk store) compiles
the same suite and must

* hit the store at a configurable rate (default >= 80% of lookups), and
* produce **bit-identical** executables to process A's, per benchmark
  and per paper configuration.

Both phases really are separate OS processes (``subprocess`` children of
the orchestrator), so nothing can leak between them except the store
directory.  CI runs this as a gate::

    PYTHONPATH=src python -m repro.tools.warmstart --configs base C E

The child protocol (``--phase child``) prints one JSON object:
``{"digests": {"bench:config": sha256}, "seconds": wall-clock compile
seconds, "store": counters, "stages": per-stage hit/miss totals}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.benchsuite.registry import load_benchmarks
from repro.engine.core import Engine
from repro.pipeline.options import PAPER_CONFIGS


def executable_digest(exe) -> str:
    """Content hash of a linked executable image (bit-identity checks)."""
    parts = [repr(i) for i in exe.instrs]
    parts.append(str(exe.entry_pc))
    parts.append(repr(sorted(exe.func_entries.items())))
    parts.append(repr(sorted(exe.data_init.items())))
    parts.append(repr(sorted(exe.preserved_masks.items())))
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def compile_suite(
    store_path: Optional[str],
    configs: List[str],
    names: Optional[List[str]] = None,
) -> Dict:
    """Compile every (benchmark, config) pair in this process; returns
    the child-protocol report."""
    benches = load_benchmarks()
    selected = list(names) if names else list(benches)
    digests: Dict[str, str] = {}
    stages: Dict[str, Dict[str, int]] = {}
    store_counters: Optional[Dict] = None
    seconds = 0.0
    for config in configs:
        engine = Engine(PAPER_CONFIGS[config], store_path=store_path)
        for name in selected:
            source = benches[name].source
            t0 = time.perf_counter()
            built = engine.compile(source)
            seconds += time.perf_counter() - t0
            digests[f"{name}:{config}"] = executable_digest(
                built.executable
            )
        for stage, st in engine.stats.stage_totals().items():
            agg = stages.setdefault(stage, {"hits": 0, "misses": 0})
            agg["hits"] += st.hits
            agg["misses"] += st.misses
        if engine.store is not None:
            if store_counters is None:
                store_counters = engine.store.stats.to_dict()
            else:
                for k, v in engine.store.stats.to_dict().items():
                    store_counters[k] += v
    return {
        "digests": digests,
        "seconds": round(seconds, 6),
        "store": store_counters,
        "stages": stages,
    }


def _spawn_child(store: Optional[str], configs: List[str],
                 names: Optional[List[str]]) -> Dict:
    """Run :func:`compile_suite` in a genuinely fresh OS process.

    ``store=None`` compiles storeless (the fully-cold reference the
    speed benchmark compares against).
    """
    cmd = [
        sys.executable, "-m", "repro.tools.warmstart",
        "--phase", "child", "--configs", *configs,
    ]
    if store:
        cmd += ["--store", store]
    if names:
        cmd += ["--names", *names]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))] +
        env.get("PYTHONPATH", "").split(os.pathsep) if p
    )
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"warmstart child failed ({proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def run_warmstart(
    configs: List[str],
    names: Optional[List[str]] = None,
    min_hit_rate: float = 0.8,
    store_dir: Optional[str] = None,
    verbose: bool = True,
) -> List[str]:
    """Run the A/B warm-start check; returns violation messages."""
    violations: List[str] = []
    ctx = (
        tempfile.TemporaryDirectory(prefix="repro-warmstart-")
        if store_dir is None else None
    )
    store = store_dir if store_dir is not None else ctx.name
    try:
        a = _spawn_child(store, configs, names)
        b = _spawn_child(store, configs, names)
    finally:
        if ctx is not None:
            ctx.cleanup()

    if a["digests"] != b["digests"]:
        diff = [
            k for k in a["digests"]
            if a["digests"].get(k) != b["digests"].get(k)
        ]
        violations.append(
            f"warm-started builds differ from process A's for {diff}"
        )
    st = b["store"] or {"hits": 0, "misses": 0}
    lookups = st["hits"] + st["misses"]
    rate = st["hits"] / lookups if lookups else 0.0
    if rate < min_hit_rate:
        violations.append(
            f"process B store hit rate {rate:.1%} below the "
            f"{min_hit_rate:.0%} floor ({st['hits']}/{lookups})"
        )
    if st.get("corruptions"):
        violations.append(
            f"process B detected {st['corruptions']} corrupt entries in "
            "a store process A just wrote"
        )
    if verbose:
        print(
            f"A: {len(a['digests'])} builds in {a['seconds']:.2f}s  "
            f"B: {b['seconds']:.2f}s  hit-rate={rate:.1%}  "
            f"identical={a['digests'] == b['digests']}"
        )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="two-process warm-start identity and hit-rate gate"
    )
    parser.add_argument("--phase", choices=["drive", "child"],
                        default="drive")
    parser.add_argument("--store", default=None,
                        help="store directory (default: a temp dir)")
    parser.add_argument("--configs", nargs="+", default=["C"],
                        choices=sorted(PAPER_CONFIGS))
    parser.add_argument("--names", nargs="*", default=None)
    parser.add_argument("--min-hit-rate", type=float, default=0.8)
    args = parser.parse_args(argv)

    if args.phase == "child":
        report = compile_suite(args.store, args.configs, args.names)
        json.dump(report, sys.stdout)
        return 0

    violations = run_warmstart(
        args.configs, args.names, args.min_hit_rate, args.store
    )
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
