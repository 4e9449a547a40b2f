"""What a warm compile allocates, collects and scans.

Each of the 13 programs x {base, C} gets one cold compile on a shared
engine per config, so the 26 images are cached; then ``--rounds``
rounds compile all 26 again, every one a warm hit (cache lookups plus
one link).  Printed:

- blocks/compile: memory blocks a warm compile leaves allocated while
  its result is held (``tracemalloc`` snapshots around each compile of
  one extra round; the linked image's fresh instructions dominate)
- collections: garbage collections per generation over the rounds,
  total and per compile (``gc.callbacks``)
- callee scans/compile: calls of ``IRFunction.direct_callees``
- images: a digest of the 26 ``Executable.fingerprint()`` values; every
  warm image must equal its cold one

    PYTHONPATH=src python benchmarks/warm_probe.py [--rounds N]
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import tracemalloc

from repro import PAPER_CONFIGS
from repro.benchsuite.registry import load_benchmarks
from repro.engine.core import Engine
from repro.ir.function import IRFunction

CONFIGS = ("base", "C")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=5,
                    help="warm rounds over the 26 images (default 5)")
    args = ap.parse_args()

    scans = 0
    direct_callees = IRFunction.direct_callees

    def counting(self):
        nonlocal scans
        scans += 1
        return direct_callees(self)

    IRFunction.direct_callees = counting

    sources = [b.source for b in load_benchmarks().values()]
    engines = [Engine(PAPER_CONFIGS[c]) for c in CONFIGS]
    cells = [(e, s) for e in engines for s in sources]
    cold = [e.compile(s).executable.fingerprint() for e, s in cells]

    def warm_round():
        for (engine, source), fp in zip(cells, cold):
            if engine.compile(source).executable.fingerprint() != fp:
                raise SystemExit("a warm image differs from its cold one")

    collections = [0, 0, 0]

    def on_gc(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    scans = 0
    gc.callbacks.append(on_gc)
    try:
        for _ in range(args.rounds):
            warm_round()
    finally:
        gc.callbacks.remove(on_gc)
    compiles = args.rounds * len(cells)
    warm_scans = scans

    blocks = 0
    tracemalloc.start()
    try:
        for engine, source in cells:
            before = len(tracemalloc.take_snapshot().traces)
            result = engine.compile(source)
            blocks += len(tracemalloc.take_snapshot().traces) - before
            del result
    finally:
        tracemalloc.stop()

    digest = hashlib.sha256("\n".join(cold).encode("ascii")).hexdigest()
    print(f"warm compiles {compiles:,} ({args.rounds} rounds x "
          f"{len(cells)} images)")
    print(f"blocks/compile {blocks / len(cells):,.0f}")
    print("collections " + " ".join(
        f"gen{g} {n:,} ({n / compiles:.3f}/compile)"
        for g, n in enumerate(collections)
    ))
    print(f"callee scans/compile {warm_scans / compiles:.2f}")
    print(f"images {len(cold)} {digest}")


if __name__ == "__main__":
    main()
