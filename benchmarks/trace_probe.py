"""What one cold pass of the suite costs the tier-2 trace translator.

Each of the 13 programs x 6 paper configs gets a fresh
``Compiler(options)`` and one run on the translator without a profile
(``sim_tier="jit"``), as a ``suite-cold`` cell does.
Printed for the pass:

- transitions: trace-function calls made by the run loop of
  ``JitProgram._execute`` (counted with ``sys.setprofile``)
- traces: traces translated (``jit3_stats["traces"]``)
- source: bytes and lines of the Python source handed to ``compile()``
- compile_s: seconds spent in ``compile()``

``--hash`` also runs ``block_profile_of`` and ``sim_tier="jit3"`` per
cell and prints sha256 digests, each over its items followed by a NUL
byte: per translation kind (``jit`` for tier 2, ``profiling`` for the
profiling translation, a ``JitProgram`` given ``block_counts``, and
``jit3`` for tier 3, a ``Jit3Program``), every source passed to
``JitProgram._exec`` in call order; and ``AsmFunction.render()`` of
every ``generate_function`` result.  It also prints the transitions
each kind's runs make.

    PYTHONPATH=src python benchmarks/trace_probe.py [--hash]
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import time

from repro import Compiler, PAPER_CONFIGS
from repro.benchsuite.registry import load_benchmarks
from repro.engine import core
from repro.pipeline.profile import block_profile_of
from repro.sim.jit import Jit3Program, JitProgram

CONFIGS = ("base", "A", "B", "C", "D", "E")

#: translation kind names, in print order
KINDS = ("jit", "profiling", "jit3")


def kind_of(prog: JitProgram) -> str:
    """The translation kind of ``prog``."""
    if isinstance(prog, Jit3Program):
        return "jit3"
    return "jit" if prog._block_counts is None else "profiling"


class Probe:
    """Wraps the translator's hooks and accumulates their counts."""

    def __init__(self):
        self.transitions = 0
        self.bytes = self.lines = 0
        self.compile_s = 0.0
        self.kind_transitions = dict.fromkeys(KINDS, 0)
        self.sources = {kind: hashlib.sha256() for kind in KINDS}
        self.nsources = dict.fromkeys(KINDS, 0)
        self.listings = hashlib.sha256()
        self.nlistings = 0

    def _item(self, digest, text: str) -> None:
        digest.update(text.encode("utf-8") + b"\0")

    def _source(self, prog, source: str) -> None:
        kind = kind_of(prog)
        self._item(self.sources[kind], source)
        self.nsources[kind] += 1

    def install(self) -> None:
        probe = self

        def _exec(self, source):
            probe._source(self, source)
            probe.bytes += len(source.encode("utf-8"))
            probe.lines += source.count("\n")
            t0 = time.perf_counter()
            code = compile(source, f"<jit:{id(self.exe):#x}>", "exec")
            probe.compile_s += time.perf_counter() - t0
            exec(code, self.ns)

        execute = JitProgram._execute
        loop = execute.__code__
        jump = JitProgram._jump.__code__

        def count(frame, event, arg):
            # a Python call made by the run loop itself is a transition
            if (event == "call" and frame.f_back.f_code is loop
                    and frame.f_code is not jump):
                probe.transitions += 1

        def _execute(self):
            before = probe.transitions
            sys.setprofile(count)
            try:
                return execute(self)
            finally:
                sys.setprofile(None)
                probe.kind_transitions[kind_of(self)] += (
                    probe.transitions - before
                )

        generate = core.generate_function

        def generate_function(plan, arrays):
            asm = generate(plan, arrays)
            probe._item(probe.listings, asm.render())
            probe.nlistings += 1
            return asm

        JitProgram._exec = _exec
        JitProgram._execute = _execute
        core.generate_function = generate_function


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hash", action="store_true",
                    help="also profile and run tier 3; print digests")
    args = ap.parse_args()
    probe = Probe()
    probe.install()
    benches = load_benchmarks()
    transitions = traces = 0
    for name in benches:
        for config in CONFIGS:
            compiler = Compiler(PAPER_CONFIGS[config])
            built = compiler.add_source(("main", benches[name].source))
            built = built.compile()
            before = probe.transitions
            built.run(sim_tier="jit")
            prog = next(
                p for k, p in built.executable._jit_cache.items()
                if k[0] == "jit"
            )
            if probe.transitions == before:
                raise SystemExit(
                    "no transitions counted: JitProgram._execute no "
                    "longer calls the trace functions itself"
                )
            transitions += probe.transitions - before
            traces += prog.jit3_stats["traces"]
            if args.hash:
                block_profile_of(built)
                built.run(sim_tier="jit3")
    print(f"transitions {transitions:,}")
    print(f"traces {traces:,}")
    if not args.hash:
        print(f"source {probe.bytes:,} B, {probe.lines:,} lines")
        print(f"compile_s {probe.compile_s:.2f}")
    else:
        for kind, digest in probe.sources.items():
            print(f"{kind} transitions {probe.kind_transitions[kind]:,}"
                  f" sources {probe.nsources[kind]:,} {digest.hexdigest()}")
        print(f"listings {probe.nlistings:,} {probe.listings.hexdigest()}")


if __name__ == "__main__":
    main()
