"""Per-layer spans recorded from the benchmark's own files.

The tracer replaces the names the engine and the simulator look up --
module globals such as ``repro.engine.core.plan_function`` and methods
such as ``JitProgram.run`` -- with thin wrappers, for the duration of a
``with tracer.installed():`` block.  ``src/`` is not edited.

Each span measures the calling thread's CPU time (``time.thread_time``).
The service workload runs the engine on an executor thread while the
event loop keeps admitting requests on the main thread; wall-clock
spans would charge the loop's work to whichever engine layer held the
interpreter lock, CPU-time spans charge it to nobody.  A layer's self
time is its span minus the spans opened beneath it on the same thread.
A call into a layer that is already the innermost open span (such as
``Jit3Program.__init__`` reaching ``JitProgram.__init__`` through
``super()``, or ``compile_batch`` falling back to ``compile``) belongs
to that span and opens no new one.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: every span layer; each reports its self time as ``<layer>_ms``
SPAN_LAYERS = (
    "frontend.parse",
    "frontend.analyze",
    "ir.lower",
    "ir.optimize",
    "ir.verify",
    "interproc.plan",
    "target.codegen",
    "pipeline.link",
    "engine.self",
    "sim.jit_translate",
    "sim.jit_exec",
    "sim.interp",
    "sim.jit3_translate",
    "sim.jit3_exec",
    "store.get",
    "store.put",
)


class Tracer:
    """Self time, call counts and simulated cycles per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.cycles: Dict[str, int] = defaultdict(int)
        self.jit3_inlined = 0
        self.jit3_bailouts = 0
        #: (wall start, wall end, request count) per compile_batch call
        self.batches: List[Tuple[float, float, int]] = []
        self.on = False
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, layer: Callable[[tuple], str], fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            name = layer(args)
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.thread_time() - t0
                stack.pop()
                tracer.self_s[name] += spent - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += spent
            tracer._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, result) -> None:
        if name in ("sim.jit_exec", "sim.interp", "sim.jit3_exec"):
            self.cycles[name] += result.cycles
        if name == "sim.jit3_exec":
            self.jit3_inlined += result.jit3["inlined_calls"]
            self.jit3_bailouts += sum(result.jit3["bailouts"].values())

    def wrap_batch(self, fn: Callable) -> Callable:
        """Wall-clock record of each ``Engine.compile_batch`` call (the
        service's batches), outside the engine span."""
        tracer = self

        def batch(engine, requests, *args, **kwargs):
            if not tracer.on:
                return fn(engine, requests, *args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(engine, requests, *args, **kwargs)
            finally:
                tracer.batches.append(
                    (t0, time.perf_counter(), len(requests))
                )

        batch.__wrapped__ = fn
        return batch

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name; restore the originals on exit."""
        from repro.engine import core, frontend
        from repro.engine.core import Engine
        from repro.pipeline import profile
        from repro.sim import jit
        from repro.sim.jit import Jit3Program, JitProgram
        from repro.store.store import ArtifactStore

        def fixed(name):
            return lambda args: name

        def by_tier(tier3, tier2):
            return lambda args: (
                tier3 if isinstance(args[0], Jit3Program) else tier2
            )

        targets = [
            (frontend, "parse", fixed("frontend.parse")),
            (frontend, "analyze", fixed("frontend.analyze")),
            (frontend, "lower_module", fixed("ir.lower")),
            (frontend, "optimize_function", fixed("ir.optimize")),
            (frontend, "verify_module", fixed("ir.verify")),
            (core, "plan_function", fixed("interproc.plan")),
            (core, "generate_function", fixed("target.codegen")),
            (core, "link_ir_modules", fixed("pipeline.link")),
            (core, "link_executable", fixed("pipeline.link")),
            (Engine, "compile", fixed("engine.self")),
            (Engine, "compile_batch", fixed("engine.self")),
            (JitProgram, "__init__",
             by_tier("sim.jit3_translate", "sim.jit_translate")),
            (JitProgram, "run", by_tier("sim.jit3_exec", "sim.jit_exec")),
            (Jit3Program, "__init__", fixed("sim.jit3_translate")),
            (Jit3Program, "run", fixed("sim.jit3_exec")),
            (jit, "run_program", fixed("sim.interp")),
            (profile, "run_program", fixed("sim.interp")),
            (ArtifactStore, "get", fixed("store.get")),
            (ArtifactStore, "put", fixed("store.put")),
        ]
        saved = []
        try:
            for owner, attr, layer in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original))
            saved.append((Engine, "compile_batch", Engine.compile_batch))
            Engine.compile_batch = self.wrap_batch(Engine.compile_batch)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def recording(self):
        self.on = True
        try:
            yield self
        finally:
            self.on = False

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
