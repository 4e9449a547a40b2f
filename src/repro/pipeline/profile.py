"""Profile-guided register allocation (the paper's stated future work).

The paper closes its Table 1 analysis with: "we lack information on the
execution frequencies at different levels of the call graph.  Knowledge
of such profile data can enable the register allocator to distribute
saves/restores more optimally ...  The feedback of profile data to the
register allocator is a capability that we plan to add in the future."

This module adds it: a profiling run counts basic-block executions, and
the counts replace the static ``10^loop-depth`` weights in the priority
function and in the shrink-wrap APP weighting, via
``CompilerOptions.block_weights``.  The run is one run of the trace
translator, which counts blocks inside translated code as pixie did
(:func:`repro.sim.jit.run_profiling`); the interpreter's
``block_counts``/``call_args`` hooks collect the identical profile and
serve as its test oracle.

The counts are carried in a :class:`BlockProfile` -- a plain-``dict``
subclass (so it drops into ``block_weights`` unchanged) that also
records the constant call arguments the profiling run observed (the
tier-3 JIT's specialization data source) and exposes a stable content
digest, which keys tier-3 translations and lets tests reference a
profile deterministically.  Profiling a program also *attaches* the profile to
its executable, which is what feeds ``sim_tier="auto"`` runs of that
executable's translator with it.

Usage::

    profile = collect_block_profile(sources, options)
    tuned = options.with_(block_weights=profile)
    prog = compile_program(sources, tuned)
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.pipeline.driver import CompiledProgram, compile_program, Source
from repro.pipeline.linker import Executable
from repro.pipeline.options import CompilerOptions, O2
# The profiling run is bound to the module-level name ``run_program`` and
# called exactly once per profile, so a harness can wrap this one name to
# time the run or keep its RunStats (perfbench's pgo-sim and its tracer
# do both).
from repro.sim.jit import run_profiling as run_program


class BlockProfile(dict):
    """``function -> {block name -> execution count}``, plus observed
    constant call arguments, behind a stable content digest.

    Subclasses ``dict`` so every existing ``block_weights`` consumer
    (options validation, fingerprints, the allocator's priority
    function) takes it unchanged.  ``call_args[fn]`` is a tuple with one
    slot per argument register: the single constant value that register
    held at every observed call of ``fn``, or ``None`` where the values
    varied (or the function was never called).
    """

    def __init__(
        self,
        counts: Union[Dict[str, Dict[str, int]], Sequence] = (),
        call_args: Optional[Dict[str, Tuple[Optional[int], ...]]] = None,
    ):
        super().__init__(counts)
        self.call_args: Dict[str, Tuple[Optional[int], ...]] = {
            fn: tuple(args) for fn, args in (call_args or {}).items()
        }

    def digest(self) -> str:
        """SHA-256 over a canonical serialisation -- equal profiles get
        equal digests regardless of insertion order or process."""
        payload = json.dumps(
            {
                "counts": {
                    fn: dict(sorted(blocks.items()))
                    for fn, blocks in sorted(self.items())
                },
                "call_args": {
                    fn: list(args)
                    for fn, args in sorted(self.call_args.items())
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {
                "counts": {fn: blocks for fn, blocks in self.items()},
                "call_args": {
                    fn: list(args) for fn, args in self.call_args.items()
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BlockProfile":
        data = json.loads(text)
        return cls(
            counts=data.get("counts", {}),
            call_args={
                fn: tuple(args)
                for fn, args in data.get("call_args", {}).items()
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockProfile({dict.__repr__(self)}, "
            f"call_args={self.call_args!r})"
        )


def attach_profile(
    target: Union[CompiledProgram, Executable], profile: BlockProfile
) -> None:
    """Attach ``profile`` to an executable: ``sim_tier="auto"`` runs of
    it then feed it to the trace translator (tier 3), with the
    interpreter as the fallback."""
    exe = getattr(target, "executable", target)
    exe._block_profile = profile  # type: ignore[attr-defined]


def block_profile_of(
    target: Union[CompiledProgram, Executable],
    attach: bool = True,
    **run_kwargs,
) -> BlockProfile:
    """Run ``target`` once on a profiling translation, which counts
    block executions and observes call arguments; returns the
    :class:`BlockProfile`, attached to the executable (see
    :func:`attach_profile`) unless ``attach=False``.

    ``run_kwargs`` (``stack_words``, ``max_cycles``) go to the run.  A
    run that traps raises the interpreter's
    :class:`~repro.ir.arith.MachineTrap` and yields no profile; a
    translation failure raises too, with no fallback to the
    interpreter."""
    exe = getattr(target, "executable", target)
    starts: Dict[int, int] = {}
    where: Dict[int, Tuple[str, str]] = {}
    for label, pc in exe.labels.items():
        if "." not in label:
            continue
        fn, _, block = label.partition(".")
        if fn in exe.func_entries:
            starts[pc] = 0
            where[pc] = (fn, block)
    observed: Dict[int, list] = {}
    run_program(exe, block_counts=starts, call_args=observed, **run_kwargs)
    counts: Dict[str, Dict[str, int]] = {}
    for pc, count in starts.items():
        fn, block = where[pc]
        counts.setdefault(fn, {})[block] = count
    call_args = {
        exe.func_at_pc[pc]: tuple(args)
        for pc, args in observed.items()
        if pc in exe.func_at_pc
    }
    profile = BlockProfile(counts, call_args)
    if attach:
        attach_profile(exe, profile)
    return profile


def collect_block_profile(
    sources: Union[Source, Sequence[Source]],
    options: CompilerOptions = O2,
    **run_kwargs,
) -> BlockProfile:
    """Compile at ``options`` (the training build) and profile one run."""
    return block_profile_of(compile_program(sources, options), **run_kwargs)


def profile_guided_options(
    options: CompilerOptions,
    profile: Dict[str, Dict[str, int]],
) -> CompilerOptions:
    """Attach a collected profile to compiler options."""
    return options.with_(block_weights=profile)
