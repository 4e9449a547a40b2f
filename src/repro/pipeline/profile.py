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
``block_counts`` hook collects the identical profile and serves as its
test oracle.

The counts are carried in a :class:`BlockProfile` -- a plain-``dict``
subclass (so it drops into ``block_weights`` unchanged) that exposes a
stable content digest, which keys tier-3 translations and lets tests
reference a profile deterministically.  Profiling a program also
*attaches* the profile to its executable, which is what feeds
``sim_tier="auto"`` runs of that executable's translator with it.

Usage::

    profile = collect_block_profile(sources, options)
    tuned = options.with_(block_weights=profile)
    prog = compile_program(sources, tuned)
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Sequence, Tuple, Union

from repro.pipeline.driver import CompiledProgram, compile_program, Source
from repro.pipeline.linker import Executable
from repro.pipeline.options import CompilerOptions, O2
# The profiling run is bound to the module-level name ``run_program`` and
# called exactly once per profile, so a harness can wrap this one name to
# time the run or keep its RunStats (perfbench's pgo-sim and its tracer
# do both).
from repro.sim.jit import run_profiling as run_program


class BlockProfile(dict):
    """``function -> {block name -> execution count}``, behind a stable
    content digest.

    Subclasses ``dict`` so every existing ``block_weights`` consumer
    (options validation, fingerprints, the allocator's priority
    function) takes it unchanged.
    """

    def digest(self) -> str:
        """SHA-256 over a canonical serialisation -- equal profiles get
        equal digests regardless of insertion order or process."""
        payload = json.dumps(
            {
                "counts": {
                    fn: dict(sorted(blocks.items()))
                    for fn, blocks in sorted(self.items())
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {"counts": {fn: blocks for fn, blocks in self.items()}},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BlockProfile":
        return cls(json.loads(text).get("counts", {}))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockProfile({dict.__repr__(self)})"


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
    block executions; returns the
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
    run_program(exe, block_counts=starts, **run_kwargs)
    counts: Dict[str, Dict[str, int]] = {}
    for pc, count in starts.items():
        fn, block = where[pc]
        counts.setdefault(fn, {})[block] = count
    profile = BlockProfile(counts)
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
