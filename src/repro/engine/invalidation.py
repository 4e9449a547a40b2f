"""Plan keys: what exactly one procedure's allocation depends on.

There is no invalidation walk in the engine -- a cache entry is never
marked stale.  Instead each compile recomputes every procedure's *plan
key*, the complete tuple of inputs :func:`plan_function` consumes, and
looks it up; an edit anywhere that cannot change a procedure's
allocation produces the same key and hits.  The "invalidation cascade"
reported by :class:`~repro.engine.stats.EngineStats` is simply the
number of procedures whose key differs from the previous compile: the
edited procedures plus every ancestor whose view of a callee summary
changed.

The key reproduces the sequential allocator's visibility rule.  In
:func:`~repro.interproc.allocator.plan_program`, the summary of callee
``c`` is visible while planning ``f`` iff ``c`` was planned earlier --
i.e. iff ``pos[c] < pos[f]`` in the depth-first postorder.  Closed
callees always satisfy that (postorder places callees first; recursion
cycles are open), and an open procedure's published summary is exactly
``default_summary``, computable without planning it.  Encoding
``(callee, arity, signature-or-absent)`` per direct callee therefore
captures both the subtree clobber union and every call-site summary
lookup, independent of execution order -- which is what lets a plan
cached by one compile serve any later compile with the same key.
"""

from __future__ import annotations

from typing import Container, Dict, Optional, Set, Tuple

from repro.engine.fingerprint import (
    function_fingerprint,
    summary_signature,
    weights_fingerprint,
)
from repro.interproc.allocator import PlanOptions
from repro.interproc.callgraph import CallGraph, sorted_callees
from repro.interproc.summaries import ProcSummary, default_summary
from repro.ir.function import IRFunction, IRModule

PlanKey = Tuple


def effective_summaries(
    fn: IRFunction,
    module: IRModule,
    cg: Optional[CallGraph],
    pos: Dict[str, int],
    closed_summaries: Dict[str, ProcSummary],
    demoted: Optional[Container[str]] = None,
    convention=None,
) -> Dict[str, ProcSummary]:
    """The summaries ``plan_program`` would have accumulated by the time
    it reaches ``fn``, restricted to ``fn``'s direct callees (the only
    entries :func:`plan_function` ever reads).

    ``demoted`` names procedures a resilient compile has demoted to the
    open convention (see :mod:`repro.engine.resilience`): they publish
    no closed summary, so callers see the default one -- which also
    re-keys every ancestor's plan, keeping demotion out of the clean
    caches.
    """
    eff: Dict[str, ProcSummary] = {}
    if cg is None:
        return eff
    my_pos = pos[fn.name]
    for callee in sorted_callees(fn):
        target = module.functions.get(callee)
        if target is None or pos[callee] >= my_pos:
            continue  # extern, or not yet planned in sequential order
        if cg.is_open(callee) or (demoted is not None and callee in demoted):
            eff[callee] = default_summary(
                callee, len(target.params), convention
            )
        else:
            eff[callee] = closed_summaries[callee]
    return eff


def plan_key(
    fn: IRFunction,
    options: PlanOptions,
    options_fp: Tuple,
    arities: Dict[str, int],
    is_open: bool,
    eff: Dict[str, ProcSummary],
    allowed_globals: Optional[Set[str]],
) -> PlanKey:
    """Complete input tuple of ``plan_function`` for ``fn``.

    The caller computes ``options_fp``, the
    :func:`~repro.engine.fingerprint.plan_options_fingerprint` of
    ``options``, once per planning pass; ``fn``'s sorted direct callees
    come from its memo
    (:func:`~repro.interproc.callgraph.sorted_callees`)."""
    return (
        function_fingerprint(fn),
        is_open,
        options_fp,
        weights_fingerprint(options.block_weights, fn.name),
        tuple(
            (
                callee,
                arities.get(callee, -1),
                summary_signature(eff[callee]) if callee in eff else None,
            )
            for callee in sorted_callees(fn)
        ),
        None if allowed_globals is None else tuple(sorted(allowed_globals)),
    )


def count_changed(
    previous: Optional[Dict[str, PlanKey]], current: Dict[str, PlanKey]
) -> int:
    """Cascade size: procedures whose plan key is new or changed."""
    if previous is None:
        return len(current)
    return sum(1 for name, key in current.items() if previous.get(name) != key)
