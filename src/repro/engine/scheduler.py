"""Level-parallel planning schedule over the call graph.

The paper's one-pass allocator walks procedures bottom-up so every
closed callee is summarised before its callers.  That dependency order
is a partial order, not a total one: two procedures whose subtrees do
not overlap can be planned simultaneously.  The schedule condenses the
call graph into SCCs (recursion cycles collapse to one node) and assigns
each SCC the level ``1 + max(level of callee SCCs)``; all procedures of
one level are independent and run concurrently on a thread pool.

Planning is pure Python, so threads buy little on a GIL build -- the
schedule exists because the paper's framework permits it and because it
documents the dependency structure; ``max_workers <= 1`` runs inline.

A task's exception propagates to the caller.  Planning is deterministic,
so re-running a task that raised would raise again; the failure belongs
to the engine's demotion ladder (a resilient session) or to the compile
service's retry policy, breaker and deadlines.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Sequence, TypeVar

from repro.interproc.callgraph import CallGraph, _tarjan_sccs

T = TypeVar("T")


def default_workers() -> int:
    return max(1, min(8, (os.cpu_count() or 2) - 1))


def scc_levels(order: Sequence[str], cg: CallGraph) -> List[List[str]]:
    """Group ``order`` (a dfs postorder) into dependency levels.

    Returns levels bottom-up; every callee of a procedure in level *k*
    sits in a level < *k* or in the same SCC.  Procedures within one
    level keep their relative postorder position so sequential fallbacks
    and result assembly stay deterministic.
    """
    nodes = list(order)
    in_order = set(nodes)
    edges = {n: {c for c in cg.callees(n) if c in in_order} for n in nodes}
    sccs = _tarjan_sccs(nodes, edges)
    scc_of: Dict[str, int] = {}
    for i, scc in enumerate(sccs):
        for name in scc:
            scc_of[name] = i
    level_of: Dict[int, int] = {}
    for i, scc in enumerate(sccs):        # dependencies-first emission
        lvl = 0
        for name in scc:
            for callee in edges[name]:
                j = scc_of[callee]
                if j != i:
                    lvl = max(lvl, level_of[j] + 1)
        level_of[i] = lvl
    pos = {name: k for k, name in enumerate(nodes)}
    levels: List[List[str]] = [[] for _ in range(max(level_of.values()) + 1)] \
        if level_of else []
    for i, scc in enumerate(sccs):
        levels[level_of[i]].extend(scc)
    for level in levels:
        level.sort(key=pos.__getitem__)
    return levels


def run_levels(
    levels: Sequence[Sequence[str]],
    task: Callable[[str], T],
    max_workers: int,
) -> Dict[str, T]:
    """Run ``task`` for every name, level by level, parallel within a
    level; the first failing task's exception propagates."""
    results: Dict[str, T] = {}
    if max_workers <= 1:
        for level in levels:
            for name in level:
                results[name] = task(name)
        return results

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        for level in levels:
            if len(level) == 1:
                results[level[0]] = task(level[0])
                continue
            futures = {name: pool.submit(task, name) for name in level}
            for name in level:
                results[name] = futures[name].result()
    return results
