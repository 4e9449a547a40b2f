"""Call graph construction, open/closed classification, DFS ordering.

Section 3 of the paper: a procedure is *open* when any of its callers has
already been processed (cycles in the call graph, i.e. recursion) or is
unknown (externally visible, called indirectly through a pointer, or the
program's entry point, which the operating system calls).  Everything
else is *closed*.

Processing procedures in depth-first (post-) order of the call graph
guarantees every closed procedure's callees are processed before it.

A procedure's direct callees are scanned from its instructions once and
memoised on the :class:`~repro.ir.function.IRFunction` itself
(:func:`sorted_callees`), the way the engine memoises its content
fingerprint: a function reaches planning only as final IR, so a warm
compile of a cached function scans nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.ir.function import IRFunction, IRModule

_CALLEES_ATTR = "_sorted_callees"


def sorted_callees(fn: IRFunction) -> Tuple[str, ...]:
    """``fn``'s direct callees, sorted (memoised on the object).

    Call it only on final IR -- after optimisation, as planning sees it;
    the memo is never refreshed.
    """
    cached = getattr(fn, _CALLEES_ATTR, None)
    if cached is None:
        cached = tuple(sorted(fn.direct_callees()))
        setattr(fn, _CALLEES_ATTR, cached)
    return cached


@dataclass
class CallGraph:
    """Direct-call graph over an IR module (usually a linked program)."""

    module: IRModule
    edges: Dict[str, Set[str]] = field(default_factory=dict)      # callees
    redges: Dict[str, Set[str]] = field(default_factory=dict)     # callers
    open_procs: Set[str] = field(default_factory=set)
    entry: str = "main"

    def callees(self, name: str) -> Set[str]:
        return self.edges.get(name, set())

    def callers(self, name: str) -> Set[str]:
        return self.redges.get(name, set())

    def is_open(self, name: str) -> bool:
        return name in self.open_procs

    def is_closed(self, name: str) -> bool:
        return name not in self.open_procs


def _tarjan_sccs(nodes: List[str], edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's strongly-connected components, iterative."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in edges and succ not in index:
                    # callee without a body (extern); not part of any SCC
                    continue
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)
    return sccs


def build_call_graph(
    module: IRModule,
    entry: str = "main",
    externally_visible: bool = False,
) -> CallGraph:
    """Build the call graph of ``module`` and classify procedures.

    ``externally_visible`` models separate compilation of a single unit:
    when True, *every* procedure may have unknown callers and is therefore
    open (the paper's -O3 avoids this by linking Ucode before allocation).
    """
    cg = CallGraph(module=module, entry=entry)
    names = list(module.functions)
    for name, fn in module.functions.items():
        callees = sorted_callees(fn)
        cg.edges[name] = set(callees)
        cg.redges.setdefault(name, set())
        for c in callees:
            cg.redges.setdefault(c, set()).add(name)

    if externally_visible:
        cg.open_procs.update(names)
        return cg

    # the entry point is called by the operating system
    if entry in module.functions:
        cg.open_procs.add(entry)
    # address-taken procedures can be called indirectly
    for name in module.address_taken:
        if name in module.functions:
            cg.open_procs.add(name)
    # procedures calling into other modules do not become open, but any
    # procedure in a recursion cycle does (self loops included)
    for scc in _tarjan_sccs(names, cg.edges):
        if len(scc) > 1:
            cg.open_procs.update(s for s in scc if s in module.functions)
        elif scc[0] in cg.edges.get(scc[0], set()):
            cg.open_procs.add(scc[0])
    return cg


def dfs_postorder(cg: CallGraph) -> List[str]:
    """Depth-first postorder over the call graph: every closed procedure
    appears after all of its callees.

    Roots: the entry point first, then any procedures unreachable from it
    (e.g. reachable only through function pointers), in name order for
    determinism.
    """
    module = cg.module
    order: List[str] = []
    visited: Set[str] = set()

    def visit(root: str) -> None:
        if root not in module.functions or root in visited:
            return
        # iterative DFS emitting postorder
        frames: List[tuple] = [(root, iter(sorted(cg.callees(root))))]
        visited.add(root)
        while frames:
            node, it = frames[-1]
            pushed = False
            for succ in it:
                if succ in module.functions and succ not in visited:
                    visited.add(succ)
                    frames.append((succ, iter(sorted(cg.callees(succ)))))
                    pushed = True
                    break
            if not pushed:
                frames.pop()
                order.append(node)

    visit(cg.entry)
    for name in sorted(module.functions):
        visit(name)
    return order
