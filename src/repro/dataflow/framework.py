"""A small generic iterative dataflow framework.

Problems are described by direction, meet, transfer and boundary values.
Values may be any lattice elements with equality; liveness and the
shrink-wrap ANT/AV problems both use int bitmasks.

The solver is a classic worklist algorithm: blocks are seeded in reverse
postorder (forward problems) or its reverse (backward problems) and a
block is re-evaluated only when the value feeding it changed.  On an
acyclic graph every transfer function runs exactly once; with loops the
work is O(edges * lattice height) rather than O(passes * blocks) of a
full-sweep round-robin solver.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generic, List, Tuple, TypeVar

from repro.cfg.cfg import CFG

T = TypeVar("T")


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Raised instead of looping forever when a fixed point is not reached
    -- for the dataflow solver that means a non-monotone problem
    specification, for shrink-wrapping a range extension that keeps
    oscillating.  The message carries the solver name, the budget spent
    and any extra diagnostic so the failure is actionable rather than a
    silent hang.
    """

    def __init__(self, solver: str, iterations: int, detail: str = ""):
        self.solver = solver
        self.iterations = iterations
        self.detail = detail
        message = (
            f"{solver} failed to converge after {iterations} iterations"
        )
        if detail:
            message += f" ({detail})"
        super().__init__(message)


@dataclass
class DataflowProblem(Generic[T]):
    """Specification of an iterative dataflow problem.

    ``transfer(block_id, in_value) -> out_value`` must be monotone.
    ``meet`` combines edge values; ``top`` is the initial optimistic value
    and ``boundary`` the value at the entry (forward) or exits (backward).
    """

    forward: bool
    top: T
    boundary: T
    meet: Callable[[T, T], T]
    transfer: Callable[[int, T], T]


def solve(cfg: CFG, problem: DataflowProblem[T]) -> Tuple[List[T], List[T]]:
    """Solve to fixed point; returns (in_values, out_values) per block.

    For backward problems the "in" of a block is its value at block entry
    and "out" at block exit, same as forward -- only the propagation
    direction differs.

    Blocks unreachable from the entry are not visited and keep ``top`` on
    both sides.
    """
    n = cfg.num_blocks
    top = problem.top
    meet = problem.meet
    transfer = problem.transfer
    in_vals: List[T] = [top] * n
    out_vals: List[T] = [top] * n

    rpo = cfg.reverse_postorder()
    order = rpo if problem.forward else list(reversed(rpo))
    known = set(order)
    exits = set(cfg.exits())

    work = deque(order)
    on_list = [False] * n
    for b in order:
        on_list[b] = True

    # Monotone transfers over a finite lattice terminate; the cap only
    # guards against a non-monotone problem specification.
    budget = (4 * n + 8) * max(n, 1) + len(order)
    spent = budget

    if problem.forward:
        preds, succs = cfg.preds, cfg.succs
        entry = cfg.entry
        while work:
            budget -= 1
            if budget < 0:  # pragma: no cover - safety net
                raise ConvergenceError(
                    "dataflow (forward)", spent,
                    f"{n} blocks; non-monotone transfer?",
                )
            b = work.popleft()
            on_list[b] = False
            if b == entry:
                new_in = problem.boundary
            else:
                new_in = top
                for p in preds[b]:
                    new_in = meet(new_in, out_vals[p])
            new_out = transfer(b, new_in)
            in_vals[b] = new_in
            if new_out != out_vals[b]:
                out_vals[b] = new_out
                for s in succs[b]:
                    if not on_list[s] and s in known:
                        on_list[s] = True
                        work.append(s)
    else:
        preds, succs = cfg.preds, cfg.succs
        while work:
            budget -= 1
            if budget < 0:  # pragma: no cover - safety net
                raise ConvergenceError(
                    "dataflow (backward)", spent,
                    f"{n} blocks; non-monotone transfer?",
                )
            b = work.popleft()
            on_list[b] = False
            if b in exits and not succs[b]:
                new_out = problem.boundary
            else:
                new_out = top
                for s in succs[b]:
                    new_out = meet(new_out, in_vals[s])
                if b in exits:
                    new_out = meet(new_out, problem.boundary)
            new_in = transfer(b, new_out)
            out_vals[b] = new_out
            if new_in != in_vals[b]:
                in_vals[b] = new_in
                for p in preds[b]:
                    if not on_list[p] and p in known:
                        on_list[p] = True
                        work.append(p)
    return in_vals, out_vals
