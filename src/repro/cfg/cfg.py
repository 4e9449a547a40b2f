"""Control-flow graph over IR basic blocks.

The CFG indexes a function's blocks and provides predecessor/successor
maps, reverse postorder, and the exit set.  Dominators and natural loops
live in sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import BasicBlock, IRFunction
from repro.ir.instructions import Ret


@dataclass
class CFG:
    """Indexed control-flow graph for one IR function.

    Blocks are referred to by dense integer ids (``0`` is the entry),
    which keeps the dataflow bit-vector code simple and fast.
    """

    fn: IRFunction
    blocks: List[BasicBlock] = field(default_factory=list)
    index: Dict[str, int] = field(default_factory=dict)
    succs: List[List[int]] = field(default_factory=list)
    preds: List[List[int]] = field(default_factory=list)
    _rpo: Optional[Tuple[int, ...]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def entry(self) -> int:
        return 0

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def exits(self) -> List[int]:
        """Blocks ending in a return."""
        return [
            i for i, b in enumerate(self.blocks)
            if isinstance(b.terminator, Ret)
        ]

    def reverse_postorder(self) -> Tuple[int, ...]:
        """Block ids in reverse postorder from the entry, computed on
        first use and kept: no pass changes a CFG once it is built."""
        if self._rpo is not None:
            return self._rpo
        seen: Set[int] = set()
        order: List[int] = []
        # iterative DFS to avoid recursion limits on long chains
        stack: List[Tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            node, child = stack[-1]
            succ = self.succs[node]
            if child < len(succ):
                stack[-1] = (node, child + 1)
                nxt = succ[child]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                stack.pop()
                order.append(node)
        order.reverse()
        self._rpo = tuple(order)
        return self._rpo

def build_cfg(fn: IRFunction) -> CFG:
    """Build the CFG of ``fn``.  The function must be verified IR (all
    blocks terminated, all targets defined); unreachable blocks are
    assumed to have been removed."""
    fn.remove_unreachable_blocks()
    cfg = CFG(fn=fn)
    cfg.blocks = list(fn.blocks)
    cfg.index = {b.name: i for i, b in enumerate(cfg.blocks)}
    n = len(cfg.blocks)
    cfg.succs = [[] for _ in range(n)]
    cfg.preds = [[] for _ in range(n)]
    for i, block in enumerate(cfg.blocks):
        for target in block.successors():
            j = cfg.index[target]
            cfg.succs[i].append(j)
            cfg.preds[j].append(i)
    return cfg
