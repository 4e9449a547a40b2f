"""Execution statistics -- our equivalent of the paper's ``pixie`` data.

The paper reports architectural quantities: executed cycles and the
dynamic count of *scalar* loads/stores (traffic attributable to scalar
variables, temporaries, and register saves/restores -- everything a
perfect register allocator could remove).  Array traffic is *data* and
not removable.  Both are exact counts from the interpreter, independent
of cache or clock, exactly as pixie measured them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.target.isa import MemKind


@dataclass
class RunStats:
    cycles: int = 0
    instructions: int = 0
    calls: int = 0
    branches: int = 0
    loads: Counter = field(default_factory=Counter)    # MemKind -> count
    stores: Counter = field(default_factory=Counter)
    output: List[int] = field(default_factory=list)
    #: set when an "auto"-tier run fell back from the trace translator to
    #: the interpreter (the repr of the translation failure); excluded
    #: from equality because the measurement itself is tier-independent
    sim_fallback: Optional[str] = field(default=None, compare=False)
    #: the trace translator's decisions (inlined calls, linked loops and
    #: returns, bailout reasons, elided host register syncs), counted over the traces translated so far:
    #: traces are translated on first entry, so code no run has reached
    #: contributes nothing; set by runs on the ``jit`` and ``jit3``
    #: tiers, ``None`` on the interpreter and on profiling runs, and
    #: excluded from equality for the same reason as ``sim_fallback``
    jit3: Optional[Dict[str, object]] = field(default=None, compare=False)

    @property
    def scalar_loads(self) -> int:
        return sum(
            n for kind, n in self.loads.items() if kind.is_scalar_class
        )

    @property
    def scalar_stores(self) -> int:
        return sum(
            n for kind, n in self.stores.items() if kind.is_scalar_class
        )

    @property
    def scalar_memops(self) -> int:
        return self.scalar_loads + self.scalar_stores

    @property
    def data_memops(self) -> int:
        return (
            self.loads.get(MemKind.DATA, 0) + self.stores.get(MemKind.DATA, 0)
        )

    @property
    def total_memops(self) -> int:
        return sum(self.loads.values()) + sum(self.stores.values())

    @property
    def save_restore_memops(self) -> int:
        return (
            self.loads.get(MemKind.RESTORE, 0)
            + self.stores.get(MemKind.SAVE, 0)
            + self.loads.get(MemKind.SAVE, 0)
            + self.stores.get(MemKind.RESTORE, 0)
        )

    @property
    def cycles_per_call(self) -> float:
        return self.cycles / self.calls if self.calls else float("inf")

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "calls": self.calls,
            "cycles_per_call": round(self.cycles_per_call, 1),
            "scalar_loads": self.scalar_loads,
            "scalar_stores": self.scalar_stores,
            "scalar_memops": self.scalar_memops,
            "data_memops": self.data_memops,
            "save_restore_memops": self.save_restore_memops,
        }


def percent_reduction(base: int, new: int) -> float:
    """The paper's "% reduction" metric: positive is an improvement."""
    if base == 0:
        return 0.0
    return 100.0 * (base - new) / base
