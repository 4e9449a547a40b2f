"""IR operand values.

Three operand kinds exist:

* :class:`Const` -- an integer constant;
* :class:`VReg` -- a virtual register: a named program variable (local,
  parameter or global scalar) or a compiler temporary.  VRegs are the
  register-allocation candidates;
* array symbols appear by name inside the indexed load/store instructions
  and are never allocation candidates.

Globals are VRegs too: the paper allocates global scalars to registers
*within* the procedures that use them, and representing them uniformly
lets the allocator consider them as candidates where that is sound
(call-free procedures -- see ``repro.regalloc``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


class VKind(enum.Enum):
    TEMP = "temp"
    LOCAL = "local"
    PARAM = "param"
    GLOBAL = "global"


@dataclass(frozen=True)
class VReg:
    """A virtual register / register-allocation candidate.

    The hash is computed once, at construction: every set and dict of the
    optimizer and allocator hashes vregs, and the generated dataclass hash
    would rebuild a tuple holding an ``Enum`` each time.  The value equals
    that generated hash.  String hashes differ between processes, so
    pickles carry only the fields and the hash is recomputed on load.
    """

    name: str
    kind: VKind
    #: parameter position for PARAM vregs, 0 otherwise
    index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.name, self.kind, self.index))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (VReg, (self.name, self.kind, self.index))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    @property
    def is_temp(self) -> bool:
        return self.kind is VKind.TEMP

    @property
    def is_global(self) -> bool:
        return self.kind is VKind.GLOBAL

    @property
    def is_param(self) -> bool:
        return self.kind is VKind.PARAM


@dataclass(frozen=True)
class Const:
    value: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return str(self.value)


Value = Union[VReg, Const]

