"""IR containers: basic blocks, functions, modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.ir.instructions import IRInstr, Terminator
from repro.ir.values import VKind, VReg


@dataclass
class BasicBlock:
    """A straight-line run of instructions ended by one terminator."""

    name: str
    instrs: List[IRInstr] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    def successors(self) -> Tuple[str, ...]:
        if self.terminator is None:
            return ()
        return self.terminator.successors()

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<block {self.name} ({len(self.instrs)} instrs)>"


@dataclass
class IRFunction:
    """One procedure in IR form.

    ``blocks`` preserves layout order; the entry block is ``blocks[0]``.
    ``param_vregs`` are the PARAM-kind vregs in declaration order.
    """

    name: str
    params: List[str]
    blocks: List[BasicBlock] = field(default_factory=list)
    local_arrays: Dict[str, int] = field(default_factory=dict)
    #: every vreg referenced by the function (filled by the builder)
    vregs: Set[VReg] = field(default_factory=set)

    _by_name: Dict[str, BasicBlock] = field(default_factory=dict, repr=False)

    def __getstate__(self):
        # _by_name holds only derived references into ``blocks``; drop it
        # from pickles (artifact-store payloads) and rebuild on load.
        state = dict(self.__dict__)
        state.pop("_by_name", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._by_name = {b.name: b for b in self.blocks}

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.name in self._by_name:
            raise ValueError(f"duplicate block name {block.name!r}")
        self.blocks.append(block)
        self._by_name[block.name] = block
        return block

    def block(self, name: str) -> BasicBlock:
        return self._by_name[name]

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    @property
    def param_vregs(self) -> List[VReg]:
        by_index = {
            v.index: v for v in self.vregs if v.kind is VKind.PARAM
        }
        return [by_index[i] for i in sorted(by_index)]

    def instructions(self) -> Iterator[IRInstr]:
        for block in self.blocks:
            yield from block.instrs

    def collect_vregs(self) -> Set[VReg]:
        """Recompute the vreg set from the instruction stream."""
        found: Set[VReg] = set()
        for block in self.blocks:
            for ins in block.instrs:
                found.update(ins.use_vregs())
                found.update(ins.defs())
            if block.terminator is not None:
                found.update(block.terminator.use_vregs())
        self.vregs = found
        return found

    def direct_callees(self) -> Set[str]:
        from repro.ir.instructions import Call

        return {
            ins.func for ins in self.instructions() if isinstance(ins, Call)
        }

    def has_calls(self) -> bool:
        return any(ins.is_call for ins in self.instructions())

    def remove_unreachable_blocks(self) -> None:
        """Drop blocks not reachable from the entry."""
        reachable: Set[str] = set()
        work = [self.entry.name]
        while work:
            name = work.pop()
            if name in reachable:
                continue
            reachable.add(name)
            work.extend(self._by_name[name].successors())
        self.blocks = [b for b in self.blocks if b.name in reachable]
        self._by_name = {b.name: b for b in self.blocks}


@dataclass
class IRModule:
    """One compilation unit in IR form."""

    name: str
    functions: Dict[str, IRFunction] = field(default_factory=dict)
    globals: Dict[str, int] = field(default_factory=dict)       # name -> init
    arrays: Dict[str, int] = field(default_factory=dict)        # name -> size
    externs: Dict[str, int] = field(default_factory=dict)       # name -> arity
    address_taken: Set[str] = field(default_factory=set)

    def add_function(self, fn: IRFunction) -> None:
        self.functions[fn.name] = fn

