"""Local IR optimisations.

The paper's Uopt performs global optimisation before register allocation;
we reproduce the parts that matter for the register-allocation study:
constant folding, block-local copy propagation, dead-code elimination and
CFG simplification.  These passes shrink the temp population so that the
allocator's candidates resemble Uopt's (variables plus a modest number of
expression temporaries).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir import arith
from repro.ir.function import BasicBlock, IRFunction
from repro.ir.instructions import (
    Bin,
    Call,
    CallInd,
    CJump,
    IRInstr,
    Jump,
    LoadFunc,
    LoadIdx,
    Mov,
    Print,
    Ret,
    StoreIdx,
    Un,
)
from repro.ir.values import Const, Value, VKind, VReg


def _fold_instr(ins: IRInstr) -> Optional[IRInstr]:
    """Return a simplified replacement for ``ins``, or None to keep it."""
    if isinstance(ins, Bin):
        a, b = ins.a, ins.b
        if isinstance(a, Const) and isinstance(b, Const):
            if ins.op in ("/", "%") and b.value == 0:
                return None  # preserve the trap
            if ins.op in ("<<", ">>") and not 0 <= b.value <= 63:
                return None  # preserve the trap
            value = arith.BINOPS[ins.op](a.value, b.value)
            return Mov(ins.dst, Const(value))
        # algebraic identities
        if ins.op == "+":
            if isinstance(b, Const) and b.value == 0:
                return Mov(ins.dst, a)
            if isinstance(a, Const) and a.value == 0:
                return Mov(ins.dst, b)
        elif ins.op == "-":
            if isinstance(b, Const) and b.value == 0:
                return Mov(ins.dst, a)
        elif ins.op == "*":
            for x, y in ((a, b), (b, a)):
                if isinstance(y, Const) and y.value == 1:
                    return Mov(ins.dst, x)
                if isinstance(y, Const) and y.value == 0:
                    return Mov(ins.dst, Const(0))
        elif ins.op == "/":
            if isinstance(b, Const) and b.value == 1:
                return Mov(ins.dst, a)
        return None
    if isinstance(ins, Un):
        if isinstance(ins.a, Const):
            return Mov(ins.dst, Const(arith.UNOPS[ins.op](ins.a.value)))
    return None


def fold_constants(fn: IRFunction) -> int:
    """Constant-fold; returns the number of instructions rewritten."""
    changed = 0
    for block in fn.blocks:
        for i, ins in enumerate(block.instrs):
            replacement = _fold_instr(ins)
            if replacement is not None:
                block.instrs[i] = replacement
                changed += 1
    return changed


def _subst(mapping: Dict[VReg, Value], v: Value) -> Value:
    if isinstance(v, VReg):
        return mapping.get(v, v)
    return v


def copy_propagate(fn: IRFunction) -> int:
    """Block-local copy/constant propagation.

    ``x = y`` makes later uses of ``x`` read ``y`` until either is
    redefined.  Globals are never propagated across calls: a callee may
    read or write them through memory.
    """
    changed = 0
    for block in fn.blocks:
        avail: Dict[VReg, Value] = {}

        def kill(v: VReg) -> None:
            avail.pop(v, None)
            for key in [k for k, val in avail.items() if val == v]:
                del avail[key]

        for ins in block.instrs:
            # rewrite uses first
            if isinstance(ins, Bin):
                na, nb = _subst(avail, ins.a), _subst(avail, ins.b)
                if na != ins.a or nb != ins.b:
                    ins.a, ins.b = na, nb
                    changed += 1
            elif isinstance(ins, Un):
                na = _subst(avail, ins.a)
                if na != ins.a:
                    ins.a = na
                    changed += 1
            elif isinstance(ins, Mov):
                ns = _subst(avail, ins.src)
                if ns != ins.src:
                    ins.src = ns
                    changed += 1
            elif isinstance(ins, LoadIdx):
                ni = _subst(avail, ins.idx)
                if ni != ins.idx:
                    ins.idx = ni
                    changed += 1
            elif isinstance(ins, StoreIdx):
                ni, ns = _subst(avail, ins.idx), _subst(avail, ins.src)
                if ni != ins.idx or ns != ins.src:
                    ins.idx, ins.src = ni, ns
                    changed += 1
            elif isinstance(ins, Print):
                nv = _subst(avail, ins.value)
                if nv != ins.value:
                    ins.value = nv
                    changed += 1
            elif isinstance(ins, (Call, CallInd)):
                nargs = [_subst(avail, a) for a in ins.args]
                if nargs != ins.args:
                    ins.args = nargs
                    changed += 1
                if isinstance(ins, CallInd):
                    nt = _subst(avail, ins.target)
                    if nt != ins.target:
                        ins.target = nt
                        changed += 1

            # then update available copies
            for d in ins.defs():
                kill(d)
            if isinstance(ins, Mov) and not ins.dst.is_global:
                src = ins.src
                if isinstance(src, Const) or (
                    isinstance(src, VReg) and not src.is_global
                ):
                    if src != ins.dst:
                        avail[ins.dst] = src
            if ins.is_call:
                # a call can read/write globals through memory
                for key in [
                    k for k, val in avail.items()
                    if k.is_global or (isinstance(val, VReg) and val.is_global)
                ]:
                    del avail[key]

        term = block.terminator
        if isinstance(term, CJump):
            nc = _subst(avail, term.cond)
            if nc != term.cond:
                term.cond = nc
                changed += 1
        elif isinstance(term, Ret) and term.value is not None:
            nv = _subst(avail, term.value)
            if nv != term.value:
                term.value = nv
                changed += 1
    return changed


def local_value_numbering(fn: IRFunction) -> int:
    """Block-local common-subexpression elimination by value numbering.

    Within a block, a recomputation of ``(op, value(a), value(b))`` is
    replaced by a copy from the instruction that first produced it.
    Operand identity is (vreg, version): versions bump at every
    redefinition, and calls bump every global's version (a callee may
    write them through memory), so stale values are never reused.
    """
    replaced = 0
    for block in fn.blocks:
        versions: Dict[VReg, int] = {}
        # (op, operand keys...) -> (defining vreg, its version at def)
        table: Dict[tuple, tuple] = {}

        def key_of(v) -> tuple:
            if isinstance(v, Const):
                return ("const", v.value)
            return ("reg", v, versions.get(v, 0))

        def bump(v: VReg) -> None:
            versions[v] = versions.get(v, 0) + 1

        for i, ins in enumerate(block.instrs):
            expr = None
            if isinstance(ins, Bin):
                expr = (ins.op, key_of(ins.a), key_of(ins.b))
                if ins.op in ("+", "*", "&", "|", "^", "==", "!="):
                    # commutative: canonical operand order
                    expr = (ins.op,) + tuple(
                        sorted(expr[1:], key=repr)
                    )
            elif isinstance(ins, Un):
                expr = (f"un{ins.op}", key_of(ins.a))
            if expr is not None:
                hit = table.get(expr)
                if hit is not None:
                    src, src_version = hit
                    if versions.get(src, 0) == src_version:
                        block.instrs[i] = Mov(ins.dst, src)
                        bump(ins.dst)
                        table[expr] = (src, src_version)
                        replaced += 1
                        continue
            for d in ins.defs():
                bump(d)
            if expr is not None:
                table[expr] = (ins.dst, versions.get(ins.dst, 0))
            if ins.is_call:
                for v in list(versions):
                    if v.is_global:
                        bump(v)
                # unseen globals start at version 0; make future keys
                # differ by seeding every global operand on first sight --
                # handled implicitly because a global read after the call
                # appears as a fresh (vreg, 0) only if never versioned;
                # bump them defensively via the table instead:
                table = {
                    k: val for k, val in table.items()
                    if not _mentions_global(k)
                }
    return replaced


def _mentions_global(expr_key: tuple) -> bool:
    for part in expr_key:
        if isinstance(part, tuple) and len(part) == 3 and part[0] == "reg":
            if isinstance(part[1], VReg) and part[1].is_global:
                return True
        elif isinstance(part, tuple) and _mentions_global(part):
            return True
    return False


_PURE = (Bin, Un, Mov, LoadIdx, LoadFunc)


def dead_code_eliminate(fn: IRFunction) -> int:
    """Remove pure instructions whose destination is never read.

    Writes to globals are always live (observable after return); calls are
    kept for their side effects but a dead result register is dropped.
    """
    removed = 0
    while True:
        used: Set[VReg] = set()
        for block in fn.blocks:
            for ins in block.instrs:
                used.update(ins.use_vregs())
            used.update(block.terminator.use_vregs())
        changed = False
        for block in fn.blocks:
            kept: List[IRInstr] = []
            for ins in block.instrs:
                if isinstance(ins, _PURE) and not ins.dst.is_global \
                        and ins.dst not in used:
                    removed += 1
                    changed = True
                    continue
                if isinstance(ins, (Call, CallInd)) and ins.dst is not None \
                        and ins.dst not in used:
                    ins.dst = None
                    changed = True
                kept.append(ins)
            block.instrs = kept
        if not changed:
            break
    return removed


def simplify_cfg(fn: IRFunction) -> int:
    """Thread jumps through empty blocks, merge single-predecessor chains,
    fold constant conditional branches, and drop unreachable blocks."""
    changed = 0

    # fold CJump on constants
    for block in fn.blocks:
        term = block.terminator
        if isinstance(term, CJump) and isinstance(term.cond, Const):
            target = term.if_true if term.cond.value != 0 else term.if_false
            block.terminator = Jump(target)
            changed += 1
        elif isinstance(term, CJump) and term.if_true == term.if_false:
            block.terminator = Jump(term.if_true)
            changed += 1

    # thread jumps to empty forwarding blocks
    forward: Dict[str, str] = {}
    for block in fn.blocks:
        if not block.instrs and isinstance(block.terminator, Jump) \
                and block.terminator.target != block.name:
            forward[block.name] = block.terminator.target

    def resolve(name: str) -> str:
        seen = set()
        while name in forward and name not in seen:
            seen.add(name)
            name = forward[name]
        return name

    for block in fn.blocks:
        term = block.terminator
        if isinstance(term, Jump):
            t = resolve(term.target)
            if t != term.target:
                term.target = t
                changed += 1
        elif isinstance(term, CJump):
            t, f = resolve(term.if_true), resolve(term.if_false)
            if t != term.if_true or f != term.if_false:
                term.if_true, term.if_false = t, f
                changed += 1

    fn.remove_unreachable_blocks()

    # merge chains: A jumps to B, B has exactly one predecessor
    pred_count: Dict[str, int] = {b.name: 0 for b in fn.blocks}
    for block in fn.blocks:
        for s in block.successors():
            pred_count[s] += 1
    by_name = {b.name: b for b in fn.blocks}
    merged: Set[str] = set()
    for block in fn.blocks:
        if block.name in merged:
            continue
        while isinstance(block.terminator, Jump):
            target = block.terminator.target
            if target == block.name or pred_count.get(target, 0) != 1:
                break
            if target == fn.entry.name:
                break
            succ = by_name[target]
            block.instrs.extend(succ.instrs)
            block.terminator = succ.terminator
            merged.add(target)
            changed += 1
    if merged:
        fn.blocks = [b for b in fn.blocks if b.name not in merged]
        fn._by_name = {b.name: b for b in fn.blocks}
    return changed


def optimize_function(fn: IRFunction, max_rounds: int = 8) -> None:
    """Run the local passes to a (bounded) fixed point."""
    for _ in range(max_rounds):
        changed = 0
        changed += fold_constants(fn)
        changed += copy_propagate(fn)
        changed += local_value_numbering(fn)
        changed += dead_code_eliminate(fn)
        changed += simplify_cfg(fn)
        if changed == 0:
            break
    fn.collect_vregs()
    for i, p in enumerate(fn.params):
        fn.vregs.add(VReg(p, VKind.PARAM, i))


def optimize_module(mod) -> None:
    for fn in mod.functions.values():
        optimize_function(fn)
