"""Trace-translating simulator -- the reproduction's pixie-JIT.

The tier-1 interpreter in :mod:`repro.sim.simulator` pays a dispatch
tuple-unpack and an if/elif walk for every instruction.  This module
removes that per-instruction cost the way pixie itself did: by
*translating* the program into native code -- here, Python functions
produced by source synthesis and ``compile()``/``exec()``.  One
translator serves both translated tiers: ``"jit"`` runs it without a
profile, ``"jit3"`` feeds it a block profile.

Translation scheme
------------------

* Traces are translated on *first entry*, inside ``run``.  The entry
  pc is translated when the run starts; every static exit target a
  translation names (the ``imm`` of B/BEQZ/BNEZ/JAL, a fall-through)
  gets its global ``_b<pc>`` bound to a stub, which on its first call
  translates that one trace, rebinds the name to the real function and
  calls it.  Code control never reaches -- an uncalled function, a
  fall-through its predecessor's trace already runs inline -- is never
  compiled.
* Each entered pc becomes one Python function ``_b<pc>(r, m, o, c, y)``
  (registers, memory, output, exit counters, cycles) covering a
  **trace**: translation continues straight through forward
  unconditional jumps, fall-throughs and one arm of every conditional
  branch (the other arm becomes an early-``return`` side exit), up to
  an instruction cap, a call it does not inline, a return, HALT, or a
  backward transfer it cannot link.
* Straight-line register ops are inlined with no dispatch: register
  reads/writes are cached in Python locals for the whole trace and
  written back only at exits, reads of $zero fold to the literal ``0``,
  and writes to $zero are discarded (their trapping operand evaluation
  is kept).  What a value-computing opcode emits comes from its entry
  in the opcode table (:data:`~repro.target.isa.OPS`): a trap-free
  opcode whose sources are all translation-time constants folds, via a
  function compiled once from its value template; otherwise the
  template is emitted, after its own guard if it can trap.  Loads,
  stores, branches, calls and HALT are trace logic and keep their own
  arms.
* **Constant addresses** -- a load or store whose base register is a
  translation-time constant and whose address lies inside memory
  indexes ``m`` with that literal and no runtime bounds test; an
  out-of-range constant address keeps the test and its trap.
* Per-instruction counters disappear.  Every trace *exit* gets an id
  and a record of the instructions on the unique entry-to-exit path, so
  instructions, calls, branches and loads/stores by
  :class:`~repro.target.isa.MemKind` are constants per exit: each
  execution bumps one counter (``c[exit] += 1``) and the totals are
  reconstructed after HALT.  Cycles are threaded through as a running
  local (``y``) because the budget check needs them.
* **Budget-check hoisting.**  The interpreter checks the cycle budget
  at backward branches, calls and returns, at HALT and before every
  instruction that can itself trap.  Those checks can only fire when
  the remaining budget is below the trace's own worst-case accrual, so
  a trace makes one test of that instead, at entry and again at every
  loop top.  When the test trips, the trace writes its registers back
  and hands the rest of the run to the interpreter
  (:func:`~repro.sim.simulator.interpret`) at the trace's start pc, on
  the same registers, memory and output; the interpreter then checks
  the budget exactly where it always does, traps included, and its
  counts are added to the exit counters'.  A run within budget never
  reaches the interpreter, and one whose test trips leaves it less
  than one trace's worth of budget to run.
* Exits return the *successor's function* directly (``return _b42,
  y``, a global looked up at each exit, so a stub is reached at most
  once); the driver loop is just ``while fn is not None: fn, y =
  fn(r, m, o, c, y)``.  Dynamic targets (JR/JALR) go through a pc ->
  function table, translating unseen pcs the same way, so even a
  sabotaged executable that jumps mid-block still runs (or traps)
  exactly like the interpreter.

Runs of one translation may overlap (the compile service runs one
cached program for concurrent identical requests): translation holds a
per-instance lock, and each new exit's counter slot is added to every
run in progress before code can bump it.  An interpreter tail uses only
its own run's state.

Each trace-selection decision is one piece of code: the transfer rule
(``goto`` in :meth:`JitProgram._translate_superblock`) for every
transfer a trace may continue through -- B, a constant-folded branch,
the followed arm of a conditional branch and every fall-through --
links a jump to a loop-mode trace's own start, continues to a forward
target inside the code while under ``TRACE_CAP``, and otherwise
exits; the direction policy (:meth:`JitProgram._follows`) picks the
arm a conditional branch follows; the call policy
(``inline_decision``) decides which calls are inlined.

Trace shaping without a profile
-------------------------------

A translation without a profile (tier ``"jit"`` and the profiling
translation) shapes its traces by two static rules:

* **Loop heuristic** (Ball & Larus, "Branch Prediction for Free") --
  at a conditional branch inside a loop, the trace follows the forward
  taken arm when it can reach a branch back to the innermost loop
  header over fall-throughs, forward branches and calls, and the
  fall-through cannot; the fall-through becomes the side exit.  A
  loop-header trace then runs the body and links its back-edge (see
  *trace linking of loops* below), where following the fall-through
  would leave the loop at once.
* **Leaf inlining** -- every call is cold, but a callee that makes no
  call and fits ``INLINE_SIZE_CAP`` is inlined through the same depth,
  trace-cap and summary-footprint gates and return linking as a hot
  callee.

Profile-guided trace shaping
----------------------------

:class:`Jit3Program` (tier ``"jit3"``; tier ``"auto"`` picks it when a
:class:`~repro.pipeline.profile.BlockProfile` is attached to the
executable) is the same translator fed profile data, which replaces
the two rules above; loop linking, constant addresses and budget
hoisting need no profile and always apply.

* **Hot-direction following** -- at a conditional branch the trace
  follows the taken direction when the profile says it carries most of
  the flow through the trace head, and exits on the fall-through.
* **Summary-driven call inlining** -- a JAL to a hot, small callee
  continues translating *into* the callee instead of exiting, with the
  return address tracked as a translation-time constant.  The paper's
  register-usage summaries (via ``Executable.preserved_masks``) give
  the cheap feasibility check: the callee subtree's destroyable
  register set, unioned with the registers the trace already caches in
  Python locals, must fit the trace-register cap -- Chow's "one word of
  storage" reused as the inliner's gate.  A JR whose target is the
  tracked constant return pc links straight back to the caller with
  zero emitted code; an unproven JR emits a return-pc guard whose miss
  arm is a full dynamic exit, so inlining is sound for *any* callee
  behaviour (the summary is profitability, not correctness).  Indirect
  calls (JALR) always bail out to a dynamic exit.
* **Trace linking of loops** -- every block some backward branch
  targets is emitted inside ``while True:`` with all accessed
  registers hoisted into Python locals once, up front; a backward edge
  targeting the block's own start becomes bump-counter / ``continue``
  back to the loop-top budget test, so loop iterations never leave the
  translated function (no write-back, re-dispatch and reload per
  iteration).
  Every exit writes back the block's full written set, which keeps the
  per-exit path-constant statistics exact in the presence of re-entry.

Budget-identity note: linked transfers (inlined JAL, linked JR, loop
back-edges) skip interpreter budget-check points, which is
unobservable for the same reason the hoisting is: a trace, or one more
iteration of a linked loop, runs only when its worst-case accrual fits
the remaining budget, so no skipped check could have fired.

On both translated tiers, decisions and bailout counts surface in
``RunStats.jit3``; they cover the traces translated so far.

Translations are cached on the executable next to ``_decoded``, keyed
by tier plus everything baked into the generated source as literals
(``stack_words`` and ``max_cycles`` give the memory bound and budget;
tier 3 adds its profile digest).  Under tier ``"auto"`` any
translation failure falls back to the interpreter.

Block profiles are collected by this translator too, the way pixie
counted basic blocks inside translated code: :func:`run_profiling`
(what :func:`~repro.pipeline.profile.block_profile_of` runs) makes a
one-run :class:`JitProgram` given ``block_counts``, which shapes its
traces as tier ``"jit"`` does and counts blocks per trace exit.

The interpreter remains the retained reference oracle: contract checking
is an interpreter feature, and :func:`simulate` routes runs that need it
(tier ``auto``) back to it; its ``block_counts`` hook is the
profile's test oracle.  Identity between the tiers --
bit-identical :class:`RunStats` including trap behaviour -- is enforced
by the differential tests in ``tests/sim/`` and, on every suite
program under every paper configuration, by
``benchmarks/test_profile_translator.py``.
"""
from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import faults
from repro.ir.arith import MachineTrap, sdiv, srem
from repro.pipeline.linker import Executable
from repro.sim.simulator import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_STACK_WORDS,
    DUMP_INDEX,
    decoded_stream,
    interpret,
    run_program,
    _LW, _SW, _B, _BEQZ, _BNEZ, _JAL, _JALR, _JR, _PRINT, _HALT,
    _KINDS, _LAT,
)
from repro.sim.stats import RunStats
from repro.target.isa import OPS, OpInfo, Opcode, offset, srl
from repro.target.registers import (
    ALLOCATABLE_MASK,
    NUM_REGISTERS,
    RA,
    SP,
)

__all__ = [
    "JitProgram",
    "Jit3Program",
    "run_jit",
    "run_jit3",
    "run_profiling",
    "simulate",
    "SIM_TIERS",
]

#: trace growth cap, in translated instructions
TRACE_CAP = 512

#: inlining gates: the most inline frames open at once, the largest
#: callee (static length) worth inlining, the cap on trace locals plus a
#: callee's destroyable registers, and the profiled entry count below
#: which a function is cold
INLINE_DEPTH = 3
INLINE_SIZE_CAP = 120
MAX_TRACE_REGS = 24
HOT_CALLS = 8


def _template_function(template: str) -> Callable[[str, str, int], str]:
    """``template`` as a function of its operands' source text."""
    return eval(
        "lambda a, b, i: f" + repr(template.replace("{off}", "{offset(i)}")),
        {"offset": offset},
    )


class _ValueOp:
    """How the translator emits one value-computing opcode, compiled
    once from its :data:`~repro.target.isa.OPS` templates into
    functions of ``(a, b, i)``: ``text`` and ``guard`` give the source
    text of the value and of its guard, and ``fold``, for a trap-free
    opcode, computes the value.  ``first`` and ``then`` are the source
    positions (0 for ``rs``, 1 for ``rt``) read before and after the
    guard, so the guard precedes the loads it does not need."""

    __slots__ = ("traps", "text", "guard", "fold", "first", "then")

    def __init__(self, info: OpInfo):
        self.traps = info.traps
        self.text = _template_function(info.value)
        self.guard = None if info.guard is None else _template_function(
            info.guard
        )
        self.fold = None if info.traps else eval(
            "lambda a, b, i: "
            + info.value.format(a="a", b="b", i="i", off=" + i")
        )
        srcs = [("rs", "rt").index(f) for f in info.reads]
        guarded = info.guard or ""
        self.first = tuple(k for k in srcs if "{%s}" % "ab"[k] in guarded)
        self.then = tuple(k for k in srcs if k not in self.first)


#: per opcode number: the :class:`_ValueOp` of each value-computing
#: opcode, ``None`` for the opcodes the trace logic handles itself
_VALUE_OPS: List[Optional[_ValueOp]] = [
    _ValueOp(OPS[op]) if OPS[op].value is not None else None
    for op in Opcode
]


class _ExitPath:
    """Stat constants for one trace exit: the dynamic counts of the
    unique entry-to-exit path, multiplied by the exit counter after a
    run.  A profiling translation also records ``blocks``, the
    block-start pcs the path passes and how often."""

    __slots__ = (
        "ninstr", "cycles", "calls", "branches", "loads", "stores", "blocks",
    )

    def __init__(self, ninstr, cycles, calls, branches, loads, stores,
                 blocks=None):
        self.ninstr = ninstr
        self.cycles = cycles
        self.calls = calls
        self.branches = branches
        self.loads = loads    # kind number -> count
        self.stores = stores
        self.blocks = blocks  # pc -> occurrences on the path, or None


class _Tail(Exception):
    """Raised by a trace whose budget test trips, with the trace's
    start pc and the cycles spent: the interpreter runs the rest."""


class JitProgram:
    """A trace-translated executable, ready to run.

    One instance is specific to a ``(stack_words, max_cycles)`` pair;
    :func:`run_jit` caches instances on the executable.  The constructor
    translates nothing: :meth:`run` translates each trace the first
    time control reaches it, and later runs reuse the translations.
    Without a profile (see :class:`Jit3Program`) every call is cold,
    and traces are shaped by the static rules in the module docstring.
    ``jit3_stats`` records the translation decisions taken so far; a
    copy is surfaced on :attr:`RunStats.jit3` after every run.  A run
    whose budget test trips finishes on the interpreter (see
    *budget-check hoisting* in the module docstring).

    A profiling translation (see :func:`run_profiling`) is given
    ``block_counts``: every exit path records the visits of its pcs,
    and an interpreter tail counts them there.
    """

    def __init__(
        self,
        exe: Executable,
        stack_words: int = DEFAULT_STACK_WORDS,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        block_counts: Optional[Dict[int, int]] = None,
    ):
        faults.check(faults.SITE_JIT, "translate")
        self.exe = exe
        self._block_counts = block_counts
        self.mem_size = exe.data_size + stack_words
        self.max_cycles = max_cycles
        self.code = decoded_stream(exe)
        self.ncode = len(self.code)
        self.exits: List[_ExitPath] = []
        self.table: Dict[int, Callable] = {}
        # translation state is shared by overlapping runs: _lock guards
        # it, and _live holds each running run's exit counters by id
        self._lock = threading.Lock()
        self._live: Dict[int, List[int]] = {}
        # profile data: block counts by pc
        self._hot: Dict[int, int] = {}
        entries = sorted(exe.func_entries.values())
        self._extent = {
            p: (entries[i + 1] if i + 1 < len(entries) else self.ncode) - p
            for i, p in enumerate(entries)
        }
        # each pc some backward branch targets (a loop header), mapped
        # to the last backward branch to it (its latch)
        self._latch: Dict[int, int] = {}
        for pc, ins in enumerate(self.code):
            if ins[0] in (_B, _BEQZ, _BNEZ) and 0 <= ins[4] <= pc:
                self._latch[ins[4]] = pc
        self._headers = sorted(self._latch)
        # memoized profile-less rules: per loop header, the pcs that
        # reach a branch back to it; per function entry, whether it is
        # a leaf
        self._reaching: Dict[int, Set[int]] = {}
        self._leaf: Dict[int, bool] = {}
        self.jit3_stats: Dict[str, object] = {
            "traces": 0,
            "max_trace_len": 0,
            "inlined_calls": 0,
            "linked_loops": 0,
            "linked_returns": 0,
            "guarded_returns": 0,
            "elided_syncs": 0,
            "bailouts": {},
        }
        self.ns: Dict[str, object] = {
            "MachineTrap": MachineTrap,
            "sdiv": sdiv,
            "srem": srem,
            "srl": srl,
            "_jump": self._jump,
            "_T": self.table,
            "_Tail": _Tail,
        }

    # -- translation --------------------------------------------------------

    def _enqueue(self, pc: int) -> None:
        """Make the static exit target ``_b<pc>`` resolvable: the first
        time a translation references it, bind the name to a stub that
        translates the trace on its first call (rebinding the name
        to the real function) and then runs it."""
        name = f"_b{pc}"
        if name not in self.ns:
            self.ns[name] = (
                lambda r, m, o, c, y: self._jump(pc)(r, m, o, c, y)
            )

    def _exec(self, source: str) -> None:
        exec(compile(source, f"<jit:{id(self.exe):#x}>", "exec"), self.ns)

    # -- trace shaping ------------------------------------------------------

    def _follows(self, start: int, pc: int, target: int) -> bool:
        """Whether the trace rooted at ``start`` follows the conditional
        branch at ``pc`` to its forward ``target``, exiting on the
        fall-through.  With a profile, when the taken arm carries the
        majority of the flow through the trace head (the fall-through's
        own count is usually unobservable -- it is rarely a block leader
        -- so it is estimated as entry minus taken rather than read from
        the profile, where a missing label would score 0 and invert
        nearly every branch); without one, by the loop heuristic
        (:meth:`_follows_taken`)."""
        if not pc < target < self.ncode:
            return False
        hot = self._hot
        if not hot:
            return self._follows_taken(pc, target)
        taken = hot.get(target, 0)
        return taken * 2 > hot.get(start, 1) and taken > hot.get(pc + 1, 0)

    def _follows_taken(self, pc: int, target: int) -> bool:
        """The direction rule of a translation without a profile, Ball
        & Larus's loop heuristic: the conditional branch at ``pc``
        follows its forward ``target`` when, in the innermost loop
        around ``pc``, the taken arm can reach a branch back to the
        loop header and the fall-through cannot."""
        headers = self._headers
        for k in range(bisect.bisect_right(headers, pc) - 1, -1, -1):
            h = headers[k]
            if pc <= self._latch[h]:
                reaching = self._reaching_of(h)
                return target in reaching and pc + 1 not in reaching
        return False

    def _reaching_of(self, h: int) -> Set[int]:
        """The pcs that reach a branch back to the loop header ``h``
        over fall-throughs, forward branches and calls, memoized per
        header.  Only the last ``TRACE_CAP`` pcs up to the latch count:
        no trace runs longer than that to link the loop."""
        reaching = self._reaching.get(h)
        if reaching is not None:
            return reaching
        code = self.code
        latch = self._latch[h]
        reaching = set()
        for p in range(latch, max(h, latch - TRACE_CAP) - 1, -1):
            op, imm = code[p][0], code[p][4]
            if op == _B:
                hit = imm == h or (p < imm and imm in reaching)
            elif op == _BEQZ or op == _BNEZ:
                hit = (
                    imm == h or p + 1 in reaching
                    or (p < imm and imm in reaching)
                )
            elif op == _JR or op == _HALT:
                hit = False
            else:
                hit = p + 1 in reaching
            if hit:
                reaching.add(p)
        self._reaching[h] = reaching
        return reaching

    def _is_leaf(self, entry: int, size: int) -> bool:
        """Whether the function at ``entry`` (``size`` instructions)
        makes no call, memoized per function."""
        leaf = self._leaf.get(entry)
        if leaf is None:
            leaf = self._leaf[entry] = not any(
                ins[0] == _JAL or ins[0] == _JALR
                for ins in self.code[entry:entry + size]
            )
        return leaf

    def _translate_superblock(self, start: int) -> str:
        """Synthesise the trace rooted at ``start``, registering an
        :class:`_ExitPath` per exit; returns the source text defining
        ``_b<start>``."""
        code = self.code
        ncode = self.ncode
        max_cycles = self.max_cycles
        st = self.jit3_stats
        name = f"_b{start}"
        # loop mode -- body inside ``while True:``, all accessed
        # registers preloaded, every exit writes back the full written
        # set -- pays off only where a back-edge can actually link, so
        # it is reserved for loop headers, the only traces that can
        # link a loop; everything else gets lazy loads and
        # written-so-far write-backs
        loop_mode = start in self._latch
        if loop_mode:
            IND = "        "
            lines = [
                f"def {name}(r, m, o, c, y):",
                "\x00PRELOAD",
                "    while True:",
                f"{IND}\x00ENTRY",
            ]
        else:
            IND = "    "
            lines = [
                f"def {name}(r, m, o, c, y):",
                f"{IND}\x00ENTRY",
            ]
        accessed: Set[int] = set()     # registers hoisted into locals
        known: Set[int] = set()
        written: List[int] = []        # full written set, in write order
        consts: Dict[int, int] = {}    # register -> constant at this point
        inline_stack: List[int] = []   # expected return pcs, innermost last
        ninstr = 0
        prefix = 0
        calls = 0
        branches = 0
        loads: Dict[int, int] = {}
        stores: Dict[int, int] = {}
        block_pcs = self._block_counts or ()  # its keys are pre-seeded
        visits: Dict[int, int] = {}    # tracked block-start pc -> passes

        def bail(reason: str) -> None:
            bailouts = st["bailouts"]
            bailouts[reason] = bailouts.get(reason, 0) + 1

        def const_of(i: int) -> Optional[int]:
            return 0 if i == 0 else consts.get(i)

        def read(i: int) -> str:
            if i == 0:
                return "0"
            v = consts.get(i)
            if v is not None:
                return repr(v)
            if i not in known:
                known.add(i)
                accessed.add(i)
                if not loop_mode:
                    lines.append(f"{IND}r{i} = r[{i}]")
            return f"r{i}"

        def write(i: int, const: Optional[int] = None) -> Optional[str]:
            if i == 0 or i == DUMP_INDEX:
                return None
            known.add(i)
            accessed.add(i)
            if i not in written:
                written.append(i)
            if const is None:
                consts.pop(i, None)
            else:
                # the local assignment is still emitted: loop re-entry
                # and exit write-backs rely on the local being current
                consts[i] = const
            return f"r{i}"

        def exit_path() -> int:
            return self._new_exit(_ExitPath(
                ninstr, prefix, calls, branches, dict(loads), dict(stores),
                dict(visits) if visits else None,
            ))

        def emit_exit(ind: str, ret: str, bump: bool = True) -> None:
            if loop_mode:
                lines.append(f"{ind}\x00WB")
            else:
                lines.extend(f"{ind}r[{i}] = r{i}" for i in written)
            lines.append(f"{ind}y += {prefix}")
            if bump:
                lines.append(f"{ind}c[{exit_path()}] += 1")
            lines.append(f"{ind}{ret}")

        def exit_to(ind: str, target: int) -> None:
            if 0 <= target < ncode:
                self._enqueue(target)
                emit_exit(ind, f"return _b{target}, y")
            else:
                emit_exit(
                    ind,
                    f"raise MachineTrap('pc {target} outside code')",
                    bump=False,
                )

        def emit_backedge(ind: str) -> None:
            faults.check(faults.SITE_JIT, "link")
            lines.append(f"{ind}y += {prefix}")
            lines.append(f"{ind}c[{exit_path()}] += 1")
            lines.append(f"{ind}continue")
            st["linked_loops"] += 1
            st["elided_syncs"] += len(written)

        def inline_decision(entry: int) -> bool:
            callee = self.exe.func_at_pc.get(entry)
            if callee is None:
                return False
            size = self._extent.get(entry, ncode)
            # without a profile every call is cold, yet a leaf goes on
            # to the gates below
            if self._hot.get(entry, 0) < HOT_CALLS and (
                self._hot or not self._is_leaf(entry, size)
            ):
                bail("cold")
                return False
            if len(inline_stack) >= INLINE_DEPTH:
                bail("depth")
                return False
            if size > INLINE_SIZE_CAP:
                bail("size")
                return False
            if ninstr + size > TRACE_CAP:
                bail("trace_cap")
                return False
            preserved = self.exe.preserved_masks.get(callee)
            destroy = ALLOCATABLE_MASK if preserved is None \
                else ALLOCATABLE_MASK & ~preserved
            mask = destroy
            for i in accessed:
                mask |= 1 << i
            if bin(mask).count("1") > MAX_TRACE_REGS:
                bail("footprint")
                return False
            faults.check(faults.SITE_JIT, "inline")
            return True

        def goto(target: int) -> bool:
            """The one rule for a transfer the trace may continue
            through (B, a folded or followed branch arm, a
            fall-through): link a jump to the loop header's own start,
            continue to a forward target inside the code while under
            the cap (true), else exit to ``target``."""
            if target == start and loop_mode:
                emit_backedge(IND)
                return False
            if pc < target < ncode and ninstr < TRACE_CAP:
                return True
            exit_to(IND, target)
            return False

        def address(base: int, imm: int, what: str) -> str:
            """The address operand of a load or store: the literal of a
            translation-time constant address inside memory, which needs
            no runtime bounds test, else ``a``, computed and tested."""
            b = const_of(base)
            if b is not None and 1 <= b + imm < self.mem_size:
                return str(b + imm)
            lines.append(f"{IND}a = {read(base)}{offset(imm)}")
            lines.append(
                f"{IND}if a < 1 or a >= {self.mem_size}: raise"
                f" MachineTrap('bad {what} address %d at pc={pc}' % a)"
            )
            return "a"

        def emit_value(vop: _ValueOp, rd: int, rs: int, rt: int,
                       imm: int) -> None:
            # a discarded result still emits a value that can trap
            src = [rs, rt]
            for k in vop.first:
                src[k] = read(src[k])
            if vop.guard is not None:
                lines.append(f"{IND}{vop.guard(src[0], src[1], imm)}")
            for k in vop.then:
                src[k] = read(src[k])
            w = write(rd)
            value = vop.text(src[0], src[1], imm)
            if w is None:
                if vop.traps and vop.guard is None:
                    lines.append(f"{IND}{value}")
            elif w != value:  # a move onto itself is no code at all
                lines.append(f"{IND}{w} = {value}")

        pc = start
        while True:
            op, rd, rs, rt, imm, kind = code[pc]
            ninstr += 1
            prefix += _LAT[op]
            if pc in block_pcs:
                visits[pc] = visits.get(pc, 0) + 1
            vop = _VALUE_OPS[op]
            nxt = pc + 1

            if vop is not None:
                # fold a trap-free opcode when every source is a
                # translation-time constant (an unused source field
                # decodes to $zero)
                av, bv = const_of(rs), const_of(rt)
                if vop.traps or av is None or bv is None:
                    emit_value(vop, rd, rs, rt, imm)
                else:
                    val = vop.fold(av, bv, imm)
                    w = write(rd, const=val)
                    if w is not None:
                        lines.append(f"{IND}{w} = {val}")
            elif op == _LW:
                addr = address(rs, imm, "load")
                w = write(rd)
                if w is not None:
                    lines.append(f"{IND}{w} = m[{addr}]")
                loads[kind] = loads.get(kind, 0) + 1
            elif op == _SW:
                addr = address(rt, imm, "store")
                lines.append(f"{IND}m[{addr}] = {read(rs)}")
                stores[kind] = stores.get(kind, 0) + 1
            elif op == _PRINT:
                lines.append(f"{IND}o.append({read(rs)})")
            elif op == _BEQZ or op == _BNEZ:
                branches += 1
                cv = const_of(rs)
                if cv is not None:
                    if (cv == 0) == (op == _BEQZ):  # taken
                        nxt = imm
                else:
                    cond = read(rs)
                    if (imm == start and loop_mode) or self._follows(
                        start, pc, imm
                    ):
                        # follow a linkable back-edge or the direction
                        # policy's pick, exiting on the fall-through
                        ntest = "!=" if op == _BEQZ else "=="
                        lines.append(f"{IND}if {cond} {ntest} 0:")
                        exit_to(IND + "    ", pc + 1)
                        nxt = imm
                    else:
                        test = "==" if op == _BEQZ else "!="
                        lines.append(f"{IND}if {cond} {test} 0:")
                        exit_to(IND + "    ", imm)
            elif op == _B:
                nxt = imm
            elif op == _JAL:
                calls += 1
                ret_pc = pc + 1
                w = write(RA.index, const=ret_pc)
                lines.append(f"{IND}{w} = {ret_pc}")
                if inline_decision(imm):
                    inline_stack.append(ret_pc)
                    st["inlined_calls"] += 1
                    st["elided_syncs"] += len(written)
                    pc = imm
                    continue
                exit_to(IND, imm)
                break
            elif op == _JALR:
                calls += 1
                bail("indirect_call")
                lines.append(f"{IND}t = {read(rs)}")
                w = write(RA.index, const=pc + 1)
                lines.append(f"{IND}{w} = {pc + 1}")
                emit_exit(IND, "return _T.get(t) or _jump(t), y")
                break
            elif op == _JR:
                if inline_stack:
                    expected = inline_stack[-1]
                    cv = const_of(rs)
                    if cv == expected:
                        inline_stack.pop()
                        st["linked_returns"] += 1
                        st["elided_syncs"] += len(written)
                        pc = expected
                        continue
                    if cv is None:
                        lines.append(f"{IND}t = {read(rs)}")
                        lines.append(f"{IND}if t != {expected}:")
                        emit_exit(
                            IND + "    ",
                            "return _T.get(t) or _jump(t), y",
                        )
                        inline_stack.pop()
                        consts[rs] = expected  # proven by the guard
                        st["guarded_returns"] += 1
                        pc = expected
                        continue
                    # a known return pc that is not this frame's return
                    # (tail-call shape): give up linking this trace
                    bail("return_mismatch")
                lines.append(f"{IND}t = {read(rs)}")
                emit_exit(IND, "return _T.get(t) or _jump(t), y")
                break
            elif op == _HALT:
                emit_exit(IND, "return None, y")
                break
            else:  # pragma: no cover - exhaustive over the opcode set
                raise MachineTrap(f"unknown opcode number {op}")

            if not goto(nxt):
                break
            pc = nxt

        st["traces"] += 1
        if ninstr > st["max_trace_len"]:
            st["max_trace_len"] = ninstr

        # Budget-check hoisting.  The interpreter's budget checks (at
        # backward branches, calls, returns, HALT and before each
        # trapping instruction) can only fire when the remaining cycle
        # budget is smaller than the trace's own worst-case accrual
        # (``prefix`` is monotone, so its final total bounds every
        # check on the way).  The trace therefore tests that once -- at
        # entry, and at every loop top in loop mode -- and when the
        # test trips it hands the rest of the run to the interpreter,
        # which checks exactly where it always does.
        out = []
        for ln in lines:
            if "\x00" not in ln:
                out.append(ln)
                continue
            body = ln.lstrip()
            ind = ln[: len(ln) - len(body)]
            if body == "\x00PRELOAD":
                out.extend(f"    r{i} = r[{i}]" for i in sorted(accessed))
            elif body == "\x00WB":
                out.extend(f"{ind}r[{i}] = r{i}" for i in written)
            else:  # the entry test
                out.append(f"{ind}if y + {prefix} > {max_cycles}:")
                if loop_mode:  # handing off mid-loop: sync first
                    out.extend(f"{ind}    r[{i}] = r{i}" for i in written)
                out.append(f"{ind}    raise _Tail({start}, y)")
        return "\n".join(out) + "\n"

    def _new_exit(self, path: _ExitPath) -> int:
        """Register a trace exit and return its counter id.  Runs
        with ``_lock`` held (or before the instance is shared), so every
        run in progress has the new slot before code can bump it."""
        eid = len(self.exits)
        self.exits.append(path)
        for counts in self._live.values():
            counts.append(0)
        return eid

    def _translate(self, pc: int) -> Callable:
        """Translate and install the trace at ``pc``; returns its
        function, now also bound as ``_b<pc>`` and in the table."""
        self._exec(self._translate_superblock(pc))
        fn = self.table[pc] = self.ns[f"_b{pc}"]
        return fn

    def _jump(self, pc: int) -> Callable:
        """Resolve a jump target (the entry, a stub's own pc, or a
        dynamic JR/JALR target), translating it on first use."""
        fn = self.table.get(pc)
        if fn is None:
            if pc < 0 or pc >= self.ncode:
                raise MachineTrap(f"pc {pc} outside code")
            with self._lock:
                # an overlapping run may have translated it meanwhile
                fn = self.table.get(pc) or self._translate(pc)
        return fn

    # -- execution ----------------------------------------------------------

    def run(self) -> RunStats:
        stats = self._stats(*self._execute())
        with self._lock:  # an overlapping run may be translating
            info = dict(self.jit3_stats)
            info["bailouts"] = dict(self.jit3_stats["bailouts"])
        stats.jit3 = info
        return stats

    def _execute(
        self,
    ) -> Tuple[List[int], int, List[int], Optional[RunStats]]:
        """Run the program once; returns the exit counters, the cycle
        count, the output and, if a trace handed the over-budget tail of
        the run to the interpreter, the interpreter's statistics of that
        tail."""
        exe = self.exe
        mem: List[int] = [0] * self.mem_size
        for a, v in exe.data_init.items():
            mem[a] = v
        # the interpreter's $zero dump slot follows the architected file
        regs: List[int] = [0] * (NUM_REGISTERS + 1)
        regs[SP.index] = self.mem_size
        out: List[int] = []
        # on-demand translation mid-run extends counts (see _new_exit)
        with self._lock:
            counts = [0] * len(self.exits)
            self._live[id(counts)] = counts
        cycles = 0
        handoff = None

        try:
            fn = self._jump(exe.entry_pc)
            while fn is not None:
                fn, cycles = fn(regs, mem, out, counts, cycles)
        except _Tail as trip:
            handoff = trip.args
        finally:
            with self._lock:
                del self._live[id(counts)]
        if handoff is None:
            return counts, cycles, out, None
        pc, cycles = handoff
        tail = interpret(
            exe, pc, regs, mem, out, cycles, self.max_cycles,
            block_counts=self._block_counts,
        )
        return counts, tail.cycles, out, tail

    def _stats(
        self, counts: List[int], cycles: int, out: List[int],
        tail: Optional[RunStats],
    ) -> RunStats:
        """The run's statistics, reconstructed from its exit counters
        and added to the interpreter's counts of its tail, if any."""
        stats = RunStats() if tail is None else tail
        stats.cycles = cycles
        stats.output = out
        nkinds = len(_KINDS)
        load_counts = [0] * nkinds
        store_counts = [0] * nkinds
        exits = self.exits
        for eid, n in enumerate(counts):
            if not n:
                continue
            path = exits[eid]
            stats.instructions += n * path.ninstr
            stats.calls += n * path.calls
            stats.branches += n * path.branches
            for kind, cnt in path.loads.items():
                load_counts[kind] += n * cnt
            for kind, cnt in path.stores.items():
                store_counts[kind] += n * cnt
        for i, k in enumerate(_KINDS):
            if load_counts[i]:
                stats.loads[k] += load_counts[i]
            if store_counts[i]:
                stats.stores[k] += store_counts[i]
        return stats


def _profile_digest(profile) -> str:
    """Stable digest of whatever was passed as a profile (``None``, a
    :class:`~repro.pipeline.profile.BlockProfile`, or a plain dict)."""
    if profile is None:
        return "none"
    digest = getattr(profile, "digest", None)
    if callable(digest):
        return digest()
    import hashlib

    items = sorted(
        (fn, tuple(sorted(blocks.items())))
        for fn, blocks in profile.items()
    )
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


def _hot_by_pc(exe: Executable, profile) -> Dict[int, int]:
    """Block execution counts keyed by pc (via the executable's labels)."""
    hot: Dict[int, int] = {}
    if not profile:
        return hot
    for fn, blocks in profile.items():
        if not isinstance(blocks, dict):
            continue
        for block, count in blocks.items():
            pc = exe.labels.get(f"{fn}.{block}")
            if pc is not None and count:
                hot[pc] = max(hot.get(pc, 0), count)
        entry = exe.func_entries.get(fn)
        if entry is not None:
            count = blocks.get("entry", 0)
            if count:
                hot[entry] = max(hot.get(entry, 0), count)
    return hot


class Jit3Program(JitProgram):
    """The translator fed a block profile (tier 3).

    The profile drives hot-direction following and inlining (see the
    module docstring).
    """

    def __init__(
        self,
        exe: Executable,
        stack_words: int = DEFAULT_STACK_WORDS,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        profile=None,
    ):
        super().__init__(exe, stack_words, max_cycles)
        self._hot = _hot_by_pc(exe, profile)

    def run(self) -> RunStats:
        # tier 2's run; defined here so that a harness wrapping methods
        # by name in the class ``__dict__`` (perfbench's tracer) can
        # time tier-3 runs apart from tier-2 ones
        return super().run()


def run_profiling(
    exe: Executable,
    stack_words: int = DEFAULT_STACK_WORDS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    *,
    block_counts: Dict[int, int],
) -> RunStats:
    """Run ``exe`` once on a profiling translation, collecting a block
    profile the way pixie counted basic blocks inside translated code;
    the translator's counterpart of the interpreter's profiling run
    (``run_program(exe, block_counts=...)``).

    ``block_counts`` is pre-seeded with the pcs of interest, and each
    entry gains that pc's visits.  Every exit path records the visits
    of those pcs, so a block's count is the sum over exits of the
    exit's counter times the block's visits on its path: the run itself
    counts nothing more than it already does.  Traces are shaped as
    tier ``"jit"`` shapes them, leaf inlining included; a block of an
    inlined callee is counted on the caller's exit paths.

    A :class:`MachineTrap` propagates with the interpreter's message,
    leaving the dict unspecified.  The translation is not cached on the
    executable: it serves this one run and is freed on return.
    """
    prog = JitProgram(exe, stack_words, max_cycles, block_counts)
    try:
        counts, cycles, out, tail = prog._execute()
    finally:
        # free the code now: stubs and ``_jump`` tie the translation
        # into cycles only a later collection would find
        prog.ns.clear()
        prog.table.clear()
    for n, path in zip(counts, prog.exits):
        if n and path.blocks:
            for pc, visits in path.blocks.items():
                block_counts[pc] += n * visits
    return prog._stats(counts, cycles, out, tail)


def _cached(exe: Executable, key: Tuple, make: Callable) -> JitProgram:
    """The translation cached on ``exe`` (next to ``_decoded``) under
    ``key``, made on first use; the key's tier tag keeps the profiled
    and profile-less translations of one executable apart."""
    cache = getattr(exe, "_jit_cache", None)
    if cache is None:
        cache = {}
        exe._jit_cache = cache  # type: ignore[attr-defined]
    prog = cache.get(key)
    if prog is None:
        prog = cache[key] = make()
    return prog


def run_jit(
    exe: Executable,
    stack_words: int = DEFAULT_STACK_WORDS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> RunStats:
    """Execute ``exe`` on the translator without a profile.

    The translation is cached on the executable keyed by ``("jit",
    stack_words, max_cycles)``, so repeated runs reuse every trace
    translated so far.
    """
    return _cached(
        exe, ("jit", stack_words, max_cycles),
        lambda: JitProgram(exe, stack_words, max_cycles),
    ).run()


def run_jit3(
    exe: Executable,
    stack_words: int = DEFAULT_STACK_WORDS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    profile=None,
) -> RunStats:
    """Execute ``exe`` on the translator fed ``profile``.

    ``profile`` is the :class:`~repro.pipeline.profile.BlockProfile`
    driving inlining and linking decisions (``None``
    shapes traces as tier ``"jit"`` does).  The translation
    is cached on the executable keyed by ``("jit3", stack_words,
    max_cycles, profile digest)``.
    """
    return _cached(
        exe, ("jit3", stack_words, max_cycles, _profile_digest(profile)),
        lambda: Jit3Program(exe, stack_words, max_cycles, profile=profile),
    ).run()


SIM_TIERS = ("auto", "interp", "jit", "jit3")


def _self_profile(exe: Executable):
    """Collect (and attach) a profile of ``exe`` by one run of a
    profiling translation (:func:`run_profiling`) -- the explicit
    ``sim_tier="jit3"`` path when no profile was attached beforehand.
    Deferred import: profile.py imports us."""
    from repro.pipeline.profile import block_profile_of

    return block_profile_of(exe)


def simulate(
    exe: Executable,
    stack_words: int = DEFAULT_STACK_WORDS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    check_contracts: bool = False,
    sim_tier: str = "auto",
    profile=None,
) -> RunStats:
    """Execute ``exe`` on the selected simulator tier.

    ``sim_tier`` is ``"auto"`` (default), ``"interp"`` (always the
    reference interpreter), ``"jit"`` (the translator without a
    profile) or ``"jit3"`` (the translator fed a block profile).  The
    translated tiers are incompatible with the interpreter-only
    contract checker (``check_contracts``).  All tiers produce
    bit-identical :class:`RunStats`.

    ``"auto"`` runs the translator, with the profile attached to the
    executable (see :func:`repro.pipeline.profile.attach_profile`) or
    passed as ``profile`` when there is one -- and a *translation*
    failure falls back to the interpreter, recorded in
    :attr:`RunStats.sim_fallback`.  :class:`MachineTrap` is program
    semantics (all tiers raise it identically) and always propagates.

    ``sim_tier="jit3"`` with no profile anywhere first collects one
    with :func:`~repro.pipeline.profile.block_profile_of` (one run of a
    profiling translation) and attaches it.
    """
    if sim_tier not in SIM_TIERS:
        raise ValueError(
            f"unknown sim_tier {sim_tier!r}; expected one of {SIM_TIERS}"
        )
    if sim_tier in ("jit", "jit3") and check_contracts:
        raise ValueError(
            f"sim_tier={sim_tier!r} does not support check_contracts; "
            "use sim_tier='auto' or 'interp'"
        )
    if sim_tier == "interp" or check_contracts:
        return run_program(
            exe,
            stack_words=stack_words,
            max_cycles=max_cycles,
            check_contracts=check_contracts,
        )
    if sim_tier == "jit":
        return run_jit(exe, stack_words=stack_words, max_cycles=max_cycles)
    if profile is None:
        profile = getattr(exe, "_block_profile", None)
    if sim_tier == "jit3" and profile is None:
        profile = _self_profile(exe)
    try:
        if profile is None:
            return run_jit(
                exe, stack_words=stack_words, max_cycles=max_cycles
            )
        return run_jit3(
            exe, stack_words=stack_words, max_cycles=max_cycles,
            profile=profile,
        )
    except MachineTrap:
        raise
    except Exception as exc:
        # tier "auto" only: a translation failure is not program
        # semantics, so the interpreter reruns the program from scratch
        if sim_tier != "auto":
            raise
        stats = run_program(
            exe, stack_words=stack_words, max_cycles=max_cycles
        )
        stats.sim_fallback = (
            f"{'jit' if profile is None else 'jit3'}: {exc!r}"
        )
        return stats
