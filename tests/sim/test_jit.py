"""Trace translator tests (tier "jit", no profile): tier identity,
traps, the sim_tier knob, translation caching and on first entry,
overlapping runs, word-width shift semantics, the opcode table's
value templates against the interpreter, the profile-less trace
shaping rules (loop heuristic, leaf inlining) and unguarded constant
addresses."""

import gc
import itertools
import sys
import threading
import weakref

import pytest

from helpers import count_tails, interpreter_profile

from repro.ir.arith import BINOPS, MachineTrap, UNOPS
from repro.pipeline import compile_program, O2, O3_SW
from repro.pipeline.linker import Executable
from repro.pipeline.profile import block_profile_of
from repro.sim import run_jit, run_program, simulate, SIM_TIERS
from repro.sim.jit import Jit3Program, JitProgram, TRACE_CAP, run_profiling
from repro.target.isa import Instr, MemKind, Opcode, OPS
from repro.target.registers import ALL_REGISTERS, ALLOCATABLE_MASK, ZERO

T0 = ALL_REGISTERS[9]
T1 = ALL_REGISTERS[10]
T2 = ALL_REGISTERS[11]


def exe_of(*instrs) -> Executable:
    return Executable(instrs=list(instrs), entry_pc=0)


def both_tiers(exe, **kwargs):
    a = simulate(exe, sim_tier="interp", **kwargs)
    b = simulate(exe, sim_tier="jit", **kwargs)
    assert a == b
    return a


def both_tiers_trap(exe, **kwargs):
    """Both tiers must trap, with the identical message."""
    with pytest.raises(MachineTrap) as interp:
        simulate(exe, sim_tier="interp", **kwargs)
    with pytest.raises(MachineTrap) as jit:
        simulate(exe, sim_tier="jit", **kwargs)
    assert str(interp.value) == str(jit.value)
    return str(interp.value)


# -- identity on compiled programs ------------------------------------------

FIB = """
func fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
func main() { print fib(12); }
"""

LOOPS = """
var g = 0;
array data[8];
func work(a, b) { g = g + a * b; data[a & 7] = g; return data[a & 7] % 97; }
func main() {
    var i; var acc = 0;
    for (i = 0; i < 50; i = i + 1) { acc = acc + work(i, i + 3); }
    print acc; print g;
}
"""


@pytest.mark.parametrize("src", [FIB, LOOPS], ids=["fib", "loops"])
def test_tiers_bit_identical(src):
    for options in (O2, O3_SW):
        exe = compile_program(src, options).executable
        both_tiers(exe)


def test_run_stats_fields_match_in_detail():
    exe = compile_program(LOOPS, O3_SW).executable
    a = simulate(exe, sim_tier="interp")
    b = simulate(exe, sim_tier="jit")
    assert (a.cycles, a.instructions, a.calls, a.branches) == (
        b.cycles, b.instructions, b.calls, b.branches
    )
    assert a.loads == b.loads and a.stores == b.stores
    assert a.output == b.output


# -- identical trap behaviour -----------------------------------------------

def test_divide_by_zero_trap_identical():
    exe = compile_program(
        "var d = 0; func main() { print 1 / d; }", O2
    ).executable
    msg = both_tiers_trap(exe)
    assert "zero" in msg


def test_rem_by_zero_trap_identical():
    exe = compile_program(
        "var d = 0; func main() { print 1 % d; }", O2
    ).executable
    both_tiers_trap(exe)


def test_bad_load_address_trap_identical():
    exe = exe_of(
        Instr(op=Opcode.LI, rd=T0, imm=-5),
        Instr(op=Opcode.LW, rd=T1, rs=T0, imm=0),
        Instr(op=Opcode.HALT),
    )
    msg = both_tiers_trap(exe)
    assert msg == "bad load address -5 at pc=1"


def test_bad_store_address_trap_identical():
    exe = exe_of(
        Instr(op=Opcode.LI, rd=T0, imm=10 ** 9),
        Instr(op=Opcode.SW, rs=T1, rt=T0, imm=0),
        Instr(op=Opcode.HALT),
    )
    msg = both_tiers_trap(exe, stack_words=16)
    assert msg.startswith("bad store address")


def test_shift_range_trap_identical():
    exe = exe_of(
        Instr(op=Opcode.LI, rd=T0, imm=1),
        Instr(op=Opcode.LI, rd=T1, imm=64),
        Instr(op=Opcode.SLL, rd=T2, rs=T0, rt=T1),
        Instr(op=Opcode.HALT),
    )
    msg = both_tiers_trap(exe)
    assert msg == "shift amount 64 out of range"


def test_budget_trap_identical():
    exe = compile_program(
        "func main() { var i; for (i = 0; i < 1000; i = i + 1) {} }", O2
    ).executable
    msg = both_tiers_trap(exe, max_cycles=50)
    assert msg == "cycle budget exceeded"


def test_pc_outside_code_trap_identical():
    # JR to a pc past the end of the image
    exe = exe_of(
        Instr(op=Opcode.LI, rd=T0, imm=99),
        Instr(op=Opcode.JR, rs=T0),
        Instr(op=Opcode.HALT),
    )
    msg = both_tiers_trap(exe)
    assert msg == "pc 99 outside code"


def test_halt_latency_is_never_budget_checked():
    # LI (1 cycle) + HALT (1 cycle) = 2 cycles, but the interpreter has
    # never charged HALT against the budget: max_cycles=1 must complete
    exe = exe_of(Instr(op=Opcode.LI, rd=T0, imm=1), Instr(op=Opcode.HALT))
    stats = both_tiers(exe, max_cycles=1)
    assert stats.cycles == 2
    both_tiers_trap(exe, max_cycles=0)


# -- word-width shift semantics (SRL vs SRA) --------------------------------

def shift_exe(op, value, amount):
    return exe_of(
        Instr(op=Opcode.LI, rd=T0, imm=value),
        Instr(op=Opcode.LI, rd=T1, imm=amount),
        Instr(op=op, rd=T2, rs=T0, rt=T1),
        Instr(op=Opcode.PRINT, rs=T2),
        Instr(op=Opcode.HALT),
    )


@pytest.mark.parametrize("op,value,amount,expected", [
    # SRL is logical on the 64-bit word: zeros shift in at the top
    (Opcode.SRL, -8, 1, (1 << 63) - 4),
    (Opcode.SRL, -1, 60, 15),
    (Opcode.SRL, -8, 0, -8),       # no shift: the word re-signs to itself
    (Opcode.SRL, 80, 2, 20),       # non-negative: same as arithmetic
    # SRA is arithmetic: copies of the sign shift in
    (Opcode.SRA, -8, 1, -4),
    (Opcode.SRA, -1, 60, -1),
    (Opcode.SRA, 80, 2, 20),
])
def test_shift_semantics(op, value, amount, expected):
    stats = both_tiers(shift_exe(op, value, amount))
    assert stats.output == [expected]


# -- the opcode table: every value template against the interpreter ---------

OPERANDS = (0, 1, -1, 7, -8, 63, 64, 2 ** 63 - 1, -2 ** 63)
VALUE_OPS = [op for op, info in OPS.items() if info.value is not None]


def value_op_exe(op, values, loaded):
    """``op`` on ``values`` (its register sources in rs, rt order, then
    its immediate), printing the result.  The sources are set with LI,
    so the translator sees constants (and folds trap-free opcodes), or,
    if ``loaded``, read with LW from data memory, so it emits the
    template over registers."""
    info = OPS[op]
    values = list(values)
    instrs, data, fields = [], {}, {}
    for field, r in zip(info.reads, (T0, T1)):
        v = values.pop(0)
        if loaded:
            data[len(data) + 1] = v
            instrs.append(Instr(
                op=Opcode.LW, rd=r, rs=ZERO, imm=len(data),
                kind=MemKind.SCALAR,
            ))
        else:
            instrs.append(Instr(op=Opcode.LI, rd=r, imm=v))
        fields[field] = r
    imm = values.pop() if values else None
    instrs += [
        Instr(op=op, rd=T2, imm=imm, **fields),
        Instr(op=Opcode.PRINT, rs=T2),
        Instr(op=Opcode.HALT),
    ]
    return Executable(
        instrs=instrs, entry_pc=0, data_init=data, data_size=len(data) + 1,
    )


def outcome(exe, tier):
    try:
        return simulate(exe, sim_tier=tier), None
    except MachineTrap as trap:
        return None, str(trap)


@pytest.mark.parametrize("loaded", [False, True], ids=["li", "lw"])
@pytest.mark.parametrize("op", VALUE_OPS, ids=lambda op: op.name)
def test_value_ops_conform_to_interpreter_and_minic(op, loaded):
    info = OPS[op]
    arity = len(info.reads) + ("imm" in info.operands or "sym" in info.operands)
    minic = None
    if info.minic is not None:
        minic = (BINOPS if arity == 2 else UNOPS)[info.minic]
    for values in itertools.product(OPERANDS, repeat=arity):
        exe = value_op_exe(op, values, loaded)
        stats, trap = outcome(exe, "interp")
        assert outcome(exe, "jit") == (stats, trap), values
        if minic is None:
            continue
        try:
            expected = minic(*values)
        except MachineTrap as exc:
            assert trap == str(exc), values
        else:
            assert trap is None and stats.output == [expected], values


# -- the sim_tier knob ------------------------------------------------------

def test_sim_tiers_tuple():
    assert SIM_TIERS == ("auto", "interp", "jit", "jit3")


def test_unknown_tier_rejected():
    exe = compile_program("func main() {}", O2).executable
    with pytest.raises(ValueError, match="unknown sim_tier"):
        simulate(exe, sim_tier="turbo")


def test_jit_tier_rejects_interpreter_features():
    exe = compile_program("func main() {}", O2).executable
    with pytest.raises(ValueError, match="check_contracts"):
        simulate(exe, sim_tier="jit", check_contracts=True)


def test_auto_tier_falls_back_for_contracts():
    prog = compile_program(FIB, O3_SW)
    checked = prog.run(check_contracts=True)       # auto -> interpreter
    assert checked == prog.run(sim_tier="jit")


def test_block_profile_counts_blocks_on_the_translator():
    prog = compile_program(LOOPS, O2)
    profile = block_profile_of(prog)
    assert profile["work"]
    assert profile.digest() == interpreter_profile(prog).digest()


def test_compiled_program_run_accepts_sim_tier():
    prog = compile_program(FIB, O2)
    assert prog.run(sim_tier="interp") == prog.run(sim_tier="jit")


# -- translation caching and dynamic targets --------------------------------

def test_translation_cached_on_executable():
    exe = compile_program(FIB, O2).executable
    run_jit(exe)
    cache = exe._jit_cache
    assert len(cache) == 1
    prog = next(iter(cache.values()))
    assert isinstance(prog, JitProgram)
    run_jit(exe)
    assert next(iter(exe._jit_cache.values())) is prog
    # a different budget bakes different literals: separate translation
    run_jit(exe, max_cycles=10 ** 7)
    assert len(exe._jit_cache) == 2


def test_straight_line_code_is_cut_at_the_trace_cap():
    exe = exe_of(
        *[Instr(op=Opcode.ADDI, rd=T0, rs=T0, imm=1)] * (TRACE_CAP + 100),
        Instr(op=Opcode.PRINT, rs=T0),
        Instr(op=Opcode.HALT),
    )
    stats = both_tiers(exe)
    assert stats.output == [TRACE_CAP + 100]
    (prog,) = exe._jit_cache.values()
    assert prog.jit3_stats["traces"] == 2
    assert prog.jit3_stats["max_trace_len"] == TRACE_CAP


def test_jr_into_mid_block_translates_on_demand():
    # pc 4 is no leader (only HALT fall-through pc 3 is); the dynamic
    # jump forces on-demand translation mid-run
    exe = exe_of(
        Instr(op=Opcode.LI, rd=T0, imm=4),
        Instr(op=Opcode.JR, rs=T0),
        Instr(op=Opcode.HALT),
        Instr(op=Opcode.LI, rd=T1, imm=6),
        Instr(op=Opcode.PRINT, rs=T1),
        Instr(op=Opcode.HALT),
    )
    stats = both_tiers(exe)
    assert stats.output == [0]  # pc 3 was skipped, so t1 is still 0


def test_writes_to_zero_register_are_discarded():
    zero = ALL_REGISTERS[0]
    exe = exe_of(
        Instr(op=Opcode.LI, rd=zero, imm=123),
        Instr(op=Opcode.PRINT, rs=zero),
        Instr(op=Opcode.HALT),
    )
    stats = both_tiers(exe)
    assert stats.output == [0]


def test_interpreter_oracle_still_importable_directly():
    exe = compile_program(FIB, O2).executable
    assert run_program(exe) == run_jit(exe)


# -- translation on first entry ---------------------------------------------

LAZY = """
var g = 0;
func unused(x) { return x * 3 + g; }
func main() {
    var i; var s = 0;
    for (i = 0; i < 10; i = i + 1) { if (i > 4) { s = s + i; } }
    if (s > 20) { s = s - 1; }
    print s;
}
"""


def _static_targets(exe):
    """Every pc some static branch, jump or call names as its target."""
    return {
        ins.imm for ins in exe.instrs
        if ins.op in (Opcode.B, Opcode.BEQZ, Opcode.BNEZ, Opcode.JAL)
    }


def _in_loop(exe, pc):
    """Whether ``pc`` lies between a backward branch and its target."""
    return any(
        ins.imm <= pc <= latch
        for latch, ins in enumerate(exe.instrs)
        if ins.op in (Opcode.B, Opcode.BEQZ, Opcode.BNEZ)
        and ins.imm <= latch
    )


def test_only_entered_superblocks_are_translated():
    exe = compile_program(LAZY, O2).executable
    prog = JitProgram(exe)
    assert not prog.table           # nothing is translated before run
    assert prog.run() == run_program(exe)
    # a function that is never called is never translated
    assert exe.func_entries["unused"] not in prog.table
    # nor is a fall-through after a conditional branch outside loops
    # that nothing else targets: the trace ending in the branch runs it
    # inline (inside a loop, the loop heuristic may follow the taken
    # arm instead and leave the fall-through to a side exit)
    targets = _static_targets(exe)
    inline_only = [
        pc for pc in range(1, len(exe.instrs))
        if exe.instrs[pc - 1].op in (Opcode.BEQZ, Opcode.BNEZ)
        and not _in_loop(exe, pc - 1)
        and pc not in targets and pc not in exe.func_at_pc
    ]
    assert inline_only
    assert not set(inline_only) & set(prog.table)


def test_second_run_reuses_the_cached_translation():
    exe = compile_program(LAZY, O2).executable
    first = run_jit(exe)
    prog = next(iter(exe._jit_cache.values()))
    translated = dict(prog.table)
    second = run_jit(exe)
    assert next(iter(exe._jit_cache.values())) is prog
    assert prog.table == translated  # nothing new was translated
    assert first == second == run_program(exe)


STAGED = """
func a(x) { return x + 1; }
func b(x) { return x * 2; }
func c(x) { if (x & 1) { return x - 3; } return x + 5; }
func main() {
    var i; var s = 0;
    for (i = 0; i < 300; i = i + 1) {
        if (i > 100) { s = s + a(i); }
        if (i > 200) { s = s + b(i); }
        s = s + c(i);
    }
    print s;
}
"""


def test_overlapping_runs_share_one_translation():
    # the compile service runs one cached program for concurrent
    # identical requests, so one run can translate while another is
    # mid-flight (this program reaches new code at i = 101 and 201),
    # with or without a profile
    built = compile_program(STAGED, O2)
    exe = built.executable
    profile = block_profile_of(built, attach=False)
    expected = run_program(exe)
    makers = (
        lambda: JitProgram(exe),
        lambda: Jit3Program(exe, profile=profile),
    )
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for make in makers * 5:
            prog = make()
            start = threading.Barrier(4)
            results, errors = [], []

            def worker():
                start.wait()
                try:
                    results.append(prog.run())
                except Exception as exc:  # surfaced by the asserts below
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert results == [expected] * 4
            assert prog.run() == expected
            assert not prog._live      # every run unregistered its counters
    finally:
        sys.setswitchinterval(old_interval)


# -- trace shaping without a profile ----------------------------------------

LEAF_LOOP = """
var g = 0;
func leaf(x) { return x * 3 + 1; }
func main() {
    var i = 0; var s = 0;
    while (i < 10) { s = s + leaf(i); g = g + s; i = i + 1; }
    print s; print g;
}
"""


@pytest.mark.parametrize("options", [O2, O3_SW], ids=["O2", "O3_SW"])
def test_tier2_links_loops_and_inlines_leaves(options):
    exe = compile_program(LEAF_LOOP, options).executable
    assert simulate(exe, sim_tier="jit") == run_program(exe)
    (prog,) = exe._jit_cache.values()
    info = prog.jit3_stats
    assert info["linked_loops"] >= 1
    assert info["inlined_calls"] >= 1
    assert info["linked_returns"] >= 1
    # the inlined leaf's entry is never entered, so never translated
    assert exe.func_entries["leaf"] not in prog.table


def test_tier2_run_stats_report_its_decisions():
    stats = compile_program(LOOPS, O2).run(sim_tier="jit")
    assert stats.jit3["linked_loops"] >= 1


def test_profiling_translation_inlines_leaves(monkeypatch):
    built = compile_program(LEAF_LOOP, O2)
    kept = []
    execute = JitProgram._execute

    def keep(self):
        kept.append(self)
        return execute(self)

    monkeypatch.setattr(JitProgram, "_execute", keep)
    profile = block_profile_of(built, attach=False)
    (prog,) = kept
    assert prog.jit3_stats["inlined_calls"] >= 1
    assert profile.digest() == interpreter_profile(built).digest()


@pytest.mark.parametrize("trap", [False, True])
def test_profiling_translation_freed_on_return(monkeypatch, trap):
    # the translation serves one run: it must not outlive it, even
    # where only a full collection would find its reference cycles
    exe = exe_of(
        Instr(op=Opcode.LI, rd=T0, imm=-5 if trap else 1),
        Instr(op=Opcode.LW, rd=T1, rs=T0, imm=0, kind=MemKind.SCALAR),
        Instr(op=Opcode.PRINT, rs=T1),
        Instr(op=Opcode.HALT),
    )
    refs = []
    execute = JitProgram._execute

    def keep(self):
        refs.append(weakref.ref(self))
        return execute(self)

    monkeypatch.setattr(JitProgram, "_execute", keep)
    gc.disable()
    try:
        try:
            run_profiling(exe, block_counts={0: 0})
        except MachineTrap:
            assert trap
        else:
            assert not trap
        (ref,) = refs
        assert ref() is None
    finally:
        gc.enable()


def test_constant_addresses_need_no_bounds_test():
    # a load off $zero and a store off an LI-set register index memory
    # with the literal address; a loaded base keeps the runtime test
    exe = Executable(
        instrs=[
            Instr(op=Opcode.LW, rd=T0, rs=ZERO, imm=1, kind=MemKind.SCALAR),
            Instr(op=Opcode.LI, rd=T1, imm=2),
            Instr(op=Opcode.SW, rs=T0, rt=T1, imm=1, kind=MemKind.SCALAR),
            Instr(op=Opcode.LW, rd=T2, rs=T0, imm=0, kind=MemKind.SCALAR),
            Instr(op=Opcode.PRINT, rs=T2),
            Instr(op=Opcode.HALT),
        ],
        entry_pc=0, data_init={1: 3, 3: 5}, data_size=4,
    )
    assert both_tiers(exe).output == [3]
    source = JitProgram(exe)._translate_superblock(0)
    lines = source.splitlines()
    assert f"    r{T0.index} = m[1]" in lines
    assert f"    m[3] = r{T0.index}" in lines
    assert f"    r{T2.index} = m[a]" in lines
    assert sum("if a < 1" in ln for ln in lines) == 1   # the last load


@pytest.mark.parametrize("op", [Opcode.LW, Opcode.SW])
@pytest.mark.parametrize("addr", [-1, 0, 1, 15, 16, 17])
def test_constant_addresses_at_the_memory_bounds(op, addr):
    # memory is words 1..15 here (data_size 4 + stack_words 12): a
    # constant address outside keeps the runtime test and its trap
    fields = dict(rd=T0, rs=ZERO) if op == Opcode.LW else dict(rs=T0, rt=ZERO)
    exe = Executable(
        instrs=[
            Instr(op=op, imm=addr, kind=MemKind.SCALAR, **fields),
            Instr(op=Opcode.HALT),
        ],
        entry_pc=0, data_size=4,
    )
    if 1 <= addr < 16:
        both_tiers(exe, stack_words=12)
    else:
        msg = both_tiers_trap(exe, stack_words=12)
        assert msg.endswith(f" address {addr} at pc=0")


@pytest.mark.parametrize("profiled", [False, True], ids=["jit", "jit3"])
def test_compiled_global_access_has_no_bounds_test(profiled):
    # the loop header's trace runs the body: it reads and writes ``g``
    # at its literal address and touches no other memory, with or
    # without a profile
    built = compile_program(LEAF_LOOP, O2)
    exe = built.executable
    addr, _ = exe.data_layout["g"]
    header = next(
        pc for label, pc in exe.labels.items()
        if label.startswith("main.wcond")
    )
    prog = (
        Jit3Program(exe, profile=block_profile_of(built, attach=False))
        if profiled else JitProgram(exe)
    )
    source = prog._translate_superblock(header)
    assert "if a <" not in source
    assert f"= m[{addr}]" in source and f"m[{addr}] = " in source


def test_tier2_budget_traps_are_identical_at_every_cycle_count():
    # one program with a linked loop, an inlined leaf and a constant-
    # address load and store, at every budget up to its cycle count:
    # the hand-off to the interpreter and linked transfers (which skip
    # interpreter check points) must trap exactly as it does
    exe = compile_program(LEAF_LOOP, O2).executable
    full = run_program(exe)
    prog = JitProgram(exe)
    assert prog.run() == full
    assert prog.jit3_stats["linked_loops"] >= 1
    assert prog.jit3_stats["inlined_calls"] >= 1
    assert any(i.op == Opcode.LW and i.rs == ZERO for i in exe.instrs)
    assert any(i.op == Opcode.SW and i.rt == ZERO for i in exe.instrs)

    def outcome(run, budget):
        try:
            return run(budget), None
        except MachineTrap as trap:
            return None, str(trap)

    for budget in range(full.cycles + 2):
        assert outcome(
            lambda b: JitProgram(exe, max_cycles=b).run(), budget
        ) == outcome(
            lambda b: run_program(exe, max_cycles=b), budget
        ), budget


def test_fall_through_onto_the_loop_header_links():
    # an inlined leaf placed just before the caller's loop header falls
    # through onto it: the trace links that as a back-edge, which must
    # run (and trap at every budget) exactly as the interpreter does
    exe = Executable(
        instrs=[
            Instr(op=Opcode.ADDI, rd=T1, rs=T1, imm=1),   # f
            Instr(op=Opcode.ADDI, rd=T1, rs=T1, imm=2),
            Instr(op=Opcode.ADDI, rd=T0, rs=T0, imm=1),   # main, header
            Instr(op=Opcode.ADDI, rd=T2, rs=T0, imm=-3),
            Instr(op=Opcode.BEQZ, rs=T2, imm=7),
            Instr(op=Opcode.JAL, imm=0),
            Instr(op=Opcode.B, imm=2),
            Instr(op=Opcode.PRINT, rs=T1),
            Instr(op=Opcode.HALT),
        ],
        entry_pc=2,
        func_entries={"f": 0, "main": 2},
        func_at_pc={0: "f", 2: "main"},
        preserved_masks={"f": ALLOCATABLE_MASK},
    )
    full = both_tiers(exe)
    assert full.output == [6]
    (prog,) = exe._jit_cache.values()
    assert prog.jit3_stats["inlined_calls"] == 1
    assert prog.jit3_stats["linked_loops"] == 1
    for budget in range(full.cycles + 2):
        try:
            assert both_tiers(exe, max_cycles=budget) == full
        except MachineTrap:
            both_tiers_trap(exe, max_cycles=budget)


def test_profile_of_a_run_that_hands_off_and_halts(monkeypatch):
    # a trace's entry test counts its worst-case accrual, HALT's latency
    # included, which the interpreter never checks: just under and just
    # over the full cycle count the last trace hands off, and the
    # interpreter halts within budget, counting the blocks it visits
    tails = count_tails(monkeypatch)
    built = compile_program(LEAF_LOOP, O2)
    full = run_program(built.executable).cycles
    for budget in (full - 1, full + 1):
        tails.clear()
        profile = block_profile_of(built, attach=False, max_cycles=budget)
        assert len(tails) == 1, budget
        assert profile.digest() == interpreter_profile(
            built, max_cycles=budget
        ).digest(), budget
