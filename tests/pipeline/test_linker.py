"""IR-level and executable-level linking tests."""

import pytest

from helpers import lower

from repro.frontend import LinkError
from repro.pipeline import (
    compile_module,
    compile_program,
    link_executable,
    link_ir_modules,
    link_modules,
    ObjectCode,
    O2,
)
from repro.sim import run_program
from repro.target.isa import AsmFunction, Instr, Opcode
from repro.target.registers import RA, SP, V0


def test_ir_link_merges_symbols():
    m2 = lower("var g2 = 2; func h() { return g2; }", "m2")
    # main calls h which m1 does not define: declare it extern
    m1b = lower(
        "var g = 1; extern func h(0); func main() { print g + h(); }", "m1"
    )
    prog = link_ir_modules([m1b, m2])
    assert set(prog.functions) == {"main", "h"}
    assert prog.globals == {"g": 1, "g2": 2}


def test_ir_link_detects_duplicate_function():
    m1 = lower("func f() {}", "m1")
    m2 = lower("func f() {}", "m2")
    with pytest.raises(LinkError, match="duplicate function"):
        link_ir_modules([m1, m2])


def test_ir_link_detects_duplicate_global():
    m1 = lower("var g;", "m1")
    m2 = lower("var g;", "m2")
    with pytest.raises(LinkError, match="duplicate global"):
        link_ir_modules([m1, m2])


def test_ir_link_detects_global_array_clash():
    m1 = lower("var s;", "m1")
    m2 = lower("array s[4];", "m2")
    with pytest.raises(LinkError, match="duplicate global"):
        link_ir_modules([m1, m2])


def test_unresolved_extern_rejected():
    m1 = lower("extern func ghost(0); func main() { ghost(); }", "m1")
    with pytest.raises(LinkError, match="unresolved extern"):
        link_ir_modules([m1])


def test_extern_arity_mismatch_rejected():
    m1 = lower("extern func h(2); func main() { h(1, 2); }", "m1")
    m2 = lower("func h(x) { return x; }", "m2")
    with pytest.raises(LinkError, match="arity"):
        link_ir_modules([m1, m2])


def test_executable_missing_entry_rejected():
    cm = compile_module(("m", "func f() {}"), O2)
    with pytest.raises(LinkError, match="entry point"):
        link_modules([cm])


def test_duplicate_object_symbols_rejected():
    cm1 = compile_module(("m1", "func f() {} func main() { f(); }"), O2)
    cm2 = compile_module(("m2", "func f() {}"), O2)
    with pytest.raises(LinkError, match="duplicate function symbol"):
        link_modules([cm1, cm2])


def test_data_layout_reserves_null_address():
    prog = compile_program("var g = 9; func main() { print g; }", O2)
    for sym, (addr, size) in prog.executable.data_layout.items():
        assert addr >= 1


def test_relocations_fully_resolved():
    prog = compile_program(
        """
        var g = 1;
        array a[3];
        func h(x) { return x + g + a[0]; }
        func main() { var p = &h; print p(1); }
        """,
        O2,
    )
    from repro.target.isa import Opcode

    for ins in prog.executable.instrs:
        if ins.op in (Opcode.B, Opcode.BEQZ, Opcode.BNEZ, Opcode.JAL,
                      Opcode.LA, Opcode.LW, Opcode.SW, Opcode.LI):
            if ins.label is not None:
                assert ins.imm is not None


def test_separate_compilation_matches_whole_program():
    m1 = ("m1", """
        extern func combine(2);
        var base = 100;
        func main() { print combine(base, 23); }
    """)
    m2 = ("m2", """
        func twice(x) { return x * 2; }
        func combine(a, b) { return twice(a) + b; }
    """)
    separate = link_modules([compile_module(m1, O2), compile_module(m2, O2)])
    sep_out = run_program(separate, check_contracts=True).output
    whole = compile_program([m1, m2], O2).run(check_contracts=True).output
    assert sep_out == whole == [223]


def test_cross_module_globals_and_arrays():
    m1 = ("m1", """
        extern func fill(0);
        array shared[4];
        func main() { fill(); print shared[2]; }
    """)
    m2 = ("m2", """
        extern func fill_done(0);
        func fill() {
            shared[2] = 77;
            fill_done();
        }
        func fill_done() {}
    """)
    # m2 references `shared`, declared in m1: MiniC requires the array
    # declaration in scope, so m2 declares it too -- that is a duplicate.
    # Instead verify the supported pattern: data lives with its module.
    m2_ok = ("m2", """
        array shared2[4];
        func fill() { shared2[2] = 77; }
        func get() { return shared2[2]; }
    """)
    m1_ok = ("m1", """
        extern func fill(0);
        extern func get(0);
        func main() { fill(); print get(); }
    """)
    exe = link_modules([compile_module(m1_ok, O2), compile_module(m2_ok, O2)])
    assert run_program(exe).output == [77]


# -- executable-level link errors, on hand-built object code ----------------

def asm(name, *instrs, labels=None):
    """A hand-built procedure: ``instrs`` then a return."""
    return AsmFunction(
        name, [*instrs, Instr(Opcode.JR, rs=RA)], dict(labels or {})
    )


def obj(*functions, globals=None, arrays=None):
    return ObjectCode(
        functions={fn.name: fn for fn in functions},
        globals=dict(globals or {}),
        arrays=dict(arrays or {}),
    )


def test_hand_built_objects_link_and_relocate():
    exe = link_executable([
        obj(asm("main",
                Instr(Opcode.JAL, label="f"),
                Instr(Opcode.LA, rd=V0, label="g"),
                Instr(Opcode.LW, rd=V0, rs=SP, imm=1, label="a"),
                Instr(Opcode.B, label="main.done"),
                labels={4: ["main.done"]}),
            globals={"g": 5}, arrays={"a": 3}),
        obj(asm("f")),
    ])
    assert exe.data_layout == {"g": (1, 1), "a": (2, 3)}
    assert exe.data_init == {1: 5}
    assert exe.func_entries == {"main": 2, "f": 7}
    assert exe.labels["main.done"] == 6
    assert [ins.imm for ins in exe.instrs[:6]] == [2, None, 7, 1, 3, 6]


def test_duplicate_data_symbol_rejected():
    with pytest.raises(LinkError, match="^duplicate data symbol 'g'$"):
        link_executable([
            obj(asm("main"), globals={"g": 1}),
            obj(asm("f"), arrays={"g": 4}),
        ])


def test_duplicate_label_rejected():
    with pytest.raises(LinkError, match="^duplicate label 'x'$"):
        link_executable([
            obj(asm("main", Instr(Opcode.B, label="x"), labels={0: ["x"]})),
            obj(asm("f", labels={0: ["x"]})),
        ])


@pytest.mark.parametrize("instr, message", [
    (Instr(Opcode.B, label="nowhere"), "unresolved code symbol 'nowhere'"),
    (Instr(Opcode.LA, rd=V0, label="nowhere"), "unresolved symbol 'nowhere'"),
    (Instr(Opcode.LW, rd=V0, rs=SP, label="nowhere"),
     "unresolved data symbol 'nowhere'"),
])
def test_unresolved_symbols_rejected(instr, message):
    with pytest.raises(LinkError, match=f"^{message}$"):
        link_executable([obj(asm("main", instr))])


def test_missing_entry_wins_over_unresolved_symbol():
    # the entry point is checked before any relocation is attempted
    with pytest.raises(LinkError, match="^entry point 'main' not defined$"):
        link_executable([obj(asm("f", Instr(Opcode.B, label="nowhere")))])
