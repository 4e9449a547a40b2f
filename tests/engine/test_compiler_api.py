"""The `repro.Compiler` session façade and eager options validation."""

import pytest

import repro
from repro import Compiler, CompilerOptions, O2, O3_SW, OptionsError
from repro.pipeline.driver import (
    compile_and_run,
    compile_module,
    compile_program,
    link_modules,
)
from repro.target.registers import DEFAULT_CONVENTION

SRC = "func main() { print 41 + 1; }"


def test_compiler_is_exported():
    assert "Compiler" in repro.__all__
    assert repro.Compiler is Compiler
    assert "OptionsError" in repro.__all__


def test_session_matches_one_shot_helpers():
    prog = Compiler(O3_SW).add_source(SRC).compile()
    ref = compile_program(SRC, O3_SW)
    assert [repr(i) for i in prog.executable.instrs] == [
        repr(i) for i in ref.executable.instrs
    ]
    assert Compiler(O3_SW).add_source(SRC).run().output == [42]
    assert compile_and_run(SRC, O3_SW).output == [42]


def test_source_naming_and_replacement():
    c = Compiler(O2)
    c.add_source("func main() { print 1; }")
    c.add_source("func helper(a) { return a; }")
    assert [name for name, _ in c.sources] == ["main", "module1"]
    c.add_source(("main", SRC))  # replaces in place, keeps position
    assert [name for name, _ in c.sources] == ["main", "module1"]
    assert c.sources[0][1] == SRC


def test_separate_compilation_and_link_roundtrip():
    util = ("util", "func util(a) { return a * 2; }")
    main = ("main", "extern func util(1); func main() { print util(21); }")
    session = Compiler(O3_SW)
    mods = [session.compile_module(main), session.compile_module(util)]
    exe = session.link(mods)
    ref = link_modules([compile_module(main, O3_SW), compile_module(util, O3_SW)])
    assert [repr(i) for i in exe.instrs] == [repr(i) for i in ref.instrs]

    from repro.sim import run_program

    assert run_program(exe).output == [42]


def test_compile_without_sources_raises():
    with pytest.raises(OptionsError):
        Compiler(O2).compile()


def test_set_options_validates_and_chains():
    c = Compiler(O2).set_options(shrink_wrap=True)
    assert c.options.shrink_wrap
    with pytest.raises(OptionsError):
        c.set_options(opt_level=7)
    assert c.options.opt_level == 2  # rejected update leaves options alone


@pytest.mark.parametrize(
    "options",
    [
        CompilerOptions(opt_level=5),
        CompilerOptions(opt_level=-1),
        CompilerOptions(opt_level=True),
        CompilerOptions(
            opt_level=2, convention=DEFAULT_CONVENTION.with_allocatable(())
        ),
        CompilerOptions(entry=""),
        CompilerOptions(entry=42),
        CompilerOptions(block_weights={"f": {"b": -1}}),
        CompilerOptions(block_weights={"f": [1, 2]}),
        CompilerOptions(block_weights="nope"),
    ],
)
def test_bad_options_rejected_at_construction(options):
    with pytest.raises(OptionsError):
        Compiler(options)


def test_empty_register_file_fine_below_o2():
    c = Compiler(CompilerOptions(
        opt_level=1, convention=DEFAULT_CONVENTION.with_allocatable(())
    ))
    assert c.add_source(SRC).run().output == [42]


def test_unknown_entry_raises_options_error():
    with pytest.raises(OptionsError):
        Compiler(O2.with_(entry="missing")).add_source(SRC).compile()
