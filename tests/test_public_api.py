"""Public API surface tests."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_docstring_example_works():
    from repro import compile_and_run, O2, O3_SW

    src = "func main() { print 42; }"
    base = compile_and_run(src, O2)
    opt = compile_and_run(src, O3_SW)
    assert base.output == opt.output == [42]


def test_paper_config_names():
    from repro import PAPER_CONFIGS

    assert set(PAPER_CONFIGS) == {"base", "A", "B", "C", "D", "E"}
    assert not PAPER_CONFIGS["base"].shrink_wrap
    assert PAPER_CONFIGS["A"].shrink_wrap and not PAPER_CONFIGS["A"].ipra
    assert PAPER_CONFIGS["B"].ipra and not PAPER_CONFIGS["B"].shrink_wrap
    assert PAPER_CONFIGS["C"].ipra and PAPER_CONFIGS["C"].shrink_wrap
    assert len(PAPER_CONFIGS["D"].convention.allocatable) == 7
    assert len(PAPER_CONFIGS["E"].convention.allocatable) == 7


def test_subpackages_importable():
    import repro.benchsuite
    import repro.cfg
    import repro.dataflow
    import repro.frontend
    import repro.interproc
    import repro.ir
    import repro.pipeline
    import repro.regalloc
    import repro.shrinkwrap
    import repro.sim
    import repro.target  # noqa: F401


def test_lazy_target_exports():
    from repro.target import CodegenError, Frame, build_frame, generate_function

    assert callable(generate_function)
    assert callable(build_frame)
    assert isinstance(CodegenError, type)
    assert isinstance(Frame, type)
