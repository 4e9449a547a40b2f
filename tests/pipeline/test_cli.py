"""CLI smoke tests (python -m repro)."""

from pathlib import Path

import pytest

from repro.__main__ import main

PROGRAMS = Path(__file__).resolve().parents[2] / "examples" / "programs"


@pytest.fixture
def src_file(tmp_path):
    f = tmp_path / "prog.mc"
    f.write_text("func main() { print 6 * 7; }")
    return str(f)


def test_run_command(capsys, src_file):
    assert main(["run", src_file]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_run_with_all_opt_levels(capsys, src_file):
    for level in "0123":
        assert main(["run", src_file, "-O", level, "--check"]) == 0
        assert capsys.readouterr().out.strip() == "42"


def test_compile_error_is_one_line(capsys, tmp_path):
    bad = tmp_path / "bad.mc"
    bad.write_text("func main() { var x = ; }")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: 1:23: expected an expression")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_input_is_one_line(capsys, tmp_path):
    missing = tmp_path / "missing.mc"
    assert main(["run", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err == f"repro: cannot read {missing}: No such file or directory\n"


def test_undecodable_input_is_one_line(capsys, tmp_path):
    bad = tmp_path / "bad.mc"
    bad.write_bytes(b"func main() { print 1; } \xff\xfe")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"repro: cannot read {bad}: ")
    assert err.count("\n") == 1


def test_machine_trap_is_one_line(capsys, tmp_path):
    bad = tmp_path / "trap.mc"
    bad.write_text(
        "func d(x) { return 10 / x; } func main() { print d(0); }"
    )
    assert main(["run", str(bad), "--sim-tier", "jit"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "repro: integer divide by zero\n"


def test_stats_command(capsys, src_file):
    assert main(["stats", src_file]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "scalar_loads" in out


def test_asm_command(capsys, src_file):
    assert main(["asm", src_file]) == 0
    out = capsys.readouterr().out
    assert "main:" in out
    assert "jr $ra" in out


def test_ir_command(capsys, src_file):
    assert main(["ir", src_file]) == 0
    assert "func main" in capsys.readouterr().out


def test_report_command(capsys, src_file):
    assert main(["report", src_file, "-O", "3"]) == 0
    out = capsys.readouterr().out
    assert "procedure main" in out


def test_dot_command(capsys, src_file):
    assert main(["dot", src_file, "-O", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_register_restriction_flags(capsys, src_file):
    assert main(["run", src_file, "-O", "3", "--shrink-wrap",
                 "--callers", "7", "--check"]) == 0
    assert capsys.readouterr().out.strip() == "42"
    assert main(["run", src_file, "-O", "3", "--callees", "7",
                 "--check"]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_multi_module_cli(capsys, tmp_path):
    m1 = tmp_path / "m1.mc"
    m1.write_text("extern func h(1); func main() { print h(20); }")
    m2 = tmp_path / "m2.mc"
    m2.write_text("func h(x) { return x * 2 + 2; }")
    assert main(["run", str(m1), str(m2), "-O", "3"]) == 0
    assert capsys.readouterr().out.strip() == "42"


@pytest.mark.parametrize("name", ["primes.mc", "sort.mc"])
def test_example_programs(capsys, name):
    path = PROGRAMS / name
    assert path.exists()
    assert main(["run", str(path), "-O", "3", "--shrink-wrap",
                 "--check"]) == 0
    base = capsys.readouterr().out
    assert main(["run", str(path), "-O", "0"]) == 0
    assert capsys.readouterr().out == base


@pytest.mark.parametrize("flag,config", [
    ("--callers", "D"), ("--callees", "E"),
])
def test_restricted_register_flags_build_the_paper_configs(
    monkeypatch, capsys, flag, config,
):
    import repro.__main__ as cli
    from repro.pipeline import compile_program, PAPER_CONFIGS

    built = []

    def capture(sources, options):
        built.append(compile_program(sources, options))
        return built[-1]

    monkeypatch.setattr(cli, "compile_program", capture)
    path = PROGRAMS / "sort.mc"
    assert main(
        ["run", str(path), "-O", "3", "--shrink-wrap", flag, "7"]
    ) == 0
    capsys.readouterr()
    (prog,) = built
    ref = compile_program([(path.stem, path.read_text())],
                          PAPER_CONFIGS[config])
    assert prog.options.convention == PAPER_CONFIGS[config].convention
    assert prog.executable.fingerprint() == ref.executable.fingerprint()
