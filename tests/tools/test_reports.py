"""Diagnostic-report tests."""

import asyncio
import re

import pytest

from repro.pipeline import compile_program, O2, O3_SW
from repro.tools import (
    allocation_report,
    call_graph_dot,
    describe_options,
    disassemble,
    interference_summary,
    program_report,
    service_report,
    store_report,
)

SRC = """
func leaf(x) { return x * 2; }
func mid(a, b) { return leaf(a) + leaf(b) + a; }
func rec(n) { if (n > 0) { return rec(n - 1) + 1; } return 0; }
func main() { print mid(1, 2) + rec(3); }
"""


@pytest.fixture(scope="module")
def prog():
    return compile_program(SRC, O3_SW)


def test_allocation_report_contains_decisions(prog):
    text = allocation_report(prog.plan.plans["mid"])
    assert "procedure mid [closed]" in text
    assert "value" in text
    assert "summary (subtree may destroy)" in text


def test_program_report_covers_all_functions(prog):
    text = program_report(prog)
    for name in ("leaf", "mid", "rec", "main"):
        assert f"procedure {name}" in text


def test_describe_options(prog):
    assert describe_options(prog) == "-O3 +shrink-wrap"
    o2 = compile_program(SRC, O2)
    assert describe_options(o2) == "-O2"


def test_call_graph_dot_structure(prog):
    dot = call_graph_dot(prog.plan)
    assert dot.startswith("digraph")
    assert '"main" -> "mid"' in dot
    assert '"mid" -> "leaf"' in dot
    # open procedures drawn double-circled
    assert 'doublecircle' in dot
    assert dot.count('"rec"') >= 2  # node + self edge


def test_disassemble_whole_program(prog):
    text = disassemble(prog.executable)
    assert "main:" in text
    assert "jr $ra" in text
    assert "jal" in text


def test_disassemble_single_function(prog):
    text = disassemble(prog.executable, "leaf")
    assert "leaf" in text
    assert "mid:" not in text


def test_disassemble_prints_data_offsets_relative_to_the_symbol():
    # linking folds a data symbol's address into lw/sw's offset; the
    # listing must subtract it again (g sits at 1, a at 2)
    exe = compile_program(
        "var g = 3; array a[4];\nfunc main() { print a[2]; print g; }", O2
    ).executable
    assert exe.data_layout == {"g": (1, 1), "a": (2, 4)}
    text = disassemble(exe)
    assert re.search(r"lw \$\w+, a\+2$", text, re.M)
    assert re.search(r"lw \$\w+, g$", text, re.M)
    assert "a+4" not in text and "g+1" not in text
    # the linked image itself is untouched
    assert [i.imm for i in exe.instrs if i.label in ("a", "g")] == [4, 1]


def test_interference_summary(prog):
    text = interference_summary(prog.plan.plans["mid"])
    assert text.startswith("mid:")
    assert "ranges" in text


def test_store_report_counters(tmp_path):
    from repro.store import ArtifactStore

    store = ArtifactStore(tmp_path)
    store.put("plan", ("k",), {"v": 1})
    assert store.get("plan", ("k",)) is not None
    store.scrub()
    text = store_report(store)
    assert "1 hits" in text
    assert "1 writes" in text
    assert "1 scrub passes" in text
    assert "0 quarantined" in text
    assert "locking:" in text


def test_service_report_counters(tmp_path):
    from repro.service import CompileService

    async def scenario():
        svc = CompileService(O2, store_path=tmp_path)
        await svc.compile(SRC)
        await svc.join()
        return svc

    svc = asyncio.run(scenario())
    text = service_report(svc)
    assert "service: 1 requests" in text
    assert "1 compiled" in text
    assert "0 degraded" in text
    assert "store:" in text          # attached store rolls up too
