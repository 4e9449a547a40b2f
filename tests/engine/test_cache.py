"""Cache accounting and invalidation-cascade behaviour of the engine."""

import json

import pytest

from repro import Compiler, O2, O3_SW
from repro.benchsuite import benchmark_names, load_benchmarks
from repro.engine.frontend import split_chunks
from repro.pipeline.driver import _reference_compile_program

#: diamond call graph -- main -> {left, right}, left -> leaf, right -> leaf2
PROGRAM = """
var g = 1;

func leaf(x) {{ return x + {leaf_body}; }}

func leaf2(x) {{ return x * 2; }}

func left(a) {{ return leaf(a) + g; }}

func right(a) {{ return leaf2(a) - g; }}

func main() {{ print left(2) + right(3); }}
"""


def stage(session, name):
    return session.stats.records[-1].stages[name]


def compile_once(session, leaf_body="1"):
    session.add_source(("main", PROGRAM.format(leaf_body=leaf_body)))
    return session.compile()


def test_cold_then_warm_accounting():
    session = Compiler(O3_SW)
    compile_once(session)
    assert stage(session, "frontend").misses == 5
    assert stage(session, "frontend").hits == 0
    assert stage(session, "plan").misses == 5
    assert stage(session, "codegen").misses == 5
    assert session.stats.records[-1].invalidated == 5

    compile_once(session)  # identical text: everything hits
    assert stage(session, "frontend").misses == 0
    assert stage(session, "frontend").hits == 5
    assert stage(session, "plan").misses == 0
    assert stage(session, "plan").hits == 5
    assert stage(session, "codegen").misses == 0
    assert session.stats.records[-1].invalidated == 0


def test_single_edit_invalidates_only_ancestor_chain():
    session = Compiler(O3_SW)
    compile_once(session, leaf_body="1")
    compile_once(session, leaf_body="g * 3")
    # only the edited chunk re-lowers
    assert stage(session, "frontend").misses == 1
    assert stage(session, "frontend").hits == 4
    # re-planned: leaf itself plus the ancestors whose view of a callee
    # summary changed -- never the right/leaf2 branch of the diamond
    replanned = stage(session, "plan").misses
    assert 1 <= replanned <= 3
    assert stage(session, "plan").hits == 5 - replanned
    assert session.stats.records[-1].invalidated == replanned


def test_option_flip_invalidates_plans_not_frontend():
    session = Compiler(O2)
    compile_once(session)
    session.set_options(shrink_wrap=True)
    compile_once(session)
    assert stage(session, "frontend").misses == 0
    assert stage(session, "frontend").hits == 5
    assert stage(session, "plan").misses == 5
    # flipping back re-hits the earlier plans
    session.set_options(shrink_wrap=False)
    compile_once(session)
    assert stage(session, "plan").misses == 0
    assert stage(session, "plan").hits == 5


def test_compile_module_caches_too():
    session = Compiler(O3_SW)
    src = ("m", "func f(a) { return a + 1; } func g(a) { return f(a); }")
    session.compile_module(src)
    session.compile_module(src)
    assert stage(session, "frontend").hits == 2
    assert stage(session, "plan").hits == 2
    assert stage(session, "codegen").hits == 2


def edit_one_procedure(source: str) -> str:
    """A one-procedure edit: a comment in the body of the middle
    function, so that chunk's text changes, its siblings stay
    byte-identical and the program does not."""
    split = split_chunks(source)
    assert split is not None, "benchmark sources must be chunkable"
    _, chunks = split
    chunk = chunks[len(chunks) // 2]
    brace = chunk.text.rfind("}")
    edited = chunk.text[:brace] + "/* edit */ " + chunk.text[brace:]
    return source.replace(chunk.text, edited, 1)


@pytest.mark.parametrize("name", benchmark_names())
def test_warm_recompile_after_one_edit_redoes_only_its_front_end(name):
    source = load_benchmarks()[name].source
    session = Compiler(O3_SW)
    session.add_source(("main", source))
    session.compile()
    edited = edit_one_procedure(source)
    session.add_source(("main", edited))
    warm = session.compile()
    # the comment changes one chunk's text, not its lowered IR, so only
    # that chunk re-lowers and every plan and codegen result hits
    assert stage(session, "frontend").misses == 1
    assert stage(session, "plan").misses == 0
    assert stage(session, "codegen").misses == 0
    assert session.stats.records[-1].invalidated == 0
    reference = _reference_compile_program(("main", edited), O3_SW)
    assert (
        warm.executable.fingerprint() == reference.executable.fingerprint()
    )


def test_stats_json_round_trip():
    session = Compiler(O3_SW)
    compile_once(session)
    compile_once(session, leaf_body="2")
    payload = json.loads(session.stats.to_json())
    assert payload["compiles"] == 2
    assert payload["invalidation_cascades"][0] == 5
    assert payload["invalidation_cascades"][1] >= 1
    assert set(payload["stages"]) == {
        "frontend", "plan", "codegen", "link", "store",
    }


def test_split_chunks_shapes():
    header, chunks = split_chunks(PROGRAM.format(leaf_body="1"))
    assert [c.name for c in chunks] == [
        "leaf", "leaf2", "left", "right", "main"
    ]
    assert [c.arity for c in chunks] == [1, 1, 1, 1, 0]
    assert "var g = 1;" in header
    assert "func" not in header

    # extern declarations stay in the header, comments and char literals
    # do not confuse the scanner
    src = """
    extern func helper(2); // a comment with func inside
    /* func not_a_func() { } */
    func real(a) { return a + 'x'; }
    """
    header, chunks = split_chunks(src)
    assert [c.name for c in chunks] == ["real"]
    assert "extern func helper(2);" in header

    # unterminated comment: refuse to split, caller falls back
    assert split_chunks("func f() { } /* dangling") is None
    assert split_chunks("func broken() {") is None
