"""Warm = cold, bit for bit.

The incremental engine's whole contract is that its caches only skip
work: every warm compile must produce an executable identical -- same
instructions, same data layout, same entry, same contract masks -- to
what the original sequential pipeline produces from scratch.  These
tests drive edit sequences through one session and compare every step
against :func:`repro.pipeline.driver._reference_compile_program`.
A source that fails to compile raises the reference's error, position
included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Compiler, PAPER_CONFIGS
from repro.frontend.errors import LexError, ParseError, SemanticError
from repro.pipeline import O2
from repro.pipeline.driver import _reference_compile_program


def exe_snapshot(exe):
    return (
        [repr(i) for i in exe.instrs],
        exe.entry_pc,
        exe.func_entries,
        exe.data_layout,
        exe.data_init,
        exe.data_size,
        exe.preserved_masks,
        exe.labels,
    )


def assert_exe_identical(warm, cold):
    assert exe_snapshot(warm) == exe_snapshot(cold)


BASE = """
var g = 2;
array buf[6];

func leaf(x) {{
  return x * {leaf_k} + g;
}}

func left(a) {{
  var t;
  t = leaf(a) + leaf(a + {left_k});
  buf[1] = t;
  return t;
}}

func right(a) {{
  var u; var v;
  u = leaf(a - {right_k});
  v = u * u;
  return v + g;
}}

func rec(n) {{
  if (n <= 0) {{ return {rec_k}; }}
  return rec(n - 1) + leaf(n);
}}

func main() {{
  print left({main_k}) + right(3) + rec(2);
}}
"""

KNOBS = ("leaf_k", "left_k", "right_k", "rec_k", "main_k")


def render(knobs):
    return BASE.format(**knobs)


def test_every_config_warm_equals_cold_across_edits():
    for cname, options in PAPER_CONFIGS.items():
        session = Compiler(options)
        knobs = dict.fromkeys(KNOBS, 1)
        for step, knob in enumerate(KNOBS):
            knobs[knob] = step + 3
            src = render(knobs)
            session.add_source(("main", src))
            warm = session.compile()
            cold = _reference_compile_program(("main", src), options)
            assert_exe_identical(warm.executable, cold.executable)
            assert warm.run().output == cold.run().output, cname


def test_batch_slots_equal_reference_compiles():
    # one batch over the edit-sequence variants: every slot must match a
    # from-scratch reference compile, though the requests share a session
    knobs = dict.fromkeys(KNOBS, 1)
    variants = []
    for step, knob in enumerate(KNOBS):
        knobs[knob] = step + 3
        variants.append(render(knobs))
    for cname in ("C", "E"):
        options = PAPER_CONFIGS[cname]
        session = Compiler(options)
        batch = session.engine.compile_batch(
            [("main", src) for src in variants]
        )
        for src, slot in zip(variants, batch):
            cold = _reference_compile_program(("main", src), options)
            assert_exe_identical(slot.executable, cold.executable)


def test_option_flips_stay_identical():
    session = Compiler(PAPER_CONFIGS["base"])
    src = render(dict.fromkeys(KNOBS, 1))
    session.add_source(("main", src))
    for cname in ("C", "base", "B", "A", "C", "E", "D", "C"):
        options = PAPER_CONFIGS[cname]
        warm = session.compile(options)
        cold = _reference_compile_program(("main", src), options)
        assert_exe_identical(warm.executable, cold.executable)


def test_multi_module_warm_equals_cold():
    util = """
    var shared = 5;
    func util(a) { return a + shared; }
    """
    for main_k in (1, 7):
        main = f"""
        extern func util(1);
        func main() {{ print util({main_k}); }}
        """
        sources = [("main", main), ("util", util)]
        options = PAPER_CONFIGS["C"]
        session = Compiler(options)
        session.add_sources(sources)
        warm = session.compile()
        cold = _reference_compile_program(sources, options)
        assert_exe_identical(warm.executable, cold.executable)
        session.add_sources(sources)  # replace in place, no-op edit
        assert_exe_identical(session.compile().executable, cold.executable)


@settings(max_examples=20, deadline=None)
@given(
    config=st.sampled_from(sorted(PAPER_CONFIGS)),
    edits=st.lists(
        st.tuples(st.integers(0, len(KNOBS) - 1), st.integers(0, 9)),
        min_size=1,
        max_size=6,
    ),
)
def test_random_edit_sequences_bit_identical(config, edits):
    options = PAPER_CONFIGS[config]
    session = Compiler(options)
    knobs = dict.fromkeys(KNOBS, 1)
    for knob_idx, value in edits:
        knobs[KNOBS[knob_idx]] = value
        src = render(knobs)
        session.add_source(("main", src))
        warm = session.compile()
        cold = _reference_compile_program(("main", src), options)
        assert_exe_identical(warm.executable, cold.executable)


# a global and three procedures, one a line: an error in a procedure
# must be reported at its line in this text, not in the reduced source
# the engine compiles its uncached procedures from
ERRORS = """var g = 1;
func first(x) {{ {first} }}
func middle(x) {{ {middle} }}
func main() {{ {last} }}
"""
VALID = {
    "first": "return x + g;",
    "middle": "return x * 2;",
    "last": "return first(1) + middle(2);",
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("where", sorted(VALID))
@pytest.mark.parametrize("body,kind", [
    ("return 1 @ 2;", LexError),
    ("return 1 + ;", ParseError),
    ("return nowhere;", SemanticError),
], ids=["lex", "parse", "semantic"])
def test_errors_equal_the_reference(body, kind, where, warm):
    text = ERRORS.format(**dict(VALID, **{where: body}))
    with pytest.raises(kind) as ref:
        _reference_compile_program(text, O2)
    session = Compiler(O2)
    if warm:
        session.add_source(ERRORS.format(**VALID)).compile()
    with pytest.raises(kind) as got:
        session.add_source(text).compile()
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)
