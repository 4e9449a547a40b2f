"""Differential property test: both simulator tiers retire the exact
same execution on random programs under every paper configuration.

The generator draws every MiniC operator, comparisons and unary
operators included, and is biased toward what distinguishes the tiers:
trapping arithmetic (``/ %``, shifts that can leave the 0..63 range),
loops (the trace translator's backward-edge exits and budget checks),
calls (trampoline transitions), array traffic (MemKind
classification), and ``while`` loops whose bodies call a small leaf
and read and write a global (the profile-less translator's loop
heuristic, leaf inlining and constant addresses).
A program may legitimately trap -- then both tiers must raise the same
message; otherwise their RunStats must be bit-identical.
"""

from hypothesis import given, settings, strategies as st

from helpers import compile_cached

from repro.ir.arith import MachineTrap
from repro.pipeline import O2, PAPER_CONFIGS
from repro.sim import DEFAULT_MAX_CYCLES, DEFAULT_STACK_WORDS

VARS = ["a", "b", "c"]
BINOPS = [
    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
    "<", "<=", ">", ">=", "==", "!=",
]
UNOPS = ["-", "!", "~"]


@st.composite
def atoms(draw, nparams):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return str(draw(st.integers(-9, 9)))
    if choice == 1 and nparams:
        return f"p{draw(st.integers(0, nparams - 1))}"
    return draw(st.sampled_from(VARS))


@st.composite
def exprs(draw, nparams):
    a = draw(atoms(nparams))
    shape = draw(st.integers(0, 2))
    if shape == 0:
        return a
    if shape == 1:
        return f"({draw(st.sampled_from(UNOPS))}{a})"
    op = draw(st.sampled_from(BINOPS))
    b = draw(atoms(nparams))
    return f"({a} {op} {b})"


@st.composite
def statements(draw, fn_index, arities, depth=0):
    nparams = arities[fn_index]
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return f"{draw(st.sampled_from(VARS))} = {draw(exprs(nparams))};"
    if kind == 1 and fn_index > 0:
        target = draw(st.integers(0, fn_index - 1))
        args = ", ".join(
            draw(exprs(nparams)) for _ in range(arities[target])
        )
        return f"{draw(st.sampled_from(VARS))} = f{target}({args});"
    if kind == 2:
        return f"glob = glob + {draw(exprs(nparams))};"
    if kind == 3:
        idx = draw(st.integers(0, 3))
        return f"data[{idx}] = {draw(exprs(nparams))}; c = data[{idx}];"
    if kind == 4 and depth < 2:
        cond = draw(exprs(nparams))
        then = draw(statements(fn_index, arities, depth + 1))
        return f"if ({cond} > 0) {{ {then} }}"
    if kind == 5 and depth < 1:
        body = draw(statements(fn_index, arities, depth + 1))
        n = draw(st.integers(1, 3))
        return f"for (lc = 0; lc < {n}; lc = lc + 1) {{ {body} }}"
    if kind >= 6 and depth < 1:
        n = draw(st.integers(1, 4))
        return (
            f"lc = 0; while (lc < {n}) {{ "
            f"glob = glob + leaf({draw(exprs(nparams))}); "
            f"lc = lc + 1; }}"
        )
    return "glob = glob - 1;"


@st.composite
def programs(draw):
    nfuncs = draw(st.integers(1, 3))
    arities = [draw(st.integers(0, 2)) for _ in range(nfuncs)]
    parts = [
        "var glob = 1;", "array data[4];",
        f"func leaf(x) {{ return (x {draw(st.sampled_from(BINOPS))} "
        f"{draw(st.integers(-9, 9))}) + glob; }}",
    ]
    for i in range(nfuncs):
        params = ", ".join(f"p{k}" for k in range(arities[i]))
        decls = " ".join(f"var {v} = {j + 1};" for j, v in enumerate(VARS))
        decls += " var lc = 0;"
        body = " ".join(
            draw(statements(i, arities))
            for _ in range(draw(st.integers(1, 4)))
        )
        parts.append(
            f"func f{i}({params}) {{ {decls} {body} "
            f"return {draw(exprs(arities[i]))}; }}"
        )
    calls = []
    for i in range(nfuncs):
        args = ", ".join(
            str(draw(st.integers(-4, 4))) for _ in range(arities[i])
        )
        calls.append(f"print f{i}({args});")
    parts.append("func main() { " + " ".join(calls) + " print glob; }")
    return "\n".join(parts)


def outcome(exe, tier, **kwargs):
    """(stats, None) on success, (None, message) on a trap."""
    try:
        return exe.run(sim_tier=tier, **kwargs), None
    except MachineTrap as trap:
        return None, str(trap)


@settings(max_examples=20, deadline=None)
@given(programs())
def test_tiers_identical_on_random_programs(src):
    for options in PAPER_CONFIGS.values():
        exe = compile_cached(src, options).executable
        interp = outcome(exe, "interp")
        jit = outcome(exe, "jit")
        assert interp == jit


def test_generator_reaches_tier2_loop_linking_and_leaf_inlining():
    # a fixed set of generated programs (the first examples of a
    # derandomized run) exercises the profile-less translator's loop
    # linking and leaf inlining, so the differentials above cover them
    sources = []

    @settings(max_examples=20, derandomize=True, database=None,
              deadline=None)
    @given(programs())
    def collect(src):
        sources.append(src)

    collect()
    linked = inlined = 0
    for src in sources:
        exe = compile_cached(src, O2).executable
        _, trap = outcome(exe, "jit")
        if trap is None:
            # the executable is shared with other tests: pick the
            # default-budget tier-2 translation out of its cache
            prog = exe._jit_cache[
                ("jit", DEFAULT_STACK_WORDS, DEFAULT_MAX_CYCLES)
            ]
            linked += prog.jit3_stats["linked_loops"]
            inlined += prog.jit3_stats["inlined_calls"]
    assert linked > 0 and inlined > 0


@settings(max_examples=20, deadline=None)
@given(programs())
def test_tier2_budget_traps_identical_on_random_programs(src):
    # the translator translates a trace on first entry, so a budget trap
    # can fire between translations; a rerun reuses the partial cache
    for options in PAPER_CONFIGS.values():
        exe = compile_cached(src, options).executable
        full, trap = outcome(exe, "interp")
        if trap is not None:
            continue
        for budget in (full.cycles - 1, full.cycles // 2, 7):
            interp = outcome(exe, "interp", max_cycles=budget)
            assert outcome(exe, "jit", max_cycles=budget) == interp
            assert outcome(exe, "jit", max_cycles=budget) == interp
