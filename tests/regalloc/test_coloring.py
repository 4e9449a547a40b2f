"""Priority-based coloring behaviour tests."""

from helpers import lower_opt

from repro.regalloc import allocate_function, AllocEnv, intra_env
from repro.regalloc.coloring import ColoringOptions
from repro.target.registers import (
    CALLEE_ONLY_7,
    CALLER_SAVED,
    DEFAULT_CONVENTION,
)


def allocate(src, name="f", env=None, **kwargs):
    mod = lower_opt(src)
    fn = mod.functions[name]
    env = env or intra_env(
        DEFAULT_CONVENTION,
        {n: len(f.params) for n, f in mod.functions.items()},
    )
    return allocate_function(fn, env, **kwargs)


def reg_of(alloc, name):
    for v, r in alloc.assignment.items():
        if v.name == name:
            return r
    return None


def test_leaf_variables_get_caller_saved_registers():
    # in a leaf, nothing spans a call, so caller-saved registers are free
    alloc = allocate("func f(a, b) { var x = a * b; return x + a; }")
    assert alloc.assignment, "leaf values should be register-resident"
    assert all(r.caller_saved for r in alloc.assignment.values())
    assert reg_of(alloc, "a") is not None
    assert reg_of(alloc, "b") is not None


def test_value_across_call_prefers_callee_saved_intra():
    alloc = allocate(
        """
        func g(x) { return x; }
        func f(a) {
            var keep = a * 3;
            g(1);
            g(2);
            g(3);
            return keep;
        }
        """
    )
    # `keep` may have been copy-propagated into a temp; find the range
    # spanning all three calls and check its register class
    spanning = [
        (v, len(lr.calls)) for v, lr in alloc.ranges.ranges.items()
        if len(lr.calls) == 3
    ]
    assert spanning, "some value must span the three calls"
    for v, _ in spanning:
        r = alloc.assignment.get(v)
        assert r is not None and r.callee_saved


def test_value_across_single_call_may_choose_either():
    alloc = allocate(
        """
        func g(x) { return x; }
        func f(a) { var keep = a * 3; g(1); return keep; }
        """
    )
    spanning = [v for v, lr in alloc.ranges.ranges.items() if lr.calls]
    assert any(v in alloc.assignment for v in spanning)


def test_no_registers_means_all_memory():
    alloc = allocate(
        "func f(a, b) { return a + b; }",
        env=intra_env(DEFAULT_CONVENTION.with_allocatable(())),
    )
    assert alloc.assignment == {}
    assert alloc.own_assigned_mask == 0


def test_interfering_values_get_distinct_registers():
    alloc = allocate(
        "func f(a, b, c) { return a + b + c + a * b * c; }"
    )
    regs = [reg_of(alloc, n) for n in ("a", "b", "c")]
    assert None not in regs
    assert len({r.index for r in regs}) == 3


def test_pressure_spills_lowest_priority():
    # more simultaneously-live values than registers in a 2-register file
    src = """
    func f(a, b, c, d) {
        var e = a + b;
        var g = c + d;
        return a + b + c + d + e + g;
    }
    """
    alloc = allocate(src, env=intra_env(
        DEFAULT_CONVENTION.with_allocatable(CALLER_SAVED[:2])
    ))
    used = {r.index for r in alloc.assignment.values()}
    assert len(used) <= 2
    # the four parameters interfere pairwise: at most two get registers
    assigned_params = [n for n in "abcd" if reg_of(alloc, n) is not None]
    assert len(assigned_params) <= 2


def test_param_register_preference_default_convention():
    # a parameter that stays call-free should sit in its arrival register
    alloc = allocate("func f(a, b) { return a - b; }")
    assert reg_of(alloc, "a").name == "a0"
    assert reg_of(alloc, "b").name == "a1"


def test_callee_only_file_still_allocates():
    alloc = allocate(
        "func f(a, b) { return a * b; }",
        env=intra_env(CALLEE_ONLY_7),
    )
    assert reg_of(alloc, "a") is not None
    assert reg_of(alloc, "a").callee_saved


def test_dead_values_not_allocated():
    alloc = allocate("func f(a) { return 1; }")
    assert reg_of(alloc, "a") is None


def test_globals_allocated_only_in_call_free_functions():
    src = """
    var g1;
    func leaf() { g1 = g1 + 1; g1 = g1 * 2; return g1; }
    func caller() { leaf(); return g1; }
    """
    mod = lower_opt(src)
    env = intra_env(DEFAULT_CONVENTION, {"leaf": 0, "caller": 0})
    leaf_alloc = allocate_function(mod.functions["leaf"], env)
    caller_alloc = allocate_function(mod.functions["caller"], env)
    assert any(v.name == "g1" for v in leaf_alloc.candidates)
    assert not any(v.name == "g1" for v in caller_alloc.candidates)


def test_subtree_preference_tie_break():
    # two equal-priority choices: with a subtree mask the used register wins
    src = "func f(a) { return a + 1; }"
    mod = lower_opt(src)
    env = AllocEnv(
        convention=DEFAULT_CONVENTION, ipra=True, proc_is_open=False
    )
    a_pref = allocate_function(
        mod.functions["f"], env,
        ColoringOptions(prefer_subtree_reg=True),
        subtree_used_mask=1 << 10,  # t1
    )
    # `a` has an incoming-register preference under... closed mode has no
    # incoming preference, so the subtree register should win the tie
    assert reg_of(a_pref, "a").index == 10


def test_own_assigned_mask_matches_assignment():
    alloc = allocate("func f(a, b) { return a + b; }")
    mask = 0
    for r in alloc.assignment.values():
        mask |= 1 << r.index
    assert mask == alloc.own_assigned_mask
