"""Incoming-parameter conventions for closed procedures (Section 4)."""

from helpers import lower_opt, run_all_levels

from repro.interproc import PlanOptions, plan_program
from repro.target.registers import CALLEE_SAVED, DEFAULT_CONVENTION


def callee_only(n):
    return DEFAULT_CONVENTION.with_allocatable(CALLEE_SAVED[:n])


def plan(src, convention=DEFAULT_CONVENTION):
    return plan_program(
        lower_opt(src), PlanOptions(convention=convention, ipra=True)
    )


def test_live_params_have_distinct_arrival_registers():
    src = """
    func f(a, b, c, d, e, g) { return a + b + c + d + e + g; }
    func main() { print f(1, 2, 3, 4, 5, 6); }
    """
    p = plan(src)
    specs = p.summaries["f"].params
    regs = [s.reg.index for s in specs if s.reg is not None and not s.dead]
    assert len(regs) == len(set(regs)), "arrival registers must not collide"


def test_spilled_param_arrives_in_free_register():
    # restrict registers so at least one parameter spills; its arrival
    # register must not collide with the allocated parameters
    src = """
    func f(a, b, c, d) {
        var t = a * b + c * d;
        return t + a + b + c + d;
    }
    func main() { print f(1, 2, 3, 4); }
    """
    p = plan(src, convention=callee_only(2))
    specs = p.summaries["f"].params
    live = [s for s in specs if not s.dead]
    regs = [s.reg.index for s in live if s.reg is not None]
    assert len(regs) == len(set(regs))
    # behaviour must be intact under the restriction
    from repro.pipeline import compile_and_run, O2, O3_SW

    base = compile_and_run(src, O2, check_contracts=True)
    restricted = compile_and_run(
        src, O3_SW.with_(convention=callee_only(2)),
        check_contracts=True,
    )
    assert base.output == restricted.output


def test_dead_params_are_not_staged_anywhere():
    src = """
    func pick(a, unused1, b, unused2) { return a + b; }
    func main() { print pick(10, 999, 20, 888); }
    """
    p = plan(src)
    specs = p.summaries["pick"].params
    assert not specs[0].dead and not specs[2].dead
    assert specs[1].dead and specs[3].dead
    assert p.summaries["pick"].staging_mask() & 0xFFFFFFFF  # some staging
    stats = run_all_levels(src)
    assert stats["O0"].output == [30]


def test_param_swap_at_call_boundary():
    # f(b, a) from f's own parameters forces a parallel-move cycle at the
    # call boundary under register parameter passing
    src = """
    func target(x, y) { return x * 10 + y; }
    func caller(a, b) { return target(b, a); }
    func main() { print caller(1, 2); }
    """
    stats = run_all_levels(src)
    assert stats["O0"].output == [21]


def test_chain_passes_parameter_through_same_register():
    # the Section 4 claim: "from caller to callee, the parameter can be
    # left undisturbed in the parameter register"
    src = """
    func inner(v) { return v + 1; }
    func middle(v) { return inner(v) + 1; }
    func outer(v) { return middle(v) + 1; }
    func main() { print outer(39); }
    """
    p = plan(src)
    arrival = {
        name: p.summaries[name].params[0].reg.index
        for name in ("inner", "middle", "outer")
    }
    # all three agree on one register: no moves along the chain
    assert len(set(arrival.values())) == 1
    stats = run_all_levels(src)
    assert stats["O0"].output == [42]


def test_more_than_eleven_live_params_fall_back_to_stack():
    names = [f"p{i}" for i in range(13)]
    src = f"""
    func wide({', '.join(names)}) {{
        return {' + '.join(names)};
    }}
    func main() {{ print wide({', '.join(str(i) for i in range(13))}); }}
    """
    p = plan(src, convention=callee_only(1))
    specs = p.summaries["wide"].params
    assert any(s.on_stack for s in specs)
    stats = run_all_levels(src)
    assert stats["O0"].output == [sum(range(13))]
