"""Cost-model unit tests for the per-register priority function."""

from repro.ir.instructions import Call
from repro.ir.values import Const, VKind, VReg
from repro.regalloc.context import intra_env
from repro.regalloc.live_ranges import LiveRange, RangeCall
from repro.regalloc.priority import (
    LOAD_COST,
    PriorityModel,
    SAVE_RESTORE_COST,
    STORE_COST,
)
from repro.target.registers import DEFAULT_CONVENTION, reg


def make_model(**kwargs):
    return PriorityModel(env=intra_env(DEFAULT_CONVENTION), **kwargs)


def make_range(uses=0, defs=0, blocks=(0,), kind=VKind.LOCAL, calls=()):
    lr = LiveRange(vreg=VReg("x", kind))
    lr.use_weight = uses
    lr.def_weight = defs
    lr.blocks = set(blocks)
    lr.calls = list(calls)
    return lr


def test_benefit_counts_loads_and_stores():
    model = make_model()
    lr = make_range(uses=10, defs=4)
    assert model.benefit(lr) == 10 * LOAD_COST + 4 * STORE_COST


def test_param_benefit_includes_entry_store():
    model = make_model()
    lr = make_range(uses=5, kind=VKind.PARAM)
    assert model.benefit(lr) == 5 * LOAD_COST + STORE_COST


def test_global_benefit_subtracts_cache_traffic():
    model = make_model()
    lr = make_range(uses=5, kind=VKind.GLOBAL)
    assert model.benefit(lr) == 5 * LOAD_COST - (LOAD_COST + STORE_COST)


def test_entry_weight_scales_per_invocation_terms():
    model = make_model(entry_weight=100)
    lr = make_range(uses=5, kind=VKind.PARAM)
    assert model.benefit(lr) == 5 * LOAD_COST + 100 * STORE_COST


def test_clobber_cost_per_spanned_call():
    call = Call("g", [Const(1)])
    rc = RangeCall(instr=call, block=1, weight=10)
    model = make_model()
    model.call_clobbers[id(call)] = 1 << reg("t0").index
    lr = make_range(uses=3, calls=[rc])
    assert model.clobber_cost(lr, reg("t0")) == SAVE_RESTORE_COST * 10
    assert model.clobber_cost(lr, reg("s0")) == 0


def test_priority_normalised_by_span():
    model = make_model()
    small = make_range(uses=6, blocks=(0,))
    large = make_range(uses=6, blocks=(0, 1, 2))
    assert model.priority(small, reg("t0"), 0) == 6.0
    assert model.priority(large, reg("t0"), 0) == 2.0


def test_first_use_cost_lowers_priority():
    model = make_model()
    lr = make_range(uses=6, blocks=(0,))
    free = model.priority(lr, reg("s0"), 0)
    charged = model.priority(lr, reg("s0"), SAVE_RESTORE_COST)
    assert charged == free - SAVE_RESTORE_COST


def test_param_bonus_applies_to_specific_register():
    model = make_model()
    lr = make_range(uses=2)
    model.param_bonus[(lr.vreg, reg("a0").index)] = 5
    assert model.bonus(lr, reg("a0")) == 5
    assert model.bonus(lr, reg("a1")) == 0
    assert model.priority(lr, reg("a0"), 0) > model.priority(lr, reg("a1"), 0)


def test_order_key_uses_best_case_register():
    call = Call("g", [])
    rc = RangeCall(instr=call, block=0, weight=1)
    model = make_model()
    # the call clobbers every caller-saved register but no callee-saved
    from repro.target.registers import CALLER_SAVED_MASK

    model.call_clobbers[id(call)] = CALLER_SAVED_MASK
    lr = make_range(uses=4, calls=[rc])
    # best case: a callee-saved register with no clobber cost
    assert model.order_key(lr) == 4.0
