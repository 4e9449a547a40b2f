"""Liveness analysis tests."""

from helpers import lower

from repro.cfg import build_cfg
from repro.dataflow import (
    VRegNumbering,
    bits,
    compute_liveness,
    instruction_live_sets,
)
from repro.ir.values import VKind, VReg


def liveness_of(src, name="f"):
    fn = lower(src).functions[name]
    cfg = build_cfg(fn)
    return cfg, compute_liveness(cfg, VRegNumbering(cfg))


def names(lv, mask):
    return {v.name for v in lv.numbering.vregs_of(mask)}


def across_calls(cfg, lv):
    """(call, vregs live across it) for every call, by a backward walk."""
    out = []
    for b in range(cfg.num_blocks):
        for op, before, after in instruction_live_sets(lv, b):
            if op.instr.is_call:
                out.append((op.instr, after & before & ~op.def_mask))
    return out


def test_param_live_at_entry_when_used():
    cfg, lv = liveness_of("func f(a, b) { return a; }")
    assert "a" in names(lv, lv.live_in[cfg.entry])
    assert "b" not in names(lv, lv.live_in[cfg.entry])


def test_variable_live_through_loop():
    cfg, lv = liveness_of(
        """
        func f(n) {
            var acc = 0;
            while (n > 0) { acc = acc + n; n = n - 1; }
            return acc;
        }
        """
    )
    # acc is live in the loop condition block
    loop_blocks = [b for b in range(cfg.num_blocks) if cfg.succs[b]]
    assert any("acc" in names(lv, lv.live_in[b]) for b in loop_blocks)


def test_dead_after_last_use():
    cfg, lv = liveness_of("func f(a) { var t = a + 1; return t; }")
    # 'a' is not live out of the block that consumes it
    for b in cfg.exits():
        assert "a" not in names(lv, lv.live_out[b])


def test_exit_live_pins_value_to_returns():
    src = "var g; func f() { g = 1; }"
    fn = lower(src).functions["f"]
    g = next(v for v in fn.vregs if v.name == "g")
    cfg = build_cfg(fn)
    numbering = VRegNumbering(cfg)
    lv = compute_liveness(cfg, numbering, exit_live=numbering.bit(g))
    for b in cfg.exits():
        assert numbering.bit(g) & lv.live_out[b]


def test_instruction_live_sets_walk_backwards():
    src = "func f(a, b) { var x = a + b; var y = x + a; return y; }"
    fn = lower(src).functions["f"]
    cfg = build_cfg(fn)
    lv = compute_liveness(cfg, VRegNumbering(cfg))
    walked = list(instruction_live_sets(lv, 0))
    assert walked  # at least the two adds
    # the first yielded item corresponds to the LAST instruction
    last_op, live_before, live_after = walked[0]
    assert last_op.instr is cfg.blocks[0].instrs[-1]
    assert "y" in names(lv, live_before) or "y" in names(lv, live_after)


def test_value_live_across_two_calls():
    src = """
    func g(x) { return x; }
    func f(a) {
        var s = a * 2;
        g(1);
        g(2);
        return s;
    }
    """
    fn = lower(src).functions["f"]
    cfg = build_cfg(fn)
    lv = compute_liveness(cfg, VRegNumbering(cfg))
    all_calls = across_calls(cfg, lv)
    assert len(all_calls) == 2
    for _, live in all_calls:
        assert "s" in names(lv, live)


def test_numbering_follows_first_occurrence():
    src = """
    func f(a, b) {
        var x = b + a;
        var y = x * b;
        return y;
    }
    """
    fn = lower(src).functions["f"]
    cfg = build_cfg(fn)
    numbering = VRegNumbering(cfg)
    # uses before defs, instruction by instruction, in block order
    expected = []
    for block in cfg.blocks:
        for ins in block.instrs:
            for v in list(ins.use_vregs()) + list(ins.defs()):
                if v not in expected:
                    expected.append(v)
        for v in block.terminator.use_vregs():
            if v not in expected:
                expected.append(v)
    assert numbering.vregs == expected
    assert [v.name for v in numbering.vregs[:2]] == ["b", "a"]
    assert all(numbering.number[v] == i for i, v in enumerate(expected))
    # a vreg no instruction mentions has no bit
    assert numbering.bit(VReg("unused", VKind.LOCAL)) == 0


def test_block_sets_match_a_set_based_walk():
    src = """
    func g(x) { return x; }
    func f(n) {
        var acc = 0;
        var k = n * 2;
        while (n > 0) { acc = acc + g(n) + k; n = n - 1; }
        return acc;
    }
    """
    cfg, lv = liveness_of(src)
    for b, block in enumerate(cfg.blocks):
        live = set(lv.numbering.vregs_of(lv.live_out[b]))
        live.update(block.terminator.use_vregs())
        for ins in reversed(block.instrs):
            live.difference_update(ins.defs())
            live.update(ins.use_vregs())
        assert live == set(lv.numbering.vregs_of(lv.live_in[b]))


def test_bits_lists_set_positions_in_order():
    assert bits(0) == []
    assert bits(0b101001) == [0, 3, 5]
    assert bits(1 << 200 | 2) == [1, 200]
