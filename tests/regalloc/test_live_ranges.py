"""Live-range construction and interference tests."""

from helpers import lower

from repro.cfg import build_cfg, find_loops
from repro.dataflow import VRegNumbering, compute_liveness
from repro.regalloc import allocation_candidates, build_ranges


def ranges_of(src, name="f"):
    fn = lower(src).functions[name]
    cfg = build_cfg(fn)
    loops = find_loops(cfg)
    numbering = VRegNumbering(cfg)
    candidates = numbering.mask(allocation_candidates(fn))
    lv = compute_liveness(cfg, numbering)
    info = build_ranges(cfg, lv, loops, candidates)
    return fn, cfg, info


def lr(info, name):
    for v, r in info.ranges.items():
        if v.name == name:
            return r
    raise KeyError(name)


def interferes(info, a, b):
    ra, rb = lr(info, a), lr(info, b)
    forward = bool(info.rows[ra.num] >> rb.num & 1)
    assert forward == bool(info.rows[rb.num] >> ra.num & 1)  # symmetric
    return forward


def test_loop_variable_weighted_higher():
    _, _, info = ranges_of(
        """
        func f(n) {
            var once = n + 1;
            var acc = 0;
            for (var i = 0; i < n; i = i + 1) { acc = acc + i; }
            return acc + once;
        }
        """
    )
    assert lr(info, "acc").use_weight > lr(info, "once").use_weight
    assert lr(info, "i").use_weight > lr(info, "once").use_weight


def test_simultaneously_live_values_interfere():
    _, _, info = ranges_of(
        "func f(a, b) { var x = a + 1; var y = b + 2; return x + y; }"
    )
    assert interferes(info, "x", "y")
    assert interferes(info, "a", "b")


def test_sequential_values_do_not_interfere():
    _, _, info = ranges_of(
        "func f(a) { var x = a + 1; var y = x + 2; return y; }"
    )
    # x dies producing y (copy-free chain): x and y never coexist...
    # y is defined while x is live (x is an operand), but the Bin def adds
    # an edge only if x is live *after*; here x dies at that instruction.
    assert not interferes(info, "x", "y")


def test_copy_related_values_do_not_interfere():
    _, _, info = ranges_of("func f(a) { var x = a; return x + a; }")
    # x = a; both hold the same value: the Chaitin move exception applies
    assert not interferes(info, "x", "a")


def test_call_sites_recorded_for_spanning_ranges():
    _, _, info = ranges_of(
        """
        func g(x) { return x; }
        func f(a) {
            var keep = a * 2;
            g(a);
            g(a + 1);
            return keep;
        }
        """
    )
    assert len(lr(info, "keep").calls) == 2
    assert len(info.all_calls) == 2


def test_range_blocks_cover_live_region():
    _, cfg, info = ranges_of(
        """
        func f(n) {
            var s = 0;
            while (n > 0) { s = s + n; n = n - 1; }
            return s;
        }
        """
    )
    s_range = lr(info, "s")
    # s is live from entry to exit: its footprint covers most blocks
    assert bin(s_range.blocks).count("1") >= 3
    assert s_range.span == bin(s_range.blocks).count("1")


def test_call_result_does_not_span_its_own_call():
    _, _, info = ranges_of(
        "func g() { return 1; } func f() { var r = g(); return r; }"
    )
    assert lr(info, "r").calls == []


def test_span_normalisation():
    _, _, info = ranges_of("func f(a) { return a + 1; }")
    assert lr(info, "a").span >= 1
