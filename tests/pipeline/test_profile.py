"""Profile-feedback extension tests."""

from repro.pipeline import compile_and_run, compile_program, O2, O3, O3_SW
from repro.pipeline.profile import (
    BlockProfile,
    attach_profile,
    block_profile_of,
    collect_block_profile,
    profile_guided_options,
)

SRC = """
func helper(x) { return x * 2 + 1; }
func main() {
    var t = 0;
    for (var i = 0; i < 25; i = i + 1) {
        if (i % 5 == 0) { t = t + helper(i); }
        else { t = t - 1; }
    }
    print t;
}
"""


def test_profile_counts_block_executions():
    profile = collect_block_profile(SRC, O2)
    assert "main" in profile
    main_counts = profile["main"]
    # the entry block runs once, the loop condition 26 times
    assert main_counts.get("entry") == 1
    loop_cond = [v for k, v in main_counts.items() if k.startswith("fcond")]
    assert loop_cond and loop_cond[0] == 26
    then_counts = [v for k, v in main_counts.items() if k.startswith("then")]
    assert then_counts and then_counts[0] == 5


def test_profile_of_compiled_program():
    prog = compile_program(SRC, O2)
    profile = block_profile_of(prog)
    assert profile["helper"]["entry"] == 5


def test_profile_guided_build_preserves_behaviour():
    base = compile_and_run(SRC, O3_SW, check_contracts=True)
    profile = collect_block_profile(SRC, O2)
    tuned_opts = profile_guided_options(O3_SW, profile)
    tuned = compile_and_run(SRC, tuned_opts, check_contracts=True)
    assert base.output == tuned.output


def test_profile_guided_never_worse_on_training_input():
    src = """
    func burn(q) {
        if (q <= 0) { return 1; }
        return (q + burn(q - 3)) % 11;
    }
    func work(n) {
        var a = n * 3;
        if (n >= 0) { return burn(a % 5) + a; }
        var hotvar = 0;
        for (var i = 0; i < n; i = i + 1) { hotvar = hotvar + burn(i); }
        return hotvar;
    }
    func main() {
        var t = 0;
        for (var k = 0; k < 100; k = k + 1) { t = t + work(k); }
        print t;
    }
    """
    base = compile_and_run(src, O3, check_contracts=True)
    profile = collect_block_profile(src, O2)
    tuned = compile_and_run(
        src, profile_guided_options(O3, profile), check_contracts=True
    )
    assert base.output == tuned.output
    assert tuned.scalar_memops <= base.scalar_memops * 1.02


def test_block_profile_serializes_with_a_stable_digest():
    prog = compile_program(SRC, O2)
    profile = block_profile_of(prog, attach=False)
    clone = BlockProfile.from_json(profile.to_json())
    assert dict(clone) == dict(profile)
    assert clone.digest() == profile.digest()
    # the digest is canonical: key order cannot change it, counts can
    reordered = BlockProfile(dict(reversed(list(profile.items()))))
    assert reordered.digest() == profile.digest()
    bumped = BlockProfile(dict(profile))
    bumped["main"] = dict(bumped["main"], entry=999)
    assert bumped.digest() != profile.digest()


def test_attach_profile_marks_the_executable():
    prog = compile_program(SRC, O2)
    profile = block_profile_of(prog, attach=False)
    assert getattr(prog.executable, "_block_profile", None) is None
    attach_profile(prog.executable, profile)
    assert prog.executable._block_profile is profile


def test_profile_weights_flow_into_allocation():
    # a block that never executes gets weight 0: values used only there
    # lose their registers to hot-path values
    profile = collect_block_profile(SRC, O2)
    prog = compile_program(SRC, profile_guided_options(O2, profile))
    assert prog.run().output == compile_program(SRC, O2).run().output
