"""The Convention value type: validation, presets, specs."""

import pytest

from repro.target.registers import (
    ALLOCATABLE,
    CALLEE_ONLY_7,
    CALLEE_SAVED_MASK,
    CALLER_ONLY_7,
    CALLER_SAVED_MASK,
    Convention,
    ConventionError,
    DEFAULT_CONVENTION,
    PARAM_REGS,
    split_convention,
    validate_convention,
)


def test_default_convention_matches_the_paper():
    c = DEFAULT_CONVENTION
    assert c.name == "chow88"
    assert c.caller_mask == CALLER_SAVED_MASK
    assert c.callee_mask == CALLEE_SAVED_MASK
    assert c.num_arg_regs == 4
    assert c.param_regs == PARAM_REGS
    assert len(c.allocatable) == 20
    validate_convention(c)


def test_split_11_args_4_is_the_default_convention():
    assert split_convention(11, 4) == DEFAULT_CONVENTION
    # name is presentation only, excluded from equality
    assert split_convention(11, 4).name != DEFAULT_CONVENTION.name
    assert split_convention(11, 4).key() == DEFAULT_CONVENTION.key()


def test_split_convention_masks_partition_the_allocatable_pool():
    for split in (0, 4, 9, 13, 20):
        c = split_convention(split, min(split, 4))
        validate_convention(c)
        assert bin(c.caller_mask).count("1") == split
        assert bin(c.callee_mask).count("1") == 20 - split
        assert c.caller_mask & c.callee_mask == 0
        assert c.caller_mask | c.callee_mask == c.mask


def test_split_requires_room_for_argument_registers():
    with pytest.raises(ConventionError):
        split_convention(2, 4)


def test_spec_round_trip():
    for c in (
        DEFAULT_CONVENTION,
        CALLER_ONLY_7,
        CALLEE_ONLY_7,
        split_convention(9, 2),
    ):
        back = Convention.from_spec(c.to_spec())
        assert back == c
        assert back.name == c.name
        validate_convention(back)


def test_validation_rejects_ill_formed_conventions():
    with pytest.raises(ConventionError):
        validate_convention(
            Convention(caller_mask=DEFAULT_CONVENTION.mask,
                       callee_mask=DEFAULT_CONVENTION.callee_mask)
        )  # overlapping classes
    with pytest.raises(ConventionError):
        validate_convention(Convention(num_arg_regs=7))


def test_paper_table2_presets():
    assert len(CALLER_ONLY_7.allocatable) == 7
    assert all(r.caller_saved for r in CALLER_ONLY_7.allocatable)
    assert len(CALLEE_ONLY_7.allocatable) == 7
    assert all(r.callee_saved for r in CALLEE_ONLY_7.allocatable)
    validate_convention(CALLER_ONLY_7)
    validate_convention(CALLEE_ONLY_7)


def test_with_allocatable_keeps_linkage_masks():
    restricted = DEFAULT_CONVENTION.with_allocatable(ALLOCATABLE[:5])
    assert restricted.caller_mask == DEFAULT_CONVENTION.caller_mask
    assert restricted.callee_mask == DEFAULT_CONVENTION.callee_mask
    assert len(restricted.allocatable) == 5
    empty = DEFAULT_CONVENTION.with_allocatable(())
    assert empty.allocatable == ()
    validate_convention(empty)


def test_options_convention_update_and_validation():
    from repro.pipeline.options import O3_SW, OptionsError, validate_options

    alt = split_convention(13, 4)
    o = O3_SW.with_(convention=alt)
    assert o.convention == alt
    assert O3_SW.with_(convention=None).convention == DEFAULT_CONVENTION
    with pytest.raises(OptionsError):
        validate_options(O3_SW.with_(convention="nope"))
