"""The autotuner's candidate space.

A candidate is a full :class:`~repro.target.registers.Convention` built
by :func:`~repro.target.registers.split_convention` from two axes:

* **split** -- where the canonical allocatable order (a0-a3, t0-t6,
  s0-s8) is cut into caller-saved and callee-saved halves (the paper's
  fixed convention cuts at 11);
* **argument registers** -- how many leading parameters travel in
  registers (0..4; the paper uses 4).

Both axes are functional: no two candidates in the full space share a
:meth:`~repro.target.registers.Convention.key`, so any two of them may
score differently.

Everything here is deterministic: the same seed always yields the same
candidate list in the same order, which is what makes a tuning run
replayable bit-for-bit.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.target.registers import (
    ALLOCATABLE,
    Convention,
    DEFAULT_CONVENTION,
    NUM_PARAM_REGS,
    split_convention,
)


def full_space() -> List[Convention]:
    """Every (num_arg_regs, split) combination, deterministic order.
    ``split >= num_arg_regs`` keeps argument registers caller-saved (a
    convention invariant)."""
    return [
        split_convention(split, num_arg_regs)
        for num_arg_regs in range(NUM_PARAM_REGS + 1)
        for split in range(num_arg_regs, len(ALLOCATABLE) + 1)
    ]


def small_space() -> List[Convention]:
    """The fixed micro-space of ``--budget small``: the paper's
    convention, a few split/arg perturbations, and one candidate that is
    *strictly worse* by construction (same split, zero register
    arguments: every call stages its arguments through memory).  CI
    asserts the strictly-worse candidate never beats the baseline."""
    return [
        DEFAULT_CONVENTION,
        split_convention(9, 4, name="split-9"),
        split_convention(13, 4, name="split-13"),
        split_convention(11, 0, name="worse-noargregs"),
    ]


def sample_space(k: int, seed: int) -> List[Convention]:
    """A deterministic ``k``-candidate sample of the full space, always
    led by the paper's convention (the comparison anchor)."""
    space = [c for c in full_space() if c != DEFAULT_CONVENTION]
    rng = random.Random(seed)
    k = max(0, min(k - 1, len(space)))
    return [DEFAULT_CONVENTION] + rng.sample(space, k)


def neighbors(conv: Convention) -> List[Convention]:
    """Hill-climbing moves: shift the split by one, or shift the
    argument count by one."""
    split = bin(conv.caller_mask).count("1")
    out: List[Convention] = []
    for s in (split - 1, split + 1):
        if conv.num_arg_regs <= s <= len(ALLOCATABLE):
            out.append(split_convention(s, conv.num_arg_regs))
    for a in (conv.num_arg_regs - 1, conv.num_arg_regs + 1):
        if 0 <= a <= min(NUM_PARAM_REGS, split):
            out.append(split_convention(split, a))
    return out


def budget_candidates(
    budget: str, seed: int, sample: Optional[int] = None
) -> List[Convention]:
    """The candidate list for a named budget.

    ``small``  -- the fixed micro-space (CI smoke; ~4 candidates);
    ``medium`` -- a seeded sample of the full space (default 12),
    successively halved by the tuner;
    ``full``   -- the entire enumerated space, successively halved.
    """
    if budget == "small":
        return small_space()
    if budget == "medium":
        return sample_space(12 if sample is None else sample, seed)
    if budget == "full":
        return full_space()
    raise ValueError(
        f"unknown budget {budget!r}; expected small, medium or full"
    )
