"""Compiler options mapping onto the paper's configurations.

The paper's measurement matrix (Tables 1 and 2) is spanned by:

================  ============================================
paper config      options
================  ============================================
base (-O2)        ``O2``                  (intra, no shrink-wrap)
A    (-O2 + SW)   ``O2_SW``
B    (-O3)        ``O3``                  (IPRA, no shrink-wrap)
C    (-O3 + SW)   ``O3_SW``
D                 ``O3_SW`` with ``CALLER_ONLY_7``
E                 ``O3_SW`` with ``CALLEE_ONLY_7``
================  ============================================

Opt levels: 0 = straight translation (no IR optimisation, no register
allocation), 1 = IR optimisation only, 2 = + intra-procedural priority
coloring, 3 = + inter-procedural allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from repro.frontend.errors import OptionsError
from repro.target.registers import (
    CALLEE_ONLY_7,
    CALLER_ONLY_7,
    Convention,
    ConventionError,
    DEFAULT_CONVENTION,
    validate_convention,
)


@dataclass(frozen=True)
class CompilerOptions:
    opt_level: int = 2
    shrink_wrap: bool = False
    #: Section 6 propagate-vs-wrap combining strategy
    combine: bool = True
    #: Fig. 1 tie-break: prefer registers already used in the call tree
    prefer_subtree_reg: bool = True
    #: never let a shrink-wrapped region sit inside a loop
    smear_loops: bool = True
    #: separate-compilation conservatism: all procedures open
    externally_visible: bool = False
    entry: str = "main"
    #: profile-feedback extension: function -> {block name -> count}
    block_weights: Optional[Dict[str, Dict[str, int]]] = None
    #: mod/ref extension: cache globals in registers across calls whose
    #: subtrees provably never touch them
    ipra_globals: bool = False
    #: the calling convention in force (save classes, argument registers,
    #: allocatable pool, demotion ladder); the autotuner's search
    #: variable.  ``None`` means :data:`DEFAULT_CONVENTION`.
    convention: Optional[Convention] = None

    def __post_init__(self) -> None:
        if self.convention is None:
            object.__setattr__(self, "convention", DEFAULT_CONVENTION)

    @property
    def ipra(self) -> bool:
        return self.opt_level >= 3

    @property
    def allocate_registers(self) -> bool:
        return self.opt_level >= 2

    @property
    def optimize_ir(self) -> bool:
        return self.opt_level >= 1

    def with_(self, **kwargs) -> "CompilerOptions":
        """Functional update."""
        return replace(self, **kwargs)


def validate_options(options: CompilerOptions) -> CompilerOptions:
    """Eagerly check ``options`` for mistakes that would otherwise surface
    as deep ``KeyError``s during planning.  Returns ``options`` unchanged
    so call sites can validate inline; raises
    :class:`~repro.frontend.errors.OptionsError` on any violation.
    """
    if not isinstance(options, CompilerOptions):
        raise OptionsError(
            f"expected CompilerOptions, got {type(options).__name__}"
        )
    if not isinstance(options.opt_level, int) or isinstance(
        options.opt_level, bool
    ) or not 0 <= options.opt_level <= 3:
        raise OptionsError(
            f"opt_level must be an integer in 0..3, got {options.opt_level!r}"
        )
    if not isinstance(options.convention, Convention):
        raise OptionsError(
            "convention must be a Convention, got "
            f"{type(options.convention).__name__}"
        )
    try:
        validate_convention(options.convention)
    except ConventionError as exc:
        raise OptionsError(f"ill-formed convention: {exc}") from exc
    if options.allocate_registers and len(options.convention.allocatable) == 0:
        raise OptionsError(
            "convention has no allocatable registers but opt_level "
            f"{options.opt_level} performs register allocation; "
            "use opt_level <= 1 for an allocation-free build"
        )
    if not isinstance(options.entry, str) or not options.entry:
        raise OptionsError(
            f"entry must be a non-empty function name, got {options.entry!r}"
        )
    if options.block_weights is not None:
        bw = options.block_weights
        if not isinstance(bw, dict):
            raise OptionsError(
                "block_weights must map function name -> "
                "{block name -> count}, got "
                f"{type(bw).__name__}"
            )
        for fname, blocks in bw.items():
            if not isinstance(fname, str) or not isinstance(blocks, dict):
                raise OptionsError(
                    "block_weights must map function name -> "
                    f"{{block name -> count}}; bad entry {fname!r}"
                )
            for bname, count in blocks.items():
                if not isinstance(bname, str) or not isinstance(count, int) \
                        or isinstance(count, bool) or count < 0:
                    raise OptionsError(
                        f"block_weights[{fname!r}][{bname!r}] must be a "
                        f"non-negative integer count, got {count!r}"
                    )
    return options


# The paper's configurations ------------------------------------------------

O0 = CompilerOptions(opt_level=0)
O1 = CompilerOptions(opt_level=1)
O2 = CompilerOptions(opt_level=2, shrink_wrap=False)        # Table 1 baseline
O2_SW = CompilerOptions(opt_level=2, shrink_wrap=True)      # Table 1 col A
O3 = CompilerOptions(opt_level=3, shrink_wrap=False)        # Table 1 col B
O3_SW = CompilerOptions(opt_level=3, shrink_wrap=True)      # Table 1 col C
TABLE2_D = O3_SW.with_(convention=CALLER_ONLY_7)            # Table 2 col D
TABLE2_E = O3_SW.with_(convention=CALLEE_ONLY_7)            # Table 2 col E

PAPER_CONFIGS: Dict[str, CompilerOptions] = {
    "base": O2,
    "A": O2_SW,
    "B": O3,
    "C": O3_SW,
    "D": TABLE2_D,
    "E": TABLE2_E,
}
