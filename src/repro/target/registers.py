"""The virtual R2000-flavoured register file.

Chow's central data structure is "one word of storage" per procedure: an
int bitmask over the register file.  Everything here is bitmask-native --
register sets are plain ints, membership is ``mask >> r.index & 1``, union
and intersection are ``|`` and ``&``, and the mask -> register-list
direction is served from precomputed per-byte tables so hot paths never
loop over bits.

Layout (index = bit position in every mask)::

    0        zero   hardwired zero
    1..3     at0-at2  assembler/codegen scratch (never allocatable)
    4        v0     return value
    5..8     a0-a3  argument registers      (caller-saved, allocatable)
    9..15    t0-t6  temporaries             (caller-saved, allocatable)
    16..24   s0-s8  saved registers         (callee-saved, allocatable)
    25       sp     stack pointer
    26       ra     return address
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Register",
    "Convention",
    "ConventionError",
    "ALL_REGISTERS",
    "ALLOCATABLE",
    "ALLOCATABLE_MASK",
    "CALLER_SAVED",
    "CALLER_SAVED_MASK",
    "CALLEE_SAVED",
    "CALLEE_SAVED_MASK",
    "CALLEE_ONLY_7",
    "CALLER_ONLY_7",
    "DEFAULT_CLOBBER_MASK",
    "DEFAULT_CONVENTION",
    "NUM_PARAM_REGS",
    "NUM_REGISTERS",
    "PARAM_REGS",
    "ZERO",
    "AT0",
    "AT1",
    "AT2",
    "V0",
    "SP",
    "RA",
    "reg",
    "registers_in_mask",
    "split_convention",
    "validate_convention",
]


@dataclass(frozen=True)
class Register:
    """One physical register.  Hashable; identity is the index."""

    index: int
    name: str
    caller_saved: bool = False
    callee_saved: bool = False
    is_param: bool = False

    @property
    def mask(self) -> int:
        return 1 << self.index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"${self.name}"


def _build_file() -> Tuple[Register, ...]:
    regs: List[Register] = [Register(0, "zero")]
    regs += [Register(i, f"at{i - 1}") for i in (1, 2, 3)]
    regs.append(Register(4, "v0"))
    regs += [
        Register(5 + k, f"a{k}", caller_saved=True, is_param=True)
        for k in range(4)
    ]
    regs += [Register(9 + k, f"t{k}", caller_saved=True) for k in range(7)]
    regs += [Register(16 + k, f"s{k}", callee_saved=True) for k in range(9)]
    regs.append(Register(25, "sp"))
    regs.append(Register(26, "ra"))
    return tuple(regs)


ALL_REGISTERS: Tuple[Register, ...] = _build_file()
NUM_REGISTERS = len(ALL_REGISTERS)

ZERO = ALL_REGISTERS[0]
AT0 = ALL_REGISTERS[1]
AT1 = ALL_REGISTERS[2]
AT2 = ALL_REGISTERS[3]
V0 = ALL_REGISTERS[4]
SP = ALL_REGISTERS[25]
RA = ALL_REGISTERS[26]

PARAM_REGS: Tuple[Register, ...] = tuple(
    r for r in ALL_REGISTERS if r.is_param
)
NUM_PARAM_REGS = len(PARAM_REGS)

CALLER_SAVED: Tuple[Register, ...] = tuple(
    r for r in ALL_REGISTERS if r.caller_saved
)
CALLEE_SAVED: Tuple[Register, ...] = tuple(
    r for r in ALL_REGISTERS if r.callee_saved
)
ALLOCATABLE: Tuple[Register, ...] = CALLER_SAVED + CALLEE_SAVED


def _mask_of(regs: Sequence[Register]) -> int:
    m = 0
    for r in regs:
        m |= r.mask
    return m


CALLER_SAVED_MASK = _mask_of(CALLER_SAVED)
CALLEE_SAVED_MASK = _mask_of(CALLEE_SAVED)
ALLOCATABLE_MASK = CALLER_SAVED_MASK | CALLEE_SAVED_MASK

# What a call to a procedure compiled under the default convention may
# destroy: every caller-saved register plus the return-value register.
DEFAULT_CLOBBER_MASK = CALLER_SAVED_MASK | V0.mask

_BY_NAME: Dict[str, Register] = {r.name: r for r in ALL_REGISTERS}


def reg(name: str) -> Register:
    """Look a register up by name (``reg("a0")``)."""
    return _BY_NAME[name]


# ---------------------------------------------------------------------------
# mask -> register list, without per-query bit loops
# ---------------------------------------------------------------------------

# One table per byte position: _BYTE_TABLE[b][v] lists the registers whose
# index is in [8b, 8b+8) and whose bit is set in v << 8b.  A lookup is then
# a handful of table reads + tuple concatenation, and full results are
# memoised per mask.
_BYTE_TABLE: List[List[Tuple[Register, ...]]] = []
for _b in range((NUM_REGISTERS + 7) // 8):
    _table: List[Tuple[Register, ...]] = []
    for _v in range(256):
        _table.append(
            tuple(
                ALL_REGISTERS[_b * 8 + _i]
                for _i in range(8)
                if _v >> _i & 1 and _b * 8 + _i < NUM_REGISTERS
            )
        )
    _BYTE_TABLE.append(_table)

_MASK_CACHE: Dict[int, Tuple[Register, ...]] = {}


def registers_in_mask(mask: int) -> Tuple[Register, ...]:
    """The registers named by ``mask``, in increasing index order."""
    hit = _MASK_CACHE.get(mask)
    if hit is not None:
        return hit
    out: Tuple[Register, ...] = ()
    for b, table in enumerate(_BYTE_TABLE):
        out += table[(mask >> (8 * b)) & 0xFF]
    _MASK_CACHE[mask] = out
    return out


# ---------------------------------------------------------------------------
# calling conventions (first-class; the autotuner's search space)
# ---------------------------------------------------------------------------

class ConventionError(ValueError):
    """An ill-formed :class:`Convention` (overlapping or unallocatable
    masks, argument registers outside the caller-saved set, ...)."""


@dataclass(frozen=True)
class Convention:
    """A first-class calling convention: the paper's fixed caller/callee
    split and register-parameter count, as data.

    ``caller_mask`` / ``callee_mask`` classify the *machine's* allocatable
    register classes (linkage is a whole-program agreement, independent
    of how many registers one compile may hand out); ``allocatable`` is
    the ordered subset the allocator may actually assign (allocation
    preference follows tuple order).  ``num_arg_regs`` says how many
    leading parameters travel in ``PARAM_REGS``; the rest go to the
    stack.

    ``name`` is cosmetic (excluded from equality and fingerprints);
    everything else is functional and participates in every cache key
    via :meth:`key`.
    """

    allocatable: Tuple[Register, ...] = ALLOCATABLE
    caller_mask: int = CALLER_SAVED_MASK
    callee_mask: int = CALLEE_SAVED_MASK
    num_arg_regs: int = NUM_PARAM_REGS
    name: str = field(default="custom", compare=False)

    # -- derived views ------------------------------------------------------

    @property
    def mask(self) -> int:
        """Bitmask of the allocatable registers."""
        return _mask_of(self.allocatable)

    @property
    def param_regs(self) -> Tuple[Register, ...]:
        """Registers carrying the leading parameters, in position order."""
        return PARAM_REGS[: self.num_arg_regs]

    @property
    def default_clobber_mask(self) -> int:
        """What a call to a procedure compiled under this convention's
        default linkage may destroy: every caller-saved register plus
        the return-value register."""
        return self.caller_mask | V0.mask

    def is_caller_saved(self, r: Register) -> bool:
        return bool(self.caller_mask >> r.index & 1)

    def is_callee_saved(self, r: Register) -> bool:
        return bool(self.callee_mask >> r.index & 1)

    # -- functional updates -------------------------------------------------

    def with_allocatable(
        self, regs: Sequence[Register]
    ) -> "Convention":
        """The same linkage agreement over a different allocatable pool
        (e.g. the demotion ladder's empty-file reference rung)."""
        return Convention(
            allocatable=tuple(regs),
            caller_mask=self.caller_mask,
            callee_mask=self.callee_mask,
            num_arg_regs=self.num_arg_regs,
            name=self.name,
        )

    # -- stable serialisations ----------------------------------------------

    def key(self) -> Tuple:
        """The functional content as a flat tuple of ints/strings --
        what every plan/codegen/fingerprint cache key folds in, so two
        conventions never collide in any cache layer."""
        return (
            tuple(r.index for r in self.allocatable),
            self.caller_mask,
            self.callee_mask,
            self.num_arg_regs,
        )

    def to_spec(self) -> Dict[str, object]:
        """JSON-friendly spec (used by the tuner's report artifact);
        :meth:`from_spec` inverts."""
        return {
            "name": self.name,
            "allocatable": [r.index for r in self.allocatable],
            "caller_mask": self.caller_mask,
            "callee_mask": self.callee_mask,
            "num_arg_regs": self.num_arg_regs,
        }

    @staticmethod
    def from_spec(spec: Dict[str, object]) -> "Convention":
        return Convention(
            allocatable=tuple(
                ALL_REGISTERS[i] for i in spec["allocatable"]
            ),
            caller_mask=int(spec["caller_mask"]),
            callee_mask=int(spec["callee_mask"]),
            num_arg_regs=int(spec["num_arg_regs"]),
            name=str(spec.get("name", "custom")),
        )

    def describe(self) -> str:
        callers = len(registers_in_mask(self.caller_mask))
        callees = len(registers_in_mask(self.callee_mask))
        return (
            f"{self.name}: {len(self.allocatable)} allocatable "
            f"({callers} caller-saved / {callees} callee-saved), "
            f"{self.num_arg_regs} register args"
        )


def validate_convention(conv: Convention) -> Convention:
    """Eagerly check a :class:`Convention` for violations that would
    otherwise miscompile or surface as deep errors; returns ``conv``
    unchanged so call sites can validate inline."""
    if not isinstance(conv, Convention):
        raise ConventionError(
            f"expected Convention, got {type(conv).__name__}"
        )
    if conv.caller_mask & conv.callee_mask:
        overlap = registers_in_mask(conv.caller_mask & conv.callee_mask)
        raise ConventionError(
            "caller and callee masks overlap on "
            + ", ".join(f"${r.name}" for r in overlap)
        )
    if (conv.caller_mask | conv.callee_mask) & ~ALLOCATABLE_MASK:
        bad = registers_in_mask(
            (conv.caller_mask | conv.callee_mask) & ~ALLOCATABLE_MASK
        )
        raise ConventionError(
            "convention masks cover reserved registers: "
            + ", ".join(f"${r.name}" for r in bad)
        )
    unclassified = conv.mask & ~(conv.caller_mask | conv.callee_mask)
    if unclassified:
        bad = registers_in_mask(unclassified)
        raise ConventionError(
            "allocatable registers with no save class: "
            + ", ".join(f"${r.name}" for r in bad)
        )
    if not 0 <= conv.num_arg_regs <= NUM_PARAM_REGS:
        raise ConventionError(
            f"num_arg_regs must be in 0..{NUM_PARAM_REGS}, "
            f"got {conv.num_arg_regs}"
        )
    staged = _mask_of(conv.param_regs)
    if staged & conv.callee_mask:
        bad = registers_in_mask(staged & conv.callee_mask)
        raise ConventionError(
            "argument registers must be caller-saved, but "
            + ", ".join(f"${r.name}" for r in bad)
            + " are callee-saved"
        )
    seen = 0
    for r in conv.allocatable:
        if seen >> r.index & 1:
            raise ConventionError(f"duplicate allocatable register ${r.name}")
        seen |= r.mask
    return conv


#: the paper's fixed convention: a0-a3/t0-t6 caller-saved, s0-s8
#: callee-saved, four register parameters
DEFAULT_CONVENTION = validate_convention(Convention(name="chow88"))

#: paper config D re-expressed: IPRA restricted to 7 caller-saved regs
CALLER_ONLY_7 = validate_convention(
    Convention(allocatable=CALLER_SAVED[:7], name="caller-only-7")
)

#: paper config E re-expressed: IPRA restricted to 7 callee-saved regs
CALLEE_ONLY_7 = validate_convention(
    Convention(allocatable=CALLEE_SAVED[:7], name="callee-only-7")
)


def split_convention(
    split: int,
    num_arg_regs: int = NUM_PARAM_REGS,
    name: Optional[str] = None,
) -> Convention:
    """Re-partition the 20 allocatable registers at ``split``: the first
    ``split`` registers of the canonical order (a0-a3, t0-t6, s0-s8)
    become caller-saved, the rest callee-saved.  This is the autotuner's
    primary search axis; ``split=11`` with 4 argument registers
    reproduces :data:`DEFAULT_CONVENTION` exactly."""
    if not 0 <= split <= len(ALLOCATABLE):
        raise ConventionError(
            f"split must be in 0..{len(ALLOCATABLE)}, got {split}"
        )
    if split < num_arg_regs:
        raise ConventionError(
            f"split {split} leaves argument register "
            f"${ALLOCATABLE[split].name} callee-saved; "
            f"need split >= num_arg_regs ({num_arg_regs})"
        )
    caller = _mask_of(ALLOCATABLE[:split])
    callee = _mask_of(ALLOCATABLE[split:])
    if name is None:
        name = f"split-{split}-args-{num_arg_regs}"
    return validate_convention(
        Convention(
            allocatable=ALLOCATABLE,
            caller_mask=caller,
            callee_mask=callee,
            num_arg_regs=num_arg_regs,
            name=name,
        )
    )
