"""The virtual R2000-flavoured target: registers, ISA, frames, codegen.

Exports are resolved lazily (PEP 562): ``codegen`` consumes the
allocator's plan types while the allocator itself imports the register
file from here, so eagerly importing everything would be circular.
"""

import importlib
from typing import List

_EXPORTS = {
    "generate_function": "repro.target.codegen",
    "CodegenError": "repro.target.frame",
    "Frame": "repro.target.frame",
    "build_frame": "repro.target.frame",
    "AsmFunction": "repro.target.isa",
    "Instr": "repro.target.isa",
    "MemKind": "repro.target.isa",
    "Opcode": "repro.target.isa",
    "latency": "repro.target.isa",
    "resolve_parallel_moves": "repro.target.parallel_move",
    "ALL_REGISTERS": "repro.target.registers",
    "ALLOCATABLE": "repro.target.registers",
    "ALLOCATABLE_MASK": "repro.target.registers",
    "CALLEE_ONLY_7": "repro.target.registers",
    "CALLEE_SAVED": "repro.target.registers",
    "CALLEE_SAVED_MASK": "repro.target.registers",
    "CALLER_ONLY_7": "repro.target.registers",
    "CALLER_SAVED": "repro.target.registers",
    "CALLER_SAVED_MASK": "repro.target.registers",
    "Convention": "repro.target.registers",
    "ConventionError": "repro.target.registers",
    "DEFAULT_CLOBBER_MASK": "repro.target.registers",
    "DEFAULT_CONVENTION": "repro.target.registers",
    "DEFAULT_LADDER": "repro.target.registers",
    "LADDER_TAGS": "repro.target.registers",
    "NUM_PARAM_REGS": "repro.target.registers",
    "NUM_REGISTERS": "repro.target.registers",
    "PARAM_REGS": "repro.target.registers",
    "Register": "repro.target.registers",
    "reg": "repro.target.registers",
    "registers_in_mask": "repro.target.registers",
    "split_convention": "repro.target.registers",
    "validate_convention": "repro.target.registers",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
