"""repro -- a reproduction of Fred C. Chow, "Minimizing Register Usage
Penalty at Procedure Calls" (PLDI 1988).

The package is a complete toy compiler system: the MiniC source language,
a three-address IR, priority-based coloring register allocation, the
paper's one-pass inter-procedural register allocation (IPRA), shrink-
wrapping of callee-saved saves/restores, an R2000-flavoured code
generator, and a cycle-counting simulator reproducing the paper's
pixie-style measurements.

Quick start::

    from repro import compile_and_run, O2, O3_SW

    src = "func main() { print 42; }"
    base = compile_and_run(src, O2)
    opt = compile_and_run(src, O3_SW)
    assert base.output == opt.output

For repeated compiles of an evolving program, hold a :class:`Compiler`
session instead: it caches per-procedure work between compiles and only
redoes the slice of the call graph an edit (or option flip) actually
invalidates, producing bit-identical executables either way.
"""

from repro.engine import (
    Compiler,
    CompileReport,
    DegradationRecord,
    Engine,
    EngineStats,
)
from repro.frontend.errors import OptionsError
from repro.pipeline import (
    CompiledModule,
    CompiledProgram,
    CompilerOptions,
    compile_and_run,
    compile_module,
    compile_program,
    link_modules,
    O0,
    O1,
    O2,
    O2_SW,
    O3,
    O3_SW,
    PAPER_CONFIGS,
    TABLE2_D,
    TABLE2_E,
)
from repro.sim import (
    ContractViolation,
    RunStats,
    SIM_TIERS,
    percent_reduction,
    run_jit,
    run_program,
    simulate,
)
from repro.target.registers import (
    CALLEE_ONLY_7,
    CALLER_ONLY_7,
    Convention,
    ConventionError,
    DEFAULT_CONVENTION,
    split_convention,
    validate_convention,
)

__version__ = "1.0.0"

__all__ = [
    "Compiler",
    "CompiledModule",
    "CompiledProgram",
    "CompilerOptions",
    "CompileReport",
    "DegradationRecord",
    "Engine",
    "EngineStats",
    "OptionsError",
    "compile_and_run",
    "compile_module",
    "compile_program",
    "link_modules",
    "O0",
    "O1",
    "O2",
    "O2_SW",
    "O3",
    "O3_SW",
    "PAPER_CONFIGS",
    "TABLE2_D",
    "TABLE2_E",
    "ContractViolation",
    "RunStats",
    "SIM_TIERS",
    "percent_reduction",
    "run_jit",
    "run_program",
    "simulate",
    "CALLEE_ONLY_7",
    "CALLER_ONLY_7",
    "Convention",
    "ConventionError",
    "DEFAULT_CONVENTION",
    "split_convention",
    "validate_convention",
    "__version__",
]
