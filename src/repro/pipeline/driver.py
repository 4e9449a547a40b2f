"""The whole-program compilation driver.

Whole-program path (the paper's -O3 setting: Ucode is linked before
optimisation):

    sources -> parse/analyze/lower -> IR link -> IR optimise
            -> plan (intra or IPRA, one pass over the call graph)
            -> codegen -> executable link -> simulate

Separate-compilation path: each module is compiled to object code alone
(externs use the default convention; every procedure is open) and the
objects are linked afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle with the engine
    from repro.engine.stats import CompileRecord

from repro.frontend import analyze, parse
from repro.interproc.allocator import (
    FnPlan,
    PlanOptions,
    ProgramPlan,
    plan_program,
)
from repro.ir.function import IRModule
from repro.ir.lowering import lower_module
from repro.ir.optimize import optimize_module
from repro.ir.verify import verify_module
from repro.pipeline.linker import (
    Executable,
    ObjectCode,
    link_executable,
    link_ir_modules,
)
from repro.pipeline.options import CompilerOptions, O2
from repro.sim.stats import RunStats
from repro.target.codegen import generate_function
from repro.target.registers import ALLOCATABLE_MASK

Source = Union[str, Tuple[str, str]]  # source text or (module name, text)


@dataclass
class CompiledProgram:
    """Executable plus everything useful for inspection and tests."""

    executable: Executable
    ir: IRModule
    plan: ProgramPlan
    options: CompilerOptions
    #: the building compile's outcome -- stage timings, cache counts,
    #: demoted procedures, store corruptions; ``None`` when the program
    #: was built by the reference pipeline rather than an engine
    record: Optional["CompileRecord"] = None

    def run(self, **kwargs) -> RunStats:
        """Simulate the program; ``sim_tier`` selects the engine
        ("auto" picks a translated tier -- tier 3 when a profile is
        attached -- unless contract checking or block profiling needs
        the interpreter).  The returned :class:`RunStats` carries the
        run's own outcome (``sim_fallback``, ``jit3``)."""
        return self.executable.run(**kwargs)


def _parse_sources(sources: Union[Source, Sequence[Source]]) -> List[IRModule]:
    if isinstance(sources, (str, tuple)):
        sources = [sources]
    modules = []
    for i, src in enumerate(sources):
        if isinstance(src, tuple):
            name, text = src
        else:
            name, text = f"module{i}" if i else "main", src
        modules.append(lower_module(analyze(parse(text, name))))
    return modules


def _plan_options(options: CompilerOptions) -> PlanOptions:
    convention = options.convention
    if not options.allocate_registers:
        convention = convention.with_allocatable(())
    return PlanOptions(
        convention=convention,
        ipra=options.ipra,
        shrink_wrap=options.shrink_wrap,
        combine=options.combine,
        prefer_subtree_reg=options.prefer_subtree_reg,
        smear_loops=options.smear_loops,
        externally_visible=options.externally_visible,
        entry=options.entry,
        block_weights=options.block_weights,
        ipra_globals=options.ipra_globals,
    )


def _preserved_mask(plan: FnPlan) -> int:
    """Registers this procedure's code must leave intact for its caller
    (used by the simulator's dynamic contract checker)."""
    if plan.summary is not None and plan.summary.closed:
        return ALLOCATABLE_MASK & ~plan.summary.used_mask
    return plan.convention.callee_mask


def _codegen_module(
    module: IRModule, plan: ProgramPlan, options: CompilerOptions
) -> ObjectCode:
    obj = ObjectCode(
        globals=dict(module.globals), arrays=dict(module.arrays)
    )
    for name in module.functions:
        fnplan = plan.plans[name]
        obj.functions[name] = generate_function(fnplan, module.arrays)
        obj.preserved_masks[name] = _preserved_mask(fnplan)
    return obj


def _reference_compile_program(
    sources: Union[Source, Sequence[Source]],
    options: CompilerOptions = O2,
) -> CompiledProgram:
    """The original sequential whole-program pipeline, kept as the oracle
    for the incremental engine's bit-identity property (tests compare
    every cached compile against this)."""
    modules = _parse_sources(sources)
    program = link_ir_modules(modules)
    verify_module(program)
    if options.optimize_ir:
        optimize_module(program)
        verify_module(program)
    plan = plan_program(program, _plan_options(options))
    obj = _codegen_module(program, plan, options)
    exe = link_executable([obj], entry=options.entry)
    return CompiledProgram(
        executable=exe, ir=program, plan=plan, options=options
    )


def compile_program(
    sources: Union[Source, Sequence[Source]],
    options: CompilerOptions = O2,
) -> CompiledProgram:
    """Compile one or more MiniC sources as a whole program.

    One-shot wrapper over :class:`repro.Compiler`: a throwaway session
    compiles the sources and is discarded, so nothing is cached between
    calls.  Keep a :class:`~repro.engine.session.Compiler` instead when
    recompiling edited variants of the same program.
    """
    from repro.engine.session import Compiler

    return Compiler(options).add_sources(sources).compile()


@dataclass
class CompiledModule:
    """One separately compiled translation unit."""

    object_code: ObjectCode
    ir: IRModule
    plan: ProgramPlan


def compile_module(source: Source, options: CompilerOptions = O2) -> CompiledModule:
    """Compile a single module in isolation (separate compilation).

    Every procedure is treated as externally visible, hence open; calls to
    externs assume the default convention.  This reproduces the paper's
    incomplete-information regime of Section 3.
    """
    from repro.engine.session import Compiler

    return Compiler(options).compile_module(source)


def link_modules(
    compiled: Sequence[CompiledModule], entry: str = "main"
) -> Executable:
    """Link separately compiled modules into an executable."""
    from repro.engine.session import Compiler

    return Compiler().link(compiled, entry=entry)


def compile_and_run(
    sources: Union[Source, Sequence[Source]],
    options: CompilerOptions = O2,
    **run_kwargs,
) -> RunStats:
    """One-stop helper: compile as a whole program and execute."""
    return compile_program(sources, options).run(**run_kwargs)
