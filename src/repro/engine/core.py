"""The incremental compilation engine.

:class:`Engine` produces the same artifacts as the one-shot driver --
``CompiledProgram`` / ``CompiledModule`` objects, bit-identical
executables -- but memoises every per-procedure stage across compiles of
one session:

===========  =============================================  ============
stage        cache key                                      cached value
===========  =============================================  ============
front end    (symbol table hash, chunk text hash, opt?)     IRFunction
plan         :func:`~repro.engine.invalidation.plan_key`    FnPlan
codegen      (plan key, program array symbols)              AsmFunction
===========  =============================================  ============

Nothing is ever marked stale; a compile recomputes the (cheap) keys and
misses exactly where an input changed.  Editing one procedure's body
re-plans that procedure plus the ancestors whose view of a callee
summary changed -- usually just the chain to the root, and nothing at
all when the edit leaves the summary signature intact.  Flipping a plan
option (say ``shrink_wrap``) changes every plan key but no front-end
key, so parsing and lowering are fully reused.

Planning is one pass over the call graph's depth-first postorder, the
order the reference ``plan_program`` uses, so every closed callee's
summary is published before its callers are planned.
:meth:`Engine.compile_batch` compiles several independent programs one
after another through :meth:`Engine.compile` (the convention tuner
builds each candidate's program set this way); identical procedures
across the requests deduplicate through the shared caches.  The compile
service calls :meth:`Engine.compile` once per request.

The plan and codegen caches are plain dicts: an in-memory entry changes
only if the engine has a bug, and a checksum recomputed on every hit
would not catch that either.

With ``store_path=...`` the engine adds a second, *persistent* level
below the in-memory caches: a sharded content-addressed
:class:`~repro.store.ArtifactStore` shared across sessions and
processes.  Lookups fall through memory to disk and write through on a
miss, so a brand-new process warm-starts from another process's work.
A plan restored from disk is a :class:`~repro.store.StoredPlan` stub --
the full ``FnPlan`` cannot cross processes -- and is only ever accepted
together with its matching codegen artifact; if that pairing breaks
mid-session (eviction, corruption), the compile restarts with the
affected procedure pinned to a full from-scratch plan
(:class:`_ReplanWithoutStore`), which keeps every store failure mode
invisible in the output.

A **resilient** engine (``Engine(..., resilient=True)``) additionally
wraps per-procedure planning and codegen in a fault boundary: a failure
demotes that procedure to the *open* classification -- Chow's own
safety valve for procedures that cannot be fully analysed -- and
recompiles it with the default linkage convention down the ladder in
:mod:`repro.engine.resilience`.  Callers then see the callee-saved
barrier summary of an open procedure, so the program stays sound,
merely conservative, and the session stays usable; each demotion is
recorded on the compile's :class:`~repro.engine.stats.CompileRecord`.
The fault-free path is bit-identical to a non-resilient compile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as _options_replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import faults
from repro.engine.frontend import FrontendCache
from repro.engine.invalidation import (
    PlanKey,
    count_changed,
    effective_summaries,
    plan_key,
)
from repro.engine.resilience import LADDER
from repro.engine.stats import PIPELINE_STAGES, CompileRecord, EngineStats
from repro.frontend.errors import OptionsError
from repro.interproc.allocator import (
    FnPlan,
    PlanOptions,
    ProgramPlan,
    plan_function,
)
from repro.interproc.callgraph import build_call_graph, dfs_postorder
from repro.interproc.modref import cacheable_globals, subtree_global_refs
from repro.ir.function import IRModule
from repro.pipeline.driver import (
    CompiledModule,
    CompiledProgram,
    Source,
    _plan_options,
    _preserved_mask,
)
from repro.pipeline.linker import ObjectCode, link_executable, link_ir_modules
from repro.pipeline.options import CompilerOptions, O2, validate_options
from repro.store.artifacts import StoredPlan
from repro.store.store import NS_CODEGEN, NS_PLAN, open_store
from repro.target.codegen import generate_function
from repro.target.isa import AsmFunction

#: first element of the plan key of a demoted procedure; demoted keys are
#: never stored in the clean caches, only used to re-key dependants
_DEMOTED = "__demoted__"


def normalize_sources(
    sources: Union[Source, Sequence[Source]]
) -> List[Tuple[str, str]]:
    """(name, text) pairs with the driver's historical naming scheme."""
    if isinstance(sources, (str, tuple)):
        sources = [sources]
    named: List[Tuple[str, str]] = []
    for i, src in enumerate(sources):
        if isinstance(src, tuple):
            named.append(src)
        else:
            named.append((f"module{i}" if i else "main", src))
    return named


# -- the open-demotion ladder ------------------------------------------------

def _demoted_options(popts: PlanOptions, level: int) -> PlanOptions:
    """Plan options for demotion rung ``level`` of :data:`LADDER` (see
    the resilience module for the tag semantics)."""
    tag = LADDER[level - 1]
    if tag == "open":
        return popts
    if tag == "open-noshrinkwrap":
        return _options_replace(popts, shrink_wrap=False)
    # "open-noregalloc": the reference rung -- no allocation at all
    return _options_replace(
        popts,
        shrink_wrap=False,
        convention=popts.convention.with_allocatable(()),
    )


def _plan_demoted(fn, popts, eff, arities, level: int) -> FnPlan:
    """Plan ``fn`` as an open procedure at demotion rung ``level``.

    ``eff`` keeps the true summaries of closed callees in view: even a
    demoted procedure must act as a save barrier for the callee-saved
    registers its closed subtree clobbers -- the demotion is
    conservative, never unsound.
    """
    return plan_function(
        fn, _demoted_options(popts, level), eff, arities, is_open=True
    )


def _first_rung(was_closed: bool) -> int:
    """A plain ``open`` rung (replan as open, same options) only helps
    procedures that were closed; anything already open (or intra)
    starts at ``open-noshrinkwrap``."""
    return 1 if was_closed else 2


class _DemoteAtCodegen(Exception):
    """Internal: codegen failed for a procedure; replan it demoted."""

    def __init__(self, name: str, level: int):
        self.name = name
        self.level = level
        super().__init__(f"demote {name} to rung {level}")


class _ReplanWithoutStore(Exception):
    """Internal: a store-restored plan stub lost its paired codegen
    artifact (evicted or corrupted mid-session); replan the procedure
    from scratch, bypassing the store for it this compile."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"replan {name} without the artifact store")


@dataclass
class _PlanContext:
    """What one planning pass shares across its procedures."""

    program: IRModule
    popts: PlanOptions
    record: CompileRecord
    forced: Dict[str, int]
    no_store: Set[str]
    arities: Dict[str, int]
    cg: Optional[object]
    pos: Dict[str, int]
    allowed_map: Dict[str, object]
    arrays_fp: Tuple
    #: procedures demoted this pass (forced, or by the fault boundary)
    demoted: Dict[str, int]
    #: closed summaries published as their procedures are planned
    closed: Dict[str, object] = field(default_factory=dict)


class Engine:
    """Summary-keyed incremental compiler, one instance per session.

    ``resilient=True`` arms the per-procedure fault boundary (failures
    demote to the open convention instead of aborting the session).
    ``store_path`` attaches a persistent cross-process artifact store (a
    path, or an already-open :class:`~repro.store.ArtifactStore` to
    share one store handle between engines).
    """

    def __init__(
        self,
        options: CompilerOptions = O2,
        resilient: bool = False,
        store_path=None,
    ):
        self.options = validate_options(options)
        self.resilient = bool(resilient)
        self.store = open_store(store_path)
        self.stats = EngineStats()
        self._frontend = FrontendCache(store=self.store)
        self._plans: Dict[PlanKey, Union[FnPlan, StoredPlan]] = {}
        self._codegen: Dict[Tuple, Tuple[AsmFunction, int]] = {}
        self._last_keys: Optional[Dict[str, PlanKey]] = None
        # the store's cumulative counters as of the last record, so each
        # record gets its own delta (the handle may be shared)
        self._store_seen = self._store_counters()

    # -- public API ---------------------------------------------------------

    def compile(
        self,
        sources: Union[Source, Sequence[Source]],
        options: Optional[CompilerOptions] = None,
    ) -> CompiledProgram:
        """Whole-program compile, reusing everything an edit left alone.

        The returned program's ``record`` is this compile's
        :class:`CompileRecord`, also appended to ``stats.records``.
        """
        options = self.options if options is None else validate_options(options)
        record = self.stats.begin("program")
        try:
            with self.stats.timer(record, "frontend"):
                program = self._lower_and_link(
                    normalize_sources(sources), options, record
                )
            if options.entry not in program.functions:
                raise OptionsError(
                    f"entry point {options.entry!r} is not defined by the "
                    "given sources"
                )

            popts = _plan_options(options)
            plan, keys, obj = self._plan_and_codegen(program, popts, record)
            record.invalidated = count_changed(self._last_keys, keys)
            self._last_keys = keys

            with self.stats.timer(record, "link"):
                exe = link_executable([obj], entry=options.entry)
            record.functions = len(program.functions)
        finally:
            self._finish_record(record)
        return CompiledProgram(
            executable=exe, ir=program, plan=plan, options=options,
            record=record,
        )

    def compile_module(
        self, source: Source, options: Optional[CompilerOptions] = None
    ) -> CompiledModule:
        """Separate compilation of one unit: every procedure open."""
        options = self.options if options is None else validate_options(options)
        record = self.stats.begin("module")
        ((name, text),) = normalize_sources([source])
        try:
            with self.stats.timer(record, "frontend"):
                module = self._frontend.lower_source(
                    name, text, options.optimize_ir
                )
                self._drain_frontend_counters(record)
            popts = _plan_options(options.with_(externally_visible=True))
            plan, keys, obj = self._plan_and_codegen(module, popts, record)
            record.functions = len(module.functions)
        finally:
            self._finish_record(record)
        return CompiledModule(object_code=obj, ir=module, plan=plan)

    def compile_batch(
        self,
        requests: Sequence[Union[Source, Sequence[Source]]],
        options: Optional[CompilerOptions] = None,
    ) -> List[Union[CompiledProgram, Exception]]:
        """Compile many independent programs, one :meth:`compile` each.

        Failures are per-request: slot *i* of the returned list is either
        the built program or the exception that request raised.
        Identical procedures across requests (near-duplicate requests,
        shared library code) deduplicate through the session caches.
        The convention tuner builds each candidate convention's program
        set with one call.
        """
        options = self.options if options is None else validate_options(options)
        results: List[Union[CompiledProgram, Exception]] = []
        for sources in requests:
            try:
                results.append(self.compile(sources, options))
            except Exception as exc:
                results.append(exc)
        return results

    # -- internals ----------------------------------------------------------

    def _store_counters(self) -> Tuple[int, int, float, int]:
        """The store's cumulative counters (zeros without a store)."""
        if self.store is None:
            return (0, 0, 0.0, 0)
        st = self.store.stats
        return (st.hits, st.misses, st.seconds, st.corruptions)

    def _finish_record(self, record: CompileRecord) -> None:
        if self.store is not None:
            now = self._store_counters()
            hits, misses, seconds, corruptions = (
                a - b for a, b in zip(now, self._store_seen)
            )
            self._store_seen = now
            stage = record.stages["store"]
            stage.hits += hits
            stage.misses += misses
            stage.seconds += seconds
            record.cache_corruptions = corruptions
        record.total_seconds = sum(
            record.stages[s].seconds for s in PIPELINE_STAGES
        )

    def _drain_frontend_counters(self, record: CompileRecord) -> None:
        fe = self._frontend
        stage = record.stages["frontend"]
        stage.hits += fe.fn_hits
        stage.misses += fe.fn_misses
        fe.fn_hits = fe.fn_misses = 0

    def _lower_and_link(
        self,
        named: List[Tuple[str, str]],
        options: CompilerOptions,
        record: CompileRecord,
    ) -> IRModule:
        modules = [
            self._frontend.lower_source(name, text, options.optimize_ir)
            for name, text in named
        ]
        self._drain_frontend_counters(record)
        return link_ir_modules(modules)

    def _plan_and_codegen(
        self,
        program: IRModule,
        popts: PlanOptions,
        record: CompileRecord,
    ) -> Tuple[ProgramPlan, Dict[str, PlanKey], ObjectCode]:
        """Plan then codegen, restarting planning when a resilient
        codegen failure requires a procedure to change convention (its
        callers must re-plan against the open summary) or a
        store-restored plan stub loses its paired codegen artifact.

        Each restart either escalates one procedure's demotion rung or
        permanently pins one procedure to a from-scratch plan, so the
        loop terminates after at most ``functions * (rungs + 1)``
        restarts.
        """
        forced: Dict[str, int] = {}
        no_store: Set[str] = set()
        bound = (len(LADDER) + 1) * len(program.functions) + 2
        for _ in range(bound):
            with self.stats.timer(record, "plan"):
                plan, keys = self._plan(
                    program, popts, record, forced, no_store
                )
            try:
                with self.stats.timer(record, "codegen"):
                    obj = self._codegen_module(
                        program, plan, keys, record, no_store
                    )
            except _ReplanWithoutStore as replan:
                self._plans.pop(keys[replan.name], None)
                no_store.add(replan.name)
                continue
            except _DemoteAtCodegen as demote:
                # plan-stage demotions stick across the restart so the
                # record and the artifact stay consistent
                for name, key in keys.items():
                    if key[0] is _DEMOTED:
                        forced.setdefault(name, key[2])
                forced[demote.name] = demote.level
                continue
            return plan, keys, obj
        raise RuntimeError(
            "resilient compile failed to stabilise demotions"
        )  # pragma: no cover - loop bound is a safety net

    def _plan_one(self, ctx: _PlanContext, name: str):
        """Plan one procedure: memory cache, then the persistent store,
        then :func:`plan_function` (with the resilient demotion ladder
        around it)."""
        fn = ctx.program.functions[name]
        is_open = ctx.cg.is_open(name) if ctx.cg is not None else True
        eff = effective_summaries(
            fn, ctx.program, ctx.cg, ctx.pos, ctx.closed,
            demoted=ctx.demoted, convention=ctx.popts.convention,
        )
        level = ctx.forced.get(name)
        if level is not None:
            plan = _plan_demoted(fn, ctx.popts, eff, ctx.arities, level)
            return (_DEMOTED, name, level), plan, False
        allowed = ctx.allowed_map.get(name)
        key = plan_key(fn, ctx.popts, ctx.arities, is_open, eff, allowed)
        plan = self._plans.get(key)
        hit = plan is not None
        if not hit and self.store is not None and name not in ctx.no_store:
            plan = self._plan_from_store(key, ctx.arrays_fp)
            hit = plan is not None
        if not hit:
            try:
                faults.check(faults.SITE_PLAN, name)
                plan = plan_function(
                    fn, ctx.popts, eff, ctx.arities, is_open,
                    allowed_globals=allowed,
                )
            except Exception as exc:
                if not self.resilient:
                    raise
                plan, level = self._demote(
                    fn, ctx.popts, eff, ctx.arities, is_open, exc,
                    ctx.record,
                )
                ctx.demoted[name] = level
                return (_DEMOTED, name, level), plan, False
            self._plans[key] = plan
            if self.store is not None and name not in ctx.no_store:
                self.store.put(NS_PLAN, key, StoredPlan.from_plan(plan))
        if plan.summary is not None and plan.summary.closed:
            ctx.closed[name] = plan.summary
        return key, plan, hit

    def _plan_from_store(self, key: PlanKey, arrays_fp: Tuple):
        """Restore a plan stub from disk -- only together with its
        matching codegen artifact, which is verified and promoted into
        the in-memory codegen cache in the same step (no
        time-of-check/time-of-use window)."""
        stub = self.store.get(NS_PLAN, key)
        if not isinstance(stub, StoredPlan):
            return None
        ckey = (key, arrays_fp)
        if ckey not in self._codegen:
            entry = self.store.get(NS_CODEGEN, ckey)
            if not (isinstance(entry, tuple) and len(entry) == 2):
                return None
            self._codegen[ckey] = entry
        self._plans[key] = stub
        return stub

    def _plan(
        self,
        program: IRModule,
        popts: PlanOptions,
        record: CompileRecord,
        forced: Dict[str, int],
        no_store: Set[str],
    ) -> Tuple[ProgramPlan, Dict[str, PlanKey]]:
        """Replicates ``plan_program`` with per-procedure memoisation:
        call graph, depth-first postorder, the mod/ref prepass, then one
        :meth:`_plan_one` per procedure in that order.

        ``forced`` maps procedure name -> demotion rung for procedures
        that must be planned open regardless of faults (codegen-stage
        demotions being replanned); ``no_store`` names procedures pinned
        to from-scratch plans after a store pairing break.
        """
        result = ProgramPlan(module=program)
        arities = {
            name: len(fn.params) for name, fn in program.functions.items()
        }
        arities.update(program.externs)

        cg = None
        if popts.ipra:
            cg = build_call_graph(
                program,
                entry=popts.entry,
                externally_visible=popts.externally_visible,
            )
            result.call_graph = cg
            result.order = dfs_postorder(cg)
        else:
            result.order = list(program.functions)

        # mod/ref prepass: mirrors the sequential allocator's accumulation
        # (the modref map never depends on plans, only on IR)
        allowed_map: Dict[str, object] = {}
        if popts.ipra and popts.ipra_globals:
            modref: Dict[str, object] = {}
            for name in result.order:
                fn = program.functions[name]
                allowed_map[name] = cacheable_globals(fn, modref)
                modref[name] = subtree_global_refs(fn, modref)

        ctx = _PlanContext(
            program=program,
            popts=popts,
            record=record,
            forced=forced,
            no_store=no_store,
            arities=arities,
            cg=cg,
            pos={name: i for i, name in enumerate(result.order)},
            allowed_map=allowed_map,
            arrays_fp=tuple(sorted(program.arrays.items())),
            demoted=dict(forced),
        )
        keys: Dict[str, PlanKey] = {}
        stage = record.stages["plan"]
        for name in result.order:
            keys[name], plan, hit = self._plan_one(ctx, name)
            result.plans[name] = plan
            if plan.summary is not None:
                result.summaries[name] = plan.summary
            if hit:
                stage.hits += 1
            else:
                stage.misses += 1
        return result, keys

    def _demote(
        self, fn, popts, eff, arities, is_open, exc, record
    ) -> Tuple[FnPlan, int]:
        """Walk the demotion ladder after a planning failure; returns the
        first plan that compiles, or re-raises the original error when
        even the reference convention cannot be planned."""
        was_closed = popts.ipra and not is_open
        for level in range(_first_rung(was_closed), len(LADDER) + 1):
            try:
                plan = _plan_demoted(fn, popts, eff, arities, level)
            except Exception:
                continue
            record.record(fn.name, "plan", exc, LADDER[level - 1])
            return plan, level
        raise exc

    def _codegen_module(
        self,
        program: IRModule,
        plan: ProgramPlan,
        keys: Dict[str, PlanKey],
        record: CompileRecord,
        no_store: Optional[Set[str]] = None,
    ) -> ObjectCode:
        arrays_fp = tuple(sorted(program.arrays.items()))
        no_store = no_store or set()
        obj = ObjectCode(
            globals=dict(program.globals), arrays=dict(program.arrays)
        )
        stage = record.stages["codegen"]
        for name in program.functions:
            fnplan = plan.plans[name]
            key = keys[name]
            demoted_level = key[2] if key[0] is _DEMOTED else 0
            if demoted_level:
                # demoted artifacts are never cached: a transient fault
                # must not poison the session caches
                stage.misses += 1
                cached = None
            else:
                ckey = (key, arrays_fp)
                cached = self._codegen.get(ckey)
                if cached is None and self.store is not None \
                        and name not in no_store:
                    entry = self.store.get(NS_CODEGEN, ckey)
                    if isinstance(entry, tuple) and len(entry) == 2:
                        self._codegen[ckey] = entry
                        cached = entry
            if cached is not None:
                stage.hits += 1
                asm, preserved = cached
            else:
                if not demoted_level:
                    stage.misses += 1
                if isinstance(fnplan, StoredPlan):
                    # the stub's paired artifact is gone from both cache
                    # levels: only a from-scratch plan can regenerate it
                    raise _ReplanWithoutStore(name)
                try:
                    faults.check(faults.SITE_CODEGEN, name)
                    asm = generate_function(fnplan, program.arrays)
                except Exception as exc:
                    if not self.resilient:
                        raise
                    next_level = demoted_level + 1 if demoted_level \
                        else _first_rung(fnplan.mode == "closed")
                    if next_level > len(LADDER):
                        raise
                    record.record(
                        name, "codegen", exc, LADDER[next_level - 1]
                    )
                    raise _DemoteAtCodegen(name, next_level) from exc
                preserved = _preserved_mask(fnplan)
                if not demoted_level:
                    self._codegen[ckey] = (asm, preserved)
                    if self.store is not None and name not in no_store:
                        self.store.put(NS_CODEGEN, ckey, (asm, preserved))
            obj.functions[name] = asm
            obj.preserved_masks[name] = preserved
        return obj
