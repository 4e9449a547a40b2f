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

Planning runs level-by-level over the call graph's SCC condensation
(:mod:`repro.engine.scheduler`); the plan-key model makes each level's
procedures independent, so the levels may run on a thread pool without
affecting output.  :meth:`Engine.compile_batch` exploits the same
property across *programs*: the levels of several independent requests
are merged depth-by-depth onto one schedule, so procedures from
different requests plan concurrently and identical procedures
deduplicate through the shared caches.

The plan and codegen caches are :class:`GuardedCache` instances: every
entry carries a content checksum recomputed on lookup, so a corrupted
entry (bit rot, or an injected ``corrupt`` fault) is detected,
invalidated and recomputed instead of silently miscompiling.

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
recorded in the compile's :class:`CompileReport`.  The fault-free path
is bit-identical to a non-resilient compile.
"""

from __future__ import annotations

import time
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
from repro.engine.resilience import (
    CompileReport,
    GuardedCache,
    ResiliencePolicy,
)
from repro.engine.scheduler import default_workers, run_levels, scc_levels
from repro.engine.stats import CompileRecord, EngineStats
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


# -- cache content checksums -------------------------------------------------

def _plan_fingerprint(plan: FnPlan) -> Tuple:
    """Cheap content checksum over the fields downstream stages consume."""
    s = plan.summary
    return (
        plan.name,
        plan.mode,
        plan.saved_mask,
        tuple(sorted(plan.wrapped)),
        tuple(r.index for r in plan.entry_exit_saves),
        tuple(
            (p.pos, None if p.reg is None else p.reg.index, p.dead)
            for p in plan.incoming_params
        ),
        None if s is None else (s.closed, s.used_mask, s.saved_locally_mask),
    )


def _codegen_fingerprint(entry: Tuple[AsmFunction, int]) -> Tuple:
    asm, preserved = entry
    instrs = asm.instrs
    return (
        asm.name,
        len(instrs),
        preserved,
        instrs[0].render() if instrs else None,
        instrs[-1].render() if instrs else None,
    )


# -- the open-demotion ladder ------------------------------------------------
#
# The ladder's rung order is convention data (``Convention.ladder``), so
# an autotuner candidate may reorder it; rung ``k`` (1-based) applies the
# strategy named by ``ladder[k - 1]``.

def _demoted_options(popts: PlanOptions, level: int) -> PlanOptions:
    """Plan options for demotion rung ``level`` of the convention's
    ladder (see resilience module for the tag semantics)."""
    tag = popts.convention.ladder[level - 1]
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


def _first_rung(ladder: Sequence[str], was_closed: bool) -> int:
    """A plain ``open`` rung (replan as open, same options) only helps
    procedures that were closed; anything already open (or intra) skips
    past the leading ``open`` rungs."""
    if was_closed:
        return 1
    for i, tag in enumerate(ladder):
        if tag != "open":
            return i + 1
    return len(ladder)


class BatchCancelled(RuntimeError):
    """A :meth:`Engine.compile_batch` request was cooperatively cancelled
    before its work started (every waiter abandoned it).  Placed in the
    request's result slot; never raised out of the batch call."""

    def __init__(self, message: str = "compile request cancelled"):
        super().__init__(message)


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
    """Everything one planning pass needs, bundled so the per-procedure
    task is reusable by both :meth:`Engine._plan` and the merged-level
    schedule of :meth:`Engine.compile_batch`."""

    program: IRModule
    popts: PlanOptions
    record: CompileRecord
    report: Optional[CompileReport]
    forced: Dict[str, int]
    no_store: Set[str]
    result: ProgramPlan
    arities: Dict[str, int]
    cg: Optional[object]
    pos: Dict[str, int]
    levels: List[List[str]]
    allowed_map: Dict[str, object]
    arrays_fp: Tuple
    #: closed summaries published as their levels complete
    closed: Dict[str, object] = field(default_factory=dict)
    #: procedures demoted this pass (forced, or by the fault boundary)
    demoted: Dict[str, int] = field(default_factory=dict)


class Engine:
    """Summary-keyed incremental compiler, one instance per session.

    ``resilient=True`` arms the per-procedure fault boundary (failures
    demote to the open convention instead of aborting the session) and
    the worker watchdogs configured by ``policy``.  ``store_path``
    attaches a persistent cross-process artifact store (a path, or an
    already-open :class:`~repro.store.ArtifactStore` to share one store
    handle between engines).
    """

    def __init__(
        self,
        options: CompilerOptions = O2,
        max_workers: Optional[int] = None,
        resilient: bool = False,
        policy: Optional[ResiliencePolicy] = None,
        store_path=None,
    ):
        self.options = validate_options(options)
        self.max_workers = (
            default_workers() if max_workers is None else max_workers
        )
        self.resilient = bool(resilient)
        self.policy = (
            policy if policy is not None
            else (ResiliencePolicy() if resilient else None)
        )
        self.store = open_store(store_path)
        self.stats = EngineStats()
        self._frontend = FrontendCache(store=self.store)
        self._plans: GuardedCache = GuardedCache(_plan_fingerprint)
        self._codegen: GuardedCache = GuardedCache(_codegen_fingerprint)
        self._last_keys: Optional[Dict[str, PlanKey]] = None
        self._corruptions_reported = 0
        self._store_seen = (0, 0, 0.0)

    # -- public API ---------------------------------------------------------

    def compile(
        self,
        sources: Union[Source, Sequence[Source]],
        options: Optional[CompilerOptions] = None,
    ) -> CompiledProgram:
        """Whole-program compile, reusing everything an edit left alone."""
        options = self.options if options is None else validate_options(options)
        record = self.stats.begin("program")
        report = CompileReport() if self.resilient else None
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
        plan, keys, obj = self._plan_and_codegen(
            program, popts, record, report
        )
        record.invalidated = count_changed(self._last_keys, keys)
        self._last_keys = keys

        with self.stats.timer(record, "link"):
            exe = link_executable([obj], entry=options.entry)
        record.functions = len(program.functions)
        self._finish_record(record, report)
        return CompiledProgram(
            executable=exe, ir=program, plan=plan, options=options,
            report=report, engine_stats=self.stats,
        )

    def compile_module(
        self, source: Source, options: Optional[CompilerOptions] = None
    ) -> CompiledModule:
        """Separate compilation of one unit: every procedure open."""
        options = self.options if options is None else validate_options(options)
        record = self.stats.begin("module")
        report = CompileReport() if self.resilient else None
        ((name, text),) = normalize_sources([source])
        with self.stats.timer(record, "frontend"):
            module = self._frontend.lower_source(
                name, text, options.optimize_ir
            )
            self._drain_frontend_counters(record)
        popts = _plan_options(options.with_(externally_visible=True))
        plan, keys, obj = self._plan_and_codegen(
            module, popts, record, report
        )
        record.functions = len(module.functions)
        self._finish_record(record, report)
        return CompiledModule(object_code=obj, ir=module, plan=plan)

    def compile_batch(
        self,
        requests: Sequence[Union[Source, Sequence[Source]]],
        options: Optional[CompilerOptions] = None,
        should_cancel=None,
    ) -> List[Union[CompiledProgram, Exception]]:
        """Compile many independent programs through one merged schedule.

        Level *k* of the merged schedule is the union of level *k* of
        every request's SCC condensation, so independent procedures from
        different requests plan concurrently and identical procedures
        (near-duplicate requests, shared library code) deduplicate
        through the session caches.  Failures are per-request: slot *i*
        of the returned list is either the built program or the
        exception that request raised.

        ``should_cancel`` arms cooperative cancellation: a zero-argument
        callable polled at request boundaries (before each sequential
        compile, before the merged planning pass, before each request's
        codegen).  Once it returns true, every not-yet-finished request
        gets a :class:`BatchCancelled` in its result slot instead of
        being compiled -- the engine never abandons work mid-procedure,
        so caches stay coherent, it just stops starting new work.  The
        :class:`~repro.service.CompileService` uses this to stop burning
        planner time on a batch whose waiters have all hit their
        deadlines.

        The merged path covers the common case; a resilient engine (or
        a merged pass tripped by an injected fault or a broken store
        pairing) falls back to compiling the affected requests
        individually through :meth:`compile`, which preserves the exact
        per-program restart semantics.
        """
        options = self.options if options is None else validate_options(options)
        cancelled = (
            (lambda: False) if should_cancel is None else should_cancel
        )
        results: List[Union[CompiledProgram, Exception]] = \
            [None] * len(requests)  # type: ignore[list-item]
        if self.resilient or len(requests) <= 1:
            for i, sources in enumerate(requests):
                if cancelled():
                    results[i] = BatchCancelled()
                    continue
                try:
                    results[i] = self.compile(sources, options)
                except Exception as exc:
                    results[i] = exc
            return results

        popts = _plan_options(options)
        prepared: List[List] = []  # [slot index, record, program, ctx]
        for i, sources in enumerate(requests):
            record = CompileRecord(kind="program")
            try:
                with self.stats.timer(record, "frontend"):
                    program = self._lower_and_link(
                        normalize_sources(sources), options, record
                    )
                if options.entry not in program.functions:
                    raise OptionsError(
                        f"entry point {options.entry!r} is not defined by "
                        "the given sources"
                    )
            except Exception as exc:
                results[i] = exc
                continue
            prepared.append([i, record, program, None])

        try:
            if cancelled():
                for slot in prepared:
                    results[slot[0]] = BatchCancelled()
                return results
            t0 = time.perf_counter()
            for slot in prepared:
                slot[3] = self._plan_context(
                    slot[2], popts, slot[1], None, None, None
                )
            merged: List[List[Tuple[int, str]]] = []
            depth = max((len(s[3].levels) for s in prepared), default=0)
            for d in range(depth):
                level: List[Tuple[int, str]] = []
                for slot in prepared:
                    if d < len(slot[3].levels):
                        level.extend(
                            (slot[0], name) for name in slot[3].levels[d]
                        )
                if level:
                    merged.append(level)
            by_slot = {slot[0]: slot for slot in prepared}
            outcomes = run_levels(
                merged,
                lambda key: self._plan_one(by_slot[key[0]][3], key[1]),
                self.max_workers,
            )
            plan_seconds = time.perf_counter() - t0

            for slot in prepared:
                i, record, program, ctx = slot
                if cancelled():
                    results[i] = BatchCancelled()
                    continue
                record.stages["plan"].seconds += (
                    plan_seconds / len(prepared)
                )
                own = {
                    name: outcomes[(i, name)] for name in ctx.result.order
                }
                plan, keys = self._assemble(ctx, own)
                record.invalidated = count_changed(self._last_keys, keys)
                self._last_keys = keys
                with self.stats.timer(record, "codegen"):
                    obj = self._codegen_module(
                        program, plan, keys, record, None
                    )
                with self.stats.timer(record, "link"):
                    exe = link_executable([obj], entry=options.entry)
                record.functions = len(program.functions)
                self.stats.records.append(record)
                self._finish_record(record, None)
                results[i] = CompiledProgram(
                    executable=exe, ir=program, plan=plan, options=options,
                    engine_stats=self.stats,
                )
        except Exception:
            # the merged pass tripped (injected fault, store pairing
            # break, a planner bug in one request): finish the remaining
            # requests one at a time with full restart semantics
            for slot in prepared:
                if results[slot[0]] is None:
                    if cancelled():
                        results[slot[0]] = BatchCancelled()
                        continue
                    try:
                        results[slot[0]] = self.compile(
                            requests[slot[0]], options
                        )
                    except Exception as exc:
                        results[slot[0]] = exc
        return results

    # -- internals ----------------------------------------------------------

    def _finish_record(
        self, record: CompileRecord, report: Optional[CompileReport]
    ) -> None:
        total = self._plans.corruptions + self._codegen.corruptions
        record.cache_corruptions = total - self._corruptions_reported
        self._corruptions_reported = total
        if self.store is not None:
            st = self.store.stats
            stage = record.stages["store"]
            hits, misses, seconds = self._store_seen
            stage.hits += st.hits - hits
            stage.misses += st.misses - misses
            stage.seconds += st.seconds - seconds
            self._store_seen = (st.hits, st.misses, st.seconds)
            record.cache_corruptions += st.corruptions
        if report is not None:
            report.cache_corruptions += record.cache_corruptions
            record.degraded = len(report.degradations)
            record.retries = report.retries
        record.total_seconds = sum(
            s.seconds for s in record.stages.values()
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
        report: Optional[CompileReport],
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
        rungs = len(popts.convention.ladder)
        bound = (rungs + 1) * len(program.functions) + 2
        for _ in range(bound):
            with self.stats.timer(record, "plan"):
                plan, keys = self._plan(
                    program, popts, record, report, forced, no_store
                )
            try:
                with self.stats.timer(record, "codegen"):
                    obj = self._codegen_module(
                        program, plan, keys, record, report, no_store
                    )
            except _ReplanWithoutStore as replan:
                self._plans.drop(keys[replan.name])
                no_store.add(replan.name)
                continue
            except _DemoteAtCodegen as demote:
                # plan-stage demotions stick across the restart so the
                # report and the artifact stay consistent
                for name, key in keys.items():
                    if key[0] is _DEMOTED:
                        forced.setdefault(name, key[2])
                forced[demote.name] = demote.level
                continue
            return plan, keys, obj
        raise RuntimeError(
            "resilient compile failed to stabilise demotions"
        )  # pragma: no cover - loop bound is a safety net

    def _plan_context(
        self,
        program: IRModule,
        popts: PlanOptions,
        record: CompileRecord,
        report: Optional[CompileReport],
        forced: Optional[Dict[str, int]],
        no_store: Optional[Set[str]],
    ) -> _PlanContext:
        """Replicates ``plan_program``'s setup: call graph, postorder,
        level schedule, and the mod/ref prepass."""
        forced = dict(forced) if forced else {}
        result = ProgramPlan(module=program)
        arities = {
            name: len(fn.params) for name, fn in program.functions.items()
        }
        arities.update(program.externs)

        if popts.ipra:
            cg = build_call_graph(
                program,
                entry=popts.entry,
                externally_visible=popts.externally_visible,
            )
            result.call_graph = cg
            result.order = dfs_postorder(cg)
            levels = scc_levels(result.order, cg)
        else:
            cg = None
            result.order = list(program.functions)
            levels = [result.order] if result.order else []
        pos = {name: i for i, name in enumerate(result.order)}

        # mod/ref prepass: mirrors the sequential allocator's accumulation
        # (the modref map never depends on plans, only on IR)
        allowed_map: Dict[str, object] = {}
        if popts.ipra and popts.ipra_globals:
            modref: Dict[str, object] = {}
            for name in result.order:
                fn = program.functions[name]
                allowed_map[name] = cacheable_globals(fn, modref)
                modref[name] = subtree_global_refs(fn, modref)

        return _PlanContext(
            program=program,
            popts=popts,
            record=record,
            report=report,
            forced=forced,
            no_store=set(no_store) if no_store else set(),
            result=result,
            arities=arities,
            cg=cg,
            pos=pos,
            levels=levels,
            allowed_map=allowed_map,
            arrays_fp=tuple(sorted(program.arrays.items())),
            demoted=dict(forced),
        )

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
        if faults.corrupts(faults.SITE_CACHE_PLAN, name):
            self._plans.corrupt(key)
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
                if ctx.report is None:
                    raise
                plan, level = self._demote(
                    fn, ctx.popts, eff, ctx.arities, is_open, exc,
                    ctx.report,
                )
                ctx.demoted[name] = level
                return (_DEMOTED, name, level), plan, False
            self._plans.put(key, plan)
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
        if self._codegen.get(ckey) is None:
            entry = self.store.get(NS_CODEGEN, ckey)
            if not (isinstance(entry, tuple) and len(entry) == 2):
                return None
            self._codegen.put(ckey, entry)
        self._plans.put(key, stub)
        return stub

    def _plan(
        self,
        program: IRModule,
        popts: PlanOptions,
        record: CompileRecord,
        report: Optional[CompileReport] = None,
        forced: Optional[Dict[str, int]] = None,
        no_store: Optional[Set[str]] = None,
    ) -> Tuple[ProgramPlan, Dict[str, PlanKey]]:
        """Replicates ``plan_program`` with per-procedure memoisation and
        a level-parallel schedule.

        ``forced`` maps procedure name -> demotion rung for procedures
        that must be planned open regardless of faults (codegen-stage
        demotions being replanned); ``no_store`` names procedures pinned
        to from-scratch plans after a store pairing break.
        """
        ctx = self._plan_context(
            program, popts, record, report, forced, no_store
        )

        def on_retry(name: str) -> None:
            if ctx.report is not None:
                ctx.report.retries += 1

        outcomes = run_levels(
            ctx.levels,
            lambda name: self._plan_one(ctx, name),
            self.max_workers,
            policy=self.policy if self.resilient else None,
            on_retry=on_retry,
        )
        return self._assemble(ctx, outcomes)

    def _assemble(
        self, ctx: _PlanContext, outcomes: Dict[str, Tuple]
    ) -> Tuple[ProgramPlan, Dict[str, PlanKey]]:
        keys: Dict[str, PlanKey] = {}
        stage = ctx.record.stages["plan"]
        for name in ctx.result.order:
            key, plan, hit = outcomes[name]
            keys[name] = key
            ctx.result.plans[name] = plan
            if plan.summary is not None:
                ctx.result.summaries[name] = plan.summary
            if hit:
                stage.hits += 1
            else:
                stage.misses += 1
        return ctx.result, keys

    def _demote(
        self, fn, popts, eff, arities, is_open, exc, report
    ) -> Tuple[FnPlan, int]:
        """Walk the demotion ladder after a planning failure; returns the
        first plan that compiles, or re-raises the original error when
        even the reference convention cannot be planned."""
        ladder = popts.convention.ladder
        was_closed = popts.ipra and not is_open
        for level in range(_first_rung(ladder, was_closed), len(ladder) + 1):
            try:
                plan = _plan_demoted(fn, popts, eff, arities, level)
            except Exception:
                continue
            report.record(fn.name, "plan", exc, ladder[level - 1])
            return plan, level
        raise exc

    def _codegen_module(
        self,
        program: IRModule,
        plan: ProgramPlan,
        keys: Dict[str, PlanKey],
        record: CompileRecord,
        report: Optional[CompileReport] = None,
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
                if faults.corrupts(faults.SITE_CACHE_CODEGEN, name):
                    self._codegen.corrupt(ckey)
                cached = self._codegen.get(ckey)
                if cached is None and self.store is not None \
                        and name not in no_store:
                    entry = self.store.get(NS_CODEGEN, ckey)
                    if isinstance(entry, tuple) and len(entry) == 2:
                        self._codegen.put(ckey, entry)
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
                    if report is None:
                        raise
                    ladder = fnplan.convention.ladder
                    next_level = max(
                        demoted_level + 1,
                        _first_rung(ladder, fnplan.mode == "closed"),
                    ) if not demoted_level else demoted_level + 1
                    if next_level > len(ladder):
                        raise
                    report.record(
                        name, "codegen", exc, ladder[next_level - 1]
                    )
                    raise _DemoteAtCodegen(name, next_level) from exc
                preserved = _preserved_mask(fnplan)
                if not demoted_level:
                    self._codegen.put(ckey, (asm, preserved))
                    if self.store is not None and name not in no_store:
                        self.store.put(NS_CODEGEN, ckey, (asm, preserved))
            obj.functions[name] = asm
            obj.preserved_masks[name] = preserved
        return obj
