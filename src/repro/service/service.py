"""An async facade over the incremental engine.

:class:`CompileService` accepts many concurrent compile/run requests
(``await service.compile(sources)``) against one shared
:class:`~repro.engine.core.Engine` -- and therefore one shared set of
in-memory caches and, with ``store_path=...``, one shared persistent
artifact store.

**Serving.**  Distinct requests queue in arrival order and are served
one at a time, each by its own :meth:`Engine.compile` call on the
event loop's default executor; a result is delivered as soon as its own
compile lands.  Requests that share procedures still deduplicate that
work through the session caches.

**Single-flight.**  Requests are keyed by
:func:`~repro.engine.fingerprint.request_fingerprint` (source texts +
full options digest).  While a request is being compiled, every further
request with the same fingerprint awaits the *same* in-flight future
instead of compiling again; its :class:`ServiceResult` comes back with
``deduped=True``.  A request arriving after the flight lands simply
re-enters through the engine caches (which make it nearly free) --
single-flight bounds duplicate *work in flight*, not duplicate lookups.

On top of those sits the **resilience layer** -- the service-grade
guarantees a front end serving heavy traffic needs:

**Deadlines.**  ``compile(..., deadline=s)`` (or a service-wide
``default_deadline``) bounds how long a waiter blocks: expiry raises a
typed :class:`DeadlineExceeded`.  Cancellation is *cooperative* and
per request: a request whose waiters have all expired is dropped before
dispatch, however long the requests ahead of it took -- the engine
never abandons work mid-procedure, so caches stay coherent.

**Degraded serving.**  The engine is resilient
(``Engine(..., resilient=True)``): a procedure whose planning or
codegen raises is demoted down the open-convention ladder of
:mod:`repro.engine.resilience` on its first request, and the request
is served a conservative but sound program -- ``ServiceResult.degraded``
says so, and ``program.record`` names the procedure.  Nothing is
retried: a deterministic :class:`~repro.frontend.errors.CompileError`
or a crashing stage would fail identically every time, and demoted
plans are never cached, so the next fault-free request compiles the
clean program.

**Admission control.**  Once the pending queue passes the ``max_queue``
high-water mark, new requests are shed with a typed
:class:`ServiceOverloaded` instead of growing the queue without bound.

**Graceful drain.**  ``join(drain=True)`` (or :meth:`drain`) stops
admitting (:class:`ServiceClosed`), flushes the queued requests, and
-- given a ``deadline`` -- fails the stragglers with
:class:`DeadlineExceeded` rather than stalling shutdown forever.

Fault-injection site (:mod:`repro.faults`): ``service-deadline``
consults on the executor thread right before each request dispatch (a
``hang`` models a stalled planner, a ``raise`` fails that request).

The engine runs one request at a time -- it is a session object, not a
thread-safe one; the service is the serialisation point.  Each result's
``program.record`` is the request's
:class:`~repro.engine.stats.CompileRecord` (stage seconds, cache and
store hit/miss counts, demoted procedures); the result adds a snapshot
of the store's cumulative counters (hits/misses/evictions/corruptions).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.engine.core import Engine, normalize_sources
from repro.engine.fingerprint import request_fingerprint
from repro.pipeline.driver import CompiledProgram, Source
from repro.pipeline.options import CompilerOptions, O2, validate_options


class ServiceError(RuntimeError):
    """Base class for the service's typed rejections."""


class ServiceOverloaded(ServiceError):
    """The request was shed by admission control (queue past its
    high-water mark)."""


class ServiceClosed(ServiceError):
    """The service is draining and no longer admits requests."""


class DeadlineExceeded(ServiceError):
    """The request's deadline expired before a result was available.

    The underlying flight may still land and warm the caches; only the
    *waiter* gives up."""


@dataclass
class ServiceStats:
    """Cumulative counters for one :class:`CompileService`."""

    requests: int = 0
    deduped: int = 0         # requests served by an in-flight duplicate
    compiled: int = 0        # requests that produced a program
    failed: int = 0          # requests that raised
    shed: int = 0            # requests rejected by admission control
    deadline_expired: int = 0  # waiters that gave up at their deadline
    cancelled: int = 0       # requests cooperatively cancelled pre-result
    degraded: int = 0        # compiled requests with a demoted procedure

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "deduped": self.deduped,
            "compiled": self.compiled,
            "failed": self.failed,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "cancelled": self.cancelled,
            "degraded": self.degraded,
        }


@dataclass
class ServiceResult:
    """One request's outcome."""

    program: CompiledProgram
    fingerprint: str
    #: True when this request awaited another request's in-flight compile
    deduped: bool = False
    #: cumulative store counters at completion (None without a store)
    store: Optional[Dict] = None

    @property
    def degraded(self) -> bool:
        """True when a fault demoted a procedure of this program to the
        open convention (conservative, sound); ``program.record`` names
        it."""
        return bool(self.program.record.degradations)


@dataclass
class _Pending:
    fingerprint: str
    sources: List[Tuple[str, str]]
    options: CompilerOptions
    future: "asyncio.Future[ServiceResult]"
    #: monotonic instant after which every waiter has given up
    #: (``None`` = at least one waiter has no deadline: never cancel)
    expiry: Optional[float] = None


def _retrieve_exception(future: "asyncio.Future") -> None:
    """Mark a future's exception retrieved even when every waiter has
    already abandoned it (deadline expiry), silencing the event loop's
    'exception was never retrieved' warning."""
    if not future.cancelled():
        future.exception()


class CompileService:
    """Async, deduplicating compile server over one resilient engine.

    Distinct requests are served one engine call each, in arrival order;
    concurrent identical requests share one flight.

    Usage::

        service = CompileService(O3_SW, store_path="…/store")
        results = await asyncio.gather(
            *(service.compile(src, deadline=5.0) for src in sources)
        )
        await service.join(drain=True, deadline=30.0)

    All coroutine methods must be called from one event loop; the
    blocking engine work runs on the loop's default executor.
    ``max_workers`` is accepted for compatibility and ignored: the
    engine plans on the calling thread.
    """

    def __init__(
        self,
        options: CompilerOptions = O2,
        *,
        store_path=None,
        max_workers: Optional[int] = None,
        default_deadline: Optional[float] = None,
        max_queue: int = 256,
    ):
        self.engine = Engine(
            validate_options(options),
            resilient=True,
            store_path=store_path,
        )
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if default_deadline is not None and default_deadline < 0:
            raise ValueError("default_deadline must be >= 0 or None")
        self.default_deadline = default_deadline
        self.max_queue = max_queue
        self.stats = ServiceStats()
        self._closed = False
        self._inflight: Dict[str, _Pending] = {}
        self._pending: List[_Pending] = []
        self._drain_task: Optional[asyncio.Task] = None

    @property
    def store(self):
        return self.engine.store

    @property
    def closed(self) -> bool:
        return self._closed

    def store_counters(self) -> Optional[Dict]:
        """Cumulative artifact-store counters, or ``None`` without one."""
        return (
            self.engine.store.stats.to_dict()
            if self.engine.store is not None else None
        )

    # -- the request path ---------------------------------------------------

    async def compile(
        self,
        sources: Union[Source, Sequence[Source]],
        options: Optional[CompilerOptions] = None,
        deadline: Optional[float] = None,
    ) -> ServiceResult:
        """Compile one request; concurrent identical requests share one
        flight, distinct requests queue for the engine in arrival order.

        ``deadline`` (seconds, relative; defaults to the service's
        ``default_deadline``) bounds the wait with
        :class:`DeadlineExceeded`; an overloaded queue sheds with
        :class:`ServiceOverloaded`; a draining service rejects with
        :class:`ServiceClosed`.
        """
        self.stats.requests += 1
        if self._closed:
            raise ServiceClosed(
                "service is draining and no longer admits requests"
            )
        opts = (
            self.engine.options if options is None
            else validate_options(options)
        )
        named = normalize_sources(sources)
        fp = request_fingerprint(named, opts)
        if deadline is None:
            deadline = self.default_deadline

        pend = self._inflight.get(fp)
        if pend is not None:
            self.stats.deduped += 1
            if deadline is None:
                pend.expiry = None  # this waiter never gives up
            elif pend.expiry is not None:
                pend.expiry = max(pend.expiry, time.monotonic() + deadline)
            result = await self._await_result(pend.future, deadline, fp)
            return replace(result, deduped=True)

        if len(self._pending) >= self.max_queue:
            self.stats.shed += 1
            raise ServiceOverloaded(
                f"request shed: queue depth {len(self._pending)} is at "
                f"the high-water mark ({self.max_queue})"
            )

        future: "asyncio.Future[ServiceResult]" = (
            asyncio.get_running_loop().create_future()
        )
        future.add_done_callback(_retrieve_exception)
        pend = _Pending(
            fp, named, opts, future,
            expiry=None if deadline is None else time.monotonic() + deadline,
        )
        self._inflight[fp] = pend
        self._pending.append(pend)
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.create_task(self._drain())
        return await self._await_result(future, deadline, fp)

    async def run(
        self,
        sources: Union[Source, Sequence[Source]],
        options: Optional[CompilerOptions] = None,
        deadline: Optional[float] = None,
        **run_kwargs,
    ):
        """Compile (with dedup) and execute on the simulator."""
        result = await self.compile(sources, options, deadline)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: result.program.run(**run_kwargs)
        )

    async def join(
        self,
        drain: bool = False,
        deadline: Optional[float] = None,
    ) -> None:
        """Wait until every accepted request has resolved.

        ``drain=True`` first stops admitting (subsequent ``compile``
        calls raise :class:`ServiceClosed`); queued requests still
        flush.  With a ``deadline``, waiters still unresolved when it
        passes are failed with :class:`DeadlineExceeded` instead of
        stalling shutdown forever (their executor work finishes in the
        background and still warms the caches).
        """
        if drain:
            self._closed = True
        if deadline is None:
            while self._drain_task is not None \
                    and not self._drain_task.done():
                await asyncio.shield(self._drain_task)
            return
        loop = asyncio.get_running_loop()
        stop_at = loop.time() + deadline
        while self._drain_task is not None and not self._drain_task.done():
            remaining = stop_at - loop.time()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._drain_task), remaining
                )
            except asyncio.TimeoutError:
                break
        if self._drain_task is not None and not self._drain_task.done():
            self._expire_stragglers(deadline)

    async def drain(self, deadline: Optional[float] = None) -> None:
        """``join(drain=True, deadline=deadline)``: graceful shutdown."""
        await self.join(drain=True, deadline=deadline)

    # -- internals ----------------------------------------------------------

    def _expire_stragglers(self, deadline: float) -> None:
        self._pending.clear()
        for fp in list(self._inflight):
            pend = self._inflight.pop(fp)
            if not pend.future.done():
                self.stats.deadline_expired += 1
                pend.future.set_exception(DeadlineExceeded(
                    f"request {fp[:12]} still unresolved after the "
                    f"{deadline:.3f}s drain deadline"
                ))

    async def _await_result(
        self,
        future: "asyncio.Future",
        deadline: Optional[float],
        fp: str,
    ):
        if deadline is None:
            return await asyncio.shield(future)
        try:
            return await asyncio.wait_for(asyncio.shield(future), deadline)
        except asyncio.TimeoutError:
            self.stats.deadline_expired += 1
            raise DeadlineExceeded(
                f"request {fp[:12]} missed its {deadline:.3f}s deadline"
            ) from None

    # -- serving --------------------------------------------------------------

    async def _drain(self) -> None:
        """Serve pending requests one at a time, in arrival order, until
        the queue is empty."""
        try:
            while self._pending:
                await self._serve(self._pending.pop(0))
        finally:
            self._drain_task = None

    async def _serve(self, p: _Pending) -> None:
        """Compile one request and resolve its waiters."""
        loop = asyncio.get_running_loop()

        def dispatch() -> CompiledProgram:
            faults.check(faults.SITE_SERVICE_DEADLINE, None)
            return self.engine.compile(p.sources, p.options)

        failure: Optional[BaseException] = None
        try:
            # cooperative cancellation: spend no engine time on a
            # request whose waiters have all given up
            if p.expiry is not None and time.monotonic() >= p.expiry:
                self.stats.cancelled += 1
                if not p.future.done():
                    p.future.set_exception(DeadlineExceeded(
                        f"request {p.fingerprint[:12]} cancelled "
                        "before dispatch (every waiter expired)"
                    ))
                return
            program = await loop.run_in_executor(None, dispatch)
            result = ServiceResult(
                program=program,
                fingerprint=p.fingerprint,
                store=self.store_counters(),
            )
            self.stats.compiled += 1
            if result.degraded:
                self.stats.degraded += 1
            if not p.future.done():
                p.future.set_result(result)
        except BaseException as exc:
            failure = exc
            if not isinstance(exc, Exception):
                raise  # cancellation etc. -- but resolve waiters first
        finally:
            # single-flight leak fix: however serving failed, the
            # waiters are resolved and the inflight entry cleared --
            # otherwise deduplicated waiters deadlock forever
            self._inflight.pop(p.fingerprint, None)
            if failure is not None:
                self.stats.failed += 1
                if not p.future.done():
                    p.future.set_exception(failure)
