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
its next dispatch attempt, however long the requests ahead of it took
-- the engine never abandons work mid-procedure, so caches stay
coherent.

**Bounded retry.**  Transient failures (anything that is not a
deterministic :class:`~repro.frontend.errors.CompileError`) are retried
up to ``RetryPolicy.max_attempts`` times with exponential backoff and
*deterministic seeded jitter*, so two replicas of the service replaying
the same log back off identically.

**Circuit breaker.**  ``BreakerPolicy.failure_threshold`` consecutive
failures of one fingerprint trip its breaker: while open, requests for
that fingerprint bypass the primary engine entirely and are served
*degraded* through a resilient fallback engine (the open-convention
demotion ladder of :mod:`repro.engine.resilience`) -- a conservative
but sound program beats an error page.  After ``reset_timeout`` the
next request probes the primary path (half-open); success closes the
breaker, failure re-opens it.

**Admission control.**  Once the pending queue passes the ``max_queue``
high-water mark, new requests are shed with a typed
:class:`ServiceOverloaded` instead of growing the queue without bound.

**Graceful drain.**  ``join(drain=True)`` (or :meth:`drain`) stops
admitting (:class:`ServiceClosed`), flushes the queued requests, and
-- given a ``deadline`` -- fails the stragglers with
:class:`DeadlineExceeded` rather than stalling shutdown forever.

Fault-injection site (:mod:`repro.faults`): ``service-deadline``
consults on the executor thread right before each request dispatch (a
``hang`` models a stalled planner, a ``raise`` exercises the retry path).

The engine runs one request at a time -- it is a session object, not a
thread-safe one; the service is the serialisation point.  Results carry
the per-request :class:`~repro.engine.stats.CompileRecord` (stage
seconds, cache and store hit/miss counts), plus a snapshot of the
store's cumulative counters (hits/misses/evictions/corruptions).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.engine.core import Engine, normalize_sources
from repro.engine.fingerprint import request_fingerprint
from repro.engine.stats import CompileRecord
from repro.frontend.errors import CompileError
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


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    A failed request is re-attempted until ``max_attempts`` total
    attempts are spent; attempt *k* (0-based) backs off
    ``backoff_base * backoff_multiplier**k`` seconds, stretched by up to
    ``jitter`` (a fraction) drawn deterministically from ``seed``, the
    request fingerprint and the attempt number -- reproducible under
    test and across replicas, yet decorrelated across requests.  Only
    *transient* failures retry: a deterministic
    :class:`~repro.frontend.errors.CompileError` (bad source, bad
    options) would fail identically every time.
    """

    max_attempts: int = 3
    backoff_base: float = 0.02
    backoff_multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.jitter < 0:
            raise ValueError("backoff_base and jitter must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def retryable(self, exc: BaseException) -> bool:
        return not isinstance(exc, (CompileError, ServiceError))

    def backoff(self, attempt: int, key: str = "") -> float:
        """Delay before re-attempt ``attempt`` (0-based) of ``key``."""
        base = self.backoff_base * (self.backoff_multiplier ** attempt)
        u = random.Random(f"{self.seed}:{key}:{attempt}").random()
        return base * (1.0 + self.jitter * u)


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-fingerprint circuit-breaker knobs."""

    #: consecutive primary-path failures that trip the breaker open
    failure_threshold: int = 3
    #: seconds an open breaker waits before letting a probe through
    reset_timeout: float = 30.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")


class _Breaker:
    """One fingerprint's breaker state (exists only after a failure)."""

    __slots__ = ("state", "failures", "opened_at")

    def __init__(self):
        self.state = "closed"      # closed | open | half-open
        self.failures = 0
        self.opened_at = 0.0


@dataclass
class ServiceStats:
    """Cumulative counters for one :class:`CompileService`."""

    requests: int = 0
    deduped: int = 0         # requests served by an in-flight duplicate
    compiled: int = 0        # requests that produced a program
    failed: int = 0          # requests that raised
    shed: int = 0            # requests rejected by admission control
    retries: int = 0         # engine attempts re-run after transient faults
    deadline_expired: int = 0  # waiters that gave up at their deadline
    cancelled: int = 0       # requests cooperatively cancelled pre-result
    breaker_trips: int = 0   # circuit breakers tripped open
    degraded: int = 0        # requests served via the resilient fallback

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "deduped": self.deduped,
            "compiled": self.compiled,
            "failed": self.failed,
            "shed": self.shed,
            "retries": self.retries,
            "deadline_expired": self.deadline_expired,
            "cancelled": self.cancelled,
            "breaker_trips": self.breaker_trips,
            "degraded": self.degraded,
        }


@dataclass
class ServiceResult:
    """One request's outcome."""

    program: CompiledProgram
    fingerprint: str
    #: True when this request awaited another request's in-flight compile
    deduped: bool = False
    #: True when an open circuit breaker served this request through the
    #: resilient fallback engine (conservative, sound, possibly demoted)
    degraded: bool = False
    #: the compile's stage timings and cache counts (``program.record``)
    record: Optional[CompileRecord] = None
    #: cumulative store counters at completion (None without a store)
    store: Optional[Dict] = None


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
    """Async, deduplicating compile server over one engine.

    Distinct requests are served one engine call each, in arrival order;
    concurrent identical requests share one flight.

    Usage::

        service = CompileService(O3_SW, store_path="…/store")
        results = await asyncio.gather(
            *(service.compile(src, deadline=5.0) for src in sources)
        )
        await service.join(drain=True, deadline=30.0)

    All coroutine methods must be called from one event loop; the
    blocking engine work runs on the loop's default executor.  ``retry``
    / ``breaker`` default to the module policies; pass ``None`` to
    disable either mechanism.  ``clock`` injects a monotonic time source
    (tests use a fake one to step breaker timeouts).  ``max_workers`` is
    accepted for compatibility and ignored: the engine plans on the
    calling thread.
    """

    def __init__(
        self,
        options: CompilerOptions = O2,
        *,
        store_path=None,
        max_workers: Optional[int] = None,
        resilient: bool = False,
        default_deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = RetryPolicy(),
        breaker: Optional[BreakerPolicy] = BreakerPolicy(),
        max_queue: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.engine = Engine(
            validate_options(options),
            resilient=resilient,
            store_path=store_path,
        )
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if default_deadline is not None and default_deadline < 0:
            raise ValueError("default_deadline must be >= 0 or None")
        self.default_deadline = default_deadline
        self.retry = retry
        self.breaker = breaker
        self.max_queue = max_queue
        self.stats = ServiceStats()
        self._clock = clock
        self._closed = False
        self._inflight: Dict[str, _Pending] = {}
        self._pending: List[_Pending] = []
        self._drain_task: Optional[asyncio.Task] = None
        self._breakers: Dict[str, _Breaker] = {}
        self._fallback: Optional[Engine] = None
        self._fallback_lock = asyncio.Lock()

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

    def breaker_states(self) -> Dict[str, str]:
        """Current non-closed breaker states by fingerprint."""
        return {
            fp: b.state for fp, b in self._breakers.items()
            if b.state != "closed"
        }

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

        if self._breaker_is_open(fp):
            return await self._compile_degraded(named, opts, fp, deadline)

        pend = self._inflight.get(fp)
        if pend is not None:
            self.stats.deduped += 1
            if deadline is None:
                pend.expiry = None  # this waiter never gives up
            elif pend.expiry is not None:
                pend.expiry = max(pend.expiry, self._clock() + deadline)
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
            expiry=None if deadline is None else self._clock() + deadline,
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

    # -- circuit breaker ----------------------------------------------------

    def _breaker_is_open(self, fp: str) -> bool:
        policy = self.breaker
        if policy is None:
            return False
        b = self._breakers.get(fp)
        if b is None or b.state != "open":
            return False
        if self._clock() - b.opened_at >= policy.reset_timeout:
            b.state = "half-open"  # this request probes the primary path
            return False
        return True

    def _breaker_failure(self, fp: str) -> None:
        policy = self.breaker
        if policy is None:
            return
        b = self._breakers.setdefault(fp, _Breaker())
        b.failures += 1
        if b.state == "half-open" \
                or b.failures >= policy.failure_threshold:
            if b.state != "open":
                b.state = "open"
                self.stats.breaker_trips += 1
            b.opened_at = self._clock()

    def _breaker_success(self, fp: str) -> None:
        if self.breaker is not None:
            self._breakers.pop(fp, None)

    # -- degraded serving ---------------------------------------------------

    def _degraded_engine(self) -> Engine:
        """The resilient fallback engine behind open breakers: its own
        in-memory caches (a poisoned primary session must not leak in)
        but the same persistent store handle."""
        if self._fallback is None:
            self._fallback = Engine(
                self.engine.options,
                resilient=True,
                store_path=self.engine.store,
            )
        return self._fallback

    async def _compile_degraded(
        self,
        named: List[Tuple[str, str]],
        opts: CompilerOptions,
        fp: str,
        deadline: Optional[float],
    ) -> ServiceResult:
        self.stats.degraded += 1
        loop = asyncio.get_running_loop()
        engine = self._degraded_engine()

        async def locked():
            # the fallback engine is a session object too: serialise it
            async with self._fallback_lock:
                return await loop.run_in_executor(
                    None, engine.compile, named, opts
                )

        task = asyncio.ensure_future(locked())
        task.add_done_callback(_retrieve_exception)
        try:
            program = await self._await_result(task, deadline, fp)
        except DeadlineExceeded:
            raise
        except Exception:
            self.stats.failed += 1
            raise
        self.stats.compiled += 1
        return ServiceResult(
            program=program, fingerprint=fp, degraded=True,
            record=program.record, store=self.store_counters(),
        )

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
        """Compile one request under the retry policy and resolve its
        waiters."""
        loop = asyncio.get_running_loop()
        policy = self.retry

        def dispatch() -> CompiledProgram:
            faults.check(faults.SITE_SERVICE_DEADLINE, None)
            return self.engine.compile(p.sources, p.options)

        failure: Optional[BaseException] = None
        try:
            attempt = 0
            while True:
                # cooperative cancellation: spend no engine time on a
                # request whose waiters have all given up
                if p.expiry is not None and self._clock() >= p.expiry:
                    self.stats.cancelled += 1
                    if not p.future.done():
                        p.future.set_exception(DeadlineExceeded(
                            f"request {p.fingerprint[:12]} cancelled "
                            "before dispatch (every waiter expired)"
                        ))
                    return
                try:
                    program = await loop.run_in_executor(None, dispatch)
                    break
                except Exception as exc:
                    attempt += 1
                    if policy is None or attempt >= policy.max_attempts \
                            or not policy.retryable(exc):
                        raise
                    self.stats.retries += 1
                    await asyncio.sleep(
                        policy.backoff(attempt - 1, p.fingerprint)
                    )
            result = ServiceResult(
                program=program,
                fingerprint=p.fingerprint,
                record=program.record,
                store=self.store_counters(),
            )
            self.stats.compiled += 1
            self._breaker_success(p.fingerprint)
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
                self._breaker_failure(p.fingerprint)
                if not p.future.done():
                    p.future.set_exception(failure)
