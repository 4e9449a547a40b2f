"""Async compile service: a deduplicating front end over
:class:`~repro.engine.core.Engine` with service-grade resilience --
deadlines, bounded retry, per-fingerprint circuit breakers, admission
control and graceful drain (see :mod:`repro.service.service`)."""

from repro.service.service import (
    BreakerPolicy,
    CompileService,
    DeadlineExceeded,
    RetryPolicy,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceResult,
    ServiceStats,
)

__all__ = [
    "BreakerPolicy",
    "CompileService",
    "DeadlineExceeded",
    "RetryPolicy",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceResult",
    "ServiceStats",
]
