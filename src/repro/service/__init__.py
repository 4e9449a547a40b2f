"""Async compile service: a deduplicating front end over a resilient
:class:`~repro.engine.core.Engine` with service-grade guarantees --
deadlines, degraded serving of procedures whose compile faults,
admission control and graceful drain (see :mod:`repro.service.service`)."""

from repro.service.service import (
    CompileService,
    DeadlineExceeded,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceResult,
    ServiceStats,
)

__all__ = [
    "CompileService",
    "DeadlineExceeded",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceResult",
    "ServiceStats",
]
