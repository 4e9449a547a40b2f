"""Deterministic fault injection -- the reproduction's chaos harness.

A :class:`FaultPlan` is an explicit, seedable list of faults to inject
at named *sites* threaded through the toolchain (planning, coloring,
shrink-wrapping, codegen, JIT translation, the on-disk artifact
store's reads, writes, lock acquisitions and scrubs, and the
compile service's request dispatch).  Components consult the harness with

    faults.check(SITE_COLORING, fn.name)

which is a no-op unless a plan is installed and an armed spec matches;
matching specs fire deterministically, so a test can assert both *that*
a fault fired and *how* the system recovered.  Three fault kinds model
the failure modes the resilience layer must absorb:

``raise``
    the site raises :class:`InjectedFault` (a crashed stage);
``hang``
    the site sleeps ``hang_seconds`` (a stuck stage -- pair with the
    service's deadlines or the store's lock timeout to exercise the
    timeout path, or hold a store writer in its publish window for the
    crash-recovery gate to kill);
``corrupt``
    ``store-read`` bit-rots an entry's payload before its checksum is
    verified (consumed via :func:`corrupts`; the store must detect the
    mismatch and the engine recompute).

Faults are consumed when they fire (``count`` decrements under a
lock), so a transient failure followed by a clean retry is the default
story.  A plan is installed in one process; the injector reaches no
other.

The module imports nothing from the rest of ``repro`` so that any
layer, however deep, may call into it without import cycles.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "ALL_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active",
    "check",
    "clear",
    "corrupts",
    "install",
    "SITE_CODEGEN",
    "SITE_COLORING",
    "SITE_JIT",
    "SITE_PLAN",
    "SITE_SERVICE_DEADLINE",
    "SITE_SHRINKWRAP",
    "SITE_STORE_LOCK",
    "SITE_STORE_READ",
    "SITE_STORE_SCRUB",
    "SITE_STORE_WRITE",
]

# -- site registry -----------------------------------------------------------

SITE_PLAN = "plan"                   # engine/core: per-procedure planning
SITE_CODEGEN = "codegen"             # engine/core: per-procedure codegen
SITE_COLORING = "coloring"           # regalloc/coloring: allocate_function
SITE_SHRINKWRAP = "shrinkwrap"       # shrinkwrap/placement: shrink_wrap
SITE_JIT = "jit"                     # sim/jit: trace translation
#                                      (keys: "translate"/"inline"/"link")
SITE_STORE_READ = "store-read"       # store: entry payload read (corrupt)
SITE_STORE_WRITE = "store-write"     # store: entry write (raise = I/O error;
#                                      key "publish:<ns>" = between temp
#                                      write and rename -- the kill window)
SITE_STORE_LOCK = "store-lock"       # store: advisory-lock acquisition
SITE_STORE_SCRUB = "store-scrub"     # store: scrub per-entry re-verify
SITE_SERVICE_DEADLINE = "service-deadline"  # service: request dispatch on
#                                      the executor (hang = stalled planner)

ALL_SITES: Tuple[str, ...] = (
    SITE_PLAN,
    SITE_CODEGEN,
    SITE_COLORING,
    SITE_SHRINKWRAP,
    SITE_JIT,
    SITE_STORE_READ,
    SITE_STORE_WRITE,
    SITE_STORE_LOCK,
    SITE_STORE_SCRUB,
    SITE_SERVICE_DEADLINE,
)

KINDS = ("raise", "hang", "corrupt")


class InjectedFault(RuntimeError):
    """Raised by a ``raise``-kind fault spec when its site is reached."""

    def __init__(self, site: str, key: Optional[str]):
        self.site = site
        self.key = key
        super().__init__(f"injected fault at site {site!r} (key={key!r})")


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``match`` restricts the spec to site consultations whose key equals
    it (``None`` matches any key); ``count`` is how many times the spec
    may fire (``None`` = unlimited).
    """

    site: str
    kind: str = "raise"
    match: Optional[str] = None
    count: Optional[int] = 1
    hang_seconds: float = 2.0

    def __post_init__(self):
        if self.site not in ALL_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{ALL_SITES}"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )


class FaultPlan:
    """A deterministic set of faults plus firing bookkeeping.

    ``fired`` records ``(site, key, kind)`` for every fault that fired,
    in firing order, so tests can assert exactly which faults landed.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self.fired: List[Tuple[str, Optional[str], str]] = []
        self._remaining: List[Optional[int]] = [s.count for s in self.specs]
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------------

    @classmethod
    def seeded(
        cls,
        seed: int,
        sites: Sequence[str] = ALL_SITES,
        kinds: Sequence[str] = ("raise",),
        count: Optional[int] = 1,
    ) -> "FaultPlan":
        """One fault per site, kinds drawn deterministically from
        ``seed`` -- the CI chaos configuration."""
        rng = random.Random(seed)
        specs = [
            FaultSpec(site=site, kind=rng.choice(list(kinds)), count=count)
            for site in sites
        ]
        return cls(specs, seed=seed)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        with self._lock:
            self.specs.append(spec)
            self._remaining.append(spec.count)
        return self

    # -- consultation --------------------------------------------------------

    def _take(self, site: str, key: Optional[str], kinds) -> Optional[FaultSpec]:
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.site != site or spec.kind not in kinds:
                    continue
                if spec.match is not None and spec.match != key:
                    continue
                left = self._remaining[i]
                if left is not None and left <= 0:
                    continue
                if left is not None:
                    self._remaining[i] = left - 1
                self.fired.append((site, key, spec.kind))
                return spec
        return None

    def fire(self, site: str, key: Optional[str]) -> None:
        spec = self._take(site, key, ("raise", "hang"))
        if spec is None:
            return
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
        else:
            raise InjectedFault(site, key)

    def wants_corruption(self, site: str, key: Optional[str]) -> bool:
        return self._take(site, key, ("corrupt",)) is not None

    def __repr__(self):
        return f"FaultPlan(seed={self.seed}, specs={self.specs!r})"


# -- the installed plan ------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` uninstalls)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    install(None)


class active:
    """Context manager installing a plan for the ``with`` body."""

    def __init__(self, plan: Optional[FaultPlan]):
        self._plan = plan

    def __enter__(self) -> Optional[FaultPlan]:
        self._previous = _ACTIVE
        install(self._plan)
        return self._plan

    def __exit__(self, *exc):
        install(self._previous)
        return False


def check(site: str, key: Optional[str] = None) -> None:
    """Consult the installed plan at ``site``; no-op without a plan."""
    if _ACTIVE is not None:
        _ACTIVE.fire(site, key)


def corrupts(site: str, key: Optional[str] = None) -> bool:
    """True when an armed ``corrupt`` spec matches this site; the caller
    (the store's read path) is then responsible for bit-rotting the
    entry it is about to verify."""
    if _ACTIVE is None:
        return False
    return _ACTIVE.wants_corruption(site, key)
