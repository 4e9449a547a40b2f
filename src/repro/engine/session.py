"""`repro.Compiler`: the session façade over the incremental engine.

One :class:`Compiler` owns one :class:`~repro.engine.core.Engine` and a
named set of sources.  Re-adding a source under an existing name
replaces it, so an edit-and-rebuild loop is::

    c = Compiler(O3_SW)
    c.add_source(text)               # becomes module "main"
    cold = c.compile()
    c.add_source(("main", edited))   # same name: replaces in place
    warm = c.compile()               # only the edited slice recompiles

``warm.executable`` is bit-identical to what a cold whole-program
compile of the edited text produces; the caches only skip work, never
change it.  The legacy one-shot helpers (``compile_program`` and
friends) are thin wrappers that build a throwaway session.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.engine.core import Engine, normalize_sources
from repro.engine.stats import EngineStats
from repro.frontend.errors import OptionsError
from repro.pipeline.driver import (
    CompiledModule,
    CompiledProgram,
    Source,
)
from repro.pipeline.linker import Executable, link_executable
from repro.pipeline.options import CompilerOptions, O2, validate_options
from repro.sim.stats import RunStats


class Compiler:
    """A compilation session with incremental re-compilation.

    All one-shot entry points are expressible through it::

        Compiler(options).add_sources(sources).compile()   # compile_program
        Compiler(options).compile_module(source)           # compile_module
        Compiler().link(modules, entry="main")             # link_modules
        Compiler(options).add_sources(sources).run()       # compile_and_run

    ``resilient=True`` arms the engine's per-procedure fault boundary:
    a procedure whose planning or codegen fails is demoted to the open
    classification (default linkage convention) instead of aborting the
    session, and ``compile().report.degradations`` lists what happened
    (see :mod:`repro.engine.resilience`).  The fault-free path is
    bit-identical either way.

    ``store_path=...`` attaches a persistent, cross-process artifact
    store under that directory: compiles fall through the in-memory
    caches to disk and write fresh work through, so a brand-new process
    pointed at the same path warm-starts from earlier sessions' work
    (see :mod:`repro.store`).  Warm-started output stays bit-identical
    to a cold compile.

    ``max_workers`` is accepted for compatibility and ignored: planning
    always runs on the calling thread.
    """

    def __init__(
        self,
        options: CompilerOptions = O2,
        max_workers: Optional[int] = None,
        resilient: bool = False,
        store_path=None,
    ):
        self._engine = Engine(
            options, resilient=resilient, store_path=store_path
        )
        self._sources: List[Tuple[str, str]] = []

    # -- configuration ------------------------------------------------------

    @property
    def options(self) -> CompilerOptions:
        return self._engine.options

    def set_options(self, **kwargs) -> "Compiler":
        """Replace option fields for subsequent compiles (chainable).

        Caches survive an option flip: plan keys embed the option
        fingerprint, so switching back re-hits the earlier entries.
        """
        self._engine.options = validate_options(
            self._engine.options.with_(**kwargs)
        )
        return self

    @property
    def stats(self) -> EngineStats:
        return self._engine.stats

    @property
    def store(self):
        """The attached :class:`~repro.store.ArtifactStore`, or ``None``."""
        return self._engine.store

    @property
    def engine(self):
        """The underlying :class:`~repro.engine.core.Engine` (exposed for
        front ends such as :class:`repro.service.CompileService`)."""
        return self._engine

    # -- sources ------------------------------------------------------------

    def add_source(self, source: Source) -> "Compiler":
        """Add one source (chainable).  A bare string is named ``main``
        first and ``module<i>`` after; re-using a name replaces that
        source in place."""
        if isinstance(source, tuple):
            name, text = source
        else:
            n = len(self._sources)
            name, text = (f"module{n}" if n else "main"), source
        for i, (existing, _) in enumerate(self._sources):
            if existing == name:
                self._sources[i] = (name, text)
                return self
        self._sources.append((name, text))
        return self

    def add_sources(
        self, sources: Union[Source, Sequence[Source]]
    ) -> "Compiler":
        for named in normalize_sources(sources):
            self.add_source(named)
        return self

    @property
    def sources(self) -> List[Tuple[str, str]]:
        return list(self._sources)

    # -- compilation --------------------------------------------------------

    def compile(
        self, options: Optional[CompilerOptions] = None
    ) -> CompiledProgram:
        """Whole-program compile of the session's sources."""
        if not self._sources:
            raise OptionsError("no sources added to this Compiler session")
        return self._engine.compile(list(self._sources), options)

    def compile_module(
        self, source: Source, options: Optional[CompilerOptions] = None
    ) -> CompiledModule:
        """Separately compile one unit (every procedure open)."""
        return self._engine.compile_module(source, options)

    def link(
        self,
        compiled: Sequence[CompiledModule],
        entry: Optional[str] = None,
    ) -> Executable:
        """Link separately compiled modules into an executable."""
        return link_executable(
            [c.object_code for c in compiled],
            entry=self.options.entry if entry is None else entry,
        )

    def run(self, **run_kwargs) -> RunStats:
        """Compile the session's sources and execute the result."""
        return self.compile().run(**run_kwargs)
