"""The benchmark's three workloads, driven through the public API.

Each workload splits into ``prepare`` (set-up: inputs from the seed,
plus the store pre-warm for the service, timed in the steps of a
:class:`speed.StepTimer`), ``measure`` (the timed phase,
optionally under a :class:`~tracing.Tracer`) and ``check`` (correctness
and the exact paper counts, outside every timed region).  A mismatch
raises :class:`Mismatch`; it is never counted as a failed operation.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import random
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro import Compiler, PAPER_CONFIGS
from repro.benchsuite.registry import load_benchmarks
from repro.engine.frontend import split_chunks
from repro.pipeline.driver import _reference_compile_program
from repro.pipeline.profile import block_profile_of
from repro.service import CompileService

import speed

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected_outputs.json"

#: the paper's six configurations, in Table 1 and 2 column order
CONFIGS = ("base", "A", "B", "C", "D", "E")
#: small programs used by the smoke size of every workload
SMOKE_PROGRAMS = ("map", "tex")

#: a run makes round(seconds / N) passes, so the operation count
#: depends only on ``--seconds``.  At 30 s that is one suite pass (about
#: 20 s on a 2-core x86-64 VM) and three pgo passes (about 30 s): a pgo
#: operation is timed as its median over the passes, since 13
#: operations of one pass are too few to ride out single slow ones
#: (with two passes, the median of the 13 spread by 14% over ten runs)
SUITE_SECONDS_PER_PASS = 40.0
PGO_SECONDS_PER_PASS = 10.0

#: service arrival rate (requests/s at reference speed).  In probes on
#: a 2-core x86-64 VM (Python 3.11) the median latency was 38 ms at
#: 60/s and 57 ms at 90/s.  At 30/s it was 12-13 ms in some runs and
#: 18-28 ms in others: about half the requests found the engine busy,
#: so the median sat on the edge between waiting and not waiting.
#: 20/s keeps it off that edge, at about a third of the rate where
#: the latency doubles.
SERVICE_RATE = 20.0
#: share of the schedule, from its start, left out of the latency
#: percentiles: the first requests for the most popular entries all
#: miss at once, and whether a few of them land together is luck.  A
#: choice made to steady the percentiles, not a measured property of
#: any traffic
SERVICE_WARMUP_SHARE = 0.2
#: per-request deadline; a request that misses it counts as failed
SERVICE_DEADLINE_S = 2.0
#: the open loop calibrates (about 8 ms) only while no request is in
#: flight and the next one is at least this far away, so that no
#: request waits for it; each latency is scaled by the calibrations
#: within ``IDLE_CAL_WINDOW_S`` of its due time.  A 1 ms calibration
#: fitted into more gaps but did not follow the machine's speed, and
#: calibrating on the loop's thread instead of the executor's left the
#: tail's spread at 49% over ten runs
IDLE_CAL_GAP_S = 0.02
IDLE_CAL_WINDOW_S = 2.0
#: the open loop's pace follows the median of this many latest
#: calibrations (taken before the first request, then the idle ones)
PACE_CALS = 7
#: edited variants per (program, config), and the Zipf exponent of the
#: request mix.  Both are assumptions, not measurements: no trace of
#: compile-cache traffic backs them.  (Web proxy traces fit exponents
#: of 0.64 to 0.83 -- Breslau et al., "Web Caching and Zipf-like
#: Distributions", INFOCOM 1999 -- so 1.1 is a steeper skew.)  At 600
#: requests every catalog entry is requested at least once for any
#: exponent from 0.8 to 1.2, so the paths split 26 store reads, 52
#: misses and 522 warm hits whatever the exponent; it decides how hits
#: concentrate and how early each entry's first request comes
#: (``ServiceZipf.request_paths``, recorded with every run)
SERVICE_EDITS = 2
ZIPF_S = 1.1


class Mismatch(AssertionError):
    """An output or executable differs from its reference."""


def load_expected(path: Path) -> Dict[str, List[int]]:
    with open(path) as fh:
        return {k: list(v) for k, v in json.load(fh)["outputs"].items()}


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples, and at least a
    tenth of the samples, beyond it.  Above the 90th the service's
    latencies thin out: over 480 of them, resampling gave the 95th
    percentile a spread of 5-9% and the 90th 4-5%."""
    for p in (90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def _check_output(program: str, got: List[int], expected) -> None:
    if got != expected[program]:
        raise Mismatch(
            f"{program}: output {got[:8]}... differs from the expected "
            f"output {expected[program][:8]}..."
        )


#: the exact counts, reported in total and per paper config
EXACT = ("sim_cycles", "scalar_memops", "save_restore_memops", "code_words")


def _exact(runs, images) -> Dict[str, object]:
    """Exact totals of one pass, and the same counts per config.

    ``runs`` holds (config, RunStats) pairs; ``images`` holds (config,
    (fingerprint, instruction count)) pairs, of which each distinct
    executable is counted once, in the total and in its config's row.
    """
    runs, images = list(runs), list(images)
    configs = [c for c in CONFIGS if any(c == r[0] for r in runs + images)]
    rows = {c: dict.fromkeys(EXACT, 0) for c in configs}
    for config, stats in runs:
        row = rows[config]
        row["sim_cycles"] += stats.cycles
        row["scalar_memops"] += stats.scalar_memops
        row["save_restore_memops"] += stats.save_restore_memops
    for config in configs:
        rows[config]["code_words"] = sum(
            dict(image for c, image in images if c == config).values())
    exact = {
        name: sum(row[name] for row in rows.values()) for name in EXACT[:3]
    }
    exact["code_words"] = sum(dict(image for _, image in images).values())
    exact["by_config"] = rows
    return exact


def _image(built) -> Tuple[str, int]:
    """(fingerprint, instruction count) of a built program's executable:
    all the checks keep of it."""
    exe = built.executable
    return exe.fingerprint(), len(exe.instrs)


@dataclass
class Phase:
    """What one timed phase produced.  Times are scaled to the reference
    speed (see :mod:`speed`); ``raw_*`` keep the measured values."""

    #: operation times for the percentiles: one per closed-loop
    #: operation (its median over the passes), one per service request
    op_ms: List[float] = field(default_factory=list)
    raw_ms: List[float] = field(default_factory=list)
    #: the times ``op_tail_ms`` is taken from, when not ``op_ms``
    tail_ms: List[float] = field(default_factory=list)
    #: closed loops: every raw operation time, in run order
    samples_ms: List[float] = field(default_factory=list)
    #: one pass at the operations' median times (process CPU seconds of
    #: the timed phase for the service)
    work_s: float = 0.0
    raw_work_s: float = 0.0
    #: seconds inside operations (service: CPU seconds of the phase)
    total_s: float = 0.0
    #: scaled over raw time of the whole phase
    scale: float = 1.0
    attempted: int = 0
    failed: int = 0
    passes: List[list] = field(default_factory=list)
    engines: list = field(default_factory=list)
    stores: list = field(default_factory=list)
    store_bytes: int = 0
    extra: Dict[str, object] = field(default_factory=dict)
    _keys: List[tuple] = field(default_factory=list)
    _cal: List[float] = field(default_factory=list)

    def record(self, key: tuple, t0: float, cal: float) -> None:
        """One operation that started at ``t0``, next to a calibration
        taken just before it."""
        self.samples_ms.append((time.perf_counter() - t0) * 1e3)
        self._keys.append(key)
        self._cal.append(cal)

    def finish(self) -> None:
        """Scale the closed-loop samples by their local factors and
        reduce each operation to its median over the passes."""
        factors = speed.local_factors(self._cal)
        scaled = [ms * f for ms, f in zip(self.samples_ms, factors)]
        self.op_ms = _per_op_median(self._keys, scaled)
        self.raw_ms = _per_op_median(self._keys, self.samples_ms)
        self.work_s = sum(self.op_ms) / 1e3
        self.raw_work_s = sum(self.raw_ms) / 1e3
        self.total_s = sum(self.samples_ms) / 1e3
        self.scale = sum(scaled) / sum(self.samples_ms)


def _per_op_median(keys, times_ms) -> List[float]:
    by_op: Dict[tuple, List[float]] = {}
    for key, ms in zip(keys, times_ms):
        by_op.setdefault(key, []).append(ms)
    return [statistics.median(v) for v in by_op.values()]


# -- suite-cold ---------------------------------------------------------------

class SuiteCold:
    """All programs x all six paper configs, one fresh ``Compiler`` and
    one default-tier run per cell, in a seeded order."""

    name = "suite-cold"

    def __init__(self, seed, seconds, smoke, expected, workdir):
        self.seed, self.smoke, self.expected = seed, smoke, expected
        self.npasses = max(1, round(seconds / SUITE_SECONDS_PER_PASS))

    def prepare(self, timer):
        with timer.step():
            benches = load_benchmarks()
            names = list(SMOKE_PROGRAMS if self.smoke else benches)
            configs = ("base", "C") if self.smoke else CONFIGS
            rng = random.Random(self.seed)
            cells = [(p, c) for p in names for c in configs]
            self.sources = {p: benches[p].source for p in names}
            self.order = []
            for _ in range(self.npasses):
                rng.shuffle(cells)
                self.order.append(list(cells))

    def operations(self) -> int:
        return sum(len(o) for o in self.order)

    def measure(self, tracer=None) -> Phase:
        phase = Phase()
        gc.collect()
        with (tracer.recording() if tracer else contextlib.nullcontext()):
            for cells in self.order:
                done = []
                for program, config in cells:
                    phase.attempted += 1
                    cal = speed.calibrate()
                    t0 = time.perf_counter()
                    try:
                        compiler = Compiler(
                            PAPER_CONFIGS[config], max_workers=1
                        )
                        built = compiler.add_source(
                            ("main", self.sources[program])
                        ).compile()
                        stats = built.run()
                    except Exception:
                        phase.failed += 1
                        continue
                    phase.record((program, config), t0, cal)
                    phase.engines.append(compiler.stats)
                    done.append((program, config, _image(built), stats))
                phase.passes.append(done)
        phase.finish()
        return phase

    def check(self, phase: Phase) -> Dict[str, object]:
        exact = None
        for done in phase.passes:
            for program, _, _, stats in done:
                _check_output(program, stats.output, self.expected)
            counts = _exact(
                ((config, stats) for _, config, _, stats in done),
                ((config, image) for _, config, image, _ in done),
            )
            if exact is not None and counts != exact:
                raise Mismatch(f"passes disagree: {exact} vs {counts}")
            exact = counts
        return exact


# -- pgo-sim ------------------------------------------------------------------

@contextlib.contextmanager
def _keeping_profile_runs(sink: list):
    """Keep the interpreter's ``RunStats`` of each ``block_profile_of``
    call (the public function returns only the profile)."""
    from repro.pipeline import profile

    original = profile.run_program

    def run_and_keep(*args, **kwargs):
        stats = original(*args, **kwargs)
        sink.append(stats)
        return stats

    profile.run_program = run_and_keep
    try:
        yield
    finally:
        profile.run_program = original


class PgoSim:
    """Per program under config C: fresh compile, block profile on the
    interpreter, tier-3 translation with that profile, tier-3 run."""

    name = "pgo-sim"

    def __init__(self, seed, seconds, smoke, expected, workdir):
        self.seed, self.smoke, self.expected = seed, smoke, expected
        self.npasses = max(1, round(seconds / PGO_SECONDS_PER_PASS))

    def prepare(self, timer):
        with timer.step():
            benches = load_benchmarks()
            names = list(SMOKE_PROGRAMS if self.smoke else benches)
            rng = random.Random(self.seed)
            self.sources = {p: benches[p].source for p in names}
            self.order = []
            for _ in range(self.npasses):
                rng.shuffle(names)
                self.order.append(list(names))

    def operations(self) -> int:
        return sum(len(o) for o in self.order)

    def measure(self, tracer=None) -> Phase:
        phase = Phase()
        options = PAPER_CONFIGS["C"]
        gc.collect()
        with (tracer.recording() if tracer else contextlib.nullcontext()):
            for programs in self.order:
                done = []
                for program in programs:
                    phase.attempted += 1
                    profiled: list = []
                    cal = speed.calibrate()
                    t0 = time.perf_counter()
                    try:
                        compiler = Compiler(options, max_workers=1)
                        built = compiler.add_source(
                            ("main", self.sources[program])
                        ).compile()
                        with _keeping_profile_runs(profiled):
                            profile = block_profile_of(built, attach=False)
                        stats = built.run(sim_tier="jit3", profile=profile)
                    except Exception:
                        phase.failed += 1
                        continue
                    phase.record((program, "C"), t0, cal)
                    phase.engines.append(compiler.stats)
                    done.append((program, _image(built), profiled[0], stats))
                phase.passes.append(done)
        phase.finish()
        return phase

    def check(self, phase: Phase) -> Dict[str, object]:
        exact = None
        for done in phase.passes:
            for program, _, interp, jit3 in done:
                if jit3 != interp:
                    raise Mismatch(
                        f"{program}: jit3 RunStats differ from the "
                        "interpreter's"
                    )
                _check_output(program, jit3.output, self.expected)
            counts = _exact(
                (("C", stats) for *_, stats in done),
                (("C", image) for _, image, *_ in done),
            )
            if exact is not None and counts != exact:
                raise Mismatch(f"passes disagree: {exact} vs {counts}")
            exact = counts
        return exact


# -- service-zipf -------------------------------------------------------------

_RETURN_RE = re.compile(r"\breturn\s+([^;]+);")
_LITERAL_RE = re.compile(r"-?\d+")


def edit_sites(source: str, count: int) -> List[Tuple[str, str]]:
    """The first ``count`` non-``main`` procedures whose body returns a
    non-constant expression, as (procedure, chunk text) pairs."""
    split = split_chunks(source)
    if split is None:
        raise ValueError("source cannot be split into procedures")
    sites = []
    for chunk in split[1]:
        if chunk.name == "main":
            continue
        for m in _RETURN_RE.finditer(chunk.text):
            if not _LITERAL_RE.fullmatch(m.group(1).strip()):
                sites.append((chunk.name, chunk.text))
                break
        if len(sites) == count:
            return sites
    raise ValueError(f"fewer than {count} editable procedures")


def apply_edit(source: str, chunk_text: str, k: int) -> str:
    """Rewrite the chunk's first non-constant ``return e;`` into
    ``return (e) + k - k;``: the procedure's IR, and so its plan, change
    while the program's output stays the same and no count depends on
    ``k``."""
    for m in _RETURN_RE.finditer(chunk_text):
        expr = m.group(1).strip()
        if not _LITERAL_RE.fullmatch(expr):
            edited = (
                chunk_text[:m.start()]
                + f"return ({expr}) + {k} - {k};"
                + chunk_text[m.end():]
            )
            break
    if source.count(chunk_text) != 1:
        raise ValueError("procedure text is not unique in its source")
    return source.replace(chunk_text, edited)


class ServiceZipf:
    """Seeded open-loop Poisson arrivals against one ``CompileService``
    with a pre-warmed store; Zipf-skewed fingerprints over programs x
    {base, C} x {original, edits}."""

    name = "service-zipf"

    def __init__(self, seed, seconds, smoke, expected, workdir):
        self.seed, self.smoke, self.expected = seed, smoke, expected
        self.seconds = seconds
        self.workdir = workdir
        self.nprepared = 0
        self._references = None

    def _inputs(self) -> List[str]:
        """The catalog, the edited sources and the schedule, from the
        seed; returns the programs."""
        benches = load_benchmarks()
        names = list(SMOKE_PROGRAMS if self.smoke else benches)
        edits = 1 if self.smoke else SERVICE_EDITS
        rng = random.Random(self.seed)
        self.catalog: List[Tuple[str, str, int]] = []
        self.texts: Dict[Tuple[str, int], str] = {}
        for program in names:
            source = benches[program].source
            self.texts[(program, 0)] = source
            for j, (_, chunk) in enumerate(edit_sites(source, edits), 1):
                self.texts[(program, j)] = apply_edit(
                    source, chunk, rng.randint(1, 999)
                )
            for config in ("base", "C"):
                for variant in range(edits + 1):
                    self.catalog.append((program, config, variant))
        # Zipf popularity over a fixed ranking of the catalog.  Each
        # entry is requested its expected number of times (largest
        # remainders rounded up) in a seeded order, so every seed sends
        # the same mix and only the order and arrival times differ.
        ranking = list(range(len(self.catalog)))
        random.Random(0).shuffle(ranking)
        n = max(1, round(SERVICE_RATE * self.seconds))
        weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(ranking))]
        total = sum(weights)
        shares = [n * w / total for w in weights]
        counts = [int(x) for x in shares]
        by_remainder = sorted(
            range(len(shares)), key=lambda r: counts[r] - shares[r]
        )
        for r in by_remainder[:n - sum(counts)]:
            counts[r] += 1
        draws = [ranking[r] for r, c in enumerate(counts) for _ in range(c)]
        rng.shuffle(draws)
        # Exponential gaps, drawn the same way: the gaps are the
        # quantiles of the exponential distribution at n - 1 evenly
        # spaced probabilities, in a seeded order.  Independent draws
        # (at 15/s) changed how many requests found the service busy
        # from seed to seed (86 to 107 of 480), and with it the tail.
        gaps = [
            -math.log(1.0 - (k + 0.5) / (n - 1)) / SERVICE_RATE
            for k in range(n - 1)
        ]
        rng.shuffle(gaps)
        due = 0.0
        self.schedule: List[Tuple[float, int]] = [(due, draws[0])]
        for gap, idx in zip(gaps, draws[1:]):
            due += gap
            self.schedule.append((due, idx))
        return names

    def prepare(self, timer):
        with timer.step():
            names = self._inputs()

        # pre-warm a fresh store with the original variants, one timed
        # step per compile
        self.nprepared += 1
        store = self.workdir / f"template{self.nprepared}"
        for config in ("base", "C"):
            with timer.step():
                compiler = Compiler(
                    PAPER_CONFIGS[config], max_workers=1, store_path=store
                )
            for program in names:
                with timer.step():
                    compiler.add_source(("main", self.texts[(program, 0)]))
                    compiler.compile()
        # not timed: a real set-up has no earlier template to remove
        if self.nprepared > 1:
            shutil.rmtree(self.workdir / f"template{self.nprepared - 1}")
        self.template = store

    def operations(self) -> int:
        return len(self.schedule)

    def request_paths(self) -> Dict[str, Dict[str, int]]:
        """How many requests take each path, over the whole schedule and
        over the part the latency percentiles see.  An entry's first
        request reads the store (an original) or compiles and writes it
        (an edit); every later one is a warm hit, in memory or in
        flight.  This depends on the schedule alone."""
        warmup = int(len(self.schedule) * SERVICE_WARMUP_SHARE)
        paths = {part: {"store_read": 0, "miss": 0, "warm_hit": 0}
                 for part in ("all", "latency_window")}
        seen = set()
        for i, (_, idx) in enumerate(self.schedule):
            if idx in seen:
                path = "warm_hit"
            else:
                seen.add(idx)
                path = "miss" if self.catalog[idx][2] else "store_read"
            for part in ("all", "latency_window")[:1 + (i >= warmup)]:
                paths[part][path] += 1
        return paths

    def _request(self, idx):
        program, config, variant = self.catalog[idx]
        return [("main", self.texts[(program, variant)])], \
            PAPER_CONFIGS[config]

    def measure(self, tracer=None) -> Phase:
        phase = Phase()
        tag = "traced" if tracer else "untraced"
        store_dir = self.workdir / tag
        shutil.copytree(self.template, store_dir)
        service = CompileService(
            PAPER_CONFIGS["base"], store_path=store_dir, max_workers=1
        )
        phase.stores.append(service.store)
        size_before = service.store.size_bytes()
        gc.collect()
        first: Dict[int, object] = {}
        cal: List[Tuple[float, float]] = []
        with (tracer.recording() if tracer else contextlib.nullcontext()):
            rows, cpu_s = asyncio.run(self._open_loop(service, first, cal))
        phase.store_bytes = service.store.size_bytes() - size_before
        phase.engines.append(service.engine.stats)
        factors = speed.timed_factors(
            [at for at, _ in cal], [c for _, c in cal],
            [row[1] for row in rows], IDLE_CAL_WINDOW_S,
        )
        # the mean, unlike the median, counts the calibrations a stall
        # of the machine held up, and stalls hold up the slowest requests
        tail_factors = speed.timed_factors(
            [at for at, _ in cal], [c for _, c in cal],
            [row[1] for row in rows], IDLE_CAL_WINDOW_S, statistics.mean,
        )
        late, responses = [], []
        warmup = int(len(rows) * SERVICE_WARMUP_SHARE)
        for i, (idx, due_at, sent_at, done_at, error) in enumerate(rows):
            phase.attempted += 1
            late.append((sent_at - due_at) * 1e3)
            if error is not None:
                phase.failed += 1
                continue
            if i >= warmup:
                phase.raw_ms.append((done_at - due_at) * 1e3)
                phase.op_ms.append(phase.raw_ms[-1] * factors[i])
                phase.tail_ms.append(phase.raw_ms[-1] * tail_factors[i])
            responses.append((idx, done_at - due_at, done_at))
        phase.scale = statistics.median(factors)
        phase.raw_work_s = phase.total_s = cpu_s
        phase.work_s = cpu_s * phase.scale
        phase.passes.append(responses)
        phase.extra.update(
            service=service, late_ms=late, service_stats=service.stats,
            first=first, idle_calibrations=len(cal),
        )
        return phase

    async def _open_loop(self, service, first, cal):
        """Run the schedule; ``first`` collects each entry's first
        executable for the check, ``cal`` the calibrations, before the
        first request and in idle gaps, as (time, seconds).  Later
        responses are dropped at once: holding hundreds of programs would
        grow the heap that every full garbage collection walks, and with
        it the service's pauses.  Returns the rows and the process CPU
        seconds, less the calibrations'."""
        inflight = 0
        next_due = 0.0
        cal_cpu = 0.0

        def timed_calibration():
            c0 = time.process_time()
            return speed.calibrate(), time.process_time() - c0

        async def executor_calibration():
            # on the executor the service compiles on: the loop's
            # thread may sit on a CPU of another speed
            nonlocal cal_cpu
            at = time.perf_counter()
            seconds, cpu = await asyncio.get_running_loop() \
                .run_in_executor(None, timed_calibration)
            cal.append((at, seconds))
            cal_cpu += cpu

        async def calibrate_if_idle():
            # the last response is out and the next request is not due
            # yet: the engine and the loop have nothing to do
            if next_due - time.perf_counter() > IDLE_CAL_GAP_S:
                await executor_calibration()

        async def one(idx, due_at):
            nonlocal inflight
            sources, options = self._request(idx)
            sent_at = time.perf_counter()
            inflight += 1
            try:
                result = await service.compile(
                    sources, options, deadline=SERVICE_DEADLINE_S
                )
            except Exception as exc:  # shed, deadline or compile failure
                return idx, due_at, sent_at, time.perf_counter(), exc
            finally:
                inflight -= 1
            done_at = time.perf_counter()
            first.setdefault(idx, result.program.executable)
            if inflight == 0:
                await calibrate_if_idle()
            return idx, due_at, sent_at, done_at, None

        def pace():
            # the schedule's gaps are in reference-speed seconds: a
            # machine running slower stretches them by as much as it
            # stretches the service's work
            return 1.0 / speed.factor([c for _, c in cal[-PACE_CALS:]])

        tasks = []
        cpu0 = time.process_time()
        for _ in range(PACE_CALS):
            await executor_calibration()
        next_due = time.perf_counter() + 0.01
        last = 0.0
        for due, idx in self.schedule:
            next_due += (due - last) * pace()
            last = due
            delay = next_due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(idx, next_due)))
        rows = await asyncio.gather(*tasks)
        await service.join()
        return rows, time.process_time() - cpu0 - cal_cpu

    def check(self, phase: Phase) -> Dict[str, object]:
        service = phase.extra["service"]
        if self._references is None:  # the traced phase reuses them
            self._references = [
                _reference_compile_program(
                    *self._request(idx)
                ).executable.fingerprint()
                for idx in range(len(self.catalog))
            ]
        references = self._references
        for idx, exe in phase.extra["first"].items():
            if exe.fingerprint() != references[idx]:
                raise Mismatch(
                    f"service response for {self.catalog[idx]} differs "
                    "from the reference pipeline"
                )

        async def every_entry():
            out = []
            for idx in range(len(self.catalog)):
                sources, options = self._request(idx)
                out.append((await service.compile(sources, options)).program)
            await service.join()
            return out

        programs = asyncio.run(every_entry())
        runs, images = [], []
        for idx, built in enumerate(programs):
            if built.executable.fingerprint() != references[idx]:
                raise Mismatch(
                    f"service response for {self.catalog[idx]} differs "
                    "from the reference pipeline"
                )
            program, config, variant = self.catalog[idx]
            images.append((config, _image(built)))
            if variant == 0:
                stats = built.run()
                _check_output(program, stats.output, self.expected)
                runs.append((config, stats))
        return _exact(runs, images)


WORKLOADS = {w.name: w for w in (SuiteCold, PgoSim, ServiceZipf)}
