"""Shared helpers for the test suite (importable as ``import helpers``)."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.cfg.cfg import CFG
from repro.ir.function import BasicBlock, IRFunction
from repro.ir.instructions import CJump, Jump, Ret
from repro.ir.values import Const
from repro.shrinkwrap.placement import WrapPlacement

from repro.frontend import analyze, parse
from repro.ir import lower_module, optimize_module
from repro.pipeline import (
    compile_and_run,
    O0,
    O1,
    O2,
    O2_SW,
    O3,
    O3_SW,
)

ALL_LEVELS = [O0, O1, O2, O2_SW, O3, O3_SW]
LEVEL_IDS = ["O0", "O1", "O2", "O2_SW", "O3", "O3_SW"]


# --------------------------------------------------------------------------
# Session-wide compile/run sharing (used by tests/ and benchmarks/ alike,
# so each benchsuite program compiles once per pytest session per config)
# --------------------------------------------------------------------------

_ENGINE = None
_COMPILE_MEMO: Dict[tuple, object] = {}
_RUN_MEMO: Dict[tuple, object] = {}


def compile_cached(source, options):
    """Whole-program compile memoised for the pytest session.

    Backed by one shared :class:`repro.Engine`, so even distinct
    (source, options) pairs reuse each other's per-procedure work."""
    global _ENGINE
    key = (source, options)
    program = _COMPILE_MEMO.get(key)
    if program is None:
        if _ENGINE is None:
            from repro import Engine

            _ENGINE = Engine()
        program = _ENGINE.compile(source, options)
        _COMPILE_MEMO[key] = program
    return program


def run_cached(source, options, check_contracts: bool = False):
    """``compile_and_run`` memoised for the pytest session."""
    key = (source, options, check_contracts)
    stats = _RUN_MEMO.get(key)
    if stats is None:
        stats = compile_cached(source, options).run(
            check_contracts=check_contracts
        )
        _RUN_MEMO[key] = stats
    return stats


def interpreter_profile(target, runs=None, **run_kwargs):
    """``block_profile_of(target, attach=False)`` with the run made by
    the interpreter's ``block_counts`` hook instead of the profiling
    translation: the oracle for translator profiles.
    A ``runs`` list receives that run's ``RunStats``."""
    from unittest import mock

    from repro.pipeline import profile
    from repro.sim.simulator import run_program

    def run(*args, **kwargs):
        stats = run_program(*args, **kwargs)
        if runs is not None:
            runs.append(stats)
        return stats

    with mock.patch.object(profile, "run_program", run):
        return profile.block_profile_of(target, attach=False, **run_kwargs)


def count_tails(monkeypatch) -> List[int]:
    """A list that gets the start pc of every run tail the trace
    translator hands to the interpreter, by wrapping ``interpret``
    where ``repro.sim.jit`` imports it."""
    from repro.sim import jit, simulator

    tails: List[int] = []

    def interpret(exe, pc, *args, **kwargs):
        tails.append(pc)
        return simulator.interpret(exe, pc, *args, **kwargs)

    monkeypatch.setattr(jit, "interpret", interpret)
    return tails


def once(benchmark, fn):
    """Run ``fn`` exactly once under the pytest-benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def lower(source: str, name: str = "test"):
    """Parse/analyze/lower a source string to an IR module."""
    return lower_module(analyze(parse(source, name)))


def lower_opt(source: str, name: str = "test"):
    mod = lower(source, name)
    optimize_module(mod)
    return mod


def run_all_levels(source, check_contracts: bool = True):
    """Compile and run a program at every optimisation level; assert the
    outputs agree and return the level->stats mapping."""
    stats = {}
    for options, tag in zip(ALL_LEVELS, LEVEL_IDS):
        stats[tag] = compile_and_run(
            source, options, check_contracts=check_contracts
        )
    outputs = {tuple(s.output) for s in stats.values()}
    assert len(outputs) == 1, f"outputs diverge: {outputs}"
    return stats


# --------------------------------------------------------------------------
# Hand-built CFGs for dataflow / shrink-wrap tests
# --------------------------------------------------------------------------

def build_graph(edges: List[Tuple[int, int]], n: int) -> CFG:
    """Build a CFG with blocks 0..n-1 and the given edges.

    Blocks with no successors become return blocks; one successor, jumps;
    more, conditional jumps (first two targets).
    """
    fn = IRFunction(name="g", params=[])
    out: Dict[int, List[int]] = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    for i in range(n):
        succs = out.get(i, [])
        if not succs:
            term = Ret(None)
        elif len(succs) == 1:
            term = Jump(f"b{succs[0]}")
        else:
            term = CJump(Const(1), f"b{succs[0]}", f"b{succs[1]}")
        fn.add_block(BasicBlock(f"b{i}", [], term))
    cfg = CFG(fn=fn)
    cfg.blocks = list(fn.blocks)
    cfg.index = {b.name: i for i, b in enumerate(cfg.blocks)}
    cfg.succs = [[] for _ in range(n)]
    cfg.preds = [[] for _ in range(n)]
    for a, b in edges:
        cfg.succs[a].append(b)
        cfg.preds[b].append(a)
    return cfg

# --------------------------------------------------------------------------
# Independent shrink-wrap soundness checker (state enumeration; a
# deliberately different algorithm from the implementation's own
# meet-based detector, so property tests cross-check the two)
# --------------------------------------------------------------------------

class UnsoundPlacement(AssertionError):
    pass


def check_placement(
    cfg: CFG, app_blocks: Set[int], placement: WrapPlacement
) -> None:
    """Raise :class:`UnsoundPlacement` if the placement can misbehave on
    any execution path."""
    exits = set(cfg.exits())
    seen: Set[Tuple[int, bool]] = set()
    # an entry-block save is emitted in the prologue (before the entry
    # label): it runs exactly once, so it becomes the initial state and
    # never re-executes on back edges into the entry
    work = [(cfg.entry, cfg.entry in placement.saves)]
    while work:
        block, saved = work.pop()
        if (block, saved) in seen:
            continue
        seen.add((block, saved))
        state = saved
        if block in placement.saves and block != cfg.entry:
            if state:
                raise UnsoundPlacement(f"double save at block {block}")
            state = True
        if block in app_blocks and not state:
            raise UnsoundPlacement(f"use at block {block} while unsaved")
        if block in placement.restores:
            if not state:
                raise UnsoundPlacement(f"restore at block {block} while unsaved")
            state = False
        if block in exits and not cfg.succs[block]:
            if state:
                raise UnsoundPlacement(f"exit at block {block} while saved")
        for succ in cfg.succs[block]:
            work.append((succ, state))
