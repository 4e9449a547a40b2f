"""Exact gates for the trace translator on the whole suite.

``block_profile_of`` profiles a program with one run of a profiling
translation, which counts blocks per trace exit the way pixie counted
them inside translated code.  For every suite program under every
paper configuration that profile must equal the one the interpreter's
``block_counts`` hook collects, digest for digest.

The same cells gate tier identity: the interpreter's ``RunStats``, kept
from the oracle's profiling run, must equal a run on tier ``"jit"`` and
a run on tier ``"jit3"`` fed the translator's profile.
"""

import pytest

from conftest import compile_cached
from helpers import interpreter_profile

from repro.benchsuite.registry import load_benchmarks
from repro.pipeline import PAPER_CONFIGS
from repro.pipeline.profile import block_profile_of


@pytest.mark.parametrize("config", sorted(PAPER_CONFIGS))
def test_translator_profile_matches_the_interpreter(config):
    for name, bench in sorted(load_benchmarks().items()):
        prog = compile_cached(bench.source, PAPER_CONFIGS[config])
        runs = []
        oracle = interpreter_profile(prog, runs=runs)
        profile = block_profile_of(prog, attach=False)
        assert profile.digest() == oracle.digest(), name
        (interp,) = runs
        assert prog.run(sim_tier="jit") == interp, name
        assert prog.run(sim_tier="jit3", profile=profile) == interp, name
