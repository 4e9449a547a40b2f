"""Compiled output must not depend on Python's hash seed.

Liveness, live ranges and interference run over a dense vreg numbering
taken in instruction order, and every other set the compiler walks is
sorted before it shapes output; a stray walk over a set of vregs or
strings would order registers, saves or blocks by ``hash()``, which
``PYTHONHASHSEED`` changes from process to process.  Two interpreters
with different seeds compile one suite program under ``base`` and ``C``
and must agree on every executable.  A store written under one seed and
read under the other must give the same executables too (its ``fe``
pickles carry vregs, whose hashes are seed-dependent).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PROGRAM = "ccom"
CONFIGS = ("base", "C")

_SCRIPT = """
import json, sys
from repro import Compiler
from repro.benchsuite.registry import load_benchmarks
from repro.ir.values import VReg
from repro.pipeline.options import PAPER_CONFIGS
from repro.tools.reports import disassemble

program, store = sys.argv[1], sys.argv[2] or None
source = load_benchmarks()[program].source
out = {}
for config in sys.argv[3:]:
    compiler = Compiler(PAPER_CONFIGS[config], store_path=store)
    compiled = compiler.add_source(source).compile()
    exe = compiled.executable
    stage = compiled.record.stages["store"]
    out[config] = {
        "fingerprint": exe.fingerprint(),
        "listing": disassemble(exe),
        "store_hits": stage.hits,
        "store_misses": stage.misses,
        # a vreg loaded from the store hashes like one built here
        "vregs_rehashed": all(
            VReg(v.name, v.kind, v.index) in fn.vregs
            for fn in compiled.ir.functions.values() for v in fn.vregs
        ),
    }
json.dump(out, sys.stdout)
"""


def _compile_under(seed: int, store: str = "") -> dict:
    src_root = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + [p for p in
                           env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["PYTHONHASHSEED"] = str(seed)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, PROGRAM, store, *CONFIGS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _image(result: dict) -> dict:
    return {
        config: (cell["fingerprint"], cell["listing"])
        for config, cell in result.items()
    }


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    one = _compile_under(1)
    two = _compile_under(2)
    assert set(one) == set(CONFIGS)
    assert one["base"]["fingerprint"] != one["C"]["fingerprint"]
    assert _image(one) == _image(two)

    store = str(tmp_path / "store")
    written = _compile_under(1, store)
    read = _compile_under(2, store)
    assert written["base"]["store_hits"] == 0    # the store starts empty
    for config in CONFIGS:
        assert read[config]["store_hits"] > 0
        assert read[config]["store_misses"] == 0
        assert read[config]["vregs_rehashed"]
    assert _image(written) == _image(one)
    assert _image(read) == _image(one)
