"""Regenerate ``expected_outputs.json``: every suite program's output
from the O0 reference pipeline (no IR optimisation, no register
allocation) on the interpreter.

    python3 perfbench/make_expected.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.benchsuite.registry import load_benchmarks  # noqa: E402
from repro.pipeline.driver import _reference_compile_program  # noqa: E402
from repro.pipeline.options import O0  # noqa: E402
from repro.sim import run_program  # noqa: E402
from workloads import EXPECTED_PATH  # noqa: E402


def reference_output(source: str):
    exe = _reference_compile_program([("main", source)], O0).executable
    return run_program(exe).output


def main() -> None:
    outputs = {
        name: reference_output(bench.source)
        for name, bench in load_benchmarks().items()
    }
    doc = {
        "generator": "O0 reference pipeline on the interpreter "
                     "(perfbench/make_expected.py)",
        "outputs": outputs,
    }
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
