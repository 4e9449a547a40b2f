"""Smoke check of the benchmark itself, in about two minutes.

    python3 perfbench/smoke.py

For every workload, at the smoke size (``run.py --smoke``):

* the untraced run prints every end-to-end metric of ``BENCHMARK.json``
  and the traced run every per-layer metric, each with its unit;
* the exact counts (paper counts, code size, and the per-layer call and
  hit counts listed in ``EXACT_LAYER_COUNTS``) repeat exactly across two
  runs with the same seed under different Python hash seeds;
* a deliberately wrong expected output makes the run fail with code 1
  and print no result.

Finally a directory holding only ``BENCHMARK.json`` and the benchmark's
files (no compiler sources) must make the runner fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench-smoke"

#: per-layer counts that must repeat exactly.  On the service, hit
#: ratios and the invalidation count also depend on which duplicates
#: met in flight, which is a matter of timing.
EXACT_LAYER_COUNTS = {
    "suite-cold": (
        "interproc.plan_calls", "target.codegen_calls",
        "engine.frontend_hit_ratio", "engine.plan_hit_ratio",
        "engine.codegen_hit_ratio", "engine.invalidated",
    ),
    "pgo-sim": (
        "interproc.plan_calls", "target.codegen_calls",
        "engine.invalidated", "sim.jit3_inlined_calls", "sim.jit3_bailouts",
    ),
    "service-zipf": (
        "interproc.plan_calls", "target.codegen_calls", "store.hit_ratio",
    ),
}


def run(workload, trace, hash_seed, expected=None, root=ROOT):
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "2",
        "--trace", str(trace), "--smoke",
    ]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=180
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines):
    """The final result object, or ``None`` when none was printed."""
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return doc if isinstance(doc, dict) and "correct" in doc else None


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        wrong = json.loads((HERE / "expected_outputs.json").read_text())
        wrong["outputs"]["map"][0] += 1
        wrong_path = SCRATCH / "wrong_expected.json"
        wrong_path.write_text(json.dumps(wrong))

        for workload in (w["name"] for w in spec["workloads"]):
            runs = {}
            for trace in (0, 1):
                for hash_seed in (0, 1):
                    code, lines, err = run(workload, trace, hash_seed)
                    check(code == 0, f"{workload} trace={trace}: {err[-600:]}")
                    res = result_of(lines)
                    check(res is not None and res["correct"] is True,
                          f"{workload} trace={trace}: no result")
                    check(set(res) == {"correct", "attempted", "failed",
                                       "metrics"},
                          f"{workload}: result keys {sorted(res)}")
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    check(got == wanted[trace],
                          f"{workload} trace={trace}: metrics/units "
                          f"{sorted(set(got) ^ set(wanted[trace]))} differ")
                    prov = json.loads(lines[-2])["provenance"]
                    runs[trace, hash_seed] = (prov["exact"], res["metrics"])
            for trace in (0, 1):
                check(runs[trace, 0][0] == runs[trace, 1][0],
                      f"{workload}: exact counts differ across hash seeds")
            check(runs[0, 0][0] == runs[1, 0][0],
                  f"{workload}: traced counts differ from untraced")
            for name in EXACT_LAYER_COUNTS[workload]:
                a, b = (runs[1, h][1][name]["value"] for h in (0, 1))
                check(a == b, f"{workload}: {name} {a} != {b}")

            code, lines, _ = run(workload, 0, 0, expected=wrong_path)
            check(code == 1 and result_of(lines) is None,
                  f"{workload}: a wrong expected output was not caught")
            print(f"{workload}: ok")

        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines, _ = run("suite-cold", 0, 0, root=bare)
        check(code != 0 and result_of(lines) is None,
              "a checkout without sources did not fail")
        print("bare checkout: fails as it should")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    main()
