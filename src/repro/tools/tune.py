"""CLI front end of the calling-convention autotuner.

Every candidate compiles through one shared incremental engine on the
calling thread (see :mod:`repro.tuning.tuner`).  Run a search and write
the schema-versioned JSON report::

    PYTHONPATH=src python -m repro.tools.tune --budget small \
        --out benchmarks/TUNE_report.json

CI smoke (``--check``): runs the small budget, asserts the search is
sound -- the winner is never worse than the paper's baseline convention
and the strictly-worse-by-construction candidate never beats it --
schema-validates the committed report and checks that its counts equal
the search just run, all *without* overwriting it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.pipeline.options import PAPER_CONFIGS
from repro.tools.reports import tune_report
from repro.tuning.tuner import (
    TUNE_SCHEMA_VERSION,
    check_report,
    compare_reports,
    tune,
)

#: the committed report the CI check validates
REPORT_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "TUNE_report.json"


def run_check(args) -> int:
    """CI smoke: a small search must be sound, and the committed report
    must match the current schema and, for the same search parameters,
    the search's exact counts."""
    result = tune(
        budget="small",
        config=args.config,
        names=args.names,
        sim_tier=args.sim_tier,
        seed=args.seed,
        store_path=args.store,
        on_progress=print if args.verbose else None,
    )
    report = result.to_report()
    errors = check_report(report)
    guard = report.get("guard")
    if guard is None:
        errors.append(
            "small budget did not evaluate the strictly-worse guard "
            "candidate on the full program set"
        )
    for err in errors:
        print(f"CHECK VIOLATION: {err}", file=sys.stderr)
    if not REPORT_PATH.exists():
        print(
            f"CHECK VIOLATION: committed report {REPORT_PATH} is missing "
            f"(generate it with --out {REPORT_PATH})",
            file=sys.stderr,
        )
        return 1
    committed = json.loads(REPORT_PATH.read_text())
    stale = [
        f"differs from the search: {diff}"
        for diff in compare_reports(committed, report)
    ]
    for err in check_report(committed) + stale:
        errors.append(f"committed report: {err}")
        print(f"CHECK VIOLATION: committed report: {err}", file=sys.stderr)
    if not errors:
        print(
            f"tune check OK: winner {report['winner']['convention']['name']} "
            f"(schema v{TUNE_SCHEMA_VERSION}, committed report valid)"
        )
    return 1 if errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="search calling conventions over the benchmark suite"
    )
    parser.add_argument("--budget", default="small",
                        choices=["small", "medium", "full"],
                        help="candidate-space size (default: small)")
    parser.add_argument("--config", default="C",
                        choices=sorted(PAPER_CONFIGS),
                        help="paper config to tune under (default: C)")
    parser.add_argument("--names", nargs="*", default=None,
                        help="benchmark subset (default: all 13)")
    parser.add_argument("--seed", type=int, default=0,
                        help="search seed (same seed => same report)")
    parser.add_argument("--sample", type=int, default=None,
                        help="candidate count for --budget medium")
    parser.add_argument("--sim-tier", default="auto",
                        help="simulator tier for evaluation runs")
    parser.add_argument("--store", default=None,
                        help="artifact-store directory for warm-started "
                             "candidate compiles")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: run small budget, assert guards, "
                             "validate the committed report (no overwrite)")
    parser.add_argument("--quiet", dest="verbose", action="store_false",
                        help="suppress per-candidate progress")
    args = parser.parse_args(argv)

    if args.check:
        return run_check(args)

    result = tune(
        budget=args.budget,
        config=args.config,
        names=args.names,
        sim_tier=args.sim_tier,
        seed=args.seed,
        store_path=args.store,
        sample=args.sample,
        on_progress=print if args.verbose else None,
    )
    report = result.to_report()
    errors = check_report(report)
    for err in errors:
        print(f"VIOLATION: {err}", file=sys.stderr)
    print(tune_report(report))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {out}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
