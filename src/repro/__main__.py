"""Command-line interface.

Usage::

    python -m repro run PROG.mc [more.mc ...] [options]   # compile + execute
    python -m repro stats PROG.mc [options]               # pixie-style stats
    python -m repro asm PROG.mc [options]                 # assembly listing
    python -m repro ir PROG.mc [options]                  # optimised IR
    python -m repro report PROG.mc [options]              # allocation report
    python -m repro dot PROG.mc [options]                 # call graph (DOT)
    python -m repro store {stats,gc,verify} PATH ...      # artifact store

Options: -O0/-O1/-O2/-O3, --shrink-wrap, --no-combine, --callers N,
--callees N, --ipra-globals, --check, --entry NAME,
--sim-tier auto|interp|jit.

A compile error, an input file that cannot be read or a machine trap
prints one line, ``repro: <message>``, to stderr and exits with status 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.frontend.errors import CompileError
from repro.ir.arith import MachineTrap
from repro.ir.printer import format_module
from repro.pipeline import compile_program, CompilerOptions
from repro.sim import SIM_TIERS
from repro.target.codegen import generate_function
from repro.target.registers import (
    CALLEE_SAVED,
    CALLER_SAVED,
    Convention,
    validate_convention,
)


def _options(args: argparse.Namespace) -> CompilerOptions:
    opts = CompilerOptions(
        opt_level=args.opt,
        shrink_wrap=args.shrink_wrap,
        combine=not args.no_combine,
        entry=args.entry,
        ipra_globals=args.ipra_globals,
    )
    if args.callers is not None:
        opts = opts.with_(convention=validate_convention(Convention(
            allocatable=CALLER_SAVED[:args.callers],
            name=f"caller-only-{args.callers}",
        )))
    if args.callees is not None:
        opts = opts.with_(convention=validate_convention(Convention(
            allocatable=CALLEE_SAVED[:args.callees],
            name=f"callee-only-{args.callees}",
        )))
    return opts


def _sources(paths: List[str]):
    """(name, text) per input file; a file that cannot be read or
    decoded is a :class:`CompileError` naming it."""
    out = []
    for p in paths:
        path = Path(p)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CompileError(
                f"cannot read {p}: {exc.strerror or exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise CompileError(f"cannot read {p}: {exc}") from exc
        out.append((path.stem, text))
    return out


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        from repro.store.cli import store_main

        return store_main(argv[1:])
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "command", choices=["run", "stats", "asm", "ir", "report", "dot"]
    )
    parser.add_argument("files", nargs="+", help="MiniC source files")
    parser.add_argument("-O", dest="opt", type=int, default=2,
                        choices=[0, 1, 2, 3])
    parser.add_argument("--shrink-wrap", action="store_true")
    parser.add_argument("--no-combine", action="store_true")
    parser.add_argument("--callers", type=int, default=None,
                        help="restrict to N caller-saved registers")
    parser.add_argument("--callees", type=int, default=None,
                        help="restrict to N callee-saved registers")
    parser.add_argument("--ipra-globals", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="enable the dynamic convention checker")
    parser.add_argument("--entry", default="main")
    parser.add_argument("--sim-tier", default="auto", choices=SIM_TIERS,
                        help="simulator tier (default: auto)")
    args = parser.parse_args(argv)
    try:
        return _command(args)
    except (CompileError, MachineTrap) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1


def _command(args: argparse.Namespace) -> int:
    prog = compile_program(_sources(args.files), _options(args))

    if args.command == "ir":
        print(format_module(prog.ir))
        return 0
    if args.command == "report":
        from repro.tools import program_report

        print(program_report(prog))
        return 0
    if args.command == "dot":
        from repro.tools import call_graph_dot

        print(call_graph_dot(prog.plan))
        return 0
    if args.command == "asm":
        for name in prog.ir.functions:
            asm = generate_function(prog.plan.plans[name], prog.ir.arrays)
            print(asm.render())
            print()
        return 0

    stats = prog.run(check_contracts=args.check, sim_tier=args.sim_tier)
    if args.command == "run":
        for value in stats.output:
            print(value)
        return 0
    # stats
    for key, value in stats.summary().items():
        print(f"{key:>20s}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
