"""Byte identity of the compiled suite, against a committed digest.

Compiles the 13 programs under the six paper configurations through the
session's shared compile cache, disassembles each linked executable and
compares SHA-256 digests with ``LISTING_digest.json`` beside this file:
one digest per (program, config) cell, so a failure names the cells
whose code changed, and one over all 78 listings.

The disassembly hides data relocations and leaves out the data image
and the preserved-register masks, so each cell's whole linked image is
pinned as well, by :meth:`Executable.fingerprint`.  The reference
pipeline links with the same linker, so only this committed pin can
catch a linker change.

A change that is meant to alter generated code regenerates the file and
says why::

    PYTHONPATH=src python benchmarks/test_listing_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "tests"))

from helpers import compile_cached  # noqa: E402

from repro.benchsuite import load_benchmarks  # noqa: E402
from repro.pipeline.options import PAPER_CONFIGS  # noqa: E402
from repro.tools.reports import disassemble  # noqa: E402

DIGEST_PATH = _HERE / "LISTING_digest.json"


def listing_digests() -> Dict[str, object]:
    """``{"cells": {"<program>/<config>": sha256}, "all": sha256,
    "images": {"<program>/<config>": fingerprint}}`` over the linked
    executables, in suite and config order."""
    cells: Dict[str, str] = {}
    images: Dict[str, str] = {}
    overall = hashlib.sha256()
    for name, bench in load_benchmarks().items():
        for config, options in PAPER_CONFIGS.items():
            exe = compile_cached(bench.source, options).executable
            listing = disassemble(exe).encode("utf-8")
            cells[f"{name}/{config}"] = hashlib.sha256(listing).hexdigest()
            images[f"{name}/{config}"] = exe.fingerprint()
            overall.update(listing)
            overall.update(b"\0")
    return {"cells": cells, "all": overall.hexdigest(), "images": images}


def _changed(committed: Dict[str, str], fresh: Dict[str, str]):
    return sorted(
        cell for cell in committed.keys() | fresh.keys()
        if committed.get(cell) != fresh.get(cell)
    )


def test_linked_listings_match_the_committed_digest():
    committed = json.loads(DIGEST_PATH.read_text())
    fresh = listing_digests()
    changed = _changed(committed["cells"], fresh["cells"])
    assert changed == [], (
        f"generated code changed in {len(changed)} cells: {changed}; if "
        "that is intended, regenerate with --write and say why"
    )
    assert fresh["all"] == committed["all"]
    assert len(fresh["cells"]) == 78
    changed = _changed(committed["images"], fresh["images"])
    assert changed == [], (
        f"linked image changed in {len(changed)} cells: {changed}; if "
        "that is intended, regenerate with --write and say why"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_listing_digest.py --write")
    DIGEST_PATH.write_text(
        json.dumps(listing_digests(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {DIGEST_PATH}")
