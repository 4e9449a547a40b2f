"""Stable content fingerprints for the incremental engine.

Every cache in :mod:`repro.engine` is keyed by *content*, never by object
identity or wall-clock state, so a warm cache can only ever return what a
cold compile would have produced:

* source text keys the front-end caches (plain SHA-256 of the text);
* an :class:`~repro.ir.function.IRFunction` is fingerprinted from a full
  structural walk of its blocks and instructions (the cosmetic printer is
  not used: ``repr(VReg)`` drops the kind, which must distinguish a local
  ``x`` from a global ``x``);
* a :class:`~repro.interproc.summaries.ProcSummary` reduces to a flat
  signature tuple -- the paper's "one word of storage" plus parameter
  homes -- which is exactly the information a caller's plan consumed;
* :class:`~repro.interproc.allocator.PlanOptions` reduce to the fields
  that can change an allocation, led by the convention's full functional
  key (*ordered* allocatable contents, save-class masks, argument-register
  count) so two conventions never collide in any cache.

Fingerprints of IR functions are memoised on the function object itself;
cached functions are immutable once published, so the memo is safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import Dict, List, Optional, Tuple

from repro.interproc.allocator import PlanOptions
from repro.interproc.summaries import ProcSummary
from repro.ir.function import IRFunction
from repro.ir.values import Const, VReg

_FP_ATTR = "_engine_fingerprint"


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encode_value(v, out: List[str]) -> None:
    if isinstance(v, VReg):
        out.append(f"V{v.kind.name}\x01{v.name}\x01{v.index}")
    elif isinstance(v, Const):
        out.append(f"C{v.value}")
    elif v is None:
        out.append("~")
    elif isinstance(v, (list, tuple)):
        out.append("[")
        for item in v:
            _encode_value(item, out)
        out.append("]")
    elif isinstance(v, (str, int, bool)):
        out.append(repr(v))
    else:  # pragma: no cover - future IR extensions must be encodable
        raise TypeError(f"unencodable IR operand {v!r}")


def _encode_instr(ins, out: List[str]) -> None:
    out.append(type(ins).__name__)
    for f in fields(ins):
        _encode_value(getattr(ins, f.name), out)


def function_fingerprint(fn: IRFunction) -> str:
    """Content hash of one IR procedure (memoised on the object)."""
    cached = getattr(fn, _FP_ATTR, None)
    if cached is not None:
        return cached
    out: List[str] = [fn.name, repr(fn.params)]
    for name, size in sorted(fn.local_arrays.items()):
        out.append(f"A{name}\x01{size}")
    for block in fn.blocks:
        out.append(f"B{block.name}")
        for ins in block.instrs:
            _encode_instr(ins, out)
        if block.terminator is not None:
            _encode_instr(block.terminator, out)
    digest = hashlib.sha256("\x00".join(out).encode("utf-8")).hexdigest()
    setattr(fn, _FP_ATTR, digest)
    return digest


def summary_signature(summary: ProcSummary) -> Tuple:
    """Everything of a callee's summary that a caller's plan consumed."""
    return (
        summary.closed,
        summary.used_mask,
        summary.own_assigned_mask,
        summary.saved_locally_mask,
        tuple(
            (p.pos, p.reg.index if p.reg is not None else -1, p.dead)
            for p in summary.params
        ),
    )


def plan_options_fingerprint(options: PlanOptions) -> Tuple:
    """The :class:`PlanOptions` fields that can change an allocation.

    ``entry`` and ``externally_visible`` act only through the open/closed
    classification, which plan keys carry separately; ``block_weights``
    is folded in per function by :func:`weights_fingerprint`.
    """
    return (
        options.convention.key(),
        options.ipra,
        options.shrink_wrap,
        options.combine,
        options.prefer_subtree_reg,
        options.smear_loops,
        options.ipra_globals,
    )


def weights_fingerprint(
    block_weights: Optional[Dict[str, Dict[str, int]]], fname: str
) -> Optional[Tuple]:
    if block_weights is None:
        return None
    weights = block_weights.get(fname)
    if weights is None:
        return None
    return tuple(sorted(weights.items()))


def options_fingerprint(options) -> str:
    """Stable digest of a :class:`~repro.pipeline.options.CompilerOptions`.

    Covers every field, including the ones plan keys carry separately
    (``entry``, ``externally_visible``): this digest keys whole *requests*
    (service single-flight, warm-start identity checks), where any field
    difference must be a different request.
    """
    weights = options.block_weights
    parts = [
        str(options.opt_level),
        str(options.shrink_wrap),
        repr(options.convention.key()),
        str(options.combine),
        str(options.prefer_subtree_reg),
        str(options.smear_loops),
        str(options.externally_visible),
        options.entry,
        "~" if weights is None else repr(
            sorted((f, tuple(sorted(w.items()))) for f, w in weights.items())
        ),
        str(options.ipra_globals),
    ]
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def request_fingerprint(named_sources, options) -> str:
    """Digest of one compile request: (name, text) pairs plus options.

    This is the single-flight key of :class:`repro.service.CompileService`
    -- two requests with the same fingerprint produce bit-identical
    executables, so one compile may serve both.
    """
    parts = [options_fingerprint(options)]
    for name, text in named_sources:
        parts.append(name)
        parts.append(text_digest(text))
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()
