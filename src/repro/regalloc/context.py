"""Allocation environment: what the allocator may assume at call sites.

This is the seam where intra-procedural and inter-procedural allocation
differ.  Under intra-procedural allocation every call clobbers exactly the
default set (all caller-saved registers plus v0) and parameters travel by
the default convention.  Under IPRA, calls to already-processed *closed*
procedures clobber only what their summaries report, and parameters travel
in the callee's recorded registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.interproc.summaries import (
    ParamSpec,
    ProcSummary,
    default_param_specs,
    default_summary,
)
from repro.ir.instructions import Call, CallInd, IRInstr
from repro.ir.values import VReg
from repro.target.registers import Convention, V0


@dataclass
class AllocEnv:
    """Environment for allocating one procedure.

    ``convention`` is the calling convention in force (save classes,
    argument registers, allocatable pool).  ``summaries`` holds the
    summaries of every already-processed procedure (empty under
    intra-procedural allocation).  ``arities`` maps every known
    procedure name to its parameter count (needed to fabricate default
    summaries for unknown callees).  ``proc_is_open`` says whether the
    procedure being allocated is itself open, which decides whether
    callee-saved registers carry the default save-at-entry obligation.
    """

    convention: Convention
    ipra: bool = False
    proc_is_open: bool = True
    summaries: Dict[str, ProcSummary] = field(default_factory=dict)
    arities: Dict[str, int] = field(default_factory=dict)

    def callee_summary(self, instr: IRInstr) -> ProcSummary:
        """The summary in force for a call instruction."""
        if isinstance(instr, Call):
            if self.ipra and instr.func in self.summaries:
                return self.summaries[instr.func]
            return default_summary(
                instr.func,
                self.arities.get(instr.func, len(instr.args)),
                self.convention,
            )
        if isinstance(instr, CallInd):
            return default_summary(
                "<indirect>", len(instr.args), self.convention
            )
        raise TypeError(f"not a call: {instr!r}")

    def clobber_mask(self, instr: IRInstr) -> int:
        """Registers destroyed at a call site, including argument staging
        and the return-value register."""
        return self.callee_summary(instr).call_clobber_mask()

    def param_specs(self, instr: IRInstr) -> List[ParamSpec]:
        return self.callee_summary(instr).params

    @property
    def callee_saved_convention_applies(self) -> bool:
        """True when using a callee-saved register obliges this procedure
        to save and restore it (intra-procedural allocation, or an open
        procedure under IPRA).  Closed procedures under IPRA run all
        registers in caller-saved mode (Section 2): the save obligation
        propagates to an open ancestor instead.
        """
        return not self.ipra or self.proc_is_open


def intra_env(
    convention: Convention, arities: Optional[Dict[str, int]] = None
) -> AllocEnv:
    """Environment for plain intra-procedural (paper -O2) allocation."""
    return AllocEnv(
        convention=convention,
        ipra=False,
        proc_is_open=True,
        arities=dict(arities or {}),
    )
