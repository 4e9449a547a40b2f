"""The machine instruction value type."""

import pickle

from repro.target.isa import Instr, MemKind, Opcode
from repro.target.registers import reg


def test_instr_is_slotted_and_pickles_unchanged():
    ins = Instr(Opcode.SW, None, reg("sp"), reg("s0"), 4,
                "g", MemKind.SAVE, "save $s0")
    assert not hasattr(ins, "__dict__")
    back = pickle.loads(pickle.dumps(ins, protocol=pickle.HIGHEST_PROTOCOL))
    assert back == ins
    assert back is not ins
    assert repr(back) == repr(ins)
    assert back.render() == ins.render()
