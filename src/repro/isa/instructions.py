"""The synthetic RISC-like instruction set used by the layout engine.

Only the properties that matter to branch alignment are modelled: every
instruction is 4 bytes, and an instruction is either a straight-line
operation or one of the five control-transfer kinds the paper traces
(conditional branch, unconditional branch, indirect jump, call, return).
The paper's binary rewriter (OM) works at this level of abstraction too —
it permutes blocks, flips branch senses and inserts or deletes
unconditional branches without understanding the ALU operations between
them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

#: Size of every instruction, in bytes (Alpha AXP fixed-width encoding).
INSTRUCTION_BYTES = 4


class Opcode(enum.Enum):
    """Instruction classes relevant to branch-cost simulation."""

    OP = "op"  # any straight-line operation
    COND_BRANCH = "cbr"
    UNCOND_BRANCH = "br"
    INDIRECT_JUMP = "ijmp"
    CALL = "call"
    INDIRECT_CALL = "icall"
    RETURN = "ret"


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction at a fixed address.

    ``target`` is the static target address for direct control transfers
    (conditional/unconditional branches and direct calls); indirect jumps,
    indirect calls and returns have no static target.
    """

    address: int
    opcode: Opcode
    target: Optional[int] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if self.address % INSTRUCTION_BYTES:
            raise ValueError(f"misaligned instruction address {self.address:#x}")
        direct = self.opcode in (Opcode.COND_BRANCH, Opcode.UNCOND_BRANCH, Opcode.CALL)
        if direct and self.target is None:
            raise ValueError(f"{self.opcode.value} requires a target")
        if not direct and self.opcode is not Opcode.OP and self.target is not None:
            raise ValueError(f"{self.opcode.value} cannot carry a static target")

    @property
    def is_backward(self) -> bool:
        """True if this is a direct branch to an earlier address.

        This is the relation the BT/FNT (backward-taken, forward-not-taken)
        static predictor keys on.
        """
        return self.target is not None and self.target < self.address

    def render(self) -> str:
        """A one-line human-readable disassembly."""
        if self.opcode is Opcode.OP:
            body = "op"
        elif self.target is not None:
            body = f"{self.opcode.value} {self.target:#x}"
        else:
            body = self.opcode.value
        suffix = f"  ; {self.comment}" if self.comment else ""
        return f"{self.address:#08x}: {body}{suffix}"
