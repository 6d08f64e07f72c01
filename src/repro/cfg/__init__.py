"""Control-flow-graph substrate: blocks, procedures, programs, builders."""

from .analysis import (
    NaturalLoop,
    dominates,
    exit_blocks,
    immediate_dominators,
    immediate_postdominators,
    loop_depths,
    natural_loops,
    postdominates,
    reverse_postorder,
)
from .blocks import (
    BasicBlock,
    BlockId,
    CallSite,
    Edge,
    EdgeKind,
    TerminatorKind,
)
from .builder import ProcedureBuilder, ProgramBuilder
from .dot import procedure_to_dot
from .fingerprint import cfg_fingerprint, program_fingerprint
from .procedure import CFGError, Procedure
from .program import Program

__all__ = [
    "BasicBlock",
    "BlockId",
    "CFGError",
    "CallSite",
    "Edge",
    "NaturalLoop",
    "EdgeKind",
    "Procedure",
    "ProcedureBuilder",
    "Program",
    "ProgramBuilder",
    "TerminatorKind",
    "cfg_fingerprint",
    "dominates",
    "exit_blocks",
    "immediate_dominators",
    "immediate_postdominators",
    "loop_depths",
    "natural_loops",
    "postdominates",
    "procedure_to_dot",
    "program_fingerprint",
    "reverse_postorder",
]
