"""Semantic trace capture for differential layout verification.

A :class:`TraceCapture` is the layout-independent record of one
execution: the dynamic block-visit sequence in stable ``(procedure,
block-id)`` coordinates, the emitted conditional-branch outcomes, and
the intra-procedural edge traversal counts.  Capturing the original
binary and an aligned binary with the same behaviour seed must yield
*isomorphic* captures — identical block sequences and edge counts, with
conditional outcomes differing only where the layout legitimately
inverted a branch sense.  The oracle (:mod:`repro.oracle.oracle`)
checks that isomorphism per step template of a decision trace, without
materialising captures; full captures serve debugging and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cfg import BlockId
from ..isa.encoder import LinkedProgram
from ..sim import trace as tr
from ..sim.executor import execute

#: A block in stable coordinates: (procedure name, block id).
BlockRef = Tuple[str, BlockId]


@dataclass
class TraceCapture:
    """Layout-independent record of one execution of a linked binary."""

    #: Dynamic block-visit sequence, in execution order.
    blocks: List[BlockRef] = field(default_factory=list)
    #: Per-execution conditional outcomes: (block, taken-bit-as-emitted).
    cond_outcomes: List[Tuple[BlockRef, bool]] = field(default_factory=list)
    #: Emitted unconditional-branch sites (layout-inserted jumps included).
    uncond_sites: List[BlockRef] = field(default_factory=list)
    #: Intra-procedural edge traversal counts: (proc, src, dst) -> count.
    edge_counts: Dict[Tuple[str, BlockId, BlockId], int] = field(default_factory=dict)
    #: Ordered intra-procedural edge traversals — the semantic decision
    #: sequence the oracle replays through an aligned image.
    edge_trail: List[Tuple[str, BlockId, BlockId]] = field(default_factory=list)
    instructions: int = 0
    events: int = 0

    def __len__(self) -> int:
        return len(self.blocks)


def site_blocks(linked: LinkedProgram) -> Dict[int, BlockRef]:
    """Branch-site address -> the block whose terminator or jump sits there."""
    site_to_block: Dict[int, BlockRef] = {}
    for proc_name, placed in linked.blocks.items():
        for bid, lb in placed.items():
            if lb.term_address is not None:
                site_to_block[lb.term_address] = (proc_name, bid)
            if lb.jump_address is not None:
                site_to_block[lb.jump_address] = (proc_name, bid)
    return site_to_block


class _CaptureListener:
    """Event/block listener translating addresses back to block ids."""

    def __init__(self, linked: LinkedProgram, trail: bool = True):
        self.capture = TraceCapture()
        self.trail = trail
        self.site_to_block = site_blocks(linked)

    def on_block(self, proc_name: str, bid: BlockId) -> None:
        self.capture.blocks.append((proc_name, bid))

    def on_event(self, event: tr.Event) -> None:
        kind, site, _target, taken = event
        if kind == tr.COND:
            self.capture.cond_outcomes.append((self.site_to_block[site], taken))
        elif kind == tr.UNCOND:
            self.capture.uncond_sites.append(self.site_to_block[site])

    def hook(self, proc_name: str, src: BlockId, dst: BlockId) -> None:
        key = (proc_name, src, dst)
        self.capture.edge_counts[key] = self.capture.edge_counts.get(key, 0) + 1
        if self.trail:
            self.capture.edge_trail.append(key)


def capture_trace(
    linked: LinkedProgram,
    seed: int = 0,
    max_events: Optional[int] = None,
    trail: bool = True,
    decisions=None,
) -> TraceCapture:
    """Execute ``linked`` and record its semantic trace.

    Identical seeds replay identical inputs, so two captures of the same
    program under different layouts are directly comparable.  ``trail``
    keeps the ordered edge sequence; disable it for aligned-side captures
    where only counts and outcomes are compared (halves the memory).

    ``decisions`` replays a captured
    :class:`~repro.sim.decisions.DecisionTrace` through ``linked``
    instead of re-executing: one real execution then serves the baseline
    and every aligned layout (``seed`` is ignored — the trace already
    fixes the inputs).
    """
    listener = _CaptureListener(linked, trail=trail)
    if decisions is not None:
        from ..sim.replay import replay

        result = replay(
            linked,
            decisions,
            listeners=(listener,),
            profile_hook=listener.hook,
            block_hook=listener.on_block,
            max_events=max_events,
        )
    else:
        result = execute(
            linked,
            listeners=(listener,),
            profile_hook=listener.hook,
            block_hook=listener.on_block,
            seed=seed,
            max_events=max_events,
        )
    listener.capture.instructions = result.instructions
    listener.capture.events = result.events
    return listener.capture
