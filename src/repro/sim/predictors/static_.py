"""The three static branch prediction architectures (section 3).

* ``FALLTHROUGH`` — the fall-through path is always assumed.
* ``BT/FNT`` — backward taken, forward not taken (HP PA-RISC, AXP 21064).
* ``LIKELY`` — a per-branch likely bit set from profile information (Tera).

The BT/FNT and LIKELY predictors need static per-site information that is
not carried in trace events — the taken-target address and the profile
majority direction respectively — so they are constructed from the linked
binary (and, for LIKELY, the alignment profile), exactly as the hardware
reads the branch displacement and the compiler sets the likely bit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

from ...cfg import TerminatorKind
from ...isa.encoder import LinkedProgram
from ...profiling.edge_profile import EdgeProfile
from .base import BranchArchSim


def conditional_taken_targets(linked: LinkedProgram) -> Dict[int, int]:
    """Map each conditional branch site to its (layout) taken target."""
    sites: Dict[int, int] = {}
    for proc in linked.program:
        for block in proc:
            if block.kind is not TerminatorKind.COND:
                continue
            lb = linked.block(proc.name, block.bid)
            assert lb.term_address is not None
            target_bid = lb.placement.taken_target
            assert target_bid is not None
            sites[lb.term_address] = linked.block_address(proc.name, target_bid)
    return sites


def likely_bits(linked: LinkedProgram, profile: EdgeProfile) -> Dict[int, bool]:
    """Per-site likely bits: predict taken iff the taken side is the
    profile-majority direction *under this layout* (inversions flip it).

    The paper sets likely bits from "the profiles that are used to create
    the branch alignments".
    """
    bits: Dict[int, bool] = {}
    for proc in linked.program:
        for block in proc:
            if block.kind is not TerminatorKind.COND:
                continue
            lb = linked.block(proc.name, block.bid)
            assert lb.term_address is not None
            taken_bid = lb.placement.taken_target
            taken_edge = proc.taken_edge(block.bid)
            fall_edge = proc.fallthrough_edge(block.bid)
            assert taken_edge is not None and fall_edge is not None
            other_bid = (
                fall_edge.dst if taken_bid == taken_edge.dst else taken_edge.dst
            )
            w_taken = profile.weight(proc.name, block.bid, taken_bid)
            w_other = profile.weight(proc.name, block.bid, other_bid)
            bits[lb.term_address] = w_taken > w_other
    return bits


class FallthroughSim(BranchArchSim):
    """Always predicts not-taken; every taken conditional mispredicts."""

    name = "fallthrough"

    def predict_cond(self, site: int) -> bool:
        return False


class BTFNTSim(BranchArchSim):
    """Backward taken, forward not taken.

    The predicted direction of a branch depends on where the layout put
    its taken target, so this simulator is built per linked binary.
    """

    name = "btfnt"

    def __init__(self, linked: Union[LinkedProgram, Mapping[int, int]], ras_depth: int = 32):
        """``linked`` is a :class:`LinkedProgram`, or directly a mapping of
        conditional site address to taken-target address (tests)."""
        super().__init__(ras_depth)
        if isinstance(linked, LinkedProgram):
            self._taken_targets = conditional_taken_targets(linked)
        else:
            self._taken_targets = dict(linked)

    def predict_cond(self, site: int) -> bool:
        return self._taken_targets[site] < site


class LikelySim(BranchArchSim):
    """Profile-driven likely-bit prediction."""

    name = "likely"

    def __init__(self, linked: LinkedProgram, profile: EdgeProfile, ras_depth: int = 32):
        super().__init__(ras_depth)
        self._bits = likely_bits(linked, profile)

    def predict_cond(self, site: int) -> bool:
        return self._bits[site]
