"""Static branch-cost estimation from the edge profile alone.

Everything the trace-driven simulator measures is, for this executor, a
deterministic function of the CFG, the layout and the edge profile:
behaviours replay the same block sequence at the same seed, so profiled
edge counts *are* execution counts.  This module exploits that to bound
per-architecture misfetch/mispredict totals — and hence relative CPI —
without replaying a single event.

Exact quantities (derivable from flow counts and the layout):

* executed instructions: each block execution charges its *placed* size
  (the executor charges an appended jump on both paths of a conditional);
* every event count (conditional, unconditional, indirect, call, return);
* static-architecture conditional penalties: FALLTHROUGH, BT/FNT and
  LIKELY predict a fixed per-site direction, so their penalty is a
  per-site weight split.

Modelled quantities (documented approximations):

* PHT conditionals use the stationary 2-bit-counter model
  (:func:`repro.profiling.condmix.stationary_two_bit_rates`) per site —
  exact for independent outcomes, slightly pessimistic for loop exits,
  optimistic for alternating patterns the gshare history can learn;
  table aliasing is ignored, so both PHTs share one estimate.
* BTB direction counters use the same stationary model with BTB penalty
  rules (a correct prediction costs nothing); capacity misses and cold
  misses are ignored, and indirect-jump staleness is modelled as the
  collision probability ``1 - sum(q_i^2)`` of the profiled target
  distribution.  Indirect calls are upper-bounded at one mispredict per
  execution (their callee distribution is not edge-profiled).
* returns through the 32-entry RAS are assumed perfectly predicted,
  except the program's final return which pops an empty stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cfg import Procedure, TerminatorKind
from ..isa.encoder import LinkedProgram
from ..profiling.condmix import stationary_two_bit_rates
from ..profiling.edge_profile import EdgeProfile
from ..sim.metrics import ALL_ARCHS, SimulationReport
from ..sim.predictors.base import MISFETCH_CYCLES, MISPREDICT_CYCLES


@dataclass(frozen=True)
class BranchSiteEstimate:
    """Static view of one conditional branch site under one layout."""

    procedure: str
    block: int
    address: int
    #: Executions taking the *placed* branch (toward ``taken_target``).
    w_taken: int
    #: Executions falling through (toward the other successor).
    w_fall: int
    #: Whether the placed taken target lies at a lower address (BT/FNT).
    taken_backward: bool

    @property
    def weight(self) -> int:
        return self.w_taken + self.w_fall

    @property
    def p_taken(self) -> float:
        """Probability the branch is taken as placed (0 if never run)."""
        return self.w_taken / self.weight if self.weight else 0.0


@dataclass
class ArchEstimate:
    """Estimated penalty totals for one branch architecture."""

    name: str
    misfetches: float = 0.0
    mispredicts: float = 0.0

    @property
    def bep(self) -> float:
        return (
            self.misfetches * MISFETCH_CYCLES
            + self.mispredicts * MISPREDICT_CYCLES
        )


@dataclass
class CostEstimate:
    """Full static cost estimate of one linked binary under a profile."""

    instructions: int
    sites: List[BranchSiteEstimate] = field(default_factory=list)
    arch: Dict[str, ArchEstimate] = field(default_factory=dict)

    def relative_cpi(self, arch_name: str, original_instructions: int) -> float:
        """(estimated instructions + estimated BEP) / original instructions."""
        if original_instructions <= 0:
            raise ValueError("original instruction count must be positive")
        return (self.instructions + self.arch[arch_name].bep) / original_instructions


def _cond_layout_mix(
    proc: Procedure, profile: EdgeProfile, bid: int, taken_target: int
) -> Tuple[int, int]:
    """(taken, fall) weights of a conditional *as placed*.

    An inverted conditional swaps the original roles: the placed taken
    weight is whatever flows toward ``placement.taken_target``.
    """
    taken_edge = proc.taken_edge(bid)
    fall_edge = proc.fallthrough_edge(bid)
    assert taken_edge is not None and fall_edge is not None
    other = fall_edge.dst if taken_target == taken_edge.dst else taken_edge.dst
    return (
        profile.weight(proc.name, bid, taken_target),
        profile.weight(proc.name, bid, other),
    )


def estimate_costs(linked: LinkedProgram, profile: EdgeProfile) -> CostEstimate:
    """Estimate instruction and penalty totals for every architecture."""
    program = linked.program

    instructions = 0
    uncond_events = 0          # executed unconditional branches (kept + appended)
    call_events = 0            # direct calls
    icall_events = 0           # indirect calls
    indirect_mispredict_btb = 0.0
    indirect_events = 0
    sites: List[BranchSiteEstimate] = []

    for proc in program:
        layout = linked.layout[proc.name]
        for placement in layout.placements:
            block = proc.block(placement.bid)
            executions = profile.block_weight(proc, placement.bid)
            instructions += executions * layout.placed_size(placement.bid)
            if block.calls and executions:
                direct = sum(1 for c in block.calls if not c.is_indirect)
                call_events += executions * direct
                icall_events += executions * (len(block.calls) - direct)

            kind = block.kind
            if kind is TerminatorKind.COND:
                assert placement.taken_target is not None
                w_taken, w_fall = _cond_layout_mix(
                    proc, profile, placement.bid, placement.taken_target
                )
                lb = linked.block(proc.name, placement.bid)
                assert lb.term_address is not None
                target_addr = linked.block_address(
                    proc.name, placement.taken_target
                )
                sites.append(BranchSiteEstimate(
                    procedure=proc.name,
                    block=placement.bid,
                    address=lb.term_address,
                    w_taken=w_taken,
                    w_fall=w_fall,
                    taken_backward=target_addr < lb.term_address,
                ))
                if placement.jump_target is not None:
                    # The appended jump executes on the not-taken path.
                    uncond_events += w_fall
            elif kind is TerminatorKind.UNCOND:
                if not placement.branch_removed:
                    uncond_events += executions
            elif kind is TerminatorKind.FALLTHROUGH:
                if placement.jump_target is not None:
                    uncond_events += executions
            elif kind is TerminatorKind.INDIRECT:
                weights = [
                    profile.weight(proc.name, placement.bid, e.dst)
                    for e in proc.out_edges(placement.bid)
                ]
                total = sum(weights)
                indirect_events += total
                if total:
                    # Independent draws from the profiled target mix: the
                    # BTB entry is stale whenever the target changes.
                    collision = sum((w / total) ** 2 for w in weights)
                    indirect_mispredict_btb += total * (1.0 - collision)

    # Returns: one per call, plus the program's final return, which pops
    # an empty return stack and therefore always mispredicts.
    ret_mispredicts = 1.0

    estimate = CostEstimate(instructions=instructions, sites=sites)

    # Penalties shared by the static and PHT architectures: every
    # unconditional/call misfetches, every indirect/icall mispredicts.
    static_misfetch = float(uncond_events + call_events)
    static_indirect = float(indirect_events + icall_events)

    def static_arch(name: str, predict_taken) -> ArchEstimate:
        est = ArchEstimate(name)
        est.misfetches = static_misfetch
        est.mispredicts = static_indirect + ret_mispredicts
        for site in sites:
            if predict_taken(site):
                est.misfetches += site.w_taken      # correct taken: misfetch
                est.mispredicts += site.w_fall
            else:
                est.mispredicts += site.w_taken
        return est

    estimate.arch["fallthrough"] = static_arch("fallthrough", lambda s: False)
    estimate.arch["btfnt"] = static_arch("btfnt", lambda s: s.taken_backward)
    estimate.arch["likely"] = static_arch("likely", lambda s: s.w_taken > s.w_fall)

    pht = ArchEstimate("pht")
    pht.misfetches = static_misfetch
    pht.mispredicts = static_indirect + ret_mispredicts
    btb = ArchEstimate("btb")
    btb.mispredicts = indirect_mispredict_btb + float(icall_events) + ret_mispredicts
    for site in sites:
        if not site.weight:
            continue
        p_predict_taken, mispredict_rate = stationary_two_bit_rates(site.p_taken)
        pht.mispredicts += site.weight * mispredict_rate
        pht.misfetches += site.w_taken * p_predict_taken  # correct & taken
        btb.mispredicts += site.weight * mispredict_rate
    for name in ("pht-direct", "pht-correlation"):
        estimate.arch[name] = ArchEstimate(name, pht.misfetches, pht.mispredicts)
    for name in ("btb-64x2", "btb-256x4"):
        estimate.arch[name] = ArchEstimate(name, btb.misfetches, btb.mispredicts)
    return estimate


@dataclass(frozen=True)
class ArchAgreement:
    """Estimator-vs-simulator agreement for one architecture."""

    name: str
    estimated_cpi: float
    simulated_cpi: float

    @property
    def relative_error(self) -> float:
        """|estimate - simulation| as a fraction of the simulated CPI."""
        if self.simulated_cpi == 0:
            return 0.0 if self.estimated_cpi == 0 else float("inf")
        return abs(self.estimated_cpi - self.simulated_cpi) / self.simulated_cpi


def cross_validate(
    estimate: CostEstimate,
    report: SimulationReport,
    original_instructions: Optional[int] = None,
    archs: Tuple[str, ...] = ALL_ARCHS,
) -> List[ArchAgreement]:
    """Compare estimated vs simulated relative CPI per architecture.

    With ``original_instructions`` omitted, both sides normalise by the
    simulated instruction count of the run itself (pure-BEP comparison of
    one layout); pass the original binary's count to compare the paper's
    relative-CPI numbers.

    The comparison is sharpest when ``report`` replays the same decision
    trace that produced the estimator's profile (``simulate(...,
    trace=trace)`` with ``profile = trace.edge_profile(program)``): both
    sides then describe
    the identical dynamic run and any residual error is attributable to
    the estimator's aggregation, not to behavioural divergence between
    two executions.
    """
    base = original_instructions or report.instructions
    return [
        ArchAgreement(
            name=name,
            estimated_cpi=estimate.relative_cpi(name, base),
            simulated_cpi=report.relative_cpi(name, base),
        )
        for name in archs
    ]
