"""Invariant validation at pipeline stage boundaries.

The experiment pipeline moves data through four representations —
CFG → edge profile → layout → linked image — and each hand-off has
invariants that, when silently violated (a truncated profile file, a
buggy aligner, a stale cached trace), produce *wrong numbers* rather than
crashes.  Profile-guided layout tools guard exactly these seams (see
Newell & Pupyrev, "Improved Basic Block Reordering", on stale/
inconsistent profiles producing bad layouts).  This module makes the
checks explicit and cheap:

* **CFG well-formedness** — every procedure revalidates its block/edge
  structure;
* **profile/CFG consistency** — every profiled edge must exist in the
  CFG it claims to describe;
* **flow conservation** — for every block that is neither the procedure
  entry nor a return, profiled in-weight must equal out-weight (each
  execution enters once and leaves once);
* **layout permutation** — an aligned layout must place every block
  exactly once, entry first, preserving control flow;
* **address coverage** — the linked image must assign every placed
  block a contiguous, non-overlapping, instruction-aligned address
  range that exactly tiles the text segment.

Each check returns an :class:`InvariantResult`; :func:`require` turns
failures into :class:`~repro.runner.errors.ValidationError` for the
runner, and ``python -m repro doctor`` renders them as a PASS/FAIL
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cfg import Program, TerminatorKind
from ..cfg.procedure import CFGError
from ..isa.encoder import INSTRUCTION_BYTES, TEXT_BASE, LinkedProgram
from ..isa.layout import LayoutError, ProgramLayout
from ..profiling.edge_profile import EdgeProfile
from .errors import ValidationError, annotate_stage

#: Cap on per-check detail lines so a badly corrupt input stays readable.
MAX_DETAILS = 8


@dataclass
class InvariantResult:
    """Outcome of one invariant check."""

    name: str
    description: str
    passed: bool
    details: List[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _result(name: str, description: str, violations: List[str]) -> InvariantResult:
    shown = violations[:MAX_DETAILS]
    if len(violations) > MAX_DETAILS:
        shown.append(f"... and {len(violations) - MAX_DETAILS} more")
    return InvariantResult(name, description, not violations, shown)


# ----------------------------------------------------------------------
# CFG
# ----------------------------------------------------------------------
def check_cfg(program: Program) -> InvariantResult:
    """Re-run every procedure's structural validation."""
    violations: List[str] = []
    for proc in program:
        try:
            proc.validate()
        except CFGError as exc:
            violations.append(str(exc))
    return _result("cfg", "CFG well-formedness", violations)


# ----------------------------------------------------------------------
# Profile
# ----------------------------------------------------------------------
def check_profile_consistency(
    program: Program, profile: EdgeProfile
) -> InvariantResult:
    """Every profiled procedure and edge must exist in the CFG."""
    violations: List[str] = []
    for proc_name in profile.procedures():
        if proc_name not in program:
            violations.append(f"profiled procedure {proc_name!r} not in program")
            continue
        proc = program.procedure(proc_name)
        known = {(e.src, e.dst) for bid in proc.blocks for e in proc.out_edges(bid)}
        for (src, dst), count in sorted(profile.proc_edges(proc_name).items()):
            if count < 0:
                violations.append(f"{proc_name}: edge {src}->{dst} has negative count")
            if (src, dst) not in known:
                violations.append(f"{proc_name}: profiled edge {src}->{dst} not in CFG")
    return _result(
        "profile-consistency", "profiled edges exist in the CFG", violations
    )


def check_flow_conservation(program: Program, profile: EdgeProfile) -> InvariantResult:
    """Per block, profiled in-weight must equal out-weight.

    Exceptions mirror execution semantics: the entry block additionally
    receives procedure invocations (out >= in), and return blocks only
    absorb flow (no out-edges, so out == 0).
    """
    violations: List[str] = []
    for proc in program:
        edges = profile.proc_edges(proc.name)
        if not edges:
            continue
        in_w: Dict[int, int] = {}
        out_w: Dict[int, int] = {}
        for (src, dst), count in edges.items():
            out_w[src] = out_w.get(src, 0) + count
            in_w[dst] = in_w.get(dst, 0) + count
        for bid in proc.blocks:
            if bid not in proc:
                continue
            inc, out = in_w.get(bid, 0), out_w.get(bid, 0)
            if bid == proc.entry:
                if inc > out:
                    violations.append(
                        f"{proc.name}: entry block {bid} in-weight {inc} "
                        f"exceeds out-weight {out}"
                    )
            elif proc.block(bid).kind is TerminatorKind.RETURN:
                if out:
                    violations.append(
                        f"{proc.name}: return block {bid} has out-weight {out}"
                    )
            elif inc != out:
                violations.append(
                    f"{proc.name}: block {bid} in-weight {inc} != out-weight {out}"
                )
    return _result(
        "flow-conservation", "per-block profile flow conservation", violations
    )


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
def check_layout_permutation(layout: ProgramLayout) -> InvariantResult:
    """An aligned layout places every block exactly once, flow preserved."""
    violations: List[str] = []
    for proc_layout in layout:
        placed = sorted(p.bid for p in proc_layout.placements)
        expected = sorted(proc_layout.procedure.blocks)
        if placed != expected:
            violations.append(
                f"{proc_layout.procedure.name}: layout is not a permutation "
                f"of the procedure's blocks"
            )
            continue
        try:
            proc_layout.check()
        except LayoutError as exc:
            violations.append(str(exc))
    return _result(
        "layout-permutation", "layout is a flow-preserving permutation", violations
    )


# ----------------------------------------------------------------------
# Linked image
# ----------------------------------------------------------------------
def check_address_coverage(linked: LinkedProgram) -> InvariantResult:
    """The address map tiles the text segment exactly, in layout order."""
    violations: List[str] = []
    cursor = TEXT_BASE
    for proc in linked.program:
        proc_layout = linked.layout[proc.name]
        placed = linked.blocks.get(proc.name)
        if placed is None:
            violations.append(f"{proc.name}: procedure missing from address map")
            continue
        if linked.proc_start.get(proc.name) != cursor:
            violations.append(
                f"{proc.name}: procedure starts at "
                f"{linked.proc_start.get(proc.name):#x}, expected {cursor:#x}"
            )
        for placement in proc_layout.placements:
            block = placed.get(placement.bid)
            if block is None:
                violations.append(
                    f"{proc.name}: block {placement.bid} has no address"
                )
                continue
            if block.start % INSTRUCTION_BYTES:
                violations.append(
                    f"{proc.name}: block {placement.bid} start {block.start:#x} "
                    f"not instruction-aligned"
                )
            if block.start != cursor:
                violations.append(
                    f"{proc.name}: block {placement.bid} at {block.start:#x}, "
                    f"expected {cursor:#x} (hole or overlap)"
                )
            expected_size = proc_layout.placed_size(placement.bid)
            if block.size != expected_size:
                violations.append(
                    f"{proc.name}: block {placement.bid} linked size {block.size} "
                    f"!= layout size {expected_size}"
                )
            cursor = block.start + block.size * INSTRUCTION_BYTES
        extra = set(placed) - {p.bid for p in proc_layout.placements}
        if extra:
            violations.append(f"{proc.name}: unplaced blocks in address map: {sorted(extra)}")
    if cursor != linked.text_end:
        violations.append(
            f"text segment ends at {linked.text_end:#x}, address walk "
            f"reached {cursor:#x}"
        )
    return _result(
        "address-coverage", "linked image tiles the text segment", violations
    )


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def require(results: Sequence[InvariantResult], stage: Optional[str] = None) -> None:
    """Raise :class:`ValidationError` if any invariant check failed."""
    failed = [r for r in results if not r.passed]
    if not failed:
        return
    lines = []
    for result in failed:
        lines.append(f"{result.name}: {'; '.join(result.details) or 'failed'}")
    exc = ValidationError("invariant violation — " + " | ".join(lines))
    if stage:
        annotate_stage(exc, stage)
    raise exc


def validate_profile(program: Program, profile: EdgeProfile) -> None:
    """Raise unless ``profile`` consistently describes ``program``."""
    require(
        [
            check_profile_consistency(program, profile),
            check_flow_conservation(program, profile),
        ],
        stage="profile",
    )


def validate_layout(layout: ProgramLayout) -> None:
    """Raise unless ``layout`` is a flow-preserving permutation."""
    require([check_layout_permutation(layout)], stage="align")


def validate_linked(linked: LinkedProgram) -> None:
    """Raise unless the linked image's address map is sound."""
    require([check_address_coverage(linked)], stage="link")


def render_invariant_report(results: Sequence[InvariantResult]) -> str:
    """The ``repro doctor`` PASS/FAIL report."""
    width = max(len(r.name) for r in results) if results else 0
    lines = []
    for result in results:
        lines.append(f"{result.status:<4}  {result.name:<{width}}  {result.description}")
        for detail in result.details:
            lines.append(f"      - {detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} invariants hold"
        + (f" — {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
