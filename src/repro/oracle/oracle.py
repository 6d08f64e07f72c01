"""The differential layout oracle: prove a rewrite is semantics-preserving.

The paper's credibility rests on OM's rewrite changing *where* code
lives, never *what* it does: an aligned binary must execute the same
dynamic instruction stream as the original, only at different addresses.
This module proves that property for every layout the aligners produce,
by replaying each benchmark's trace on the original and the aligned
binary and checking **trace isomorphism**:

* **block-sequence** — both executions visit the identical sequence of
  ``(procedure, block)`` pairs;
* **branch-sense** — every emitted conditional outcome in the aligned
  run equals the original outcome XOR the layout's registered sense
  inversion for that branch;
* **flow-conservation** — the edge traversal counts observed on the
  aligned binary equal the :class:`EdgeProfile` collected on the
  original;
* **address-replay** — the original trace's semantic decisions are
  replayed through the aligned *lowered instruction stream* (branch
  target addresses, fall-through adjacency, inserted jumps), verifying
  each transfer lands at the expected block's address.  This is the
  check that catches rewriter bugs the structural layout checks missed:
  a mutated placement, a wrong-sense branch, a retargeted jump;
* **edit-agreement** — the edits :mod:`repro.isa.diff` *reports*
  (inversions, inserted jumps, deleted branches) match the edits
  actually observed in the lowered code, and blocks it does not report
  are lowered identically.

The checks run once per step template of the program's
:class:`~repro.sim.decisions.DecisionTrace`, not once per dynamic event.
A capture is the concatenation, over the layout-invariant step stream,
of per-template pieces (entered block, conditional outcome, edge), so
when every executed template's aligned piece agrees with its baseline
piece the captures agree element for element; flow counts are sums of
the trace's template counts, and a transfer's lowered destination is a
function of its edge alone.  Only a failing layout (or a ``max_events``
cut) pays for one walk over the step stream, which recovers each
divergence's trace index.

Divergences carry the first diverging trace index plus the expected and
actual block, so a failure reads like a debugger backtrace, not a flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cfg import BlockId, Program, TerminatorKind
from ..core.registry import TRY_MODEL_ARCHS, aligner_names, get_spec
from ..isa.diff import diff_layouts
from ..isa.encoder import LinkedProgram, link, link_identity
from ..isa.instructions import Opcode
from ..isa.layout import ProgramLayout
from ..profiling.edge_profile import EdgeProfile
from ..sim.decisions import T_BRANCH, DecisionTrace, capture_decisions
from ..sim.replay import compile_steps
from ..sim.trace import COND
from .capture import BlockRef, site_blocks

#: Cap on divergences recorded per check — the first one is the story,
#: the rest confirm it is systematic.
MAX_DIVERGENCES = 5


@dataclass
class Divergence:
    """One observed difference between original and aligned behaviour."""

    check: str
    #: Index into the dynamic trace (block sequence or edge trail), or
    #: ``None`` for static (edit-agreement / flow) findings.
    index: Optional[int]
    expected: str
    actual: str
    detail: str = ""

    def __str__(self) -> str:
        where = f"trace index {self.index}" if self.index is not None else "static"
        text = (
            f"[{self.check}] {where}: expected {self.expected}, "
            f"actual {self.actual}"
        )
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class OracleReport:
    """The verdict for one aligned layout of one program."""

    label: str
    blocks_compared: int
    edges_replayed: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _fmt_block(ref: BlockRef) -> str:
    return f"{ref[0]}:{ref[1]}"


# ----------------------------------------------------------------------
# Lowered-code view: terminator / jump targets read from the disassembly
# ----------------------------------------------------------------------
class _LoweredView:
    """Branch targets of a linked image, read from its instruction stream."""

    def __init__(self, linked: LinkedProgram):
        self.linked = linked
        #: (proc, bid) -> terminator branch target address (COND/UNCOND).
        self.term_target: Dict[BlockRef, int] = {}
        #: (proc, bid) -> appended-jump target address.
        self.jump_target: Dict[BlockRef, int] = {}
        self.start_of: Dict[BlockRef, int] = {}
        self.block_at: Dict[int, BlockRef] = {}
        #: Every block starting at an address.  A block lowered to zero
        #: bytes (a one-instruction unconditional whose branch was
        #: removed) shares its start with the block it falls into, so an
        #: address can name several blocks — branching to it reaches all
        #: of them.
        self.blocks_at: Dict[int, List[BlockRef]] = {}
        for proc_name, placed in linked.blocks.items():
            for bid, lb in placed.items():
                ref = (proc_name, bid)
                self.start_of[ref] = lb.start
                self.block_at[lb.start] = ref
                self.blocks_at.setdefault(lb.start, []).append(ref)
        for proc_name in linked.program.order:
            branch_at = {
                instr.address: instr
                for instr in linked.disassemble(proc_name)
                if instr.opcode in (
                    Opcode.COND_BRANCH, Opcode.UNCOND_BRANCH,
                    Opcode.INDIRECT_JUMP, Opcode.RETURN,
                )
            }
            for bid, lb in linked.blocks[proc_name].items():
                ref = (proc_name, bid)
                term = branch_at.get(lb.term_address)
                if term is not None and term.target is not None:
                    self.term_target[ref] = term.target
                jump = branch_at.get(lb.jump_address)
                if jump is not None and lb.jump_address is not None:
                    self.jump_target[ref] = jump.target

    def resolve(self, address: int) -> str:
        """Best-effort name of whatever lives at ``address``."""
        ref = self.block_at.get(address)
        return _fmt_block(ref) if ref is not None else f"{address:#x}"


# ----------------------------------------------------------------------
# Per-template pieces of a capture
# ----------------------------------------------------------------------
class _Image:
    """One linked image's semantic capture, as per-template pieces.

    Replaying a decision trace through an image emits, per step, the
    piece its template compiles to.  The block a step enters and whether
    it emits a conditional outcome (a conditional block's one branch)
    depend on the template alone; the image decides the outcome
    ``(block, taken)`` — read back through its site->block map, as
    :func:`~repro.oracle.capture.capture_trace` does — and how many
    events the step emits, which is where a ``max_events`` cut falls.
    """

    __slots__ = ("cond", "events", "total_events")

    def __init__(self, linked: LinkedProgram, trace: DecisionTrace):
        site_to_block = site_blocks(linked)
        self.cond: List[Optional[Tuple[BlockRef, bool]]] = []
        self.events: List[int] = []
        for step in compile_steps(linked, trace):
            outcome = None
            for kind, site, _target, taken in step.events:
                if kind == COND:
                    outcome = (site_to_block[site], taken)
            self.cond.append(outcome)
            self.events.append(len(step.events))
        self.total_events = sum(n * c for n, c in zip(self.events, trace.counts))


def _sense(
    expected: Tuple[BlockRef, bool], actual: Tuple[BlockRef, bool], inverted: set
) -> Optional[Tuple[str, str, str]]:
    """``(expected, actual, detail)`` if one aligned outcome is wrong."""
    (ref0, taken0), (ref1, taken1) = expected, actual
    if ref0 != ref1:
        return _fmt_block(ref0), _fmt_block(ref1), "conditional executed out of order"
    want = taken0 != (ref0 in inverted)
    if taken1 != want:
        return (
            f"{_fmt_block(ref0)} taken={want}",
            f"{_fmt_block(ref1)} taken={taken1}",
            "outcome disagrees with registered sense inversion",
        )
    return None


def _flow_divergences(
    expected: Dict[Tuple[str, BlockId, BlockId], int],
    observed: Dict[Tuple[str, BlockId, BlockId], int],
) -> List[Divergence]:
    out: List[Divergence] = []
    for key in sorted(set(expected) | set(observed)):
        want, got = expected.get(key, 0), observed.get(key, 0)
        if want != got:
            proc, src, dst = key
            out.append(Divergence(
                "flow-conservation", None,
                f"{proc}:{src}->{dst} x{want}",
                f"{proc}:{src}->{dst} x{got}",
                "aligned edge counts disagree with the consumed profile",
            ))
            if len(out) >= MAX_DIVERGENCES:
                break
    return out


def _observed_edits(program: Program, lowered: _LoweredView):
    """Edits visible in a lowered image, per procedure.

    Returns ``(cond_target, jumps, missing_terminator)`` where
    ``cond_target[(proc, bid)]`` is the address a conditional's lowered
    branch targets, ``jumps[(proc, bid)]`` the address an appended jump
    targets, and ``missing_terminator`` the unconditional blocks lowered
    without their branch instruction.  Targets stay raw addresses —
    several blocks can share one start address when a block lowers to
    zero bytes, so resolution to a single block would be ambiguous.
    """
    cond_target: Dict[BlockRef, int] = {}
    jumps: Dict[BlockRef, int] = {}
    missing: set = set()
    for proc in program:
        for bid in proc.blocks:
            ref = (proc.name, bid)
            kind = proc.block(bid).kind
            if ref in lowered.jump_target:
                jumps[ref] = lowered.jump_target[ref]
            if kind is TerminatorKind.COND:
                target = lowered.term_target.get(ref)
                if target is not None:
                    cond_target[ref] = target
            elif kind is TerminatorKind.UNCOND and ref not in lowered.term_target:
                missing.add(ref)
    return cond_target, jumps, missing


def _same_destination(
    al_view: _LoweredView,
    al_addr: Optional[int],
    id_view: _LoweredView,
    id_addr: Optional[int],
) -> bool:
    """Do two branch-target addresses name the same block?

    Each address is interpreted in its own image.  An address names
    every block starting there — zero-size blocks overlap the block
    they fall into, and a branch to the shared address reaches both —
    so the targets agree when the block sets intersect.
    """
    if al_addr is None or id_addr is None:
        return al_addr == id_addr
    a = al_view.blocks_at.get(al_addr, [])
    b = id_view.blocks_at.get(id_addr, [])
    return bool(set(a) & set(b))


def _check_edit_agreement(
    base: "_Baseline", layout: ProgramLayout, lowered: _LoweredView
) -> List[Divergence]:
    """``isa.diff``'s reported edits must match the lowered code."""
    program, identity, id_view, id_cond = (
        base.program, base.identity, base.view, base.id_cond
    )
    diffs = {d.name: d for d in diff_layouts(identity, layout)}
    al_cond, al_jumps, al_missing = _observed_edits(program, lowered)

    out: List[Divergence] = []

    def report(expected: str, actual: str, detail: str) -> bool:
        out.append(Divergence("edit-agreement", None, expected, actual, detail))
        return len(out) >= MAX_DIVERGENCES

    for proc in program:
        diff = diffs[proc.name]
        reported_inverted = {(proc.name, bid) for bid in diff.inverted}
        observed_inverted = {
            ref for ref, target in al_cond.items()
            if ref[0] == proc.name
            and not _same_destination(lowered, target, id_view, id_cond.get(ref))
        }
        for ref in sorted(reported_inverted ^ observed_inverted):
            where = "reported" if ref in reported_inverted else "observed"
            if report(
                f"{_fmt_block(ref)} inverted in report and code",
                f"inversion only {where}",
                "diff report and lowered branch sense disagree",
            ):
                return out

        reported_jumps = {
            (proc.name, bid): (proc.name, target)
            for bid, target in id_jumps_of(diff, identity[proc.name]).items()
        }
        observed_jumps = {
            ref: target for ref, target in al_jumps.items() if ref[0] == proc.name
        }
        for ref in sorted(set(reported_jumps) | set(observed_jumps)):
            want, got = reported_jumps.get(ref), observed_jumps.get(ref)
            agrees = (
                want is None and got is None
            ) or (
                want is not None and got is not None
                and want in lowered.blocks_at.get(got, [])
            )
            if not agrees:
                if report(
                    f"jump {_fmt_block(ref)} -> "
                    + (_fmt_block(want) if want else "absent"),
                    f"jump -> "
                    + (lowered.resolve(got) if got is not None else "absent"),
                    "reported jump edits disagree with lowered jumps",
                ):
                    return out

        reported_missing = (
            {(proc.name, bid) for bid in identity[proc.name].removed_branches()}
            - {(proc.name, bid) for bid in diff.branches_restored}
        ) | {(proc.name, bid) for bid in diff.branches_removed}
        observed_missing = {ref for ref in al_missing if ref[0] == proc.name}
        for ref in sorted(reported_missing ^ observed_missing):
            where = "reported" if ref in reported_missing else "observed"
            if report(
                f"{_fmt_block(ref)} branch deleted in report and code",
                f"deletion only {where}",
                "reported branch deletions disagree with lowered code",
            ):
                return out
    return out


def id_jumps_of(diff, identity_layout) -> Dict[BlockId, BlockId]:
    """The jump set the diff report claims the aligned layout has."""
    jumps = dict(identity_layout.inserted_jumps())
    for bid, _target in diff.jumps_removed:
        jumps.pop(bid, None)
    for bid, target in diff.jumps_added:
        jumps[bid] = target
    return jumps


# ----------------------------------------------------------------------
# The judge
# ----------------------------------------------------------------------
class _Baseline:
    """The original image and everything its layouts are judged against.

    Built once per :func:`verify_alignments` call, so the identity image,
    its lowered view and observed edits, the block kinds, the expected
    flow and the full-run totals are shared by every layout.
    """

    def __init__(
        self,
        program: Program,
        profile: EdgeProfile,
        trace: DecisionTrace,
        max_events: Optional[int],
    ):
        self.program = program
        self.trace = trace
        self.max_events = max_events
        linked = link_identity(program)
        self.identity = linked.layout
        self.image = _Image(linked, trace)
        self.view = _LoweredView(linked)
        self.id_cond = _observed_edits(program, self.view)[0]
        self.kinds = {
            (proc.name, bid): proc.block(bid).kind
            for proc in program
            for bid in proc.blocks
        }
        #: Template id -> the ``(proc, src, dst)`` edge it traverses.
        self.edges: List[Optional[Tuple[str, BlockId, BlockId]]] = [
            (t[1], t[2], t[3]) if t[0] == T_BRANCH else None
            for t in trace.templates
        ]
        #: Template id -> whether its steps enter a block.
        self.enters = [
            trace.entered_block(t, program) is not None for t in trace.templates
        ]
        self.executed = [tid for tid, count in enumerate(trace.counts) if count]
        self.expected_flow: Dict[Tuple[str, BlockId, BlockId], int] = {}
        for name in profile.procedures():
            for (src, dst), count in profile.proc_edges(name).items():
                if count:
                    self.expected_flow[(name, src, dst)] = count
        # Totals of a run no ``max_events`` cut shortens.
        flow_counts = {
            edge: trace.counts[tid]
            for tid, edge in enumerate(self.edges)
            if edge is not None and trace.counts[tid]
        }
        self.blocks = sum(trace.visit_counts(program).values())
        self.trail = sum(flow_counts.values())
        self.flow = _flow_divergences(self.expected_flow, flow_counts)

    def _cut(self, image: _Image) -> bool:
        """Does ``max_events`` end the image's replay before the trace does?"""
        return self.max_events is not None and image.total_events >= self.max_events

    def _transfer(
        self, edge: Tuple[str, BlockId, BlockId], lowered: _LoweredView
    ) -> Optional[Tuple[str, str, str]]:
        """Replay one transition ``src -> dst`` through the aligned code.

        Derive from the aligned *instruction stream* (not the layout data
        structure) the address control actually transfers to, and return
        ``(expected, actual, detail)`` unless it is ``dst``'s address.
        """
        proc_name, src, dst = edge
        ref = (proc_name, src)
        kind = self.kinds[ref]
        if kind in (TerminatorKind.INDIRECT, TerminatorKind.RETURN):
            return None  # targets are runtime values, not lowered addresses
        lb = lowered.linked.block(proc_name, src)
        dst_addr = lowered.start_of[(proc_name, dst)]
        if kind is TerminatorKind.COND:
            if lowered.term_target.get(ref) == dst_addr:
                return None  # taken path lands correctly
            reached = lowered.jump_target.get(ref, lb.end)
        elif kind is TerminatorKind.UNCOND:
            if ref in lowered.term_target:
                reached = lowered.term_target[ref]
            else:  # branch deleted by alignment: must fall through
                reached = lowered.jump_target.get(ref, lb.end)
        else:  # FALLTHROUGH
            reached = lowered.jump_target.get(ref, lb.end)
        if reached == dst_addr:
            return None
        return (
            _fmt_block((proc_name, dst)),
            lowered.resolve(reached),
            f"lowered code for block {_fmt_block(ref)} transfers to "
            f"{reached:#x}, {_fmt_block((proc_name, dst))} lives at "
            f"{dst_addr:#x}",
        )

    def judge(self, layout: ProgramLayout, label: str) -> OracleReport:
        """Differentially verify one aligned layout, template by template."""
        linked = link(layout)
        image = _Image(linked, self.trace)
        lowered = _LoweredView(linked)
        inverted = {
            (name, bid)
            for name in layout.program.order
            for bid in layout[name].inverted_conditionals()
        }
        bad_edges: Dict[int, Tuple[str, str, str]] = {}
        for tid in self.executed:
            edge = self.edges[tid]
            found = self._transfer(edge, lowered) if edge is not None else None
            if found is not None:
                bad_edges[tid] = found
        base = self.image
        clean = (
            not bad_edges
            and not (self._cut(base) or self._cut(image))
            and not any(
                _sense(base.cond[tid], image.cond[tid], inverted)
                for tid in self.executed
                if base.cond[tid] is not None
            )
        )
        if clean:
            # Every executed template's pieces agree and no cut shortens
            # either run, so the captures agree element for element.
            dynamic: List[Divergence] = list(self.flow)
            blocks_compared, edges_replayed = self.blocks, self.trail
        else:
            dynamic, blocks_compared, edges_replayed = self._walk(
                image, inverted, bad_edges
            )
        return OracleReport(
            label=label,
            blocks_compared=blocks_compared,
            edges_replayed=edges_replayed,
            divergences=dynamic + _check_edit_agreement(self, layout, lowered),
        )

    def _walk(
        self,
        image: _Image,
        inverted: set,
        bad_edges: Dict[int, Tuple[str, str, str]],
    ) -> Tuple[List[Divergence], int, int]:
        """Rebuild both captures step by step to index every divergence.

        Side 0 is the baseline, side 1 the aligned image.  While both
        runs are live they emit the same step, so their conditional
        outcomes pair by position exactly as a zip of the full captures
        would; after a ``max_events`` cut the other side only counts.
        Entered blocks are the templates', so block sequences can only
        differ in length.
        """
        sides = (self.image, image)
        limit = self.max_events
        aligned_flow: Dict[Tuple[str, BlockId, BlockId], int] = {}
        senses: List[Divergence] = []
        replays: List[Divergence] = []
        n_blocks = [1, 1]  # both captures open with the entry block
        n_conds = [0, 0]
        events = [0, 0]
        live = [True, True]
        trail = 0
        for tid in self.trace.iter_steps():
            outcome = sides[0].cond[tid]
            if live[0] and live[1] and outcome is not None:
                found = _sense(outcome, image.cond[tid], inverted)
                if found is not None and len(senses) < MAX_DIVERGENCES:
                    senses.append(Divergence("branch-sense", n_conds[0], *found))
            edge = self.edges[tid]
            for side, piece in enumerate(sides):
                if not live[side]:
                    continue
                if edge is not None:
                    if side == 0:
                        found = bad_edges.get(tid)
                        if found is not None and len(replays) < MAX_DIVERGENCES:
                            replays.append(Divergence("address-replay", trail, *found))
                        trail += 1
                    else:
                        aligned_flow[edge] = aligned_flow.get(edge, 0) + 1
                if outcome is not None:
                    n_conds[side] += 1
                events[side] += piece.events[tid]
                if limit is not None and events[side] >= limit:
                    live[side] = False
                elif self.enters[tid]:
                    n_blocks[side] += 1
            if not (live[0] or live[1]):
                break
        blocks: List[Divergence] = []
        if n_blocks[0] != n_blocks[1]:
            blocks.append(Divergence(
                "block-sequence", min(n_blocks),
                f"{n_blocks[0]} blocks", f"{n_blocks[1]} blocks",
                "trace lengths differ",
            ))
        # A capped check stops before its length comparison, as a
        # sequential scan that returns at the cap would.
        if len(senses) < MAX_DIVERGENCES and n_conds[0] != n_conds[1]:
            senses.append(Divergence(
                "branch-sense", None,
                f"{n_conds[0]} conditional executions",
                f"{n_conds[1]} conditional executions",
            ))
        flow = _flow_divergences(self.expected_flow, aligned_flow)
        return blocks + senses + flow + replays, n_blocks[0], trail


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def verify_layout(
    program: Program,
    profile: EdgeProfile,
    layout: ProgramLayout,
    seed: int = 0,
    label: str = "aligned",
    max_events: Optional[int] = None,
    decisions: Optional[DecisionTrace] = None,
) -> OracleReport:
    """Differentially verify one aligned layout against the original.

    ``profile`` must be the edge profile the simulators consume
    (collected on the original binary with ``seed``).  ``decisions``
    reuses an already captured
    :class:`~repro.sim.decisions.DecisionTrace`; without one, the
    program's decisions are captured once here.
    """
    return verify_alignments(
        program, profile, {label: layout},
        seed=seed, max_events=max_events, decisions=decisions,
    )[0]


def alignment_layouts(
    program: Program,
    profile: EdgeProfile,
    window: int = 15,
    models: Sequence[str] = ("fallthrough", "btfnt", "likely", "pht", "btb"),
    include_greedy: bool = True,
    include_greedy_btfnt: bool = True,
    min_weight: int = 2,
    algorithms: Optional[Sequence[str]] = None,
) -> Dict[str, ProgramLayout]:
    """The labelled layouts a Tables-3/4 style run produces.

    Every non-identity algorithm in the aligner registry contributes its
    variants' layouts, keyed by variant label ("greedy", "greedy-btfnt",
    "try15-pht", "exttsp", ...), so new registrations flow through the
    differential oracle and the bisimulation prover without changes
    here.  ``algorithms`` restricts the set (None = whole registry); the
    legacy ``models``/``include_greedy``/``include_greedy_btfnt`` knobs
    shape the architecture mask handed to the planner, preserving the
    historical label set for existing callers.
    """
    full_mask = tuple(a for served in TRY_MODEL_ARCHS.values() for a in served)
    greedy_mask = tuple(
        a
        for a in full_mask
        if (include_greedy_btfnt if a == "btfnt" else include_greedy)
    )
    try_mask = tuple(a for m in models for a in TRY_MODEL_ARCHS[m])

    layouts: Dict[str, ProgramLayout] = {}
    names = tuple(algorithms) if algorithms is not None else aligner_names()
    for name in names:
        spec = get_spec(name)
        if spec.identity:
            continue  # the original layout is the oracle's baseline
        if spec.cost_models:
            mask = try_mask
        elif name == "greedy":
            mask = greedy_mask
        else:
            mask = full_mask
        plan = spec.plan(mask, window=window, min_weight=min_weight)
        for variant in plan.variants:
            layouts[variant.label] = variant.aligner.align(program, profile)
    return layouts


def verify_alignments(
    program: Program,
    profile: EdgeProfile,
    layouts: Dict[str, ProgramLayout],
    seed: int = 0,
    max_events: Optional[int] = None,
    decisions: Optional[DecisionTrace] = None,
) -> List[OracleReport]:
    """Verify several labelled layouts against one shared baseline.

    The program executes at most once: its decision trace is captured
    (unless ``decisions`` hands one in) and every layout is judged on
    the trace's step templates — N layouts cost one execution, and
    baseline/aligned comparability is by construction.
    """
    if decisions is None:
        decisions = capture_decisions(program, seed=seed)
    baseline = _Baseline(program, profile, decisions, max_events)
    return [baseline.judge(layout, label) for label, layout in layouts.items()]
