"""Differential property: the template-level oracle equals a per-event one.

:mod:`repro.oracle.oracle` judges each layout once per step template of
the decision trace and walks the step stream only to index failures.
The reference below is the per-event oracle it replaced, kept here as
ground truth: it *executes* the original and the aligned image with
:func:`~repro.oracle.capture_trace` (no decision trace) and compares the
two captures element by element.  Both must produce the identical
:class:`~repro.oracle.OracleReport` — label, counts and every field of
every :class:`~repro.oracle.Divergence` — on clean layouts, on layouts
carrying the runner's injected rewriter faults, under a wrong profile
and under a ``max_events`` cut.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cfg import TerminatorKind
from repro.core.registry import aligner_names, get_spec
from repro.isa.diff import diff_layouts
from repro.isa.encoder import link, link_identity
from repro.isa.layout import ProgramLayout
from repro.oracle import (
    MAX_DIVERGENCES,
    Divergence,
    OracleReport,
    capture_trace,
    verify_alignments,
)
from repro.oracle.oracle import (
    _LoweredView,
    _fmt_block,
    _observed_edits,
    _same_destination,
    id_jumps_of,
)
from repro.profiling import profile_program
from repro.runner.faults import _flip_sense, _retarget_transfer
from repro.sim.metrics import ALL_ARCHS
from repro.workloads import generate_benchmark

from .strategies import programs

MUTATIONS = ("clean", "flip-sense", "retarget", "wrong-profile")


# ----------------------------------------------------------------------
# The per-event reference oracle
# ----------------------------------------------------------------------
def _ref_block_sequence(baseline, aligned):
    out = []
    for index, (expected, actual) in enumerate(zip(baseline.blocks, aligned.blocks)):
        if expected != actual:
            out.append(Divergence(
                "block-sequence", index, _fmt_block(expected), _fmt_block(actual),
            ))
            if len(out) >= MAX_DIVERGENCES:
                return out
    if len(baseline.blocks) != len(aligned.blocks):
        out.append(Divergence(
            "block-sequence",
            min(len(baseline.blocks), len(aligned.blocks)),
            f"{len(baseline.blocks)} blocks",
            f"{len(aligned.blocks)} blocks",
            "trace lengths differ",
        ))
    return out


def _ref_branch_sense(baseline, aligned, layout):
    inverted = {
        (name, bid)
        for name in layout.program.order
        for bid in layout[name].inverted_conditionals()
    }
    out = []
    for index, ((ref0, taken0), (ref1, taken1)) in enumerate(
        zip(baseline.cond_outcomes, aligned.cond_outcomes)
    ):
        if ref0 != ref1:
            out.append(Divergence(
                "branch-sense", index, _fmt_block(ref0), _fmt_block(ref1),
                "conditional executed out of order",
            ))
        else:
            expected = taken0 != (ref0 in inverted)
            if taken1 != expected:
                out.append(Divergence(
                    "branch-sense", index,
                    f"{_fmt_block(ref0)} taken={expected}",
                    f"{_fmt_block(ref1)} taken={taken1}",
                    "outcome disagrees with registered sense inversion",
                ))
        if len(out) >= MAX_DIVERGENCES:
            return out
    if len(baseline.cond_outcomes) != len(aligned.cond_outcomes):
        out.append(Divergence(
            "branch-sense", None,
            f"{len(baseline.cond_outcomes)} conditional executions",
            f"{len(aligned.cond_outcomes)} conditional executions",
        ))
    return out


def _ref_flow_conservation(profile, aligned):
    expected = {}
    for name in profile.procedures():
        for (src, dst), count in profile.proc_edges(name).items():
            if count:
                expected[(name, src, dst)] = count
    out = []
    for key in sorted(set(expected) | set(aligned.edge_counts)):
        want, got = expected.get(key, 0), aligned.edge_counts.get(key, 0)
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


def _ref_address_replay(program, baseline, lowered):
    out = []
    kinds = {
        (proc.name, bid): proc.block(bid).kind
        for proc in program
        for bid in proc.blocks
    }
    linked = lowered.linked
    for index, (proc_name, src, dst) in enumerate(baseline.edge_trail):
        ref = (proc_name, src)
        kind = kinds[ref]
        if kind in (TerminatorKind.INDIRECT, TerminatorKind.RETURN):
            continue
        lb = linked.block(proc_name, src)
        dst_addr = lowered.start_of[(proc_name, dst)]
        if kind is TerminatorKind.COND:
            if lowered.term_target.get(ref) == dst_addr:
                continue
            reached = lowered.jump_target.get(ref, lb.end)
        elif kind is TerminatorKind.UNCOND:
            if ref in lowered.term_target:
                reached = lowered.term_target[ref]
            else:
                reached = lowered.jump_target.get(ref, lb.end)
        else:
            reached = lowered.jump_target.get(ref, lb.end)
        if reached != dst_addr:
            out.append(Divergence(
                "address-replay", index,
                _fmt_block((proc_name, dst)),
                lowered.resolve(reached),
                f"lowered code for block {_fmt_block(ref)} transfers to "
                f"{reached:#x}, {_fmt_block((proc_name, dst))} lives at "
                f"{dst_addr:#x}",
            ))
            if len(out) >= MAX_DIVERGENCES:
                break
    return out


def _ref_edit_agreement(program, layout, lowered):
    """Edit agreement with the identity image rebuilt for every layout."""
    identity = ProgramLayout.identity(program)
    diffs = {d.name: d for d in diff_layouts(identity, layout)}
    id_view = _LoweredView(link_identity(program))
    id_cond = _observed_edits(program, id_view)[0]
    al_cond, al_jumps, al_missing = _observed_edits(program, lowered)
    out = []

    def report(expected, actual, detail):
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
            agrees = (want is None and got is None) or (
                want is not None and got is not None
                and want in lowered.blocks_at.get(got, [])
            )
            if not agrees and report(
                f"jump {_fmt_block(ref)} -> " + (_fmt_block(want) if want else "absent"),
                "jump -> " + (lowered.resolve(got) if got is not None else "absent"),
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


def reference_verify(program, profile, layout, label, seed, max_events):
    """Per-event oracle: execute both images, compare captures element-wise."""
    baseline = capture_trace(link_identity(program), seed=seed, max_events=max_events)
    aligned_linked = link(layout)
    aligned = capture_trace(aligned_linked, seed=seed, max_events=max_events)
    lowered = _LoweredView(aligned_linked)
    return OracleReport(
        label=label,
        blocks_compared=len(baseline.blocks),
        edges_replayed=len(baseline.edge_trail),
        divergences=(
            _ref_block_sequence(baseline, aligned)
            + _ref_branch_sense(baseline, aligned, layout)
            + _ref_flow_conservation(profile, aligned)
            + _ref_address_replay(program, baseline, lowered)
            + _ref_edit_agreement(program, layout, lowered)
        ),
    )


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def registry_layouts(program, profile):
    """Every non-identity registry variant's layout, by variant label."""
    layouts = {}
    for name in aligner_names():
        spec = get_spec(name)
        if spec.identity:
            continue
        for variant in spec.plan(ALL_ARCHS, window=4).variants:
            layouts[variant.label] = variant.aligner.align(program, profile)
    return layouts


def mutated(layouts, profile, mutation, seed):
    """Apply one of the runner's injected rewriter faults to every layout."""
    out = {}
    for label, layout in layouts.items():
        if mutation == "flip-sense":
            layout = _flip_sense(layout, profile) or layout
        elif mutation == "retarget":
            rng = random.Random(f"{seed}:{label}")
            layout = _retarget_transfer(layout, profile, rng) or layout
        out[label] = layout
    return out


def assert_reports_match(program, profile, judged_profile, layouts, seed, max_events):
    reports = verify_alignments(
        program, judged_profile, layouts, seed=seed, max_events=max_events
    )
    assert [r.label for r in reports] == list(layouts)
    for report in reports:
        expected = reference_verify(
            program, judged_profile, layouts[report.label], report.label,
            seed, max_events,
        )
        assert report == expected, report.label


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    program=programs(),
    seed=st.integers(0, 3),
    mutation=st.sampled_from(MUTATIONS),
    max_events=st.one_of(st.none(), st.integers(0, 60)),
)
def test_template_oracle_matches_per_event_reference(program, seed, mutation, max_events):
    profile = profile_program(program, seed=seed)
    layouts = mutated(registry_layouts(program, profile), profile, mutation, seed)
    judged = profile_program(program, seed=seed + 1) if mutation == "wrong-profile" else profile
    assert_reports_match(program, profile, judged, layouts, seed, max_events)


@pytest.mark.parametrize("max_events", [None, 150])
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_matches_reference_on_a_benchmark_with_calls(mutation, max_events):
    """Multi-procedure programs add call, return and final-return steps."""
    program = generate_benchmark("compress", 0.02)
    profile = profile_program(program, seed=0)
    layouts = mutated(registry_layouts(program, profile), profile, mutation, 0)
    judged = profile_program(program, seed=1) if mutation == "wrong-profile" else profile
    assert_reports_match(program, profile, judged, layouts, 0, max_events)
