"""Property tests: the registry contract holds for every contestant.

Two invariants keep the arena honest.  First, every variant the
registry plans — whatever the algorithm, whatever the architecture —
must emit a valid block permutation: every block placed exactly once,
entry first.  Second, the modern entrants (ext-TSP and the dispatch
tree) must survive the same binary round trip the classic aligners do:
link the layout, recover the CFG back from the raw instruction stream,
and prove it bisimilar to the identity image, mirroring
``test_diff_properties.py``'s stream-level scrutiny.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cfg import TerminatorKind
from repro.core import ChainSet, ExtTSPAligner, jump_score, order_chains
from repro.core.align import greedy_link_pass
from repro.core.registry import aligner_names, get_spec, plan_algorithms
from repro.isa.encoder import INSTRUCTION_BYTES
from repro.isa.layout import ProcedureLayout
from repro.profiling import EdgeProfile, profile_program
from repro.sim.metrics import ALL_ARCHS
from repro.staticcheck.binary import prove_layouts
from repro.workloads import SUITE, generate_benchmark

from .strategies import call_programs, programs

#: Small window keeps try-N tractable on hypothesis-sized programs.
WINDOW = 6


@settings(max_examples=40, deadline=None)
@given(program=programs())
def test_every_registered_variant_is_a_block_permutation(program):
    """Every variant of every registered algorithm permutes the blocks."""
    profile = profile_program(program, seed=0)
    proc = program.procedure("main")
    seen = set()
    for plan in plan_algorithms(None, ALL_ARCHS, window=WINDOW):
        for variant in plan.variants:
            seen.add(plan.spec.name)
            layout = variant.aligner.align(program, profile)["main"]
            layout.check()
            assert sorted(p.bid for p in layout.placements) == sorted(proc.blocks), (
                f"{variant.label}: not a permutation"
            )
            assert layout.placements[0].bid == proc.entry, (
                f"{variant.label}: entry not first"
            )
    # The sweep really covered the whole registry — no algorithm was
    # silently planned away on the full architecture set.
    assert seen == set(aligner_names())


@settings(max_examples=15, deadline=None)
@given(program=programs())
def test_arena_entrants_round_trip_to_bisimilar_binaries(program):
    """ext-TSP and disptree layouts link -> recover -> prove bisimilar."""
    profile = profile_program(program, seed=0)
    layouts = {}
    for name in ("exttsp", "disptree"):
        plan = get_spec(name).plan(ALL_ARCHS, window=WINDOW)
        for variant in plan.variants:
            layouts[variant.label] = variant.aligner.align(program, profile)
    proofs = prove_layouts(program, layouts)
    for label, proof in proofs.items():
        assert proof.bisimilar, f"{label}: {proof.failures()}"


# ----------------------------------------------------------------------
# ext-TSP: the incremental merge loop against the quadratic reference
# ----------------------------------------------------------------------
def _reference_score(chain, sizes, edges):
    """The objective over the weighted edges inside ``chain``, scored anew."""
    starts = {}
    cursor = 0
    for bid in chain:
        starts[bid] = cursor
        cursor += sizes[bid]
    score = 0.0
    for src, dst, weight, conditional in edges:
        if src in starts and dst in starts:
            distance = starts[dst] - (starts[src] + sizes[src])
            score += weight * jump_score(distance, conditional)
    return score


def _reference_exttsp_chains(proc, profile, min_weight):
    """ext-TSP chain merging as first written: every iteration rebuilds the
    chain pairs and rescores each candidate over every weighted edge."""
    chains = ChainSet(proc)
    sizes = {bid: proc.block(bid).size * INSTRUCTION_BYTES for bid in proc.blocks}
    weighted = [
        (src, dst, weight, proc.block(src).kind is TerminatorKind.COND)
        for (src, dst), weight in profile.sorted_edges(proc, min_weight=min_weight)
    ]
    junction = {
        (src, dst): weight * jump_score(0, cond) for src, dst, weight, cond in weighted
    }
    while True:
        heads = {}
        for chain in chains.chains():
            for bid in chain:
                heads[bid] = chain[0]
        linked = {head: chains.chain_of(head) for head in set(heads.values())}
        pairs = set()
        for src, dst, _weight, _cond in weighted:
            if heads[src] != heads[dst]:
                pairs.add((heads[src], heads[dst]))
                pairs.add((heads[dst], heads[src]))
        best_gain = (0.0, 0.0)
        best_pair = None
        for first, second in sorted(pairs):
            left, right = linked[first], linked[second]
            if not chains.can_link(left[-1], right[0]):
                continue
            total = (
                _reference_score(left + right, sizes, weighted)
                - _reference_score(left, sizes, weighted)
                - _reference_score(right, sizes, weighted)
            )
            adjacency = junction.get((left[-1], right[0]), 0.0)
            gain = (adjacency, total - adjacency)
            if gain > best_gain:
                best_gain = gain
                best_pair = (first, second)
        if best_pair is None:
            break
        chains.link(linked[best_pair[0]][-1], linked[best_pair[1]][0])
    greedy_link_pass(chains, proc, profile, min_weight=0)
    return chains


def _assert_exttsp_matches_reference(program, profile, min_weight):
    aligner = ExtTSPAligner(min_weight=min_weight)
    for proc in program:
        chains, prefs = aligner.build_chains(proc, profile)
        reference = _reference_exttsp_chains(proc, profile, min_weight)
        assert prefs == {}
        assert chains.succ == reference.succ, proc.name
        expected = ProcedureLayout.from_order(proc, order_chains(reference, profile))
        assert aligner.align_procedure(proc, profile).placements == expected.placements


@st.composite
def weighted_programs(draw):
    """A program plus a random edge profile: small weights force ties and
    put some edges below any ``min_weight`` from 1 to 3."""
    program = draw(st.one_of(programs(), call_programs()))
    profile = EdgeProfile()
    weights = st.integers(min_value=0, max_value=6)
    for proc in program:
        for edge in proc.edges:
            profile.set_weight(proc.name, edge.src, edge.dst, draw(weights))
    return program, profile


@settings(max_examples=80, deadline=None)
@given(case=weighted_programs(), min_weight=st.integers(min_value=0, max_value=3))
def test_exttsp_matches_quadratic_reference(case, min_weight):
    """Cached pair gains pick exactly the merges full rescoring picks."""
    program, profile = case
    _assert_exttsp_matches_reference(program, profile, min_weight)


@pytest.mark.parametrize("name", list(SUITE))
def test_exttsp_matches_quadratic_reference_on_suite(name):
    program = generate_benchmark(name, 0.1)
    _assert_exttsp_matches_reference(program, profile_program(program, seed=0), 1)
