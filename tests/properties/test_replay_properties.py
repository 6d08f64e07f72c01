"""Property: replay == execute on arbitrary random programs and layouts."""

import copy

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import GreedyAligner, TryNAligner
from repro.isa import link, link_identity
from repro.oracle.oracle import alignment_layouts
from repro.sim.decisions import capture_decisions, decode_trace, encode_trace
from repro.sim.metrics import simulate
from repro.sim.predictors import (
    BTBSim,
    CorrelationPHT,
    DirectMappedPHT,
    FallthroughSim,
    LocalHistoryPHT,
    TournamentPHT,
)
from repro.sim.replay import replay, run_architectures

from .strategies import call_programs, programs


@settings(max_examples=40, deadline=None)
@given(program=programs(), seed=st.integers(min_value=0, max_value=2**16))
def test_replay_matches_execute_on_identity(program, seed):
    trace = capture_decisions(program, seed=seed)
    profile = trace.edge_profile(program)
    linked = link_identity(program)
    replayed = simulate(linked, profile, seed=seed, trace=trace)
    executed = simulate(linked, profile, seed=seed)
    assert replayed == executed


@settings(max_examples=25, deadline=None)
@given(
    program=programs(),
    seed=st.integers(min_value=0, max_value=2**16),
    model=st.sampled_from(("fallthrough", "btfnt", "likely", "pht", "btb")),
)
def test_replay_matches_execute_on_aligned_layouts(program, seed, model):
    trace = capture_decisions(program, seed=seed)
    profile = trace.edge_profile(program)
    for aligner in (
        GreedyAligner(chain_order="weight"),
        TryNAligner.for_architecture(model, window=7),
    ):
        linked = link(aligner.align(program, profile))
        replayed = simulate(linked, profile, seed=seed, trace=trace)
        executed = simulate(linked, profile, seed=seed)
        assert replayed == executed


@settings(max_examples=40, deadline=None)
@given(program=programs(), seed=st.integers(min_value=0, max_value=2**16))
def test_persisted_trace_replays_identically(program, seed):
    """Round-tripping through the storage encoding loses nothing."""
    trace = capture_decisions(program, seed=seed)
    revived = decode_trace(encode_trace(trace))
    profile = trace.edge_profile(program)
    linked = link_identity(program)
    assert simulate(linked, profile, trace=revived) == simulate(
        linked, profile, trace=trace
    )


@settings(max_examples=40, deadline=None)
@given(
    program=programs(),
    seed=st.integers(min_value=0, max_value=2**16),
    cap=st.integers(min_value=0, max_value=64),
)
def test_replay_cap_semantics_match(program, seed, cap):
    trace = capture_decisions(program, seed=seed)
    profile = trace.edge_profile(program)
    linked = link_identity(program)
    replayed = simulate(
        linked, profile, seed=seed, max_events=cap, trace=trace
    )
    executed = simulate(linked, profile, seed=seed, max_events=cap)
    assert replayed == executed


def _conflicting_sims():
    """Table predictors, including geometries small enough to share slots."""
    return [
        DirectMappedPHT(entries=8),
        CorrelationPHT(entries=16, history_bits=4),
        BTBSim(4, 1),
        BTBSim(8, 2),
        BTBSim(8, 4),
        DirectMappedPHT(),
        CorrelationPHT(),
        BTBSim(64, 2),
        BTBSim(256, 4),
        FallthroughSim(),
        LocalHistoryPHT(entries=16, history_bits=3, history_entries=4),
        TournamentPHT(entries=16, history_bits=4),
    ]


def _observable(sim):
    """Everything a later event's outcome or a report can read.

    For a BTB that includes each set's entries in LRU order, and that
    the clock is past every stamp, so the next access is the newest.
    """
    ras = sim.ras
    state = [sim.counts, (ras.pushes, ras.pops, ras.correct)]
    if isinstance(sim, BTBSim):
        btb = sim.btb
        lru = [
            [(site, e.target, e.counter) for site, e in sorted(s.items(), key=lambda i: i[1].stamp)]
            for s in btb._sets
        ]
        stamps = [e.stamp for s in btb._sets for e in s.values()]
        state.append((btb.hits, btb.misses, lru, max(stamps, default=0) <= btb._clock))
    return state


@settings(max_examples=40, deadline=None)
@given(
    program=st.one_of(programs(), call_programs()),
    seed=st.integers(min_value=0, max_value=2**16),
    warm=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
)
def test_slot_replay_matches_per_event_feed(program, seed, warm):
    """run_architectures == every event through ``on_event``, state included.

    Small tables force shared PHT counters and over-full BTB sets (the
    ``feed`` fallback); a ``max_events``-capped pre-warm leaves some
    slots away from power-up.  After the counts agree, a second stream
    fed event by event must keep them agreeing: the written-back state
    is as good as the state a per-event feed leaves behind.
    """
    trace = capture_decisions(program, seed=seed)
    profile = trace.edge_profile(program)
    identity = link_identity(program)
    layouts = [identity] + [
        link(layout) for layout in alignment_layouts(program, profile, window=7).values()
    ]
    for linked, other in zip(layouts, layouts[1:] + layouts[:1]):
        sims = _conflicting_sims()
        if warm is not None:
            run_architectures(other, trace, sims, max_events=warm)
        reference = copy.deepcopy(sims)
        run_architectures(linked, trace, sims)
        replay(linked, trace, listeners=reference)
        for sim, ref in zip(sims, reference):
            assert _observable(sim) == _observable(ref), sim.name
        # A second stream, from another layout, moves sites across slots.
        replay(other, trace, listeners=sims)
        replay(other, trace, listeners=reference)
        for sim, ref in zip(sims, reference):
            assert _observable(sim) == _observable(ref), f"{sim.name} (second stream)"


@settings(max_examples=20, deadline=None)
@given(
    program=st.one_of(programs(), call_programs()),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_rule_overriding_phts_match_execute(program, seed):
    """PHT variants that override a rule keep the faithful path."""
    trace = capture_decisions(program, seed=seed)
    profile = trace.edge_profile(program)
    for layout in [None, *alignment_layouts(program, profile, window=7).values()]:
        linked = link_identity(program) if layout is None else link(layout)
        for make in (LocalHistoryPHT, TournamentPHT):
            replayed = simulate(
                linked, profile, archs=[make()], seed=seed, trace=trace
            )
            executed = simulate(linked, profile, archs=[make()], seed=seed)
            assert replayed == executed
