"""The replay engine's exactness contract: replay == execute, bit for bit."""

import pytest

from repro.core import GreedyAligner, TryNAligner
from repro.isa import link, link_identity
from repro.sim.decisions import capture_decisions
from repro.sim.metrics import ALL_ARCHS, default_architectures, simulate
from repro.sim.predictors import (
    BTBSim,
    DirectMappedPHT,
    FallthroughSim,
    LocalHistoryPHT,
    TournamentPHT,
)
from repro.sim.replay import ReplayMismatchError, replay
from repro.sim import executor as ex
from repro.sim import trace as tr
from repro.workloads import SUITE, generate_benchmark

#: Suite spread for the differential check: every category, every step
#: kind (calls, indirect jumps, deep loops) represented.
DIFF_BENCHMARKS = ("eqntott", "compress", "alvinn", "cfront")


def _layouts(program, profile, window=15):
    layouts = {"orig": None}
    layouts["greedy"] = GreedyAligner(chain_order="weight").align(program, profile)
    layouts["greedy-btfnt"] = GreedyAligner(chain_order="btfnt").align(program, profile)
    for model in ("fallthrough", "btfnt", "likely", "pht", "btb"):
        aligner = TryNAligner.for_architecture(model, window=window)
        layouts[f"try15-{model}"] = aligner.align(program, profile)
    return layouts


@pytest.mark.parametrize("name", DIFF_BENCHMARKS)
def test_replay_bit_identical_across_layouts_and_archs(name):
    """The acceptance gate: every layout, all 7 architectures, ``==``."""
    program = generate_benchmark(name, 0.1)
    trace = capture_decisions(program, seed=0, workload=name, scale=0.1)
    profile = trace.edge_profile(program)
    for label, layout in _layouts(program, profile).items():
        linked = link_identity(program) if layout is None else link(layout)
        replayed = simulate(linked, profile, seed=0, trace=trace)
        executed = simulate(linked, profile, seed=0)
        assert replayed == executed, f"{name}/{label} diverged"
        assert set(replayed.arch) == set(ALL_ARCHS)


@pytest.mark.parametrize("cap", [0, 1, 2, 7, 100, 100000])
def test_replay_honours_max_events(cap):
    program = generate_benchmark("eqntott", 0.1)
    trace = capture_decisions(program, seed=0)
    linked = link_identity(program)
    profile = trace.edge_profile(program)
    replayed = simulate(
        linked, profile, seed=0, max_events=cap, trace=trace
    )
    executed = simulate(linked, profile, seed=0, max_events=cap)
    assert replayed == executed


def test_replay_event_stream_identical(diamond_program):
    """Raw replay is a drop-in for execute: events, hooks, result."""
    trace = capture_decisions(diamond_program, seed=0)
    linked = link_identity(diamond_program)

    rec_r, rec_x = tr.EventRecorder(), tr.EventRecorder()
    edges_r, edges_x = [], []
    blocks_r, blocks_x = [], []
    res_r = replay(
        linked, trace, listeners=(rec_r,),
        profile_hook=lambda *e: edges_r.append(e),
        block_hook=lambda *b: blocks_r.append(b),
    )
    res_x = ex.execute(
        linked, listeners=(rec_x,),
        profile_hook=lambda *e: edges_x.append(e),
        block_hook=lambda *b: blocks_x.append(b),
        seed=0,
    )
    assert rec_r.events == rec_x.events
    assert edges_r == edges_x
    assert blocks_r == blocks_x
    assert (res_r.instructions, res_r.events, res_r.blocks) == (
        res_x.instructions, res_x.events, res_x.blocks
    )


def test_pht_subclasses_take_generic_path_and_still_match(loop_program):
    """Tier dispatch is by method identity: subclasses that override a
    rule hook must not inherit the specialised kernel or its slot
    decomposition (their overridden predict/update would be skipped) —
    and the path they take must still match execute."""
    from repro.profiling import profile_program

    trace = capture_decisions(loop_program, seed=0)
    linked = link_identity(loop_program)
    profile = profile_program(loop_program, seed=0)
    for make in (TournamentPHT, LocalHistoryPHT):
        replayed = simulate(
            linked, profile, archs=[make()], seed=0, trace=trace
        )
        executed = simulate(linked, profile, archs=[make()], seed=0)
        assert replayed == executed


def test_default_architectures_match(call_program):
    from repro.profiling import profile_program

    trace = capture_decisions(call_program, seed=0)
    linked = link_identity(call_program)
    profile = profile_program(call_program, seed=0)
    replayed = simulate(
        linked, profile,
        archs=default_architectures(linked, profile), seed=0,
        trace=trace,
    )
    executed = simulate(
        linked, profile,
        archs=default_architectures(linked, profile), seed=0,
    )
    assert replayed == executed


class TestSimulateDedup:
    """Regression: duplicate sim instances in ``archs`` double-counted."""

    def test_duplicates_dropped_by_identity(self, loop_program):
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        sim = DirectMappedPHT()
        report = simulate(linked, profile, archs=[sim, sim], seed=0)
        fresh = simulate(
            linked, profile, archs=[DirectMappedPHT()], seed=0
        )
        assert report.arch[sim.name] == fresh.arch[DirectMappedPHT().name]

    def test_distinct_instances_kept(self, loop_program):
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        a, b = BTBSim(64, 2), BTBSim(256, 4)
        report = simulate(linked, profile, archs=[a, b], seed=0)
        assert set(report.arch) == {a.name, b.name}

    def test_dedup_applies_to_replay_engine_too(self, loop_program):
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        trace = capture_decisions(loop_program, seed=0)
        sim = FallthroughSim()
        report = simulate(
            linked, profile, archs=[sim, sim], seed=0, trace=trace
        )
        fresh = simulate(
            linked, profile, archs=[FallthroughSim()], seed=0
        )
        assert report.arch[sim.name] == fresh.arch[sim.name]


class TestReplayCheck:
    def test_passes_when_engines_agree(self, loop_program):
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        trace = capture_decisions(loop_program, seed=0)
        simulate(linked, profile, seed=0, trace=trace, replay_check=True)

    def test_env_var_enables_it(self, loop_program, monkeypatch):
        from repro.profiling import profile_program
        from repro.sim import metrics

        monkeypatch.setenv("REPRO_REPLAY_CHECK", "1")
        assert metrics.replay_check_enabled()
        profile = profile_program(loop_program, seed=0)
        trace = capture_decisions(loop_program, seed=0)
        simulate(link_identity(loop_program), profile, seed=0, trace=trace)

    def test_raises_on_wrong_trace(self, loop_program, diamond_program):
        """A trace from the wrong program must not silently pass."""
        from repro.profiling import profile_program

        profile = profile_program(loop_program, seed=0)
        linked = link_identity(loop_program)
        wrong = capture_decisions(diamond_program, seed=0)
        with pytest.raises(Exception):
            simulate(linked, profile, seed=0, trace=wrong, replay_check=True)


class TestStreamModelConsistency:
    def test_condmix_kind_matches_trace(self):
        # profiling.condmix hardcodes the COND kind code (an import would
        # cycle through sim.executor); keep the constants locked together.
        from repro.profiling.condmix import COND_KIND

        assert COND_KIND == tr.COND


class TestBTBConflictFallback:
    """sc's real conflict: BTB-64x2 sets that some layouts over-fill.

    Sets touched by more sites than ways can evict, so replay must feed
    their events through ``BTBSim.feed`` rather than answer them from
    per-site summaries — and still match execute on every layout.
    """

    @staticmethod
    def overfull_sets(linked, trace, btb):
        from repro.sim.replay import compile_steps

        sites = set()
        for step, count in zip(compile_steps(linked, trace), trace.counts):
            if count:
                sites.update(site for kind, site, _t, _k in step.events if kind != tr.RET)
        per_set = {}
        for site in sites:
            per_set.setdefault(btb.set_index(site), set()).add(site)
        return [index for index, members in per_set.items() if len(members) > btb.assoc]

    def test_fallback_fires_exactly_on_overfull_sets(self, monkeypatch):
        from repro.oracle.oracle import alignment_layouts

        program = generate_benchmark("sc", 0.1)
        trace = capture_decisions(program, seed=0)
        profile = trace.edge_profile(program)
        layouts = {"orig": None, **alignment_layouts(program, profile)}

        fed = []  # (sim, events fed); holding the sim keeps identities unique
        real_feed = BTBSim.feed

        def spying_feed(self, events):
            events = list(events)
            fed.append((self, len(events)))
            real_feed(self, events)

        monkeypatch.setattr(BTBSim, "feed", spying_feed)
        conflicted = []
        for label, layout in layouts.items():
            linked = link_identity(program) if layout is None else link(layout)
            sim = BTBSim(64, 2)
            overfull = self.overfull_sets(linked, trace, sim.btb)
            simulate(linked, profile, archs=[sim], seed=0, trace=trace)
            fell_back = any(fed_sim is sim and n for fed_sim, n in fed)
            assert fell_back == bool(overfull), label
            if overfull:
                conflicted.append(label)
            simulate(linked, profile, seed=0, trace=trace, replay_check=True)
        assert conflicted  # the regression needs at least one over-full set
