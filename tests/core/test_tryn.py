"""Unit tests for the Try15 windowed exhaustive search."""

import pytest

from repro.core import GreedyAligner, TryNAligner, get_spec, make_model
from repro.isa import link, link_identity
from repro.profiling import profile_program
from repro.workloads import (
    FIGURE3_ORIGINAL_COST,
    figure3_program,
    generate_benchmark,
)
from tests.conftest import diamond_procedure, loop_procedure


def _labels(proc):
    return {b.label: b.bid for b in proc}


class TestFigure3:
    """The paper's worked Figure 3 example: Try15 rotates the loop."""

    @pytest.fixture(scope="class")
    def aligned(self):
        program = figure3_program()
        profile = profile_program(program)
        aligner = TryNAligner(make_model("likely"))
        return program, profile, aligner.align(program, profile)

    def test_loop_rotated(self, aligned):
        program, _profile, layout = aligned
        proc = program.procedure("fig3")
        ids = _labels(proc)
        order = [p.bid for p in layout["fig3"].placements]
        # C placed immediately before A: the unconditional disappears.
        assert order.index(ids["C"]) == order.index(ids["A"]) - 1
        assert ids["C"] in layout["fig3"].removed_branches()

    def test_loop_exit_inverted(self, aligned):
        program, _profile, layout = aligned
        proc = program.procedure("fig3")
        ids = _labels(proc)
        assert ids["B"] in layout["fig3"].inverted_conditionals()

    def test_paper_cycle_counts(self, aligned):
        program, profile, layout = aligned
        model = make_model("likely")
        original = model.procedure_cost(
            link_identity(program), program.procedure("fig3"), profile
        )
        rotated = model.procedure_cost(
            link(layout), program.procedure("fig3"), profile
        )
        assert original == FIGURE3_ORIGINAL_COST  # 36,002 exactly
        # The paper reports 27,004 for the fragment; our whole-procedure
        # accounting adds one entry jump (27,005).
        assert rotated <= 27005.0
        assert original / rotated == pytest.approx(4.0 / 3.0, rel=0.01)

    def test_greedy_cannot_rotate(self, aligned):
        """Figure 3 exists precisely because Greedy misses this layout."""
        program, profile, layout = aligned
        model = make_model("likely")
        greedy = GreedyAligner().align(program, profile)
        greedy_cost = model.procedure_cost(link(greedy), program.procedure("fig3"), profile)
        tryn_cost = model.procedure_cost(link(layout), program.procedure("fig3"), profile)
        assert tryn_cost < greedy_cost


class TestWindowing:
    def test_window_one_still_valid(self, loop_program):
        profile = profile_program(loop_program)
        layout = TryNAligner(make_model("likely"), window=1).align(loop_program, profile)
        layout["main"].check()

    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            TryNAligner(make_model("likely"), window=0)

    def test_name_reflects_window(self):
        assert TryNAligner(make_model("likely"), window=15).name == "try15"
        assert TryNAligner(make_model("likely"), window=10).name == "try10"

    def test_min_weight_filters_cold_edges(self, loop_program):
        # With an absurd min weight nothing is searched; the final greedy
        # pass still produces a valid layout.
        profile = profile_program(loop_program)
        layout = TryNAligner(make_model("likely"), min_weight=10**9).align(
            loop_program, profile
        )
        layout["main"].check()

    def test_state_cap_fallback_is_valid(self):
        program = figure3_program(loop_trips=50)
        profile = profile_program(program)
        aligner = TryNAligner(make_model("likely"), max_states=1)
        layout = aligner.align(program, profile)
        layout["fig3"].check()

    def test_search_never_worse_than_greedy_under_own_model(self):
        """Joint optimisation should beat greedy chains on the paper CFG."""
        for arch in ("fallthrough", "likely", "pht", "btb"):
            program = figure3_program(loop_trips=200)
            profile = profile_program(program)
            model = make_model(arch)
            tryn = TryNAligner(model).align(program, profile)
            greedy = GreedyAligner().align(program, profile)
            assert model.layout_cost(link(tryn), profile) <= model.layout_cost(
                link(greedy), profile
            ) * 1.0001


class TestForArchitecture:
    def test_btfnt_uses_optimistic_search_model(self):
        aligner = TryNAligner.for_architecture("btfnt")
        assert aligner.model.name == "likely"
        assert aligner.refine_model.name == "btfnt"

    def test_other_archs_use_own_model(self):
        for arch in ("fallthrough", "likely", "pht", "btb"):
            aligner = TryNAligner.for_architecture(arch)
            assert aligner.model.name == arch
            assert aligner.refine_model is None

    def test_window_forwarded(self):
        assert TryNAligner.for_architecture("pht", window=10).window == 10


class TestSharedLikelySearch:
    """try15-btfnt and try15-likely run the LIKELY search once."""

    def _count_searches(self, monkeypatch):
        calls = []
        search = TryNAligner._search

        def counted(self, proc, profile):
            calls.append((self.refine_model, proc.name))
            return search(self, proc, profile)

        monkeypatch.setattr(TryNAligner, "_search", counted)
        return calls

    def test_one_search_per_procedure_and_profile(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        program = generate_benchmark("eqntott", 0.05)
        profile = profile_program(program)
        btfnt, likely = get_spec("try15").plan(("btfnt", "likely")).variants
        assert btfnt.aligner.shared is likely.aligner.shared is not None
        btfnt.aligner.align(program, profile)
        likely.aligner.align(program, profile)
        assert len(calls) == len(program.procedures)
        # Taking an entry drops it: nothing outlives the pair of passes.
        assert not likely.aligner.shared._found

    def test_new_profile_is_a_new_search(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        program = generate_benchmark("eqntott", 0.05)
        btfnt, likely = get_spec("try15").plan(("btfnt", "likely")).variants
        btfnt.aligner.align(program, profile_program(program, seed=0))
        other = profile_program(program, seed=1)
        layout = likely.aligner.align(program, other)
        assert len(calls) == 2 * len(program.procedures)
        alone = TryNAligner.for_architecture("likely").align(program, other)
        for proc in program:
            assert layout[proc.name].placements == alone[proc.name].placements

    def test_other_models_search_alone(self):
        plan = get_spec("try15").plan(("fallthrough", "pht-direct", "btb-64x2"))
        assert all(v.aligner.shared is None for v in plan.variants)

    def test_mismatched_search_is_not_shared(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        program = generate_benchmark("eqntott", 0.05)
        profile = profile_program(program)
        btfnt, likely = get_spec("try15").plan(("btfnt", "likely")).variants
        likely.aligner.max_states = 10
        btfnt.aligner.align(program, profile)
        likely.aligner.align(program, profile)
        assert len(calls) == 2 * len(program.procedures)
