"""Property tests: the chain structure's invariants under random operations."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cfg import TerminatorKind
from repro.core import (
    MODELS,
    ChainSet,
    TryNAligner,
    block_options,
    get_spec,
    make_model,
    order_chains,
    refine_senses,
)
from repro.core.align import greedy_link_pass
from repro.isa.layout import ProcedureLayout
from repro.profiling import profile_program
from repro.workloads import generate_benchmark

from .strategies import call_programs, programs


@st.composite
def link_scripts(draw):
    """A random sequence of (src, dst) link attempts plus unlink points."""
    n_ops = draw(st.integers(min_value=0, max_value=40))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(("link", draw(st.integers(0, 30)), draw(st.integers(0, 30))))
        else:
            ops.append(("unlink", draw(st.integers(0, 30)), None))
    return ops


@settings(max_examples=60, deadline=None)
@given(program=programs(), script=link_scripts())
def test_chains_stay_consistent_under_random_operations(program, script):
    proc = program.procedure("main")
    chains = ChainSet(proc)
    ids = list(proc.blocks)
    for op, a, b in script:
        src = ids[a % len(ids)]
        if op == "link":
            dst = ids[b % len(ids)]
            if chains.can_link(src, dst):
                chains.link(src, dst)
        else:
            if chains.succ[src] is not None:
                chains.unlink(src)
    chains.check()
    # A fall-through link always corresponds to a feasibility-approved pair.
    for src, dst in chains.succ.items():
        if dst is not None:
            assert chains.pred[dst] == src
            assert dst != proc.entry


@settings(max_examples=60, deadline=None)
@given(program=programs(), script=link_scripts())
def test_chains_never_contain_cycles(program, script):
    proc = program.procedure("main")
    chains = ChainSet(proc)
    ids = list(proc.blocks)
    for op, a, b in script:
        src = ids[a % len(ids)]
        if op == "link":
            dst = ids[b % len(ids)]
            if chains.can_link(src, dst):
                chains.link(src, dst)
        elif chains.succ[src] is not None:
            chains.unlink(src)
    for chain in chains.chains():
        assert len(chain) == len(set(chain))
        # Walking succ from the head terminates at the tail.
        walked = []
        cur = chain[0]
        while cur is not None and len(walked) <= len(chain):
            walked.append(cur)
            cur = chains.succ[cur]
        assert walked == chain


# ----------------------------------------------------------------------
# ChainSet against a walk-based reference
# ----------------------------------------------------------------------
class WalkChains:
    """The chain structure with no bookkeeping: every question walks links."""

    def __init__(self, proc):
        self.proc = proc
        self.entry = proc.entry
        self.succ = {b: None for b in proc.blocks}
        self.pred = {b: None for b in proc.blocks}
        self.sealed = set()

    def head(self, bid):
        while self.pred[bid] is not None:
            bid = self.pred[bid]
        return bid

    def tail(self, bid):
        while self.succ[bid] is not None:
            bid = self.succ[bid]
        return bid

    def can_link(self, src, dst):
        return (
            src != dst
            and dst != self.entry
            and src not in self.sealed
            and self.succ[src] is None
            and self.pred[dst] is None
            and self.proc.block(src).kind.alignable
            and self.head(src) != self.head(dst)
        )

    def link(self, src, dst):
        assert self.can_link(src, dst)
        self.succ[src] = dst
        self.pred[dst] = src

    def unlink(self, src):
        dst = self.succ[src]
        self.succ[src] = None
        self.pred[dst] = None

    def seal(self, bid):
        self.sealed.add(bid)

    def chains(self):
        out = []
        for head in sorted(b for b in self.proc.blocks if self.pred[b] is None):
            chain = [head]
            while self.succ[chain[-1]] is not None:
                chain.append(self.succ[chain[-1]])
            out.append(chain)
        return out


@st.composite
def chain_scripts(draw):
    """Random link, unlink, seal, unseal and probe operations."""
    ops = st.tuples(
        st.sampled_from(["link", "unlink", "seal", "unseal", "probe"]),
        st.integers(0, 30),
        st.integers(0, 30),
    )
    return draw(st.lists(ops, max_size=60))


@settings(max_examples=80, deadline=None)
@given(program=st.one_of(programs(), call_programs()), script=chain_scripts())
def test_chainset_matches_walk_reference(program, script):
    """O(1) head/tail records answer exactly what walking the links does."""
    for proc in program:
        chains, reference = ChainSet(proc), WalkChains(proc)
        ids = list(proc.blocks)
        for op, a, b in script:
            src, dst = ids[a % len(ids)], ids[b % len(ids)]
            if op in ("link", "probe"):
                feasible = reference.can_link(src, dst)
                assert chains.can_link(src, dst) == feasible, (op, src, dst)
                if op == "link" and feasible:
                    chains.link(src, dst)
                    reference.link(src, dst)
                elif op == "link":
                    with pytest.raises(ValueError):
                        chains.link(src, dst)
            elif op == "unlink" and reference.succ[src] is not None:
                chains.unlink(src)
                reference.unlink(src)
            elif op == "seal" and reference.succ[src] is None:
                chains.seal(src)
                reference.seal(src)
            elif op == "unseal":
                chains.unseal(src)
                reference.sealed.discard(src)
            chains.check()
            assert chains.succ == reference.succ and chains.pred == reference.pred
            assert chains.sealed == reference.sealed
            for chain in reference.chains():
                assert chains.chain_of(chain[-1]) == chain
        assert chains.chains() == reference.chains()
        for src in ids:
            for dst in ids:
                assert chains.can_link(src, dst) == reference.can_link(src, dst)


# ----------------------------------------------------------------------
# Try15 against its search as first written, on the walk reference
# ----------------------------------------------------------------------
def _reference_tryn_chains(proc, profile, model, window, min_weight, max_states):
    """TryN chain building with a try/finally descent on WalkChains."""
    chains = WalkChains(proc)
    retreating = proc.cyclic_edge_pairs()
    jump_prefs = {}
    decided = set()
    edges = profile.sorted_edges(proc, min_weight=min_weight)
    index = 0
    while index < len(edges):
        nodes = []
        consumed = 0
        while index < len(edges) and consumed < window:
            (src, _dst), _w = edges[index]
            index += 1
            if src in decided or src in nodes:
                continue
            if not proc.block(src).kind.alignable:
                continue
            nodes.append(src)
            consumed += 1
        if not nodes:
            continue
        assignment = _reference_window(
            proc, nodes, profile, model, retreating, chains, max_states
        )
        for src, option in assignment:
            if option.kind == "link":
                chains.link(src, option.target)
            else:
                chains.seal(src)
                if proc.block(src).kind is TerminatorKind.COND and option.jump is not None:
                    jump_prefs[src] = option.jump
            decided.add(src)
    greedy_link_pass(chains, proc, profile, min_weight=0)
    return chains, jump_prefs


class _Budget(Exception):
    pass


def _reference_window(proc, nodes, profile, model, retreating, chains, max_states):
    per_node = [
        block_options(proc, bid, profile, model, retreating, chains) for bid in nodes
    ]
    suffix = [0.0] * (len(nodes) + 1)
    for i in range(len(nodes) - 1, -1, -1):
        cheapest = min(o.cost for o in per_node[i]) if per_node[i] else 0.0
        suffix[i] = suffix[i + 1] + cheapest
    best = {"cost": float("inf"), "assign": None, "states": 0}
    current = []

    def dfs(idx, acc):
        best["states"] += 1
        if best["states"] > max_states:
            raise _Budget
        if acc + suffix[idx] >= best["cost"]:
            return
        if idx == len(nodes):
            best["cost"], best["assign"] = acc, list(current)
            return
        bid = nodes[idx]
        for option in per_node[idx]:
            if option.kind == "link":
                if not chains.can_link(bid, option.target):
                    continue
                chains.link(bid, option.target)
                current.append(option)
                try:
                    dfs(idx + 1, acc + option.cost)
                finally:
                    current.pop()
                    chains.unlink(bid)
            else:
                current.append(option)
                try:
                    dfs(idx + 1, acc + option.cost)
                finally:
                    current.pop()

    try:
        dfs(0, 0.0)
    except _Budget:
        pass
    if best["assign"] is not None:
        return list(zip(nodes, best["assign"]))
    out = []
    for bid in nodes:
        for option in block_options(proc, bid, profile, model, retreating, chains):
            if option.kind != "link":
                out.append((bid, option))
                break
            if chains.can_link(bid, option.target):
                chains.link(bid, option.target)
                out.append((bid, option))
                break
    for bid, option in out:
        if option.kind == "link":
            chains.unlink(bid)
    return out


def _reference_layout(proc, profile, search_model, refine_model, window, max_states):
    chains, prefs = _reference_tryn_chains(
        proc, profile, search_model, window, 2, max_states
    )
    order = order_chains(chains, profile)
    layout = ProcedureLayout.from_order(proc, order, jump_preference=prefs)
    return refine_senses(layout, refine_model, profile)


_CAPS = st.one_of(st.just(100_000), st.integers(min_value=0, max_value=40))


@settings(max_examples=60, deadline=None)
@given(
    program=st.one_of(programs(), call_programs()),
    model=st.sampled_from(sorted(MODELS)),
    window=st.integers(min_value=1, max_value=15),
    max_states=_CAPS,
)
def test_tryn_matches_reference_search(program, model, window, max_states):
    """Same layouts at the default cap, and when a tiny cap cuts the search
    short or leaves only the cheapest-feasible fallback."""
    profile = profile_program(program, seed=0)
    aligner = TryNAligner(make_model(model), window=window, max_states=max_states)
    for proc in program:
        expected = _reference_layout(
            proc, profile, make_model(model), make_model(model), window, max_states
        )
        assert aligner.align_procedure(proc, profile).placements == expected.placements


@pytest.mark.parametrize("name", ["eqntott", "sc", "gcc"])
@pytest.mark.parametrize("max_states", [1, 2, 5, 40, 500])
def test_tryn_matches_reference_search_at_tiny_caps(name, max_states):
    """Suite procedures have windows deep enough for a cap to cut a descent
    with tentative links on its path; they must all be undone."""
    program = generate_benchmark(name, 0.1)
    profile = profile_program(program, seed=0)
    for model in ("fallthrough", "likely"):
        aligner = TryNAligner(make_model(model), max_states=max_states)
        for proc in program:
            expected = _reference_layout(
                proc, profile, make_model(model), make_model(model), 15, max_states
            )
            assert aligner.align_procedure(proc, profile).placements == expected.placements


@settings(max_examples=40, deadline=None)
@given(program=st.one_of(programs(), call_programs()), window=st.integers(1, 15))
def test_try15_btfnt_is_btfnt_refinement_of_likely_chains(program, window):
    """The registry's BT/FNT and LIKELY variants share one LIKELY search;
    each equals its own refinement of the reference LIKELY chains."""
    profile = profile_program(program, seed=0)
    plan = get_spec("try15").plan(("btfnt", "likely"), window=window)
    assert [v.label for v in plan.variants] == [
        f"try{window}-btfnt", f"try{window}-likely"
    ]
    for variant, refine in zip(plan.variants, ("btfnt", "likely")):
        layout = variant.aligner.align(program, profile)
        for proc in program:
            expected = _reference_layout(
                proc, profile, make_model("likely"), make_model(refine), window, 100_000
            )
            assert layout[proc.name].placements == expected.placements
