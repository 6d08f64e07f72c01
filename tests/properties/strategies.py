"""Hypothesis strategies: random structured programs and event streams."""

from __future__ import annotations

import hypothesis.strategies as st

from repro.cfg import Program
from repro.sim import trace as tr
from repro.workloads import (
    Call,
    IfElse,
    ProcedureTemplate,
    Straight,
    Switch,
    VirtualCall,
    WhileLoop,
)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _if_else(children):
    return st.builds(
        IfElse,
        then=st.lists(children, max_size=2),
        orelse=st.lists(children, max_size=2),
        p_then=probabilities,
        cond_size=st.integers(min_value=1, max_value=4),
    )


def _while_loop(children):
    return st.builds(
        WhileLoop,
        body=st.lists(children, max_size=2),
        trips=st.integers(min_value=1, max_value=5),
        bottom_test=st.booleans(),
        test_size=st.integers(min_value=1, max_value=3),
    )


def _switch(children):
    return st.builds(
        Switch,
        cases=st.lists(st.lists(children, max_size=2), min_size=1, max_size=3),
        size=st.integers(min_value=1, max_value=3),
    )


def _structured(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            _if_else(children), _while_loop(children), _switch(children)
        ),
        max_leaves=10,
    )


straights = st.builds(Straight, size=st.integers(min_value=1, max_value=10))

constructs = _structured(straights)

bodies = st.lists(constructs, min_size=1, max_size=4)

#: The leaf procedures :func:`call_programs` calls.
LEAVES = ("leaf0", "leaf1")

calls = st.one_of(
    st.builds(Call, callee=st.sampled_from(LEAVES)),
    st.builds(VirtualCall, callees=st.just(list(LEAVES))),
)


@st.composite
def programs(draw) -> Program:
    """A random single-procedure program, valid by construction."""
    body = draw(bodies)
    template = ProcedureTemplate("main", body, epilogue_size=draw(st.integers(1, 3)))
    return Program([template.lower()])


@st.composite
def call_programs(draw) -> Program:
    """A random ``main`` calling two leaf procedures, directly and indirectly.

    Calls sit anywhere in ``main``'s structure, loops included, so the
    return stack sees real traffic.
    """
    body = draw(st.lists(_structured(st.one_of(straights, calls)), min_size=1, max_size=4))
    procedures = [ProcedureTemplate("main", body, epilogue_size=draw(st.integers(1, 3))).lower()]
    for name in LEAVES:
        procedures.append(ProcedureTemplate(name, draw(bodies)).lower())
    return Program(procedures)


@st.composite
def events(draw):
    """A random, causally plausible branch event tuple."""
    kind = draw(st.sampled_from([tr.COND, tr.UNCOND, tr.INDIRECT, tr.CALL, tr.ICALL, tr.RET]))
    site = draw(st.integers(min_value=0, max_value=1 << 20)) * 4
    target = draw(st.integers(min_value=0, max_value=1 << 20)) * 4
    taken = draw(st.booleans()) if kind == tr.COND else True
    return (kind, site, target, taken)


event_streams = st.lists(events(), max_size=200)
