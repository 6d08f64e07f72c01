"""Replay a decision trace through any layout (the replay-many half).

Where :mod:`repro.sim.decisions` captures the layout-*independent* half
of an execution (which successor every block picked), this module binds
the layout-*dependent* half: given a :class:`LinkedProgram`, each step
template compiles to the exact branch events :func:`repro.sim.executor.
execute` would emit under that layout — addresses from the lowered
blocks, branch senses from the placement's taken target, inserted and
removed unconditional branches from the linker's jump decisions.

So N layouts × 7 architectures costs one capture plus N cheap replays.
Each predictor's own ``feed`` is the one implementation of its rule;
:func:`run_architectures` only decides which events each must see:

* **aggregate** — per-kind and per-site totals come from the templates.
  They give the static predictors' penalties, and a table predictor's
  penalties for events its table never sees (all but conditionals for a
  PHT, returns for a BTB).  Return stacks adopt the trace's own
  layout-invariant run (:meth:`DecisionTrace.ras_run`).
* **slots** — alignment never changes a branch's own decision sequence.
  A slot at power-up used by one site (a PHT counter with one site, a
  BTB set with no more sites than ways, which never evicts) is answered
  from that site's summary: a fresh instance of the same predictor fed
  the site's stream alone, cached on the trace.  Summaries write back
  exact state.
* **feed** — every other slot, all of gshare (its history couples every
  conditional) and PHT variants without per-site slots take their own
  sub-stream through ``feed``, realised from one shared restriction of
  the step stream.
* **faithful** — any other listener gets every event via ``on_event``;
  :func:`replay` adds the executor's ``max_events`` semantics.

Tiers are chosen by method identity, so a subclass that overrides a rule
never inherits a decomposition of the rule it replaced.  Differential
checking (``--replay-check``) and claim 14 assert bit-identity of the
resulting :class:`~repro.sim.metrics.SimulationReport`.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple
from typing import TypeVar

from ..isa.encoder import INSTRUCTION_BYTES, LinkedProgram
from ..cfg import BlockId, TerminatorKind
from ..profiling.condmix import CondMixListener
from . import trace as tr
from .decisions import CHUNK_STEPS, DecisionTrace, T_BRANCH, T_CALL, T_FINAL, T_RET
from .decisions import template_source
from .executor import ExecutionResult, _compile_nodes
from .predictors.base import BranchArchSim, PenaltyCounts
from .predictors.btb import BTBSim, _Entry as _BTBEntry
from .predictors.pht import CorrelationPHT, DirectMappedPHT
from .predictors.ras import ReturnStack
from .predictors.static_ import BTFNTSim, FallthroughSim, LikelySim


class ReplayMismatchError(AssertionError):
    """Replaying a trace disagreed with executing the binary."""


#: One realised branch event: (kind, site address, target address, taken).
Event = Tuple[int, int, int, bool]


class EventListener(Protocol):
    """Anything consuming the executor's per-event protocol."""

    def on_event(self, event: Event) -> None: ...


class BlockListener(Protocol):
    """Anything consuming the executor's per-block protocol."""

    def on_block(self, start: int, size: int) -> None: ...


class _Step:
    """One step template bound to a layout (hot-loop friendly)."""

    __slots__ = ("events", "enter_start", "enter_size", "enter_proc", "enter_bid", "edge")

    events: Tuple[Event, ...]
    enter_start: int
    enter_size: int
    enter_proc: Optional[str]
    enter_bid: Optional[BlockId]
    edge: Optional[Tuple[str, BlockId, BlockId]]

    def __init__(
        self,
        events: Tuple[Event, ...],
        enter: Optional[Tuple[str, BlockId, int, int]],
        edge: Optional[Tuple[str, BlockId, BlockId]],
    ):
        self.events = events
        if enter is None:
            self.enter_size = -1
            self.enter_start = 0
            self.enter_proc = None
            self.enter_bid = None
        else:
            self.enter_proc, self.enter_bid, self.enter_start, self.enter_size = enter
        self.edge = edge


def compile_steps(linked: LinkedProgram, trace: DecisionTrace) -> List[_Step]:
    """Bind every step template to ``linked``'s addresses and senses."""
    program = linked.program
    nodes = _compile_nodes(linked)
    entry_addr = {name: linked.entry_address(name) for name in program.order}
    entries = {name: program.procedure(name).entry for name in program.order}
    step = INSTRUCTION_BYTES
    cond_k, uncond_k, indirect_k = tr.COND, tr.UNCOND, tr.INDIRECT
    call_k, icall_k, ret_k = tr.CALL, tr.ICALL, tr.RET

    compiled: List[_Step] = []
    for template in trace.templates:
        kind = template[0]
        if kind == T_BRANCH:
            _, proc, bid, succ = template
            node = nodes[proc][bid]
            dst = nodes[proc][succ]
            if node.kind is TerminatorKind.COND:
                site = node.term_addr
                if succ == node.taken_target:
                    events: Tuple = ((cond_k, site, dst.start, True),)
                elif node.jump_addr is not None:
                    events = (
                        (cond_k, site, site + step, False),
                        (uncond_k, node.jump_addr, dst.start, True),
                    )
                else:
                    events = ((cond_k, site, site + step, False),)
            elif node.kind is TerminatorKind.FALLTHROUGH:
                if node.jump_addr is not None:
                    events = ((uncond_k, node.jump_addr, dst.start, True),)
                else:
                    events = ()
            elif node.kind is TerminatorKind.UNCOND:
                if node.branch_removed:
                    events = ()
                else:
                    events = ((uncond_k, node.term_addr, dst.start, True),)
            else:  # INDIRECT
                events = ((indirect_k, node.term_addr, dst.start, True),)
            compiled.append(
                _Step(events, (proc, succ, dst.start, dst.size), (proc, bid, succ))
            )
        elif kind == T_CALL:
            _, proc, bid, call_idx, callee = template
            site, _static_callee, chooser = nodes[proc][bid].calls[call_idx]
            event_kind = icall_k if chooser is not None else call_k
            events = ((event_kind, site, entry_addr[callee], True),)
            entry_bid = entries[callee]
            entry_node = nodes[callee][entry_bid]
            compiled.append(
                _Step(events, (callee, entry_bid, entry_node.start, entry_node.size), None)
            )
        elif kind == T_RET:
            _, proc, bid, caller_proc, caller_bid, resume_idx = template
            site = nodes[proc][bid].term_addr
            ret_site = nodes[caller_proc][caller_bid].calls[resume_idx - 1][0]
            events = ((ret_k, site, ret_site + step, True),)
            compiled.append(_Step(events, None, None))
        else:  # T_FINAL
            _, proc, bid = template
            events = ((ret_k, nodes[proc][bid].term_addr, 0, True),)
            compiled.append(_Step(events, None, None))
    return compiled


def replay(
    linked: LinkedProgram,
    trace: DecisionTrace,
    listeners: Sequence[EventListener] = (),
    block_listeners: Sequence[BlockListener] = (),
    profile_hook: Optional[Callable[[str, BlockId, BlockId], None]] = None,
    block_hook: Optional[Callable[[str, BlockId], None]] = None,
    max_events: Optional[int] = None,
    compiled: Optional[List[_Step]] = None,
) -> ExecutionResult:
    """Faithful replay: same events, hooks, order and cut-off as execute.

    Drop-in equivalent of :func:`repro.sim.executor.execute` driven by a
    decision trace instead of behaviours — including the exact
    ``max_events`` semantics (an entered block's instructions are not
    counted when the cap fires on the transfer into it).
    """
    if compiled is None:
        compiled = compile_steps(linked, trace)
    program = linked.program
    emit = [listener.on_event for listener in listeners]
    on_block = [listener.on_block for listener in block_listeners]

    entry_proc = program.entry
    entry_bid = program.procedure(entry_proc).entry
    entry_lb = linked.block(entry_proc, entry_bid)

    instructions = entry_lb.size
    events = 0
    blocks_executed = 1
    if on_block:
        for cb in on_block:
            cb(entry_lb.start, entry_lb.size)
    if block_hook is not None:
        block_hook(entry_proc, entry_bid)

    for tid in trace.iter_steps():
        step = compiled[tid]
        edge = step.edge
        if edge is not None and profile_hook is not None:
            profile_hook(edge[0], edge[1], edge[2])
        step_events = step.events
        if step_events:
            for event in step_events:
                for cb in emit:
                    cb(event)
            events += len(step_events)
        if max_events is not None and events >= max_events:
            break
        if step.enter_size >= 0:
            instructions += step.enter_size
            blocks_executed += 1
            if on_block:
                for cb in on_block:
                    cb(step.enter_start, step.enter_size)
            if (
                block_hook is not None
                and step.enter_proc is not None
                and step.enter_bid is not None
            ):
                block_hook(step.enter_proc, step.enter_bid)

    return ExecutionResult(instructions=instructions, events=events, blocks=blocks_executed)


# -- the per-layout view -----------------------------------------------

_S = TypeVar("_S")

#: A per-site summary as :meth:`_Layout.summary` returns it: the probe's
#: result plus the real target address behind each stand-in target.
_Summary = Tuple[_S, List[int]]

#: A summary probe: fed a site's events, then ``repeats`` more copies of
#: the last one.
_Probe = Callable[[List[Event], int], _S]

#: Template id -> the events one predictor must still see of that step.
_Rest = Dict[int, Tuple[Event, ...]]


class _Layout:
    """One layout's event totals and table-predictor sites."""

    def __init__(self, linked: LinkedProgram, trace: DecisionTrace, compiled: List[_Step]):
        self.trace = trace
        self.compiled = compiled
        self.instructions = 0
        for (proc, bid), visits in trace.visit_counts(linked.program).items():
            self.instructions += visits * linked.block(proc, bid).size
        self.events = 0
        #: Executed events per kind (``tr.COND`` ... ``tr.RET``).
        self.kinds = [0] * (tr.RET + 1)
        self.cond_taken = 0
        #: site -> [visits, taken] for every executed conditional site.
        self.cond_sites: Dict[int, List[int]] = {}
        #: site -> (template id, event position) of every executed event
        #: a table predictor sees there (all kinds but returns).
        self.sites: Dict[int, List[Tuple[int, int]]] = {}
        #: Template id -> its conditional event, for every conditional step.
        self.cond_events: _Rest = {}
        self._relabel: Optional[List[int]] = None
        for tid, (step, count) in enumerate(zip(compiled, trace.counts)):
            if not step.events or not count:
                continue
            self.events += len(step.events) * count
            for pos, event in enumerate(step.events):
                kind, site, _target, taken = event
                self.kinds[kind] += count
                if kind == tr.RET:
                    continue
                self.sites.setdefault(site, []).append((tid, pos))
                if kind == tr.COND:
                    self.cond_events[tid] = (event,)
                    entry = self.cond_sites.setdefault(site, [0, 0])
                    entry[0] += count
                    if taken:
                        entry[1] += count
                        self.cond_taken += count

    def relabel(self) -> List[int]:
        """Return-stack stand-in value -> this layout's return address."""
        if self._relabel is None:
            site_ids = self.trace.call_site_ids()
            relabel = [0] * (len(site_ids) + 1)
            for template, step in zip(self.trace.templates, self.compiled):
                if template[0] == T_CALL:
                    site_id = site_ids[(template[1], template[2], template[3])]
                    relabel[site_id + 1] = step.events[0][1] + INSTRUCTION_BYTES
            self._relabel = relabel
        return self._relabel

    def last_access(self, site: int) -> Tuple[int, int]:
        """(step, event position) of the last event at ``site``."""
        last = self.trace.last_steps()
        return max((last[tid], pos) for tid, pos in self.sites[site])

    def summary(self, site: int, probe: _Probe[_S]) -> Optional[_Summary[_S]]:
        """``probe`` run on ``site``'s own event stream (cached per trace).

        The stream carries stand-ins — site 0, and target ``i`` for the
        i-th distinct real target — so one summary serves every layout
        that gives the site the same templates, senses and target
        equalities.  None when the site's templates leave from more than
        one source, which has no single stream to summarise.
        """
        targets: Dict[int, int] = {}
        signature: List[Tuple[int, int, bool, int]] = []
        for tid, pos in self.sites[site]:
            kind, _site, target, taken = self.compiled[tid].events[pos]
            signature.append((tid, kind, taken, targets.setdefault(target, len(targets))))
        trace = self.trace

        def build() -> Optional[_S]:
            sources = {template_source(trace.templates[tid]) for tid, *_ in signature}
            source = sources.pop() if len(sources) == 1 else None
            if source is None:
                return None
            stand_in = {tid: (kind, 0, target, taken) for tid, kind, taken, target in signature}
            if len(stand_in) == 1:  # one template: one event, repeated
                ((tid, event),) = stand_in.items()
                return probe([event], trace.counts[tid] - 1)
            stream: Iterable[int] = trace.source_streams()[source]
            if len(stand_in) < len(trace.sources()[source]):
                stream = filter(stand_in.__contains__, stream)
            return probe(list(map(stand_in.__getitem__, stream)), 0)

        result = trace.summary((probe, tuple(signature)), build)
        return None if result is None else (result, list(targets))

    def rest(self, sites: Iterable[int]) -> _Rest:
        """The events at ``sites``, grouped by template in step order."""
        picked: Dict[int, List[int]] = {}
        for site in sites:
            for tid, pos in self.sites[site]:
                picked.setdefault(tid, []).append(pos)
        return {
            tid: tuple(self.compiled[tid].events[pos] for pos in sorted(positions))
            for tid, positions in picked.items()
        }


# -- aggregate tier ------------------------------------------------------


def _serve_ras(ras: ReturnStack, layout: _Layout) -> int:
    """Apply the layout's calls and returns to ``ras``; returns mispredicts."""
    pops, correct = ras.pops, ras.correct
    if ras.empty:
        ras.adopt(layout.trace.ras_run(ras.depth), layout.relabel())
    else:
        layout.trace.ras_walk(ras, layout.relabel())
    return (ras.pops - pops) - (ras.correct - correct)


def _serve_unconditional(sim: BranchArchSim, layout: _Layout) -> None:
    """Static/PHT penalties of every event but conditionals (section 6)."""
    kinds = layout.kinds
    sim.counts.misfetches += kinds[tr.UNCOND] + kinds[tr.CALL]
    sim.counts.mispredicts += (
        kinds[tr.ICALL] + kinds[tr.INDIRECT] + _serve_ras(sim.ras, layout)
    )


def _serve_static(sim: BranchArchSim, layout: _Layout) -> None:
    """Apply a whole replay to a stateless-per-site static predictor.

    Uses the sim's own ``predict_cond`` once per site: the prediction is
    layout-adjusted (BT/FNT reads the layout's taken target, likely bits
    flip with inversions) but fixed for the whole run.
    """
    counts = sim.counts
    for site, (visits, taken) in layout.cond_sites.items():
        counts.cond_executed += visits
        if sim.predict_cond(site):
            counts.cond_correct += taken
            counts.misfetches += taken
            counts.mispredicts += visits - taken
        else:
            counts.cond_correct += visits - taken
            counts.mispredicts += taken
    _serve_unconditional(sim, layout)


_AGGREGATE_TYPES = (FallthroughSim, BTFNTSim, LikelySim)


# -- slot tier -----------------------------------------------------------


def _fast_forward(
    feed: Callable[[Iterable[Event]], None],
    events: List[Event],
    repeats: int,
    observe: Callable[[], object],
    tally: Callable[[], Tuple[int, ...]],
) -> Tuple[int, ...]:
    """Feed ``events`` and ``repeats`` more copies of the last one.

    ``observe`` reads every piece of predictor state an event's outcome
    depends on, ``tally`` the predictor's running totals.  Once a copy
    leaves the observed state unchanged, every further copy repeats its
    effect, so the rest are added as a multiple of it instead of being
    fed.  Returns the final totals.
    """
    feed(events)
    skipped = [0] * len(tally())
    while repeats:
        state, before = observe(), tally()
        feed(events[-1:])
        repeats -= 1
        if observe() == state:
            skipped = [repeats * (after - was) for after, was in zip(tally(), before)]
            break
    return tuple(total + extra for total, extra in zip(tally(), skipped))


def _counts_tally(counts: PenaltyCounts) -> Tuple[int, ...]:
    return (counts.misfetches, counts.mispredicts, counts.cond_executed, counts.cond_correct)


def _pht_probe(events: List[Event], repeats: int) -> Tuple[PenaltyCounts, int, int]:
    """A fresh per-site PHT over one site: counts, start and final counter."""
    probe = DirectMappedPHT(1)
    counters = probe.table.counters
    start = counters[0]
    totals = _fast_forward(
        probe.feed, events, repeats, lambda: counters[0], lambda: _counts_tally(probe.counts)
    )
    return PenaltyCounts(*totals), start, counters[0]


def _btb_probe(
    events: List[Event], repeats: int
) -> Tuple[PenaltyCounts, int, int, int, Optional[_BTBEntry]]:
    """A fresh BTB over one site: counts, hits, misses, clock ticks, entry."""
    probe = BTBSim(1, 1)
    btb = probe.btb
    bucket = btb._sets[0]

    def observe() -> object:
        entry = bucket.get(0)
        return None if entry is None else (entry.target, entry.counter)

    def tally() -> Tuple[int, ...]:
        return _counts_tally(probe.counts) + (btb.hits, btb.misses, btb._clock)

    *totals, hits, misses, ticks = _fast_forward(probe.feed, events, repeats, observe, tally)
    return PenaltyCounts(*totals), hits, misses, ticks, bucket.get(0)


def _pht_slots(sim: DirectMappedPHT, layout: _Layout) -> _Rest:
    """Answer every single-site counter at power-up from its summary.

    Returns the conditional events of the other counters' sites.
    """
    counters = sim.table.counters
    by_slot: Dict[int, List[int]] = {}
    for site in layout.cond_sites:
        by_slot.setdefault(sim.slot(site), []).append(site)
    shared: List[int] = []
    for slot, sites in by_slot.items():
        summary = layout.summary(sites[0], _pht_probe) if len(sites) == 1 else None
        if summary is None or counters[slot] != summary[0][1]:
            shared.extend(sites)
            continue
        counts, _start, final = summary[0]
        sim.counts.add(counts)
        counters[slot] = final
    return layout.rest(shared)


def _btb_sets(sim: BTBSim, layout: _Layout) -> _Rest:
    """Answer every empty set with no more sites than ways from summaries.

    Such a set never evicts, so each site's entry evolves alone; the
    entries are written back with stamps in the sites' last-access
    order, and the clock advances by exactly the ticks the events
    would have taken.  Returns the events of every other set's sites.
    """
    btb = sim.btb
    by_set: Dict[int, List[int]] = {}
    for site in layout.sites:
        by_set.setdefault(btb.set_index(site), []).append(site)
    clock = btb._clock
    shared: List[int] = []
    for index, sites in by_set.items():
        bucket = btb._sets[index]
        summaries = [] if bucket or len(sites) > btb.assoc else [
            layout.summary(site, _btb_probe) for site in sites
        ]
        if not summaries or None in summaries:
            shared.extend(sites)
            continue
        present: List[Tuple[Tuple[int, int], int, _BTBEntry, int]] = []
        for site, summary in zip(sites, summaries):
            assert summary is not None
            (counts, hits, misses, ticks, entry), targets = summary
            sim.counts.add(counts)
            btb.hits += hits
            btb.misses += misses
            btb._clock += ticks
            if entry is not None:
                present.append((layout.last_access(site), site, entry, targets[entry.target]))
        present.sort()
        for rank, (_last, site, entry, target) in enumerate(present, 1):
            bucket[site] = _BTBEntry(target, entry.counter, clock + rank)
    return layout.rest(shared)


# -- feed and faithful tiers ----------------------------------------------


def _feed_without_ras(sim: BTBSim) -> Callable[[Iterable[Event]], None]:
    """``sim.feed`` pushing calls to a scratch stack: the aggregate tier
    already served the sim's own return stack."""

    def feed(events: Iterable[Event]) -> None:
        ras = sim.ras
        sim.ras = ReturnStack(ras.depth)
        try:
            sim.feed(events)
        finally:
            sim.ras = ras

    return feed


def _per_event(on_event: Callable[[Event], None]) -> Callable[[Iterable[Event]], None]:
    def feed(events: Iterable[Event]) -> None:
        for event in events:
            on_event(event)

    return feed


#: ``feed`` kernels that follow the static/PHT penalty rules for every
#: event but conditionals, so they need only their conditional events.
_COND_FEEDS = (BranchArchSim.feed, DirectMappedPHT.feed, CorrelationPHT.feed)


def run_architectures(
    linked: LinkedProgram,
    trace: DecisionTrace,
    sims: Sequence[Any],
    max_events: Optional[int] = None,
) -> Tuple[int, int, int, int]:
    """Feed every simulator one replay of ``trace`` under ``linked``.

    Returns ``(instructions, events, cond_executed, cond_taken)`` — the
    stream totals the :class:`SimulationReport` header wants.  Each sim
    is served by the cheapest faithful tier its methods allow (see the
    module docstring); a ``max_events`` cap forces the fully faithful
    path because aggregate totals have no notion of a mid-stream cut.
    """
    if max_events is not None:
        mix = CondMixListener()
        result = replay(linked, trace, listeners=[*sims, mix], max_events=max_events)
        return result.instructions, result.events, mix.executed, mix.taken

    layout = _Layout(linked, trace, compile_steps(linked, trace))
    pending: List[Tuple[Callable[[Iterable[Event]], None], _Rest]] = []
    for sim in sims:
        cls = type(sim)
        on_event = getattr(cls, "on_event", None)
        if cls in _AGGREGATE_TYPES:
            _serve_static(sim, layout)
        elif on_event is BranchArchSim.on_event and cls.feed in _COND_FEEDS:
            _serve_unconditional(sim, layout)
            if cls.feed is DirectMappedPHT.feed:
                pending.append((sim.feed, _pht_slots(sim, layout)))
            else:
                pending.append((sim.feed, layout.cond_events))
        elif on_event is BTBSim.on_event and cls.feed is BTBSim.feed:
            sim.counts.mispredicts += _serve_ras(sim.ras, layout)
            pending.append((_feed_without_ras(sim), _btb_sets(sim, layout)))
        else:
            every = {tid: step.events for tid, step in enumerate(layout.compiled) if step.events}
            pending.append((_per_event(sim.on_event), every))

    pending = [(feed, rest) for feed, rest in pending if rest]
    if pending:
        wanted = frozenset(chain.from_iterable(rest for _, rest in pending))
        stream = trace.substream(wanted)
        for feed, rest in pending:
            tids: Iterable[int] = stream
            if len(rest) < len(wanted):
                tids = filter(rest.__contains__, stream)
            if all(len(step_events) == 1 for step_events in rest.values()):
                pick = {tid: step_events[0] for tid, step_events in rest.items()}
                events: Iterable[Event] = map(pick.__getitem__, tids)  # no chain needed
            else:
                events = chain.from_iterable(map(rest.__getitem__, tids))
            # Bounded lists, which the kernels walk fastest.
            while chunk := list(islice(events, CHUNK_STEPS)):
                feed(chunk)

    kinds = layout.kinds
    return layout.instructions, layout.events, kinds[tr.COND], layout.cond_taken
