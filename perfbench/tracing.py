"""In-memory spans around the calls into each layer, and their attribution.

The traced run wraps public functions in the modules where the pipeline
looks them up (``repro.analysis.experiment.simulate``,
``repro.oracle.alignment_layouts``, ...), so nothing under ``src/``
changes.  Each wrapper opens a span: a name, a start and end on the
monotonic clock, the process that recorded it and the span that was
open when it started.  Spans stay in memory and are read when the run
ends.

Fabric workers are forked from the traced process, so they inherit the
wrappers.  A worker appends its own spans and counts to a spool file
after every unit; the parent reads the spool when ``run_fabric``
returns.  A worker's first span hangs under the parent span that was
open when the worker forked (``fabric.run``).

Attribution turns spans into self times that add up.  Within a process
each instant belongs to the innermost open span.  While worker processes
have spans open, the instant is shared equally among the workers'
innermost spans instead of going to the parent; otherwise it goes to the
parent's innermost span.  So every span's self time is its duration
minus what its children cover, and the self times of all spans plus the
unattributed time equal the traced wall time exactly.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    """One timed call into a layer."""

    sid: str
    parent: Optional[str]
    name: str
    pid: int
    start: float
    end: float


class Tracer:
    """Records spans and counts for one process (and its forked workers)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.stack: List[str] = []
        self._serial = itertools.count()

    def _claim(self) -> None:
        # A forked worker inherits the parent's records: it drops them and
        # keeps only the open stack, so its spans hang under the parent's.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.counts = Counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one span named ``name``."""
        self._claim()
        sid = f"{self.pid}:{next(self._serial)}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append(Span(sid, parent, name, self.pid, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self._claim()
        self.counts[name] += amount

    def spool(self, directory: Path) -> None:
        """Append this worker's records to its spool file and forget them."""
        path = Path(directory) / f"spans-{self.pid}.jsonl"
        record = {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = Counter()

    def absorb(self, directory: Path) -> None:
        """Take in (and delete) every worker spool file in ``directory``."""
        for path in sorted(Path(directory).glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                self.spans.extend(Span(**s) for s in record["spans"])
                self.counts.update(record["counts"])
            path.unlink()


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def _innermost(spans: Sequence[Span]) -> List[Tuple[float, float, str]]:
    """``(start, end, sid)`` segments: each instant's innermost open span.

    Spans of one process nest properly, so a stack sweep in start order
    finds, between consecutive boundaries, the deepest open span.
    """
    segments: List[Tuple[float, float, str]] = []
    stack: List[Span] = []
    now = 0.0

    def emit(until: float, sid: str) -> None:
        if until > now:
            segments.append((now, until, sid))

    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        while stack and stack[-1].end <= span.start:
            top = stack.pop()
            emit(top.end, top.sid)
            now = max(now, top.end)
        if stack:
            emit(span.start, stack[-1].sid)
        stack.append(span)
        now = span.start
    while stack:
        top = stack.pop()
        emit(top.end, top.sid)
        now = max(now, top.end)
    return segments


def attribute(spans: Sequence[Span], main_pid: int) -> Dict[str, float]:
    """Self time of every span (by ``sid``), shared as the module says."""
    by_pid: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_pid[span.pid].append(span)
    timelines = {pid: _innermost(group) for pid, group in by_pid.items()}
    cuts = sorted({t for segs in timelines.values() for seg in segs for t in seg[:2]})
    cursor = {pid: 0 for pid in timelines}
    self_time: Dict[str, float] = {span.sid: 0.0 for span in spans}
    for low, high in zip(cuts, cuts[1:]):
        open_now: Dict[int, str] = {}
        for pid, segs in timelines.items():
            i = cursor[pid]
            while i < len(segs) and segs[i][1] <= low:
                i += 1
            cursor[pid] = i
            if i < len(segs) and segs[i][0] <= low:
                open_now[pid] = segs[i][2]
        workers = [sid for pid, sid in open_now.items() if pid != main_pid]
        if workers:
            share = (high - low) / len(workers)
            for sid in workers:
                self_time[sid] += share
        elif main_pid in open_now:
            self_time[open_now[main_pid]] += high - low
    return self_time


def check_nesting(spans: Sequence[Span]) -> List[str]:
    """Every violation of "a span lies inside its parent"."""
    by_sid = {span.sid: span for span in spans}
    problems = []
    for span in spans:
        if span.end < span.start:
            problems.append(f"{span.name} ends before it starts")
        parent = by_sid.get(span.parent) if span.parent else None
        if span.parent and parent is None:
            problems.append(f"{span.name} has an unknown parent {span.parent}")
        elif parent is not None and not (parent.start <= span.start and span.end <= parent.end):
            problems.append(f"{span.name} is not inside its parent {parent.name}")
    return problems


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def alignment_request(aligner: Any, program: Any, profile: Any) -> Tuple:
    """What makes two ``align`` calls the same work: the same program and
    profile objects, and an aligner of the same class and settings (a
    cost model counts by its class)."""
    settings = tuple(sorted(
        (key, value if isinstance(value, (str, int, float, bool, type(None)))
         else type(value).__name__)
        for key, value in vars(aligner).items()
    ))
    return id(program), id(profile), type(aligner).__name__, settings


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _module(name: str) -> Any:
    # ``repro.sim.replay`` is also the name of a function in ``repro.sim``,
    # so modules are always taken from sys.modules, never by attribute.
    __import__(name)
    return sys.modules[name]


class Recorder:
    """The oracle's and prover's verdicts of one run, per benchmark.

    Recording is on in every run, traced or not: the verdicts are part of
    the digest the correctness gate checks.
    """

    def __init__(self) -> None:
        self.benchmark = ""
        self.verdicts: Dict[str, Dict[str, Dict[str, bool]]] = {}

    def reset(self) -> None:
        self.verdicts = {}

    def note(self, judge: str, labels: Dict[str, bool]) -> None:
        slot = self.verdicts.setdefault(self.benchmark, {}).setdefault(judge, {})
        slot.update(labels)


def install_recorder(patches: Patches, recorder: Recorder) -> None:
    """Record verdicts; which unit is running comes from ``execute_unit``."""
    runner = _module("repro.runner.runner")
    oracle = _module("repro.oracle")
    binary = _module("repro.staticcheck.binary")

    def unit(original: Callable) -> Callable:
        @wraps(original)
        def wrapper(task: Any, *args: Any, **kwargs: Any) -> Any:
            recorder.benchmark = task.benchmark
            return original(task, *args, **kwargs)
        return wrapper

    def verify(original: Callable) -> Callable:
        @wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            reports = original(*args, **kwargs)
            recorder.note("oracle", {r.label: r.passed for r in reports})
            return reports
        return wrapper

    def prove(original: Callable) -> Callable:
        @wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            proofs = original(*args, **kwargs)
            recorder.note("prove", {label: p.bisimilar for label, p in proofs.items()})
            return proofs
        return wrapper

    patches.wrap(runner, "execute_unit", unit)
    patches.wrap(oracle, "verify_alignments", verify)
    patches.wrap(binary, "prove_layouts", prove)


def aligner_names_by_class() -> Dict[type, str]:
    """Registry name of every aligner class the registry fields."""
    from repro.core.registry import aligner_names, get_spec
    from repro.sim.metrics import ALL_ARCHS

    names: Dict[type, str] = {}
    for name in aligner_names():
        spec = get_spec(name)
        if spec.identity:
            continue
        for variant in spec.plan(ALL_ARCHS).variants:
            names.setdefault(type(variant.aligner), name)
    return names


def install_tracer(patches: Patches, tracer: Tracer, spool: Path) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at.

    Install after :func:`install_recorder`, so unit spans enclose it.
    """
    runner = _module("repro.runner.runner")
    store = _module("repro.runner.store")
    decisions = _module("repro.sim.decisions")
    experiment = _module("repro.analysis.experiment")
    oracle = _module("repro.oracle")
    binary = _module("repro.staticcheck.binary")
    staticcheck = _module("repro.staticcheck")
    fabric = _module("repro.fabric")
    workers = _module("repro.fabric.workers")
    metrics = _module("repro.sim.metrics")
    distinct: set = set()

    def timed(name: str, after: Optional[Callable[[Any, tuple], None]] = None):
        def make(original: Callable) -> Callable:
            @wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            return wrapper
        return make

    def captured(trace: Any, _args: tuple) -> None:
        tracer.count("sim.capture_steps", trace.steps)

    def looked_up(result: Any, args: tuple) -> None:
        if args and args[0] is not None:
            tracer.count("runner.trace_lookups")
            tracer.count("runner.trace_hits", int(bool(result[1])))

    def verified(reports: Any, _args: tuple) -> None:
        tracer.count("oracle.layouts", len(reports))

    def proved(proofs: Any, _args: tuple) -> None:
        tracer.count("staticcheck.proofs", len(proofs))

    def aligned(_layout: Any, args: tuple) -> None:
        tracer.count("core.layouts_aligned")
        distinct.add(alignment_request(*args[:3]))

    def fabric_ran(result: Any, _args: tuple) -> None:
        tracer.absorb(spool)
        records = [result.scheduler.record(uid) for uid in result.scheduler.order]
        tracer.count("fabric.units", len(records))
        tracer.count("fabric.attempts", sum(r.attempts for r in records))

    def unit(in_worker: bool) -> Callable[[Callable], Callable]:
        # A unit is one benchmark, and an alignment can only repeat
        # within one, so distinct alignments are counted per unit.
        def make(original: Callable) -> Callable:
            @wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                try:
                    with tracer.span("runner"):
                        return original(*args, **kwargs)
                finally:
                    tracer.count("core.layouts_distinct", len(distinct))
                    distinct.clear()
                    if in_worker:
                        tracer.spool(spool)
            return wrapper
        return make

    def replay_per_arch(original: Callable) -> Callable:
        # One replay per architecture, so each gets its own span.  The
        # shared step compilation and event realisation are repeated per
        # architecture; the cost shows in trace.overhead_s.
        @wraps(original)
        def wrapper(linked: Any, profile: Any, archs: Any = None, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("sim.replay"):
                if archs is None:
                    archs = metrics.default_architectures(linked, profile)
                report = None
                for sim in dict.fromkeys(archs):
                    with tracer.span(f"sim.replay.{sim.name}"):
                        part = original(linked, profile, [sim], *args, **kwargs)
                    if report is None:
                        report = part
                    else:
                        report.arch.update(part.arch)
            tracer.count("sim.replay_events", report.events if report else 0)
            return report
        return wrapper

    patches.wrap(runner, "execute_unit", unit(in_worker=False))
    patches.wrap(workers, "execute_unit", unit(in_worker=True))
    patches.wrap(runner, "generate_benchmark", timed("workloads.generate"))
    patches.wrap(runner, "profile_program", timed("profiling.edge_profile"))
    patches.wrap(runner, "load_or_capture", timed("runner", looked_up))
    patches.wrap(decisions, "capture_decisions", timed("sim.capture", captured))
    patches.wrap(decisions, "decode_trace", timed("runner.store.load"))
    patches.wrap(decisions, "encode_trace", timed("runner.store.put"))
    patches.wrap(decisions.DecisionTrace, "edge_profile", timed("profiling.edge_profile"))
    patches.wrap(store.ArtifactStore, "load", timed("runner.store.load"))
    patches.wrap(store.ArtifactStore, "put", timed("runner.store.put"))
    patches.wrap(staticcheck, "run_lint", timed("staticcheck.lint"))
    patches.wrap(oracle, "alignment_layouts", timed("core.align"))
    patches.wrap(oracle, "verify_alignments", timed("oracle.verify", verified))
    patches.wrap(binary, "prove_layouts", timed("staticcheck.prove", proved))
    patches.wrap(experiment, "link", timed("isa.link"))
    patches.wrap(experiment, "link_identity", timed("isa.link"))
    patches.wrap(experiment, "simulate", replay_per_arch)
    patches.wrap(fabric, "run_fabric", timed("fabric.run", fabric_ran))
    for cls, name in aligner_names_by_class().items():
        patches.wrap(cls, "align", timed(f"core.align.{name}", aligned))
