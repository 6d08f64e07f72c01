"""Layout-independent decision traces (the trace-once half of replay).

The paper's ATOM methodology traces each binary **once** and evaluates
every alignment/architecture combination against that single trace.  The
branch *decision* stream — which CFG successor every block picked, which
callee every indirect call resolved to — is a property of the workload
and seed alone; alignment only changes addresses and branch senses.

This module captures that stream without ever linking a binary.  One
walk of the :class:`~repro.cfg.Program` (consuming behaviours in exactly
the order :func:`repro.sim.executor.execute` would) produces a
:class:`DecisionTrace`: a small table of *step templates* (one per
distinct control transfer) plus a packed, chunked stream of template
ids.  Loops compress extremely well under this encoding — a million
iterations of a two-block loop are two templates and a million 8-byte
ids, streamed in bounded-memory chunks.

Traces persist through the crash-safe artifact store
(:mod:`repro.runner.store`) under a fingerprint covering the structure
of the captured program, the workload identity *and* the trace/ISA
schema versions, with an internal SHA-256 digest on top of the store's
own manifest checksum.  Any cache miss, staleness or corruption is
handled by quarantining the entry and transparently re-capturing — a
trace cache can never make a run wrong, only faster.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Hashable, Iterator, List, Optional
from typing import Protocol, Sequence, Tuple, TypeVar, cast

if TYPE_CHECKING:
    from ..profiling.edge_profile import EdgeProfile

from ..cfg import BlockId, Program, TerminatorKind, program_fingerprint
from ..isa.encoder import INSTRUCTION_BYTES
from ..isa.serialize import FORMAT_VERSION as ISA_FORMAT_VERSION
from .executor import ExecutionError
from .predictors.ras import ReturnStack

#: Bump to invalidate every previously cached trace (schema evolution).
TRACE_SCHEMA_VERSION = 1

#: Template ids per stream chunk (64 KiB of packed ids at 8 bytes each).
CHUNK_STEPS = 8192

#: Step-template kinds (slot 0 of every template tuple).
T_BRANCH = 0  #: (T_BRANCH, proc, bid, succ_bid) — any intra-proc transfer
T_CALL = 1    #: (T_CALL, proc, bid, call_idx, callee) — direct or indirect
T_RET = 2     #: (T_RET, proc, bid, caller_proc, caller_bid, resume_idx)
T_FINAL = 3   #: (T_FINAL, proc, bid) — return from the entry procedure

_STREAM_TYPECODE = "q"

_T = TypeVar("_T")


def template_source(template: Tuple) -> Optional[Tuple]:
    """The control site a step template leaves from, as a layout-free key.

    Intra-procedural transfers leave from their block, calls from their
    call site (block and call index); every template of one source
    reaches the branch predictors through the same site in any layout.
    Returns leave through the return stack only, so they have no source.
    """
    kind = template[0]
    if kind == T_BRANCH:
        return (template[1], template[2])
    if kind == T_CALL:
        return (template[1], template[2], template[3])
    return None


class TraceDecodeError(ValueError):
    """A persisted trace payload is stale, corrupt or malformed.

    ``reason`` is machine-checkable: ``stale-schema``, ``stale-fingerprint``,
    ``digest-mismatch`` or ``malformed``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        message = f"decision trace unusable ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


def trace_fingerprint(program: Program, workload: str, scale: float, seed: int) -> str:
    """Cache fingerprint for the trace of ``program`` run with ``seed``.

    The program's structural digest (:func:`repro.cfg.program_fingerprint`)
    tells a transformed program — melded, say — from the workload it was
    generated as; ``(workload, scale)`` fix the behaviours, which come
    from ``generate_benchmark(workload, scale)`` and which no structural
    digest sees.  The fingerprint also covers the trace schema and the
    ISA encoding versions: bumping either invalidates every cached trace
    without touching the store on disk (old entries simply stop being
    addressed, and ``repro doctor --store --repair`` sweeps them out as
    stale).
    """
    blob = json.dumps(
        {
            "program": program_fingerprint(program),
            "workload": workload,
            "scale": scale,
            "seed": seed,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "isa_format": ISA_FORMAT_VERSION,
            "instruction_bytes": INSTRUCTION_BYTES,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def trace_key(workload: str, fingerprint: str) -> str:
    """Artifact-store key for a cached decision trace."""
    return f"trace/{workload}@{fingerprint}"


def is_trace_key(key: str) -> bool:
    """True if ``key`` names a cached decision trace."""
    return key.startswith("trace/")


class DecisionTrace:
    """A captured, layout-independent decision stream.

    ``templates[i]`` describes one distinct control transfer (see the
    ``T_*`` tuples above); ``counts[i]`` is its execution count; the
    chunked ``_chunks`` arrays hold the step stream as template ids in
    execution order.  Everything a replay needs that does not depend on
    the layout — block visit counts, the reconstructed edge profile,
    the return-stack run, per-source step streams, per-site predictor
    summaries — is derived (and cached) here.
    """

    def __init__(
        self,
        templates: List[Tuple],
        counts: List[int],
        chunks: List[array],
        steps: int,
        meta: Optional[Dict[str, object]] = None,
        fingerprint: Optional[str] = None,
    ):
        self.templates = templates
        self.counts = counts
        self._chunks = chunks
        self.steps = steps
        self.meta = dict(meta or {})
        self.fingerprint = fingerprint
        #: The trace-cache key :func:`load_or_capture` looked it up under.
        self.key: Optional[str] = None
        self._visit_counts: Optional[Dict[Tuple[str, BlockId], int]] = None
        self._ras_runs: Dict[int, ReturnStack] = {}
        self._sources: Optional[Dict[Tuple, List[int]]] = None
        self._source_streams: Optional[Dict[Tuple, array]] = None
        self._last_steps: Optional[array] = None
        self._substream: Optional[Tuple[FrozenSet[int], array]] = None
        self._summaries: Dict[Hashable, object] = {}

    # -- stream access -------------------------------------------------
    def iter_chunks(self) -> Iterator[array]:
        """Yield the packed template-id stream chunk by chunk."""
        return iter(self._chunks)

    def iter_steps(self) -> Iterator[int]:
        """Yield every template id in execution order."""
        for chunk in self._chunks:
            yield from chunk

    def _id_typecode(self) -> str:
        return "H" if len(self.templates) <= 0xFFFF else "L"

    def sources(self) -> Dict[Tuple, List[int]]:
        """Every control source's templates (see :func:`template_source`)."""
        if self._sources is None:
            members: Dict[Tuple, List[int]] = {}
            for tid, template in enumerate(self.templates):
                source = template_source(template)
                if source is not None:
                    members.setdefault(source, []).append(tid)
            self._sources = members
        return self._sources

    def source_streams(self) -> Dict[Tuple, array]:
        """Each multi-template source's own step stream, in order (cached).

        A source with one template has none: its stream is that
        template, ``counts[tid]`` times.
        """
        if self._source_streams is None:
            streams: Dict[Tuple, array] = {}
            appenders: Dict[int, Callable[[int], None]] = {}
            for source, tids in self.sources().items():
                if len(tids) > 1:
                    stream = streams[source] = array(self._id_typecode())
                    appenders.update(dict.fromkeys(tids, stream.append))
            for tid in filter(appenders.__contains__, chain.from_iterable(self._chunks)):
                appenders[tid](tid)
            self._source_streams = streams
        return self._source_streams

    def last_steps(self) -> array:
        """Per template, the index of the last step that ran it (cached)."""
        if self._last_steps is None:
            last = array("q", [-1]) * len(self.templates)
            missing = set(range(len(self.templates)))
            end = sum(len(chunk) for chunk in self._chunks)
            for chunk in reversed(self._chunks):
                end -= len(chunk)
                found = missing.intersection(chunk)
                if found:
                    missing -= found
                    backwards = chunk[::-1]
                    for tid in found:
                        last[tid] = end + len(chunk) - 1 - backwards.index(tid)
                if not missing:
                    break
            self._last_steps = last
        return self._last_steps

    def substream(self, tids: FrozenSet[int]) -> array:
        """The step stream restricted to the templates ``tids``, in order.

        The last restriction is cached: layouts of one program mostly
        ask for the same one (their conditional templates).
        """
        if self._substream is None or self._substream[0] != tids:
            steps = chain.from_iterable(self._chunks)
            self._substream = (tids, array(self._id_typecode(), filter(tids.__contains__, steps)))
        return self._substream[1]

    def summary(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()``, computed once per ``key`` for the trace's lifetime.

        Replay caches its per-site predictor summaries here: they depend
        on the decision stream, never on the layout being replayed.
        """
        if key not in self._summaries:
            self._summaries[key] = build()
        return cast(_T, self._summaries[key])

    # -- layout-independent aggregates ---------------------------------
    def entered_block(self, template: Tuple, program: Program) -> Optional[Tuple[str, BlockId]]:
        """The block a step of this template enters fresh (None for returns)."""
        kind = template[0]
        if kind == T_BRANCH:
            return (template[1], template[3])
        if kind == T_CALL:
            callee = template[4]
            return (callee, program.procedure(callee).entry)
        return None

    def visit_counts(self, program: Program) -> Dict[Tuple[str, BlockId], int]:
        """Execution count per block, including the program entry block."""
        if self._visit_counts is None:
            visits: Dict[Tuple[str, BlockId], int] = {}
            entry = (program.entry, program.procedure(program.entry).entry)
            visits[entry] = 1
            for template, count in zip(self.templates, self.counts):
                key = self.entered_block(template, program)
                if key is not None:
                    visits[key] = visits.get(key, 0) + count
            self._visit_counts = visits
        return self._visit_counts

    def edge_profile(self, program: Program) -> EdgeProfile:
        """Reconstruct the exact edge profile a profiled run would record.

        The executor's ``profile_hook`` fires once per intra-procedural
        transfer — precisely the ``T_BRANCH`` steps — so the reconstructed
        profile equals ``profile_program``'s output bit for bit.
        """
        from ..profiling.edge_profile import EdgeProfile

        profile = EdgeProfile()
        for template, count in zip(self.templates, self.counts):
            if template[0] == T_BRANCH and count:
                profile.set_weight(template[1], template[2], template[3], count)
        return profile

    def call_site_ids(self) -> Dict[Tuple[str, BlockId, int], int]:
        """Dense ids for the call sites the trace executed, in first-seen order."""
        ids: Dict[Tuple[str, BlockId, int], int] = {}
        for template in self.templates:
            if template[0] == T_CALL:
                site = (template[1], template[2], template[3])
                ids.setdefault(site, len(ids))
        return ids

    def ras_walk(self, ras: ReturnStack, relabel: Sequence[int]) -> None:
        """Run the trace's calls and returns through ``ras``.

        A call pushes, and a return pops, stand-in value ``id + 1`` of
        the call site involved (see :meth:`call_site_ids`); the final
        return pops the sentinel 0.  ``relabel[v]`` is the value actually
        pushed or compared for stand-in ``v`` — the return addresses of
        one layout, or the identity.
        """
        site_ids = self.call_site_ids()
        actions: Dict[int, Tuple[bool, int]] = {}  # tid -> (is_push, stand-in)
        for tid, template in enumerate(self.templates):
            kind = template[0]
            if kind == T_CALL:
                actions[tid] = (True, site_ids[(template[1], template[2], template[3])] + 1)
            elif kind == T_RET:
                actions[tid] = (False, site_ids[(template[3], template[4], template[5] - 1)] + 1)
            elif kind == T_FINAL:
                actions[tid] = (False, 0)
        push, pop = ras.push, ras.pop_predict
        for tid in filter(actions.__contains__, chain.from_iterable(self._chunks)):
            is_push, value = actions[tid]
            if is_push:
                push(relabel[value])
            else:
                pop(relabel[value])

    def ras_run(self, depth: int) -> ReturnStack:
        """A ``depth``-entry return stack after the whole trace, from power-up.

        Return-stack behaviour is layout-invariant: pushed values are
        call-site return addresses and pop targets are those same
        addresses, so prediction outcomes depend only on call-site
        *identity* — which this replays with the stand-in values of
        :meth:`ras_walk` (the final return's sentinel 0 never matches a
        pushed value, exactly as address 0 never equals ``site + 4``).
        Cached per depth; relabel its entries to adopt it for a layout.
        """
        if depth not in self._ras_runs:
            ras = ReturnStack(depth)
            self.ras_walk(ras, range(len(self.call_site_ids()) + 1))
            self._ras_runs[depth] = ras
        return self._ras_runs[depth]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecisionTrace(steps={self.steps}, templates={len(self.templates)}, "
            f"fingerprint={self.fingerprint!r})"
        )


def capture_decisions(
    program: Program,
    seed: int = 0,
    reset: bool = True,
    workload: Optional[str] = None,
    scale: Optional[float] = None,
) -> DecisionTrace:
    """Capture the decision stream of one ``(program, seed)`` run.

    Walks the CFG consuming block behaviours in exactly the order
    :func:`repro.sim.executor.execute` does, so a trace captured here and
    an execution with the same seed make identical decisions.  No layout
    is involved: the walk sees only blocks, edges and callees.
    """
    if reset:
        program.reset_behaviors(seed)

    # Pre-resolve per-block walk records, validating like _compile_nodes.
    walk: Dict[str, Dict[BlockId, Tuple]] = {}
    entries: Dict[str, BlockId] = {}
    for proc in program:
        entries[proc.name] = proc.entry
        records: Dict[BlockId, Tuple] = {}
        for block in proc:
            ft = proc.fallthrough_edge(block.bid)
            taken = proc.taken_edge(block.bid)
            indirect_dsts: List[BlockId] = []
            if block.kind is TerminatorKind.INDIRECT:
                indirect_dsts = [e.dst for e in proc.out_edges(block.bid)]
                if block.behavior is None and len(indirect_dsts) > 1:
                    raise ExecutionError(
                        f"{proc.name}: indirect block {block.bid} with multiple "
                        f"targets needs a behaviour"
                    )
            if block.kind is TerminatorKind.COND and block.behavior is None:
                raise ExecutionError(
                    f"{proc.name}: conditional block {block.bid} needs a behaviour"
                )
            records[block.bid] = (
                block.kind,
                block.behavior,
                [(c.callee, c.chooser) for c in block.calls],
                ft.dst if ft is not None else None,
                taken.dst if taken is not None else None,
                indirect_dsts,
            )
        walk[proc.name] = records

    templates: List[Tuple] = []
    counts: List[int] = []
    template_ids: Dict[Tuple, int] = {}
    chunks: List[array] = []
    current = array(_STREAM_TYPECODE)
    steps = 0

    def record(template: Tuple) -> None:
        nonlocal current, steps
        tid = template_ids.get(template)
        if tid is None:
            tid = len(templates)
            template_ids[template] = tid
            templates.append(template)
            counts.append(0)
        counts[tid] += 1
        current.append(tid)
        steps += 1
        if len(current) >= CHUNK_STEPS:
            chunks.append(current)
            current = array(_STREAM_TYPECODE)

    cond_kind = TerminatorKind.COND
    ft_kind = TerminatorKind.FALLTHROUGH
    uncond_kind = TerminatorKind.UNCOND
    indirect_kind = TerminatorKind.INDIRECT

    stack: List[Tuple[str, BlockId, int]] = []
    proc_name = program.entry
    records = walk[proc_name]
    bid = entries[proc_name]
    call_idx = 0

    while True:
        kind, behavior, calls, ft_dst, taken_dst, indirect_dsts = records[bid]

        if call_idx < len(calls):
            callee, chooser = calls[call_idx]
            if chooser is not None:
                callee = chooser.choose()
            record((T_CALL, proc_name, bid, call_idx, callee))
            stack.append((proc_name, bid, call_idx + 1))
            proc_name = callee
            records = walk[proc_name]
            bid = entries[proc_name]
            call_idx = 0
            continue

        if kind is cond_kind:
            succ = taken_dst if behavior.choose() else ft_dst
        elif kind is ft_kind:
            succ = ft_dst
        elif kind is uncond_kind:
            succ = taken_dst
        elif kind is indirect_kind:
            if behavior is not None:
                succ = indirect_dsts[behavior.choose()]
            else:
                succ = indirect_dsts[0]
        else:  # RETURN
            if stack:
                ret_proc, ret_bid, ret_idx = stack.pop()
                record((T_RET, proc_name, bid, ret_proc, ret_bid, ret_idx))
                proc_name = ret_proc
                records = walk[proc_name]
                bid = ret_bid
                call_idx = ret_idx
                continue
            record((T_FINAL, proc_name, bid))
            break

        record((T_BRANCH, proc_name, bid, succ))
        bid = succ
        call_idx = 0

    if len(current):
        chunks.append(current)

    meta: Dict[str, object] = {"seed": seed}
    if workload is not None:
        meta["workload"] = workload
        meta["scale"] = scale
    return DecisionTrace(templates, counts, chunks, steps, meta)


# -- persistence -------------------------------------------------------


def _chunk_bytes(chunk: array) -> bytes:
    if sys.byteorder == "little":
        return chunk.tobytes()
    swapped = array(_STREAM_TYPECODE, chunk)
    swapped.byteswap()
    return swapped.tobytes()


def _digest(templates: List[Tuple], counts: List[int], chunks: Sequence[array]) -> str:
    hasher = hashlib.sha256()
    hasher.update(
        json.dumps([list(t) for t in templates], sort_keys=False).encode("utf-8")
    )
    hasher.update(json.dumps(counts).encode("utf-8"))
    for chunk in chunks:
        hasher.update(_chunk_bytes(chunk))
    return hasher.hexdigest()


def encode_trace(trace: DecisionTrace) -> Dict[str, object]:
    """Encode a trace as a JSON-able payload for the artifact store.

    The payload carries its own SHA-256 digest over templates + stream —
    a second integrity layer under the store's manifest checksum, so a
    payload that decodes as valid JSON but was tampered with (or written
    by a buggy producer) is still rejected as corrupt.
    """
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "fingerprint": trace.fingerprint,
        "meta": trace.meta,
        "steps": trace.steps,
        "templates": [list(t) for t in trace.templates],
        "counts": list(trace.counts),
        "stream": [
            base64.b64encode(_chunk_bytes(chunk)).decode("ascii")
            for chunk in trace.iter_chunks()
        ],
        "digest": _digest(trace.templates, trace.counts, list(trace.iter_chunks())),
    }


def decode_trace(
    payload: object, expect_fingerprint: Optional[str] = None
) -> DecisionTrace:
    """Decode a persisted trace payload, validating schema and digest.

    Raises :class:`TraceDecodeError` with a machine-checkable reason so
    callers can distinguish *stale* (schema/fingerprint drift — silently
    re-capture) from *corrupt* (digest mismatch — quarantine first).
    """
    if not isinstance(payload, dict):
        raise TraceDecodeError("malformed", "payload is not a mapping")
    schema = payload.get("schema")
    if schema != TRACE_SCHEMA_VERSION:
        raise TraceDecodeError(
            "stale-schema", f"schema {schema!r} != {TRACE_SCHEMA_VERSION}"
        )
    if expect_fingerprint is not None and payload.get("fingerprint") != expect_fingerprint:
        raise TraceDecodeError(
            "stale-fingerprint",
            f"{payload.get('fingerprint')!r} != {expect_fingerprint!r}",
        )
    try:
        templates = [tuple(t) for t in payload["templates"]]
        counts = [int(c) for c in payload["counts"]]
        steps = int(payload["steps"])
        chunks = []
        for encoded in payload["stream"]:
            chunk = array(_STREAM_TYPECODE)
            chunk.frombytes(base64.b64decode(encoded))
            if sys.byteorder != "little":
                chunk.byteswap()
            chunks.append(chunk)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceDecodeError("malformed", str(exc)) from exc
    if payload.get("digest") != _digest(templates, counts, chunks):
        raise TraceDecodeError("digest-mismatch")
    if sum(len(c) for c in chunks) != steps or sum(counts) != steps:
        raise TraceDecodeError("malformed", "step counts disagree with stream")
    n = len(templates)
    if any(tid < 0 or tid >= n for chunk in chunks for tid in chunk):
        raise TraceDecodeError("malformed", "stream references unknown template")
    return DecisionTrace(
        templates,
        counts,
        chunks,
        steps,
        payload.get("meta") or {},
        payload.get("fingerprint"),
    )


def validate_payload(payload: object, key: Optional[str] = None) -> DecisionTrace:
    """Doctor-facing validation: decode and cross-check against ``key``."""
    trace = decode_trace(payload)
    if key is not None:
        workload = trace.meta.get("workload")
        if not trace.fingerprint or workload is None or key != trace_key(
            str(workload), trace.fingerprint
        ):
            raise TraceDecodeError(
                "stale-fingerprint", f"key {key!r} does not match payload identity"
            )
    return trace


class TraceStore(Protocol):
    """The artifact-store surface the trace cache relies on (duck-typed).

    Matches :class:`repro.runner.store.ArtifactStore` structurally so the
    sim layer stays free of a runner dependency.
    """

    def __contains__(self, key: str) -> bool: ...

    def load(self, key: str) -> object: ...

    def put(self, key: str, payload: Dict[str, object]) -> object: ...

    def quarantine(self, key: str) -> object: ...


def load_or_capture(
    store: Optional[TraceStore],
    program: Program,
    workload: str,
    scale: float,
    seed: int = 0,
) -> Tuple[DecisionTrace, bool]:
    """Fetch a cached trace of ``program``, or capture (and cache) one.

    Returns ``(trace, cache_hit)``.  ``store`` is duck-typed (the
    :class:`TraceStore` surface of :class:`repro.runner.store.
    ArtifactStore`); pass ``None`` to always capture.  This is the one
    place a cache key is computed: it covers the structure of
    ``program`` itself (see :func:`trace_fingerprint`), and the returned
    trace carries it as :attr:`DecisionTrace.key`.

    Every unusable cached entry — stale (``stale-schema``,
    ``stale-fingerprint``) as well as corrupt (``digest-mismatch``,
    ``malformed``) — is quarantined, preserving the payload for
    post-mortem, and transparently re-captured.  Any load failure
    degrades to a capture — the cache is an accelerator, never a
    correctness dependency, so *every* exception on the load path is
    converted into a miss.
    """
    fingerprint = trace_fingerprint(program, workload, scale, seed)
    key = trace_key(workload, fingerprint)
    if store is not None and key in store:
        try:
            trace = decode_trace(store.load(key), expect_fingerprint=fingerprint)
        except TraceDecodeError:
            # Stale or corrupt, the response is the same: set the entry
            # aside rather than silently overwrite it, then re-capture.
            store.quarantine(key)
        except Exception:
            # The store already quarantines entries failing its own
            # checksum; anything else (I/O, JSON) is treated as a miss.
            try:
                store.quarantine(key)
            except Exception:
                pass
        else:
            trace.key = key
            return trace, True
    trace = capture_decisions(program, seed=seed, workload=workload, scale=scale)
    trace.fingerprint, trace.key = fingerprint, key
    if store is not None:
        store.put(key, encode_trace(trace))
    return trace, False
