"""Cached dataflow analyses for the verifier passes.

The underlying algorithms live in :mod:`repro.cfg.analysis`; this module
adds a per-procedure memoising façade so a dozen passes interrogating
the same procedure pay for reachability/dominators/loops once.  The
manager is deliberately defensive: it is handed *corrupted* CFGs by the
fault-injection harness, so every analysis tolerates dangling block ids
and duplicate order entries instead of crashing the lint run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Set, Tuple, TypeVar

from ..cfg import (
    BlockId,
    NaturalLoop,
    Procedure,
    cfg_fingerprint,
    immediate_dominators,
    immediate_postdominators,
    loop_depths,
    natural_loops,
    reverse_postorder,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .legality import BlockEffects, ObservationChain, RegionInfo

T = TypeVar("T")


class AnalysisManager:
    """Memoised CFG analyses for one procedure.

    Results are computed on first request and cached for the manager's
    lifetime; callers must not mutate returned containers.  A manager is
    valid only as long as the procedure it wraps is not mutated (CFGs in
    this codebase are immutable after construction, so in practice a
    manager never goes stale).
    """

    def __init__(self, proc: Procedure) -> None:
        self.proc = proc
        self._cache: Dict[str, object] = {}

    def _memo(self, key: str, compute: Callable[[], T]) -> T:
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]  # type: ignore[return-value]

    def _analysable(self) -> Procedure:
        """The procedure, sanitised if structurally corrupt.

        The delegated algorithms assume a well-formed CFG (every edge
        endpoint tabled, the layout order a permutation).  A corrupted
        procedure — precisely what the lint run exists to diagnose —
        gets a pruned copy: dangling edges dropped, duplicate order
        entries collapsed.  Well-formed procedures pass through
        untouched, so analyses of healthy CFGs see the real object.
        """

        def compute() -> Procedure:
            proc = self.proc
            order = list(proc.original_order)
            clean_order = list(dict.fromkeys(order))
            clean_edges = [
                e for e in proc.edges
                if e.src in proc.blocks and e.dst in proc.blocks
            ]
            if clean_order == order and len(clean_edges) == len(proc.edges):
                return proc
            sanitised = Procedure.__new__(Procedure)
            sanitised.name = proc.name
            sanitised.blocks = dict(proc.blocks)
            sanitised._order = [b for b in clean_order if b in proc.blocks]
            sanitised.edges = clean_edges
            sanitised._out = {bid: [] for bid in sanitised.blocks}
            sanitised._in = {bid: [] for bid in sanitised.blocks}
            for edge in clean_edges:
                sanitised._out[edge.src].append(edge)
                sanitised._in[edge.dst].append(edge)
            return sanitised

        return self._memo("_analysable", compute)

    # -- reachability ---------------------------------------------------

    def reachable(self) -> Set[BlockId]:
        """Blocks reachable from the entry (defensive graph walk)."""

        def compute() -> Set[BlockId]:
            seen: Set[BlockId] = set()
            stack: List[BlockId] = [self.proc.entry]
            while stack:
                bid = stack.pop()
                if bid in seen or bid not in self.proc.blocks:
                    continue
                seen.add(bid)
                for succ in self.proc.successors(bid):
                    if succ not in seen:
                        stack.append(succ)
            return seen

        return self._memo("reachable", compute)

    def unreachable(self) -> List[BlockId]:
        reach = self.reachable()
        return [bid for bid in self.proc.blocks if bid not in reach]

    def rpo(self) -> List[BlockId]:
        """Reverse postorder over the reachable subgraph."""
        return self._memo("rpo", lambda: reverse_postorder(self._analysable()))

    # -- dominance ------------------------------------------------------

    def dominators(self) -> Dict[BlockId, Optional[BlockId]]:
        """Immediate-dominator tree (reachable blocks only)."""
        return self._memo("idom", lambda: immediate_dominators(self._analysable()))

    def postdominators(self) -> Dict[BlockId, Optional[BlockId]]:
        """Immediate-postdominator tree (blocks reaching an exit only)."""
        return self._memo(
            "ipdom", lambda: immediate_postdominators(self._analysable())
        )

    # -- loops ----------------------------------------------------------

    def loops(self) -> List[NaturalLoop]:
        return self._memo("loops", lambda: natural_loops(self._analysable()))

    def loop_depths(self) -> Dict[BlockId, int]:
        return self._memo("loop_depths", lambda: loop_depths(self._analysable()))

    # -- melding legality (kernels in repro.staticcheck.legality) -------

    def block_effects(self) -> Dict[BlockId, "BlockEffects"]:
        """Per-block side-effect / purity summaries."""
        from .legality import compute_block_effects

        return self._memo(
            "block_effects",
            lambda: compute_block_effects(self._analysable()),
        )

    def live_control_sites(self) -> Dict[BlockId, FrozenSet[BlockId]]:
        """Per-block liveness: control sites reachable from each block."""
        from .legality import compute_live_control_sites

        return self._memo(
            "live_control_sites",
            lambda: compute_live_control_sites(self._analysable()),
        )

    def site_chains(
        self,
    ) -> Dict[BlockId, Tuple["ObservationChain", "ObservationChain"]]:
        """(taken, fall) observation chains per conditional site."""
        from .legality import compute_site_chains

        return self._memo(
            "site_chains",
            lambda: compute_site_chains(self._analysable()),
        )

    def region_shapes(self) -> Dict[BlockId, "RegionInfo"]:
        """Triangle/diamond/complex region shape per conditional site."""
        from .legality import compute_region_shapes

        return self._memo(
            "region_shapes",
            lambda: compute_region_shapes(self._analysable(), self),
        )

    # -- bookkeeping ----------------------------------------------------

    @property
    def cached_analyses(self) -> Tuple[str, ...]:
        """Which analyses have been computed so far (for tests/tracing)."""
        return tuple(sorted(k for k in self._cache if not k.startswith("_")))


class ProgramAnalyses:
    """Lazy per-procedure :class:`AnalysisManager` pool for a program.

    Managers are keyed by :func:`cfg_fingerprint` rather than ``id()``:
    an ``id()`` key can be reused by the allocator after a procedure is
    garbage-collected, silently serving one procedure's cached
    dominators to a structurally different successor.  The structural
    key cannot go stale — and as a bonus, a transformed procedure that
    happens to be CFG-identical to one already analysed shares its
    cache instead of recomputing.
    """

    def __init__(self) -> None:
        self._managers: Dict[str, AnalysisManager] = {}

    def for_procedure(self, proc: Procedure) -> AnalysisManager:
        key = cfg_fingerprint(proc)
        manager = self._managers.get(key)
        if manager is None:
            manager = AnalysisManager(proc)
            self._managers[key] = manager
        return manager
