"""Extended-TSP branch alignment (Newell & Pupyrev, 2018).

Classic Pettis–Hansen chain merging maximises the weight of edges made
*adjacent* — a travelling-salesman objective over fall-throughs.  The
extended-TSP objective also credits edges that end up as *short jumps*,
because a taken branch whose target is nearby stays in the same page and
I-cache lines and is cheap on every modelled front end:

    score(layout) = sum over edges e of w(e) * K(d(e))

where ``d`` is the byte distance from the end of the source block to the
start of the destination block in the final layout, and

    K(0)            = 1.0                         (fall-through)
    K(d), forward   = 0.1 * (1 - d / 1024),  0 < d <= 1024
    K(d), backward  = 0.05 * (1 - d / 640),  0 < d <= 640
    K(d)            = 0 otherwise.

The weights and window sizes are the ones the 2018 paper found by
parameter sweep on large server binaries.

The search is the paper's greedy chain merging: starting from singleton
chains, repeatedly apply the concatenation (either order of any two
chains connected by profiled flow) with the largest positive score gain.
Concatenation never changes intra-chain distances, so the gain of a
merge is exactly the score of the edges crossing the two chains at their
new relative offsets — edges between distinct chains score zero until a
merge prices them in.  A pair's gain therefore depends only on its two
chains: each is cached and repriced only when a merge replaces one of
them, and a chain's score is summed in profile-edge order so every gain
is the same float that rescoring the concatenation would give.
Distances are measured in source-block bytes;
link-time jump insertion can stretch a chain by a few instructions, an
approximation the paper makes as well.

Like Greedy, the algorithm is architecture-blind (``model`` stays
``None``): the objective itself is the cost model, so no per-arch sense
refinement runs and one layout serves every simulated architecture.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cfg import BlockId, Procedure, TerminatorKind
from ..isa.encoder import INSTRUCTION_BYTES
from ..profiling.edge_profile import EdgeProfile
from .align import Aligner, greedy_link_pass
from .chains import ChainSet

#: K(0): the full credit for a fall-through out of a conditional block —
#: the taken transfer disappears entirely.
FALLTHROUGH_WEIGHT = 1.0
#: K(0) for a fall-through out of an unconditional block.  Slightly
#: below the conditional credit: eliding an unconditional jump only
#: saves the jump instruction, while a conditional falling through also
#: saves the misfetch penalty on every modelled front end.  BOLT's
#: ext-TSP implementation weights jump kinds separately for the same
#: reason; the asymmetry also makes equal-weight merge ties resolve
#: toward eliminating taken *branches* rather than jumps.
UNCOND_FALLTHROUGH_WEIGHT = 0.9
#: Peak credit for a short forward jump, decaying linearly to the window.
FORWARD_WEIGHT = 0.1
FORWARD_WINDOW = 1024
#: Peak credit for a short backward jump (loops), decaying to the window.
BACKWARD_WEIGHT = 0.05
BACKWARD_WINDOW = 640


def jump_score(distance: int, conditional: bool = True) -> float:
    """K(d) for one edge at signed byte distance ``distance``.

    ``distance`` is start(dst) - end(src): zero for a fall-through,
    positive for a forward jump, negative for a backward jump.
    ``conditional`` says whether the source block ends in a conditional
    branch (fall-through credit is highest for those).
    """
    if distance == 0:
        return FALLTHROUGH_WEIGHT if conditional else UNCOND_FALLTHROUGH_WEIGHT
    if 0 < distance <= FORWARD_WINDOW:
        return FORWARD_WEIGHT * (1.0 - distance / FORWARD_WINDOW)
    if 0 > distance >= -BACKWARD_WINDOW:
        return BACKWARD_WEIGHT * (1.0 + distance / BACKWARD_WINDOW)
    return 0.0


class _Chain:
    """Merge bookkeeping for one chain, keyed by its head block."""

    __slots__ = ("blocks", "edges", "score", "length", "cross")

    def __init__(self, bid: BlockId, length: int) -> None:
        self.blocks: List[BlockId] = [bid]
        #: Indices into the weighted edge list of the edges with both
        #: endpoints in the chain, ascending.
        self.edges: List[int] = []
        #: The objective over ``edges``, summed in index order.
        self.score = 0.0
        #: Total bytes of the chain's blocks.
        self.length = length
        #: Neighbouring chain head -> ascending indices of the edges
        #: between the two chains (one list shared by both sides).
        self.cross: Dict[BlockId, List[int]] = {}


class ExtTSPAligner(Aligner):
    """Chain merging that maximises the extended-TSP objective."""

    name = "exttsp"

    def __init__(self, min_weight: int = 1):
        #: Edges below this execution count neither score nor drive
        #: merging; they are threaded by the shared cold-edge pass.
        self.min_weight = min_weight

    # ------------------------------------------------------------------
    def build_chains(
        self, proc: Procedure, profile: EdgeProfile
    ) -> Tuple[ChainSet, Dict[BlockId, BlockId]]:
        chains = ChainSet(proc)
        sizes = {
            bid: proc.block(bid).size * INSTRUCTION_BYTES for bid in proc.blocks
        }
        weighted = [
            (src, dst, weight, proc.block(src).kind is TerminatorKind.COND)
            for (src, dst), weight in profile.sorted_edges(
                proc, min_weight=self.min_weight
            )
        ]
        junction = {
            (src, dst): weight * jump_score(0, cond)
            for src, dst, weight, cond in weighted
        }
        # Per block: the head of its chain and its byte offset there.
        head_of = {bid: bid for bid in proc.blocks}
        offset = {bid: 0 for bid in proc.blocks}
        live = {bid: _Chain(bid, sizes[bid]) for bid in proc.blocks}
        # terms[i]: edge i's score term.  Once both ends share a chain it
        # never changes, as concatenation keeps the distance; until then
        # it holds the term priced for the last merge evaluated.
        terms = [0.0] * len(weighted)

        def term(index: int, shift_head: BlockId, shift: int) -> float:
            """Edge ``index``'s term, blocks of ``shift_head`` moved by ``shift``."""
            src, dst, weight, conditional = weighted[index]
            start_src = offset[src] + (shift if head_of[src] == shift_head else 0)
            start_dst = offset[dst] + (shift if head_of[dst] == shift_head else 0)
            distance = start_dst - (start_src + sizes[src])
            return weight * jump_score(distance, conditional)

        def score_of(indices: List[int]) -> float:
            # The same left-to-right sum, in the same edge order, that
            # scoring the chain from scratch would compute.
            score = 0.0
            for index in indices:
                score += terms[index]
            return score

        def pair_gain(first: BlockId, second: BlockId) -> Optional[Tuple[float, float]]:
            """The gain of appending chain ``second`` to chain ``first``."""
            left, right = live[first], live[second]
            tail, head = left.blocks[-1], right.blocks[0]
            if not chains.can_link(tail, head):
                return None
            cross = left.cross[second]
            for index in cross:
                terms[index] = term(index, second, left.length)
            merged = score_of(sorted(left.edges + right.edges + cross))
            total = merged - left.score - right.score
            adjacency = junction.get((tail, head), 0.0)
            return (adjacency, total - adjacency)

        for index, (src, dst, _weight, _cond) in enumerate(weighted):
            if src == dst:
                terms[index] = term(index, src, 0)
                live[src].edges.append(index)
                live[src].score += terms[index]
            elif dst in live[src].cross:
                live[src].cross[dst].append(index)
            else:
                live[src].cross[dst] = live[dst].cross[src] = [index]

        # Greedy merging, best-gain-first.  The gain is lexicographic:
        # the junction's fall-through credit decides, and the
        # distance-decayed jump credits of every other cross edge only
        # break ties and drive credit-only merges.  Without the
        # precedence a 3-point backward-jump credit can outvote a
        # 2-point fall-through difference, trading real fall-throughs
        # for short jumps — the opposite of what K's magnitudes intend.
        gains: Dict[Tuple[BlockId, BlockId], Tuple[float, float]] = {}

        def price(pairs: List[Tuple[BlockId, BlockId]]) -> None:
            for pair in pairs:
                gain = pair_gain(*pair)
                if gain is not None:
                    gains[pair] = gain

        price([(head, other) for head in live for other in live[head].cross])
        while True:
            # The largest gain above zero; ties go to the smallest pair.
            best_gain = (0.0, 0.0)
            best_pair: Optional[Tuple[BlockId, BlockId]] = None
            for pair, gain in gains.items():
                if gain > best_gain or (
                    gain == best_gain and best_pair is not None and pair < best_pair
                ):
                    best_gain, best_pair = gain, pair
            if best_pair is None:
                break
            first, second = best_pair
            left, right = live[first], live.pop(second)
            for head, chain in ((first, left), (second, right)):
                for other in chain.cross:
                    gains.pop((head, other), None)
                    gains.pop((other, head), None)
            chains.link(left.blocks[-1], right.blocks[0])
            for bid in right.blocks:
                head_of[bid] = first
                offset[bid] += left.length
            cross = left.cross.pop(second)
            del right.cross[first]
            for index in cross:
                terms[index] = term(index, first, 0)
            left.edges = sorted(left.edges + right.edges + cross)
            left.score = score_of(left.edges)
            left.blocks += right.blocks
            left.length += right.length
            for other, indices in right.cross.items():
                neighbour = live[other].cross
                del neighbour[second]
                if other in left.cross:
                    indices = sorted(left.cross[other] + indices)
                left.cross[other] = neighbour[first] = indices
            price([p for other in left.cross for p in ((first, other), (other, first))])
        # Thread the cold remainder exactly like every other algorithm.
        greedy_link_pass(chains, proc, profile, min_weight=0)
        return chains, {}
