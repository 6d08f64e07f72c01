"""Pettis–Hansen chains: sequences of blocks threaded by fall-through links.

A *chain* is a contiguous run of basic blocks; linking the edge S -> D
makes D the layout fall-through of S, merging D's chain onto S's.  The
structure enforces the three feasibility rules every alignment algorithm
shares:

* a block has at most one layout successor and one layout predecessor;
* linking must not close a cycle (chains are simple paths);
* the procedure entry block can never acquire a predecessor, because the
  entry must remain the first block of the procedure.

A block may also be *sealed*: the Cost and TryN algorithms seal a block
when the cost model prefers ending it with an (possibly appended)
unconditional jump over giving it any fall-through successor — the
"align neither edge" transformation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from ..cfg import BlockId, Procedure


class ChainSet:
    """Disjoint chains over the blocks of one procedure.

    Chain membership is kept as two maps, head-at-tail and tail-at-head,
    so the feasibility test and a link are O(1): ``src`` may only be a
    chain tail and ``dst`` a chain head, and they share a chain exactly
    when ``src``'s chain starts at ``dst``.
    """

    def __init__(self, proc: Procedure):
        self.proc = proc
        self.entry = proc.entry
        self.succ: Dict[BlockId, Optional[BlockId]] = {b: None for b in proc.blocks}
        self.pred: Dict[BlockId, Optional[BlockId]] = {b: None for b in proc.blocks}
        self.sealed: Set[BlockId] = set()
        self._alignable: FrozenSet[BlockId] = frozenset(
            b for b in proc.blocks if proc.block(b).kind.alignable
        )
        # Every chain appears once in each map; a singleton maps to itself.
        self._head_at_tail: Dict[BlockId, BlockId] = {b: b for b in proc.blocks}
        self._tail_at_head: Dict[BlockId, BlockId] = {b: b for b in proc.blocks}

    # ------------------------------------------------------------------
    def can_link(self, src: BlockId, dst: BlockId) -> bool:
        """True if dst may become the layout fall-through of src."""
        if src == dst or dst == self.entry:
            return False
        if src in self.sealed:
            return False
        if self.succ[src] is not None or self.pred[dst] is not None:
            return False
        if src not in self._alignable:
            return False
        # src is a tail and dst a head: one chain iff it runs dst..src.
        return self._head_at_tail[src] != dst

    def link(self, src: BlockId, dst: BlockId) -> None:
        """Make dst the layout fall-through of src (must be linkable)."""
        if not self.can_link(src, dst):
            raise ValueError(f"cannot link {src} -> {dst}")
        self.succ[src] = dst
        self.pred[dst] = src
        head = self._head_at_tail.pop(src)
        tail = self._tail_at_head.pop(dst)
        self._head_at_tail[tail] = head
        self._tail_at_head[head] = tail

    def unlink(self, src: BlockId) -> None:
        """Undo a link (used by the TryN backtracking search).

        Splits src's chain after src: src becomes the tail of the front
        fragment and its old successor the head of the back one.
        """
        dst = self.succ[src]
        if dst is None:
            raise ValueError(f"{src} has no layout successor to unlink")
        self.succ[src] = None
        self.pred[dst] = None
        head = self._chain_start(src)
        tail = self._tail_at_head[head]
        self._tail_at_head[head] = src
        self._head_at_tail[src] = head
        self._tail_at_head[dst] = tail
        self._head_at_tail[tail] = dst

    def _chain_start(self, bid: BlockId) -> BlockId:
        pred = self.pred
        while True:
            prev = pred[bid]
            if prev is None:
                return bid
            bid = prev

    # ------------------------------------------------------------------
    def seal(self, bid: BlockId) -> None:
        """Forbid the block from ever getting a layout successor."""
        if self.succ[bid] is not None:
            raise ValueError(f"cannot seal {bid}: it already has a successor")
        self.sealed.add(bid)

    def unseal(self, bid: BlockId) -> None:
        """Allow a previously sealed block to take a successor again."""
        self.sealed.discard(bid)

    # ------------------------------------------------------------------
    def chain_of(self, bid: BlockId) -> List[BlockId]:
        """The full chain containing ``bid``, head to tail."""
        out = []
        cur: Optional[BlockId] = self._chain_start(bid)
        while cur is not None:
            out.append(cur)
            cur = self.succ[cur]
        return out

    def chains(self) -> List[List[BlockId]]:
        """All chains, each listed head to tail, in head-id order."""
        heads = [b for b in self.proc.blocks if self.pred[b] is None]
        heads.sort()
        return [self.chain_of(h) for h in heads]

    def check(self) -> None:
        """Verify internal consistency (used by property tests)."""
        seen: Set[BlockId] = set()
        chains = self.chains()
        for chain in chains:
            for bid in chain:
                if bid in seen:
                    raise AssertionError(f"block {bid} appears in two chains")
                seen.add(bid)
        if seen != set(self.proc.blocks):
            raise AssertionError("chains do not cover all blocks")
        if self.pred[self.entry] is not None:
            raise AssertionError("entry block acquired a predecessor")
        ends = {chain[0]: chain[-1] for chain in chains}
        if self._tail_at_head != ends or self._head_at_tail != {
            tail: head for head, tail in ends.items()
        }:
            raise AssertionError("chain head/tail records are stale")
