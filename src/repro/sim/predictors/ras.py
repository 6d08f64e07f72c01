"""The return-address stack used by every simulated architecture.

"In all of our static and dynamic architecture simulations we simulated a
32-entry return stack, which is very accurate at predicting the
destination for return instructions." (section 6)
"""

from __future__ import annotations

from typing import List, Sequence


class ReturnStack:
    """A fixed-depth circular return-address stack.

    Pushes beyond the capacity overwrite the oldest entry (standard
    hardware behaviour), which is what makes deep recursion degrade
    prediction instead of failing.
    """

    def __init__(self, depth: int = 32):
        if depth < 1:
            raise ValueError("return stack needs at least one entry")
        self.depth = depth
        self._slots: List[int] = [0] * depth
        self._top = 0          # index of the next free slot
        self._live = 0         # number of valid entries (<= depth)
        self.pushes = 0
        self.pops = 0
        self.correct = 0

    def push(self, return_address: int) -> None:
        """Push a return address (wrapping over the oldest entry)."""
        self._slots[self._top] = return_address
        self._top = (self._top + 1) % self.depth
        if self._live < self.depth:
            self._live += 1
        self.pushes += 1

    def pop_predict(self, actual_target: int) -> bool:
        """Pop the stack and report whether it predicted ``actual_target``.

        An empty stack predicts nothing and therefore mispredicts.
        """
        self.pops += 1
        if self._live == 0:
            return False
        self._top = (self._top - 1) % self.depth
        self._live -= 1
        predicted = self._slots[self._top]
        if predicted == actual_target:
            self.correct += 1
            return True
        return False

    @property
    def empty(self) -> bool:
        """True when no valid entry is left (every pop mispredicts)."""
        return self._live == 0

    def adopt(self, run: "ReturnStack", relabel: Sequence[int]) -> None:
        """Continue as if this stack had performed ``run``'s operations.

        ``run`` is a stack of the same depth that executed some push/pop
        sequence from power-up with stand-in values; ``relabel[v]`` is
        the real return address behind stand-in ``v``.  This stack must
        be :attr:`empty`: then ``run``'s outcomes are exactly what the
        same sequence would have produced here (an empty stack's stale
        slots are never read), and the adopted entries are exact in
        everything a later pop can observe.
        """
        if not self.empty or run.depth != self.depth:
            raise ValueError("adopt needs an empty stack of the same depth")
        self._slots = [relabel[value] for value in run._slots]
        self._top = run._top
        self._live = run._live
        self.pushes += run.pushes
        self.pops += run.pops
        self.correct += run.correct

    def reset(self) -> None:
        """Empty the stack and zero the accuracy counters."""
        self._top = 0
        self._live = 0
        self.pushes = self.pops = self.correct = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.pops if self.pops else 1.0
