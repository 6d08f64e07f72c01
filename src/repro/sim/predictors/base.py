"""Common penalty accounting for the static and PHT architectures.

Section 6 of the paper defines the Branch Execution Penalty (BEP) rules:

    "For the static branch and PHT architectures, unconditional branches,
    correctly predicted taken conditional branches and direct procedure
    calls all cause misfetch penalties.  Whereas, mispredicted conditional
    branches, mispredicted returns, and all indirect jumps cause
    mispredict penalties."

with a one-cycle misfetch and a four-cycle mispredict.  Subclasses supply
only the conditional direction predictor; returns go through the shared
32-entry return stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .. import trace as tr
from ..trace import Event
from .ras import ReturnStack

#: Penalty cycles (section 6).
MISFETCH_CYCLES = 1
MISPREDICT_CYCLES = 4

#: The per-event hooks a specialised ``feed`` kernel inlines.
_KERNEL_HOOKS = ("_index", "predict_cond", "update_cond")


@dataclass
class PenaltyCounts:
    """Aggregated penalties and prediction outcomes of one simulation."""

    misfetches: int = 0
    mispredicts: int = 0
    cond_executed: int = 0
    cond_correct: int = 0

    @property
    def bep(self) -> int:
        """Branch execution penalty in cycles."""
        return self.misfetches * MISFETCH_CYCLES + self.mispredicts * MISPREDICT_CYCLES

    def bep_with(self, misfetch_cycles: float, mispredict_cycles: float) -> float:
        """BEP re-weighted with alternative penalty costs.

        Penalty *counts* are layout properties; the cycle weights are
        machine properties.  Sweeping the weights over one simulation's
        counts models deeper pipelines without re-running anything — how
        the sensitivity analyses project the paper's wide-issue argument.
        """
        return self.misfetches * misfetch_cycles + self.mispredicts * mispredict_cycles

    @property
    def cond_accuracy(self) -> float:
        if not self.cond_executed:
            return 1.0
        return self.cond_correct / self.cond_executed

    def add(self, other: "PenaltyCounts") -> None:
        """Accumulate ``other``'s counts into these."""
        self.misfetches += other.misfetches
        self.mispredicts += other.mispredicts
        self.cond_executed += other.cond_executed
        self.cond_correct += other.cond_correct


class BranchArchSim:
    """Base simulator implementing the static/PHT penalty rules.

    :meth:`feed` is the one implementation of those rules; :meth:`on_event`
    is ``feed`` over a single event.  A subclass whose ``feed`` is a
    specialised kernel (the PHTs) inlines its own ``_index``,
    ``predict_cond`` and ``update_cond``; a further subclass that
    overrides any of those hooks without supplying a kernel of its own
    gets this generic ``feed`` back, so it always runs its own rule.
    """

    name = "abstract"

    def __init__(self, ras_depth: int = 32):
        self.counts = PenaltyCounts()
        self.ras = ReturnStack(ras_depth)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        owner = next(klass for klass in cls.__mro__ if "feed" in vars(klass))
        if vars(owner)["feed"] is not BranchArchSim.feed and any(
            getattr(cls, hook, None) is not getattr(owner, hook, None)
            for hook in _KERNEL_HOOKS
        ):
            setattr(cls, "feed", BranchArchSim.feed)

    # -- subclass interface ---------------------------------------------
    def predict_cond(self, site: int) -> bool:
        """Predict the direction of the conditional branch at ``site``."""
        raise NotImplementedError

    def update_cond(self, site: int, taken: bool) -> None:
        """Train the predictor with the branch outcome (default: none)."""

    # -- event consumption ------------------------------------------------
    def feed(self, events: Iterable[Event]) -> None:
        """Predict and train on ``events`` in order (static/PHT penalty rules)."""
        counts = self.counts
        predict = self.predict_cond
        update = self.update_cond
        push = self.ras.push
        pop = self.ras.pop_predict
        for kind, site, target, taken in events:
            if kind == tr.COND:
                counts.cond_executed += 1
                predicted = predict(site)
                update(site, taken)
                if predicted == taken:
                    counts.cond_correct += 1
                    if taken:
                        counts.misfetches += 1
                else:
                    counts.mispredicts += 1
            elif kind == tr.UNCOND:
                counts.misfetches += 1
            elif kind == tr.CALL:
                counts.misfetches += 1
                push(site + 4)
            elif kind == tr.ICALL:
                counts.mispredicts += 1
                push(site + 4)
            elif kind == tr.INDIRECT:
                counts.mispredicts += 1
            elif not pop(target):  # RET
                counts.mispredicts += 1

    def on_event(self, event: Event) -> None:
        """Predict and train on one event."""
        self.feed((event,))

    # ------------------------------------------------------------------
    @property
    def bep(self) -> int:
        return self.counts.bep

    def reset(self) -> None:
        """Zero the penalty counters and the return stack."""
        self.counts = PenaltyCounts()
        self.ras.reset()
