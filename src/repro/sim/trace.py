"""Trace event model and trace statistics (the Table 2 columns).

The executor emits one event per *break in control flow*, the paper's
term for the five traced transfer kinds: conditional branches, indirect
jumps, unconditional branches, procedure calls and returns.  Events are
plain tuples ``(kind, site, target, taken)`` in the hot path; the
:class:`BranchEvent` dataclass offers a readable view for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# Event kind codes (tuple slot 0).
COND = 0        #: conditional branch (CBr)
UNCOND = 1      #: unconditional direct branch (Br)
INDIRECT = 2    #: indirect jump, including C++ virtual dispatch (IJ)
CALL = 3        #: direct procedure call (Call)
ICALL = 4       #: indirect procedure call — counted with IJ per the paper
RET = 5         #: procedure return (Ret)

KIND_NAMES = {
    COND: "cond",
    UNCOND: "uncond",
    INDIRECT: "indirect",
    CALL: "call",
    ICALL: "icall",
    RET: "return",
}

#: A trace event: (kind, site address, target address, taken?).
Event = Tuple[int, int, int, bool]


@dataclass(frozen=True)
class BranchEvent:
    """Readable view of a raw event tuple."""

    kind: int
    site: int
    target: int
    taken: bool

    @classmethod
    def of(cls, event: Event) -> "BranchEvent":
        return cls(*event)

    @property
    def kind_name(self) -> str:
        return KIND_NAMES[self.kind]


class TraceStats:
    """Accumulates the per-program attributes reported in Table 2.

    Feed it every event via :meth:`on_event`, then :meth:`finish` with the
    executed instruction count.  Percentages follow the paper's
    definitions: ``%Breaks`` is the fraction of executed instructions that
    transfer control; ``Q-N`` is the number of conditional branch *sites*
    that account for N% of executed conditional branches; ``%Taken`` is
    the taken fraction of executed conditional branches; the break-kind
    columns are fractions of all breaks, with indirect calls folded into
    the indirect-jump column (C++ dynamic dispatch, per the paper).
    """

    def __init__(self) -> None:
        self.kind_counts: List[int] = [0] * 6
        self.cond_taken = 0
        self.site_counts: Dict[int, int] = {}
        self.instructions = 0

    def on_event(self, event: Event) -> None:
        """Account one control-flow break."""
        kind, site, _target, taken = event
        self.kind_counts[kind] += 1
        if kind == COND:
            self.site_counts[site] = self.site_counts.get(site, 0) + 1
            if taken:
                self.cond_taken += 1

    def finish(self, instructions: int) -> None:
        """Record the executed instruction count (for %Breaks)."""
        self.instructions = instructions

    # ------------------------------------------------------------------
    @property
    def breaks(self) -> int:
        """Total number of control-flow breaks."""
        return sum(self.kind_counts)

    @property
    def conditional_executions(self) -> int:
        return self.kind_counts[COND]

    @property
    def percent_breaks(self) -> float:
        """Breaks as a percentage of executed instructions."""
        if not self.instructions:
            return 0.0
        return 100.0 * self.breaks / self.instructions

    @property
    def percent_taken(self) -> float:
        """Taken percentage of executed conditional branches."""
        executed = self.conditional_executions
        if not executed:
            return 0.0
        return 100.0 * self.cond_taken / executed

    def quantile_sites(self, percent: float) -> int:
        """Number of hottest sites covering ``percent``% of executions.

        This is the paper's Q-50 / Q-90 / Q-99 / Q-100 measure.
        """
        executed = self.conditional_executions
        if not executed:
            return 0
        threshold = executed * percent / 100.0
        covered = 0.0
        for idx, count in enumerate(sorted(self.site_counts.values(), reverse=True)):
            covered += count
            if covered >= threshold - 1e-9:
                return idx + 1
        return len(self.site_counts)

    def kind_percentages(self) -> Dict[str, float]:
        """Break-kind mix as percentages of all breaks (Table 2 tail)."""
        total = self.breaks
        if not total:
            return {"CBr": 0.0, "IJ": 0.0, "Br": 0.0, "Call": 0.0, "Ret": 0.0}
        indirect = self.kind_counts[INDIRECT] + self.kind_counts[ICALL]
        return {
            "CBr": 100.0 * self.kind_counts[COND] / total,
            "IJ": 100.0 * indirect / total,
            "Br": 100.0 * self.kind_counts[UNCOND] / total,
            "Call": 100.0 * self.kind_counts[CALL] / total,
            "Ret": 100.0 * self.kind_counts[RET] / total,
        }


class EventRecorder:
    """Listener that materialises the full event stream (tests only)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        """Append the raw event tuple to the recorded stream."""
        self.events.append(event)
