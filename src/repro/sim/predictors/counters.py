"""Saturating up/down counters, the building block of PHTs and BTBs."""

from __future__ import annotations

from typing import List


class SaturatingCounter:
    """An n-bit saturating up/down counter predicting branch direction.

    Values of ``2**(bits-1)`` and above predict taken.  A single counter
    object is mostly used in tests; the table predictors keep their
    counters in a :class:`CounterTable` and update them in their own
    ``feed`` kernels.
    """

    def __init__(self, bits: int = 2, value: int = 1):
        if bits < 1:
            raise ValueError("counter needs at least one bit")
        self.maximum = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        if not 0 <= value <= self.maximum:
            raise ValueError(f"initial value {value} out of range")
        self.value = value

    @property
    def predict_taken(self) -> bool:
        return self.value >= self.threshold

    def update(self, taken: bool) -> None:
        """Saturating increment/decrement toward the outcome."""
        if taken:
            if self.value < self.maximum:
                self.value += 1
        elif self.value > 0:
            self.value -= 1


class CounterTable:
    """A fixed-size table of 2-bit saturating counters.

    The counters are a plain integer list, which the predictors' ``feed``
    kernels index directly; counters are initialised weakly-not-taken
    (1), a conventional power-up state.
    """

    BITS = 2
    MAX = 3
    THRESHOLD = 2

    def __init__(self, size: int, initial: int = 1):
        if size < 1 or size & (size - 1):
            raise ValueError(f"table size must be a power of two, got {size}")
        if not 0 <= initial <= self.MAX:
            raise ValueError(f"bad initial counter value {initial}")
        self.size = size
        self.mask = size - 1
        self.counters: List[int] = [initial] * size
        self._initial = initial

    def predict(self, index: int) -> bool:
        """True if the counter at ``index`` predicts taken."""
        return self.counters[index & self.mask] >= self.THRESHOLD

    def update(self, index: int, taken: bool) -> None:
        """Saturating increment/decrement toward the outcome."""
        index &= self.mask
        value = self.counters[index]
        if taken:
            if value < self.MAX:
                self.counters[index] = value + 1
        elif value > 0:
            self.counters[index] = value - 1

    def reset(self) -> None:
        """Restore every counter to its initial value."""
        self.counters = [self._initial] * self.size

    @property
    def storage_bits(self) -> int:
        """Total predictor storage in bits (the paper quotes 1 KB)."""
        return self.size * self.BITS
