"""Prefix sums of eventually periodic rational sequences in O(1).

A sequence is an explicit head (terms 1 .. delay) followed by a cycle that
repeats forever.  It is stored as the cumulative sums of the head and one
cycle, computed once in O(delay + period) in place of the terms.  A prefix
sum then splits N terms into the head and one partial cycle, read from that
table, plus whole cycles, so a call costs O(1) whatever N is.

Sequences are strictly 1-indexed here; callers whose natural index starts
at 0 shift by one at the call site.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate


class EventuallyPeriodicSeq(namedtuple("EventuallyPeriodicSeq", "delay sums")):
    """1-indexed: term i is head[i-1] for i <= delay, then the cycle repeats.

    Only the cumulative sums are kept: sums[k] is the sum of terms 1..k
    for 0 <= k <= delay + period.  head and cycle are recovered from them,
    and a copy or pickle rebuilds the sequence from them.
    """

    __slots__ = ()

    def __new__(cls, head: tuple[Fraction, ...], cycle: tuple[Fraction, ...]):
        if not cycle:
            raise ValueError("cycle must be non-empty")
        return super().__new__(cls, len(head), tuple(
            accumulate((*head, *cycle), initial=Fraction(0))))

    def __getnewargs__(self):
        return self.head, self.cycle

    @property
    def period(self) -> int:
        return len(self.sums) - 1 - self.delay

    @property
    def head(self) -> tuple[Fraction, ...]:
        return _steps(self.sums[:self.delay + 1])

    @property
    def cycle(self) -> tuple[Fraction, ...]:
        return _steps(self.sums[self.delay:])

    @property
    def average(self) -> Fraction:
        return (self.sums[-1] - self.sums[self.delay]) / self.period


def _steps(sums: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def prefix_sum(seq: EventuallyPeriodicSeq, count: int) -> Fraction:
    """Sum of terms 1..count, in time independent of count."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    sums, delay = seq.sums, seq.delay
    if count < len(sums):
        return sums[count]
    whole, part = divmod(count - delay, seq.period)
    return sums[delay + part] + whole * (sums[-1] - sums[delay])
