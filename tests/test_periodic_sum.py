"""Prefix sums of eventually periodic sequences."""

import random
from fractions import Fraction

import pytest

from anum import EventuallyPeriodicSeq, TowerParams, prefix_sum
from helpers import delta0_as_sequence, term


def F(*args):
    return tuple(Fraction(a) for a in args)


def test_term_examples():
    alternating = EventuallyPeriodicSeq(head=(), cycle=F(1, 0))
    assert term(alternating, 5) == 1
    assert term(alternating, 6) == 0

    indicators = delta0_as_sequence(TowerParams(5, 4, 2))
    assert indicators.delay == 0
    assert indicators.period == 10
    assert term(indicators, 7) == 1

    delayed = EventuallyPeriodicSeq(head=F(9), cycle=F(2))
    assert term(delayed, 1) == 9
    assert term(delayed, 2) == 2

    with pytest.raises(ValueError):
        term(alternating, 0)


def test_prefix_sum_examples():
    constant = EventuallyPeriodicSeq(head=(), cycle=F(7,))
    for n in (0, 1, 5, 1000):
        assert prefix_sum(constant, n) == 7 * n

    indicators = delta0_as_sequence(TowerParams(5, 4, 2))
    assert prefix_sum(indicators, 10) == 2

    delayed = EventuallyPeriodicSeq(head=F(9), cycle=F(1, 0))
    assert prefix_sum(delayed, 4) == 9 + 1 + 0 + 1


def test_prefix_sum_matches_naive_randomized():
    rng = random.Random(3001)
    for _ in range(120):
        delay = rng.randint(0, 4)
        length = rng.randint(1, 12)
        head = F(*(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                   for _ in range(delay)))
        cycle = F(*(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                    for _ in range(length)))
        seq = EventuallyPeriodicSeq(head=head, cycle=cycle)
        running = Fraction(0)
        assert prefix_sum(seq, 0) == 0
        for n in range(1, delay + 5 * length + 1):
            running += term(seq, n)
            assert prefix_sum(seq, n) == running


def test_prefix_sum_matches_term_by_term_oracle():
    # the oracle reads terms straight from the head and cycle lists
    rng = random.Random(3003)
    for _ in range(150):
        head = [Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                for _ in range(rng.randint(0, 6))]
        cycle = [Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                 for _ in range(rng.randint(1, 15))]
        seq = EventuallyPeriodicSeq(head=tuple(head), cycle=tuple(cycle))
        assert seq.head == tuple(head) and seq.cycle == tuple(cycle)
        assert seq.average == sum(cycle) / len(cycle)
        terms = head + cycle * 4
        running = Fraction(0)
        for count in range(len(head) + 3 * len(cycle) + 1):
            assert prefix_sum(seq, count) == running, count
            running += terms[count]


def test_prefix_sum_period_shift():
    rng = random.Random(3002)
    for _ in range(40):
        delay = rng.randint(0, 3)
        length = rng.randint(1, 8)
        seq = EventuallyPeriodicSeq(
            head=F(*(rng.randint(-5, 5) for _ in range(delay))),
            cycle=F(*(rng.randint(-5, 5) for _ in range(length))),
        )
        for n in range(delay, delay + 2 * length):
            assert (prefix_sum(seq, n + length) - prefix_sum(seq, n)
                    == length * seq.average)


def test_empty_cycle_rejected():
    with pytest.raises(ValueError):
        EventuallyPeriodicSeq(head=(), cycle=())
