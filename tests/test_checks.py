"""The law registry can fail: each check returns False on a planted fault."""

import dataclasses

import pytest

import anum.checks
from anum import TowerParams
from anum.checks import checks

PARAMS = TowerParams(5, 4, 1)  # r = 1, so the first-power check is present


def flip_at_7(indicator):
    def planted(params, i):
        return 1 - indicator(params, i) if i == 7 else indicator(params, i)
    return planted


def plus_one(fn):
    return lambda *args: fn(*args) + 1


def total_plus_one(brute):
    def planted(params, n, budget=None):
        count = brute(params, n, budget)
        return dataclasses.replace(count, total=count.total + 1)
    return planted


# every check, in registry order, with the name it reads and the fault
FAULTS = {
    "delta digit test matches the lexicographic definition": ("delta", flip_at_7),
    "mu equals floor+delta and ceil-1+delta_tilde": ("delta", flip_at_7),
    "delta is invariant under multiplying i by p": ("delta", flip_at_7),
    "delta0 shifts by tau_den*p": ("delta0", flip_at_7),
    "delta0 reflects within one period": ("delta0", flip_at_7),
    "delta0 average matches its closed form": ("delta0", flip_at_7),
    "tau-side linear coefficient vanishes": ("delta_sum_linear_coeff", plus_one),
    "n=1: brute force, split forms, closed form, and triangle count agree":
        ("evaluate", plus_one),
    "r=1 closed formula matches brute force":
        ("a_number_bruteforce", total_plus_one),
}


def test_every_check_has_a_planted_fault():
    assert [name for name, _ in checks(PARAMS, 1, None)] == list(FAULTS)


@pytest.mark.parametrize("name", FAULTS)
def test_check_fails_on_planted_fault(name, monkeypatch):
    assert dict(checks(PARAMS, 1, None))[name]() is True
    attr, fault = FAULTS[name]
    monkeypatch.setattr(anum.checks, attr, fault(getattr(anum.checks, attr)))
    assert dict(checks(PARAMS, 1, None))[name]() is False
