"""The law registry can fail: each check returns False on a planted fault."""

import importlib

import pytest

import anum.checks
from anum import TowerParams
from anum.checks import checks

PARAMS = TowerParams(5, 4, 1)  # r = 1, so the first-power check is present

# `anum.delta` is the re-exported function, so reach the module by name.
# delta's own code is the column kernel `mu_sum`, which `mu`, `delta` and
# `delta_tilde` all read; a fault planted there reaches every one of them.
CHECKS = (anum.checks,)
KERNEL = (importlib.import_module("anum.delta"),)


def flip_at_7(indicator):
    def planted(params, i):
        return 1 - indicator(params, i) if i == 7 else indicator(params, i)
    return planted


def flip_column_7(kernel):
    def planted(params, lo, hi):
        total = kernel(params, lo, hi)
        if lo < 7 <= hi:
            up = kernel(params, 6, 7) - (params.p + 1) * 7 // params.d
            total += 1 - 2 * up
        return total
    return planted


def plus_one(fn):
    return lambda *args: fn(*args) + 1


def total_plus_one(brute):
    def planted(params, n, budget=None):
        count = brute(params, n, budget)
        return count._replace(total=count.total + 1)
    return planted


# every check, in registry order, with the name it reads, the fault, and
# the modules the fault is planted in
FAULTS = {
    "delta digit test matches the lexicographic definition":
        ("delta", flip_at_7, CHECKS),
    "mu equals floor+delta and ceil-1+delta_tilde":
        ("mu_sum", flip_column_7, KERNEL),
    "delta is invariant under multiplying i by p": ("delta", flip_at_7, CHECKS),
    "delta0 shifts by tau_den*p": ("delta0", flip_at_7, CHECKS),
    "delta0 reflects within one period": ("delta0", flip_at_7, CHECKS),
    "delta0 average matches its closed form": ("delta0", flip_at_7, CHECKS),
    "tau-side linear coefficient vanishes":
        ("delta_sum_linear_coeff", plus_one, CHECKS),
    "n=1: brute force, split forms, closed form, and triangle count agree":
        ("evaluate", plus_one, CHECKS),
    "r=1 closed formula matches brute force":
        ("a_number_bruteforce", total_plus_one, CHECKS),
}


def test_every_check_has_a_planted_fault():
    assert [name for name, _ in checks(PARAMS, 1, None)] == list(FAULTS)


@pytest.mark.parametrize("name", FAULTS)
def test_check_fails_on_planted_fault(name, monkeypatch):
    assert dict(checks(PARAMS, 1, None))[name]() is True
    attr, fault, modules = FAULTS[name]
    for module in modules:
        monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    assert dict(checks(PARAMS, 1, None))[name]() is False
