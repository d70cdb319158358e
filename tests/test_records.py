"""The records are read-only named tuples, and importing anum loads
neither dataclasses nor inspect nor tempfile."""

import copy
import pickle
from fractions import Fraction

import pytest

from anum import (
    EventuallyPeriodicSeq,
    InvariantViolationError,
    PairingRecord,
    PeriodReport,
    TowerParams,
    a_number_bruteforce,
    check_pairing,
    closed_model,
    minimal_period,
    p_adic_decompose,
    sweep,
)
from anum.analysis import SWEEP_COLUMNS
from helpers import run_python


def test_import_loads_no_dataclasses_inspect_or_tempfile():
    # -S: no site, so nothing but anum can have loaded these modules
    script = ("import anum, anum.cli, sys; print(sorted("
              "{'dataclasses', 'inspect', 'tempfile'} & set(sys.modules)))")
    assert run_python("-S", "-c", script, timeout=20) == (0, "[]\n", "")


def every_record():
    params = TowerParams(5, 4, 2)
    return [
        params,
        p_adic_decompose(Fraction(50, 3), 5),
        a_number_bruteforce(params, 2),
        closed_model(params),
        minimal_period(params),
        check_pairing(params),
        *sweep([(5, 4, 2)]),
        EventuallyPeriodicSeq(head=(Fraction(1),), cycle=(Fraction(2),)),
    ]


def test_every_field_is_read_only():
    for record in every_record():
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_records_read_as_tuples():
    params = TowerParams(5, 4, 2)
    assert repr(params) == "TowerParams(p=5, d=4, r=2)"
    assert params == (5, 4, 2) and hash(params) == hash((5, 4, 2))
    assert params.gamma_vp == 0  # cached properties still resolve
    form = p_adic_decompose(Fraction(50, 3), 5)
    assert repr(form) == "PAdicForm(p=5, v=2, num=2, den=3)"


def test_sweep_columns():
    assert SWEEP_COLUMNS == (
        "p", "d", "r", "quad", "lambda", "N_r", "minimal_delay", "lcm_bound",
        "L_gamma_inv", "L", "half_case", "lambda_times_L", "lambda_integral",
        "partner_r", "partner_lambda_equal", "partner_delay_shift",
        "partner_L", "partner_period_equal", "error")


def test_bad_records_still_raise():
    for p, d, r in ((2, 1, 1), (9, 2, 1), (5, 3, 1), (5, 4, 0)):
        with pytest.raises(ValueError):
            TowerParams(p, d, r)
    report = minimal_period(TowerParams(5, 4, 2))
    with pytest.raises(InvariantViolationError, match="does not divide"):
        PeriodReport(**{**report._asdict(), "minimal_period": 4})
    with pytest.raises(InvariantViolationError, match="offset by one"):
        PairingRecord(2, 16, Fraction(1, 3), Fraction(1, 3), 0, 0)
    with pytest.raises(ValueError, match="non-empty"):
        EventuallyPeriodicSeq(head=(), cycle=())


def test_records_copy_and_pickle():
    seq = EventuallyPeriodicSeq(head=(Fraction(1),), cycle=(Fraction(2),) * 3)
    params = TowerParams(7, 6, 3)
    params.gamma_form  # fill the cache that travels in __dict__
    for record in (seq, params, closed_model(params)):
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
