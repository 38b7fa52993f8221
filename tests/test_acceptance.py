"""Acceptance suite: every criterion exact (tolerance zero), one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; ``tevdeg verify`` prints the same table.
"""

import itertools
from types import SimpleNamespace

from tevdeg import acceptance


def _check(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number} [{result.name}]: {status} -- {result.detail}")
    assert result.passed, f"criterion {result.number} failed: {result.detail}"


def test_criterion_1_engine_vs_closed_form():
    _check(acceptance.criterion_1_engine_vs_closed())


def test_criterion_2_insertion_equivalence():
    _check(acceptance.criterion_2_insertions())


def test_criterion_3_p1_cross_check():
    _check(acceptance.criterion_3_p1_crosscheck())


def test_criterion_4_quantum_route():
    _check(acceptance.criterion_4_quantum())


def _fake_clock(monkeypatch, step):
    """Make each perf_counter call in ``acceptance`` advance by ``step`` s."""
    ticks = itertools.count()
    clock = SimpleNamespace(perf_counter=lambda: next(ticks) * step)
    monkeypatch.setattr(acceptance, "time", clock)


def test_criterion_4_detail_is_independent_of_the_clock(monkeypatch):
    # verify prints the detail on stdout, which must not vary between runs.
    details = []
    for step in (0.01, 4.0):
        _fake_clock(monkeypatch, step)
        res = acceptance.criterion_4_quantum()
        assert res.passed
        details.append(res.detail)
    assert details[0] == details[1]
    _fake_clock(monkeypatch, 6.0)
    res = acceptance.criterion_4_quantum()
    assert not res.passed and "6.00s >= 5s" in res.detail


def test_criterion_5_enumerativity():
    _check(acceptance.criterion_5_enumerativity())


def test_criterion_6_exactness_divisibility():
    _check(acceptance.criterion_6_exactness())


def test_criterion_7_performance_determinism(tmp_path):
    _check(acceptance.criterion_7_performance(workdir=tmp_path))
