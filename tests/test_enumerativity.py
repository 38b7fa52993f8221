"""Tests for the validity gates, stratum audit, and certification sweep."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tevdeg.enumerativity import (
    StratumProfile,
    admissible_strata,
    certify_enumerative,
    count_admissible_strata,
    dims_check,
    enum_bound_closed,
    insertion_dims_check,
    stratum_audit,
)
from tevdeg.errors import ParameterError


# -- dims_check -----------------------------------------------------------------

def test_dims_check_values():
    assert dims_check(0, 3, 3, 3) == 3
    assert dims_check(1, 3, 3, 3) == 2


def test_dims_check_diagnostics_name_the_condition():
    with pytest.raises(ParameterError, match="not an integer"):
        dims_check(0, 4, 3, 3)
    with pytest.raises(ParameterError, match="must be >= 1"):
        dims_check(3, 3, 3, 3)
    with pytest.raises(ParameterError, match="stable range"):
        dims_check(0, 2, 4, 4)  # n = 2 at genus 0
    with pytest.raises(ParameterError, match="degree must be >= 3"):
        dims_check(0, 3, 2, 3)


def test_insertion_dims_check():
    assert insertion_dims_check(0, 6, 3, 3, (2, 2, 2, 1, 1, 1)) == 6
    with pytest.raises(ParameterError, match="dimension condition"):
        insertion_dims_check(0, 6, 3, 3, (2, 2, 1, 1, 1, 1))
    with pytest.raises(ParameterError, match="out of range"):
        insertion_dims_check(0, 6, 3, 3, (5, 2, 2, 1, 1, 1))
    # profile that balances the condition but has negative bundle rank
    with pytest.raises(ParameterError, match="rank"):
        insertion_dims_check(0, 3, 3, 2, (2, 2, 2, 2, 2))


# -- enum_bound_closed -------------------------------------------------------------

def test_bound_values():
    assert enum_bound_closed(1, 3, 5) == Fraction(60)
    assert enum_bound_closed(0, 3, 5) is None
    assert enum_bound_closed(2, 3, 8) == Fraction(8 * (4 * 4 + 1 + 2 * 10), 4)


def test_bound_rejects_small_r():
    with pytest.raises(ParameterError):
        enum_bound_closed(1, 3, 4)  # needs r > 4


# -- stratum_audit -------------------------------------------------------------------

def test_audit_case_a_examples():
    a = stratum_audit(0, 10, 3, 5, 9, StratumProfile(1, 0, 0))
    assert a.case == "A" and a.passed
    assert a.target_dim - a.vdim_stratum == 4  # deficit (r+2-e) per off-mark point

    b = stratum_audit(0, 10, 3, 5, 9, StratumProfile(0, 0, 1))
    assert b.case == "A" and b.passed
    assert b.target_dim - b.vdim_stratum == 3  # (2r+5-2e) - (r+1)


def test_audit_case_b_example():
    c = stratum_audit(1, 5, 3, 5, 4, StratumProfile(0, 4, 0))
    assert c.case == "B"
    assert c.delta == 24 and c.target_dim == 24
    assert c.vdim_stratum == 20 and c.excess_allowance == 11
    assert not c.passed  # 20 + 11 >= 24


def test_audit_rejects_bad_strata():
    with pytest.raises(ParameterError):
        stratum_audit(0, 10, 3, 5, 9, StratumProfile(0, 0, 0))
    with pytest.raises(ParameterError):
        stratum_audit(0, 10, 3, 5, 9, StratumProfile(0, 8, 2))  # b1 + b2 > n
    with pytest.raises(ParameterError):
        stratum_audit(0, 4, 3, 5, 9, StratumProfile(1, 0, 2))  # d' < 0


def test_vdim_identity_two_groupings_agree():
    # delta - (b0 + 2 b2)(r+2-e) - b2 - b1 == delta - (2r+5-2e) b2 - (r+2-e) b0 - b1
    for r in range(1, 9):
        for e in range(3, 7):
            for b0 in range(4):
                for b1 in range(4):
                    for b2 in range(4):
                        lhs = -(b0 + 2 * b2) * (r + 2 - e) - b2 - b1
                        rhs = -(2 * r + 5 - 2 * e) * b2 - (r + 2 - e) * b0 - b1
                        assert lhs == rhs


def test_case_a_passes_whenever_r_is_at_least_2e_minus_3():
    rng = random.Random(3)
    for _ in range(500):
        e = rng.randint(3, 6)
        r = rng.randint(2 * e - 3, 12)
        g = rng.randint(0, 3)
        d = rng.randint(2 * g + 1, 40)
        n = rng.randint(max(2 * g, 1) + 1, 40)
        b2 = rng.randint(0, min(n, d // 2))
        b1 = rng.randint(0, n - b2)
        b0 = rng.randint(0, d - 2 * b2)
        if (b0, b1, b2) == (0, 0, 0):
            continue
        if n - b1 - b2 < max(2 * g, 1):
            continue
        rep = stratum_audit(g, d, e, r, n, StratumProfile(b0, b1, b2))
        assert rep.case == "A" and rep.passed


# -- certification ---------------------------------------------------------------------

def test_certified_examples():
    assert certify_enumerative(0, 10, 3, 5).certified
    rep = certify_enumerative(1, 65, 3, 5)
    assert rep.certified and rep.bound_satisfied and not rep.audit_sharper


def test_refusal_example():
    rep = certify_enumerative(1, 5, 3, 5)
    assert not rep.certified
    assert rep.witness is not None and not rep.witness.passed
    # the named failing stratum from the contract fails its audit too
    named = stratum_audit(1, 5, 3, 5, 4, StratumProfile(0, 4, 0))
    assert not named.passed
    # the reported witness is the lexicographically least (b2, b1, b0) failure
    failures = []
    for b0, b1, b2 in admissible_strata(5, 4):
        a = stratum_audit(1, 5, 3, 5, 4, StratumProfile(b0, b1, b2))
        if not a.passed:
            failures.append((b2, b1, b0))
    b2, b1, b0 = min(failures)
    assert rep.witness.stratum == StratumProfile(b0, b1, b2)


def test_certify_gates():
    # (g, d) with too few marks: e = 3, r = 2, d = 2 gives n = 1 < 2g = 2
    rep = certify_enumerative(1, 2, 3, 2)
    assert not rep.certified and "below" in rep.reason


def brute_certify(g, d, e, r):
    """Reference sweep: stratum_audit on every stratum in (b2, b1, b0) order."""
    n = dims_check(g, d, e, r)
    for checked, (b0, b1, b2) in enumerate(admissible_strata(d, n), start=1):
        audit = stratum_audit(g, d, e, r, n, StratumProfile(b0, b1, b2))
        if not audit.passed:
            return False, "failing stratum", audit.stratum, checked
    return True, "all strata pass", None, count_admissible_strata(d, n)


def _sweep_oracle_tuples():
    """Small tuples accepted by dims_check that reach the sweep.

    The n and d gates return before any stratum is examined; test_certify_gates
    covers them.
    """
    out = []
    for g in range(5):
        for e in range(3, 7):
            for r in range(1, 17):
                for d in range(1, 41):
                    try:
                        n = dims_check(g, d, e, r)
                    except ParameterError:
                        continue
                    if n >= max(2 * g, 1) and d >= 2 * g:
                        out.append((g, d, e, r))
    return out


@given(st.sampled_from(_sweep_oracle_tuples()))
@example((1, 5, 3, 5))
@settings(deadline=None)
def test_certify_matches_brute_stratum_sweep(tup):
    rep = certify_enumerative(*tup)
    witness = rep.witness.stratum if rep.witness else None
    assert (rep.certified, rep.reason, witness, rep.strata_checked) == brute_certify(*tup)


def test_sweep_is_exhaustive_and_counted():
    for d, n in ((10, 9), (5, 4), (7, 10)):
        seen = set()
        for stratum in admissible_strata(d, n):
            assert stratum not in seen
            seen.add(stratum)
        assert len(seen) == count_admissible_strata(d, n)
    rep = certify_enumerative(0, 10, 3, 5)
    assert rep.strata_checked == count_admissible_strata(10, 9)


def test_above_bound_implies_certified():
    for r in range(5, 9):
        for g in range(3):
            bound = enum_bound_closed(g, 3, r)
            d = r if bound is None else (int(bound) // r + 1) * r
            rep = certify_enumerative(g, d, 3, r)
            assert rep.certified, (g, d, r, rep.reason)
            assert rep.bound_satisfied and not rep.audit_sharper


def test_audit_sharper_flag():
    # r = 3 <= (e+1)(e-2): no closed bound, yet small d certifies by audit
    rep = certify_enumerative(0, 3, 3, 3)
    assert rep.certified and not rep.bound_applicable and rep.audit_sharper
    # r = 5, g = 1, d = 60 is *at* the bound (not above); the audit result
    # is reported either way, and any certificate would be audit-sharper
    rep = certify_enumerative(1, 60, 3, 5)
    assert rep.bound_applicable and not rep.bound_satisfied
    assert rep.audit_sharper == rep.certified
