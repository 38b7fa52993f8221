"""Tests for the validity gates, stratum audit, and certification sweep."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tevdeg.acceptance import enumerativity_grid_cases
from tevdeg.cli import _hyp_flags
from tevdeg.closed_forms import tev_p1_cps
from tevdeg.engine import HypParams
from tevdeg.enumerativity import (
    StratumProfile,
    bundle_rank,
    certify_enumerative,
    count_admissible_strata,
    dims_check,
    enum_bound_closed,
    insertion_dims_check,
    projective_dims_check,
    stratum_audit,
)
from tevdeg.errors import ParameterError
from tevdeg.schubert import tev_p1_schubert


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ParameterError as ex:
        return str(ex)


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


def test_insertion_dims_check_names_the_first_offender():
    for r in range(1, 5):
        for ell in ((1, 0, r + 2), (1, r + 2, 0), (2, 1, 1, 0), (r + 2, 1), (1, 1, 1, 9)):
            first = next(li for li in ell if not 1 <= li <= r + 1)
            with pytest.raises(ParameterError) as info:
                insertion_dims_check(0, 6, 3, r, ell)
            assert str(info.value) == f"insertion dimension {first} out of range [1, {r + 1}]"


def test_line_gate_is_the_gate_of_both_p1_routes():
    # The line's gate is the P^r gate at r = 1.
    for g in range(-1, 9):
        for d in range(-1, 9):
            n = _outcome(projective_dims_check, g, d, 1)
            if isinstance(n, str):
                assert _outcome(tev_p1_cps, g, d) == n, (g, d)
                assert _outcome(tev_p1_schubert, g, d) == n, (g, d)
            else:
                assert n == 2 * d - g + 1
                assert isinstance(tev_p1_cps(g, d), int)
                assert isinstance(tev_p1_schubert(g, d), int)


def test_projective_dims_check():
    assert projective_dims_check(2, 2, 2) == 2
    assert projective_dims_check(0, 1, 1) == 3
    assert projective_dims_check(4, 2, 2) == 0
    assert projective_dims_check(3, 1, 1) == 0
    # Each tuple also fails a later check, where there is one, so its
    # message shows the order: r, d, g, integrality, then n < 0.
    for args, message in [
        ((-1, 0, 0), "projective space dimension must be >= 1, got 0"),
        ((-1, 0, 2), "map degree must be positive, got d=0"),
        ((-1, 3, 2), "genus must be nonnegative, got g=-1"),
        ((9, 3, 2), "point count n = (r+1)d/r - g + 1 is not an integer: "
                    "(r+1)d = 9 is not a multiple of r = 2"),
        ((9, 2, 2), "point count n = (r+1)d/r - g + 1 = -5 is negative"),
    ]:
        assert _outcome(projective_dims_check, *args) == message


def test_projective_gate_passes_only_stable_pairs():
    # The gate has no stability check: past its d, g and integrality checks,
    # 2g - 2 + n = g - 1 + (r+1)d/r >= g + 1, since r | d and d >= 1.
    for r in range(1, 7):
        for g in range(12):
            for d in range(1, 30):
                n = _outcome(projective_dims_check, g, d, r)
                if not isinstance(n, str):
                    assert 2 * g - 2 + n >= g + 1, (g, d, r)


def test_bundle_rank():
    assert bundle_rank(1, 3, 3, 2) == 3
    with pytest.raises(ParameterError, match="d >= 2g"):
        bundle_rank(2, 3, 3, 1)
    with pytest.raises(ParameterError, match="must be >= 1"):
        bundle_rank(0, 3, 3, 4)  # t = (3-4)*3 + 1 = -2
    with pytest.raises(ParameterError, match="below genus"):
        bundle_rank(3, 6, 3, 5)


# -- enum_bound_closed -------------------------------------------------------------

def test_bound_values():
    assert enum_bound_closed(1, 3, 5) == Fraction(60)
    assert enum_bound_closed(0, 3, 5) is None
    assert enum_bound_closed(2, 3, 8) == Fraction(8 * (4 * 4 + 1 + 2 * 10), 4)


def test_bound_rejects_small_r():
    with pytest.raises(ParameterError):
        enum_bound_closed(1, 3, 4)  # needs r > 4


def test_bound_refusal_writes_ints_past_the_digit_limit():
    # (e+1)(e-2) at e = 10^2200 has 4,400 digits, past the default limit of
    # 4,300 that str(int) keeps; the refusal is still a ParameterError.
    with pytest.raises(ParameterError, match="closed bound requires") as info:
        enum_bound_closed(1, 10**2200, 5)
    # 10^4400 - 10^2200 - 2
    assert str(info.value).endswith(f"= {'9' * 2199}8{'9' * 2199}8, got r=5")


BIG = 10**5000
BIG_TEXT = "1" + "0" * 5000
# g = BIG, d = 2 BIG and t = 3: 10^5000 - 1 is a multiple of 3.
T3_N = 2 * BIG - (BIG - 1) // 3 - 1


INTEGRALITY_TEXT = f"point count n = (7+2-3)*{BIG_TEXT}/7 - 0 + 1 is not an integer"


@pytest.mark.parametrize("call, text", [
    pytest.param(lambda: dims_check(-BIG, 1, 3, 3),
                 f"genus must be nonnegative, got g=-{BIG_TEXT}", id="tuple-g"),
    pytest.param(lambda: dims_check(0, -BIG, 3, 3),
                 f"map degree must be positive, got d=-{BIG_TEXT}", id="tuple-d"),
    pytest.param(lambda: dims_check(0, 1, -BIG, 3),
                 f"hypersurface degree must be >= 3, got e=-{BIG_TEXT}", id="tuple-e"),
    pytest.param(lambda: dims_check(0, 1, 3, -BIG),
                 f"hypersurface dimension must be >= 1, got r=-{BIG_TEXT}", id="tuple-r"),
    pytest.param(lambda: dims_check(0, BIG, 3, 7), INTEGRALITY_TEXT, id="integrality"),
    pytest.param(lambda: certify_enumerative(0, BIG, 3, 7), INTEGRALITY_TEXT, id="certify"),
    pytest.param(lambda: HypParams.standard(0, BIG, 3, 7), INTEGRALITY_TEXT, id="standard"),
    pytest.param(lambda: bundle_rank(BIG, 1, 3, 1),
                 f"need d >= 2g, got d=1, g={BIG_TEXT}", id="d-below-2g"),
    pytest.param(lambda: bundle_rank(0, 1, 3, BIG),
                 f"bundle rank t = (d-n)e - g + 1 = -2{'9' * 4999}6 must be >= 1",
                 id="t-below-1"),
    pytest.param(lambda: bundle_rank(BIG, 2 * BIG, 3, T3_N),
                 f"bundle rank t = 3 below genus g = {BIG_TEXT}: out of model", id="t-below-g"),
    pytest.param(lambda: stratum_audit(0, 1, 3, 3, 1, StratumProfile(0, BIG, 0)),
                 f"b1 + b2 = {BIG_TEXT} exceeds n = 1", id="stratum-b1-b2"),
    pytest.param(lambda: stratum_audit(0, 1, 3, 3, BIG, StratumProfile(0, 0, BIG // 10)),
                 f"stratum degree d' = -1{'9' * 4999} is negative", id="stratum-degree"),
    pytest.param(lambda: stratum_audit(0, 1, 3, 3, 1, StratumProfile(-BIG, 0, 0)),
                 f"stratum counts must be nonnegative: StratumProfile(b0=-{BIG_TEXT}, b1=0, b2=0)",
                 id="stratum-counts"),
])
def test_gate_refusals_write_ints_past_the_digit_limit(call, text):
    # Every int is past the default limit of 4,300 digits that str(int)
    # keeps, and the refusal is still a ParameterError.
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == text


def test_stratum_refusal_writes_the_stratum_as_its_repr():
    # Under the digit limit, the refusal's text is that of the NamedTuple's repr.
    stratum = StratumProfile(-1, 2, 0)
    with pytest.raises(ParameterError) as info:
        stratum_audit(0, 1, 3, 3, 1, stratum)
    assert str(info.value) == f"stratum counts must be nonnegative: {stratum!r}"


def test_certificate_bound_fields():
    def verdict(g, d, e, r):
        rep = certify_enumerative(g, d, e, r)
        return rep.closed_bound, rep.bound_applicable, rep.bound_satisfied

    assert verdict(1, 65, 3, 5) == (Fraction(60), True, True)
    assert verdict(1, 60, 3, 5) == (Fraction(60), True, False)
    assert verdict(0, 5, 3, 5) == (None, True, True)
    assert verdict(1, 100, 3, 4) == (None, False, False)


def test_bound_ok_is_applicable_and_satisfied():
    # The hyp flag and the certificate read one verdict: on the criterion-5
    # tuples and on every valid tuple with r from below the threshold
    # (e+1)(e-2) to 12 past it.  certify_enumerative compares d with the
    # bound in ints; the oracle is the Fraction comparison, and the grid
    # meets integer bounds exactly, (1, 60, 3, 5) among them.
    cases = list(enumerativity_grid_cases())
    for e in (3, 4):
        edge = (e + 1) * (e - 2)
        for r in range(edge - 1, edge + 13):
            for g in range(4):
                for d in range(1, 241):
                    try:
                        dims_check(g, d, e, r)
                    except ParameterError:
                        continue
                    cases.append((g, d, e, r))
    seen, on_the_bound = set(), set()
    for g, d, e, r in cases:
        rep = certify_enumerative(g, d, e, r)
        bound_ok = _hyp_flags(rep)["bound_ok"]
        assert bound_ok == (rep.bound_applicable and rep.bound_satisfied), (g, d, e, r)
        try:
            bound = enum_bound_closed(g, e, r)
        except ParameterError:
            assert not rep.bound_applicable and rep.closed_bound is None
            assert not rep.bound_satisfied
        else:
            assert rep.bound_applicable and rep.closed_bound == bound
            assert rep.bound_satisfied == (bound is None or d > bound), (g, d, e, r)
            if bound is not None and d == bound:
                on_the_bound.add((g, d, e, r))
        seen.add((rep.bound_applicable, bound_ok))
    assert seen == {(False, False), (True, False), (True, True)}
    assert (1, 60, 3, 5) in on_the_bound and len(on_the_bound) > 1


def test_reports_are_immutable():
    stratum = StratumProfile(0, 4, 0)
    rep = certify_enumerative(1, 5, 3, 5)
    for report, field in ((stratum, "b1"), (rep.witness, "passed"),
                          (rep, "bound_satisfied")):
        with pytest.raises(AttributeError):
            setattr(report, field, getattr(report, field))


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


def admissible_strata(d, n):
    """Yield every admissible stratum in lexicographic (b2, b1, b0) order.

    Admissible: 0 <= b2 <= n, 0 <= b1 <= n - b2, 0 <= b0 <= d - 2*b2, not
    all zero.  Values of b2 with d - 2*b2 < 0 contribute nothing (no map of
    negative degree exists, so those strata are vacuous).
    """
    for b2 in range(n + 1):
        b0_max = d - 2 * b2
        if b0_max < 0:
            continue
        for b1 in range(n - b2 + 1):
            for b0 in range(b0_max + 1):
                if b0 == 0 and b1 == 0 and b2 == 0:
                    continue
                yield b0, b1, b2


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


# The n gate gives d >= 2g, so certify_enumerative needs no d gate.
# dims_check gives n + g - 1 = (r+2-e)d/r with d >= 1, r >= 1 and e >= 3, so
# d > (r+2-e)d/r = n + g - 1.  With n >= max(2g, 1) >= 2g that is d > 3g - 1,
# so d >= 3g >= 2g.  The bound is attained: (g, 3g, 3, 3g) has n = 2g.
def test_n_gate_gives_d_at_least_2g():
    below_2g = at_3g = 0
    for e in range(3, 9):
        for r in range(1, 31):
            for g in range(13):
                for d in range(1, 100):
                    try:
                        n = dims_check(g, d, e, r)
                    except ParameterError:
                        continue
                    if n < max(2 * g, 1):
                        below_2g += d < 2 * g
                        continue
                    assert d >= 3 * g, (g, d, e, r)
                    at_3g += d == 3 * g
    assert below_2g > 0 and at_3g > 0


# For g >= 1 the certificate is the closed bound plus the n gate, n >= 2g.
# Past that gate it audits one stratum, (0, a0, 0) with a0 = n - 2g + 1, which is
# case B (n - a0 = 2g - 1 free marks).  With b0 = b2 = 0, d' = d:
#   vdim = delta - a0,  target = delta,  allowance = (d - a0)e + 1 + g(r+2),
# so it passes iff (d - a0)e + 1 + g(r+2) < a0, i.e. a0(e+1) > de + 1 + g(r+2).
# Put n = (r+2-e)d/r - g + 1, so a0 = (r+2-e)d/r - 3g + 2:
#   d((r+2-e)(e+1) - er)/r > (3g-2)(e+1) + 1 + g(r+2),
# and (r+2-e)(e+1) - er = r - (e+1)(e-2).  The right side is positive for
# g >= 1.  So when r > (e+1)(e-2) the audit passes iff d > enum_bound_closed,
# and otherwise it never passes, just as bound_satisfied is then false.
def test_certified_is_the_bound_and_the_gates_for_positive_genus():
    outcomes = set()
    for e in range(3, 7):
        for r in range(1, 41):
            for g in range(1, 5):
                for d in range(1, 201):
                    try:
                        n = dims_check(g, d, e, r)
                    except ParameterError:
                        continue
                    rep = certify_enumerative(g, d, e, r)
                    n_gate = n >= 2 * g
                    assert rep.certified == (rep.bound_satisfied and n_gate), (g, d, e, r)
                    assert not rep.audit_sharper
                    outcomes.add((rep.certified, rep.bound_applicable, n_gate))
    assert outcomes >= {(True, True, True), (False, True, True), (False, False, True)}


def test_genus_zero_certificates_are_not_monotone_in_d():
    # Recorded behaviour, not an endorsement: at g = 0 and r <= (e+1)(e-2)
    # the audit certifies exactly the d with d(r - (e+1)(e-2)) > -er, so for
    # (e, r) = (3, 3) it certifies d < 9 and refuses every larger d.
    got = {d: certify_enumerative(0, d, 3, 3) for d in (3, 6, 9, 12, 15)}
    assert {d: rep.certified for d, rep in got.items()} == {
        3: True, 6: True, 9: False, 12: False, 15: False}
    assert all(rep.audit_sharper == rep.certified for rep in got.values())


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

    The n gate returns before any stratum is examined; test_certify_gates
    covers it.
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
                    if n >= max(2 * g, 1):
                        out.append((g, d, e, r))
    return out


@given(st.sampled_from(_sweep_oracle_tuples()))
@example((1, 5, 3, 5))
@settings(deadline=None)
def test_certify_matches_brute_stratum_sweep(tup):
    rep = certify_enumerative(*tup)
    witness = rep.witness.stratum if rep.witness else None
    assert (rep.certified, rep.reason, witness, rep.strata_checked) == brute_certify(*tup)


def run_heads_certify(g, d, e, r):
    """Reference: stratum_audit on the head of every monotone run, per b2.

    dims_check gives R = r+2-e >= 1, so within a b2 block both pass
    conditions get easier as b0 grows, case A also as b1 grows, and the
    case-B failure margin falls by e+1 per unit of b1.  A block's first
    failure, if any, is therefore the first stratum of its b1 = 0 row or
    the first stratum (0, max(a0 - b2, 0), b2) of its first case-B row.
    """
    n = dims_check(g, d, e, r)
    a0 = n - max(2 * g, 1) + 1
    checked = -1  # the b2 = 0 block has no (0, 0, 0)
    for b2 in range(min(n, d // 2) + 1):
        width = d - 2 * b2 + 1
        for b0, b1 in ((1 if b2 == 0 else 0, 0), (0, max(a0 - b2, 0))):
            audit = stratum_audit(g, d, e, r, n, StratumProfile(b0, b1, b2))
            if not audit.passed:
                return False, audit, checked + b1 * width + b0 + 1
        checked += (n - b2 + 1) * width
    return True, None, checked


def _wide_grid_tuples():
    """Tuples with g 0..7, e 3..9, r 1..60, d 1..300 past the n gate."""
    out = []
    for g in range(8):
        for e in range(3, 10):
            for r in range(1, 61):
                # dims_check needs r | (r+2-e)*d, so no other d can pass.
                step = r // gcd(r, r + 2 - e)
                for d in range(step, 301, step):
                    try:
                        n = dims_check(g, d, e, r)
                    except ParameterError:
                        continue
                    if n >= max(2 * g, 1):
                        out.append((g, d, e, r))
    return out


# Why certify_enumerative tests only the stratum (0, a0, 0), a0 = n - m + 1,
# m = max(2g, 1).  Past the n gate, 1 <= a0 <= n, so the stratum is
# admissible; a stratum is in case B iff b1 + b2 >= a0.  Write R = r+2-e,
# c2 = r+4-2e and L = d*e + 1 + g(r+2) - (e+1)*a0.  From dims_check, R >= 1
# (R <= 0 forces n <= 1 - g, which is never stable).
#
# Case B.  Expanding stratum_audit's comparison, a case-B stratum fails iff
#     L - (r+2)*b0 - (e+1)*(b1 + b2 - a0) - (r+3-e)*b2 >= 0.
# Every subtracted term is >= 0 (r+3-e = R+1), so any case-B failure gives
# L >= 0, and L >= 0 is exactly the failure of (0, a0, 0).
#
# Case A passes iff R*b0 + c2*b2 + b1 > 0.  At b2 = 0 that holds for every
# stratum other than (0, 0, 0), so a case-A failure needs b2 >= 1 and
# c2 <= 0.  Then r <= 2e-4 <= (e+1)(e-2), hence (e+1)*R <= e*r, and with
# n = R*d/r - g + 1:
#   g >= 1 (m = 2g):  L >= 1 + g(r+2) + (e+1)(3g-2) > 0.
#   g = 0 (m = 1):    stability gives n >= 3, and n - 1 = R*d/r < d gives
#                     d >= 3; r <= 2e-4 gives (e+1)*R/r <= (e+1)/2, so
#                     L = d*e - e - (e+1)*R*d/r >= (e-1)*d/2 - e >= 0.
# So every case-A failure also has L >= 0, and (0, a0, 0) fails too.
#
# Strata in the b2 = 0 block before (0, a0, 0) are all in case A with
# b2 = 0, so they pass, and every stratum with b2 >= 1 comes later.  Hence
# the first failure, if there is one, is (0, a0, 0), at position a0*(d+1)
# in (b2, b1, b0) order.  The test below checks this against the head of
# every monotone run, over a wider grid than the brute oracle's.
@given(st.sampled_from(_wide_grid_tuples()))
@example((1, 5, 3, 5))
@example((1, 3000, 3, 10))
@settings(deadline=None, max_examples=500)
def test_certify_matches_run_heads(tup):
    rep = certify_enumerative(*tup)
    assert (rep.certified, rep.witness, rep.strata_checked) == run_heads_certify(*tup)


def count_admissible_strata_loop(d, n):
    """Reference: the sum over b2 of (n-b2+1)(d-2b2+1), minus (0, 0, 0)."""
    total = 0
    for b2 in range(n + 1):
        if d - 2 * b2 < 0:
            continue
        total += (n - b2 + 1) * (d - 2 * b2 + 1)
    return total - 1


def test_count_admissible_strata_matches_loop():
    # d < 2n stops the sum at b2 = d // 2, d >= 2n at b2 = n.
    for d in range(90):
        for n in range(60):
            assert count_admissible_strata(d, n) == count_admissible_strata_loop(d, n)
    assert count_admissible_strata(3000, 2700) == 4959230450


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
