"""Tests for the closed-form formulas."""

import itertools
import random
import time
from collections import Counter
from math import comb, factorial

import pytest

from tevdeg.cli import sweep_record
from tevdeg.closed_forms import (
    alpha_coefficients,
    compute_cps_schubert_discrepancies,
    deg_T_insertions_closed,
    tev_p1_cps,
    vtev_hypersurface_closed,
    vtev_projective_closed,
)
from tevdeg.engine import HypParams, deg_T
from tevdeg.enumerativity import insertion_dims_check, projective_dims_check
from tevdeg.errors import ParameterError
from tevdeg.schubert import tev_p1_schubert
from tevdeg.truncpoly import UniPoly


# -- tev_p1_cps ----------------------------------------------------------------

def test_cps_values():
    assert tev_p1_cps(3, 4) == 8
    assert tev_p1_cps(2, 2) == 1  # 4 - 1 - 2
    assert tev_p1_cps(0, 1) == 1


def test_cps_is_2_to_g_for_large_degree():
    for g in range(13):
        for d in range(g + 1, g + 4):
            assert tev_p1_cps(g, d) == 2**g


def test_cps_agrees_with_schubert_for_d_at_least_g():
    for g in range(11):
        for d in range(max(g, 1), g + 4):
            assert tev_p1_cps(g, d) == tev_p1_schubert(g, d)


# -- binom, the transcribed formula's binomial ---------------------------------

def binom(n, k):
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    The vanishing convention for out-of-range k matters: the binomial
    formula for maps to the line is stated with binomials whose lower index
    goes negative and is meant to drop those terms.
    """
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@pytest.mark.parametrize(
    "n,k,want",
    [(5, 2, 10), (3, -1, 0), (4, 6, 0), (0, 0, 1), (64, 32, 1832624140942590534)],
)
def test_binom_values(n, k, want):
    assert binom(n, k) == want


def test_binom_rejects_negative_n():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_pascal_identity():
    for n in range(1, 65):
        for k in range(1, n):
            assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


def _cps_as_transcribed(g, d):
    # Cela, Pandharipande and Schmitt, "Tevelev degrees and Hurwitz moduli
    # spaces", with l = d - g - 1: the sum over i <= -l-2 is doubled.
    return (2**g - 2 * sum(binom(g, i) for i in range(g - d))
            + (g - d - 1) * binom(g, g - d) + (d - g - 1) * binom(g, g - d + 1))


def test_cps_running_binomial_equals_the_transcribed_sum():
    checked = []
    for g in range(61):
        for d in range(1, g + 4):   # past d = g + 1 every binomial term is empty or 0
            try:
                projective_dims_check(g, d, 1)
            except ParameterError:
                continue
            assert tev_p1_cps(g, d) == _cps_as_transcribed(g, d), (g, d)
            checked.append((g, d))
    assert {g for g, _ in checked} == set(range(61))
    assert sum(d < g for g, d in checked) == 929    # a nonempty running sum


def test_cps_rejections():
    with pytest.raises(ParameterError):
        tev_p1_cps(0, 0)
    with pytest.raises(ParameterError):
        tev_p1_cps(9, 3)  # n < 0


def test_discrepancy_table_is_current():
    assert compute_cps_schubert_discrepancies() == ()


def test_cps_agrees_with_schubert_everywhere():
    checked = []
    for g in range(61):
        for d in range(1, g + 8):
            try:
                projective_dims_check(g, d, 1)
            except ParameterError:
                continue
            assert tev_p1_cps(g, d) == tev_p1_schubert(g, d), (g, d)
            checked.append((g, d))
    assert len(checked) == 1416
    assert sum(d < g for g, d in checked) == 929


# -- hypersurface closed form ----------------------------------------------------

def test_hypersurface_closed_values():
    value = vtev_hypersurface_closed(0, 3, 3, 3)
    assert value == 24 and type(value) is int
    assert vtev_hypersurface_closed(1, 3, 3, 3) == 216
    assert vtev_hypersurface_closed(0, 8, 3, 8) == 768
    # The flags come from the certificate; a sweep row carries both.
    row = sweep_record(0, 3, 3, 3)
    assert row["value_closed"] == "24" and row["virtual_range"] and not row["bound_ok"]


def test_hypersurface_closed_rejects_non_integral_n():
    with pytest.raises(ParameterError):
        vtev_hypersurface_closed(0, 4, 3, 3)


def test_hypersurface_flags():
    # e = 3, r = 5: virtual range needs 2e <= r + 3, bound needs r > 4.
    row = sweep_record(0, 10, 3, 5)
    assert row["virtual_range"] and row["bound_ok"]
    assert not sweep_record(1, 5, 3, 5)["bound_ok"]  # below the bound 60
    assert not sweep_record(0, 9, 3, 3)["bound_ok"]  # bound inapplicable
    assert not sweep_record(0, 8, 5, 6)["virtual_range"]  # 2e > r + 3


def test_projective_closed():
    assert vtev_projective_closed(0, 7) == 1
    assert vtev_projective_closed(2, 2) == 9
    assert vtev_projective_closed(3, 1) == 8


BIG = 10**5000
BIG_TEXT = "1" + "0" * 5000


@pytest.mark.parametrize("call, text", [
    pytest.param(lambda: vtev_projective_closed(-BIG, 1),
                 f"invalid (g, r) = (-{BIG_TEXT}, 1)", id="projective"),
    pytest.param(lambda: alpha_coefficients(-BIG, 3),
                 f"hypersurface degree must be >= 3, got e=-{BIG_TEXT}", id="alpha-e"),
    pytest.param(lambda: alpha_coefficients(3, -BIG),
                 f"hypersurface dimension must be >= 1, got r=-{BIG_TEXT}", id="alpha-r"),
])
def test_refusals_write_ints_past_the_digit_limit(call, text):
    # Every int is past the default limit of 4,300 digits that str(int)
    # keeps, and the refusal is still a ParameterError.
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == text


def test_projective_closed_refusal_reads_as_the_tuple():
    # Under the digit limit, the text is that of the tuple's repr.
    with pytest.raises(ParameterError) as info:
        vtev_projective_closed(-1, 0)
    assert str(info.value) == f"invalid (g, r) = {(-1, 0)}"


# -- alpha coefficients -----------------------------------------------------------

def test_alpha_e3_r3():
    assert alpha_coefficients(3, 3) == (6, 21, 27, 27, 27, 21, 6)


def test_alpha_invariants():
    for e in range(3, 7):
        for r in range(1, 11):
            vals = alpha_coefficients(e, r)
            assert type(vals) is tuple and all(type(v) is int for v in vals)
            assert len(vals) == e + r + 1
            assert vals[0] == factorial(e)
            assert vals == vals[::-1]
            assert sum(vals) == (r + 2) * e**e
            assert all(v > 0 for v in vals)


def _convolution_alpha_coefficients(e, r):
    """(1 + z + ... + z^{r+1}) * prod_j (j + (e-j) z), multiplied out, as
    alpha_coefficients once built it."""
    poly = UniPoly("z", [1] * (r + 2))
    for j in range(e):
        poly = poly * UniPoly("z", [j, e - j])
    return tuple(poly.coeff(k) for k in range(1, e + r + 2))


@pytest.mark.parametrize("e", range(3, 9))
def test_alpha_window_sums_match_convolution(e):
    for r in (*range(1, 61), 500, 3000):
        assert alpha_coefficients(e, r) == _convolution_alpha_coefficients(e, r), (e, r)


def test_alpha_index_bounds():
    # alpha_1 .. alpha_{e+r+1}, with alpha_1 = alpha_{e+r+1} = e!.
    for e, r in ((3, 3), (3, 1), (5, 2)):
        vals = alpha_coefficients(e, r)
        assert len(vals) == e + r + 1
        assert vals[0] == vals[-1] == factorial(e)


# -- insertion closed form ---------------------------------------------------------

def test_insertions_closed_values():
    assert deg_T_insertions_closed(0, 3, 3, 3, (1, 1, 1)) == 648
    assert deg_T_insertions_closed(1, 3, 3, 3, (1, 1)) == 1944
    assert deg_T_insertions_closed(0, 6, 3, 3, (2, 2, 2, 1, 1, 1)) == 6001128


def test_insertions_all_lines_matches_count_times_e_to_n():
    for g, d, e, r in ((0, 3, 3, 3), (1, 3, 3, 3), (0, 10, 3, 5), (2, 6, 4, 6)):
        count = vtev_hypersurface_closed(g, d, e, r)
        n = (r + 2 - e) * d // r - g + 1
        assert deg_T_insertions_closed(g, d, e, r, (1,) * n) == e**n * count


def test_insertions_rejects_bad_profiles():
    with pytest.raises(ParameterError):
        deg_T_insertions_closed(0, 3, 3, 3, (2, 1, 1))  # dimension condition fails
    with pytest.raises(ParameterError):
        deg_T_insertions_closed(0, 3, 3, 3, (1, 1, 5))  # ell_i > r + 1
    with pytest.raises(ParameterError):
        deg_T_insertions_closed(0, 3, 3, 3, ())
    with pytest.raises(ParameterError):
        # A bare tuple index would read alpha_0 as the last entry.
        deg_T_insertions_closed(0, 3, 3, 3, (1, 1, 0))


def _per_mark_insertions_closed(g, d, e, r, ell):
    """deg_T_insertions_closed as once written: one factor per mark."""
    n = insertion_dims_check(g, d, e, r, ell)
    t = (d - n) * e - g + 1
    alphas = alpha_coefficients(e, r)
    prod = 1
    for li in ell:
        prod *= alphas[li - 1]
    return (r + 2 - e) ** g * e**t * prod


INSERTION_KINDS = ("lines", "single", "every", "mixed")


def _seeded_insertion_cases(seed):
    """Valid (g, d, e, r, ell, kind) for e 3..6 and r 1..12, at most one
    per (e, r, kind): all-lines profiles, single-dimension ones, ones that
    use every dimension 1..r+1, and mixed ones.

    Each profile is drawn first and d solved from the dimension condition
    (r+2-e) d = r(n+g-1) - sum(ell_i - 1); a mixed profile is mostly lines,
    since t >= 1 wants d > n, and its last marks are raised by one
    dimension each until r+2-e divides the right side.
    """
    rng = random.Random(seed)
    cases = []
    for e, r, kind in itertools.product(range(3, 7), range(1, 13), INSERTION_KINDS):
        for _ in range(200):
            g, n = rng.randint(0, 3), rng.randint(1, 150)
            if kind == "lines":
                ell = [1] * n
            elif kind == "single":
                ell = [rng.randint(1, r + 1)] * n
            else:
                ell = [rng.choice((1, 1, 1, rng.randint(1, r))) for _ in range(n)]
            if kind == "every":
                ell = [*range(1, r + 2), *ell]
            slope = r + 2 - e
            rhs = r * (len(ell) + g - 1) - sum(ell) + len(ell)
            if kind in ("every", "mixed") and slope > 0 and rhs % slope <= n:
                for i in range(rhs % slope):
                    ell[-1 - i] += 1
                rhs -= rhs % slope
            d, rem = divmod(rhs, slope) if slope else (rng.randint(1, 100), rhs)
            if rem:
                continue
            rng.shuffle(ell)
            try:
                insertion_dims_check(g, d, e, r, ell)
            except ParameterError:
                continue
            cases.append((g, d, e, r, tuple(ell), kind))
            break
    return cases


def test_insertions_product_of_powers_matches_per_mark_product():
    cases = _seeded_insertion_cases(35)
    for g, d, e, r, ell, kind in cases:
        assert deg_T_insertions_closed(g, d, e, r, ell) == \
            _per_mark_insertions_closed(g, d, e, r, ell), (g, d, e, r, ell)
    kinds = Counter(kind for *_, kind in cases)
    assert min(kinds[kind] for kind in INSERTION_KINDS) >= 30, kinds
    assert {c[2] for c in cases} == set(range(3, 7))
    assert {c[3] for c in cases} == set(range(1, 13))
    assert all(len(set(ell)) == 1 for *_, ell, kind in cases if kind == "single")
    assert all(set(ell) == set(range(1, r + 2)) for _, _, _, r, ell, kind in cases
               if kind == "every")
    assert any(len(ell) > 100 for *_, ell, _ in cases)


def _every_dimension_profile(dims):
    """(g, d, e, r, ell) at e = 3, g = 0, r = dims - 1: dimensions 1..dims
    once each, then lines, so that t = 1 and n = d = dims(dims-1)/2 + r."""
    r = dims - 1
    n = dims * (dims - 1) // 2 + r
    return 0, n, 3, r, (*range(1, dims + 1), *(1,) * (n - dims))


def test_insertions_on_many_dimensions_stay_cheap():
    # The marks are counted in one pass, not one pass per dimension: at
    # 1,000 dimensions and 500,499 marks a count per dimension took 5 s and
    # a factor per mark 10 s; this takes about 0.2 s.
    profile = _every_dimension_profile(300)
    assert deg_T_insertions_closed(*profile) == _per_mark_insertions_closed(*profile)
    profile = _every_dimension_profile(1000)
    start = time.perf_counter()
    value = deg_T_insertions_closed(*profile)
    assert time.perf_counter() - start < 2.0
    assert value.bit_length() == 1295941


def test_engine_insertions_on_many_dimensions_stay_cheap():
    # The engine's twin of the test above: HypParams groups the marks once
    # and deg_T reads one (dimension, count) pair per dimension, where one
    # pass per dimension took 5 s; this takes about 0.1 s.
    profile = _every_dimension_profile(1000)
    p = HypParams(*profile)
    start = time.perf_counter()
    value = deg_T(p)
    assert time.perf_counter() - start < 2.0
    assert value == deg_T_insertions_closed(*profile)
