"""Tests for the graded classes of the engine and dense univariates."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tevdeg.truncpoly import TruncPoly, UniPoly


# -- TruncPoly ---------------------------------------------------------------

def test_trunc_mul_drops_over_cap():
    p = TruncPoly(1, "x", 1, [1, 1])  # H + x with x^2 = 0
    assert p * p == TruncPoly(2, "x", 1, [1, 2])
    assert TruncPoly(3, "x", 1, [1, 2, 3]).terms == (1, 2)


def test_trunc_mul_genus_zero_kills_theta():
    theta = TruncPoly(1, "theta", 0, [0, 1])
    assert theta.terms == ()
    assert (theta * TruncPoly(0, "theta", 0, [1])).terms == ()


def test_trunc_mul_below_caps_is_plain_product():
    p = TruncPoly(1, "H1", 2, [1, 1])
    assert p * p == TruncPoly(2, "H1", 2, [1, 2, 1])
    assert repr(p * p) == "1*H^2 + 2*H*H1 + 1*H1^2"


def test_mismatched_var_or_cap_rejected():
    a = TruncPoly(1, "x", 1, [0, 1])
    for b in (TruncPoly(1, "x", 2, [0, 1]), TruncPoly(1, "y", 1, [0, 1])):
        with pytest.raises(ValueError):
            a * b


def test_negative_h_exponent_rejected():
    with pytest.raises(ValueError):
        TruncPoly(0, "x", 2, [1, 1])


def test_zero_coefficients_never_stored():
    assert TruncPoly(3, "x", 5, [0, 2, 0, 0]).terms == (0, 2)
    assert TruncPoly(3, "x", 5, [0, 0]).terms == ()
    assert repr(TruncPoly(3, "x", 5, [])) == "0"
    # (H^2 + Hx + x^2)(H - x) = H^3 - x^3, and x^3 = 0 under the cap.
    prod = TruncPoly(2, "x", 2, [1, 1, 1]) * TruncPoly(1, "x", 2, [1, -1])
    assert prod.terms == (1,)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        TruncPoly(0, "x", 1, [0.5])
    with pytest.raises(TypeError):
        TruncPoly(2, "x", 1, [1, 0, 0.5])  # refused even past the cap



@pytest.mark.parametrize("coeff, kind", [("1", "str"), (Decimal(1), "Decimal"),
                                         (1j, "complex"), (None, "NoneType")])
def test_coefficients_other_than_int_or_fraction_refused(coeff, kind):
    for build in (lambda: TruncPoly(0, "x", 1, [coeff]), lambda: UniPoly("z", [1, coeff])):
        with pytest.raises(TypeError, match=f"must be int or Fraction, got {kind}$"):
            build()
    # Ints, bools among them, and Fractions are kept as they are.
    assert UniPoly("z", [True, Fraction(1, 2), 3]).coeffs == (True, Fraction(1, 2), 3)


CAP = 3

_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
_polys = st.integers(0, 5).flatmap(
    lambda degree: st.lists(_coeffs, max_size=min(degree, CAP) + 1).map(
        lambda terms: TruncPoly(degree, "x", CAP, terms)
    )
)


def _brute(p):
    """The class as a dict (H exponent, x exponent) -> coefficient."""
    return {(p.degree - j, j): c for j, c in enumerate(p.terms) if c}


def _brute_mul(a, b):
    out = {}
    for (ha, xa), ca in _brute(a).items():
        for (hb, xb), cb in _brute(b).items():
            if xa + xb <= CAP:
                key = (ha + hb, xa + xb)
                out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


@given(_polys, _polys, _polys)
def test_mul_associative_and_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    # The product skips the validating constructor; passing its terms back
    # through it must change nothing (no trailing zero, no over-cap term).
    prod = a * b
    assert TruncPoly(prod.degree, "x", CAP, prod.terms) == prod
    assert prod.degree == a.degree + b.degree
    assert _brute(prod) == _brute_mul(a, b)


# -- UniPoly -----------------------------------------------------------------

def test_unipoly_behaves_like_dense_polynomials():
    u = UniPoly("H", [1, 2]) * UniPoly("H", [3, 0, 1])
    assert u == UniPoly("H", [3, 6, 1, 2])
    assert u.coeff(0) == 3 and u.coeff(9) == 0


def test_unipoly_strips_trailing_zeros():
    assert UniPoly("H", [1, 0, 0]).coeffs == (1,)
    assert UniPoly("H", [0, 0]).degree() == -1


def test_unipoly_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        UniPoly("H", [1]) * UniPoly("z", [1])


def test_unipoly_keeps_exact_fractions():
    u = UniPoly("H", [Fraction(1, 2)]) * UniPoly("H", [Fraction(2, 3)])
    assert u.coeff(0) == Fraction(1, 3)


_unipolys = st.lists(_coeffs, max_size=6).map(lambda c: UniPoly("z", c))


@given(_unipolys, _unipolys, _unipolys)
def test_unipoly_mul_matches_validating_constructor(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    # The product skips the validating constructor; passing its coefficients
    # back through it must change nothing (no trailing zero to strip).
    prod = a * b
    assert UniPoly("z", prod.coeffs) == prod
    assert not prod.coeffs or prod.coeffs[-1] != 0
    want = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            want[i + j] += x * y
    assert prod == UniPoly("z", want)


def test_unipoly_mul_by_zero_is_canonical_zero():
    # The zero polynomial has no coefficients, so neither has its product,
    # and a product from the constructor's own stripped input agrees.
    u = UniPoly("z", [1, 2])
    assert (u * UniPoly("z", [])).coeffs == ()
    assert (UniPoly("z", []) * u) == UniPoly("z", [0, 0])
    assert (u * UniPoly("z", [0, 3])).coeffs == (0, 3, 6)
