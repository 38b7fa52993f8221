"""Tests for the truncated polynomial engine and binomials."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tevdeg.truncpoly import PolyRing, TruncPoly, UniPoly, binom


# -- binom -------------------------------------------------------------------

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


# -- TruncPoly ---------------------------------------------------------------

def test_trunc_mul_drops_over_cap():
    ring = PolyRing(("x", 1))
    p = ring.from_terms({(0,): 1, (1,): 1})
    assert p * p == ring.from_terms({(0,): 1, (1,): 2})


def test_trunc_mul_genus_zero_kills_theta():
    ring = PolyRing(("theta", 0))
    assert (ring.monomial({"theta": 1}, 1) * ring.monomial({}, 1)).terms == {}


def test_trunc_mul_below_caps_is_plain_product():
    ring = PolyRing("H", ("H1", 2))
    p = ring.monomial({"H": 1}, 1) + ring.monomial({"H1": 1}, 1)
    assert p * p == ring.from_terms({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_incompatible_rings_rejected():
    a = PolyRing(("x", 1)).monomial({"x": 1}, 1)
    b = PolyRing(("x", 2)).monomial({"x": 1}, 1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_zero_coefficients_never_stored():
    ring = PolyRing("x")
    p = ring.monomial({"x": 1}, 1) + ring.monomial({"x": 1}, -1)
    assert p.terms == {}
    q = ring.from_terms({(3,): 0, (1,): 2})
    assert (1,) in q.terms and (3,) not in q.terms
    # (x + 1)(x - 1) = x^2 - 1: the two x terms cancel inside the product.
    prod = ring.from_terms({(1,): 1, (0,): 1}) * ring.from_terms({(1,): 1, (0,): -1})
    assert prod.terms == {(2,): 1, (0,): -1}


def test_float_coefficients_rejected():
    ring = PolyRing("x")
    with pytest.raises(TypeError):
        ring.from_terms({(0,): 0.5})
    with pytest.raises(TypeError):
        ring.monomial({"x": 1}, 0.5)


RING = PolyRing(("x", 3), ("y", 2), "z")

_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
_polys = st.dictionaries(
    st.tuples(
        st.integers(0, 3), st.integers(0, 2), st.integers(0, 4)
    ),
    _coeffs,
    max_size=5,
).map(RING.from_terms)


@given(_polys, _polys, _polys)
def test_mul_associative_and_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    # The product skips the validating constructor; passing its terms back
    # through it must change nothing (no zero, no over-cap term is stored).
    assert RING.from_terms((a * b).terms) == a * b


@given(_polys, _polys, _polys)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


# -- UniPoly -----------------------------------------------------------------

def test_unipoly_behaves_like_dense_polynomials():
    u = UniPoly("H", [1, 2]) * UniPoly("H", [3, 0, 1])
    assert u == UniPoly("H", [3, 6, 1, 2])
    assert u.coeff(0) == 3 and u.coeff(9) == 0
    assert not u.is_monomial()
    assert UniPoly("H", [0] * 6 + [6]).is_monomial()


def test_unipoly_strips_trailing_zeros():
    assert UniPoly("H", [1, 0, 0]).coeffs == (1,)
    assert UniPoly("H", [0, 0]).degree() == -1


def test_unipoly_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        UniPoly("H", [1]) * UniPoly("z", [1])


def test_unipoly_keeps_exact_fractions():
    u = UniPoly("H", [Fraction(1, 2)]) * UniPoly("H", [Fraction(2, 3)])
    assert u.coeff(0) == Fraction(1, 3)
