"""Tests for the small quantum ring of projective space."""

from __future__ import annotations

import random

import pytest

import tevdeg.quantum as quantum
from tevdeg.errors import ParameterError
from tevdeg.quantum import QPolyClass, QTerm, qmul, qpow, quantum_euler, vtev_projective_qh

h = QPolyClass.h_power


# -- the reference ring: every class a dict of terms ---------------------------------
#
# The package's first QPolyClass and qmul, kept as the oracle: a class is a
# finite mapping (q-power, h-power) -> integer and qmul multiplies the dicts
# term by term, so it needs no assumption that a class is one monomial.

class _DictClass:
    """Element of the small quantum ring of P^r."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: dict[QTerm, int]):
        if r < 1:
            raise ParameterError(f"projective space dimension must be >= 1, got {r}")
        clean: dict[QTerm, int] = {}
        for (qe, he), c in terms.items():
            if qe < 0 or not (0 <= he <= r):
                raise ValueError(f"exponent pair {(qe, he)} out of range for r={r}")
            if c == 0:
                continue
            clean[(qe, he)] = c
        self.r = r
        self.terms = clean

    @classmethod
    def h_power(cls, r: int, k: int, c: int = 1) -> _DictClass:
        return cls(r, {(0, k): c})

    @classmethod
    def point(cls, r: int) -> _DictClass:
        return cls.h_power(r, r)

    @classmethod
    def one(cls, r: int) -> _DictClass:
        return cls.h_power(r, 0)

    def __add__(self, other: _DictClass) -> _DictClass:
        if self.r != other.r:
            raise ValueError(f"mismatched rings: r={self.r} vs r={other.r}")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return _DictClass(self.r, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _DictClass)
            and self.r == other.r
            and self.terms == other.terms
        )

    def coeff(self, qe: int, he: int) -> int:
        return self.terms.get((qe, he), 0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (qe, he) in sorted(self.terms):
            c = self.terms[(qe, he)]
            mono = "*".join(
                ([f"q^{qe}" if qe > 1 else "q"] if qe else [])
                + ([f"h^{he}" if he > 1 else "h"] if he else [])
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits)


def _dict_qmul(x: _DictClass, y: _DictClass) -> _DictClass:
    """Quantum product: bilinear extension of h^i * h^j = h^{i+j} or q h^{i+j-r-1}."""
    if x.r != y.r:
        raise ParameterError(f"mismatched rings: r={x.r} vs r={y.r}")
    r = x.r
    out: dict[QTerm, int] = {}
    for (qa, ha), ca in x.terms.items():
        for (qb, hb), cb in y.terms.items():
            qe, he = qa + qb, ha + hb
            if he > r:
                qe, he = qe + 1, he - (r + 1)
            key = (qe, he)
            out[key] = out.get(key, 0) + ca * cb
    return _DictClass(r, out)


def _dict_power(x, k):
    """x^{*k} in the reference ring, one product at a time."""
    acc = _DictClass.one(x.r)
    for _ in range(k):
        acc = _dict_qmul(acc, x)
    return acc


def _dict_euler(r):
    total = _DictClass(r, {})
    for j in range(r + 1):
        total = total + _dict_qmul(_DictClass.h_power(r, r - j), _DictClass.h_power(r, j))
    return total


def _dict_count(g, d, r, n):
    prod = _dict_qmul(_dict_power(_DictClass.point(r), n), _dict_power(_dict_euler(r), g))
    return prod.coeff(d, r)


def same_class(x, ref):
    """x, a QPolyClass, is the reference class ref: terms, text, equality, coeff."""
    assert x.r == ref.r
    assert x.terms == ref.terms, (x, ref)
    assert repr(x) == repr(ref)
    assert x == QPolyClass(ref.r, ref.terms)
    top_q = max([qe for qe, _ in ref.terms] + [0]) + 2
    for qe in range(top_q):
        for he in range(-1, ref.r + 2):
            assert x.coeff(qe, he) == ref.coeff(qe, he), (x, qe, he)


def test_relation_h_to_the_r_plus_one_is_q():
    assert qmul(h(1, 1), h(1, 1)) == QPolyClass(1, {(1, 0): 1})


def test_identity_element():
    for x in (QPolyClass(3, {(2, 1): 5}), QPolyClass(3, {(0, 3): -2}), QPolyClass(3, {})):
        assert qmul(h(3, 0), x) == x
        assert qmul(x, h(3, 0)) == x


def test_mixed_degree_dict_refused():
    with pytest.raises(ValueError, match="degrees 9 and 3"):
        QPolyClass(3, {(2, 1): 5, (0, 3): -2})
    with pytest.raises(ValueError, match="out of range"):
        QPolyClass(3, {(0, 4): 1})
    with pytest.raises(ValueError, match="out of range"):
        QPolyClass(3, {(-1, 3): 1})
    # a zero coefficient is no term, whatever its degree
    assert QPolyClass(3, {(2, 1): 5, (0, 3): 0}) == QPolyClass(3, {(2, 1): 5})
    assert QPolyClass(3, {(2, 1): 0}) == QPolyClass(3, {})


def test_zero_classes_are_equal():
    for r in range(1, 5):
        zero = QPolyClass(r, {})
        for k in range(r + 1):
            for product in (qmul(h(r, k, 0), h(r, r)), qmul(h(r, r), h(r, k, 0))):
                assert product == zero and zero == product
                assert product.terms == {} and repr(product) == "0"
        assert h(r, 1) + h(r, 1, -1) == zero
        assert zero != QPolyClass(r + 1, {})


def test_reduction_past_top_degree():
    assert qmul(h(2, 2), h(2, 2)) == QPolyClass(2, {(1, 1): 1})


def test_mismatched_dimensions_rejected():
    with pytest.raises(ParameterError):
        qmul(h(1, 1), h(2, 1))


def random_terms(rng, r):
    """One term c q^a h^b: a pure class, zero when c is."""
    return {(rng.randint(0, 5), rng.randint(0, r)): rng.randint(-9, 9)}


def random_class(rng, r):
    return QPolyClass(r, random_terms(rng, r))


def random_dict_class(rng, r):
    """A class of the reference ring with up to 8 terms of mixed degrees."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        terms[(rng.randint(0, 3), rng.randint(0, r))] = rng.randint(-9, 9)
    return _DictClass(r, terms)


def test_qmul_associative_and_commutative():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(1, 6)
        a, b, c = (random_dict_class(rng, r) for _ in range(3))
        assert _dict_qmul(a, b) == _dict_qmul(b, a)
        assert _dict_qmul(_dict_qmul(a, b), c) == _dict_qmul(a, _dict_qmul(b, c))
        a, b, c = (random_class(rng, r) for _ in range(3))
        assert qmul(a, b) == qmul(b, a)
        assert qmul(qmul(a, b), c) == qmul(a, qmul(b, c))


def test_qmul_matches_dict_reference():
    rng = random.Random(13)
    for _ in range(2000):
        r = rng.randint(1, 8)
        ta, tb = random_terms(rng, r), random_terms(rng, r)
        same_class(qmul(QPolyClass(r, ta), QPolyClass(r, tb)),
                   _dict_qmul(_DictClass(r, ta), _DictClass(r, tb)))


def test_qpow_matches_dict_reference():
    rng = random.Random(17)
    for _ in range(60):
        r = rng.randint(1, 8)
        terms = random_terms(rng, r)
        x, ref = QPolyClass(r, terms), _DictClass(r, terms)
        want = _DictClass.one(r)
        for k in range(41):
            same_class(qpow(x, k), want)
            want = _dict_qmul(want, ref)


def test_quantum_euler_matches_dict_reference():
    for r in range(1, 13):
        same_class(quantum_euler(r), _dict_euler(r))


def test_count_matches_dict_reference():
    for r in range(1, 7):
        for g in range(7):
            for d in range(r, 4 * r + 1, r):
                n = (r + 1) * d // r - g + 1
                for n2 in (n - 1, n, n + 1):
                    if n2 < 1 or 2 * g - 2 + n2 <= 0:
                        continue
                    assert vtev_projective_qh(g, d, r, n2) == _dict_count(g, d, r, n2), (
                        g, d, r, n2)


def test_grading_additive_on_pure_classes():
    # deg(q^a h^i) = a (r+1) + i; products of pure classes stay pure.
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randint(1, 6)
        qa, ha = rng.randint(0, 3), rng.randint(0, r)
        qb, hb = rng.randint(0, 3), rng.randint(0, r)
        prod = qmul(QPolyClass(r, {(qa, ha): 1}), QPolyClass(r, {(qb, hb): 1}))
        want = (qa + qb) * (r + 1) + ha + hb
        for (qe, he) in prod.terms:
            assert qe * (r + 1) + he == want


def test_quantum_euler_class():
    assert quantum_euler(1) == QPolyClass(1, {(0, 1): 2})
    assert quantum_euler(2) == QPolyClass(2, {(0, 2): 3})
    assert quantum_euler(5) == QPolyClass(5, {(0, 5): 6})
    for r in range(1, 13):
        assert quantum_euler(r) == QPolyClass(r, {(0, r): r + 1})


def test_point_count_examples():
    assert vtev_projective_qh(2, 2, 2, 2) == 9
    assert vtev_projective_qh(0, 1, 1, 3) == 1
    assert vtev_projective_qh(1, 2, 2, 2) == 0  # grading mismatch


def test_count_identity_and_perturbations():
    # The lemma behind qh's count: it is (r+1)^g exactly where the grading
    # reaches q^d h^r, r(n + g - 1) = (r+1)d, and 0 at every other stable n,
    # for every d, not only the multiples of r.
    for r in range(1, 9):
        for g in range(9):
            for d in range(1, 4 * r + 4):
                for n in range(1, (r + 1) * d // r + g + 3):
                    if 2 * g - 2 + n <= 0:
                        continue
                    want = (r + 1) ** g if r * (n + g - 1) == (r + 1) * d else 0
                    assert vtev_projective_qh(g, d, r, n) == want, (g, d, r, n)


def test_qpow_matches_repeated_product():
    rng = random.Random(5)
    for _ in range(40):
        r = rng.randint(1, 6)
        x = random_class(rng, r)
        want = QPolyClass.one(r)
        for k in range(20):
            assert qpow(x, k) == want, (x, k)
            want = qmul(want, x)


def _square_and_multiply(x, k):
    """x^{*k} by square-and-multiply: fewer than 2 * k.bit_length() quantum products.

    The package's qpow before it took powers in closed form, kept as the oracle.
    """
    if k < 0:
        raise ParameterError(f"power must be nonnegative, got {k}")
    if k == 0:
        return QPolyClass.one(x.r)
    acc = x
    for bit in bin(k)[3:]:
        acc = qmul(acc, acc)
        if bit == "1":
            acc = qmul(acc, x)
    return acc


def test_qpow_matches_square_and_multiply():
    rng = random.Random(23)
    for r in range(1, 7):
        for c in range(-3, 4):
            x = QPolyClass(r, {(rng.randint(0, 5), rng.randint(0, r)): c})
            for k in [0, 1, 2, 5000] + rng.sample(range(3, 5000), 150):
                got, want = qpow(x, k), _square_and_multiply(x, k)
                assert (got, got.terms) == (want, want.terms), (x, k)
            big = QPolyClass(r, {(rng.randint(0, 5), rng.randint(0, r)): 1})
            assert qpow(big, 10**9) == _square_and_multiply(big, 10**9)


def test_qpow_rejects_negative_power():
    with pytest.raises(ParameterError):
        qpow(h(2, 1), -1)


def linear_products(r, n_max, g_max):
    """table[n][g] = P^{*n} * E^{*g}, one qmul per mark and per genus.

    One product per factor, as vtev_projective_qh ran before it took powers:
    the oracle for the coefficient it reads.
    """
    point, euler = QPolyClass.point(r), quantum_euler(r)
    acc = QPolyClass.one(r)
    table = []
    for _ in range(n_max + 1):
        row = [acc]
        for _ in range(g_max):
            row.append(qmul(row[-1], euler))
        table.append(row)
        acc = qmul(acc, point)
    return table


def test_count_matches_linear_qmul_loop():
    for r in range(1, 7):
        table = linear_products(r, 201, 12)
        for g in range(13):
            for m in range(1, 201):
                d, n = r * m, (r + 1) * m - g + 1
                if n > 200:
                    break
                for n2 in (n - 1, n, n + 1):
                    if n2 < 1 or 2 * g - 2 + n2 <= 0:
                        continue
                    want = table[n2][g].coeff(d, r)
                    assert vtev_projective_qh(g, d, r, n2) == want, (g, d, r, n2)


@pytest.mark.parametrize("g, d, r, n", [
    (0, 1, 1, 3), (2, 2, 2, 2), (12, 24, 6, 17), (40, 60, 3, 41),
    (2, 3, 3, 10**9), (3, 10**9, 1, 2 * 10**9 - 2), (0, 6 * 10**6, 6, 7 * 10**6 + 1),
])
def test_count_makes_r_plus_2_products(monkeypatch, g, d, r, n):
    # The r + 1 dual-basis products of quantum_euler and the final one: the
    # powers are closed forms, whatever n and g.
    calls = 0
    real = quantum.qmul

    def counting(x, y):
        nonlocal calls
        calls += 1
        return real(x, y)

    monkeypatch.setattr(quantum, "qmul", counting)
    vtev_projective_qh(g, d, r, n)
    assert calls == r + 2


def test_count_validates_one_class(monkeypatch):
    calls = 0
    real = QPolyClass.__init__

    def counting(self, r, terms):
        nonlocal calls
        calls += 1
        real(self, r, terms)

    monkeypatch.setattr(QPolyClass, "__init__", counting)
    assert vtev_projective_qh(12, 24, 6, 17) == 7**12
    assert calls <= 1


def test_names_the_dimension_before_other_parameters():
    for g, d, n in ((0, 1, 3), (-1, 0, 0)):
        with pytest.raises(ParameterError, match="dimension must be >= 1, got 0"):
            vtev_projective_qh(g, d, 0, n)


def test_rejects_unstable_range():
    with pytest.raises(ParameterError):
        vtev_projective_qh(0, 1, 1, 2)  # (g, n) = (0, 2) unstable
    with pytest.raises(ParameterError):
        vtev_projective_qh(0, 1, 1, 0)
