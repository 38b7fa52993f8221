"""Tests for the small quantum ring of projective space."""

import random

import pytest

import tevdeg.quantum as quantum
from tevdeg.errors import ParameterError
from tevdeg.quantum import QPolyClass, qmul, qpow, quantum_euler, vtev_projective_qh

h = QPolyClass.h_power


def test_relation_h_to_the_r_plus_one_is_q():
    assert qmul(h(1, 1), h(1, 1)) == QPolyClass(1, {(1, 0): 1})


def test_identity_element():
    x = QPolyClass(3, {(2, 1): 5, (0, 3): -2})
    assert qmul(h(3, 0), x) == x


def test_reduction_past_top_degree():
    assert qmul(h(2, 2), h(2, 2)) == QPolyClass(2, {(1, 1): 1})


def test_mismatched_dimensions_rejected():
    with pytest.raises(ParameterError):
        qmul(h(1, 1), h(2, 1))


def random_class(rng, r):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        terms[(rng.randint(0, 3), rng.randint(0, r))] = rng.randint(-9, 9)
    return QPolyClass(r, terms)


def test_qmul_associative_and_commutative():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(1, 6)
        a, b, c = (random_class(rng, r) for _ in range(3))
        assert qmul(a, b) == qmul(b, a)
        assert qmul(qmul(a, b), c) == qmul(a, qmul(b, c))


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
    for r in range(1, 7):
        for g in range(7):
            for d in range(r, 4 * r + 1, r):
                n = (r + 1) * d // r - g + 1
                if n < 1 or 2 * g - 2 + n <= 0:
                    continue
                assert vtev_projective_qh(g, d, r, n) == (r + 1) ** g
                for n2 in (n - 1, n + 1):
                    if n2 < 1 or 2 * g - 2 + n2 <= 0:
                        continue
                    assert vtev_projective_qh(g, d, r, n2) == 0


def test_qpow_matches_repeated_product():
    rng = random.Random(5)
    for _ in range(40):
        r = rng.randint(1, 6)
        x = random_class(rng, r)
        want = QPolyClass.one(r)
        for k in range(20):
            assert qpow(x, k) == want, (x, k)
            want = qmul(want, x)


def test_qpow_rejects_negative_power():
    with pytest.raises(ParameterError):
        qpow(h(2, 1), -1)


def linear_products(r, n_max, g_max):
    """table[n][g] = P^{*n} * E^{*g}, one qmul per mark and per genus.

    The loop that vtev_projective_qh ran before it took powers by
    square-and-multiply: the oracle for the coefficient it reads.
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
def test_qmul_calls_logarithmic(monkeypatch, g, d, r, n):
    calls = 0
    real = quantum.qmul

    def counting(x, y):
        nonlocal calls
        calls += 1
        return real(x, y)

    monkeypatch.setattr(quantum, "qmul", counting)
    vtev_projective_qh(g, d, r, n)
    assert 0 < calls <= 2 * (n.bit_length() + g.bit_length()) + r + 2


def test_names_the_dimension_before_other_parameters():
    for g, d, n in ((0, 1, 3), (-1, 0, 0)):
        with pytest.raises(ParameterError, match="dimension must be >= 1, got 0"):
            vtev_projective_qh(g, d, 0, n)


def test_rejects_unstable_range():
    with pytest.raises(ParameterError):
        vtev_projective_qh(0, 1, 1, 2)  # (g, n) = (0, 2) unstable
    with pytest.raises(ParameterError):
        vtev_projective_qh(0, 1, 1, 0)
