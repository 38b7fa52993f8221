"""Tests for the Grassmannian route, against independent oracles.

The Pieri rule is checked against honest two-variable Schur polynomial
arithmetic: s_{(a,b)}(x, y) = (xy)^b * (x^{a-b} + ... + y^{a-b}), products
expanded as plain polynomials and decomposed back into the Schur basis,
with partitions outside the box dropped (the quotient presentation of the
cohomology ring).  That oracle checks the test-side dict Pieri rule for
every special class sigma_i, and the sigma_1 slot-list step.  The route
itself writes the first stage sum_{i+j=s} sigma_i sigma_j in closed form
and integrates sigma_1^g against each class as a ballot number.  The
ballot numbers are checked class by class against sigma_1 steps, and the
count against two pipelines that multiply by sigma_1 g times: one on slot
lists and one on dicts, which multiplies out every sigma_i sigma_j.
Counting fixtures are checked against the Catalan and pencil-count closed
forms.
"""

from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tevdeg.enumerativity import projective_dims_check
from tevdeg.errors import ParameterError
from tevdeg.schubert import pieri_special, tev_p1_schubert


# -- dict <-> slot list --------------------------------------------------------

def slots(box, t):
    """Number of classes (a, t - a) inside the box."""
    return max(min(t, box) - (t + 1) // 2 + 1, 0)


def to_list(box, t, combo):
    """Degree-t dict combination -> slot list (slot m holds a = min(t, box) - m)."""
    out = [0] * slots(box, t)
    for (a, b), c in combo.items():
        assert a + b == t
        out[min(t, box) - a] = c
    return out


def to_dict(box, t, combo):
    """Slot list -> dict combination without zero coefficients."""
    top = min(t, box)
    return {(top - m, t - top + m): c for m, c in enumerate(combo) if c != 0}


def grassmann_integral(box, t, combo):
    """Integrate a degree-t slot list over Gr(2, box+2): the coefficient of (box, box)."""
    return combo[0] if t == 2 * box and combo else 0


def by_degree(combo):
    degrees = {}
    for (a, b), c in combo.items():
        degrees.setdefault(a + b, {})[(a, b)] = c
    return degrees


def pieri(box, combo):
    """The sigma_1 slot-list kernel applied to a dict combination, one degree at a time."""
    out = {}
    for t, part in by_degree(combo).items():
        prod = pieri_special(box, t, to_list(box, t, part))
        for lam, c in to_dict(box, t + 1, prod).items():
            out[lam] = out.get(lam, 0) + c
    return {lam: c for lam, c in out.items() if c != 0}


def integral(box, combo):
    return sum(grassmann_integral(box, t, to_list(box, t, part))
               for t, part in by_degree(combo).items())


# -- the dict Pieri rule and pipeline, for every sigma_i ----------------------

def pieri_special_dict(box, combo, i):
    """Multiply a combination by the special class sigma_i.

    sigma_i with i > box annihilates everything; that is forced by the
    a' <= box constraint rather than special-cased.
    """
    if i < 0:
        raise ParameterError(f"special class index must be nonnegative, got {i}")
    out = {}
    for (a, b), c in combo.items():
        total = a + b + i
        # a' ranges over the horizontal-strip window
        for a2 in range(max(a, total - a), min(box, total - b) + 1):
            b2 = total - a2
            out[(a2, b2)] = out.get((a2, b2), 0) + c
    return {p: c for p, c in out.items() if c != 0}


def tev_p1_schubert_dict(g, d):
    """The count through dict combinations (parameters already valid)."""
    box = d - 1
    s = 2 * d - 2 - g
    if s < 0:
        return 0
    total = {}
    for i in range(s + 1):
        j = s - i
        if i > box or j > box:
            continue  # the class vanishes in the box
        prod = pieri_special_dict(box, {(i, 0): 1}, j)
        for p, c in prod.items():
            total[p] = total.get(p, 0) + c
    total = {p: c for p, c in total.items() if c != 0}
    for _ in range(g):
        total = pieri_special_dict(box, total, 1)
    return total.get((box, box), 0)


def tev_p1_schubert_slots(g, d):
    """The count by g sigma_1 steps on slot lists (parameters already valid)."""
    box = d - 1
    s = 2 * d - 2 - g
    if s < 0:
        return 0
    total = [2 * a - s + 1 for a in range(min(s, box), (s - 1) // 2, -1)]
    for t in range(s, s + g):
        total = pieri_special(box, t, total)
    return grassmann_integral(box, s + g, total)


# -- independent Schur-polynomial oracle --------------------------------------

def schur_poly(a, b):
    """s_{(a,b)} in two variables as {(i, j): coeff}."""
    out = {}
    for k in range(a - b + 1):
        out[(b + (a - b - k), b + k)] = 1
    return out


def poly_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def schur_decompose(p, box):
    """Write a symmetric 2-variable polynomial in the Schur basis, clip to box."""
    p = dict(p)
    combo = {}
    while p:
        (i, j) = max(p)  # lex-leading monomial has i >= j and leads s_{(i, j)}
        assert i >= j, f"non-symmetric remainder at {(i, j)}"
        c = p[(i, j)]
        combo[(i, j)] = c
        for key, v in schur_poly(i, j).items():
            p[key] = p.get(key, 0) - c * v
        p = {k: v for k, v in p.items() if v != 0}
    return {lam: c for lam, c in combo.items() if lam[0] <= box}


def product_via_schur(box, combo, i):
    """Oracle for pieri_special: multiply by s_{(i, 0)} in polynomial land."""
    special = schur_poly(i, 0)
    total = {}
    for (a, b), c in combo.items():
        prod = poly_mul(schur_poly(a, b), special)
        for lam, v in schur_decompose(prod, box).items():
            total[lam] = total.get(lam, 0) + c * v
    return {lam: c for lam, c in total.items() if c != 0}


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def pencil_count(g, d):
    """Count of degree-d pencils on a general genus-g curve when 2d = g + 2."""
    assert 2 * (d - 1) == g
    from math import factorial

    return factorial(g) // (factorial(g - d + 1) * factorial(g - d + 2))


# -- pieri_special -------------------------------------------------------------

def test_pieri_one_box():
    assert pieri(2, {(0, 0): 1}) == {(1, 0): 1}
    assert pieri_special(2, 0, [1]) == [1]


def test_pieri_splits_rows():
    assert pieri(2, {(1, 0): 1}) == {(2, 0): 1, (1, 1): 1}
    assert pieri_special(2, 1, [1]) == [1, 1]


def test_pieri_exceeds_box():
    assert pieri(2, {(2, 2): 1}) == {}
    assert pieri_special(2, 4, [1]) == []


def test_pieri_identity_at_zero():
    assert pieri_special_dict(3, {(2, 1): 5}, 0) == {(2, 1): 5}


def test_pieri_rejects_negative_index():
    with pytest.raises(ParameterError):
        pieri_special_dict(2, {(0, 0): 1}, -1)


@pytest.mark.parametrize("box", [1, 2, 3, 4])
def test_pieri_matches_schur_oracle(box):
    for a in range(box + 1):
        for b in range(a + 1):
            for i in range(box + 2):
                want = product_via_schur(box, {(a, b): 1}, i)
                assert pieri_special_dict(box, {(a, b): 1}, i) == want, (box, (a, b), i)
            assert pieri(box, {(a, b): 1}) == product_via_schur(box, {(a, b): 1}, 1)


def test_pieri_raises_degree_by_exactly_i():
    for box in (2, 3):
        for i in range(box + 1):
            out = pieri_special_dict(box, {(2, 1): 1, (1, 0): 2}, i)
            for (a, b), c in out.items():
                assert c != 0
                assert a + b in (3 + i, 1 + i)


@st.composite
def kernel_cases(draw):
    box = draw(st.integers(0, 12))
    t = draw(st.integers(0, 2 * box + 2))
    combo = draw(st.lists(st.integers(-9, 9), max_size=slots(box, t)))
    return box, t, combo


@given(kernel_cases())
@settings(deadline=None, max_examples=2000)
@example((0, 0, []))
@example((0, 0, [1]))
@example((3, 2, [-4]))
@example((5, 4, [0, 0, 0]))
@example((3, 6, [1]))
@example((12, 25, []))
def test_dense_kernel_matches_dict_oracle(case):
    # Short lists (missing trailing slots), empty lists, negative and zero
    # coefficients, a zero box and t at or past the top degree are all drawn.
    box, t, combo = case
    got = pieri_special(box, t, combo)
    assert len(got) <= slots(box, t + 1)
    assert to_dict(box, t + 1, got) == pieri_special_dict(box, to_dict(box, t, combo), 1)


def test_count_cost_independent_of_box():
    # The count sums about g/2 ballot numbers however large the box: at box
    # 10^9 it sums 21 and gives the 2^g of d > g.
    assert tev_p1_schubert(40, 10**9) == 2**40


def test_single_class_integral_is_ballot_number():
    # sigma_1^g sigma_{(a,b)} with g = 2 box - a - b, by g sigma_1 steps,
    # against the reflection count C(g, k) - C(g, k-1) with k = box - a.
    for box in range(13):
        for a in range(box + 1):
            for b in range(a + 1):
                t, g, k = a + b, 2 * box - a - b, box - a
                combo = to_list(box, t, {(a, b): 1})
                for step in range(t, 2 * box):
                    combo = pieri_special(box, step, combo)
                want = comb(g, k) - (comb(g, k - 1) if k else 0)
                assert grassmann_integral(box, 2 * box, combo) == want, (box, a, b)


# -- grassmann_integral --------------------------------------------------------

def test_integral_of_top_class():
    assert integral(3, {(3, 3): 1}) == 1
    assert grassmann_integral(3, 6, [1]) == 1


def test_integral_wrong_degree():
    assert integral(3, {(3, 2): 7}) == 0
    assert grassmann_integral(3, 5, [7]) == 0
    assert grassmann_integral(3, 6, []) == 0


def test_integral_sigma1_power_is_catalan():
    for box in range(1, 9):
        combo = [1]
        for t in range(2 * box):
            combo = pieri_special(box, t, combo)
        assert grassmann_integral(box, 2 * box, combo) == catalan(box)


def test_duality_pairing():
    # By Giambelli, s_{(a,b)} = s_a s_b - s_{a+1} s_{b-1}; pairing any class
    # with the complementary one hits the top cell exactly once.
    def times_partition(box, combo, a, b):
        plus = pieri_special_dict(box, pieri_special_dict(box, combo, a), b)
        minus = (pieri_special_dict(box, pieri_special_dict(box, combo, a + 1), b - 1)
                 if b else {})
        return {
            lam: c
            for lam in set(plus) | set(minus)
            if (c := plus.get(lam, 0) - minus.get(lam, 0)) != 0
        }

    for box in (2, 3):
        parts = [(a, b) for a in range(box + 1) for b in range(a + 1)]
        for (a, b) in parts:
            for (c, d) in parts:
                if a + b + c + d != 2 * box:
                    continue
                val = integral(box, times_partition(box, {(a, b): 1}, c, d))
                want = 1 if (c, d) == (box - b, box - a) else 0
                assert val == want, ((a, b), (c, d), box)


# -- tev_p1_schubert -----------------------------------------------------------

def test_known_counts():
    assert tev_p1_schubert(3, 4) == 8
    assert tev_p1_schubert(4, 3) == 2 == pencil_count(4, 3)
    assert tev_p1_schubert(6, 4) == 5 == pencil_count(6, 4)
    assert tev_p1_schubert(5, 3) == 0  # empty sum: 2d - 2 - g < 0


def test_large_degree_count_is_2_to_g():
    for g in range(13):
        for d in range(g + 1, g + 4):
            assert tev_p1_schubert(g, d) == 2**g


def _valid_line_degrees(g, d_max):
    for d in range(1, d_max + 1):
        try:
            projective_dims_check(g, d, 1)
        except ParameterError:
            continue
        yield d


def test_count_matches_slot_pipeline():
    for g in range(61):
        for d in _valid_line_degrees(g, g + 7):
            assert tev_p1_schubert(g, d) == tev_p1_schubert_slots(g, d), (g, d)
    for d in (150, 151, 152, 200, 299, 300, 301, 303, 307):
        assert tev_p1_schubert(300, d) == tev_p1_schubert_slots(300, d), d


def test_count_matches_dict_pipeline():
    for g in range(91):
        for d in range(max((g + 2) // 2, 1), g + 6):
            assert tev_p1_schubert(g, d) == tev_p1_schubert_dict(g, d), (g, d)


def test_genus_zero_counts_are_one():
    for d in range(1, 11):
        assert tev_p1_schubert(0, d) == 1


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        tev_p1_schubert(0, 0)
    with pytest.raises(ParameterError):
        tev_p1_schubert(-1, 2)
    with pytest.raises(ParameterError):
        tev_p1_schubert(8, 3)  # n = 2d - g + 1 < 0
