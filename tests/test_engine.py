"""Tests for the Jacobian intersection pipeline."""

import copy
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

import tevdeg.engine as engine
from tevdeg.closed_forms import alpha_coefficients, deg_T_insertions_closed
from tevdeg.engine import (
    HypParams,
    deg_T,
    integrate_theta,
    point_factor,
    pushforward_theta,
    step3_class,
    tev_hypersurface_engine,
)
from tevdeg.enumerativity import _check_tuple, bundle_rank, dims_check, insertion_dims_check
from tevdeg.errors import InvariantBreach, ParameterError, int_str
from tevdeg.truncpoly import TruncPoly, UniPoly


# -- parameter validation ------------------------------------------------------

def test_standard_params_derived_fields():
    p = HypParams.standard(0, 3, 3, 3)
    assert (p.n, p.t, p.N) == (3, 1, 20)
    p = HypParams.standard(1, 3, 3, 3)
    assert (p.n, p.t, p.N) == (2, 3, 15)


def test_standard_params_rejections():
    with pytest.raises(ParameterError):
        HypParams.standard(0, 4, 3, 3)  # n non-integral
    with pytest.raises(ParameterError):
        HypParams.standard(3, 3, 3, 3)  # n = 0
    with pytest.raises(ParameterError):
        HypParams.standard(2, 3, 3, 3)  # d < 2g
    with pytest.raises(ParameterError):
        HypParams.standard(0, 3, 2, 3)  # e < 3


def test_insertion_params_match_profile():
    p = HypParams(0, 6, 3, 3, [2, 2, 2, 1, 1, 1])
    assert p.n == 6 and p.ell == (2, 2, 2, 1, 1, 1)
    assert HypParams.standard(0, 3, 3, 3).ell == (1, 1, 1)
    with pytest.raises(ParameterError):
        HypParams(0, 6, 3, 3, (2, 2, 2, 1, 1))  # condition fails
    with pytest.raises(ParameterError, match="ell_i = 1 for every mark"):
        tev_hypersurface_engine(p)  # a count of maps needs line conditions


def _outcome(build):
    try:
        return build()
    except ParameterError as ex:
        return str(ex)


def test_standard_gates_match_all_lines_insertions():
    # standard runs dims_check and bundle_rank once each.  It must build the
    # instance, and refuse with the text, of the gates it stands for:
    # dims_check, then the whole insertion gate at ell = (1,)*n.
    refusals = set()
    for g in range(-1, 5):
        for e in range(2, 6):
            for r in range(0, 11):
                for d in range(0, 31):
                    want = _outcome(lambda: HypParams(
                        g, d, e, r, (1,) * dims_check(g, d, e, r)))
                    got = _outcome(lambda: HypParams.standard(g, d, e, r))
                    assert got == want, (g, d, e, r)
                    if isinstance(want, str):
                        refusals.add(want.split(" = ")[0].split(",")[0])
                    else:
                        assert type(got) is HypParams and got.ell == (1,) * got.n
    # Every check of dims_check refuses somewhere on the grid, and so does
    # bundle_rank's d >= 2g.  Its t >= max(1, g) never does at ell = (1,)*n
    # with e >= 3: there d - n = (e-2)d/r + g - 1, which is at least g.
    assert refusals == {
        "genus must be nonnegative", "map degree must be positive",
        "hypersurface degree must be >= 3", "hypersurface dimension must be >= 1",
        "point count n", "(g", "need d >= 2g",
    }, refusals


def test_hypparams_is_its_own_gate():
    # n, t and N are derived, never passed; a profile that does not match
    # (g, d, e, r) is bad input (exit 2), not a broken invariant (exit 3).
    with pytest.raises(ParameterError, match="dimension condition"):
        HypParams(0, 3, 3, 3, (1, 1))
    with pytest.raises(TypeError):
        HypParams(0, 3, 3, 3, 3, 1, 20, (1, 1))
    p = HypParams(0, 3, 3, 3, [1, 1, 1])
    assert p == HypParams.standard(0, 3, 3, 3)
    assert repr(p) == ("HypParams(g=0, d=3, e=3, r=3, n=3, t=1, N=20, ell=(1, 1, 1), "
                       "dims=((1, 3),))")


def test_hypparams_is_a_read_only_tuple_of_its_fields():
    p = HypParams(1, 3, 3, 3, [1, 1])
    for name in ("g", "n", "ell", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, 5)
    assert not hasattr(p, "__dict__")
    q = HypParams(1, 3, 3, 3, (1, 1))
    assert p == q and hash(p) == hash(q) and p is not q
    assert p != HypParams(0, 3, 3, 3, (1, 1, 1))
    # A tuple subclass: it equals, and hashes as, the plain tuple of its fields.
    assert p == (1, 3, 3, 3, 2, 3, 15, (1, 1), ((1, 2),)) and hash(p) == hash(tuple(p))
    assert HypParams.standard(1, 3, 3, 3) == p
    # Copies and pickles go back through the gate with the five given fields.
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(twin) is HypParams and twin == p


def _tuple_walking_insertion_gate(g, d, e, r, ell):
    """The insertion gate as it was when it walked the marks: min, max and
    sum over the tuple, and the first offender found in list order.

    The oracle of the grouped gate, ``insertion_counts_check``, which reads
    each distinct dimension once.
    """
    _check_tuple(g, d, e, r)
    ell = tuple(ell)
    n = len(ell)
    if n < 1:
        raise ParameterError("insertion profile must be nonempty")
    if min(ell) < 1 or max(ell) > r + 1:
        bad = next(li for li in ell if not (1 <= li <= r + 1))
        raise ParameterError(
            f"insertion dimension {int_str(bad)} out of range [1, {int_str(r + 1)}]")
    lhs = r * (n + g - 1)
    rhs = (r + 2 - e) * d + sum(ell) - n
    if lhs != rhs:
        raise ParameterError(
            f"insertion dimension condition fails: r(n+g-1) = {int_str(lhs)} "
            f"!= (r+2-e)d + sum(ell_i - 1) = {int_str(rhs)}"
        )
    if 2 * g - 2 + n <= 0:
        raise ParameterError(f"(g, n) = ({g}, {n}) is outside the stable range")
    bundle_rank(g, d, e, n)
    return n


def _assert_gates_match_the_tuple_walk(g, d, e, r, ell):
    """The grouped gate, ``HypParams`` and the closed form accept and refuse
    as the tuple walk does, with its n and its message; True on acceptance."""
    want = _outcome(lambda: _tuple_walking_insertion_gate(g, d, e, r, ell))
    assert _outcome(lambda: insertion_dims_check(g, d, e, r, ell)) == want, (g, d, e, r, ell)
    got = _outcome(lambda: HypParams(g, d, e, r, ell))
    closed = _outcome(lambda: deg_T_insertions_closed(g, d, e, r, ell))
    if isinstance(want, str):
        assert got == want and closed == want, (g, d, e, r, ell)
        return False
    assert (got.n, got.ell) == (want, tuple(ell))
    assert got.dims == tuple(sorted(Counter(ell).items()))
    assert got.t == (d - want) * e - g + 1
    assert got.N == (r + 2) * (d - g + 1)
    assert type(closed) is int
    return True


def test_hypparams_accepts_exactly_the_insertion_gate():
    # Out-of-range entries (0 and r+2) also sit behind valid ones, and some
    # profiles have two offenders: the first one must be the one named.
    def profiles(r):
        yield from ((1,), (1, 1), (1, 1, 1), (2, 1), (2, 2, 1), (1, 1, 1, 1),
                    (2, 2, 2, 1, 1, 1), (3, 2, 1, 1), ())
        top = r + 2
        yield from ((1, 0, 1), (1, 1, top), (0, top), (top, 0), (2, 1, 0, top),
                    (1, top, 1, 0), (2, 2, 0))

    accepted = 0
    for g in range(-1, 3):
        for d in range(0, 10):
            for e in range(2, 5):
                for r in range(0, 5):
                    for ell in profiles(r):
                        accepted += _assert_gates_match_the_tuple_walk(g, d, e, r, ell)
    assert accepted > 0


def test_grouped_gate_matches_the_tuple_walk_on_random_profiles():
    # Profiles of up to 40 marks, most in range and some not, with d set to
    # balance the dimension condition where it can: every check of the gate
    # is reached, and many refused profiles hold several offenders.
    rng = random.Random(4021)
    outcomes = Counter()
    for _ in range(3000):
        g, e, r = rng.randrange(3), rng.randrange(3, 5), rng.randrange(1, 6)
        n = rng.randrange(41)
        ell = [rng.randrange(1, r + 2) if rng.random() < 0.9 else
               rng.choice((-1, 0, r + 2, r + 3)) for _ in range(n)]
        excess, slope = r * (n + g - 1) - sum(ell) + n, r + 2 - e
        d = excess // slope if slope and excess % slope == 0 else rng.randrange(1, 60)
        if _assert_gates_match_the_tuple_walk(g, d, e, r, ell):
            outcomes["accepted"] += 1
        elif sum(not 1 <= li <= r + 1 for li in set(ell)) > 1:
            outcomes["offenders"] += 1
    assert outcomes["accepted"] > 50 and outcomes["offenders"] > 50, outcomes


# -- point_factor ---------------------------------------------------------------

def test_point_factor_examples():
    assert point_factor(3, 3) == ((6, 6), (21, 5), (27, 4), (27, 3))
    assert point_factor(3, 1) == ((6, 4), (21, 3))
    assert point_factor(6, 1)[0] == (720, 7)


def test_point_factor_is_alpha_monomial():
    for e in range(3, 9):
        for r in range(1, 40):
            alphas = alpha_coefficients(e, r)
            assert point_factor(e, r) == tuple(
                (alphas[ell - 1], r + 1 + e - ell) for ell in range(1, r + 2))


def _per_ell_point_factor(e, r, ell_i):
    """One expansion per ell_i, shift included, as the engine once built it."""
    total = TruncPoly(r + 1, "Hi", r + 1, [1] * (r + 2)) * TruncPoly(
        r + 1 - ell_i, "Hi", r + 1, [0] * (r + 1 - ell_i) + [1]
    )
    for k in range(1, e + 1):
        total = total * TruncPoly(1, "Hi", r + 1, [k - 1, e + 1 - k])
    return total.terms[r + 1], total.degree - (r + 1)


def test_point_factor_matches_per_ell_expansion():
    for e in range(3, 7):
        for r in range(1, 25):
            assert point_factor(e, r) == tuple(
                _per_ell_point_factor(e, r, ell) for ell in range(1, r + 2)), (e, r)


def _brute_point_factor(e, r, ell):
    """The H_i^{r+1} part of the point factor, expanded over (H, H_i) exponent pairs."""

    def mul(a, b):
        out = {}
        for (ha, ia), ca in a.items():
            for (hb, ib), cb in b.items():
                key = (ha + hb, ia + ib)
                out[key] = out.get(key, 0) + ca * cb
        return out

    total = {(a, r + 1 - a): 1 for a in range(r + 2)}
    total = mul(total, {(0, r + 1 - ell): 1})
    for k in range(1, e + 1):
        total = mul(total, {(1, 0): k - 1, (0, 1): e + 1 - k})
    return {h: c for (h, hi), c in total.items() if hi == r + 1 and c}


def test_point_factor_matches_brute_expansion():
    for e in range(3, 7):
        for r in range(1, 11):
            table = point_factor(e, r)
            assert len(table) == r + 1, (e, r)
            for ell in range(1, r + 2):
                top = _brute_point_factor(e, r, ell)
                assert len(top) == 1, (e, r, ell, top)
                [(h, c)] = top.items()
                assert table[ell - 1] == (c, h), (e, r, ell)


def test_point_factor_line_entry_is_e_factorial():
    # alpha_1 = e!, so e divides it: the fact that deg_T checks on every
    # table it reads, and that makes e^n divide the cycle degree.
    for e in range(3, 9):
        for r in range(1, 61):
            assert point_factor(e, r)[0][0] == factorial(e), (e, r)


def test_point_factor_rejects_out_of_range(monkeypatch):
    # point_factor trusts the gate for e and r.  ell_i = 0 and ell_i = r+2
    # would read entries -1 and r+1 of the table; the gate refuses both
    # before any table is built or read.
    from tevdeg.cli import main

    def unreachable(e, r):
        raise AssertionError("point_factor called past the gate")

    monkeypatch.setattr(engine, "point_factor", unreachable)
    for bad in (0, 5):
        ell = (bad, 2, 2, 1, 1, 1)
        with pytest.raises(ParameterError, match=f"dimension {bad} out of range"):
            HypParams(0, 6, 3, 3, ell)
        assert main(["insert", "--g", "0", "--d", "6", "--e", "3", "--r", "3",
                     "--ell", ",".join(map(str, ell)), "--method", "engine"]) == 2


def test_point_factor_breaches_on_a_missing_alpha(monkeypatch):
    # Every alpha_ell is nonzero; a product that lost one is refused, not
    # handed to deg_T as a zero factor.  alpha_ell sums the excess terms up
    # to H_i^ell and the H_i^0 term is zero, so an excess that lost its
    # H_i^1 term has alpha_1 = 0.
    original = TruncPoly.__mul__

    def drop_h_i(a, b):
        out = original(a, b)
        if len(out.terms) > 1:
            out = TruncPoly(out.degree, out.var, out.cap,
                            out.terms[:1] + (0,) + out.terms[2:])
        return out

    monkeypatch.setattr(TruncPoly, "__mul__", drop_h_i)
    with pytest.raises(InvariantBreach, match=r"\(e=3, r=3, ell=1\) has no term at H\^6"):
        point_factor(3, 3)
    # The memo keeps no raise: with the product mended, the next call builds.
    monkeypatch.undo()
    assert point_factor(3, 3) == ((6, 6), (21, 5), (27, 4), (27, 3))
    assert point_factor.cache_info().misses == 2


def _convolution_point_factor(e, r):
    """The excess times the incidence class [1]*(r+2), multiplied out, as
    the engine once built it."""
    excess = TruncPoly(1, "Hi", r + 1, [0, e])
    for k in range(2, e + 1):
        excess = excess * TruncPoly(1, "Hi", r + 1, [k - 1, e + 1 - k])
    total = TruncPoly(r + 1, "Hi", r + 1, [1] * (r + 2)) * excess
    alphas = (total.terms[1:] + (0,) * (r + 1))[: r + 1]
    return tuple((alpha, total.degree - ell) for ell, alpha in enumerate(alphas, 1))


@pytest.mark.parametrize("e", range(3, 9))
def test_running_sum_matches_convolution(e):
    for r in (*range(1, 61), 500, 3000):
        assert point_factor(e, r) == _convolution_point_factor(e, r), (e, r)


def _term_pairs(monkeypatch):
    """Rebind TruncPoly and UniPoly products to log len(a) * len(b) each."""
    pairs = []
    for cls, attr in ((TruncPoly, "terms"), (UniPoly, "coeffs")):
        def logged(a, b, original=cls.__mul__, attr=attr):
            pairs.append(len(getattr(a, attr)) * len(getattr(b, attr)))
            return original(a, b)

        monkeypatch.setattr(cls, "__mul__", logged)
    return pairs


@pytest.mark.parametrize("e", range(3, 7))
def test_point_factor_and_alpha_products_do_not_grow_with_r(e, monkeypatch):
    # Both routes multiply only the e - 1 small products of their excess
    # polynomial, a (k+1)-term class by a 2-term factor, whatever r is; the
    # engine's classes stop at H_i^{r+1}, so at small r a product can be
    # shorter.  The all-ones incidence class is a running sum, never a product.
    pairs = _term_pairs(monkeypatch)
    for r in (3, 3000):
        pairs.clear()
        point_factor(e, r)
        assert sum(pairs) == sum(2 * (min(k, r + 1) + 1) for k in range(1, e)), r
        pairs.clear()
        alpha_coefficients(e, r)
        assert sum(pairs) == sum(2 * (k + 1) for k in range(1, e)), r


# -- the Fraction oracle -------------------------------------------------------------
#
# The engine's Jacobian stages as they were before divided powers: classes in
# H and theta^m as TruncPoly, with the 1/m! and 1/k! carried by Fraction.
# The integer stages are held to it term by term and count by count.

def _jac(degree, g, terms):
    """The class sum_j terms[j] * H^{degree-j} * theta^j, theta capped at g."""
    return TruncPoly(degree, "theta", g, terms)


def _exact(num, den):
    q, rem = divmod(num, den)
    return q if rem == 0 else Fraction(num, den)


def _fraction_step3_class(e, t, g):
    scale = e**t
    return _jac(t, g, [_exact(scale * (-e) ** m, factorial(m)) for m in range(g + 1)])


def _fraction_pushforward_theta(c, p):
    out = c.degree - (p.N - 1)
    if not 0 <= out <= p.g:
        return _jac(out, p.g, [])
    total = 0
    for j, coeff in enumerate(c.terms[: out + 1]):
        k = out - j
        total += coeff * _exact((p.r + 2) ** k, factorial(k))
    return _jac(out, p.g, [0] * out + [total])


def _fraction_integrate_theta(c, g):
    if c.degree != g or len(c.terms) <= g:
        return Fraction(0)
    return Fraction(factorial(g) * c.terms[g])


def _fraction_cycle_degree(p):
    coeff, hdeg = 1, 0
    table = point_factor(p.e, p.r)
    for li, mult in Counter(p.ell).items():
        alpha, h = table[li - 1]
        coeff *= alpha**mult
        hdeg += h * mult
    full = _jac(hdeg, p.g, [coeff]) * _fraction_step3_class(p.e, p.t, p.g)
    return _fraction_integrate_theta(_fraction_pushforward_theta(full, p), p.g)


def _divided(c):
    """A TruncPoly in theta^m as its theta^[m] = theta^m / m! coefficients."""
    return [x * factorial(j) for j, x in enumerate(c.terms)]


def _chern_terms(scale, ratio, g):
    """The (scale, ratio) Chern class as its theta^[0..g] coefficients."""
    return [scale * ratio**m for m in range(g + 1)]


# -- the list oracle ---------------------------------------------------------------
#
# The divided-power stages as they were before the running term: the Chern
# class as the list [(-e)^m for m in 0..g], pushed down with a running
# binomial and a running Segre power.  Exact at any genus, and cheap enough
# to hold the running term to at g in the thousands, where the Fraction
# oracle is not.

def _list_chern_terms(e, g):
    terms = [1]
    for _ in range(g):
        terms.append(terms[-1] * -e)
    return terms


def _list_pushforward_theta(terms, degree, r, N, g):
    pushed = [0] * (g + 1)
    out = degree - (N - 1)
    if not 0 <= out <= g:
        return pushed
    k0 = max(0, out - len(terms) + 1)
    binom = comb(out, k0)
    power = (r + 2) ** k0
    total = 0
    for k in range(k0, out + 1):
        total += terms[out - k] * binom * power
        binom = binom * (out - k) // (k + 1)
        power *= r + 2
    pushed[out] = total
    return pushed


def _oracle_grid():
    """Every valid (g, d, e, r) with e 3..6, r 1..24, g 0..4 and d 1..59."""
    for e in range(3, 7):
        for r in range(1, 25):
            for g in range(5):
                for d in range(1, 60):
                    try:
                        yield HypParams.standard(g, d, e, r)
                    except ParameterError:
                        pass


def test_engine_matches_fraction_oracle_on_grid():
    seen = 0
    for p in _oracle_grid():
        got = deg_T(p)
        assert type(got) is int and got == _fraction_cycle_degree(p), p
        seen += 1
    assert seen == 3300


def test_engine_matches_fraction_oracle_on_mixed_profiles():
    cases = [
        (0, 5, 3, 3, (2, 2, 1, 1, 1)),
        (1, 5, 3, 3, (2, 2, 1, 1)),
        (2, 7, 4, 4, (2, 1, 2)),
        (0, 6, 3, 3, (2, 2, 2, 1, 1, 1)),
        (0, 6, 3, 3, (4, 1, 1, 1, 1, 1)),
        (2, 12, 3, 5, (6, 3, 1, 1, 1, 1, 1, 1, 1, 1)),
        (1, 9, 4, 6, (7, 7, 1, 1, 1, 1, 1, 1)),
        (3, 14, 3, 7, (8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ]
    for g, d, e, r, ell in cases:
        p = HypParams(g, d, e, r, ell)
        assert deg_T(p) == _fraction_cycle_degree(p), p


@pytest.mark.parametrize("g,d", [(200, 3000), (1000, 30000)])
def test_engine_matches_fraction_oracle_at_large_genus(g, d):
    p = HypParams.standard(g, d, 3, 3)
    assert deg_T(p) == _fraction_cycle_degree(p)


# -- step3_class ------------------------------------------------------------------

def test_step3_genus_zero():
    assert step3_class(3, 1, 0) == (3, -3)
    assert _chern_terms(3, -3, 0) == _divided(_fraction_step3_class(3, 1, 0)) == [3]


def test_step3_genus_one():
    assert step3_class(3, 3, 1) == (27, -3)
    assert _chern_terms(27, -3, 1) == _divided(_fraction_step3_class(3, 3, 1)) == [27, -81]


def test_step3_genus_two_has_rational_term():
    # In theta^m the oracle needs 729/2; in theta^[2] it is 81 * 9 = 729.
    assert _fraction_step3_class(3, 4, 2) == _jac(4, 2, [81, -243, Fraction(729, 2)])
    assert step3_class(3, 4, 2) == (81, -3)
    assert _chern_terms(81, -3, 2) == [81, -243, 729]


def test_step3_matches_all_fraction_oracle():
    # Scaled by e^t, each divided-power term ratio^m is the oracle's times
    # m!, an int.
    for e in range(3, 7):
        for g in range(7):
            for t in range(g, g + 9):
                scale, ratio = step3_class(e, t, g)
                assert type(scale) is int and type(ratio) is int, (e, t, g)
                assert (scale, ratio) == (e**t, -e), (e, t, g)
                assert _chern_terms(scale, ratio, g) == _divided(
                    _fraction_step3_class(e, t, g)), (e, t, g)


# -- pushforward and integration ---------------------------------------------------

def _push(ratio, degree, p):
    return pushforward_theta(ratio, degree, p.r, p.N, p.g)


def test_pushforward_examples():
    p = HypParams.standard(1, 3, 3, 3)  # N = 15, r = 3
    # Ratio 0 is the monomial H^degree.
    assert _push(0, 14, p) == [1, 0]
    assert _push(0, 15, p) == [0, 5]
    assert _push(0, 13, p) == [0, 0]
    # Ratio 1 at H^15: H^15 + H^14 theta^[1], both terms land on theta^[1].
    assert _push(1, 15, p) == [0, 6]
    # The oracle agrees: theta^1 = theta^[1].
    assert _fraction_pushforward_theta(_jac(15, 1, [1, 1]), p) == _jac(1, 1, [0, 6])


def test_pushforward_respects_theta_cap():
    p = HypParams.standard(1, 3, 3, 3)
    # H^{N+1} + theta H^N would give theta^[2]; the cap at g = 1 kills it.
    assert _push(1, p.N + 1, p) == [0, 0]
    assert _fraction_pushforward_theta(_jac(p.N + 1, 1, [1, 1]), p).terms == ()
    # So does the Chern ratio -e one H-degree past the support window.
    assert _push(-3, p.N + p.g, p) == [0, 0]


def _sample_params():
    for e in range(3, 7):
        for r in range(e - 1, e + 3):
            for g in range(7):
                for d in range(2 * g, 2 * g + 7):
                    try:
                        yield HypParams.standard(g, d, e, r)
                    except ParameterError:
                        pass


def test_pushforward_matches_all_fraction_oracle():
    seen = 0
    for p in _sample_params():
        alpha, h = point_factor(p.e, p.r)[0]
        coeff, hdeg = alpha**p.n, h * p.n
        scale, ratio = step3_class(p.e, p.t, p.g)
        full = _jac(hdeg, p.g, [coeff]) * _fraction_step3_class(p.e, p.t, p.g)
        want = _fraction_pushforward_theta(full, p)
        got = _push(ratio, hdeg + p.t, p)
        assert [coeff * scale * x for x in got] == _divided(want) + [0] * (
            p.g + 1 - len(want.terms)), p
        # One monomial H^{N-1+k} (ratio 0) pushes to the Segre factor
        # (r+2)^k theta^[k]; the oracle has (r+2)^k / k! on theta^k, a
        # Fraction where k! does not divide (r+2)^k.
        for k in range(-1, p.g + 2):
            got = _push(0, p.N - 1 + k, p)
            want = _fraction_pushforward_theta(_jac(p.N - 1 + k, p.g, [1]), p)
            assert got == _divided(want) + [0] * (p.g + 1 - len(want.terms)), (p, k)
            if 0 <= k <= p.g:
                assert got[k] == (p.r + 2) ** k
        seen += 1
    assert seen > 100


def test_running_term_matches_list_oracle():
    # Every ratio the Chern class can take, and some it cannot, at every
    # landing theta^[out] and just past both ends of the window.
    for p in _sample_params():
        for ratio in range(-7, 3):
            for out in range(-1, p.g + 2):
                degree = p.N - 1 + out
                assert _push(ratio, degree, p) == _list_pushforward_theta(
                    [ratio**m for m in range(p.g + 1)], degree, p.r, p.N, p.g), (
                    p, ratio, out)


@pytest.mark.parametrize("g", [2000, 5000])
def test_running_term_matches_list_oracle_at_large_genus(g):
    # The Chern class of deg_T at its own degree, where the Fraction oracle
    # is too slow; the stages and the whole pipeline both agree.
    p = HypParams.standard(g, 30 * g, 3, 3)
    alpha, h = point_factor(p.e, p.r)[0]
    degree = h * p.n + p.t
    scale, ratio = step3_class(p.e, p.t, p.g)
    want = _list_pushforward_theta(_list_chern_terms(p.e, p.g), degree, p.r, p.N, p.g)
    assert _push(ratio, degree, p) == want
    assert deg_T(p) == alpha**p.n * scale * want[g]


def test_pushed_down_sum_is_the_binomial_power():
    # The lemma behind the engine's agreement with the closed form: the
    # Chern class, pushed down at the top H-degree N - 1 + g and integrated,
    # is sum_m (-e)^m C(g, m) (r+2)^(g-m) = (r+2-e)^g.  N only places the
    # support window, so d = 2g stands for every d.
    for e in range(3, 9):
        for r in range(1, 41):
            for g in range(201):
                N = (r + 2) * (g + 1)
                _, ratio = step3_class(e, g, g)
                pushed = pushforward_theta(ratio, N - 1 + g, r, N, g)
                assert integrate_theta(pushed, g) == (r + 2 - e) ** g, (e, r, g)


def test_integrate_theta():
    # theta^[g] integrates to 1, so theta^g = g! theta^[g] integrates to g!.
    assert integrate_theta([0, 0, 2], 2) == 2 == _fraction_integrate_theta(
        _jac(2, 2, [0, 0, 1]), 2)
    assert integrate_theta([0, 0, 1], 2) == 1
    assert integrate_theta([1], 0) == 1
    assert integrate_theta([0, 1, 0], 2) == 0


# -- the full pipeline ---------------------------------------------------------------

def test_deg_T_contract_values():
    assert deg_T(HypParams.standard(0, 3, 3, 3)) == 648
    assert deg_T(HypParams.standard(1, 3, 3, 3)) == 1944
    assert deg_T(HypParams(0, 6, 3, 3, (2, 2, 2, 1, 1, 1))) == 6001128


def test_engine_contract_values():
    assert tev_hypersurface_engine(HypParams.standard(0, 3, 3, 3)) == 24
    assert tev_hypersurface_engine(HypParams.standard(1, 3, 3, 3)) == 216
    assert tev_hypersurface_engine(HypParams.standard(0, 8, 3, 8)) == 768


def test_deg_T_positive_in_fano_range():
    for g, d, e, r in ((0, 3, 3, 3), (1, 4, 3, 4), (2, 10, 3, 5), (0, 12, 4, 6)):
        p = HypParams.standard(g, d, e, r)
        assert e <= r + 1
        assert deg_T(p) > 0


def test_deg_T_matches_insertion_closed_form_on_mixed_profiles():
    cases = [
        (0, 5, 3, 3, (2, 2, 1, 1, 1)),
        (1, 5, 3, 3, (2, 2, 1, 1)),
        (2, 7, 4, 4, (2, 1, 2)),
    ]
    for g, d, e, r, ell in cases:
        p = HypParams(g, d, e, r, ell)
        assert deg_T(p) == deg_T_insertions_closed(g, d, e, r, ell)


def _count_point_factor(monkeypatch):
    """Rebind engine.point_factor to the true one, logging each (e, r)."""
    calls = []

    def counted(e, r):
        calls.append((e, r))
        return point_factor(e, r)

    monkeypatch.setattr(engine, "point_factor", counted)
    return calls


def test_deg_T_builds_one_point_factor_per_e_r(monkeypatch):
    calls = _count_point_factor(monkeypatch)
    p = HypParams(0, 6, 3, 3, (2, 2, 2, 1, 1, 1))
    assert deg_T(p) == 6001128
    assert calls == [(3, 3)]
    calls.clear()
    deg_T(HypParams.standard(3, 300, 3, 10))  # 268 marks, all ell = 1
    assert calls == [(3, 10)]
    assert point_factor.cache_info().misses == 2
    # The memo holds one table, so (3, 10) replaced (3, 3): the next four
    # calls, over three counts and an insertion profile, build (3, 3) once.
    for g, d in ((0, 3), (1, 3), (0, 6)):
        tev_hypersurface_engine(HypParams.standard(g, d, 3, 3))
    deg_T(p)
    info = point_factor.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (3, 3, 1, 1)


def test_every_insertion_dimension_from_one_point_factor(capsys, monkeypatch):
    # 1,828 marks on lines, then one on each linear space of dimension
    # 1..61 of P^61: every entry of the table is read, from one expansion.
    from tevdeg.cli import main

    ell = (1,) * 1828 + tuple(range(1, 62))
    p = HypParams(1, 1890, 3, 60, ell)
    calls = _count_point_factor(monkeypatch)
    assert deg_T(p) == deg_T_insertions_closed(1, 1890, 3, 60, ell)
    assert calls == [(3, 60)]
    argv = ["insert", "--g", "1", "--d", "1890", "--e", "3", "--r", "60",
            "--ell", ",".join(map(str, ell)), "--json"]
    calls.clear()
    assert main(argv + ["--method", "engine"]) == 0
    assert calls == [(3, 60)]
    engine_doc = json.loads(capsys.readouterr().out)
    assert main(argv + ["--method", "closed"]) == 0
    closed_doc = json.loads(capsys.readouterr().out)
    assert engine_doc["results"][0]["value"] == closed_doc["results"][0]["value"]
    assert calls == [(3, 60)]


def test_a_corrupted_table_stays_out_of_the_memo(monkeypatch):
    # deg_T looks engine.point_factor up at each call, so a corrupted table
    # comes in by rebinding that name, as criterion 6 does.  The memo sits
    # behind the rebinding and keeps the true table.
    p = HypParams.standard(0, 3, 3, 3)
    table = point_factor(3, 3)
    monkeypatch.setattr(engine, "point_factor", lambda e, r: tuple(
        (alpha * Fraction(1, 1_000_000_007), h) for alpha, h in point_factor(e, r)))
    with pytest.raises(InvariantBreach, match="not an integer"):
        deg_T(p)
    monkeypatch.undo()
    assert deg_T(p) == 648 and point_factor(3, 3) is table
    assert point_factor.cache_info().misses == 1


def test_deg_T_rejects_mismatched_profile():
    # deg_T reads the profile from its HypParams, so a profile that does not
    # match (g, d, e, r) has to be refused where HypParams is built.
    with pytest.raises(ParameterError, match="dimension condition"):
        HypParams(0, 3, 3, 3, (1, 1))  # too few marks
    with pytest.raises(ParameterError, match="dimension condition"):
        HypParams(0, 3, 3, 3, (2, 1, 1))


def test_pipeline_support_window():
    # Every term of the assembled class lies in H-degrees N-1 .. N-1+g.
    for g, d, e, r in ((0, 3, 3, 3), (1, 3, 3, 3), (2, 10, 3, 5), (3, 12, 4, 6)):
        p = HypParams.standard(g, d, e, r)
        coeff, hdeg = 1, 0
        for li in p.ell:
            alpha, h = point_factor(e, r)[li - 1]
            coeff *= alpha
            hdeg += h
        scale, ratio = step3_class(e, p.t, g)
        hdegs = sorted(hdeg + p.t - j
                       for j, c in enumerate(_chern_terms(scale, ratio, g)) if coeff * c)
        assert hdegs == list(range(p.N - 1, p.N - 1 + g + 1))
        full = _jac(hdeg, g, [coeff]) * _fraction_step3_class(e, p.t, g)
        assert hdegs == sorted(full.degree - j for j, c in enumerate(full.terms) if c)


def test_exactness_and_divisibility_on_sample():
    for g, d, e, r in ((0, 6, 3, 3), (1, 5, 3, 5), (2, 12, 4, 6), (3, 14, 3, 7)):
        p = HypParams.standard(g, d, e, r)
        total = deg_T(p)  # internal integrality assertions must pass
        assert total % e**p.n == 0


# -- deliberately corrupted fixtures ---------------------------------------------------

def test_corrupted_coefficient_breaches_integrality(monkeypatch):
    original = point_factor

    def corrupted(e, r):
        return tuple((alpha * Fraction(1, 1_000_000_007), h)
                     for alpha, h in original(e, r))

    monkeypatch.setattr(engine, "point_factor", corrupted)
    with pytest.raises(InvariantBreach, match="not an integer"):
        engine.deg_T(HypParams.standard(0, 3, 3, 3))


def test_corrupted_coefficient_breaches_divisibility(monkeypatch):
    original = point_factor

    def corrupted(e, r):
        return tuple((alpha + 1, h) for alpha, h in original(e, r))

    monkeypatch.setattr(engine, "point_factor", corrupted)
    with pytest.raises(InvariantBreach, match="not divisible"):
        engine.tev_hypersurface_engine(HypParams.standard(0, 3, 3, 3))


def test_deg_T_checks_alpha_1_for_any_insertion_dimensions(monkeypatch):
    # The check is on the table deg_T reads, so it holds on insert
    # parameters too, even where no mark uses the line factor.
    original = point_factor
    monkeypatch.setattr(engine, "point_factor", lambda e, r: tuple(
        (alpha + 1, h) for alpha, h in original(e, r)))
    for args, alpha in (((0, 6, 3, 3, (2, 2, 2, 1, 1, 1)), 7), ((0, 3, 4, 3, (2, 2, 2)), 25)):
        with pytest.raises(InvariantBreach, match=f"alpha_1 = {alpha} is not divisible"):
            deg_T(HypParams(*args))


def test_corrupted_degree_breaches_support_window(monkeypatch):
    original = point_factor

    def corrupted(e, r):
        return tuple((alpha, h + 1) for alpha, h in original(e, r))

    monkeypatch.setattr(engine, "point_factor", corrupted)
    with pytest.raises(InvariantBreach, match="H-degree"):
        engine.deg_T(HypParams.standard(0, 3, 3, 3))


def test_breach_on_a_count_past_the_digit_limit_names_it(monkeypatch):
    # The cycle degree of (0, 6600, 3, 3), 6^4401 * 3^6598, and 49^4401
    # both pass the default limit of 4300 digits; each breach still raises.
    p = HypParams.standard(0, 6600, 3, 3)
    table = point_factor(3, 3)
    monkeypatch.setattr(engine, "point_factor",
                        lambda e, r: tuple((-alpha, h) for alpha, h in table))
    with pytest.raises(InvariantBreach, match="is negative"):
        deg_T(p)
    # With 49 for alpha and no scale e^t, 3^n does not divide the degree.
    monkeypatch.setattr(engine, "point_factor",
                        lambda e, r: tuple((49, h) for _, h in table))
    monkeypatch.setattr(engine, "step3_class", lambda e, t, g: (1, 0))
    with pytest.raises(InvariantBreach, match="not divisible"):
        tev_hypersurface_engine(p)


def test_non_int_breach_past_the_digit_limit_exits_3(capsys, monkeypatch):
    # A Fraction point factor makes a cycle degree whose numerator and
    # denominator both pass the default limit of 4300 digits.
    from tevdeg.cli import main

    table = point_factor(3, 3)
    monkeypatch.setattr(engine, "point_factor", lambda e, r: tuple(
        (Fraction(alpha, 1_000_000_007), h) for alpha, h in table))
    code = main(["hyp", "--g", "0", "--d", "6600", "--e", "3", "--r", "3",
                 "--method", "engine"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("internal invariant breach: cycle degree ")
    assert err.count("\n") == 1 and "Traceback" not in err


# -- scale ------------------------------------------------------------------------------

def test_large_parameters_stay_exact():
    p = HypParams.standard(3, 300, 3, 10)
    assert p.n == 268
    value = tev_hypersurface_engine(p)
    want = factorial(2) ** p.n * 9**3 * 3**p.t
    assert value == want
