"""The intersection-theory engine over the Jacobian.

Counts degree-d maps from a general genus-g curve C to a degree-e
hypersurface in P^{r+1} through n point (or linear-space) conditions, by
multiplying four classes on a projective bundle over the degree-d Jacobian
of C and integrating:

1. per mark i, the incidence class  H^{r+1} + H^r H_i + ... + H_i^{r+1};
2. per mark i, the excess factor    prod_{k=1}^{e} ((k-1) H + (e+1-k) H_i)
   forcing e-fold vanishing of the defining equation at the mark;
3. globally, the top Chern class of the twisted push-down bundle,
       e^t * sum_{m=0}^{g} (-e)^m * theta^[m] * H^{t-m},
   t = (d-n)e - g + 1, forcing the map to land in the hypersurface;
4. per mark i, H_i^{r+1-ell_i} cutting the target to a general
   ell_i-dimensional linear space (ell_i = 1: a general line).

Since each H_i appears in the factors for mark i only, extracting the
H_i^{r+1} coefficient factorizes: each mark contributes a *monomial*
alpha * H^{r+1+e-ell_i}, raised to the number of marks that share ell_i.
Factor 4 only shifts the H_i power, so the (n+2)-variable expansion
becomes one expansion of factors 1 and 2 in (H, H_i), whose H_i^{ell}
coefficient is alpha for every ell at once.  Factor 1 has every
coefficient 1, so multiplying by it is a running sum: alpha_ell is the
sum of the excess factor's coefficients up to H_i^ell.  The remaining
class in H and theta is pushed down to the Jacobian
(H^{N-1+k} -> (r+2)^k theta^[k], N = (r+2)(d-g+1)) and integrated there
(the theta^[g] coefficient).

The Jacobian stages work in the divided powers theta^[m] = theta^m / m!,
where theta^[j] theta^[k] = C(j+k, j) theta^[j+k] and the integral of
theta^[g] is 1.  The 1/m! of the Chern class and the 1/k! of the Segre
class are absorbed there, so every coefficient is a plain ``int``.  The
Chern class is a scale e^t and the ratio -e of successive terms, and the
pushforward sums its terms against the Segre terms with one running term;
a class on the Jacobian is its list of theta^[m] coefficients.  The
engine never evaluates the closed form's (r+2-e)^g.  The excess factor,
a class in (H, H_i) with H_i capped at H_i^{r+1}, is a ``TruncPoly``.

The point factors depend on (e, r) alone, so ``point_factor`` keeps the
last table it built: a sweep's rows come in (e, r) blocks and build each
table once.

The count of honest maps is the resulting degree divided by e^n: each
line condition meets the hypersurface in e points, only one of which is
the assigned one.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import accumulate

from .enumerativity import bundle_rank, dims_check, insertion_counts_check
from .errors import InvariantBreach, ParameterError, int_str
from .truncpoly import TruncPoly


class HypParams(namedtuple("HypParams", "g d e r n t N ell dims")):
    """A parameter tuple that passed its gate, with its derived quantities.

    ell_i in [1, r+1] is the dimension of the linear space mark i must hit.
    Construction, ``HypParams(g, d, e, r, ell)``, groups the marks by
    dimension and runs ``insertion_counts_check`` on that grouping (the
    gates ``dims_check`` and ``projective_dims_check`` serve the other
    counts), so the engine trusts every instance.  It fills in n, the number
    of marks; t = (d-n)e - g + 1, the rank of the twisted push-down bundle;
    N = (r+2)(d-g+1), the rank of the ambient bundle (fiber dimension
    N - 1); and dims, the gate's grouping as sorted (dimension, number of
    marks) pairs, which is all the engine reads of the profile.

    It is a tuple subclass with read-only fields and no ``__dict__``: it
    compares and hashes as the plain tuple (g, d, e, r, n, t, N, ell, dims)
    of its fields, and equals that tuple.  The namedtuple helpers ``_make``
    and ``_replace`` skip the gate, so build an instance by calling the
    class, or ``standard``, which runs the same checks at ell = (1, ..., 1).
    """

    __slots__ = ()

    def __new__(cls, g: int, d: int, e: int, r: int, ell) -> HypParams:
        ell = tuple(ell)
        counts = Counter(ell)
        n = insertion_counts_check(g, d, e, r, counts)
        return super().__new__(cls, g, d, e, r, n, (d - n) * e - g + 1,
                               (r + 2) * (d - g + 1), ell, tuple(sorted(counts.items())))

    def __getnewargs__(self):
        # Copies and pickles rebuild through the gate, from the given fields.
        return self.g, self.d, self.e, self.r, self.ell

    @classmethod
    def standard(cls, g: int, d: int, e: int, r: int) -> HypParams:
        """Parameters for plain point conditions (every mark on a line).

        The same instance, and the same refusals, as
        ``cls(g, d, e, r, (1,) * dims_check(g, d, e, r))``, with each check
        run once: at ell = (1, ..., 1) every ell_i is in range and the
        insertion gate's dimension condition holds by the definition of n,
        and its tuple and stability checks are those ``dims_check`` has just
        run, so only ``bundle_rank`` is left.
        """
        n = dims_check(g, d, e, r)
        t = bundle_rank(g, d, e, n)
        return tuple.__new__(cls, (g, d, e, r, n, t, (r + 2) * (d - g + 1), (1,) * n,
                                   ((1, n),)))


# One entry: a sweep runs e, then r, outermost, so a table is never needed
# again once its (e, r) block ends, and the memo holds one table, not all.
@lru_cache(maxsize=1)
def point_factor(e: int, r: int) -> tuple[tuple[int, int], ...]:
    """Contribution of one mark, for every insertion dimension at once.

    Mark i contributes the H_i^{r+1} coefficient of
    (sum_{a+b=r+1} H^a H_i^b) * prod_{k=1}^{e} ((k-1)H + (e+1-k)H_i)
    * H_i^{r+1-ell_i}: the monomial alpha_{ell_i} * H^h.  The last factor
    only shifts the H_i power, so one expansion of the first two as an
    honest class in H and H_i (capped at H_i^{r+1}) serves every ell_i:
    alpha_ell is its H_i^ell coefficient and h = degree - ell (by
    homogeneity r+1+e-ell).  Only the excess product is multiplied out,
    in e - 1 small products; the incidence class has every coefficient 1,
    so alpha_ell is the prefix sum of the excess's H_i^0..H_i^ell
    coefficients, O(e^2 + r) steps in all.  Returns the pairs
    (alpha_ell, h) for ell = 1..r+1, so entry ell - 1 is dimension ell;
    that every alpha is nonzero is asserted, not assumed.  The caller's
    ``HypParams`` vouches for e >= 3 and r >= 1.
    """
    excess = TruncPoly(1, "Hi", r + 1, [0, e])
    for k in range(2, e + 1):
        excess = excess * TruncPoly(1, "Hi", r + 1, [k - 1, e + 1 - k])
    # Times the all-ones incidence class, the H_i^ell coefficient is the
    # sum of the excess terms up to H_i^ell: past the excess's last term
    # every alpha is the full sum (zero if the excess has no terms).
    sums = list(accumulate(excess.terms)) or [0]
    alphas = sums[1 : r + 2] + sums[-1:] * (r + 2 - len(sums))
    degree = excess.degree + r + 1
    if 0 in alphas:
        ell = alphas.index(0) + 1
        raise InvariantBreach(
            f"point factor for (e={e}, r={r}, ell={ell}) has no term at "
            f"H^{degree - ell}: excess {excess!r}"
        )
    return tuple((alpha, degree - ell) for ell, alpha in enumerate(alphas, 1))


def step3_class(e: int, t: int, g: int) -> tuple[int, int]:
    """Top Chern class of the twisted push-down bundle, in H and theta:

        e^t * sum_{m=0}^{g} (-e)^m * theta^[m] * H^{t-m},

    in the divided powers theta^[m] = theta^m / m!, where every coefficient
    is an integer.  Returned as the scale e^t and the ratio -e of
    successive terms: term m is ratio^m theta^[m] H^{t-m}.  The caller's
    ``HypParams`` vouches for t >= g, so no term has a negative H power.
    """
    return e**t, -e


def pushforward_theta(ratio: int, degree: int, r: int, N: int, g: int) -> list[int]:
    """Push the class sum_m ratio^m theta^[m] H^{degree-m} down to the Jacobian.

    H^{N-1+k} becomes the Segre class (r+2)^k theta^[k] on a bundle of rank
    N; powers of H below the fiber dimension N-1 push to zero.  Since
    theta^[m] theta^[k] = C(m+k, m) theta^[m+k], every term lands on
    theta^[out], out = degree - N + 1, as ratio^m C(out, m) (r+2)^(out-m).
    Returns the theta^[0..g] coefficients; theta^[out] is zero past the cap
    at g.  Ratio 0 is the single monomial H^degree.
    """
    pushed = [0] * (g + 1)
    out = degree - (N - 1)
    if not 0 <= out <= g:
        return pushed
    # One running term, from (r+2)^out at m = 0.  The division is exact:
    # term m+1 times (m+1)(r+2) is term m times ratio (out-m).
    term = total = (r + 2) ** out
    for m in range(out):
        term = term * (ratio * (out - m)) // ((m + 1) * (r + 2))
        total += term
    pushed[out] = total
    return pushed


def integrate_theta(c: list[int], g: int) -> int:
    """Integrate over the Jacobian: entry g of ``pushforward_theta``'s list."""
    return c[g]


def deg_T(p: HypParams) -> int:
    """Degree of the incidence cycle for marks with dimensions ``p.ell``.

    The whole pipeline: point factors, Chern class, support-window check,
    pushforward and integral.  Marks with equal ell_i share one monomial,
    read from the (e, r) table of (alpha, h) pairs of ``point_factor``,
    entry ell_i - 1 for dimension ell_i, and raised to their number, read
    from ``p.dims``.  The monomial's coefficient and the
    Chern scale e^t multiply the pushed-down sum once, outside the stages.

    The result is e^n times the count of maps when every mark is on a
    line; it is certified integral and nonnegative, and e is certified to
    divide the table's alpha_1 (it is e!, whatever ``p.ell`` is).  A
    count's cycle degree is alpha_1^n e^t S, so that is what makes e^n
    divide it; e^t alone does whenever t >= n, whatever alpha_1 is.
    """
    table = point_factor(p.e, p.r)
    coeff = 1
    hdeg = 0
    # The gate holds every ell_i to [1, r+1], so no index wraps around.
    for li, mult in p.dims:
        alpha, h = table[li - 1]
        coeff *= alpha**mult
        hdeg += h * mult

    scale, ratio = step3_class(p.e, p.t, p.g)
    degree = hdeg + p.t
    # The Chern terms (-e)^m theta^[m] H^{degree-m}, m = 0..g, are all
    # nonzero, and all lie in the support window [N-1, N-1+g] of H-degrees
    # just when degree = N-1+g.
    if coeff and degree != p.N - 1 + p.g:
        raise InvariantBreach(
            f"pipeline class has top H-degree {degree}, not N - 1 + g = {p.N - 1 + p.g}"
        )
    pushed = pushforward_theta(ratio, degree, p.r, p.N, p.g)
    value = coeff * scale * integrate_theta(pushed, p.g)
    # Only a non-int point factor (a corrupted fixture) makes a non-int
    # here, and int() would truncate it silently.
    if type(value) is not int:
        num, den = value.as_integer_ratio()
        raise InvariantBreach(
            f"cycle degree {int_str(num)}/{int_str(den)} is not an integer")
    if value < 0:
        raise InvariantBreach(f"cycle degree {int_str(value)} is negative")
    alpha_1 = table[0][0]
    if alpha_1 % p.e:
        raise InvariantBreach(
            f"point factor alpha_1 = {int_str(alpha_1)} is not divisible by e = {p.e}"
        )
    return value


def tev_hypersurface_engine(p: HypParams) -> int:
    """The count of honest maps through points: deg_T divided exactly by e^n.

    ``deg_T`` vouches that e^n divides the cycle degree.
    """
    if p.dims != ((1, p.n),):
        raise ParameterError(
            f"a count of maps needs ell_i = 1 for every mark, got ell = {p.ell}"
        )
    return deg_T(p) // p.e**p.n
