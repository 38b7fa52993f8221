"""The intersection-theory engine over the Jacobian.

Counts degree-d maps from a general genus-g curve C to a degree-e
hypersurface in P^{r+1} through n point (or linear-space) conditions, by
multiplying four classes on a projective bundle over the degree-d Jacobian
of C and integrating:

1. per mark i, the incidence class  H^{r+1} + H^r H_i + ... + H_i^{r+1};
2. per mark i, the excess factor    prod_{k=1}^{e} ((k-1) H + (e+1-k) H_i)
   forcing e-fold vanishing of the defining equation at the mark;
3. globally, the top Chern class of the twisted push-down bundle,
       e^t * sum_{m=0}^{g} ((-e)^m / m!) * theta^m * H^{t-m},
   t = (d-n)e - g + 1, forcing the map to land in the hypersurface;
4. per mark i, H_i^{r+1-ell_i} cutting the target to a general
   ell_i-dimensional linear space (ell_i = 1: a general line).

Since each H_i appears in the factors for mark i only, extracting the
H_i^{r+1} coefficient factorizes: each mark contributes a *monomial*
alpha * H^{r+1+e-ell_i}, turning an (n+2)-variable expansion into one
expansion in (H, H_i) per distinct ell_i, raised to the number of marks
that share it.  The remaining class in H and theta is pushed down to the
Jacobian (H^{N-1+k} -> (r+2)^k theta^k / k!, N = (r+2)(d-g+1)) and
integrated there (theta^g has degree g!).

Every class on the way is homogeneous in H and one capped variable (H_i
capped at H_i^{r+1}, theta at theta^g), so each is a single
``TruncPoly``: a degree and one list of coefficients.  A coefficient is an
``int`` wherever the division that made it is exact, and a ``Fraction``
only where it is not (the 1/m! and 1/k! of genus >= 2).

A point factor depends on (e, r, ell_i) alone, so the entry points take an
optional ``marks`` dict that keeps the factors built so far under that key;
a sweep passes one dict for all its rows, and a one-off query gets a fresh
one.

The count of honest maps is the resulting degree divided by e^n: each
line condition meets the hypersurface in e points, only one of which is
the assigned one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .enumerativity import dims_check, insertion_dims_check
from .errors import InvariantBreach, ParameterError
from .truncpoly import TruncPoly


@dataclass(frozen=True)
class HypParams:
    """A parameter tuple that passed its gate, with its derived quantities.

    ell_i in [1, r+1] is the dimension of the linear space mark i must hit.
    ``__post_init__`` runs ``insertion_dims_check`` (the gates ``dims_check``,
    ``line_dims_check`` and ``projective_dims_check`` serve the other counts),
    so the engine trusts every instance.  It sets n, the number of marks;
    t = (d-n)e - g + 1, the rank of the twisted push-down bundle; and
    N = (r+2)(d-g+1), the rank of the ambient bundle (fiber dimension N - 1).
    """

    g: int
    d: int
    e: int
    r: int
    n: int = field(init=False)
    t: int = field(init=False)
    N: int = field(init=False)
    ell: tuple[int, ...]

    def __post_init__(self):
        g, d, e, r = self.g, self.d, self.e, self.r
        ell = tuple(self.ell)
        n = insertion_dims_check(g, d, e, r, ell)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", (d - n) * e - g + 1)
        object.__setattr__(self, "N", (r + 2) * (d - g + 1))

    @classmethod
    def standard(cls, g: int, d: int, e: int, r: int) -> HypParams:
        """Parameters for plain point conditions (every mark on a line)."""
        return cls(g, d, e, r, (1,) * dims_check(g, d, e, r))


def point_factor(e: int, r: int, ell_i: int) -> tuple[int, int]:
    """Contribution of one mark: the H_i^{r+1} coefficient of its factors.

    Expands (sum_{a+b=r+1} H^a H_i^b) * prod_{k=1}^{e} ((k-1)H + (e+1-k)H_i)
    * H_i^{r+1-ell_i} as an honest class in H and H_i (capped at H_i^{r+1})
    and extracts the top H_i power: the monomial alpha_{ell_i} * H^h, returned
    as the pair (alpha_{ell_i}, h).  The H-degree h is read off the expanded
    class (by homogeneity it is r+1+e-ell_i), and that alpha is nonzero is
    asserted, not assumed.
    """
    if e < 3:
        raise ParameterError(f"hypersurface degree must be >= 3, got e={e}")
    if not (1 <= ell_i <= r + 1):
        raise ParameterError(f"insertion dimension {ell_i} out of range [1, {r + 1}]")
    total = TruncPoly(r + 1, "Hi", r + 1, [1] * (r + 2)) * TruncPoly(
        r + 1 - ell_i, "Hi", r + 1, [0] * (r + 1 - ell_i) + [1]
    )
    for k in range(1, e + 1):
        total = total * TruncPoly(1, "Hi", r + 1, [k - 1, e + 1 - k])
    h = total.degree - (r + 1)
    top = total.terms[r + 1] if len(total.terms) > r + 1 else 0
    if top == 0:
        raise InvariantBreach(
            f"point factor for (e={e}, r={r}, ell={ell_i}) has no term at "
            f"H^{h}: {total!r}"
        )
    return top, h


def _exact(num: int, den: int) -> int | Fraction:
    """num / den: ``num // den`` when den divides num, else ``Fraction(num, den)``."""
    q, rem = divmod(num, den)
    return q if rem == 0 else Fraction(num, den)


def step3_class(e: int, t: int, g: int) -> TruncPoly:
    """Top Chern class of the twisted push-down bundle, in H and theta:

        e^t * sum_{m=0}^{g} ((-e)^m / m!) * theta^m * H^{t-m}.

    Requires t >= g; otherwise a negative H power would be needed, which
    is outside this model (and unreachable from validated parameters).
    A coefficient is an ``int`` when m! divides e^t * (-e)^m, which always
    holds for m <= 1.
    """
    if e < 3:
        raise ParameterError(f"hypersurface degree must be >= 3, got e={e}")
    if g < 0:
        raise ParameterError(f"genus must be nonnegative, got g={g}")
    if t < g:
        raise ParameterError(f"rank t = {t} below genus g = {g}: out of model")
    scale = e**t
    return TruncPoly(
        t, "theta", g, [_exact(scale * (-e) ** m, factorial(m)) for m in range(g + 1)]
    )


def _require_theta(c: TruncPoly, g: int) -> None:
    if (c.var, c.cap) != ("theta", g):
        raise ParameterError(
            f"class lives in {c.var}<={c.cap}, not the Jacobian's theta<={g}"
        )


def pushforward_theta(c: TruncPoly, p: HypParams) -> TruncPoly:
    """Push a class in H and theta down to the Jacobian.

    H^{N-1+k} becomes the Segre class (r+2)^k * theta^k / k!; powers of H
    below the fiber dimension N-1 push to zero.  Every term of a class of
    degree D lands on theta^{D-N+1}, where the theta cap at g still applies.
    The Segre factor is an ``int`` when k! divides (r+2)^k, as it does for
    k <= 1.
    """
    _require_theta(c, p.g)
    out = c.degree - (p.N - 1)
    if not 0 <= out <= p.g:
        return TruncPoly(out, "theta", p.g, [])
    total = 0
    for j, coeff in enumerate(c.terms[: out + 1]):
        k = out - j
        total += coeff * _exact((p.r + 2) ** k, factorial(k))
    return TruncPoly(out, "theta", p.g, [0] * out + [total])


def integrate_theta(c: TruncPoly, g: int) -> Fraction:
    """Integrate over the Jacobian: g! times the theta^g coefficient."""
    _require_theta(c, g)
    if c.degree != g or len(c.terms) <= g:
        return Fraction(0)
    return Fraction(factorial(g) * c.terms[g])


def cycle_degree(p: HypParams, marks: dict | None = None) -> Fraction:
    """Exact degree of the incidence cycle for marks with dimensions ``p.ell``.

    The whole pipeline: point factors, Chern class, support-window check,
    pushforward and integral.  Marks with equal ell_i share one monomial,
    and ``marks`` maps (e, r, ell_i) to the (alpha, h) point factors built
    so far: a missing one is built by ``point_factor`` and stored there, so
    it runs once per key and dict.  With no dict each call starts from an
    empty one.  No integrality or sign check is made here; ``deg_T`` adds
    those.
    """
    if marks is None:
        marks = {}
    coeff = 1
    hdeg = 0
    for li, mult in Counter(p.ell).items():
        key = (p.e, p.r, li)
        factor = marks.get(key)
        if factor is None:
            factor = marks[key] = point_factor(p.e, p.r, li)
        alpha, h = factor
        coeff *= alpha**mult
        hdeg += h * mult

    full = TruncPoly(hdeg, "theta", p.g, [coeff]) * step3_class(p.e, p.t, p.g)

    lo, hi = p.N - 1, p.N - 1 + p.g
    for j, c in enumerate(full.terms):
        h = full.degree - j
        if c and not (lo <= h <= hi):
            raise InvariantBreach(
                f"pipeline class has H-degree {h} outside [{lo}, {hi}]"
            )
    return integrate_theta(pushforward_theta(full, p), p.g)


def deg_T(p: HypParams, marks: dict | None = None) -> int:
    """Degree of the incidence cycle: the full pipeline, integrated.

    The result is e^n times the count of maps when every mark is on a
    line; it is certified integral and nonnegative before being returned.
    ``marks`` is the point-factor dict of ``cycle_degree``.
    """
    value = cycle_degree(p, marks)
    if value.denominator != 1:
        raise InvariantBreach(f"cycle degree {value} is not an integer")
    if value < 0:
        raise InvariantBreach(f"cycle degree {value} is negative")
    return int(value)


def tev_hypersurface_engine(p: HypParams, marks: dict | None = None) -> int:
    """The count of honest maps through points: deg_T divided exactly by e^n.

    ``marks`` is the point-factor dict of ``cycle_degree``.
    """
    if p.ell.count(1) != p.n:
        raise ParameterError(
            f"a count of maps needs ell_i = 1 for every mark, got ell = {p.ell}"
        )
    total = deg_T(p, marks)
    q, rem = divmod(total, p.e**p.n)
    if rem != 0:
        raise InvariantBreach(
            f"cycle degree {total} is not divisible by e^n = {p.e}^{p.n}"
        )
    return q
