"""Closed-form count formulas, the oracles for the other routes.

Every formula here is a direct transcription evaluated in exact integer
arithmetic and returns a plain int (or a tuple of them); nothing is shared
with the Schubert, quantum, or intersection pipelines, so agreement between
routes is meaningful evidence.  The only imports from ``enumerativity`` are
the validity gates: whether a count is enumerative is decided by
``certify_enumerative`` alone.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from math import factorial
from operator import sub

from .enumerativity import dims_check, insertion_counts_check, projective_dims_check
from .errors import InvariantBreach, ParameterError, int_str
from .truncpoly import UniPoly


def tev_p1_cps(g: int, d: int) -> int:
    """Binomial formula for counts of degree-d maps to the line.

    Cela, Pandharipande and Schmitt, "Tevelev degrees and Hurwitz moduli
    spaces": with l = d - g - 1 and n = 2d - g + 1 point conditions,

        2^g - 2 sum_{i=0}^{-l-2} C(g,i) + (-l-2) C(g,-l-1) + l C(g,-l)

    where binomials with negative lower index vanish, so the count is 2^g
    whenever d > g.  The sum runs one binomial along, C(g, i+1) =
    C(g, i) (g-i) / (i+1), and ends at c = C(g, g-d), which gives both
    boundary terms: C(g, g-d+1) = c d / (g-d+1).
    """
    projective_dims_check(g, d, 1)
    if d > g:
        return 2**g
    total = 2**g
    c = 1   # C(g, i)
    for i in range(g - d):
        total -= 2 * c
        c = c * (g - i) // (i + 1)
    return total + (g - d - 1) * c + (d - g - 1) * (c * d // (g - d + 1))


def vtev_projective_closed(g: int, r: int) -> int:
    """Count for P^r in the virtual sense: (r+1)^g, independent of d."""
    if g < 0 or r < 1:
        raise ParameterError(f"invalid (g, r) = ({int_str(g)}, {int_str(r)})")
    return (r + 1) ** g


def vtev_hypersurface_closed(g: int, d: int, e: int, r: int) -> int:
    """Closed-form count for a degree-e hypersurface of dimension r:

        ((e-1)!)^n * (r+2-e)^g * e^t,   t = (d-n)e - g + 1,

    with n from the dimension gate.
    """
    n = dims_check(g, d, e, r)
    t = (d - n) * e - g + 1
    return factorial(e - 1) ** n * (r + 2 - e) ** g * e**t


def alpha_coefficients(e: int, r: int) -> tuple[int, ...]:
    """Per-point insertion multipliers alpha_1 .. alpha_{e+r+1}.

    Coefficients of (1 + z + ... + z^{r+1}) * P(z), P = prod_{j=0}^{e-1}
    (j + (e-j) z); the j = 0 factor is e*z, so the constant term vanishes
    and the list starts at z^1.  P is built in e - 1 small products and
    its shape checked (constant term 0, degree e); the all-ones factor is
    never multiplied out: alpha_k is the window sum P_{k-r-1} + ... + P_k,
    read off one running sum of P's coefficients, in O(e^2 + r) steps.
    All entries are positive, the list is palindromic, and it sums to
    (r+2) e^e (both sides evaluated at z = 1).
    """
    if e < 3:
        raise ParameterError(f"hypersurface degree must be >= 3, got e={int_str(e)}")
    if r < 1:
        raise ParameterError(f"hypersurface dimension must be >= 1, got r={int_str(r)}")
    poly = UniPoly("z", [0, e])
    for j in range(1, e):
        poly = poly * UniPoly("z", [j, e - j])
    if poly.coeff(0) != 0 or poly.degree() != e:
        raise InvariantBreach(f"insertion polynomial has unexpected shape: {poly!r}")
    # below[m] = P_0 + ... + P_{m-1} for m = 0..e+1, so alpha_k, the window
    # sum P_{k-r-1} + ... + P_k, is
    #     below[min(k+1, e+1)] - below[max(k-r-1, 0)]:
    # the upper end stays at below[e+1] for the last r+1 values of k, and
    # the lower end at below[0] = 0 for the first r+1.
    below = [0, *accumulate(poly.coeffs)]
    upper = below[2:] + below[-1:] * (r + 1)
    lower = [0] * (r + 1) + below[1:-1]
    return tuple(map(sub, upper, lower))


def deg_T_insertions_closed(g: int, d: int, e: int, r: int, ell) -> int:
    """Closed form for the incidence-cycle degree with linear-space insertions:

        (r+2-e)^g * e^t * prod_i alpha_{ell_i},   t = (d-n)e - g + 1.

    The product over the marks is taken as a product of powers, alpha_ell
    to the number of marks of dimension ell, over the distinct dimensions:
    one power each, where a factor per mark multiplies a growing int n
    times.  ``Counter`` groups the marks in one C-level pass, and the gate
    reads that grouping, so the marks are walked once.  The per-mark loop
    is the test oracle.  At ell = (1, ..., 1) this equals e^n times the
    hypersurface count.
    """
    counts = Counter(ell)
    n = insertion_counts_check(g, d, e, r, counts)
    t = (d - n) * e - g + 1
    alphas = alpha_coefficients(e, r)
    prod = 1
    # The gate holds every ell_i to [1, r+1], so no index wraps around.
    for li, mult in counts.items():
        prod *= alphas[li - 1] ** mult
    return (r + 2 - e) ** g * e**t * prod


def compute_cps_schubert_discrepancies() -> tuple[tuple[int, int, int, int], ...]:
    """Rows (g, d, cps, schubert) where the two routes to the line differ.

    Covers every valid (g, d) with g <= 12 and d <= g + 3; empty when the
    binomial formula and the Grassmannian integral agree.
    """
    from .schubert import tev_p1_schubert

    rows = []
    for g in range(13):
        for d in range(1, g + 4):
            try:
                a = tev_p1_cps(g, d)
            except ParameterError:
                continue
            b = tev_p1_schubert(g, d)
            if a != b:
                rows.append((g, d, a, b))
    return tuple(rows)
