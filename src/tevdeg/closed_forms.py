"""Closed-form count formulas, the oracles for the other routes.

Every formula here is a direct transcription evaluated in exact integer
arithmetic and returns a plain int (or a tuple of them); nothing is shared
with the Schubert, quantum, or intersection pipelines, so agreement between
routes is meaningful evidence.  The only imports from ``enumerativity`` are
the validity gates: whether a count is enumerative is decided by
``certify_enumerative`` alone.

A documented caveat: for maps to the line, the binomial formula
``tev_p1_cps`` agrees with the Grassmannian integral (and with direct
geometric counts) on every tested pair with d >= g, but disagrees for
d < g.  The Schubert route is the oracle of record there; the frozen
table ``CPS_VS_SCHUBERT_DISCREPANCIES`` records every disagreement with
1 <= d < g <= 10 and is reproduced by the ``verify`` command.
"""

from __future__ import annotations

from math import factorial

from .enumerativity import dims_check, insertion_dims_check, line_dims_check
from .errors import InvariantBreach, ParameterError
from .truncpoly import UniPoly, binom


def tev_p1_cps(g: int, d: int) -> int:
    """Binomial formula for counts of degree-d maps to the line.

    With n = 2d - g + 1 point conditions:

        2^g - sum_{i=0}^{g-d-1} C(g,i) + (g-d-1) C(g,g-d) + (d-g-1) C(g,g-d+1)

    where binomials with negative lower index vanish.  Evaluates to 2^g
    whenever d >= g + 1.  Transcribed as written, except that the sum runs
    one binomial along, C(g, i+1) = C(g, i) (g-i) / (i+1); see the module
    docstring for its validity domain.
    """
    line_dims_check(g, d)
    total = 2**g
    c = 1   # C(g, i)
    for i in range(g - d):
        total -= c
        c = c * (g - i) // (i + 1)
    total += (g - d - 1) * binom(g, g - d)
    total += (d - g - 1) * binom(g, g - d + 1)
    return total


def vtev_projective_closed(g: int, r: int) -> int:
    """Count for P^r in the virtual sense: (r+1)^g, independent of d."""
    if g < 0 or r < 1:
        raise ParameterError(f"invalid (g, r) = {(g, r)}")
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

    Coefficients of (1 + z + ... + z^{r+1}) * prod_{j=0}^{e-1} (j + (e-j) z);
    the j = 0 factor is e*z, so the constant term vanishes and the list
    starts at z^1.  All entries are positive, the list is palindromic, and
    it sums to (r+2) e^e (both sides evaluated at z = 1).
    """
    if e < 3:
        raise ParameterError(f"hypersurface degree must be >= 3, got e={e}")
    if r < 1:
        raise ParameterError(f"hypersurface dimension must be >= 1, got r={r}")
    poly = UniPoly("z", [1] * (r + 2))
    for j in range(e):
        poly = poly * UniPoly("z", [j, e - j])
    if poly.coeff(0) != 0 or poly.degree() != e + r + 1:
        raise InvariantBreach(f"insertion polynomial has unexpected shape: {poly!r}")
    return tuple(poly.coeff(k) for k in range(1, e + r + 2))


def deg_T_insertions_closed(g: int, d: int, e: int, r: int, ell) -> int:
    """Closed form for the incidence-cycle degree with linear-space insertions:

        (r+2-e)^g * e^t * prod_i alpha_{ell_i},   t = (d-n)e - g + 1.

    At ell = (1, ..., 1) this equals e^n times the hypersurface count.
    """
    ell = tuple(ell)
    n = insertion_dims_check(g, d, e, r, ell)
    t = (d - n) * e - g + 1
    alphas = alpha_coefficients(e, r)
    prod = 1
    # The gate holds every ell_i to [1, r+1], so no index wraps around.
    for li in ell:
        prod *= alphas[li - 1]
    return (r + 2 - e) ** g * e**t * prod


# Disagreements between the binomial formula and the Grassmannian integral,
# over 1 <= d < g <= 10 with n = 2d - g + 1 >= 0: (g, d, cps, schubert).
# Regenerated by compute_cps_schubert_discrepancies(); frozen here so the
# documented table is itself under test.  Every pair in that domain
# disagrees; direct counts of pencils back the schubert column.
CPS_VS_SCHUBERT_DISCREPANCIES: tuple[tuple[int, int, int, int], ...] = (
    (2, 1, 1, 0),
    (3, 1, 4, 0),
    (3, 2, 1, 0),
    (4, 2, 5, 0),
    (4, 3, 3, 2),
    (5, 2, 16, 0),
    (5, 3, 6, 0),
    (5, 4, 11, 10),
    (6, 3, 22, 0),
    (6, 4, 12, 5),
    (6, 5, 33, 32),
    (7, 3, 64, 0),
    (7, 4, 29, 0),
    (7, 5, 36, 28),
    (7, 6, 85, 84),
    (8, 4, 93, 0),
    (8, 5, 51, 14),
    (8, 6, 107, 98),
    (8, 7, 199, 198),
    (9, 4, 256, 0),
    (9, 5, 130, 0),
    (9, 6, 130, 84),
    (9, 7, 286, 276),
    (9, 8, 439, 438),
    (10, 5, 386, 0),
    (10, 6, 218, 42),
    (10, 7, 368, 312),
    (10, 8, 698, 687),
    (10, 9, 933, 932),
)


def compute_cps_schubert_discrepancies(
    g_max: int = 10,
) -> tuple[tuple[int, int, int, int], ...]:
    """Recompute the (g, d, cps, schubert) table for 1 <= d < g <= g_max."""
    from .schubert import tev_p1_schubert

    rows = []
    for g in range(2, g_max + 1):
        for d in range(1, g):
            if 2 * d - g + 1 < 0:
                continue
            a = tev_p1_cps(g, d)
            b = tev_p1_schubert(g, d)
            if a != b:
                rows.append((g, d, a, b))
    return tuple(rows)
