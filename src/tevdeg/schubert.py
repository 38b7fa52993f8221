"""Cohomology of the Grassmannian Gr(2, d+1) via the Pieri rule.

Classes are indexed by two-row partitions (a, b) inside the 2 x (d-1)
rectangle; sigma_i denotes the special class (i, 0).  The one nontrivial
operation is multiplication by a special class:

    sigma_{a,b} * sigma_i  =  sum of sigma_{a',b'}
    over a' + b' = a + b + i  with  box >= a' >= a >= b' >= b.

This module is the oracle of record for counts of degree-d maps from a
general genus-g curve to the projective line through n = 2d - g + 1
general point conditions: such counts equal the Grassmannian integral

    int_{Gr(2,d+1)}  sigma_1^g * sum_{i+j = 2d-2-g} sigma_i sigma_j .
"""

from __future__ import annotations

from .errors import ParameterError

# A combination of Schubert classes is a plain mapping (a, b) -> int
# together with the shared box size; zero coefficients are never stored.
Partition = tuple[int, int]
Combo = dict[Partition, int]


def pieri_special(box: int, combo: Combo, i: int) -> Combo:
    """Multiply a combination by the special class sigma_i.

    sigma_i with i > box annihilates everything; that is forced by the
    a' <= box constraint rather than special-cased.
    """
    if i < 0:
        raise ParameterError(f"special class index must be nonnegative, got {i}")
    out: Combo = {}
    for (a, b), c in combo.items():
        total = a + b + i
        # a' ranges over the horizontal-strip window
        for a2 in range(max(a, total - a), min(box, total - b) + 1):
            b2 = total - a2
            out[(a2, b2)] = out.get((a2, b2), 0) + c
    return {p: c for p, c in out.items() if c != 0}


def grassmann_integral(box: int, combo: Combo) -> int:
    """Integrate over Gr(2, box+2): the coefficient of the top class (box, box)."""
    return combo.get((box, box), 0)


def tev_p1_schubert(g: int, d: int) -> int:
    """Count maps of degree d from a general genus-g curve to the line.

    Evaluates sigma_1^g * sum_{i+j = 2d-2-g} sigma_i sigma_j on Gr(2, d+1)
    with n = 2d - g + 1 point conditions.  The sum is empty (count 0) when
    2d - 2 - g < 0.
    """
    if d < 1:
        raise ParameterError(f"map degree must be positive, got d={d}")
    if g < 0:
        raise ParameterError(f"genus must be nonnegative, got g={g}")
    n = 2 * d - g + 1
    if n < 0:
        raise ParameterError(f"point count n = 2d - g + 1 = {n} is negative")
    if 2 * g - 2 + n <= 0:
        raise ParameterError(f"(g, n) = ({g}, {n}) is outside the stable range")

    box = d - 1
    s = 2 * d - 2 - g
    if s < 0:
        return 0

    total: Combo = {}
    for i in range(s + 1):
        j = s - i
        if i > box or j > box:
            continue  # the class vanishes in the box
        prod = pieri_special(box, {(i, 0): 1}, j)
        for p, c in prod.items():
            total[p] = total.get(p, 0) + c
    total = {p: c for p, c in total.items() if c != 0}

    for _ in range(g):
        total = pieri_special(box, total, 1)
    return grassmann_integral(box, total)
