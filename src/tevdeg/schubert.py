"""Cohomology of the Grassmannian Gr(2, d+1) via the Pieri rule.

Classes are indexed by two-row partitions (a, b) inside the 2 x (d-1)
rectangle; sigma_i denotes the special class (i, 0).  Pieri's rule reads

    sigma_{a,b} * sigma_i  =  sum of sigma_{a',b'}
    over a' + b' = a + b + i  with  box >= a' >= a >= b' >= b.

Counts of degree-d maps from a general genus-g curve to the projective
line through n = 2d - g + 1 general point conditions equal the
Grassmannian integral

    int_{Gr(2,d+1)}  sigma_1^g * sum_{i+j = 2d-2-g} sigma_i sigma_j .

The sum is written down in closed form from Pieri's rule.  Multiplying a
class sigma_{a,b} by sigma_1 adds a box to either row, so integrating
sigma_1^g sigma_{a,b} counts the lattice paths from (a, b) to (box, box)
that keep b <= a; the reflection principle counts them as a ballot
number.  The count is a sum of about g/2 terms, whatever d is.

``pieri_special`` is the sigma_1 step on slot lists: the explicit
multiplication that the tests hold the ballot numbers to, reading the
integral off as the coefficient of (box, box).  A combination of classes
of one degree t is a list ``c`` read from the box edge: ``c[m]`` is the
coefficient of sigma_{(a, t-a)} with a = min(t, box) - m, and missing
trailing entries are 0.  A class of degree t has
ceil(t/2) <= a <= min(t, box), so a list never needs more than
min(t, box) - ceil(t/2) + 1 entries.
"""

from __future__ import annotations

from math import comb
from operator import add

from .enumerativity import projective_dims_check


def pieri_special(box: int, t: int, combo: list[int]) -> list[int]:
    """Multiply a degree-t combination by sigma_1.

    sigma_{a,b} * sigma_1 = sigma_{a+1,b} + sigma_{a,b+1}, less the classes
    with a + 1 > box or b + 1 > a.  Input slot m feeds output slots
    m + shift - 1 and m + shift, where shift = min(t+1, box) - min(t, box)
    is 0 or 1; the slots past the last class of degree t + 1 are cut.
    """
    top = min(t + 1, box)
    n_out = max(top - (t + 2) // 2 + 1, 0)
    if top > min(t, box):
        out = map(add, [0, *combo], [*combo, 0])
    else:
        out = map(add, combo, [*combo[1:], 0])
    return list(out)[:n_out]


def tev_p1_schubert(g: int, d: int) -> int:
    """Count maps of degree d from a general genus-g curve to the line.

    Evaluates sigma_1^g * sum_{i+j = 2d-2-g} sigma_i sigma_j on Gr(2, d+1)
    with n = 2d - g + 1 point conditions.  The sum is empty (count 0) when
    2d - 2 - g < 0.
    """
    projective_dims_check(g, d, 1)
    box = d - 1
    s = 2 * d - 2 - g
    if s < 0:
        return 0
    # By Pieri, sigma_i sigma_j holds sigma_{(a, s-a)} once when
    # max(i, j) <= a <= box: the ordered pairs reaching it number 2a - s + 1.
    # A path from (a, s-a) to (box, box) takes k = box - a steps in the first
    # row and g - k in the second.  Reflecting in b = a + 1 the part of a path
    # up to its first touch of that line maps the paths that touch it onto all
    # paths from (s-a-1, a+1), so sigma_1^g sigma_{(a, s-a)} integrates to
    # C(g, k) - C(g, k-1).
    k = box - min(s, box)
    below, binom = (comb(g, k - 1) if k else 0), comb(g, k)
    total = 0
    for a in range(min(s, box), (s - 1) // 2, -1):
        total += (2 * a - s + 1) * (binom - below)
        below, binom = binom, binom * (g - k) // (k + 1)
        k += 1
    return total
