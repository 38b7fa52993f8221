"""Cohomology of the Grassmannian Gr(2, d+1) via the Pieri rule.

Classes are indexed by two-row partitions (a, b) inside the 2 x (d-1)
rectangle; sigma_i denotes the special class (i, 0).  Pieri's rule reads

    sigma_{a,b} * sigma_i  =  sum of sigma_{a',b'}
    over a' + b' = a + b + i  with  box >= a' >= a >= b' >= b.

A combination of classes of one degree t is a list ``c`` read from the
box edge: ``c[m]`` is the coefficient of sigma_{(a, t-a)} with
a = min(t, box) - m, and missing trailing entries are 0.  A class of
degree t has ceil(t/2) <= a <= min(t, box), so a list never needs more
than min(t, box) - ceil(t/2) + 1 entries.  In the count below every
degree is at least 2d - 2 - g, which bounds every list by about g/2
entries whatever d is.

Counts of degree-d maps from a general genus-g curve to the projective
line through n = 2d - g + 1 general point conditions equal the
Grassmannian integral

    int_{Gr(2,d+1)}  sigma_1^g * sum_{i+j = 2d-2-g} sigma_i sigma_j .

The sum is written down in closed form from Pieri's rule, and then
multiplied by sigma_1 g times.
"""

from __future__ import annotations

from operator import add

from .enumerativity import line_dims_check


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


def grassmann_integral(box: int, t: int, combo: list[int]) -> int:
    """Integrate a degree-t combination over Gr(2, box+2): the coefficient of (box, box)."""
    return combo[0] if t == 2 * box and combo else 0


def tev_p1_schubert(g: int, d: int) -> int:
    """Count maps of degree d from a general genus-g curve to the line.

    Evaluates sigma_1^g * sum_{i+j = 2d-2-g} sigma_i sigma_j on Gr(2, d+1)
    with n = 2d - g + 1 point conditions.  The sum is empty (count 0) when
    2d - 2 - g < 0.
    """
    line_dims_check(g, d)
    box = d - 1
    s = 2 * d - 2 - g
    if s < 0:
        return 0
    # By Pieri, sigma_i sigma_j holds sigma_{(a, s-a)} once when
    # max(i, j) <= a <= box: the ordered pairs reaching it number 2a - s + 1.
    total = [2 * a - s + 1 for a in range(min(s, box), (s - 1) // 2, -1)]
    for t in range(s, s + g):
        total = pieri_special(box, t, total)
    return grassmann_integral(box, s + g, total)
