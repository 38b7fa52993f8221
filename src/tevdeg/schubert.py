"""Cohomology of the Grassmannian Gr(2, d+1) via the Pieri rule.

Classes are indexed by two-row partitions (a, b) inside the 2 x (d-1)
rectangle; sigma_i denotes the special class (i, 0).  The one nontrivial
operation is multiplication by a special class:

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
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub

from .enumerativity import line_dims_check
from .errors import ParameterError


def _clipped(prefix: list[int], lo: int, hi: int) -> list[int]:
    """prefix[k] for k = lo .. hi-1, with k clipped to [0, len(prefix) - 1].

    prefix[0] is 0, so the slots below the list are zeros; the slots above
    it repeat the last entry.
    """
    count = max(hi - lo, 0)
    below = min(max(-lo, 0), count)
    inside = prefix[max(lo, 0):max(hi, 0)]
    return [0] * below + inside + [prefix[-1]] * (count - below - len(inside))


def pieri_special(box: int, t: int, combo: list[int], i: int) -> list[int]:
    """Multiply a degree-t combination by the special class sigma_i.

    Output slot m2 (a' = min(t+i, box) - m2) collects the input slots m
    with max(m2 - delta, 0) <= m <= min(m2 + i - delta, k - m2), where
    delta = min(t+i, box) - min(t, box) and k = min(t+i, box) + min(t, box)
    - (t+i): the horizontal-strip window a <= a' <= a + i, a' + a >= t + i,
    read in slots.  Each window sum is a difference of prefix sums.
    sigma_i with i > box annihilates everything; that is forced by the
    window rather than special-cased.
    """
    if i < 0:
        raise ParameterError(f"special class index must be nonnegative, got {i}")
    u = t + i
    a_t, a_u = min(t, box), min(u, box)
    delta, k = a_u - a_t, a_u + a_t - u
    # Slots past the degree's last class, past the shifted input, or past
    # the last window that reaches slot 0 of the input are all zero.
    n_out = max(min(a_u - (u + 1) // 2 + 1, len(combo) + delta, k + 1), 0)
    prefix = [0, *accumulate(combo)]
    # min(m2 + i - delta, k - m2) rises up to slot (k - i + delta) // 2, then falls.
    n_up = min(max((k - i + delta) // 2 + 1, 0), n_out)
    top = _clipped(prefix, i - delta + 1, i - delta + 1 + n_up)
    top += _clipped(prefix, k - n_out + 2, k - n_up + 2)[::-1]
    return list(map(sub, top, _clipped(prefix, -delta, n_out - delta)))


def _add(x: list[int], y: list[int]) -> list[int]:
    if len(x) < len(y):
        x, y = y, x
    return [*map(add, x, y), *x[len(y):]]


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

    # sigma_j sigma_i over i + j = s with i <= j <= box (a larger index
    # vanishes in the box): the pairs with j > i appear twice in the sum.
    total: list[int] = []
    for i in range(max(s - box, 0), (s + 1) // 2):
        total = _add(total, pieri_special(box, s - i, [1], i))
    total = _add(total, total)
    if s % 2 == 0:
        total = _add(total, pieri_special(box, s // 2, [1], s // 2))

    for t in range(s, s + g):
        total = pieri_special(box, t, total, 1)
    return grassmann_integral(box, s + g, total)
