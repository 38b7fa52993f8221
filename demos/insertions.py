"""Linear-space insertions: marks constrained to planes, not just lines.

Requiring the i-th mark to land in a general linear space of dimension
ell_i multiplies the count by a per-mark factor alpha_{ell_i}, read off
one generating polynomial.  The intersection engine reproduces the closed
form on any valid profile.
"""

from tevdeg import (
    HypParams,
    alpha_coefficients,
    deg_T,
    deg_T_insertions_closed,
)

# The multipliers for cubics: alpha_1 = e! (a line), rising toward the
# middle dimensions, palindromic, summing to (r+2) e^e.
for r in (3, 5):
    al = alpha_coefficients(3, r)
    print(f"alpha(e=3, r={r}): {list(al)}  sum = {sum(al)}")

# A mixed profile on the cubic threefold: three marks on general planes
# (ell = 2) and three on general lines (ell = 1).  Trading plane for line
# conditions changes the degree d that makes the count finite.
g, d, e, r = 0, 6, 3, 3
ell = (2, 2, 2, 1, 1, 1)
engine_value = deg_T(HypParams(g, d, e, r, ell))
closed_value = deg_T_insertions_closed(g, d, e, r, ell)
print(f"\nprofile ell = {ell} at (g, d, e, r) = {(g, d, e, r)}:")
print(f"  engine {engine_value}, closed form {closed_value}")

# All-lines profiles recover the plain count times e^n.
g, d = 1, 3
p2 = HypParams(g, d, e, r, (1, 1))
print(f"\nall-lines profile at (g, d) = {(g, d)}:")
print(f"  cycle degree {deg_T(p2)} = e^n * count = 3^2 * 216")
