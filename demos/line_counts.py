"""Counting maps from a general curve to the projective line.

For a general genus-g curve with n = 2d - g + 1 marked points, the number
of degree-d maps to P^1 taking the marks to general points is computed two
ways: a binomial closed form, and a Schubert-calculus integral on the
Grassmannian Gr(2, d+1).
"""

from tevdeg import tev_p1_cps, tev_p1_schubert

# The famous stable value: once d >= g + 1, the count is exactly 2^g.
print("the 2^g phenomenon (rows: g, columns: d = g+1, g+2, g+3)")
for g in range(9):
    row = [tev_p1_schubert(g, d) for d in range(g + 1, g + 4)]
    print(f"  g={g}: {row}")

# At d = g the count drops below 2^g ...
print()
print("at d = g the count is 2^g - g - 1:")
for g in range(2, 9):
    print(f"  g={g}: {tev_p1_schubert(g, g)} (2^g - g - 1 = {2**g - g - 1})")

# ... and both routes still agree there.
print()
print("route agreement for g <= 10, g <= d <= g+3:", all(
    tev_p1_cps(g, d) == tev_p1_schubert(g, d)
    for g in range(11)
    for d in range(max(g, 1), g + 4)
))

# Below d = g the routes agree as well, wherever n = 2d - g + 1 >= 0.
print()
print("route agreement for g <= 10, (g-1)/2 <= d < g:", all(
    tev_p1_cps(g, d) == tev_p1_schubert(g, d)
    for g in range(2, 11)
    for d in range(g // 2, g)
))

# Two classical pencil counts: a general genus-4 curve carries exactly two
# degree-3 pencils, and a general genus-6 curve five degree-4 ones.
print()
print("pencils (g, d): cps schubert")
for g, d in ((4, 3), (6, 4)):
    print(f"  ({g}, {d}): {tev_p1_cps(g, d)} {tev_p1_schubert(g, d)}")
