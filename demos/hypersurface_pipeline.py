"""The intersection pipeline, one step at a time.

Counts degree-3 rational curves on a cubic threefold in P^4 through three
general line conditions: (g, d, e, r) = (0, 3, 3, 3).  The count lives on
the space of (r+2)-tuples of degree-d forms, fibered over the Jacobian of
the source curve (a point here, since g = 0).
"""

from tevdeg import HypParams, deg_T, tev_hypersurface_engine, vtev_hypersurface_closed
from tevdeg.engine import integrate_theta, point_factor, pushforward_theta, step3_class


def show(scale, ratio, degree, g):
    """The class scale * sum_{j<=g} ratio^j * theta^[j] * H^(degree-j), written out."""
    bits = []
    for j in range(g + 1):
        c = ratio**j
        if c == 0:
            continue
        mono = [f"H^{degree - j}" if degree - j > 1 else "H"] if degree > j else []
        if j > 0:
            mono.append(f"theta^[{j}]")
        bits.append("*".join([str(scale * c)] + mono))
    return " + ".join(bits) or "0"


p = HypParams.standard(g=0, d=3, e=3, r=3)
print(f"parameters: {p}")
print(f"  n = {p.n} marks, bundle rank t = {p.t}, ambient rank N = {p.N}")

# Each mark contributes one factor: the incidence class times the excess
# factors times the line condition, with the top H_i power extracted.
# The result is a single monomial alpha * H^h in the hyperplane class H.
# One expansion of the excess factors, which depend on e alone, gives it
# for every r and every linear space of dimension 1..r+1: alpha_ell is a
# prefix sum of the expansion and h = degree + r + 1 - ell.  A line is
# dimension 1.
degree, sums = point_factor(p.e)
alpha, h = sums[1], degree + p.r
print(f"per-mark factor: {alpha}*H^{h}")

# The global factor forces the tuple to define a map into the cubic: the
# top Chern class of a twisted push-down bundle, polynomial in H and the
# divided powers theta^[m] = theta^m / m! of the Jacobian's theta divisor
# (no theta at genus 0).  It comes as a scale e^t and the ratio -e of
# successive terms: term m is (-e)^m theta^[m] H^(t-m).
scale, ratio = step3_class(p.e, p.t)
print(f"global factor:   {show(scale, ratio, p.t, p.g)}")

# Assemble, push down to the Jacobian, and integrate.  All n marks carry
# the same line condition, so their factors just multiply up into one
# monomial in H, which scales the Chern class and shifts its H-degree.
coeff, hdeg = alpha**p.n * scale, p.n * h + p.t
print(f"assembled class: {show(coeff, ratio, hdeg, p.g)}   "
      f"(H-degree N-1 = {p.N - 1}: a number times the point)")
degree = coeff * integrate_theta(pushforward_theta(ratio, hdeg, p.r, p.N, p.g), p.g)
print(f"cycle degree:    {degree}")

# Each line meets the cubic in e = 3 points, so the honest count divides
# out e^n.  The closed form agrees.
assert degree == deg_T(p)
count = tev_hypersurface_engine(p)
closed = vtev_hypersurface_closed(p.g, p.d, p.e, p.r)
print(f"count of maps:   {degree} / {p.e}^{p.n} = {count}")
print(f"closed form:     {closed} (agreement: {count == closed})")

# The same pipeline at genus 3, degree 300, on a cubic 10-fold: the result
# has over a hundred digits and still takes a fraction of a second.
big = HypParams.standard(g=3, d=300, e=3, r=10)
value = tev_hypersurface_engine(big)
print(f"\n(g=3, d=300, e=3, r=10): n = {big.n}, count has {len(str(value))} digits")
