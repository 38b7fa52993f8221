"""Exact graded classes for the engine's excess factors, and dense univariates.

``TruncPoly`` is the ring model of the point factor's excess factors: a
class homogeneous in the hyperplane class H and one capped variable,
stored as one coefficient list.  The incidence class is never multiplied
in; the engine reads it off the excess product as a running sum.
The engine's Jacobian stages work on plain int lists instead.
The closed forms use only ``UniPoly``, and the Schubert and quantum routes
do not import this module.

Coefficients are Python ints or ``fractions.Fraction``; floats are refused.
All values are immutable after construction and every operation is a pure
function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations


def _check_coeff(c):
    """``c``, refused unless it is an int or a ``Fraction``.

    An int is accepted first, so ``fractions`` is imported only for a
    coefficient that is not one: the engine and the closed forms pass ints
    only, and a query does not load it.
    """
    if isinstance(c, int):
        return c
    if isinstance(c, float):
        raise TypeError("floating-point coefficients are not allowed")
    import fractions

    if not isinstance(c, fractions.Fraction):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
    return c


class TruncPoly:
    """A homogeneous class in H and one capped variable ``var`` (var^{cap+1} = 0).

    ``terms[j]`` is the coefficient of H^{degree-j} * var^j, so the list
    stops at min(degree, cap) and a product adds the degrees and takes the
    capped convolution of the two lists.  The cap is the ring structure: it
    models nilpotence (theta^{g+1} = 0 on a Jacobian, H_i^{r+2} = 0 on the
    excess factors), so multiplication remains associative and commutative.
    Trailing zeros are stripped, so 0 has no terms and equality is plain
    structural equality.  Treat instances as immutable.
    """

    __slots__ = ("degree", "var", "cap", "terms")

    def __init__(self, degree: int, var: str, cap: int, terms):
        if cap < 0:
            raise ValueError(f"cap for {var!r} must be nonnegative, got {cap}")
        terms = [_check_coeff(c) for c in terms][: cap + 1]
        while terms and terms[-1] == 0:
            terms.pop()
        if len(terms) > degree + 1:
            raise ValueError(f"{var}^{len(terms) - 1} exceeds the degree {degree}")
        self.degree = degree
        self.var = var
        self.cap = cap
        self.terms = tuple(terms)

    def __mul__(self, other: TruncPoly) -> TruncPoly:
        if (self.var, self.cap) != (other.var, other.cap):
            raise ValueError(
                f"incompatible classes: {self.var}<={self.cap} and {other.var}<={other.cap}"
            )
        b = other.terms
        out = [0] * min(len(self.terms) + len(b) - 1, self.cap + 1)
        for i, x in enumerate(self.terms):
            if x:
                for j, y in enumerate(b[: len(out) - i], i):
                    out[j] += x * y
        while out and out[-1] == 0:
            out.pop()
        # Sums and products of checked coefficients stay exact and within
        # the cap, so the validating constructor is skipped.
        product = object.__new__(TruncPoly)
        product.degree = self.degree + other.degree
        product.var = self.var
        product.cap = self.cap
        product.terms = tuple(out)
        return product

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncPoly) and (
            self.degree, self.var, self.cap, self.terms
        ) == (other.degree, other.var, other.cap, other.terms)

    def __repr__(self) -> str:
        bits = []
        for j, c in enumerate(self.terms):
            if c == 0:
                continue
            mono = "*".join(
                f"{n}^{k}" if k > 1 else n
                for n, k in (("H", self.degree - j), (self.var, j))
                if k > 0
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits) or "0"


class UniPoly:
    """Dense polynomial in a single named variable, exact coefficients.

    Used for the closed forms' excess polynomial prod_j (j + (e-j) z),
    whose window sums are the insertion multipliers.  Coefficients stay
    ints when the inputs are ints; trailing zeros are stripped so the
    representation is canonical.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs):
        coeffs = [_check_coeff(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.var = var
        self.coeffs = tuple(coeffs)

    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if k < 0 or k >= len(self.coeffs):
            return 0
        return self.coeffs[k]

    def __mul__(self, other: UniPoly) -> UniPoly:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")
        b = other.coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, y in enumerate(b, i):
                    out[j] += a * y
        while out and out[-1] == 0:
            out.pop()
        # Sums and products of checked coefficients stay exact, so the
        # validating constructor is skipped, as in TruncPoly.__mul__.
        product = object.__new__(UniPoly)
        product.var = self.var
        product.coeffs = tuple(out)
        return product

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                bits.append(f"{c}")
            elif k == 1:
                bits.append(f"{c}*{self.var}")
            else:
                bits.append(f"{c}*{self.var}^{k}")
        return " + ".join(bits)
