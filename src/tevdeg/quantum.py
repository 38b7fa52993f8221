"""Small quantum cohomology of projective space P^r.

The ring is Z[q, h] / (h^{r+1} = q).  The grading puts deg h = 1 and
deg q = r + 1, so every product of pure-degree classes is again pure of
the summed degree.  Since the h exponent stays in [0, r], a pure class of
degree D is a single monomial c * q^a * h^b with (a, b) = divmod(D, r+1):
a class is stored as its degree and one integer coefficient, a
quantum product is a degree sum and an integer product, and a k-th power
is k times the degree and the k-th power of the coefficient.

The count of degree-d maps from a genus-g curve through n general point
conditions, taken in the virtual sense, is the coefficient of q^d * P in

    P^{*n} * E^{*g}

where P = h^r is the point class and E is the quantum Euler class
sum_j dual(gamma_j) * gamma_j over a basis of the cohomology.
"""

from __future__ import annotations

from .errors import ParameterError, int_str

# (q exponent, h exponent), the key of a term in QPolyClass.terms.
QTerm = tuple[int, int]


def _check_dimension(r: int) -> None:
    if r < 1:
        raise ParameterError(f"projective space dimension must be >= 1, got {int_str(r)}")


class QPolyClass:
    """Pure-degree element c * q^a * h^b of the small quantum ring of P^r.

    Holds the ring dimension ``r``, the degree ``degree`` = (r+1) a + b and
    the coefficient ``c``; the class is zero when c is 0, whatever its
    degree.  The constructor takes the terms {(q exponent, h exponent): c}
    and refuses exponents out of range and nonzero terms of different
    degrees.  Products, sums and powers are built by ``_make`` without
    that check.
    """

    __slots__ = ("r", "degree", "c")

    def __init__(self, r: int, terms: dict[QTerm, int]):
        _check_dimension(r)
        degree, coeff = 0, 0
        for (qe, he), c in terms.items():
            if qe < 0 or not (0 <= he <= r):
                raise ValueError(f"exponent pair {(qe, he)} out of range for r={r}")
            if c == 0:
                continue
            term_degree = qe * (r + 1) + he
            if coeff and term_degree != degree:
                raise ValueError(
                    f"terms of degrees {degree} and {term_degree} in one class for r={r}"
                )
            degree, coeff = term_degree, c
        self.r = r
        self.degree = degree
        self.c = coeff

    @property
    def terms(self) -> dict[QTerm, int]:
        """{(q exponent, h exponent): c} with the one term, or {} for zero."""
        return {divmod(self.degree, self.r + 1): self.c} if self.c else {}

    @classmethod
    def h_power(cls, r: int, k: int, c: int = 1) -> QPolyClass:
        return cls(r, {(0, k): c})

    @classmethod
    def point(cls, r: int) -> QPolyClass:
        return cls.h_power(r, r)

    @classmethod
    def one(cls, r: int) -> QPolyClass:
        return cls.h_power(r, 0)

    def __add__(self, other: QPolyClass) -> QPolyClass:
        if self.r != other.r:
            raise ValueError(f"mismatched rings: r={self.r} vs r={other.r}")
        if not other.c:
            return self
        if not self.c:
            return other
        if self.degree != other.degree:
            raise ValueError(f"sum of degrees {self.degree} and {other.degree} is not pure")
        return _make(self.r, self.degree, self.c + other.c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QPolyClass)
            and self.r == other.r
            and self.c == other.c
            and (not self.c or self.degree == other.degree)
        )

    def coeff(self, qe: int, he: int) -> int:
        return self.c if divmod(self.degree, self.r + 1) == (qe, he) else 0

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        qe, he = divmod(self.degree, self.r + 1)
        mono = "*".join(
            ([f"q^{qe}" if qe > 1 else "q"] if qe else [])
            + ([f"h^{he}" if he > 1 else "h"] if he else [])
        )
        return f"{self.c}*{mono}" if mono else f"{self.c}"


def _make(r: int, degree: int, c: int) -> QPolyClass:
    """The class c * (the monomial of this degree), built without a check."""
    out = object.__new__(QPolyClass)
    out.r, out.degree, out.c = r, degree, c
    return out


def qmul(x: QPolyClass, y: QPolyClass) -> QPolyClass:
    """Quantum product: c q^a h^i * c' q^b h^j has degree the sum of the two.

    The monomial of that degree is q^{a+b} h^{i+j}, or q^{a+b+1} h^{i+j-r-1}
    when i + j > r; the coefficient is c * c'.
    """
    if x.r != y.r:
        raise ParameterError(f"mismatched rings: r={int_str(x.r)} vs r={int_str(y.r)}")
    return _make(x.r, x.degree + y.degree, x.c * y.c)


def quantum_euler(r: int) -> QPolyClass:
    """Quantum Euler class of P^r: sum_{j=0}^{r} h^{r-j} * h^j = (r+1) h^r.

    Computed as the sum of quantum products of dual basis pairs, not from
    the closed form; the identity with (r+1) h^r is a tested property.
    """
    _check_dimension(r)
    total = _make(r, 0, 0)
    for j in range(r + 1):
        total = total + qmul(_make(r, r - j, 1), _make(r, j, 1))
    return total


def qpow(x: QPolyClass, k: int) -> QPolyClass:
    """x^{*k} in closed form: degree k * deg x and coefficient c^k.

    The k-th power of the pure class c * (monomial of degree D) is
    c^k * (monomial of degree k D), since degrees add and coefficients
    multiply under ``qmul``; k = 0 gives the unit, as c^0 = 1 (also for
    the zero class).  This holds for one-monomial classes only.
    """
    if k < 0:
        raise ParameterError(f"power must be nonnegative, got {int_str(k)}")
    return _make(x.r, x.degree * k, x.c ** k)


def vtev_projective_qh(g: int, d: int, r: int, n: int) -> int:
    """Virtual count for P^r by quantum ring expansion.

    Returns the coefficient of q^d * h^r in P^{*n} * E^{*g}, with both
    powers in closed form (``qpow``): r + 2 quantum products in all, the
    r + 1 of ``quantum_euler`` and the final one.  The result is (r+1)^g
    exactly when the point count matches n = (r+1) d / r - g + 1, and 0
    otherwise (the grading cannot reach q^d * h^r).
    """
    point = QPolyClass.point(r)  # refuses r < 1 first
    if g < 0 or d < 1:
        raise ParameterError(
            f"invalid parameters (g, d, r, n) = "
            f"({int_str(g)}, {int_str(d)}, {int_str(r)}, {int_str(n)})"
        )
    if n < 1:
        raise ParameterError(f"the quantum route needs n >= 1, got n = {int_str(n)}")
    if 2 * g - 2 + n <= 0:
        raise ParameterError(f"(g, n) = ({g}, {n}) is outside the stable range")
    return qmul(qpow(point, n), qpow(quantum_euler(r), g)).coeff(d, r)
