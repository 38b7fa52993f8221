"""Small quantum cohomology of projective space P^r.

The ring is Z[q, h] / (h^{r+1} = q): a class is a finite mapping
(q-power, h-power) -> integer with h-power in [0, r].  The grading puts
deg h = 1 and deg q = r + 1, so every product of pure-degree classes is
again pure of the summed degree.

The count of degree-d maps from a genus-g curve through n general point
conditions, taken in the virtual sense, is the coefficient of q^d * P in

    P^{*n} * E^{*g}

where P = h^r is the point class and E is the quantum Euler class
sum_j dual(gamma_j) * gamma_j over a basis of the cohomology.
"""

from __future__ import annotations

from .errors import ParameterError, int_str

# (q exponent, h exponent) -> integer coefficient; zero coefficients absent.
QTerm = tuple[int, int]


class QPolyClass:
    """Element of the small quantum ring of P^r."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: dict[QTerm, int]):
        if r < 1:
            raise ParameterError(f"projective space dimension must be >= 1, got {r}")
        clean: dict[QTerm, int] = {}
        for (qe, he), c in terms.items():
            if qe < 0 or not (0 <= he <= r):
                raise ValueError(f"exponent pair {(qe, he)} out of range for r={r}")
            if c == 0:
                continue
            clean[(qe, he)] = c
        self.r = r
        self.terms = clean

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
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return QPolyClass(self.r, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QPolyClass)
            and self.r == other.r
            and self.terms == other.terms
        )

    def coeff(self, qe: int, he: int) -> int:
        return self.terms.get((qe, he), 0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (qe, he) in sorted(self.terms):
            c = self.terms[(qe, he)]
            mono = "*".join(
                ([f"q^{qe}" if qe > 1 else "q"] if qe else [])
                + ([f"h^{he}" if he > 1 else "h"] if he else [])
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits)


def qmul(x: QPolyClass, y: QPolyClass) -> QPolyClass:
    """Quantum product: bilinear extension of h^i * h^j = h^{i+j} or q h^{i+j-r-1}."""
    if x.r != y.r:
        raise ParameterError(f"mismatched rings: r={x.r} vs r={y.r}")
    r = x.r
    out: dict[QTerm, int] = {}
    for (qa, ha), ca in x.terms.items():
        for (qb, hb), cb in y.terms.items():
            qe, he = qa + qb, ha + hb
            if he > r:
                qe, he = qe + 1, he - (r + 1)
            key = (qe, he)
            out[key] = out.get(key, 0) + ca * cb
    return QPolyClass(r, out)


def quantum_euler(r: int) -> QPolyClass:
    """Quantum Euler class of P^r: sum_{j=0}^{r} h^{r-j} * h^j = (r+1) h^r.

    Computed as the sum of quantum products of dual basis pairs, not from
    the closed form; the identity with (r+1) h^r is a tested property.
    """
    total = QPolyClass(r, {})
    for j in range(r + 1):
        total = total + qmul(QPolyClass.h_power(r, r - j), QPolyClass.h_power(r, j))
    return total


def qpow(x: QPolyClass, k: int) -> QPolyClass:
    """x^{*k} by square-and-multiply: fewer than 2 * k.bit_length() quantum products."""
    if k < 0:
        raise ParameterError(f"power must be nonnegative, got {k}")
    if k == 0:
        return QPolyClass.one(x.r)
    acc = x
    for bit in bin(k)[3:]:
        acc = qmul(acc, acc)
        if bit == "1":
            acc = qmul(acc, x)
    return acc


def vtev_projective_qh(g: int, d: int, r: int, n: int) -> int:
    """Virtual count for P^r by quantum ring expansion.

    Returns the coefficient of q^d * h^r in P^{*n} * E^{*g}, with both
    powers taken by square-and-multiply.  The result is (r+1)^g exactly
    when the point count matches n = (r+1) d / r - g + 1, and 0 otherwise
    (the grading cannot reach q^d * h^r).
    """
    point = QPolyClass.point(r)  # refuses r < 1 first
    if g < 0 or d < 1 or n < 1:
        raise ParameterError(
            f"invalid parameters (g, d, r, n) = ({g}, {d}, {r}, {int_str(n)})"
        )
    if 2 * g - 2 + n <= 0:
        raise ParameterError(f"(g, n) = ({g}, {n}) is outside the stable range")
    return qmul(qpow(point, n), qpow(quantum_euler(r), g)).coeff(d, r)
