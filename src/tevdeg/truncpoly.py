"""Sparse truncated multivariate polynomials over exact rationals.

This is the ring model of the engine; the closed forms use only ``UniPoly``
and ``binom``, and the Schubert and quantum routes do not import it.  Named
variables may carry a degree cap, and any product term whose exponent
exceeds a cap is discarded.  Truncation is part of the ring structure
(it models nilpotence, e.g. a hyperplane class h on P^m has h^{m+1} = 0),
so multiplication remains associative and commutative.

Coefficients are Python ints or ``fractions.Fraction``; floats are refused.
All values are immutable after construction and every operation is a pure
function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

Exponent = tuple[int, ...]
Coeff = int | Fraction


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    The vanishing convention for out-of-range k matters: several closed
    formulas downstream are stated with binomials whose lower index goes
    negative and are meant to drop those terms.
    """
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _check_coeff(c):
    if isinstance(c, float):
        raise TypeError("floating-point coefficients are not allowed")
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
    return c


class PolyRing:
    """A roster of named variables with optional per-variable degree caps.

    Variables are given as a name (uncapped) or a ``(name, cap)`` pair:

        PolyRing("H", ("theta", 2))   # H free, theta^3 == 0

    Two rings are compatible for arithmetic iff they have the same names
    and caps in the same order.
    """

    __slots__ = ("names", "caps", "_index")

    def __init__(self, *variables: str | tuple[str, int | None]):
        names = []
        caps = []
        for v in variables:
            if isinstance(v, str):
                name, cap = v, None
            else:
                name, cap = v
            if cap is not None and cap < 0:
                raise ValueError(f"cap for {name!r} must be nonnegative, got {cap}")
            names.append(name)
            caps.append(cap)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.names = tuple(names)
        self.caps = tuple(caps)
        self._index = {name: i for i, name in enumerate(names)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.caps == other.caps
        )

    def __hash__(self) -> int:
        return hash((self.names, self.caps))

    def __repr__(self) -> str:
        parts = [
            name if cap is None else f"{name}<={cap}"
            for name, cap in zip(self.names, self.caps)
        ]
        return f"PolyRing({', '.join(parts)})"

    def index(self, name: str) -> int:
        if name not in self._index:
            raise ValueError(f"unknown variable {name!r} in {self!r}")
        return self._index[name]

    def in_caps(self, exps: Exponent) -> bool:
        return all(cap is None or e <= cap for e, cap in zip(exps, self.caps))

    def monomial(self, exps_by_name: dict[str, int], c) -> TruncPoly:
        """The single term c * prod(v^e); a term over any cap is just 0."""
        exps = [0] * len(self.names)
        for name, e in exps_by_name.items():
            if e < 0:
                raise ValueError(f"negative exponent {e} for {name!r}")
            exps[self.index(name)] = e
        return TruncPoly(self, {tuple(exps): _check_coeff(c)})

    def from_terms(self, terms: dict[Exponent, Coeff]) -> TruncPoly:
        return TruncPoly(self, terms)


class TruncPoly:
    """An element of a ``PolyRing``: exponent tuple -> nonzero coefficient.

    Construction canonicalizes: zero coefficients are pruned and terms over
    a cap are discarded, so equality is plain structural equality.  Treat
    instances as immutable.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Exponent, Coeff]):
        nvars = len(ring.names)
        clean: dict[Exponent, Coeff] = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent tuple {exps} has wrong arity for {ring!r}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            _check_coeff(c)
            if c == 0 or not ring.in_caps(exps):
                continue
            clean[exps] = c
        self.ring = ring
        self.terms = clean

    # -- ring arithmetic ---------------------------------------------------

    def _require_compatible(self, other: TruncPoly) -> None:
        if self.ring != other.ring:
            raise ValueError(f"incompatible rings {self.ring!r} and {other.ring!r}")

    def __add__(self, other: TruncPoly) -> TruncPoly:
        self._require_compatible(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return TruncPoly(self.ring, out)

    def __mul__(self, other: TruncPoly) -> TruncPoly:
        self._require_compatible(other)
        caps = self.ring.caps
        out: dict[Exponent, Coeff] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if any(cap is not None and e > cap for e, cap in zip(exps, caps)):
                    continue  # truncation: the product lands in a nilpotent slot
                out[exps] = out.get(exps, 0) + ca * cb
        # The loop kept arity, signs, coefficient types and caps; only the
        # cancelled terms are left to prune, so the constructor is skipped.
        product = object.__new__(TruncPoly)
        product.ring = self.ring
        product.terms = {exps: c for exps, c in out.items() if c != 0}
        return product

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    # -- coefficient access --------------------------------------------------

    def coeff(self, exps: Exponent):
        """Coefficient of a single monomial (0 if absent)."""
        return self.terms.get(tuple(exps), 0)

    def degrees_of(self, name: str) -> list[int]:
        """Sorted list of exponents of ``name`` that occur in some term."""
        i = self.ring.index(name)
        return sorted({exps[i] for exps in self.terms})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.ring.names, exps)
                if e > 0
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits)


class UniPoly:
    """Dense polynomial in a single named variable, exact coefficients.

    Used for the per-point factors of the intersection pipeline, which live
    in the uncapped class H alone.  Coefficients stay ints when the inputs
    are ints; trailing zeros are stripped so the representation is canonical.
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

    def is_monomial(self) -> bool:
        return sum(1 for c in self.coeffs if c != 0) == 1

    def __mul__(self, other: UniPoly) -> UniPoly:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")
        if not self.coeffs or not other.coeffs:
            return UniPoly(self.var, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(self.var, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.var, self.coeffs))

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
