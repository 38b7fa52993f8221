"""Validity gates and enumerativity certification.

A count of maps to a degree-e hypersurface of dimension r is only defined
on parameter tuples (g, d, e, r) where the number of point conditions

    n = (r + 2 - e) / r * d - g + 1

is a positive integer in the stable range.  ``dims_check`` is that gate;
every route goes through it.

Whether the resulting integer actually enumerates honest maps (rather than
a virtual count polluted by degenerate loci) is certified two ways:

* ``enum_bound_closed``: a closed-form threshold on d, valid for
  r > (e+1)(e-2); any d strictly above it is enumerative (all d, if g = 0).
* ``certify_enumerative``: a dimension audit over all degeneration strata.
  A stratum records b1 marked simple base-points, b2 marked double
  base-points, and b0 base-points (with multiplicity) away from the marks;
  the audit checks that the corresponding family of stable maps cannot
  dominate the incidence target, comparing its (virtual) dimension -- plus
  an h^1 excess allowance when too few free marks remain -- against the
  target dimension.  Every admissible stratum is covered and counted, but
  the pass conditions are monotone in b0 and b1, so only the worst stratum
  of each monotone run is tested: at most two per value of b2.
  ``stratum_audit`` and ``admissible_strata`` stay as the per-stratum
  reference that the tests compare the sweep against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError


def dims_check(g: int, d: int, e: int, r: int) -> int:
    """Validate (g, d, e, r) and return the matching number of point conditions.

    Raises ``ParameterError`` naming the failed condition when n is not a
    positive integer in the stable range.
    """
    if g < 0:
        raise ParameterError(f"genus must be nonnegative, got g={g}")
    if d < 1:
        raise ParameterError(f"map degree must be positive, got d={d}")
    if e < 3:
        raise ParameterError(f"hypersurface degree must be >= 3, got e={e}")
    if r < 1:
        raise ParameterError(f"hypersurface dimension must be >= 1, got r={r}")
    num = (r + 2 - e) * d
    if num % r != 0:
        raise ParameterError(
            f"point count n = ({r}+2-{e})*{d}/{r} - {g} + 1 is not an integer"
        )
    n = num // r - g + 1
    if n < 1:
        raise ParameterError(f"point count n = {n} must be >= 1")
    if 2 * g - 2 + n <= 0:
        raise ParameterError(f"(g, n) = ({g}, {n}) is outside the stable range")
    return n


def insertion_dims_check(g: int, d: int, e: int, r: int, ell) -> int:
    """Validate a linear-space insertion profile; return n = len(ell).

    The i-th mark is constrained to a general linear space of dimension
    ell_i (ell_i = 1 recovers the line conditions of the plain count).
    Finiteness of the expected count requires

        r * (n + g - 1)  =  (r + 2 - e) * d  +  sum(ell_i - 1),

    which specializes at ell = (1, ..., 1) to the condition of
    ``dims_check``.  The remaining gates (d >= 2g and a positive bundle
    rank t >= max(1, g)) match the plain-count construction.
    """
    if g < 0:
        raise ParameterError(f"genus must be nonnegative, got g={g}")
    if d < 1:
        raise ParameterError(f"map degree must be positive, got d={d}")
    if e < 3:
        raise ParameterError(f"hypersurface degree must be >= 3, got e={e}")
    if r < 1:
        raise ParameterError(f"hypersurface dimension must be >= 1, got r={r}")
    ell = tuple(ell)
    n = len(ell)
    if n < 1:
        raise ParameterError("insertion profile must be nonempty")
    for li in ell:
        if not (1 <= li <= r + 1):
            raise ParameterError(f"insertion dimension {li} out of range [1, {r + 1}]")
    lhs = r * (n + g - 1)
    rhs = (r + 2 - e) * d + sum(li - 1 for li in ell)
    if lhs != rhs:
        raise ParameterError(
            f"insertion dimension condition fails: r(n+g-1) = {lhs} "
            f"!= (r+2-e)d + sum(ell_i - 1) = {rhs}"
        )
    if 2 * g - 2 + n <= 0:
        raise ParameterError(f"(g, n) = ({g}, {n}) is outside the stable range")
    if d < 2 * g:
        raise ParameterError(f"need d >= 2g, got d={d}, g={g}")
    t = (d - n) * e - g + 1
    if t < 1:
        raise ParameterError(f"bundle rank t = (d-n)e - g + 1 = {t} must be >= 1")
    if t < g:
        raise ParameterError(f"bundle rank t = {t} below genus g = {g}: out of model")
    return n


def enum_bound_closed(g: int, e: int, r: int) -> Fraction | None:
    """Closed-form enumerativity threshold on d; ``None`` means all d.

    Valid for e >= 3 and r > (e+1)(e-2).  For g > 0 the count is certified
    enumerative for every d strictly above the returned rational bound

        r * ((3g-2)(1+e) + 1 + g(r+2)) / (r - (e+1)(e-2));

    for g = 0 no condition on d is needed.
    """
    if g < 0:
        raise ParameterError(f"genus must be nonnegative, got g={g}")
    if e < 3:
        raise ParameterError(f"hypersurface degree must be >= 3, got e={e}")
    slack = r - (e + 1) * (e - 2)
    if slack <= 0:
        raise ParameterError(
            f"closed bound requires r > (e+1)(e-2) = {(e + 1) * (e - 2)}, got r={r}"
        )
    if g == 0:
        return None
    return Fraction(r * ((3 * g - 2) * (1 + e) + 1 + g * (r + 2)), slack)


@dataclass(frozen=True)
class StratumProfile:
    """Counts of degenerate base-points: off-mark (b0), simple (b1), double (b2)."""

    b0: int
    b1: int
    b2: int

    def d_prime(self, d: int) -> int:
        """Degree left after twisting down all base-points."""
        return d - self.b0 - 2 * self.b2


@dataclass(frozen=True)
class AuditReport:
    """Dimension audit of one degeneration stratum.

    ``case`` is "A" when at least max(2g, 1) marks stay free of base-points
    (the stratum then has its expected dimension and must simply be
    deficient), and "B" otherwise (an h^1 excess allowance is added before
    comparing).  ``passed`` means the stratum cannot dominate the target.
    """

    stratum: StratumProfile
    case: str
    delta: int
    target_dim: int
    vdim_stratum: int
    excess_allowance: int | None
    passed: bool


def stratum_audit(
    g: int, d: int, e: int, r: int, n: int, stratum: StratumProfile
) -> AuditReport:
    """Audit a single stratum of maps with base-points against domination."""
    b0, b1, b2 = stratum.b0, stratum.b1, stratum.b2
    if b0 < 0 or b1 < 0 or b2 < 0:
        raise ParameterError(f"stratum counts must be nonnegative: {stratum}")
    if b0 == 0 and b1 == 0 and b2 == 0:
        raise ParameterError("stratum must have at least one base-point")
    if b1 + b2 > n:
        raise ParameterError(f"b1 + b2 = {b1 + b2} exceeds n = {n}")
    dp = stratum.d_prime(d)
    if dp < 0:
        raise ParameterError(f"stratum degree d' = {dp} is negative")

    delta = (3 * g - 3 + n) + r * n
    target = delta - (r + 1) * b2
    # Equal to delta - (2r+5-2e) b2 - (r+2-e) b0 - b1, grouped by base-point type.
    vdim = delta - (b0 + 2 * b2) * (r + 2 - e) - b2 - b1

    if n - b1 - b2 >= max(2 * g, 1):
        case = "A"
        allowance = None
        passed = vdim < target
    else:
        case = "B"
        # h^1 allowance for the spine, whose degree is d' minus the b1 lines.
        allowance = (dp - b1) * e + 1 + g * (r + 2)
        passed = vdim + allowance < target
    return AuditReport(stratum, case, delta, target, vdim, allowance, passed)


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of the stratum sweep for one parameter tuple.

    ``audit_sharper`` marks certificates obtained with d at or below the
    closed-form threshold (or where that threshold does not apply): the
    audit alone vouches for them, which is a strictly stronger claim than
    the closed bound supports, so they are flagged for the caller.
    """

    g: int
    d: int
    e: int
    r: int
    n: int
    certified: bool
    reason: str
    witness: AuditReport | None
    closed_bound: Fraction | None
    bound_applicable: bool
    bound_satisfied: bool
    audit_sharper: bool
    strata_checked: int


def admissible_strata(d: int, n: int):
    """Yield every admissible stratum in lexicographic (b2, b1, b0) order.

    Admissible: 0 <= b2 <= n, 0 <= b1 <= n - b2, 0 <= b0 <= d - 2*b2, not
    all zero.  Values of b2 with d - 2*b2 < 0 contribute nothing (no map of
    negative degree exists, so those strata are vacuous).
    """
    for b2 in range(n + 1):
        b0_max = d - 2 * b2
        if b0_max < 0:
            continue
        for b1 in range(n - b2 + 1):
            for b0 in range(b0_max + 1):
                if b0 == 0 and b1 == 0 and b2 == 0:
                    continue
                yield b0, b1, b2


def count_admissible_strata(d: int, n: int) -> int:
    """Closed count of the admissible-stratum set (vacuous b2 excluded)."""
    total = 0
    for b2 in range(n + 1):
        if d - 2 * b2 < 0:
            continue
        total += (n - b2 + 1) * (d - 2 * b2 + 1)
    return total - 1


def certify_enumerative(g: int, d: int, e: int, r: int) -> CertificationReport:
    """Certify that the count at (g, d, e, r) is enumerative.

    Certification requires (i) n >= max(2g, 1) so point conditions rule out
    unwanted tangent vectors, (ii) d >= 2g so the construction applies, and
    (iii) a passing audit for every admissible stratum.  On failure, the
    witness is the lexicographically least failing (b2, b1, b0), and
    ``strata_checked`` is its position in that order; on success it is
    ``count_admissible_strata(d, n)``.  Every admissible stratum is covered
    and counted, but only the worst stratum of each monotone run is tested,
    so the sweep does O(1) work per b2.
    """
    n = dims_check(g, d, e, r)

    bound: Fraction | None
    try:
        bound = enum_bound_closed(g, e, r)
        bound_applicable = True
        bound_satisfied = bound is None or d > bound
    except ParameterError:
        bound = None
        bound_applicable = False
        bound_satisfied = False

    def report(certified, reason, witness, checked):
        return CertificationReport(
            g=g, d=d, e=e, r=r, n=n,
            certified=certified,
            reason=reason,
            witness=witness,
            closed_bound=bound,
            bound_applicable=bound_applicable,
            bound_satisfied=bound_satisfied,
            audit_sharper=certified and not (bound_applicable and bound_satisfied),
            strata_checked=checked,
        )

    if n < max(2 * g, 1):
        return report(False, f"n = {n} below max(2g, 1) = {max(2 * g, 1)}", None, 0)
    if d < 2 * g:
        return report(False, f"d = {d} below 2g = {2 * g}", None, 0)

    # Case A passes iff R*b0 + c2*b2 + b1 > 0; case B iff
    # (r+2)*b0 > (d - 2 b2 - b1)*e + 1 + g(r+2) - c2*b2 - b1 (both are the
    # stratum_audit comparisons rearranged).  dims_check gives R >= 1, so
    # both tests get easier as b0 grows, case A also as b1 grows, and the
    # case-B right side falls by e+1 per unit of b1.  Within a b2 block the
    # case-A rows (b1 < a_rows) come first, so the block's first failure,
    # if any, is the first stratum of its b1 = 0 row or of its first case-B
    # row: only those two are tested.  Whole passing blocks are counted in
    # closed form; ``checked`` starts at -1 because the b2 = 0 block has no
    # (0, 0, 0) stratum.  The gate above puts the b1 = 0 row of b2 = 0 in
    # case A, so every case-B row starts at b0 = 0.
    R = r + 2 - e
    c2 = r + 4 - 2 * e
    grp2 = g * (r + 2)
    free_marks_min = max(2 * g, 1)
    checked = -1
    for b2 in range(min(n, d // 2) + 1):
        width = d - 2 * b2 + 1
        a_rows = max(n - b2 - free_marks_min + 1, 0)
        b0 = 1 if b2 == 0 else 0
        if a_rows and R * b0 + c2 * b2 <= 0:
            b1 = 0
        elif a_rows <= n - b2 and (
            (d - 2 * b2 - a_rows) * e + 1 + grp2 - c2 * b2 - a_rows >= 0
        ):
            b0, b1 = 0, a_rows
        else:
            checked += (n - b2 + 1) * width
            continue
        checked += b1 * width + b0 + 1
        witness = stratum_audit(g, d, e, r, n, StratumProfile(b0, b1, b2))
        return report(False, "failing stratum", witness, checked)
    return report(True, "all strata pass", None, checked)
