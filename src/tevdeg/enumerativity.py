"""Validity gates and enumerativity certification.

A count of maps to a degree-e hypersurface of dimension r is only defined
on parameter tuples (g, d, e, r) where the number of point conditions

    n = (r + 2 - e) / r * d - g + 1

is a positive integer in the stable range.  Every route and the CLI leave
that decision to the three gates here: ``dims_check`` (hypersurfaces),
``insertion_dims_check`` (linear-space insertions plus the engine's
``bundle_rank``; ``HypParams`` and the closed form run it on their own
grouping of the marks, as ``insertion_counts_check``) and
``projective_dims_check`` (P^r, with P^1 as its case r = 1).  This module
alone knows when n is an integer: ``dims_check`` tests it, and ``sweep``
makes only the d that ``integral_degrees`` lists for an (e, r) with r in
``gated_dims``; the gate alone decides which of those give a row.

Whether the resulting integer actually enumerates honest maps (rather than
a virtual count polluted by degenerate loci) is certified two ways:

* ``enum_bound_closed``: a closed-form threshold on d, valid where
  ``closed_bound_applies``, r > (e+1)(e-2); any d strictly above it is
  enumerative (all d, if g = 0).
* ``certify_enumerative``: a dimension audit over all degeneration strata.
  A stratum records b1 marked simple base-points, b2 marked double
  base-points, and b0 base-points (with multiplicity) away from the marks;
  the audit checks that the corresponding family of stable maps cannot
  dominate the incidence target, comparing its (virtual) dimension -- plus
  an h^1 excess allowance when too few free marks remain -- against the
  target dimension.  Every admissible stratum is covered and counted, but
  past the n gate the first failing stratum, if any, is always
  (b0, b1, b2) = (0, n - max(2g, 1) + 1, 0), so that one stratum is the
  only one tested.  The proof is the comment above
  ``test_certify_matches_run_heads`` in ``tests/test_enumerativity.py``.
  ``count_admissible_strata`` counts them in closed form.  ``stratum_audit``
  stays as the per-stratum reference: the tests enumerate every stratum,
  audit each one, and compare the certificate and the count against that.

The reports are immutable ``NamedTuple``s, cheap enough to build on every
sweep row.

``fractions`` is imported by ``enum_bound_closed``, only when it builds a
bound (g >= 1), so a query that never reaches one does not load it.  So
``Fraction`` is not a global of this module, and
``typing.get_type_hints`` on ``enum_bound_closed`` or
``CertificationReport`` raises ``NameError`` unless the caller passes it,
as in ``localns={"Fraction": fractions.Fraction}``.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import ParameterError, int_str


def _check_tuple(g: int, d: int, e: int, r: int) -> None:
    """The ranges of g, d, e and r that every gate below starts from."""
    if g < 0:
        raise ParameterError(f"genus must be nonnegative, got g={int_str(g)}")
    if d < 1:
        raise ParameterError(f"map degree must be positive, got d={int_str(d)}")
    if e < 3:
        raise ParameterError(f"hypersurface degree must be >= 3, got e={int_str(e)}")
    if r < 1:
        raise ParameterError(f"hypersurface dimension must be >= 1, got r={int_str(r)}")


def gated_dims(parts: list[range]) -> list[range]:
    """The r in ``parts``, step-1 ranges, that the gates admit: r >= 1."""
    return [range(max(part.start, 1), part.stop) for part in parts if part.stop > 1]


def integral_degrees(e: int, r: int, part: range) -> range:
    """The d in ``part``, a step-1 range, for which n = (r+2-e)d/r - g + 1 is
    an integer: none for r < 1, else the multiples of r / gcd(r, e-2), since
    (r+2-e)d = 0 mod r exactly when that divides d.
    """
    if r < 1:
        return range(0)
    step = r // gcd(r, e - 2)
    return range(part.start + (-part.start) % step, part.stop, step)


def dims_check(g: int, d: int, e: int, r: int) -> int:
    """Validate (g, d, e, r) and return the matching number of point conditions.

    Raises ``ParameterError`` naming the failed condition when n is not a
    positive integer in the stable range.
    """
    _check_tuple(g, d, e, r)
    if (r + 2 - e) * d % r:
        raise ParameterError(
            f"point count n = ({int_str(r)}+2-{int_str(e)})*{int_str(d)}/{int_str(r)} "
            f"- {int_str(g)} + 1 is not an integer"
        )
    n = (r + 2 - e) * d // r - g + 1
    if n < 1:
        raise ParameterError(f"point count n = {int_str(n)} must be >= 1")
    if 2 * g - 2 + n <= 0:
        raise ParameterError(
            f"(g, n) = ({int_str(g)}, {int_str(n)}) is outside the stable range")
    return n


def bundle_rank(g: int, d: int, e: int, n: int) -> int:
    """Gate d >= 2g and t >= max(1, g); return the bundle rank t = (d-n)e - g + 1."""
    if d < 2 * g:
        raise ParameterError(f"need d >= 2g, got d={int_str(d)}, g={int_str(g)}")
    t = (d - n) * e - g + 1
    if t < 1:
        raise ParameterError(
            f"bundle rank t = (d-n)e - g + 1 = {int_str(t)} must be >= 1")
    if t < g:
        raise ParameterError(
            f"bundle rank t = {int_str(t)} below genus g = {int_str(g)}: out of model")
    return t


def insertion_dims_check(g: int, d: int, e: int, r: int, ell) -> int:
    """Validate a linear-space insertion profile; return n = len(ell).

    The i-th mark is constrained to a general linear space of dimension
    ell_i (ell_i = 1 recovers the line conditions of the plain count).
    Finiteness of the expected count requires

        r * (n + g - 1)  =  (r + 2 - e) * d  +  sum(ell_i - 1),

    which specializes at ell = (1, ..., 1) to the condition of
    ``dims_check``.  The remaining gates are those of ``bundle_rank``.
    The marks are grouped by dimension and ``insertion_counts_check``
    decides.
    """
    return insertion_counts_check(g, d, e, r, Counter(ell))


def insertion_counts_check(g: int, d: int, e: int, r: int, counts: Counter) -> int:
    """``insertion_dims_check`` on a profile grouped as dimension -> marks.

    Every check reads the distinct dimensions, not the marks: the range is
    checked on their least and largest, and sum(ell_i) is the sum of
    dimension times multiplicity.  ``Counter`` keeps first-seen order, so
    the first dimension out of range is the first offender in the profile.
    """
    _check_tuple(g, d, e, r)
    n = counts.total()
    if n < 1:
        raise ParameterError("insertion profile must be nonempty")
    if min(counts) < 1 or max(counts) > r + 1:
        bad = next(li for li in counts if not (1 <= li <= r + 1))
        raise ParameterError(
            f"insertion dimension {int_str(bad)} out of range [1, {int_str(r + 1)}]")
    lhs = r * (n + g - 1)
    rhs = (r + 2 - e) * d + sum(map(mul, counts, counts.values())) - n
    if lhs != rhs:
        raise ParameterError(
            f"insertion dimension condition fails: r(n+g-1) = {int_str(lhs)} "
            f"!= (r+2-e)d + sum(ell_i - 1) = {int_str(rhs)}"
        )
    if 2 * g - 2 + n <= 0:
        raise ParameterError(
            f"(g, n) = ({int_str(g)}, {int_str(n)}) is outside the stable range")
    bundle_rank(g, d, e, n)
    return n


def projective_dims_check(g: int, d: int, r: int) -> int:
    """Validate (g, d, r) for maps to P^r; return n = (r+1)d/r - g + 1.

    P^1 is r = 1: ``p1``, both P^1 routes and ``qh`` run this gate.  It
    passes n = 0, which the quantum route refuses itself.  What passes is
    stable: r | d gives (r+1)d/r >= 2, so 2g - 2 + n >= g + 1.
    """
    if r < 1:
        raise ParameterError(f"projective space dimension must be >= 1, got {int_str(r)}")
    if d < 1:
        raise ParameterError(f"map degree must be positive, got d={int_str(d)}")
    if g < 0:
        raise ParameterError(f"genus must be nonnegative, got g={int_str(g)}")
    if d % r:
        raise ParameterError(f"point count n = (r+1)d/r - g + 1 is not an integer: (r+1)d = "
                             f"{int_str((r + 1) * d)} is not a multiple of r = {int_str(r)}")
    n = (r + 1) * d // r - g + 1
    if n < 0:
        raise ParameterError(f"point count n = (r+1)d/r - g + 1 = {int_str(n)} is negative")
    return n


def closed_bound_applies(e: int, r: int) -> bool:
    """Whether ``enum_bound_closed`` applies at (e, r): r > (e+1)(e-2)."""
    return r > (e + 1) * (e - 2)


def enum_bound_closed(g: int, e: int, r: int) -> Fraction | None:
    """Closed-form enumerativity threshold on d; ``None`` means all d.

    Valid for e >= 3 and r > (e+1)(e-2).  For g > 0 the count is certified
    enumerative for every d strictly above the returned rational bound

        r * ((3g-2)(1+e) + 1 + g(r+2)) / (r - (e+1)(e-2));

    for g = 0 no condition on d is needed.
    """
    if g < 0:
        raise ParameterError(f"genus must be nonnegative, got g={int_str(g)}")
    if e < 3:
        raise ParameterError(f"hypersurface degree must be >= 3, got e={int_str(e)}")
    if not closed_bound_applies(e, r):
        raise ParameterError(
            f"closed bound requires r > (e+1)(e-2) = {int_str((e + 1) * (e - 2))}, "
            f"got r={int_str(r)}"
        )
    if g == 0:
        return None
    # A sweep builds a bound on most rows.  Once loaded, "import fractions"
    # costs about 0.1 us; "from fractions import Fraction" costs about 1 us,
    # as it looks up the module's missing __path__.
    import fractions

    slack = r - (e + 1) * (e - 2)
    return fractions.Fraction(r * ((3 * g - 2) * (1 + e) + 1 + g * (r + 2)), slack)


class StratumProfile(NamedTuple):
    """Counts of degenerate base-points: off-mark (b0), simple (b1), double (b2)."""

    b0: int
    b1: int
    b2: int


class AuditReport(NamedTuple):
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
        raise ParameterError(f"stratum counts must be nonnegative: StratumProfile("
                             f"b0={int_str(b0)}, b1={int_str(b1)}, b2={int_str(b2)})")
    if b0 == 0 and b1 == 0 and b2 == 0:
        raise ParameterError("stratum must have at least one base-point")
    if b1 + b2 > n:
        raise ParameterError(f"b1 + b2 = {int_str(b1 + b2)} exceeds n = {int_str(n)}")
    # d', the degree left after twisting down all base-points.
    dp = d - b0 - 2 * b2
    if dp < 0:
        raise ParameterError(f"stratum degree d' = {int_str(dp)} is negative")

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


class CertificationReport(NamedTuple):
    """Outcome of the stratum sweep for one parameter tuple.

    ``bound_applicable``: ``closed_bound_applies(e, r)``, where
    ``enum_bound_closed`` accepts (g, e, r); ``closed_bound`` is its value.
    ``bound_satisfied``: it applies and d clears it, so the closed bound
    alone vouches for the count.  ``audit_sharper`` marks certificates
    obtained with d at or below the closed-form threshold (or where that
    threshold does not apply): the audit alone vouches for them, which is a
    strictly stronger claim than the closed bound supports, so they are
    flagged for the caller.
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


def count_admissible_strata(d: int, n: int) -> int:
    """Number of admissible strata (b0, b1, b2), in closed form.

    Admissible: 0 <= b2 <= n, 0 <= b1 <= n - b2, 0 <= b0 <= d - 2*b2, not
    all zero.  That is the sum over b2 = 0 .. m, m = min(n, d // 2), of
    (n-b2+1)(d-2b2+1), minus the excluded (0, 0, 0); the tests hold it to
    that loop and to the strata enumerated one by one.
    """
    m = max(min(n, d // 2), -1)
    a, b = n + 1, d + 1
    return (m + 1) * (6 * a * b - 3 * (2 * a + b) * m + 2 * m * (2 * m + 1)) // 6 - 1


def certify_enumerative(g: int, d: int, e: int, r: int) -> CertificationReport:
    """Certify that the count at (g, d, e, r) is enumerative.

    Certification requires (i) n >= max(2g, 1) so point conditions rule out
    unwanted tangent vectors, and (ii) a passing audit for every admissible
    stratum.  The construction needs d >= 2g, which (i) gives: e >= 3, so
    d > n + g - 1 >= 3g - 1 (proof above ``test_n_gate_gives_d_at_least_2g``).
    On failure, the witness is the lexicographically least failing
    (b2, b1, b0), and ``strata_checked`` is its position in that order; on
    success it is ``count_admissible_strata(d, n)``.  Every admissible
    stratum is covered and counted, but only the first case-B stratum
    (0, n - max(2g, 1) + 1, 0) is tested: no other stratum can fail first
    (proof above ``test_certify_matches_run_heads`` in
    ``tests/test_enumerativity.py``).

    For g >= 1 that stratum passes iff d > ``enum_bound_closed(g, e, r)``,
    and never when the bound does not apply, so ``certified`` is exactly
    ``bound_satisfied`` and n >= 2g: one condition, not two pieces of
    evidence (algebra above
    ``test_certified_is_the_bound_and_the_gates_for_positive_genus``).

    A valid tuple raises nothing: ``closed_bound_applies`` decides whether
    the bound applies, and d is compared with it in ints.
    """
    n = dims_check(g, d, e, r)
    bound_applicable = closed_bound_applies(e, r)
    bound = enum_bound_closed(g, e, r) if bound_applicable else None
    # d > bound in ints: a Fraction's denominator is positive.
    bound_satisfied = bound_applicable and (
        bound is None or d * bound.denominator > bound.numerator)

    # A refusal by the n gate has no witness and checks no stratum.
    certified, witness, checked = False, None, 0
    # 2g and n can pass the int/str digit limit that g and d are parsed under.
    if n < max(2 * g, 1):
        reason = f"n = {int_str(n)} below max(2g, 1) = {int_str(max(2 * g, 1))}"
    else:
        # (0, a0, 0) is at position a0*(d+1) in (b2, b1, b0) order, since
        # the b2 = 0 block has no (0, 0, 0).
        a0 = n - max(2 * g, 1) + 1
        audit = stratum_audit(g, d, e, r, n, StratumProfile(0, a0, 0))
        if audit.passed:
            certified, reason = True, "all strata pass"
            checked = count_admissible_strata(d, n)
        else:
            reason, witness, checked = "failing stratum", audit, a0 * (d + 1)
    return CertificationReport(g, d, e, r, n, certified, reason, witness, bound,
                               bound_applicable, bound_satisfied,
                               certified and not bound_satisfied, checked)
