"""Executable acceptance checks, shared by the test suite and ``tevdeg verify``.

Each criterion function performs its full sweep and returns a
``CriterionResult``; nothing is sampled down and every comparison is exact
(tolerance zero).  The functions are deterministic: random profile
generation is seeded, and grids are enumerated in sorted order.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from . import closed_forms, engine, quantum, schubert
from .enumerativity import (
    StratumProfile,
    certify_enumerative,
    dims_check,
    enum_bound_closed,
    stratum_audit,
)
from .errors import ParameterError

#: The main verification grid: e, r in [2e-3, 10], g in [0, 3], d in [1, 30].
MAIN_GRID_E = (3, 4, 5)
MAIN_GRID_R_MAX = 10
MAIN_GRID_G_MAX = 3
MAIN_GRID_D_MAX = 30

PROFILE_SEED = 20260811
PROFILE_COUNT = 120


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str


def _result(number, name, failures, detail):
    if failures:
        shown = "; ".join(failures[:5])
        if len(failures) > 5:
            shown += f"; ... ({len(failures)} failures total)"
        return CriterionResult(number, name, False, shown)
    return CriterionResult(number, name, True, detail)


def main_grid_params():
    """All valid parameter tuples of the main grid, sorted by (e, r, g, d)."""
    out = []
    for e in MAIN_GRID_E:
        for r in range(2 * e - 3, MAIN_GRID_R_MAX + 1):
            for g in range(MAIN_GRID_G_MAX + 1):
                for d in range(1, MAIN_GRID_D_MAX + 1):
                    try:
                        out.append(engine.HypParams.standard(g, d, e, r))
                    except ParameterError:
                        continue
    return out


def criterion_1_engine_vs_closed() -> CriterionResult:
    """Engine equals the closed forms on the whole main grid."""
    failures = []
    params = main_grid_params()
    for p in params:
        # tev_hypersurface_engine checks that e divides alpha_1, so e^n divides
        # deg_T exactly and the expected count also pins
        # deg_T == (e!)^n (r+2-e)^g e^t.
        expected_count = (
            factorial(p.e - 1) ** p.n * (p.r + 2 - p.e) ** p.g * p.e**p.t
        )
        got_count = engine.tev_hypersurface_engine(p)
        closed = closed_forms.vtev_hypersurface_closed(p.g, p.d, p.e, p.r)
        if got_count != expected_count or closed != expected_count:
            failures.append(
                f"count{(p.g, p.d, p.e, p.r)}: engine {got_count}, closed {closed}, "
                f"expected {expected_count}"
            )
    return _result(
        1, "engine vs closed form", failures, f"{len(params)} tuples, all exact"
    )


def random_insertion_setups():
    """PROFILE_COUNT seeded valid insertion parameters with e <= 5, r <= 8, g <= 2."""
    rng = random.Random(PROFILE_SEED)
    setups = []
    # The contract's own worked profiles come first.
    for g, d, e, r, ell in (
        (0, 3, 3, 3, (1, 1, 1)),
        (1, 3, 3, 3, (1, 1)),
        (0, 6, 3, 3, (2, 2, 2, 1, 1, 1)),
    ):
        setups.append(engine.HypParams(g, d, e, r, ell))
    while len(setups) < PROFILE_COUNT:
        e = rng.choice((3, 4, 5))
        r = rng.randint(e - 1, 8)
        g = rng.randint(0, 2)
        n = rng.randint(max(1, 3 - 2 * g), 10)
        ell = tuple(rng.randint(1, r + 1) for _ in range(n))
        # The gate refuses d unless (r+2-e) d = r(n+g-1) - sum(ell_i - 1).
        d = (r * (n + g - 1) - sum(ell) + n) // (r + 2 - e)
        try:
            setups.append(engine.HypParams(g, d, e, r, ell))
        except ParameterError:
            continue
    return setups


def criterion_2_insertions() -> CriterionResult:
    """Engine equals the insertion closed form on random valid profiles."""
    failures = []
    setups = random_insertion_setups()
    for p in setups:
        got = engine.deg_T(p)
        want = closed_forms.deg_T_insertions_closed(p.g, p.d, p.e, p.r, p.ell)
        if got != want:
            failures.append(
                f"deg_T{(p.g, p.d, p.e, p.r)} ell={p.ell}: {got} != {want}"
            )
    for e in range(3, 7):
        for r in range(1, 11):
            vals = closed_forms.alpha_coefficients(e, r)
            if vals[0] != factorial(e):
                failures.append(f"alpha_1({e},{r}) = {vals[0]} != {factorial(e)}")
            if vals != vals[::-1]:
                failures.append(f"alpha({e},{r}) not palindromic")
            if sum(vals) != (r + 2) * e**e:
                failures.append(f"sum alpha({e},{r}) != (r+2) e^e")
            if any(v <= 0 for v in vals):
                failures.append(f"alpha({e},{r}) has nonpositive entries")
    return _result(
        2, "insertion profiles vs closed form", failures,
        f"{len(setups)} profiles, alpha invariants for e<=6, r<=10",
    )


def criterion_3_p1_crosscheck() -> CriterionResult:
    """The two routes to counts of maps to the line agree everywhere."""
    failures = [f"(g={g}, d={d}): cps {a} != schubert {b}"
                for g, d, a, b in closed_forms.compute_cps_schubert_discrepancies()]
    for g in range(13):
        for d in range(g + 1, g + 4):
            b = schubert.tev_p1_schubert(g, d)
            if b != 2**g:
                failures.append(f"(g={g}, d={d}): expected 2^g, got schubert {b}")
    for g, d, want in ((4, 3, 2), (6, 4, 5), (5, 3, 0)):
        got = schubert.tev_p1_schubert(g, d)
        if got != want:
            failures.append(f"schubert({g},{d}) = {got} != {want}")
    # Far from the small grid: large genera, above and below d = g, and a
    # degree whose box is huge.
    for g, d in ((300, 303), (300, 151), (300, 299),
                 (2000, 1001), (2000, 1999), (2000, 2003), (0, 10**9)):
        a = closed_forms.tev_p1_cps(g, d)
        b = schubert.tev_p1_schubert(g, d)
        if a != b or (d > g and b != 2**g):
            failures.append(f"(g={g}, d={d}): cps {a}, schubert {b}")
    return _result(
        3, "line counts: schubert vs binomial formula", failures,
        "routes agree for g<=12, d<=g+3 and at (300,151), (300,299), (300,303), "
        "(2000,1001), (2000,1999), (2000,2003), (0,10^9); 2^g for d>g",
    )


def criterion_4_quantum() -> CriterionResult:
    """Quantum route gives (r+1)^g at the matching point count, else 0."""
    failures = []
    checked = 0
    start = time.perf_counter()
    for r in range(1, 7):
        for g in range(7):
            # d = r * 10^6 takes n near (r+1) * 10^6 marks.
            for d in (*range(r, 4 * r + 1, r), r * 10**6):
                n = (r + 1) * d // r - g + 1
                if n < 1 or 2 * g - 2 + n <= 0:
                    continue
                checked += 1
                got = quantum.vtev_projective_qh(g, d, r, n)
                if got != (r + 1) ** g:
                    failures.append(f"qh{(g, d, r, n)} = {got} != {(r + 1) ** g}")
                for n2 in (n - 1, n + 1):
                    if n2 < 1 or 2 * g - 2 + n2 <= 0:
                        continue
                    got2 = quantum.vtev_projective_qh(g, d, r, n2)
                    if got2 != 0:
                        failures.append(f"qh{(g, d, r, n2)} = {got2} != 0")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"quantum sweep took {elapsed:.2f}s >= 5s")
    return _result(4, "quantum route", failures, f"{checked} tuples under 5s")


def enumerativity_grid_cases():
    """(g, d, e, r) with e = 3, r in 5..8, g in 0..2, d above the closed bound.

    For g = 0 the bound is vacuous; the first three valid d are used.  For
    g > 0, the first three valid d strictly above the bound are used.
    """
    cases = []
    e = 3
    for r in range(5, 9):
        for g in range(3):
            bound = enum_bound_closed(g, e, r)
            # smallest multiple of r strictly above the bound (e = 3 needs r | d)
            d = r if bound is None else (int(bound) // r + 1) * r
            picked = []
            while len(picked) < 3:
                try:
                    dims_check(g, d, e, r)
                except ParameterError:
                    d += r
                    continue
                picked.append(d)
                d += r
            cases.extend((g, d, e, r) for d in picked)
    return cases


def criterion_5_enumerativity() -> CriterionResult:
    """Closed bound fixture, grid certification, and the refusal witness."""
    failures = []
    if enum_bound_closed(1, 3, 5) != Fraction(60):
        failures.append(f"enum_bound_closed(1,3,5) = {enum_bound_closed(1, 3, 5)} != 60")
    cases = enumerativity_grid_cases()
    for g, d, e, r in cases:
        rep = certify_enumerative(g, d, e, r)
        if not rep.certified:
            failures.append(f"{(g, d, e, r)} above bound but refused: {rep.reason}")
    rep = certify_enumerative(1, 5, 3, 5)
    if rep.certified:
        failures.append("(1,5,3,5) was certified but must be refused")
    named = stratum_audit(1, 5, 3, 5, 4, StratumProfile(0, 4, 0))
    if named.passed:
        failures.append("stratum (0,4,0) of (1,5,3,5) passed but must fail")
    if rep.witness is None or rep.witness.passed:
        failures.append("refusal of (1,5,3,5) carries no failing witness")
    return _result(
        5, "enumerativity certification", failures,
        f"{len(cases)} above-bound tuples certified; (1,5,3,5) refused "
        f"with witness {rep.witness.stratum if rep.witness else None}",
    )


def criterion_6_exactness() -> CriterionResult:
    """The breach paths: a corrupted point factor makes `hyp` exit 3.

    The e^n divisibility on the main grid needs no pass of its own: every
    ``deg_T`` call of criterion 1 checks that e divides alpha_1 on the table
    it reads.
    """
    failures = []
    for d, method, corrupt in (
        # A non-int factor survives to the integral, which is not an integer.
        (3, "engine", lambda alpha: alpha * Fraction(1, 1_000_000_007)),
        # At n = t = 7, e^t alone makes e^n divide the corrupted cycle degree.
        (9, "both", lambda alpha: alpha + 1),
    ):
        code = _run_cli_with_corrupted_point_factor(d, method, corrupt)
        if code != 3:
            failures.append(f"corrupted fixture at d = {d} gave exit status {code}, "
                            "expected 3")
    return _result(
        6, "exactness and divisibility", failures,
        "breach paths exit 3: non-int point factor at (0,3,3,3), "
        "alpha_1 not divisible by e at (0,9,3,3)",
    )


def _run_cli_with_corrupted_point_factor(d, method, corrupt) -> int:
    """Drive `hyp` at (g, d, e, r) = (0, d, 3, 3) with each alpha replaced by corrupt(alpha)."""
    import contextlib
    import io

    from . import cli

    original = engine.point_factor

    def corrupted(e, r):
        return tuple((corrupt(alpha), h) for alpha, h in original(e, r))

    engine.point_factor = corrupted
    try:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(
            io.StringIO()
        ):
            return cli.main(["hyp", "--g", "0", "--d", str(d), "--e", "3", "--r", "3",
                             "--method", method])
    finally:
        engine.point_factor = original


def criterion_7_performance(workdir=None) -> CriterionResult:
    """Large-degree pipeline and certificate under 5 s; sweeps byte-identical."""
    import tempfile
    from pathlib import Path

    from . import cli

    failures = []
    start = time.perf_counter()
    p = engine.HypParams.standard(3, 300, 3, 10)
    value = engine.deg_T(p)
    # Its 4,959,230,450 strata equal count_admissible_strata(3000, 2700).
    rep = certify_enumerative(1, 3000, 3, 10)
    elapsed = time.perf_counter() - start
    if p.n != 268:
        failures.append(f"(3,300,3,10) has n = {p.n}, expected 268")
    if value <= 0:
        failures.append("large-degree cycle degree not positive")
    if not rep.certified or rep.strata_checked != 4959230450:
        failures.append(
            f"certify(1,3000,3,10): certified {rep.certified}, "
            f"{rep.strata_checked} strata, expected 4959230450 all passing"
        )
    if elapsed >= 5.0:
        failures.append(
            f"deg_T(3,300,3,10) and certify(1,3000,3,10) took {elapsed:.2f}s >= 5s"
        )

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        outs = []
        for name in ("a.csv", "b.csv"):
            path = Path(tmp) / name
            code = cli.main([
                "sweep", "--e", "3..5", "--r", "3..10", "--g", "0..3",
                "--d", "1..30", "--format", "csv", "--out", str(path),
            ])
            if code != 0:
                failures.append(f"sweep exited {code}")
            outs.append(path.read_bytes())
        if outs[0] != outs[1]:
            failures.append("two sweep runs differ byte-for-byte")
    return _result(
        7, "performance and determinism", failures,
        "deg_T(3,300,3,10) and certify(1,3000,3,10) under 5s; "
        "sweeps byte-identical",
    )


ALL_CRITERIA = (
    criterion_1_engine_vs_closed,
    criterion_2_insertions,
    criterion_3_p1_crosscheck,
    criterion_4_quantum,
    criterion_5_enumerativity,
    criterion_6_exactness,
    criterion_7_performance,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
