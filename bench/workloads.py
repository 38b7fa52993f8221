"""Seeded inputs and independent oracles for the three benchmark workloads.

Nothing here imports ``tevdeg``: every expected value is computed from the
published formulas with plain integers, so a wrong answer from any route
under test shows as a failed operation instead of agreeing with itself.

The query workloads come in blocks with the same mix of small and large
queries for every seed; the seed picks the parameters.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from math import factorial, gcd

#: The acceptance grid: 2,880 tuples, 572 of them valid.  The seed does not
#: change it, because its bytes are the documented determinism contract.
SWEEP_RANGES = {"e": "3..5", "r": "3..10", "g": "0..3", "d": "1..30"}
#: Warm-up grid, disjoint from the timed one (r above 10).
WARMUP_SWEEP_RANGES = {"e": "3", "r": "11..12", "g": "0..1", "d": "1..24"}


def parse_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep_argv(ranges: dict, out: str, jobs: int) -> list[str]:
    argv = ["sweep"]
    for key in ("e", "r", "g", "d"):
        argv += [f"--{key}", ranges[key]]
    return argv + ["--format", "csv", "--out", out, "--jobs", str(jobs)]


# -- independent formulas -------------------------------------------------------

def hyp_n(g: int, d: int, e: int, r: int) -> int | None:
    """n = (r+2-e) d / r - g + 1 when it is an integer, else None."""
    num = (r + 2 - e) * d
    return num // r - g + 1 if num % r == 0 else None


def hyp_tuple(g: int, d: int, e: int, r: int) -> tuple[int, int] | None:
    """(n, t) for a tuple the hypersurface engine accepts, else None.

    Valid means: n a positive integer in the stable range, d >= 2g, and the
    bundle rank t = (d-n)e - g + 1 at least max(1, g).
    """
    if g < 0 or d < 1 or e < 3 or r < 1:
        return None
    n = hyp_n(g, d, e, r)
    if n is None or n < 1 or 2 * g - 2 + n <= 0 or d < 2 * g:
        return None
    t = (d - n) * e - g + 1
    if t < max(1, g):
        return None
    return n, t


def hyp_count(g: int, d: int, e: int, r: int, n: int, t: int) -> int:
    """((e-1)!)^n (r+2-e)^g e^t."""
    return factorial(e - 1) ** n * (r + 2 - e) ** g * e**t


def alpha(e: int, ell: int) -> int:
    """Per-mark insertion multiplier for a mark on a general ell-plane.

    The H_i^{r+1} coefficient of (sum_{a+b=r+1} H^a H_i^b)
    * prod_{k=1}^{e} ((k-1) H + (e+1-k) H_i) * H_i^{r+1-ell}: with
    P(x) = prod_k ((k-1) + (e+1-k) x), it is the sum of the coefficients of
    x^0 .. x^ell of P (for ell <= r+1 every such term has a partner).
    """
    poly = [1]
    for k in range(1, e + 1):
        a, b = k - 1, e + 1 - k
        nxt = [0] * (len(poly) + 1)
        for j, c in enumerate(poly):
            nxt[j] += a * c
            nxt[j + 1] += b * c
        poly = nxt
    return sum(poly[: ell + 1])


def insert_degree(g: int, d: int, e: int, r: int, ell: tuple[int, ...]) -> int:
    """(r+2-e)^g e^t prod alpha_ell, t = (d-n)e - g + 1."""
    t = (d - len(ell)) * e - g + 1
    prod = 1
    for li in ell:
        prod *= alpha(e, li)
    return (r + 2 - e) ** g * e**t * prod


def closed_bound(g: int, e: int, r: int) -> tuple[bool, Fraction | None]:
    """(applies, bound): the closed enumerativity threshold on d.

    It applies when r > (e+1)(e-2); then every d above the bound is
    enumerative, and for g = 0 every d is (bound None).
    """
    slack = r - (e + 1) * (e - 2)
    if slack <= 0:
        return False, None
    if g == 0:
        return True, None
    return True, Fraction(r * ((3 * g - 2) * (1 + e) + 1 + g * (r + 2)), slack)


def must_certify(g: int, d: int, e: int, r: int) -> bool:
    applies, bound = closed_bound(g, e, r)
    return applies and (bound is None or d > bound)


def strata_count(d: int, n: int) -> int:
    """Admissible strata (b0, b1, b2): b2 <= n, b1 <= n - b2, b0 <= d - 2 b2, not all 0."""
    return sum(
        (n - b2 + 1) * (d - 2 * b2 + 1) for b2 in range(n + 1) if d - 2 * b2 >= 0
    ) - 1


# -- query generation -------------------------------------------------------------

# Each group of a block has one size target per slot, at evenly spaced
# quantiles of a log scale.  The seed picks the tuple that meets each
# target, and the order of the block.  Fixed targets keep the shape of a
# block's cost the same for every seed, so medians and high percentiles
# repeat from run to run.  (p1 takes a random g in the k-th of equal g
# strata instead, since a fixed g would soon run out of new queries.)

DEEP_SLOTS = 10                       # slots per group per block
DEEP_D = (60, 400)
SWEEP_STRATA = (40_000, 2_000_000)    # strata a full sweep checks: ~4 ms .. ~0.2 s
INSERT_MARKS = (50, 250)
# r per e.  "certified": the closed bound applies (r > (e+1)(e-2)) and d is
# above it, so the stratum sweep runs to the end.  "refused": r at least 2
# below (e+1)(e-2), where the sweep meets a failing stratum in its first
# rows.  A full sweep costs 10 to 100 times a refusal at the same d, so each
# regime gets a fixed number of slots.
HYP_R = {
    "certified": {3: (5, 12), 4: (11, 16), 5: (19, 22)},
    "refused": {3: (2, 2), 4: (3, 8), 5: (4, 16)},
}
INSERT_R = {3: (2, 12), 4: (3, 16), 5: (4, 22)}

LINE_SLOTS = 16                       # slots per kind per block
P1_G = (50, 300)
QH_N = (10_000, 50_000)


def _targets(lo: float, hi: float, slots: int) -> list[float]:
    return [lo * (hi / lo) ** ((k + 0.5) / slots) for k in range(slots)]


def _draw_er(rng, r_ranges) -> tuple[int, int, int]:
    e = rng.choice((3, 4, 5))
    return e, rng.randrange(4), rng.randint(*r_ranges[e])


def _draw_certified(rng, strata: float, d_range):
    """(g, d, e, r, n, t) above the closed bound whose sweep checks ~strata strata."""
    lo, hi = d_range
    while True:
        e, g, r = _draw_er(rng, HYP_R["certified"])
        step = r // gcd(r, r + 2 - e)
        best = None
        for d in range(lo + (-lo) % step, hi + 1, step):
            nt = hyp_tuple(g, d, e, r)
            if nt is None or nt[0] < max(2 * g, 1) or not must_certify(g, d, e, r):
                continue
            miss = abs(math.log(strata_count(d, nt[0]) / strata))
            if best is not None and miss > best[0]:
                break  # the count grows with d: past the target
            best = (miss, (g, d, e, r) + nt)
        if best is not None and best[0] < math.log(1.1):
            return best[1]


def _draw_refused(rng, target: float, d_range):
    """(g, d, e, r, n, t) with d near target in the early-refusal regime."""
    lo, hi = d_range
    while True:
        e, g, r = _draw_er(rng, HYP_R["refused"])
        step = r // gcd(r, r + 2 - e)
        d = max(lo + (-lo) % step, round(target / step) * step)
        nt = hyp_tuple(g, d, e, r)
        if d <= hi and nt is not None and nt[0] >= max(2 * g, 1):
            return (g, d, e, r) + nt


def _draw_insert(rng, marks: float, d_range):
    """(g, d, e, r, ell) with about `marks` marks, about 10% of them on larger planes.

    With q = (r+2-e) d, n marks and s = sum(ell_i - 1), the dimension
    condition is r (n + g - 1) = q + s.  Take k ~ n/10 larger marks and the
    smallest n for which s >= k; then s <= k + r - 1 <= k r fits.
    """
    lo, hi = d_range
    while True:
        e, g, r = _draw_er(rng, INSERT_R)
        d = round((marks + g - 1) * r / (r + 2 - e))
        if not (lo <= d <= hi) or d < 2 * g:
            continue
        q = (r + 2 - e) * d
        n0 = q // r - g + 1
        k = max(1, round(n0 / 10))
        n = n0 + math.ceil((k + q % r) / r)
        s = r * (n + g - 1) - q
        if 2 * g - 2 + n <= 0 or (d - n) * e - g + 1 < max(1, g):
            continue
        extra = [1] * k
        for _ in range(s - k):
            extra[rng.choice([i for i in range(k) if extra[i] < r])] += 1
        ell = [1] * (n - k) + [1 + x for x in extra]
        rng.shuffle(ell)
        return g, d, e, r, tuple(ell)


def _hyp_query(kind, g, d, e, r, n, t) -> dict:
    argv = [kind, "--g", str(g), "--d", str(d), "--e", str(e), "--r", str(r), "--json"]
    return {"kind": kind, "argv": argv, "g": g, "d": d, "e": e, "r": r, "n": n, "t": t}


def _insert_query(g, d, e, r, ell) -> dict:
    argv = ["insert", "--g", str(g), "--d", str(d), "--e", str(e), "--r", str(r),
            "--ell", ",".join(map(str, ell)), "--json"]
    return {"kind": "insert", "argv": argv, "g": g, "d": d, "e": e, "r": r,
            "ell": list(ell)}


def _add_new(block, seen, draw):
    for _ in range(1000):
        q = draw()
        key = tuple(q["argv"])
        if key not in seen:
            seen.add(key)
            block.append(q)
            return
    raise RuntimeError(f"no new query near {q['argv']}")


def _deep_block(rng, seen, slots, strata, d_range, marks) -> list[dict]:
    """Full sweeps, early refusals and insertions; hyp and certify alternate."""
    block = []
    for k, target in enumerate(_targets(*strata, slots)):
        _add_new(block, seen, lambda: _hyp_query(
            ("hyp", "certify")[k % 2], *_draw_certified(rng, target, d_range)))
    for k, target in enumerate(_targets(*d_range, slots)):
        _add_new(block, seen, lambda: _hyp_query(
            ("certify", "hyp")[k % 2], *_draw_refused(rng, target, d_range)))
    for target in _targets(*marks, slots):
        _add_new(block, seen, lambda: _insert_query(*_draw_insert(rng, target, d_range)))
    rng.shuffle(block)
    return block


def _p1_query(g_target: float, d_quantile: float) -> dict:
    g = round(g_target)
    d_lo = math.ceil((g + 1) / 2)
    d = d_lo + int(d_quantile * (g + 4 - d_lo))
    return {"kind": "p1", "g": g, "d": d, "n": 2 * d - g + 1,
            "argv": ["p1", "--g", str(g), "--d", str(d), "--json"]}


def _qh_query(rng, n_target: float) -> dict:
    """With d = r m, the matching point count is n = (r+1) m - g + 1."""
    r, g = rng.randint(1, 6), rng.randint(0, 40)
    m = max(1, round((n_target + g - 1) / (r + 1)))
    return {"kind": "qh", "g": g, "d": r * m, "r": r, "n": (r + 1) * m - g + 1,
            "argv": ["qh", "--g", str(g), "--d", str(r * m), "--r", str(r), "--json"]}


def _line_block(rng, seen, slots, g_range, n_range) -> list[dict]:
    block = []
    for k in range(slots):
        # The cost grows with g and d.  Slot k takes the k-th g stratum and,
        # since 7 is prime to the slot count, a d stratum that spreads the d
        # strata evenly over the g range.
        _add_new(block, seen, lambda: _p1_query(
            g_range[0] + (g_range[1] - g_range[0]) * (k + rng.random()) / slots,
            ((7 * k) % slots + rng.random()) / slots))
    for n_target in _targets(*n_range, slots):
        _add_new(block, seen, lambda: _qh_query(rng, n_target))
    rng.shuffle(block)
    return block


def query_blocks(workload: str, seed: int):
    """Endless stream of blocks for a query workload; no query repeats."""
    seen: set = set()
    for b in itertools.count():
        rng = random.Random(f"{workload}:{seed}:{b}")
        if workload == "deep_queries":
            yield _deep_block(rng, seen, DEEP_SLOTS, SWEEP_STRATA, DEEP_D, INSERT_MARKS)
        else:
            yield _line_block(rng, seen, LINE_SLOTS, P1_G, QH_N)


def warmup_block(workload: str, seed: int) -> list[dict]:
    """A small block whose sizes lie below every timed query's."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    if workload == "deep_queries":
        return _deep_block(rng, set(), 1, (500, 20_000), (20, 59), (10, 40))
    return _line_block(rng, set(), 2, (10, 40), (1_000, 5_000))


# -- oracles ---------------------------------------------------------------------

def _values(doc: dict) -> dict[str, int]:
    return {res["method"]: int(res["value"]) for res in doc["results"]}


def check_query(q: dict, rc: int, out: str) -> str | None:
    """None when the output is right, else the reason it is not."""
    if rc != 0:
        return f"exit status {rc}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "unparsable output"
    try:
        return _check_doc(q, doc)
    except (KeyError, TypeError, ValueError) as ex:
        return f"malformed output: {ex!r}"


def _check_doc(q: dict, doc: dict) -> str | None:
    kind = q["kind"]
    if kind in ("hyp", "certify"):
        g, d, e, r, n = q["g"], q["d"], q["e"], q["r"], q["n"]
        if doc["params"] != {"g": g, "d": d, "e": e, "r": r, "n": n}:
            return f"params {doc['params']}"
        certified = doc["flags"]["certified"] if kind == "hyp" else doc["certified"]
        if must_certify(g, d, e, r) and certified is not True:
            return "not certified above the closed bound"
        if kind == "hyp":
            want = hyp_count(g, d, e, r, n, q["t"])
            if _values(doc) != {"closed": want, "engine": want}:
                return "hypersurface count differs from ((e-1)!)^n (r+2-e)^g e^t"
            return None
        if certified:
            if doc["strata_checked"] != strata_count(d, n):
                return f"strata_checked {doc['strata_checked']} != {strata_count(d, n)}"
            return None
        w = doc["witness"]
        if w is None:
            return "refusal without a witness"
        b0, b1, b2 = w["b0"], w["b1"], w["b2"]
        if not (0 <= b2 <= n and 0 <= b1 <= n - b2 and 0 <= b0 <= d - 2 * b2
                and b0 + b1 + b2 > 0):
            return f"witness {w} is not an admissible stratum"
        return None
    if kind == "insert":
        g, d, e, r, ell = q["g"], q["d"], q["e"], q["r"], tuple(q["ell"])
        if doc["params"] != {"g": g, "d": d, "e": e, "r": r, "n": len(ell), "ell": list(ell)}:
            return f"params {doc['params']}"
        want = insert_degree(g, d, e, r, ell)
        if _values(doc) != {"closed": want, "engine": want}:
            return "insertion degree differs from (r+2-e)^g e^t prod alpha"
        return None
    if kind == "qh":
        if doc["params"] != {"g": q["g"], "d": q["d"], "r": q["r"], "n": q["n"]}:
            return f"params {doc['params']}"
        if _values(doc) != {"quantum": (q["r"] + 1) ** q["g"]}:
            return "quantum count differs from (r+1)^g"
        return None
    # p1: 2^g on both routes for d >= g+1; below that no independent value
    # exists, so only the exit status and the shape are checked.
    g, d = q["g"], q["d"]
    if doc["params"] != {"g": g, "d": d, "n": q["n"]}:
        return f"params {doc['params']}"
    values = _values(doc)
    if set(values) != {"cps", "schubert"}:
        return f"methods {sorted(values)}"
    if d >= g + 1 and values != {"cps": 2**g, "schubert": 2**g}:
        return "line count differs from 2^g"
    return None


SWEEP_HEADER = ("g,d,e,r,n,t,value_closed,value_engine,"
                "agreement,virtual_range,bound_ok,certified")


def sweep_expected(ranges: dict) -> list[tuple]:
    """(g, d, e, r, n, t, value) for every valid tuple, in (e, r, g, d) order."""
    rows = []
    for e in parse_range(ranges["e"]):
        for r in parse_range(ranges["r"]):
            for g in parse_range(ranges["g"]):
                for d in parse_range(ranges["d"]):
                    nt = hyp_tuple(g, d, e, r)
                    if nt is not None:
                        rows.append((g, d, e, r) + nt + (hyp_count(g, d, e, r, *nt),))
    return rows


def check_sweep_csv(text: str, expected: list[tuple]) -> int:
    """Number of expected rows that are missing or wrong (all of them if the shape is off)."""
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "" or len(lines) != len(expected) + 2:
        return len(expected)
    bad = 0
    for line, (g, d, e, r, n, t, value) in zip(lines[1:-1], expected):
        cells = line.split(",")
        if (len(cells) != 12
                or cells[:8] != [str(x) for x in (g, d, e, r, n, t, value, value)]
                or cells[8] != "true"
                or any(c not in ("true", "false") for c in cells[9:])):
            bad += 1
    return bad
