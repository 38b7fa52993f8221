"""Command-line interface: one verb per computation route, plus harness verbs.

Exit status is 0 on success (disagreement between routes is data, not an
error), 2 on invalid input, 3 on an internal invariant breach.  All output
is deterministic: identical invocations produce identical bytes, big
integers are printed as decimal strings, and no floating point appears
anywhere.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import itertools
import json
import os
import sys

from . import closed_forms, engine, enumerativity, quantum, schubert
from .enumerativity import certify_enumerative
from .errors import InvariantBreach, ParameterError


def parse_range(text: str) -> list[range]:
    """Parse '7', '3..5' (inclusive), or '3,4,7' into sorted, disjoint ranges.

    Overlapping and adjacent parts are merged, so the ranges in order give
    each value once, ascending.  No value list is built: a part of any
    length costs the same memory.
    """
    parts = []
    for part in text.split(","):
        part = part.strip()
        lo, dots, hi = part.partition("..")
        try:
            lo, hi = int(lo), int(hi if dots else lo)
        except ValueError:
            raise ParameterError(f"bad range {text!r}") from None
        if hi < lo:
            raise ParameterError(f"empty range {part!r}")
        parts.append((lo, hi + 1))
    merged = []
    for lo, stop in sorted(parts):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], stop)
        else:
            merged.append([lo, stop])
    return [range(lo, stop) for lo, stop in merged]


def parse_ell(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as ex:
        raise ParameterError(f"bad insertion list {text!r}: {ex}") from None


def int_str(v: int) -> str:
    """``str(v)`` for an int of any size.

    ``str`` refuses ints past the process-wide digit limit (4300 by
    default); those go through ``split_str``, and the limit is left alone.
    """
    try:
        return str(v)
    except ValueError:
        return split_str(v)


def split_str(v: int) -> str:
    """Decimal digits of ``v``, by binary splitting as in CPython 3.12's _pylong.

    n = hi * 2^w + lo is split down to 128-bit pieces, which are joined
    back in ``decimal`` at ``MAX_PREC`` with ``Inexact`` trapped: exact, and
    in subquadratic time, unlike ``str``.
    """
    def convert(n, w):
        if w <= 128:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        lo = convert(n - (hi << half), half)
        return lo + convert(hi, w - half) * decimal.Decimal(2) ** half

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(v), abs(v).bit_length()))
    return "-" + digits if v < 0 else digits


def _print_result(params: dict, results: list[tuple[str, int]],
                  flags: dict, as_json: bool) -> None:
    agreement = len({v for _, v in results}) <= 1
    if as_json:
        doc = {
            "params": params,
            "results": [{"method": m, "value": int_str(v)} for m, v in results],
            "agreement": agreement,
            "flags": flags,
        }
        print(json.dumps(doc, sort_keys=False))
        return
    print(" ".join(f"{k}={v}" for k, v in params.items()))
    for method, value in results:
        print(f"{method:<10} {int_str(value)}")
    if len(results) > 1:
        print(f"agreement  {str(agreement).lower()}")
    for k, v in flags.items():
        print(f"{k:<14} {str(v).lower()}")


def cmd_p1(args) -> int:
    n = enumerativity.line_dims_check(args.g, args.d)
    methods = []
    if args.method in ("cps", "both"):
        methods.append(("cps", closed_forms.tev_p1_cps(args.g, args.d)))
    if args.method in ("schubert", "both"):
        methods.append(("schubert", schubert.tev_p1_schubert(args.g, args.d)))
    _print_result({"g": args.g, "d": args.d, "n": n}, methods, {}, args.json)
    return 0


def _hyp_flags(rep) -> dict:
    """The validity flags of a hypersurface count, all from its certificate.

    ``virtual_range`` is 2e <= r + 3, the range in which the closed form is
    proved as a virtual count.
    """
    return {
        "virtual_range": 2 * rep.e <= rep.r + 3,
        "bound_ok": rep.bound_satisfied,
        "certified": rep.certified,
    }


def cmd_hyp(args) -> int:
    g, d, e, r = args.g, args.d, args.e, args.r
    # The tuple's own gate decides for every method, as in `insert` and `sweep`.
    p = engine.HypParams.standard(g, d, e, r)
    rep = certify_enumerative(g, d, e, r)
    methods = []
    if args.method in ("closed", "both"):
        methods.append(("closed", closed_forms.vtev_hypersurface_closed(g, d, e, r)))
    if args.method in ("engine", "both"):
        methods.append(("engine", engine.tev_hypersurface_engine(p)))
    params = {"g": g, "d": d, "e": e, "r": r, "n": p.n}
    _print_result(params, methods, _hyp_flags(rep), args.json)
    return 0


def cmd_insert(args) -> int:
    g, d, e, r = args.g, args.d, args.e, args.r
    ell = parse_ell(args.ell)
    p = engine.HypParams(g, d, e, r, ell)
    methods = []
    if args.method in ("closed", "both"):
        methods.append(("closed", closed_forms.deg_T_insertions_closed(g, d, e, r, ell)))
    if args.method in ("engine", "both"):
        methods.append(("engine", engine.deg_T(p)))
    params = {"g": g, "d": d, "e": e, "r": r, "n": p.n, "ell": list(ell)}
    _print_result(params, methods, {}, args.json)
    return 0


def cmd_alpha(args) -> int:
    al = closed_forms.alpha_coefficients(args.e, args.r)
    if args.json:
        doc = {"e": args.e, "r": args.r, "alpha": [str(v) for v in al]}
        print(json.dumps(doc))
    else:
        for i, v in enumerate(al, start=1):
            print(f"alpha_{i} {v}")
    return 0


def cmd_qh(args) -> int:
    g, d, r = args.g, args.d, args.r
    n = enumerativity.projective_dims_check(g, d, r) if args.n is None else args.n
    value = quantum.vtev_projective_qh(g, d, r, n)
    _print_result({"g": g, "d": d, "r": r, "n": n}, [("quantum", value)], {}, args.json)
    return 0


def cmd_certify(args) -> int:
    rep = certify_enumerative(args.g, args.d, args.e, args.r)
    if rep.closed_bound is None:
        bound_text = "all d" if rep.bound_applicable else None
    else:
        bound_text = str(rep.closed_bound)
    witness = None
    if rep.witness is not None:
        s = rep.witness.stratum
        witness = {"b0": s.b0, "b1": s.b1, "b2": s.b2}
    if args.json:
        doc = {
            "params": {"g": rep.g, "d": rep.d, "e": rep.e, "r": rep.r, "n": rep.n},
            "certified": rep.certified,
            "reason": rep.reason,
            "witness": witness,
            "closed_bound": bound_text,
            "bound_applicable": rep.bound_applicable,
            "bound_satisfied": rep.bound_satisfied,
            "audit_sharper": rep.audit_sharper,
            "strata_checked": rep.strata_checked,
        }
        print(json.dumps(doc))
    else:
        print(f"g={rep.g} d={rep.d} e={rep.e} r={rep.r} n={rep.n}")
        print(f"certified      {str(rep.certified).lower()}")
        print(f"reason         {rep.reason}")
        if witness is not None:
            print(f"witness        b0={witness['b0']} b1={witness['b1']} b2={witness['b2']}")
        print(f"closed_bound   {bound_text if bound_text is not None else 'n/a'}")
        print(f"audit_sharper  {str(rep.audit_sharper).lower()}")
        print(f"strata_checked {rep.strata_checked}")
    return 0


SWEEP_COLUMNS = (
    "g", "d", "e", "r", "n", "t", "value_closed", "value_engine",
    "agreement", "virtual_range", "bound_ok", "certified",
)


def sweep_record(g: int, d: int, e: int, r: int,
                 marks: dict | None = None) -> dict | None:
    """One sweep row, or None when the tuple is invalid.

    ``marks`` is the engine's point-factor dict; ``cmd_sweep`` keeps one
    per process, shared by all the rows that process makes.
    """
    try:
        p = engine.HypParams.standard(g, d, e, r)
    except ParameterError:
        return None
    closed = closed_forms.vtev_hypersurface_closed(g, d, e, r)
    value_engine = engine.tev_hypersurface_engine(p, marks)
    return {
        "g": g, "d": d, "e": e, "r": r, "n": p.n, "t": p.t,
        "value_closed": int_str(closed),
        "value_engine": int_str(value_engine),
        "agreement": closed == value_engine,
        **_hyp_flags(certify_enumerative(g, d, e, r)),
    }


SWEEP_CHUNK = 64    # tuples per unit of --jobs work


def _chunks(tuples):
    while chunk := list(itertools.islice(tuples, SWEEP_CHUNK)):
        yield chunk


def _sweep_worker(tuples, k, jobs, wfd, read_fds):
    """Send chunks k, k + jobs, ... down ``wfd``, one JSON line each.

    A line is ``[records, fault]``: the chunk's records, or those before a
    failure, and ``fault`` None, ``["breach", message]`` or ``["error",
    traceback]``.  A worker closes the pipe ends ``read_fds`` it inherited,
    and never returns: ``os._exit`` skips the buffers and exit hooks it
    inherited too, such as those of ``--out`` and stdout.
    """
    try:
        for fd in read_fds:
            os.close(fd)
        with open(wfd, "wb") as pipe:
            marks = {}
            for chunk in itertools.islice(_chunks(tuples), k, None, jobs):
                records, fault = [], None
                try:
                    for tup in chunk:
                        records.append(sweep_record(*tup, marks))
                except InvariantBreach as ex:
                    fault = ["breach", str(ex)]
                except Exception:
                    import traceback

                    fault = ["error", traceback.format_exc()]
                pipe.write(json.dumps([records, fault]).encode() + b"\n")
                pipe.flush()
                if fault:
                    break
    finally:
        os._exit(0)


def _sweep_records(tuples, jobs):
    """The records of ``tuples`` in order, None for an invalid tuple.

    Lazy on both sides: tuples are read and records made as the caller
    consumes them.  With jobs > 1, process k of 0 .. jobs-1 (this one is
    k = 0) makes the 64-tuple chunks i with i = k mod jobs, each on its own
    copy of ``tuples``; the jobs - 1 forked workers send theirs down a pipe,
    and block when it is full.  Every worker is killed and reaped on the
    way out, whatever the way.  The program starts no threads, so a forked
    worker inherits no lock held by another thread.
    """
    marks = {}
    if jobs == 1:
        for tup in tuples:
            yield sweep_record(*tup, marks)
        return
    import signal

    pipes, pids = [], []
    try:
        for k in range(1, jobs):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _sweep_worker(tuples, k, jobs, wfd, [rfd, *(p.fileno() for p in pipes)])
            os.close(wfd)
            pids.append(pid)
            pipes.append(open(rfd, "rb"))
        for i, chunk in enumerate(_chunks(tuples)):
            k = i % jobs
            if k == 0:
                for tup in chunk:
                    yield sweep_record(*tup, marks)
                continue
            line = pipes[k - 1].readline()
            if not line.endswith(b"\n"):
                raise RuntimeError(f"sweep worker {k} ended before chunk {i}")
            records, fault = json.loads(line)
            yield from records
            if fault:
                kind, message = fault
                if kind == "breach":
                    raise InvariantBreach(message)
                raise RuntimeError(f"sweep worker {k} failed on chunk {i}:\n{message}")
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    es, rs, gs, ds = [parse_range(text) for text in (args.e, args.r, args.g, args.d)]
    # Nested loops, not itertools.product, which would first copy each
    # range into a tuple.
    chain = itertools.chain
    tuples = ((g, d, e, r) for e in chain(*es) for r in chain(*rs)
              for g in chain(*gs) for d in chain(*ds))

    try:
        out = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as ex:
        print(f"error: cannot write {args.out}: {ex}", file=sys.stderr)
        return 2
    with out:
        jobs = min(args.jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
        if args.format == "csv":
            writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
            writer.writeheader()
        # Rows are written as they come, so a breach leaves a prefix behind.
        for rec in _sweep_records(tuples, jobs):
            if rec is None:
                continue
            if args.format == "csv":
                writer.writerow(
                    {k: (str(v).lower() if isinstance(v, bool) else v)
                     for k, v in rec.items()}
                )
            else:
                out.write(json.dumps(rec) + "\n")
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    width = max(len(res.name) for res in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {res.number}  {res.name:<{width}}  {status}  {res.detail}")
    print()
    print("cps-vs-schubert discrepancies for d < g (g <= 10):")
    print("g d cps schubert")
    for g, d, a, b in closed_forms.CPS_VS_SCHUBERT_DISCREPANCIES:
        print(f"{g} {d} {a} {b}")
    if all(res.passed for res in results):
        print()
        print("all criteria passed")
        return 0
    print()
    print("FAILURES PRESENT")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tevdeg",
        description="Exact curve counts on low-degree hypersurfaces and "
        "projective spaces, by independent routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("p1", help="counts of maps to the projective line")
    p1.add_argument("--g", type=int, required=True)
    p1.add_argument("--d", type=int, required=True)
    p1.add_argument("--method", choices=("cps", "schubert", "both"), default="both")
    p1.add_argument("--json", action="store_true")
    p1.set_defaults(func=cmd_p1)

    hyp = sub.add_parser("hyp", help="counts of maps to a hypersurface")
    hyp.add_argument("--g", type=int, required=True)
    hyp.add_argument("--d", type=int, required=True)
    hyp.add_argument("--e", type=int, required=True)
    hyp.add_argument("--r", type=int, required=True)
    hyp.add_argument("--method", choices=("closed", "engine", "both"), default="both")
    hyp.add_argument("--json", action="store_true")
    hyp.set_defaults(func=cmd_hyp)

    ins = sub.add_parser("insert", help="cycle degrees with linear-space insertions")
    ins.add_argument("--g", type=int, required=True)
    ins.add_argument("--d", type=int, required=True)
    ins.add_argument("--e", type=int, required=True)
    ins.add_argument("--r", type=int, required=True)
    ins.add_argument("--ell", type=str, required=True,
                     help="comma-separated dimensions, e.g. 2,2,1")
    ins.add_argument("--method", choices=("closed", "engine", "both"), default="both")
    ins.add_argument("--json", action="store_true")
    ins.set_defaults(func=cmd_insert)

    alpha = sub.add_parser("alpha", help="per-point insertion multipliers")
    alpha.add_argument("--e", type=int, required=True)
    alpha.add_argument("--r", type=int, required=True)
    alpha.add_argument("--json", action="store_true")
    alpha.set_defaults(func=cmd_alpha)

    qh = sub.add_parser("qh", help="projective-space counts via the quantum ring")
    qh.add_argument("--g", type=int, required=True)
    qh.add_argument("--d", type=int, required=True)
    qh.add_argument("--r", type=int, required=True)
    qh.add_argument("--n", type=int, default=None,
                    help="override the point count (default: matching value)")
    qh.add_argument("--json", action="store_true")
    qh.set_defaults(func=cmd_qh)

    cert = sub.add_parser("certify", help="enumerativity certificate for a tuple")
    cert.add_argument("--g", type=int, required=True)
    cert.add_argument("--d", type=int, required=True)
    cert.add_argument("--e", type=int, required=True)
    cert.add_argument("--r", type=int, required=True)
    cert.add_argument("--json", action="store_true")
    cert.set_defaults(func=cmd_certify)

    sweep = sub.add_parser("sweep", help="tabulate a parameter grid")
    sweep.add_argument("--g", type=str, required=True, help="range, e.g. 0..3")
    sweep.add_argument("--d", type=str, required=True)
    sweep.add_argument("--e", type=str, required=True)
    sweep.add_argument("--r", type=str, required=True)
    sweep.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sweep.add_argument("--out", type=str, required=True)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most the CPU count")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        return args.func(args)
    except ParameterError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except InvariantBreach as ex:
        print(f"internal invariant breach: {ex}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
