"""Command-line interface: one verb per computation route, plus harness verbs.

Exit status is 0 on success (disagreement between routes is data, not an
error), 2 on invalid input, 3 on an internal invariant breach.  All output
is deterministic: identical invocations produce identical bytes, big
integers are printed as decimal strings, and no floating point appears
anywhere.  A query verb, or help, whose stdout cannot be written exits 2
with one ``error: cannot write stdout: ...`` line.

Every ``--json`` line and ``jsonl`` row is in ``json.dumps``' layout, and
no verb imports ``json``: ``_json`` writes most of them, but ``_report``
writes its results, and ``cmd_alpha`` its whole line, by hand, for speed.
Routes that agree share one formatted value, in ``_report`` as in a
sweep row.  A ``sweep`` record is a dict whose keys are ``SWEEP_COLUMNS``, in order,
so ``_csv_line`` writes a CSV row straight from its values, with no lookup
per column.  A valid row's two routes agree, and the record formats that
value once.

A ``sweep --jobs`` worker sends the finished text of its chunks' rows and
stops at its first failure of any kind; the calling process makes every
chunk whose text does not arrive, with the loop that makes its own.  The
rows are deterministic, so a failure recurs there at the serial row, and
the file, exit status and stderr are those of a serial sweep.

An ``insert`` profile has many marks and few distinct dimensions, and a
query walks its marks in six C-level passes and no Python loop:
``parse_ell`` splits the text, builds the table of distinct tokens and
their ints, and ``cmd_insert`` reads the int tuple from it; ``HypParams``
and the closed form each group the marks once with a ``Counter``, and
their gate and their product read that grouping, one power per
dimension; and the ``ell`` echo is joined from the tokens, a token whose
text is not its int's going through that int's text.

``VERBS`` declares each verb and its flags once, and both ``build_parser``
and ``_read_plain`` read it.  ``main`` reads plain argv (see ``_read_plain``)
in one pass, in a few microseconds where argparse takes tens, into a
``SimpleNamespace`` with the attributes argparse would give.  Every other
argv goes to argparse, which alone decides: help and ``--``,
``--flag=value``, abbreviations, unknown, repeated or missing flags, values
starting with "-" and values a flag refuses.  So argparse writes every
help, usage and error message.

The parser is built once per process, for the first argv the plain reader
leaves to argparse, and then shared: importing ``argparse`` and building
the parser cost more than most queries.  ``parse_args`` builds a fresh
``Namespace`` for each call and never changes the parser, and the help
formatter, with it ``COLUMNS``, is read each time help or usage is
formatted.  ``VERBS`` binds the ``cmd_*``
functions at import, and nothing rebinds them; what callers rebind
(``main``, ``certify_enumerative``, ``sweep_record``) the verbs look up at
call time.

A verb loads only the modules it runs, each imported where it is first
needed, so ``import tevdeg.cli`` loads none of them: ``build_parser``
imports ``argparse`` (and with it ``gettext``), for help and every argv
that is not plain; ``enum_bound_closed`` imports ``fractions`` when it
builds a bound, which ``hyp``, ``certify`` and ``sweep`` do at g >= 1
where the bound applies; ``split_str`` imports ``decimal``, for an int
past the int/str digit limit or 2^16 bits; ``verify`` imports ``acceptance``; and
``sweep`` imports ``signal``.  So a plain ``p1``, ``qh``, ``insert`` or
``alpha`` query, and ``hyp`` or ``certify`` at g = 0, loads none of them.
``marshal``, which a ``sweep --jobs`` pipe carries its rows in, is imported
at the top: the interpreter has loaded it before any module runs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import marshal
import os
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import closed_forms, engine, enumerativity, quantum, schubert
from .enumerativity import certify_enumerative
from .errors import InvariantBreach, ParameterError, int_str


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


def parse_ell(text: str) -> tuple[list[str], dict[str, int]]:
    """The tokens of a comma-separated insertion profile, and each distinct
    token's int: the profile is ``tuple(map(table.__getitem__, tokens))``.

    A profile has many marks and few distinct dimensions, so each distinct
    token is converted once.  ``dict.fromkeys`` keeps first-seen order, so
    the first token to fail is the first bad token in the list, and the
    error text is that of ``tuple(map(int, text.split(",")))``.
    """
    tokens = text.split(",")
    try:
        table = {tok: int(tok) for tok in dict.fromkeys(tokens)}
    except ValueError as ex:
        raise ParameterError(f"bad insertion list {text!r}: {ex}") from None
    return tokens, table


def _print(*values, end: str = "\n", flush: bool = False) -> None:
    """``print`` to stdout, where an OSError is bad output (exit 2).

    Only stdout is mapped so: an OSError from ``os.fork`` or ``os.pipe`` in
    ``sweep --jobs`` stays a fault.
    """
    try:
        print(*values, end=end, flush=flush)
    except OSError as ex:
        raise ParameterError(f"cannot write stdout: {ex}") from ex


class _Verbatim(str):
    """Text already in ``json.dumps``' layout, which ``_json`` writes as it is."""


def _json(v) -> str:
    """``v`` as ``json.dumps`` writes it: None, a bool, an int, a str, a
    dict of those, or a ``_Verbatim`` text.  The text forms write params
    and flags so too.

    Every int is written by ``int_str``, so one past the digit limit, which
    ``str`` refuses, is written too.  A str is written unescaped: every one
    the verbs and the sweep rows write is a key, a method name, decimal
    digits, "all d" or a certify reason, which is one of enumerativity's
    fixed ASCII texts with ints in decimal, so none holds a character that
    ``json.dumps`` escapes.

    The only list any verb writes is the insertion profile in ``params``,
    and ``cmd_insert`` joins it from the profile's tokens as a
    ``_Verbatim``.
    """
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int_str(v)
    if type(v) is str:
        return f'"{v}"'
    if isinstance(v, dict):
        return "{" + ", ".join([f'"{k}": {_json(x)}' for k, x in v.items()]) + "}"
    return v


def _report(args, params: dict, flags: dict, **routes) -> int:
    """Run the routes ``--method`` selects, print their values, and return 0.

    Each route is a thunk named by its method, so only the selected ones
    run, in the order given: all of them for "both", or for a verb with no
    ``--method``.  The text form is a params line, a line per route, the
    agreement line when more than one ran, and a line per flag; ``--json``
    gives one object of the same in ``json.dumps``' layout, its values
    written by ``_json``.  When the routes agree, their value is formatted
    once.
    """
    names = routes if getattr(args, "method", "both") == "both" else (args.method,)
    results = [(name, routes[name]()) for name in names]
    agreement = len({v for _, v in results}) <= 1
    # Routes that agree share one text, so a big count is formatted once.
    # No text is empty, so "text or" formats a value only on disagreement.
    text = int_str(results[0][1]) if agreement else None
    if args.json:
        # The results are formatted here: building them as dicts for _json
        # took about 5 microseconds more per call.
        values = ", ".join([f'{{"method": "{m}", "value": "{text or int_str(v)}"}}'
                            for m, v in results])
        _print(f'{{"params": {_json(params)}, "results": [{values}], '
               f'"agreement": {_json(agreement)}, "flags": {_json(flags)}}}')
        return 0
    _print(" ".join(f"{k}={_json(v)}" for k, v in params.items()))
    for method, value in results:
        _print(f"{method:<10} {text or int_str(value)}")
    if len(results) > 1:
        _print(f"agreement  {_json(agreement)}")
    for k, v in flags.items():
        _print(f"{k:<14} {_json(v)}")
    return 0


def cmd_p1(args) -> int:
    g, d = args.g, args.d
    n = enumerativity.projective_dims_check(g, d, 1)
    return _report(args, {"g": g, "d": d, "n": n}, {},
                   cps=lambda: closed_forms.tev_p1_cps(g, d),
                   schubert=lambda: schubert.tev_p1_schubert(g, d))


def _hyp_flags(rep) -> dict:
    """The validity flags of a hypersurface count, all from its certificate.

    ``virtual_range`` is 2e <= r + 3, the range in which the closed form is
    proved as a virtual count.  For g >= 1, ``bound_ok`` and ``certified``
    are one condition, not two pieces of evidence: ``certified`` is
    ``bound_ok`` and n >= 2g, which gives d >= 2g (see ``certify_enumerative``).
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
    flags = _hyp_flags(certify_enumerative(g, d, e, r))
    return _report(args, {"g": g, "d": d, "e": e, "r": r, "n": p.n}, flags,
                   closed=lambda: closed_forms.vtev_hypersurface_closed(g, d, e, r),
                   engine=lambda: engine.tev_hypersurface_engine(p))


def cmd_insert(args) -> int:
    g, d, e, r = args.g, args.d, args.e, args.r
    tokens, table = parse_ell(args.ell)
    ell = tuple(map(table.__getitem__, tokens))
    p = engine.HypParams(g, d, e, r, ell)
    # The echo is joined from the tokens, each written as its int: a token
    # int() reads but does not write back, such as "01", "+1" or " 1",
    # goes through its int's text.
    texts = {tok: int_str(v) for tok, v in table.items()}
    if any(tok != text for tok, text in texts.items()):
        tokens = map(texts.__getitem__, tokens)
    echo = _Verbatim("[" + ", ".join(tokens) + "]")
    params = {"g": g, "d": d, "e": e, "r": r, "n": p.n, "ell": echo}
    return _report(args, params, {},
                   closed=lambda: closed_forms.deg_T_insertions_closed(g, d, e, r, ell),
                   engine=lambda: engine.deg_T(p))


def cmd_alpha(args) -> int:
    al = closed_forms.alpha_coefficients(args.e, args.r)
    if args.json:
        values = ", ".join([f'"{int_str(v)}"' for v in al])
        _print(f'{{"e": {int_str(args.e)}, "r": {int_str(args.r)}, "alpha": [{values}]}}')
    else:
        _print("\n".join(f"alpha_{i} {int_str(v)}" for i, v in enumerate(al, start=1)))
    return 0


def cmd_qh(args) -> int:
    g, d, r = args.g, args.d, args.r
    n = enumerativity.projective_dims_check(g, d, r) if args.n is None else args.n
    return _report(args, {"g": g, "d": d, "r": r, "n": n}, {},
                   quantum=lambda: quantum.vtev_projective_qh(g, d, r, n))


def cmd_certify(args) -> int:
    rep = certify_enumerative(args.g, args.d, args.e, args.r)
    if rep.closed_bound is None:
        bound_text = "all d" if rep.bound_applicable else None
    else:
        # str(Fraction) past the digit limit raises, as str(int) does.
        bound = rep.closed_bound
        bound_text = int_str(bound.numerator)
        if bound.denominator != 1:
            bound_text += "/" + int_str(bound.denominator)
    witness = None
    if rep.witness is not None:
        s = rep.witness.stratum
        witness = {"b0": s.b0, "b1": s.b1, "b2": s.b2}
    if args.json:
        _print(_json({
            "params": {"g": rep.g, "d": rep.d, "e": rep.e, "r": rep.r, "n": rep.n},
            "certified": rep.certified,
            "reason": rep.reason,
            "witness": witness,
            "closed_bound": bound_text,
            "bound_applicable": rep.bound_applicable,
            "bound_satisfied": rep.bound_satisfied,
            "audit_sharper": rep.audit_sharper,
            "strata_checked": rep.strata_checked,
        }))
    else:
        _print(f"g={rep.g} d={rep.d} e={rep.e} r={rep.r} n={rep.n}")
        _print(f"certified      {str(rep.certified).lower()}")
        _print(f"reason         {rep.reason}")
        if witness is not None:
            _print(f"witness        b0={witness['b0']} b1={witness['b1']} b2={witness['b2']}")
        _print(f"closed_bound   {bound_text if bound_text is not None else 'n/a'}")
        _print(f"audit_sharper  {str(rep.audit_sharper).lower()}")
        _print(f"strata_checked {int_str(rep.strata_checked)}")
    return 0


SWEEP_COLUMNS = (
    "g", "d", "e", "r", "n", "t", "value_closed", "value_engine",
    "agreement", "virtual_range", "bound_ok", "certified",
)


def sweep_record(g: int, d: int, e: int, r: int) -> dict | None:
    """One sweep row, or None when the tuple is invalid.

    ``HypParams.standard``'s gate alone decides: any tuple it refuses gives
    None.  ``cmd_sweep`` calls this only on the tuples of its box whose n
    is an integer.
    """
    try:
        p = engine.HypParams.standard(g, d, e, r)
    except ParameterError:
        return None
    closed = closed_forms.vtev_hypersurface_closed(g, d, e, r)
    value_engine = engine.tev_hypersurface_engine(p)
    agreement = closed == value_engine
    # The routes agree on every valid row, so the value is formatted once.
    closed_text = int_str(closed)
    return {
        "g": g, "d": d, "e": e, "r": r, "n": p.n, "t": p.t,
        "value_closed": closed_text,
        "value_engine": closed_text if agreement else int_str(value_engine),
        "agreement": agreement,
        **_hyp_flags(certify_enumerative(g, d, e, r)),
    }


# A bool indexes the pair: False is 0 and True is 1.
_BOOL_TEXT = ("false", "true")


def _csv_line(rec: dict) -> str:
    """A sweep record as one CSV line, its cells in ``SWEEP_COLUMNS`` order.

    The record's values come in that order: six ints, written as digits,
    the two values as decimal strings, and four bools, written ``true`` or
    ``false``.  No cell needs quoting.
    """
    g, d, e, r, n, t, closed, value_engine, agree, virtual, bound_ok, certified = \
        rec.values()
    tf = _BOOL_TEXT
    return (f"{g},{d},{e},{r},{n},{t},{closed},{value_engine},"
            f"{tf[agree]},{tf[virtual]},{tf[bound_ok]},{tf[certified]}\n")


SWEEP_CHUNK = 64    # integral tuples per unit of --jobs work


def _chunks(tuples):
    while chunk := list(itertools.islice(tuples, SWEEP_CHUNK)):
        yield chunk


def _rows(chunk, write):
    """The text of each valid row of ``chunk``, as ``write`` formats its record.
    A chunk of ``cmd_sweep`` holds only tuples whose n is an integer.

    ``sweep_record`` is looked up at each call, so rebinding it before a
    sweep starts reaches every row, a worker's too.
    """
    for tup in chunk:
        rec = sweep_record(*tup)
        if rec is not None:
            yield write(rec)


# The exceptions ``main`` maps to an exit status, with the status and the
# stderr line, formatted with the exception.
EXIT_STATUS = {
    ParameterError: (2, "error: {}"),
    InvariantBreach: (3, "internal invariant breach: {}"),
    MemoryError: (2, "error: out of memory: the parameters are too large"),
    OverflowError: (2, "error: the parameters are too large: {}"),
}


def _sweep_worker(tuples, k, jobs, write, wfd, read_fds):
    """Send the text of chunks k, k + jobs, ... down ``wfd``, one ``marshal``
    dump per chunk, and stop at the first failure of any kind.

    The caller makes each chunk whose message does not arrive whole.  A
    worker closes the pipe ends ``read_fds`` it inherited, and never
    returns: ``os._exit`` skips the buffers and exit hooks it inherited too,
    such as those of ``--out`` and stdout.
    """
    try:
        for fd in read_fds:
            os.close(fd)
        with open(wfd, "wb") as pipe:
            for chunk in itertools.islice(_chunks(tuples), k, None, jobs):
                marshal.dump("".join(_rows(chunk, write)), pipe)
                pipe.flush()
    finally:
        os._exit(0)


def _sweep_rows(tuples, jobs, write):
    """The text of each valid row of ``tuples``, in order, as ``write``
    formats its record.  ``cmd_sweep`` passes only the tuples whose n is an
    integer, so a chunk is 64 of those.

    Lazy on both sides: tuples are read and rows made as the caller
    consumes them.  Process k of 0 .. jobs-1 (this one is k = 0) makes the
    64-tuple chunks i with i = k mod jobs, each on its own copy of
    ``tuples``; the jobs - 1 forked workers send the text of theirs down a
    pipe, and block when it is full.  A chunk whose text does not arrive
    whole, because its worker failed or died, is made here, and so is every
    later chunk of that worker.  Every worker is killed and reaped on the
    way out, whatever the way.  The program starts no threads, so a forked
    worker inherits no lock held by another thread.
    """
    import signal

    pipes, pids = [], []
    try:
        for k in range(1, jobs):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _sweep_worker(tuples, k, jobs, write, wfd,
                              [rfd, *(p.fileno() for p in pipes)])
            os.close(wfd)
            pids.append(pid)
            pipes.append(open(rfd, "rb"))
        for i, chunk in enumerate(_chunks(tuples)):
            k = i % jobs
            if k and not pipes[k - 1].closed:
                try:
                    text = marshal.load(pipes[k - 1])
                except EOFError:    # an end or a torn message: worker k has stopped
                    pipes[k - 1].close()
                else:
                    yield text
                    continue
            yield from _rows(chunk, write)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class _SweepOut(io.TextIOWrapper):
    """The ``--out`` file.  An OSError from writing or closing it exits 2,
    while one from starting or reading a worker stays a fault."""

    def write(self, text):
        try:
            return super().write(text)
        except OSError as ex:
            raise ParameterError(f"cannot write {self.name}: {ex}") from ex

    def close(self):
        try:
            super().close()
        except OSError as ex:
            raise ParameterError(f"cannot write {self.name}: {ex}") from ex


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    es, rs, gs, ds = [parse_range(text) for text in (args.e, args.r, args.g, args.d)]
    rs = enumerativity.gated_dims(rs)
    # Only the tuples whose n is an integer, in box order: each (e, r) reads
    # its d once from enumerativity, and one with none skips the g loop.
    # Nested loops, not itertools.product, which would first copy each
    # range into a tuple.
    chain, integral_degrees = itertools.chain, enumerativity.integral_degrees
    tuples = ((g, d, e, r) for e in chain(*es) for r in chain(*rs)
              for dr in ([integral_degrees(e, r, part) for part in ds],) if any(dr)
              for g in chain(*gs) for d in chain(*dr))

    try:
        out = _SweepOut(open(args.out, "wb"), encoding="utf-8", newline="")
    except OSError as ex:
        raise ParameterError(f"cannot write {args.out}: {ex}") from ex
    jobs = min(args.jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    as_csv = args.format == "csv"
    write = _csv_line if as_csv else (lambda rec: _json(rec) + "\n")
    # Leaving the block reaps the workers before it closes the file.
    with out, contextlib.closing(_sweep_rows(tuples, jobs, write)) as rows:
        if as_csv:
            out.write(",".join(SWEEP_COLUMNS) + "\n")
        # Rows are written as they come, so a breach leaves a prefix behind.
        out.writelines(rows)
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    width = max(len(res.name) for res in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        _print(f"criterion {res.number}  {res.name:<{width}}  {status}  {res.detail}")
    if all(res.passed for res in results):
        _print()
        _print("all criteria passed")
        return 0
    _print()
    _print("FAILURES PRESENT")
    return 1


# The default of a flag that must be given.  Only an argv that gives the
# flag is read, so no namespace that a verb sees holds it.
REQUIRED = object()


class Flag(NamedTuple):
    """A verb's ``--name`` flag: ``type`` converts its value, and a bare
    ``bool`` marks a store_true flag, which takes none."""

    name: str
    type: type = int
    default: object = REQUIRED
    choices: tuple | None = None
    help: str | None = None


def _ints(*names: str) -> tuple[Flag, ...]:
    return tuple(Flag(name) for name in names)


def _method(*routes: str) -> Flag:
    return Flag("method", str, "both", (*routes, "both"))


JSON = Flag("json", bool, False)

# Every verb, in --help order: its help, the cmd_* function that runs it and
# its flags in usage order.  The one declaration that build_parser and
# _read_plain both read.
VERBS = {
    "p1": ("counts of maps to the projective line", cmd_p1,
           (*_ints("g", "d"), _method("cps", "schubert"), JSON)),
    "hyp": ("counts of maps to a hypersurface", cmd_hyp,
            (*_ints("g", "d", "e", "r"), _method("closed", "engine"), JSON)),
    "insert": ("cycle degrees with linear-space insertions", cmd_insert,
               (*_ints("g", "d", "e", "r"),
                Flag("ell", str, help="comma-separated dimensions, e.g. 2,2,1"),
                _method("closed", "engine"), JSON)),
    "alpha": ("per-point insertion multipliers", cmd_alpha, (*_ints("e", "r"), JSON)),
    "qh": ("projective-space counts via the quantum ring", cmd_qh,
           (*_ints("g", "d", "r"),
            Flag("n", int, None, help="override the point count (default: matching value)"),
            JSON)),
    "certify": ("enumerativity certificate for a tuple", cmd_certify,
                (*_ints("g", "d", "e", "r"), JSON)),
    "sweep": ("tabulate a parameter grid", cmd_sweep,
              (Flag("g", str, help="range, e.g. 0..3"), Flag("d", str), Flag("e", str),
               Flag("r", str), Flag("format", str, "csv", ("csv", "jsonl")), Flag("out", str),
               Flag("jobs", int, 1, help="worker processes, at most the CPU count"))),
    "verify": ("run the acceptance suite", cmd_verify, ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb in ``VERBS``, built on the first call and then shared.

    ``argparse``, and with it ``gettext``, is imported here, so only help
    and an argv that is not plain load it.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Help on stdout is output: an OSError writing it exits 2, as for a verb.

        argparse's own ``print_help`` ignores that error.  Subparsers take the
        class of their parent, so verb help goes through here too.
        """

        def print_help(self, file=None) -> None:
            if file is None:
                _print(self.format_help(), end="")
            else:
                super().print_help(file)

    parser = _Parser(
        prog="tevdeg",
        description="Exact curve counts on low-degree hypersurfaces and "
        "projective spaces, by independent routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, flags) in VERBS.items():
        verb_parser = sub.add_parser(name, help=summary)
        for flag in flags:
            kind = ({"action": "store_true"} if flag.type is bool else
                    {"type": flag.type, "choices": flag.choices,
                     "required": flag.default is REQUIRED})
            verb_parser.add_argument(f"--{flag.name}", default=flag.default,
                                     help=flag.help, **kind)
        verb_parser.set_defaults(func=func)
    return parser


# Verb -> (option string -> flag, the namespace argparse starts the verb
# with): what _read_plain reads per call.
_PLAIN = {name: ({f"--{flag.name}": flag for flag in flags},
                 {"command": name, "func": func, **{flag.name: flag.default for flag in flags}})
          for name, (_, func, flags) in VERBS.items()}


def _read_plain(argv) -> SimpleNamespace | None:
    """The attributes of ``build_parser().parse_args(argv)``, for plain argv.

    Plain argv is a verb, then each of its flags at most once, exactly as
    declared: ``--flag value`` with a value that does not start with "-",
    converts by the flag's type and lies in its choices, or a bare
    store_true flag; and every required flag given.  The namespace is a
    ``SimpleNamespace``, so plain argv does not load ``argparse``.  For any
    other argv, help included, this returns None and argparse decides.
    """
    if not argv or argv[0] not in _PLAIN:
        return None
    flags, defaults = _PLAIN[argv[0]]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = flags.get(token)
        if flag is None or flag.name in values:
            return None
        if flag.type is bool:
            values[flag.name] = True
            continue
        text = next(tokens, "-")    # a missing value is refused, as "-" is
        if text.startswith("-"):
            return None
        try:
            values[flag.name] = value = flag.type(text)
        except ValueError:
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
    args = SimpleNamespace()
    vars(args).update(defaults, **values)
    return None if REQUIRED in vars(args).values() else args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _read_plain(argv) or build_parser().parse_args(argv)
        except SystemExit as ex:
            # Help and usage errors exit from inside argparse.
            code = int(ex.code or 0)
        else:
            code = args.func(args)
        # A full device may fail only at the flush, after the last print.
        _print(end="", flush=True)
        return code
    except tuple(EXIT_STATUS) as ex:
        status, message = next(v for cls, v in EXIT_STATUS.items() if isinstance(ex, cls))
        print(message.format(ex), file=sys.stderr)
        return status


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has already returned 2.  Python flushes stdout once more on
        # exit, so point it at os.devnull, or that flush would fail into
        # exit status 120.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
