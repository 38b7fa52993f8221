"""Exception types shared by all routes, and ``int_str`` for their messages.

Two failure modes are kept strictly apart:

* ``ParameterError`` -- the caller asked for something outside the model
  (non-integral point count, unstable (g, n), degree too small, ...).
  The CLI maps this to exit status 2.

* ``InvariantBreach`` -- the inputs were valid but an internal consistency
  check failed (a final value that should be an integer is not, a required
  divisibility fails, a class has support outside its proven degree window).
  This signals a bug, never bad input.  The CLI maps it to exit status 3.
"""


class ParameterError(ValueError):
    """Rejected input: the requested parameters violate a validity condition."""


class InvariantBreach(RuntimeError):
    """Internal consistency check failed on valid input."""


# Bits past which ``split_str`` beats ``str`` (quadratic in the digits):
# they cross at about 19,000 digits on CPython 3.11, x86-64.
SPLIT_BITS = 1 << 16


def int_str(v: int) -> str:
    """``str(v)`` for an int of any size.

    An int of more than ``SPLIT_BITS`` bits (about 19,700 digits) goes
    straight to ``split_str``, whatever the digit limit: with the limit
    off, ``str`` would take quadratic time.  ``str`` also refuses ints past
    the process-wide digit limit (4300 by default), so a smaller int past
    a lower limit goes through ``split_str`` too; the limit is left alone.
    """
    if v.bit_length() > SPLIT_BITS:
        return split_str(v)
    try:
        return str(v)
    except ValueError:
        return split_str(v)


def split_str(v: int) -> str:
    """Decimal digits of ``v``, by binary splitting as in CPython 3.12's _pylong.

    n = hi * 2^w + lo is split down to 128-bit pieces, which are joined
    back in ``decimal`` at ``MAX_PREC`` with ``Inexact`` trapped: exact, and
    in subquadratic time, unlike ``str``.

    ``decimal`` is imported here, on the first call: only an int past the
    digit limit or ``SPLIT_BITS`` gets this far, so no query with a count
    of ordinary size loads it.
    """
    import decimal

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
