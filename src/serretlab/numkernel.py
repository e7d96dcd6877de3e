"""Configurable-precision real arithmetic with explicit accuracy contracts.

Values are mpmath ``mpf`` numbers (arbitrary-precision binary floats,
immutable); a :class:`PrecisionContext` fixes how many decimal digits a
result must be good to.  Every public operation in this package does its
arithmetic inside ``ctx.workdps()``, so results carry ``GUARD_DIGITS``
more significant decimals, absorbed by intermediate rounding, and satisfy

    |computed - true| <= 10**(-digits) * max(1, |true|).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp

from .errors import ConfigurationError, DomainError

BigReal = mpmath.mpf

MIN_DIGITS = 15
MAX_DIGITS = 1000
GUARD_DIGITS = 15


@dataclass(frozen=True)
class PrecisionContext:
    """Requested decimal accuracy; arithmetic runs GUARD_DIGITS above it.

    Immutable and shareable; operations taking a context never mutate it.
    """

    digits: int

    def __post_init__(self):
        if not (MIN_DIGITS <= self.digits <= MAX_DIGITS):
            raise ConfigurationError(
                f"digits must be in [{MIN_DIGITS}, {MAX_DIGITS}], got {self.digits}")

    @property
    def working_digits(self) -> int:
        return self.digits + GUARD_DIGITS

    def workdps(self, extra: int = 0):
        """Context manager setting the ambient mpmath precision."""
        return mp.workdps(self.working_digits + extra)

    def bumped(self, extra_digits: int) -> "PrecisionContext":
        """A context asking for ``extra_digits`` more decimal digits."""
        return PrecisionContext(self.digits + extra_digits)


def make_context(digits: int) -> PrecisionContext:
    """Validate and build a :class:`PrecisionContext`."""
    if not isinstance(digits, int) or isinstance(digits, bool):
        raise ConfigurationError(f"digits must be an integer, got {digits!r}")
    return PrecisionContext(digits)


def as_real(x, ctx: PrecisionContext) -> BigReal:
    """Convert ``x`` (int, float, str, Fraction, mpf) to mpf.

    Converts at the context working precision or the ambient precision,
    whichever is higher: a caller already running extra-precise (e.g.
    quadrature internals) must not have its values rounded down, which
    would detach integration endpoints from integrand singularities.
    """
    with mp.workdps(max(mp.dps, ctx.working_digits)):
        if hasattr(x, "numerator") and hasattr(x, "denominator") and not isinstance(x, int):
            return mp.mpf(x.numerator) / x.denominator
        return mp.mpf(x)


def pi(ctx: PrecisionContext) -> BigReal:
    """pi to context accuracy."""
    with ctx.workdps():
        return +mp.pi


_UNARY = {"sqrt", "exp", "log", "sin", "cos"}
_BINARY = {"add", "sub", "mul", "div", "pow", "atan2"}
ELEMENTARY_OPS = sorted(_UNARY | _BINARY)


def elementary(op: str, *args, ctx: PrecisionContext) -> BigReal:
    """Apply one elementary operation under the context's accuracy contract.

    Domain rules: sqrt needs arg >= 0, log needs arg > 0, div a nonzero
    divisor; pow(x, p) needs x > 0 (any real p) or x = 0 with p > 0;
    atan2(y, x) rejects (0, 0).  There are no signed zeros or infinities:
    every domain violation raises :class:`DomainError`.
    """
    expected = 1 if op in _UNARY else 2 if op in _BINARY else None
    if expected is None:
        raise ConfigurationError(f"unknown elementary op {op!r}")
    if len(args) != expected:
        raise ConfigurationError(f"{op} takes {expected} argument(s), got {len(args)}")

    with ctx.workdps():
        vals = [as_real(a, ctx) for a in args]
        if op == "add":
            return vals[0] + vals[1]
        if op == "sub":
            return vals[0] - vals[1]
        if op == "mul":
            return vals[0] * vals[1]
        if op == "div":
            if vals[1] == 0:
                raise DomainError("division by zero")
            return vals[0] / vals[1]
        if op == "sqrt":
            if vals[0] < 0:
                raise DomainError(f"sqrt of negative value {vals[0]}")
            return mp.sqrt(vals[0])
        if op == "pow":
            x, p = vals
            if x < 0:
                raise DomainError(f"pow with negative base {x}")
            if x == 0:
                if p <= 0:
                    raise DomainError("pow(0, p) needs p > 0")
                return mp.mpf(0)
            return mp.power(x, p)
        if op == "exp":
            return mp.exp(vals[0])
        if op == "log":
            if vals[0] <= 0:
                raise DomainError(f"log of nonpositive value {vals[0]}")
            return mp.log(vals[0])
        if op == "sin":
            return mp.sin(vals[0])
        if op == "cos":
            return mp.cos(vals[0])
        if op == "atan2":
            y, x = vals
            if x == 0 and y == 0:
                raise DomainError("atan2(0, 0) is undefined")
            return mp.atan2(y, x)
    raise AssertionError("unreachable")


def to_decimal(x, ctx: PrecisionContext) -> str:
    """Serialize with exactly ``ctx.digits`` significant decimal digits.

    Format: optional sign, integer part, '.', fractional part, optional
    'e'[+-]exponent.  Round-trips through :func:`from_decimal` with an
    error of at most one unit in the last emitted digit.
    """
    with ctx.workdps():
        v = as_real(x, ctx)
        if v == 0:
            return "0." + "0" * (ctx.digits - 1)
        return mpmath.nstr(v, ctx.digits, strip_zeros=False)


def from_decimal(s: str, ctx: PrecisionContext) -> BigReal:
    """Parse a decimal serialization at working precision."""
    with ctx.workdps():
        try:
            return mp.mpf(s.strip())
        except Exception as exc:
            raise ConfigurationError(f"not a decimal literal: {s!r}") from exc
