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

from .errors import ConfigurationError

BigReal = mpmath.mpf

MIN_DIGITS = 15
MAX_DIGITS = 1000
GUARD_DIGITS = 15


@dataclass(frozen=True)
class PrecisionContext:
    """Requested decimal accuracy; arithmetic runs GUARD_DIGITS above it.

    Immutable and shareable; operations taking a context never mutate it.
    :func:`make_context` bounds the digits a caller asks for; internal
    contexts from :meth:`bumped` may go past ``MAX_DIGITS``.
    """

    digits: int

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
    if not MIN_DIGITS <= digits <= MAX_DIGITS:
        raise ConfigurationError(f"digits must be in [{MIN_DIGITS}, {MAX_DIGITS}], got {digits}")
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
    """Parse a decimal serialization at working precision.  Underscores
    group digits (mpmath alone misplaces the point after one in the
    fraction); non-finite values (nan, inf) are not decimal literals."""
    with ctx.workdps():
        try:
            v = mp.mpf(s.strip().replace("_", ""))
        except Exception as exc:
            raise ConfigurationError(f"not a decimal literal: {s!r}") from exc
    if not mp.isfinite(v):
        raise ConfigurationError(f"not a decimal literal: {s!r}")
    return v
