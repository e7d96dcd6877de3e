"""Tanh-sinh (double-exponential) quadrature on finite intervals.

The substitution x = tanh((pi/2) sinh t) clusters nodes doubly
exponentially at the endpoints, so integrands with algebraic endpoint
singularities of exponent > -1 converge at full precision without any
change of variables.  Refinement halves the step h per level, reusing
all previous nodes.

Abscissas are generated as offsets from the nearest endpoint,
delta(t) = 1 - tanh((pi/2) sinh t) = 2/(exp(2u) + 1), clipped at
10**(-clip) where clip grows with the worst endpoint exponent alpha
(about working_digits/(1+alpha); twice the working digits for the
default alpha = -1/2 -- a clip at only 10**-(digits+guard) would leave
a truncated tail of its square root, far above the target).  The
integrand is evaluated at clip + 40 decimal digits so an offset never
rounds onto the endpoint itself, and f is never called at a or b.
Integration limits must be supplied at (at least) that same precision
whenever a singularity of f sits exactly at the limit; conversions
here never round an incoming mpf down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from mpmath import mp

from .errors import ConvergenceError, DomainError, IntegrandError
from .numkernel import BigReal, PrecisionContext, as_real

DEFAULT_MAX_LEVEL = 12
DEFAULT_ENDPOINT_EXPONENT = -0.5
# decimal places evaluated beyond the node cutoff 10**-clip_exponent
_EVAL_MARGIN = 40


def _clip_exponent(ctx: PrecisionContext, alpha: float) -> int:
    """Node offsets stop at 10**-clip_exponent.

    An endpoint singularity x^alpha contributes ~ offset^(1+alpha) per
    node near the cutoff, so pushing the truncated tail below the
    convergence target needs clip_exponent ~ digits/(1+alpha); exponent
    -1/2 gives the familiar doubled depth.
    """
    if not -1 < alpha:
        raise DomainError(f"endpoint exponent must be > -1, got {alpha}")
    needed = (ctx.working_digits + 10) / (1 + float(alpha)) if alpha < 0 else 0
    return max(2 * ctx.working_digits, int(needed) + 1)


def _internal_dps(ctx: PrecisionContext, clip_exponent: int = None) -> int:
    if clip_exponent is None:
        clip_exponent = 2 * ctx.working_digits
    return clip_exponent + _EVAL_MARGIN


@lru_cache(maxsize=None)
def _nodes(clip_exponent: int, level: int) -> tuple:
    """Positive-t nodes introduced at ``level`` (h = 2**-level).

    Level 0 holds all integer abscissas including t = 0; level k > 0
    holds the odd multiples of 2**-k.  Each entry is (delta, w) with
    delta the distance of the abscissa from +1 and w the pure transform
    weight (pi/2) cosh(t) sech((pi/2) sinh t)**2, h excluded.  The
    table depends on clip_exponent and level only, so it is cached on them.
    """
    with mp.workdps(clip_exponent + _EVAL_MARGIN):
        clip = mp.mpf(10) ** (-clip_exponent)
        u_max = (clip_exponent * mp.log(10) + mp.log(2)) / 2
        t_max = mp.asinh(2 * u_max / mp.pi)
        h = mp.mpf(2) ** (-level)
        if level == 0:
            js = range(0, int(mp.floor(t_max)) + 1)
        else:
            js = range(1, int(mp.floor(t_max / h)) + 1, 2)
        out = []
        half_pi = mp.pi / 2
        for j in js:
            t = j * h
            u = half_pi * mp.sinh(t)
            e = mp.exp(-2 * u)
            delta = 2 * e / (1 + e)
            if delta < clip:
                break
            w = half_pi * mp.cosh(t) * 4 * e / (1 + e) ** 2
            out.append((delta, w))
    return tuple(out)


@dataclass(frozen=True)
class QuadratureResult:
    value: BigReal
    error_estimate: BigReal
    levels_used: int


def tanh_sinh(f: Callable[[BigReal], BigReal], a, b, ctx: PrecisionContext,
              max_level: int = DEFAULT_MAX_LEVEL,
              min_endpoint_exponent: float = DEFAULT_ENDPOINT_EXPONENT) -> QuadratureResult:
    """Integrate f over (a, b) to context accuracy.

    Stops when two consecutive refinement levels agree to
    10**(-digits-3) relative to max(1, |integral|); raises
    :class:`ConvergenceError` carrying the best estimate if ``max_level``
    is reached first.  f is never evaluated at a or b.

    ``min_endpoint_exponent`` is the worst algebraic endpoint exponent
    of f (must be > -1); exponents below the default -1/2 deepen the
    node cutoff so the truncated tail stays below the target.
    """
    clip_exp = _clip_exponent(ctx, min_endpoint_exponent)
    with mp.workdps(_internal_dps(ctx, clip_exp)):
        a = as_real(a, ctx)
        b = as_real(b, ctx)
        if not a < b:
            raise DomainError(f"need a < b, got a={a}, b={b}")
        hw = (b - a) / 2
        target = mp.mpf(10) ** (-ctx.digits - 3)
        floor = mp.mpf(10) ** (-ctx.working_digits)

        def eval_at(delta, from_b):
            x = b - hw * delta if from_b else a + hw * delta
            try:
                fx = f(x)
            except ZeroDivisionError as exc:
                raise IntegrandError(f"integrand not evaluable at x={x}") from exc
            if isinstance(fx, mp.mpc) or not mp.isfinite(fx):
                raise IntegrandError(f"integrand not finite and real at x={x}")
            return fx

        total = mp.mpf(0)     # sum of w*f over all nodes seen so far
        value = prev = None
        err = None
        for level in range(0, max_level + 1):
            for delta, w in _nodes(clip_exp, level):
                total += w * eval_at(delta, True)
                if delta != 1:  # t = 0 is its own mirror image
                    total += w * eval_at(delta, False)
            value = hw * total * mp.mpf(2) ** (-level)
            if prev is not None:
                err = abs(value - prev)
                scale = max(mp.mpf(1), abs(value))
                if level >= 2 and err <= target * scale:
                    return QuadratureResult(value, max(err, floor * scale), level)
            prev = value
        raise ConvergenceError(
            f"tanh-sinh did not converge by level {max_level}",
            best=QuadratureResult(value, err, max_level))


def beta_integral_check(n: int, i: int, ctx: PrecisionContext) -> BigReal:
    """|quadrature - closed form| for int_0^1 s^i (1-s^(2n))^(-1/2) ds.

    The closed form is B(1/2, (i+1)/(2n)) / (2n).  The discrepancy must
    be at most 10**(-digits+5).
    """
    from .specfun import beta

    if n < 1 or not (0 <= i <= n - 1):
        raise DomainError(f"need n >= 1 and 0 <= i <= n-1, got n={n}, i={i}")
    with ctx.workdps():
        def f(s):
            return s ** i / mp.sqrt(1 - s ** (2 * n))

        q = tanh_sinh(f, 0, 1, ctx).value
        closed = beta(mp.mpf(1) / 2, mp.mpf(i + 1) / (2 * n), ctx) / (2 * n)
        return abs(q - closed)
