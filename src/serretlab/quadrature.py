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
a truncated tail of its square root, far above the target).

Nodes that close to an endpoint round onto it at any affordable
precision, so the integrand is never given x alone: it receives one
node ``(x, da, db)`` with da = x - a and db = b - x formed from the
offset without cancellation (hw*delta on the near side, 2hw - hw*delta
on the far one), and builds its singular factor from those distances
(Bailey, Jeyabalan and Li, Experimental Math. 14 (2005)).  Offsets and
weights need relative precision only, so the node tables and every
evaluation run at working_digits + 20 places, and f is never called at
a or b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from mpmath import mp

from .errors import ConvergenceError, DomainError, IntegrandError
from .numkernel import BigReal, PrecisionContext, as_real

DEFAULT_MAX_LEVEL = 12
DEFAULT_ENDPOINT_EXPONENT = -0.5
MAX_NODE_TABLES = 128  # 1.8x the 71 node tables a whole `lengths` benchmark run holds
# decimal places evaluated beyond the working digits
_EVAL_MARGIN = 20
# below this distance u from a singular endpoint, 1 - (1-u)^p is summed as a
# series in u; above it the plain power loses fewer than 15 of the
# _EVAL_MARGIN spare digits
_CANCELLATION_FLOOR = mp.mpf("1e-15")

# an integrand receives one node (x, da, db) with da = x - a, db = b - x
Integrand = Callable[[tuple], BigReal]


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


def _rational_power(x, p: Fraction) -> BigReal:
    """x^p for x >= 0 and p = m/n > 0: an integer root and an integer power,
    several times cheaper than exp(p log x)."""
    root = x if p.denominator == 1 else mp.root(x, p.denominator)
    return root ** p.numerator


def _one_minus_power(u, p: Fraction) -> BigReal:
    """1 - (1 - u)^p = -expm1(p log1p(-u)) for 0 < u <= 1 and p > 0, without
    cancellation as u -> 0.

    Below _CANCELLATION_FLOOR it is the binomial series sum_{j>=1} c_j u^j,
    c_1 = p, c_{j+1} = c_j (j - p)/(j + 1): each term is below 1e-15
    |j - p|/(j + 1) times the one before, so the sum takes a few
    multiplications (none past j = p for integer p), several times cheaper
    than the logarithm and exponential.
    """
    if u >= _CANCELLATION_FLOOR:
        return 1 - _rational_power(1 - u, p)
    p = mp.mpf(p.numerator) / p.denominator
    term = total = p * u
    tol = abs(total) * mp.eps / 2
    j = 1
    while abs(term) > tol:
        term = term * (j - p) * u / (j + 1)
        total += term
        j += 1
    return total


@lru_cache(maxsize=MAX_NODE_TABLES)
def _nodes(clip_exponent: int, level: int, dps: int) -> tuple:
    """Positive-t nodes introduced at ``level`` (h = 2**-level), at ``dps`` places.

    Level 0 holds all integer abscissas including t = 0; level k > 0
    holds the odd multiples of 2**-k.  Each entry is (delta, w) with
    delta the distance of the abscissa from +1 and w the pure transform
    weight (pi/2) cosh(t) sech((pi/2) sinh t)**2, h excluded; both carry
    ``dps`` places relative to their own size.
    """
    with mp.workdps(dps):
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


def tanh_sinh(f: Integrand, a, b, ctx: PrecisionContext,
              max_level: int = DEFAULT_MAX_LEVEL,
              min_endpoint_exponent: float = DEFAULT_ENDPOINT_EXPONENT) -> QuadratureResult:
    """Integrate f over (a, b) to context accuracy.

    f is called with one node ``(x, da, db)``, da = x - a and db = b - x
    accurate to working_digits + 20 places relative to their size; a
    factor singular at an endpoint must be formed from da or db, since
    x itself may round onto the endpoint.  f is never evaluated at a or b.

    Stops when two consecutive refinement levels agree to
    10**(-digits-3) relative to max(1, |integral|); raises
    :class:`ConvergenceError` carrying the best estimate if ``max_level``
    is reached first.

    ``min_endpoint_exponent`` is the worst algebraic endpoint exponent
    of f (must be > -1); exponents below the default -1/2 deepen the
    node cutoff so the truncated tail stays below the target.
    """
    clip_exp = _clip_exponent(ctx, min_endpoint_exponent)
    dps = ctx.working_digits + _EVAL_MARGIN
    with mp.workdps(dps):
        a = as_real(a, ctx)
        b = as_real(b, ctx)
        if not a < b:
            raise DomainError(f"need a < b, got a={a}, b={b}")
        width = b - a
        hw = width / 2
        target = mp.mpf(10) ** (-ctx.digits - 3)
        floor = mp.mpf(10) ** (-ctx.working_digits)

        def eval_at(node):
            try:
                fx = f(node)
            except ZeroDivisionError as exc:
                raise IntegrandError(f"integrand not evaluable at x={node[0]}") from exc
            if isinstance(fx, mp.mpc) or not mp.isfinite(fx):
                raise IntegrandError(f"integrand not finite and real at x={node[0]}")
            return fx

        total = mp.mpf(0)     # sum of w*f over all nodes seen so far
        value = prev = None
        err = None
        for level in range(0, max_level + 1):
            for delta, w in _nodes(clip_exp, level, dps):
                near = hw * delta
                far = width - near
                total += w * eval_at((b - near, far, near))
                if delta != 1:  # t = 0 is its own mirror image
                    total += w * eval_at((a + near, near, far))
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
        twon = Fraction(2 * n)

        def f(node):
            s, _, u = node
            return s ** i / mp.sqrt(_one_minus_power(u, twon))

        q = tanh_sinh(f, 0, 1, ctx).value
        closed = beta(mp.mpf(1) / 2, mp.mpf(i + 1) / (2 * n), ctx) / (2 * n)
        return abs(q - closed)
