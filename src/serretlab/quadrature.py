"""Tanh-sinh (double-exponential) quadrature on finite intervals.

The substitution x = tanh((pi/2) sinh t) clusters nodes doubly
exponentially at the endpoints, so integrands with algebraic endpoint
singularities of exponent > -1 converge at full precision without any
change of variables.  Refinement halves the step h per level, reusing
all previous nodes.

Abscissas are offsets from the nearest endpoint, delta(t) = 1 -
tanh((pi/2) sinh t) = 2/(exp(2u) + 1), clipped at 10**(-clip) with clip
= 2 working_digits + 21: an endpoint singularity x^alpha leaves a tail
~ offset^(1+alpha), below the target for every exponent alpha >= -1/2
(a clip at 10**-(digits+guard) would leave a square-root tail far above).

Nodes that close to an endpoint round onto it at any affordable
precision, so the integrand is never given x alone: it receives one
node ``(x, da, db)`` with da = x - a and db = b - x formed from the
offset without cancellation (hw*delta on the near side, 2hw - hw*delta
on the far one), and builds its singular factor from those distances
(Bailey, Jeyabalan and Li, Experimental Math. 14 (2005)).  Offsets and
weights need relative precision only, so the node tables and every
evaluation run at working_digits + 20 places, and f is never called at
a or b.  A table costs one exp per node (see _nodes).

Stopping rule, relative to max(1, |S_k|) for the level sums S_k and the
target 10**-(digits+3): accept S_k (k >= 2) if |S_k - S_(k-1)| is within
the target, which is then its ``error_estimate``; or, a level sooner
(k >= 3), if with D1 = log10|S_k - S_(k-1)|, D2 = log10|S_k - S_(k-2)| the
digits grow quadratically, D1 <= 1.5 D2 < 0, and 1000 E is within the
target, E = 10**max(D1**2/D2, 2 D1) being Bailey, Jeyabalan and Li's
estimate of the next difference; ``error_estimate`` is then 1000 E.
Either is raised to 10**-working_digits at least.  Past level MAX_LEVEL
the integral is given up (ConvergenceError).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from mpmath import mp

from .errors import ConvergenceError, DomainError, IntegrandError
from .numkernel import BigReal, PrecisionContext, as_real

MAX_LEVEL = 12  # read at call time, so tests may lower it
MAX_NODE_TABLES = 128  # 2.1x the 62 node tables a whole `lengths` benchmark run holds
_EVAL_MARGIN = 20  # decimal places evaluated beyond the working digits
_RESEED = 64  # a node table's running e^t restarts from exp(t) this often
_QUADRATIC_RATE = 1.5  # the stopping rule's 1.5 in D1 <= 1.5 D2 ...
_ESTIMATE_MARGIN = 1000  # ... and its 1000 in 1000 E (module docstring)

# an integrand receives one node (x, da, db) with da = x - a, db = b - x
Integrand = Callable[[tuple], BigReal]


@lru_cache(maxsize=MAX_NODE_TABLES)
def _nodes(clip_exponent: int, level: int, dps: int) -> tuple:
    """Positive-t nodes introduced at ``level`` (h = 2**-level), at ``dps`` places.

    Level 0 holds all integer abscissas including t = 0; level k > 0
    holds the odd multiples of 2**-k.  Each entry is (delta, w) with
    delta the distance of the abscissa from +1 and w the pure transform
    weight (pi/2) cosh(t) sech((pi/2) sinh t)**2, h excluded; both carry
    ``dps`` places relative to their own size.  e^t is a running product,
    reseeded every _RESEED nodes, and sinh t, cosh t come from it and its
    reciprocal: exp(-2u) is the one transcendental per node.
    """
    with mp.workdps(dps):
        clip = mp.mpf(10) ** (-clip_exponent)
        u_max = (clip_exponent * mp.log(10) + mp.log(2)) / 2
        t_max = mp.asinh(2 * u_max / mp.pi)
        h = mp.mpf(2) ** (-level)
        js = (range(0, int(mp.floor(t_max)) + 1) if level == 0
              else range(1, int(mp.floor(t_max / h)) + 1, 2))
        grow = mp.exp(js.step * h)
        out, quarter_pi = [], mp.pi / 4
        for n, j in enumerate(js):
            et = mp.exp(j * h) if n % _RESEED == 0 else et * grow
            inv = 1 / et
            u = quarter_pi * (et - inv)        # (pi/2) sinh t
            e = mp.exp(-2 * u)
            delta = 2 * e / (1 + e)
            if delta < clip:
                break
            w = quarter_pi * (et + inv) * 4 * e / (1 + e) ** 2
            out.append((delta, w))
    return tuple(out)


@dataclass(frozen=True)
class QuadratureResult:
    value: BigReal
    error_estimate: BigReal
    levels_used: int


def tanh_sinh(f: Integrand, a, b, ctx: PrecisionContext) -> QuadratureResult:
    """Integrate f over (a, b) to context accuracy.

    f is called with one node ``(x, da, db)``, da = x - a and db = b - x
    accurate to working_digits + 20 places relative to their size; a
    factor singular at an endpoint must be formed from da or db, since
    x itself may round onto the endpoint.  f is never evaluated at a or b.

    Returns the first level sum S_k that agrees with S_(k-1) to
    10**-(digits+3) relative to max(1, |S_k|), or, a level sooner, whose
    last three sums converge quadratically with 1000 times the estimated
    error E within that; ``error_estimate`` is the difference or 1000 E
    (module docstring).  Past MAX_LEVEL it raises ConvergenceError with
    the last sum as ``best`` and state {"levels", "differences"}, the
    latter |S_k - S_(k-1)| for each level k >= 1.

    The node cutoff serves algebraic endpoint exponents of -1/2 or more.
    """
    clip_exp = 2 * ctx.working_digits + 21
    dps = ctx.working_digits + _EVAL_MARGIN
    with mp.workdps(dps):
        a, b = as_real(a, ctx), as_real(b, ctx)
        if not a < b:
            raise DomainError(f"need a < b, got a={a}, b={b}")
        width, hw = b - a, (b - a) / 2
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
        sums = []
        for level in range(0, MAX_LEVEL + 1):
            for delta, w in _nodes(clip_exp, level, dps):
                near = hw * delta
                far = width - near
                total += w * eval_at((b - near, far, near))
                if delta != 1:  # t = 0 is its own mirror image
                    total += w * eval_at((a + near, near, far))
            value = hw * total * mp.mpf(2) ** (-level)
            sums.append(value)
            rel = _accepted_error(sums, target)
            if rel is not None:
                return QuadratureResult(value, max(rel, floor) * max(mp.mpf(1), abs(value)), level)
        differences = [abs(s1 - s0) for s0, s1 in zip(sums, sums[1:])]
        raise ConvergenceError(
            f"tanh-sinh did not converge by level {MAX_LEVEL}",
            best=QuadratureResult(value, differences[-1] if differences else None, MAX_LEVEL),
            state={"levels": MAX_LEVEL, "differences": differences})


def _accepted_error(sums, target):
    """The relative error of the last level sum if the stopping rule (module
    docstring) accepts it, else None.  The margin covers the wobble of the
    rate around 2, which makes E alone up to 6e4 times too small."""
    k = len(sums) - 1
    if k < 2:
        return None
    scale = max(mp.mpf(1), abs(sums[k]))
    d1 = abs(sums[k] - sums[k - 1]) / scale
    if d1 <= target:
        return d1
    d2 = abs(sums[k] - sums[k - 2]) / scale
    if k < 3 or not (d1 < 1 and 0 < d2 < 1):
        return None
    D1, D2 = mp.log10(d1), mp.log10(d2)
    err = _ESTIMATE_MARGIN * mp.mpf(10) ** max(D1 * D1 / D2, 2 * D1)
    return err if D1 <= _QUADRATIC_RATE * D2 and err <= target else None
