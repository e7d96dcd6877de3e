"""Equal-arc-length division points of leaf curves and Cassini ovals,
each point computed alone.

For Erdos lemniscates and sinusoidal spirals the cumulative length of
the fundamental half-leaf, in the normalized radius s = r 2^(-1/q), is

    F(s) = int_0^s dt / sqrt(1 - t^(2q)),

an incomplete Beta function in closed form, strictly increasing with
known derivative, so ``leaf_radius`` finds s_i with F(s_i) = (i/l) F(1)
by Newton's method from s = i/l in a few F evaluations (steps leaving
the bracket of residual signs, as near s = 1 where F' blows up, are
replaced by bisection).  ``cassini_cos_u`` inverts the Cassini oval's
reduced elliptic integral in v in closed form, through Jacobi sn, and
takes cos(u) from sn alone (cn^2 = 1 - sn^2).  The two points at angles u/2 and
pi/2 - u/2 bound the shortest arc of length l(C_a)/(4n) = K(m)/n;
``divide_cassini`` checks the inversion with two reduced integrals
(Carlson R_F, no K), and the arc by quadrature in y = r^2 between the
points (``radial_arc_integral``, no sn or R_F) against K(m)/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .curves import (Sinusoidal, _as_fraction, _cassini_scale, cassini_reduced_integral,
                     exponent_2q, normalized_arc_integral, normalized_arc_total,
                     radial_arc_integral)
from .errors import ConfigurationError, ConvergenceError, DomainError, InternalConsistencyError
from .numkernel import BigReal, PrecisionContext, as_real
from .specfun import ellip_k, ellip_sn


@dataclass(frozen=True)
class DivisionPoint:
    index: int
    fraction: Fraction
    s: BigReal
    radius: BigReal
    theta: BigReal
    x: BigReal
    y: BigReal
    residual: BigReal


@dataclass(frozen=True)
class CassiniDivision:
    n: int
    u: BigReal
    v_u: BigReal
    cos_u: BigReal
    P: tuple
    P_prime: tuple
    arc_length: BigReal
    residual: BigReal       # |I(v_u) - (n-1)/n I(1)|
    arc_residual: BigReal   # |arc_length - l(C_a)/(4n)|


def _solve_monotone(F, step, frac: Fraction, total: BigReal, ctx: PrecisionContext) -> tuple:
    """Solve F(x) = frac * total for x in (0, 1); returns (x, residual).

    F is the increasing cumulative integral, and step(x, diff) the
    Newton step diff / F'(x).  Newton starts from frac and narrows the
    bracket [0, 1] by the sign of each residual; a step leaving the
    bracket is replaced by bisection.
    """
    with ctx.workdps(10):
        target = as_real(frac, ctx) * total
        tol = mp.mpf(10) ** (-(ctx.digits + 3)) * max(mp.mpf(1), total)
        lo, hi = mp.mpf(0), mp.mpf(1)
        x = as_real(frac, ctx)
        for _ in range(80):
            diff = F(x) - target
            resid = abs(diff)
            if diff < 0:
                lo = x
            else:
                hi = x
            if resid <= tol:
                return x, resid
            x_new = x - step(x, diff)
            x = x_new if lo < x_new < hi else (lo + hi) / 2
        raise ConvergenceError(
            f"division solver stalled at fraction {frac}",
            best=x, state={"bracket": (lo, hi), "residual": resid})


def leaf_radius(curve, frac, ctx: PrecisionContext) -> tuple:
    """(s, |F(s) - frac F(1)|) with F(s) = frac F(1) on the fundamental
    half-leaf: one solve, which computes F(1) once; frac = 0 and 1 need none."""
    twoq = exponent_2q(curve)
    frac = Fraction(frac)
    if not 0 <= frac <= 1:
        raise ConfigurationError(f"need 0 <= frac <= 1, got {frac}")
    if frac in (0, 1):
        return mp.mpf(int(frac)), mp.mpf(0)
    with ctx.workdps(10):
        twoq_f = as_real(twoq, ctx)
        f_one = normalized_arc_total(twoq, ctx)
        return _solve_monotone(
            lambda x: normalized_arc_integral(twoq, x, f_one, ctx),
            lambda x, diff: diff * mp.sqrt(1 - mp.power(x, twoq_f)),
            frac, f_one, ctx)


def divide_fundamental_arc(curve, l: int, ctx: PrecisionContext) -> tuple:
    """Division points s_0 = 0, ..., s_l = 1 of the fundamental half-leaf,
    s_i from ``leaf_radius(curve, i/l)``.

    r = 2^(1/q) s lies on r^q = 2 cos(q theta) iff cos(q theta) = s^q, so
    theta = arccos(s^q)/q runs from the leaf edge pi/(2q) at the origin
    down to 0 at the tip.
    """
    if not isinstance(l, int) or l < 1:
        raise ConfigurationError(f"need integer l >= 1, got {l!r}")
    with ctx.workdps(10):
        radii = [leaf_radius(curve, Fraction(i, l), ctx) for i in range(l + 1)]
        q = as_real(curve.q, ctx)
        scale = mp.power(2, 1 / q)
        out = []
        for i, (s, resid) in enumerate(radii):
            theta = mp.acos(mp.power(s, q)) / q if s > 0 else mp.pi / (2 * q)
            r = scale * s
            out.append(DivisionPoint(
                index=i, fraction=Fraction(i, l), s=s, radius=r, theta=theta,
                x=r * mp.cos(theta), y=r * mp.sin(theta), residual=resid))
        return tuple(out)


def expand_by_symmetry(curve, points: list, ctx: PrecisionContext) -> list:
    """All 2 * leaves * l division points of the closed curve.

    The fundamental points cover the half-leaf from origin to tip; the
    full traversal walks each leaf up its lower half (theta increasing
    to the tip) and down its upper half, then rotates by 2 pi / q to
    the next leaf.  Points are reindexed along the traversal; the
    closing point (the start origin again) is dropped.
    """
    if not isinstance(curve, Sinusoidal):
        raise DomainError("expand_by_symmetry needs an Erdos or Sinusoidal curve")
    l = len(points) - 1
    if l < 1 or any(p.index != i for i, p in enumerate(points)):
        raise ConfigurationError("points must be a divide_fundamental_arc result")
    leaves = curve.leaves
    total_parts = 2 * leaves * l
    # rising half: origin -> tip at center - arccos(s^q)/q; falling half:
    # tip -> origin at center + arccos(s^q)/q
    traversal = [(p, -1) for p in points[:-1]] + [(p, 1) for p in reversed(points[1:])]
    with ctx.workdps(10):
        qv = as_real(curve.q, ctx)
        out = []
        for leaf in range(leaves):
            center = 2 * mp.pi * leaf / qv
            for p, sign in traversal:
                theta = center + sign * p.theta
                out.append(DivisionPoint(
                    index=len(out), fraction=Fraction(len(out), total_parts),
                    s=p.s, radius=p.radius, theta=theta,
                    x=p.radius * mp.cos(theta), y=p.radius * mp.sin(theta),
                    residual=p.residual))
        return tuple(out)


def cassini_cos_u(a, n: int, ctx: PrecisionContext) -> tuple:
    """(cos_u, v_u) of the order-n division of C_a, 0 < a < 1: the reduced integral
    from v0 = sqrt(1 - a^4) to v_u is (n-1)/n of its total, and by Byrd and Friedman
    256.00 v_u = v0 / (1 - w sn^2), sn = sn(((n-1)/n) K(m) | m), w = 1 - v0, m = w/2.
    Then cos(u)^2 = b (v_u^-2 - 1), b = (1 - a^4)/a^4, is cn^2 (1 - w sn^2/(1 + v0))."""
    if not isinstance(n, int) or n < 1:
        raise ConfigurationError(f"need integer n >= 1, got {n!r}")
    v0, w = _cassini_scale(a, ctx)[:2]
    with ctx.workdps(10):
        m = w / 2
        s2 = ellip_sn(mp.mpf(n - 1) / n * ellip_k(m, ctx), m, ctx) ** 2
        return mp.sqrt((1 - s2) * (1 - w * s2 / (1 + v0))), v0 / (1 - w * s2)


def divide_cassini(a, n: int, ctx: PrecisionContext) -> CassiniDivision:
    """Two algebraic points on C_a, at angles u/2 and pi/2 - u/2 with cos(u)
    from ``cassini_cos_u``, whose shortest arc is l(C_a)/(4n) = K(m)/n,
    m = (1 - sqrt(1 - a^4))/2.

    Two checks independent of the inversion: ``residual`` |I(v_u) - ((n-1)/n) I(1)|
    from two reduced integrals, which use no K, and the arc between the points
    integrated in y = r^2, which uses no sn, monotone in the angle on [0, pi/2],
    from ya = (1 - a^4)/yb to yb = root + a^2 cos(u), root = sqrt(1 - a^4 sin(u)^2).
    Both limits go to the integral as their gaps to 1 - a^2 and 1 + a^2, which
    are exactly 0 at n = 1.
    """
    cos_u, v = cassini_cos_u(a, n, ctx)
    a = _as_fraction(a)
    w = _cassini_scale(a, ctx)[1]
    with ctx.workdps(10):
        u = mp.acos(cos_u)
        total = cassini_reduced_integral(a, 1, ctx)
        resid = abs(cassini_reduced_integral(a, v, ctx) - mp.mpf(n - 1) / n * total)
        a2 = as_real(a ** 2, ctx)
        a4 = as_real(a ** 4, ctx)
        sin_u = mp.sin(u)
        root = mp.sqrt(1 - a4 * sin_u ** 2)
        yb = root + a2 * cos_u
        # 1 + a^2 - yb = (1 - root) + a^2 (1 - cos(u)), and ya - (1 - a^2) from ya yb = 1 - a^4
        gap_hi = a4 * sin_u ** 2 / (1 + root) + 2 * a2 * mp.sin(u / 2) ** 2
        gap_lo = as_real(1 - a ** 2, ctx) * gap_hi / yb
        arc = radial_arc_integral(a, 2, gap_lo, gap_hi, ctx)
        arc_resid = abs(arc - ellip_k(w / 2, ctx) / n)
        bound = mp.mpf(10) ** (-ctx.digits + 5)
        if resid > bound or arc_resid > bound:
            raise InternalConsistencyError(
                f"Cassini division residuals exceed tolerance: {resid}, {arc_resid}")
        r1, r2 = mp.sqrt(yb), mp.sqrt(as_real(1 - a ** 4, ctx) / yb)
        return CassiniDivision(
            n=n, u=u, v_u=v, cos_u=cos_u,
            P=(r1 * mp.cos(u / 2), r1 * mp.sin(u / 2)),
            P_prime=(r2 * mp.sin(u / 2), r2 * mp.cos(u / 2)),
            arc_length=arc, residual=resid, arc_residual=arc_resid)
