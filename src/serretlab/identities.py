"""Self-verification suite: every displayed closed-form identity, checked
numerically on fixed grids with residuals reported against tolerance.

Tolerances are 10**(-digits+3) for pure special-function identities and
10**(-digits+5) where quadrature participates.  Grids are fixed rational
constants away from singular parameter boundaries (z = 1, a = 1) so the
reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Fr

from mpmath import mp

from .curves import Regular, total_length_closed, total_length_quadrature
from .numkernel import BigReal, PrecisionContext, as_real
from .quadrature import tanh_sinh
from .specfun import beta, ellip_k, gamma, hyp2f1


@dataclass(frozen=True)
class IdentityReport:
    name: str
    grid: tuple
    max_residual: BigReal
    tolerance: BigReal
    passed: bool


def _assemble(name, rows, tol_offset, ctx):
    with ctx.workdps():
        tol = mp.mpf(10) ** (-ctx.digits + tol_offset)
        grid = tuple(g for g, _ in rows)
        worst = max((r for _, r in rows), default=mp.mpf(0))
        return IdentityReport(name, grid, worst, tol, bool(worst <= tol))


def check_pfaff(ctx: PrecisionContext) -> IdentityReport:
    """2F1(p,q,r;z) = (1-z)^-p 2F1(p, r-q, r; z/(z-1))."""
    rows = []
    with ctx.workdps():
        for p in (Fr(1, 4), Fr(1, 2), Fr(3, 4)):
            for q in (Fr(1, 4), Fr(1, 2), Fr(3, 4)):
                for r in (Fr(1), Fr(3, 2)):
                    for z in (Fr(-2), Fr(-1, 2), Fr(1, 4), Fr(3, 5)):
                        pv, qv, rv, zv = (as_real(t, ctx) for t in (p, q, r, z))
                        lhs = hyp2f1(pv, qv, rv, zv, ctx)
                        rhs = (1 - zv) ** (-pv) * hyp2f1(pv, rv - qv, rv, zv / (zv - 1), ctx)
                        rows.append(((p, q, r, z), abs(lhs - rhs)))
    return _assemble("pfaff", rows, 3, ctx)


def check_quadratic(ctx: PrecisionContext) -> IdentityReport:
    """2F1(p,q,2q; 4z/(1+z)^2) = (1+z)^2p 2F1(p, p-q+1/2, q+1/2; z^2)."""
    rows = []
    with ctx.workdps():
        for p in (Fr(1, 4), Fr(1, 2), Fr(3, 4)):
            for q in (Fr(1, 2), Fr(3, 4)):
                for z in (Fr(1, 10), Fr(3, 10), Fr(1, 2)):
                    pv, qv, zv = (as_real(t, ctx) for t in (p, q, z))
                    lhs = hyp2f1(pv, qv, 2 * qv, 4 * zv / (1 + zv) ** 2, ctx)
                    rhs = (1 + zv) ** (2 * pv) * hyp2f1(
                        pv, pv - qv + mp.mpf(1) / 2, qv + mp.mpf(1) / 2, zv ** 2, ctx)
                    rows.append(((p, q, z), abs(lhs - rhs)))
    return _assemble("quadratic", rows, 3, ctx)


def check_hypgeoell(ctx: PrecisionContext) -> IdentityReport:
    """2F1(1/4, 3/4, 1; z/(z-1)) = (2 (1-z)^(1/4) / pi) K((1 - sqrt(1-z))/2)."""
    rows = []
    with ctx.workdps():
        for z in (Fr(1, 10), Fr(3, 10), Fr(1, 2), Fr(7, 10), Fr(9, 10)):
            zv = as_real(z, ctx)
            lhs = hyp2f1(mp.mpf(1) / 4, mp.mpf(3) / 4, 1, zv / (zv - 1), ctx)
            rhs = 2 * (1 - zv) ** (mp.mpf(1) / 4) / mp.pi * ellip_k((1 - mp.sqrt(1 - zv)) / 2, ctx)
            rows.append(((z,), abs(lhs - rhs)))
    return _assemble("hypgeoell", rows, 3, ctx)


def check_gauss_beta_bridge(ctx: PrecisionContext) -> IdentityReport:
    """2 pi 2F1((k-1)/2k, (k-1)/2k, 1; 1) = 2^(1/k) B(1/2, 1/(2k))."""
    rows = []
    with ctx.workdps():
        for k in (2, 3, 4, 5, 7):
            pv = mp.mpf(k - 1) / (2 * k)
            lhs = 2 * mp.pi * hyp2f1(pv, pv, mp.mpf(1), 1, ctx)
            rhs = 2 ** (mp.mpf(1) / k) * beta(mp.mpf(1) / 2, mp.mpf(1) / (2 * k), ctx)
            rows.append(((k,), abs(lhs - rhs)))
    return _assemble("gauss_beta_bridge", rows, 3, ctx)


def check_beta_ratios(ctx: PrecisionContext) -> IdentityReport:
    """B(1/2,1/10)/B(1/2,2/5) = sqrt(5+2 sqrt 5);
    B(1/2,1/5)/B(1/2,3/10) = sqrt(1+2/sqrt 5); Gamma(1/2)^2 = pi."""
    rows = []
    with ctx.workdps():
        half = mp.mpf(1) / 2
        r1 = beta(half, mp.mpf(1) / 10, ctx) / beta(half, mp.mpf(2) / 5, ctx)
        rows.append((("B ratio 1/10 : 2/5",), abs(r1 - mp.sqrt(5 + 2 * mp.sqrt(5)))))
        r2 = beta(half, mp.mpf(1) / 5, ctx) / beta(half, mp.mpf(3) / 10, ctx)
        rows.append((("B ratio 1/5 : 3/10",), abs(r2 - mp.sqrt(1 + 2 / mp.sqrt(5)))))
        rows.append((("Gamma(1/2)^2",), abs(gamma(half, ctx) ** 2 - mp.pi)))
    return _assemble("beta_ratios", rows, 3, ctx)


def check_scaling_law(ctx: PrecisionContext) -> IdentityReport:
    """l(C_{a,k}) = a^-(k-1) l(C_{1/a,k}) for a > 1, quadrature vs closed form."""
    rows = []
    with ctx.workdps():
        for a in (Fr(5, 4), Fr(2), Fr(4)):
            for k in (2, 3):
                av = as_real(a, ctx)
                lhs = total_length_quadrature(Regular(a, k), ctx)
                rhs = av ** (-(k - 1)) * total_length_closed(Regular(1 / a, k), ctx)
                rows.append(((a, k), abs(lhs - rhs)))
    return _assemble("scaling_law", rows, 5, ctx)


def check_period_ratio_genus2(ctx: PrecisionContext) -> IdentityReport:
    """int_0^1 dt / ((1-bt)^(1/4) sqrt(t(1-t))) = 2 sqrt(1+a^2) K((1-sqrt(1-a^4))/2)
    with b = 4a^2/(1+a^2)^2: the genus-2 period of the quartic
    y^4 = (1-bx) x^2 (1-x)^2 is an algebraic multiple of an elliptic period."""
    rows = []
    for a in (Fr(1, 2), Fr(3, 5), Fr(4, 5)):
        with ctx.workdps():
            av = as_real(a, ctx)
            b = 4 * av ** 2 / (1 + av ** 2) ** 2

            def f(node):
                t, da, db = node
                return 1 / (mp.root(1 - b * t, 4) * mp.sqrt(da * db))

            lhs = tanh_sinh(f, 0, 1, ctx).value
            rhs = 2 * mp.sqrt(1 + av ** 2) * ellip_k((1 - mp.sqrt(1 - av ** 4)) / 2, ctx)
            rows.append(((a,), abs(lhs - rhs)))
    return _assemble("period_ratio_genus2", rows, 5, ctx)


ALL_CHECKS = (
    check_pfaff,
    check_quadratic,
    check_hypgeoell,
    check_gauss_beta_bridge,
    check_beta_ratios,
    check_scaling_law,
    check_period_ratio_genus2,
)


def run_all(ctx: PrecisionContext) -> list:
    """All identity reports, in a fixed order."""
    return [chk(ctx) for chk in ALL_CHECKS]
