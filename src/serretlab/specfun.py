"""Special functions: Gamma, Beta, complete elliptic integral, Gauss 2F1.

Conventions
-----------
The complete elliptic integral used throughout this package is

    K(m) = int_0^1 dt / sqrt((1 - t^2)(1 - m t^2)),   m < 1,

i.e. the *parameter* m multiplies t^2 directly (no squared modulus).
This differs from scipy's ``ellipk`` argument convention in general
texts; negative m is allowed and used by the transformation checks.
"""

from __future__ import annotations

from mpmath import mp

from .errors import ConvergenceError, DomainError
from .numkernel import BigReal, PrecisionContext, as_real

_MAX_SERIES_TERMS = 500_000


def gamma(x, ctx: PrecisionContext) -> BigReal:
    """Gamma(x) for x > 0.

    Rising-factorial shift x -> x + N until the argument exceeds
    digits*ln(10)/2, then the Stirling asymptotic series for log Gamma;
    for real positive arguments the remainder is bounded by the first
    omitted term, which is driven below 10**-(working_digits + 5).
    """
    with ctx.workdps(10):
        x = as_real(x, ctx)
        if x <= 0:
            raise DomainError(f"gamma requires x > 0, got {x}")
        threshold = ctx.digits * mp.log(10) / 2
        n_shift = max(0, int(mp.ceil(threshold - x)))
        z = x + n_shift

        eps = mp.mpf(10) ** (-(ctx.working_digits + 5))
        lg = (z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
        zpow = z  # z**(2k-1)
        z2 = z * z
        prev_term = mp.inf
        for k in range(1, 1000):
            term = mp.bernoulli(2 * k) / ((2 * k) * (2 * k - 1) * zpow)
            if abs(term) < eps:
                break
            if abs(term) > abs(prev_term):
                raise ConvergenceError(
                    "Stirling series diverged before reaching tolerance")
            lg += term
            prev_term = term
            zpow *= z2
        g = mp.exp(lg)
        for j in range(n_shift):
            g /= x + j
        return g


def beta(a, b, ctx: PrecisionContext) -> BigReal:
    """Euler Beta: Gamma(a) Gamma(b) / Gamma(a + b), for a, b > 0."""
    with ctx.workdps(10):
        a = as_real(a, ctx)
        b = as_real(b, ctx)
        return gamma(a, ctx) * gamma(b, ctx) / gamma(a + b, ctx)


def ellip_k(m, ctx: PrecisionContext) -> BigReal:
    """K(m) = pi / (2 agm(1, sqrt(1 - m))) for m < 1."""
    with ctx.workdps(10):
        m = as_real(m, ctx)
        if m >= 1:
            raise DomainError(f"ellip_k requires m < 1, got {m}")
        eps = mp.mpf(10) ** (-(ctx.working_digits + 5))
        a, b = mp.mpf(1), mp.sqrt(1 - m)
        while abs(a - b) > eps * a:
            a, b = (a + b) / 2, mp.sqrt(a * b)
        return mp.pi / (2 * a)


def carlson_rf(x, y, z, ctx: PrecisionContext) -> BigReal:
    """Carlson's R_F(x, y, z) = (1/2) int_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    Needs x, y, z >= 0, at most one of them zero.  Duplication (DLMF
    19.36.1; Carlson, Numer. Algorithms 10 (1995) 13-26) quarters the
    spread of the arguments about their mean A per step; once that spread
    is below (3 eps)^(1/6) A, the fifth-order series in E2, E3 is exact
    to eps = 10**-(working_digits + 5).
    """
    with ctx.workdps(10):
        x, y, z = (as_real(v, ctx) for v in (x, y, z))
        if min(x, y, z) < 0 or sorted((x, y, z))[1] == 0:
            raise DomainError(f"R_F needs x, y, z >= 0, at most one zero; got {x}, {y}, {z}")
        a0 = a = (x + y + z) / 3
        # A_m - x_m = 4^-m (A_0 - x_0): keep the offsets of the inputs
        dx, dy, dz = a0 - x, a0 - y, a0 - z
        eps = mp.mpf(10) ** (-(ctx.working_digits + 5))
        q = mp.root(3 * eps, -6) * max(abs(dx), abs(dy), abs(dz))
        scale = mp.mpf(1)  # 4^-m after m duplication steps
        while scale * q >= a:
            sx, sy, sz = mp.sqrt(x), mp.sqrt(y), mp.sqrt(z)
            lam = sx * sy + sx * sz + sy * sz
            x, y, z, a = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (a + lam) / 4
            scale /= 4
        dx, dy = dx * scale / a, dy * scale / a
        dz = -dx - dy
        e2, e3 = dx * dy - dz * dz, dx * dy * dz
        return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / mp.sqrt(a)


def _check_2f1_domain(p, q, r, z):
    if r <= 0 and r == mp.floor(r):
        raise DomainError(f"2F1 undefined for r = {r} (zero or negative integer)")
    if z > 1:
        raise DomainError(f"2F1 requires z <= 1, got z = {z}")
    if z == 1 and not r - p - q > 0:
        raise DomainError("2F1 at z = 1 requires r - p - q > 0")


def _series_2f1(p, q, r, z, ctx: PrecisionContext) -> BigReal:
    """Direct power series, valid for 0 <= z < 1.

    Terms t_{n+1} = t_n (p+n)(q+n) z / ((r+n)(1+n)); stops once 20
    consecutive terms fall below 10**-(working_digits) times the
    running sum.
    """
    eps = mp.mpf(10) ** (-ctx.working_digits)
    total = term = mp.mpf(1)
    small_run = 0
    for n in range(_MAX_SERIES_TERMS):
        term = term * (p + n) * (q + n) / ((r + n) * (1 + n)) * z
        total += term
        if abs(term) < eps * max(mp.mpf(1), abs(total)):
            small_run += 1
            if small_run >= 20:
                return total
        else:
            small_run = 0
    raise ConvergenceError("2F1 series did not converge "
                           f"(p={p}, q={q}, r={r}, z={z})")


def hyp2f1(p, q, r, z, ctx: PrecisionContext) -> BigReal:
    """Gauss hypergeometric 2F1(p, q, r; z) for real arguments, z <= 1.

    r must not be zero or a negative integer, and z = 1 needs
    r - p - q > 0; other arguments raise :class:`DomainError`.

    Routing: z = 1 by Gauss summation; z in [0, 1) by the power series;
    z < 0 by one Pfaff transformation
    2F1(p,q,r;z) = (1-z)^-p 2F1(p, r-q, r; z/(z-1)) followed by the
    series (the Pfaff image of a negative argument lies in (0, 1)).
    """
    with ctx.workdps(10):
        p = as_real(p, ctx)
        q = as_real(q, ctx)
        r = as_real(r, ctx)
        z = as_real(z, ctx)
        _check_2f1_domain(p, q, r, z)
        if z == 0:
            return mp.mpf(1)
        if z == 1:
            return gauss_value_at_1(p, q, r, ctx)
        if z < 0:
            w = z / (z - 1)
            return (1 - z) ** (-p) * _series_2f1(p, r - q, r, w, ctx)
        return _series_2f1(p, q, r, z, ctx)


def gauss_value_at_1(p, q, r, ctx: PrecisionContext) -> BigReal:
    """2F1(p, q, r; 1) = Gamma(r) Gamma(r-p-q) / (Gamma(r-p) Gamma(r-q)).

    Needs r - p - q > 0 and r, r-p, r-q > 0.
    """
    with ctx.workdps(10):
        p = as_real(p, ctx)
        q = as_real(q, ctx)
        r = as_real(r, ctx)
        if not r - p - q > 0:
            raise DomainError("Gauss summation needs r - p - q > 0")
        return (gamma(r, ctx) * gamma(r - p - q, ctx)
                / (gamma(r - p, ctx) * gamma(r - q, ctx)))
