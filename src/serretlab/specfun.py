"""Special functions: Gamma, Beta, complete elliptic integral, Jacobi sn,
Carlson R_F, Gauss 2F1.

Conventions
-----------
The complete elliptic integral used throughout this package is

    K(m) = int_0^1 dt / sqrt((1 - t^2)(1 - m t^2)),   m < 1,

i.e. the *parameter* m multiplies t^2 directly (no squared modulus).
This differs from scipy's ``ellipk`` argument convention in general
texts; negative m is allowed and used by the transformation checks.
Jacobi's sn(u | m) takes the same parameter m, with 0 <= m < 1.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .errors import ConvergenceError, DomainError
from .numkernel import BigReal, PrecisionContext, as_real

# refuse a power series whose term budget exceeds this: near z = 1 with an
# integer r - p - q (no 1 - z route) it would take minutes
_MAX_SERIES_TERMS = 500_000
# the 1 - z route (DLMF 15.8.4) above this z: the direct series needs about
# W ln 10 / -ln z terms for W digits, the route two series of W ln 10 / -ln(1-z)
# terms plus seven Gamma values, so it overtakes the series (equal term
# counts at z = 0.62) at z = 0.72-0.78, measured at 15 to 1000 digits
_ONE_MINUS_Z_ABOVE = 0.75
# r - p - q closer than this to an integer keeps the direct series: the
# connection coefficients have poles at integers, and near them lose
# log10(1/distance) digits
_INTEGER_MARGIN = 1e-4


def _is_pole(x) -> bool:
    return x <= 0 and x == mp.floor(x)


def gamma(x, ctx: PrecisionContext) -> BigReal:
    """Gamma(x) for real x other than 0, -1, -2, ...

    Rising-factorial shift x -> x + N until the argument exceeds
    digits*ln(10)/2, then the Stirling asymptotic series for log Gamma;
    for real positive arguments the remainder is bounded by the first
    omitted term, which is driven below 10**-(working_digits + 5).
    Negative x is shifted the same way, through
    Gamma(x) = Gamma(x + N) / (x (x+1) ... (x+N-1)).
    """
    with ctx.workdps(10):
        x = as_real(x, ctx)
        if _is_pole(x):
            raise DomainError(f"gamma has a pole at x = {x}")
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


def _agm(m, ctx: PrecisionContext) -> tuple:
    """(a_N, [(a_1, c_1), ..., (a_N, c_N)]) of the AGM ladder from a_0 = 1, b_0 = sqrt(1 - m):
    a_j, b_j, c_j are (a + b)/2, sqrt(a b), (a - b)/2 of step j - 1, until
    |a_N - b_N| <= 10**-(working_digits + 5) a_N.  Call under ctx.workdps(10)."""
    eps = mp.mpf(10) ** (-(ctx.working_digits + 5))
    a, b = mp.mpf(1), mp.sqrt(1 - m)
    ladder = []
    while abs(a - b) > eps * a:
        a, b, c = (a + b) / 2, mp.sqrt(a * b), (a - b) / 2
        ladder.append((a, c))
    return a, ladder


def ellip_k(m, ctx: PrecisionContext) -> BigReal:
    """K(m) = pi / (2 agm(1, sqrt(1 - m))) for m < 1."""
    with ctx.workdps(10):
        m = as_real(m, ctx)
        if m >= 1:
            raise DomainError(f"ellip_k requires m < 1, got {m}")
        return mp.pi / (2 * _agm(m, ctx)[0])


def ellip_sn(u, m, ctx: PrecisionContext) -> BigReal:
    """Jacobi sn(u | m), real u, 0 <= m < 1, by descending Landen (DLMF 22.20(ii)) on
    K's AGM ladder: phi_N = 2^N a_N u, phi_(j-1) = (phi_j + asin((c_j/a_j) sin phi_j))/2,
    sn = sin phi_0; (c_N/a_N)^2 is below the working tolerance, so phi_N needs no correction."""
    with ctx.workdps(10):
        u = as_real(u, ctx)
        m = as_real(m, ctx)
        if not 0 <= m < 1:
            raise DomainError(f"ellip_sn requires 0 <= m < 1, got {m}")
        a, ladder = _agm(m, ctx)
        phi = mp.ldexp(a * u, len(ladder))
        for aj, cj in reversed(ladder):
            phi = (phi + mp.asin(cj / aj * mp.sin(phi))) / 2
        return mp.sin(phi)


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


def _series_2f1(p, q, r, z, tol_digits: int) -> BigReal:
    """Direct power series for 0 <= z < 1, truncated below 10**-tol_digits.

    Terms t_{n+1} = t_n rho_n with rho_n = (p+n)(q+n) z / ((r+n)(1+n)).
    Once n exceeds -p, -q, -r and -1, each factor (j+u)/(j+v) of rho_j is
    monotone in j and tends to 1, so every later ratio is at most
    rho = z max(1, (n+p)/(n+1)) max(1, (n+q)/(n+r)); when rho < 1 the
    tail after t_n is at most |t_n| rho/(1 - rho), and the sum stops once
    that bound is below 10**-tol_digits times max(1, |sum|).  The series
    needs about tol_digits ln(10) / -ln(z) terms; twice that, plus the
    terms before the ratio settles, is the budget, and an estimate above
    _MAX_SERIES_TERMS raises :class:`ConvergenceError` before any term.
    """
    eps = mp.mpf(10) ** (-tol_digits)
    if z >= 1:  # an exact z < 1 that rounded to 1: no term budget is enough
        raise ConvergenceError(f"2F1 series cannot converge at z = {z} (p={p}, q={q}, r={r})")
    need = tol_digits * mp.log(10) / -mp.log(z) if z > 0 else 0
    if need > _MAX_SERIES_TERMS:
        raise ConvergenceError(f"2F1 series would need about {int(need)} terms "
                               f"(p={p}, q={q}, r={r}, z={z})")
    settled = int(mp.floor(max(-p, -q, -r, -1)))
    one = mp.mpf(1)
    total = term = one
    for n in range(int(2 * need + 4 * (abs(p) + abs(q) + abs(r))) + 100):
        term = term * (p + n) * (q + n) / ((r + n) * (1 + n)) * z
        total += term
        small = eps * max(one, abs(total))
        if abs(term) < small:
            m = n + 1  # term is t_m
            if term == 0:
                return total
            if m > settled:
                rho = z * max(one, (m + p) / (m + 1)) * max(one, (m + q) / (m + r))
                if rho < 1 and abs(term) * rho < small * (1 - rho):
                    return total
    raise ConvergenceError("2F1 series did not converge "
                           f"(p={p}, q={q}, r={r}, z={z})")


def _one_minus_z(p, q, r, w, ctx: PrecisionContext) -> BigReal:
    """2F1 for 0 < z < 1 through two series in w = 1 - z (DLMF 15.8.4), s = r - p - q
    not an integer and no Gamma below at a pole:

    2F1(p,q;r;z) = G(r) G(s) / (G(r-p) G(r-q)) 2F1(p, q; 1-s; w)
                 + w^s G(r) G(-s) / (G(p) G(q)) 2F1(r-p, r-q; 1+s; w).

    As s nears an integer the two terms grow like 1/dist(s, Z) and cancel;
    beyond _INTEGER_MARGIN that costs at most 4 digits, so the series run
    5 digits past working.
    """
    sv = r - p - q
    digits = ctx.working_digits + 5
    g_r = gamma(r, ctx)
    first = (g_r * gamma(sv, ctx) / (gamma(r - p, ctx) * gamma(r - q, ctx))
             * _series_2f1(p, q, 1 - sv, w, digits))
    second = (mp.power(w, sv) * g_r * gamma(-sv, ctx) / (gamma(p, ctx) * gamma(q, ctx))
              * _series_2f1(r - p, r - q, 1 + sv, w, digits))
    return first + second


def _hyp2f1_unit(p, q, r, z, w, ctx: PrecisionContext) -> BigReal:
    """2F1 for 0 <= z < 1, given w = 1 - z: the direct series, or the 1 - z
    route above _ONE_MINUS_Z_ABOVE where it applies."""
    sv = r - p - q
    if (z > _ONE_MINUS_Z_ABOVE and abs(sv - mp.nint(sv)) >= _INTEGER_MARGIN
            and not any(_is_pole(g) for g in (p, q, r - p, r - q))):
        return _one_minus_z(p, q, r, w, ctx)
    return _series_2f1(p, q, r, z, ctx.working_digits)


def hyp2f1(p, q, r, z, ctx: PrecisionContext) -> BigReal:
    """Gauss hypergeometric 2F1(p, q, r; z) for real arguments, z <= 1.

    r must not be zero or a negative integer, and z = 1 needs
    r - p - q > 0; other arguments raise :class:`DomainError`.

    Routing: z = 1 by Gauss summation,
    2F1(p, q, r; 1) = Gamma(r) Gamma(r-p-q) / (Gamma(r-p) Gamma(r-q));
    z in [0, 3/4] by the power series;
    z in (3/4, 1) by the connection formula DLMF 15.8.4, two power series
    in 1 - z < 1/4, unless r - p - q is within 1e-4 of an integer or
    p, q, r - p or r - q is zero or a negative integer (then the series in
    z, which refuses to start if it would need more than 500,000 terms);
    z < 0 by one Pfaff transformation
    2F1(p,q,r;z) = (1-z)^-p 2F1(p, r-q, r; z/(z-1)) followed by the same
    routing of its image in (0, 1), whose complement is 1/(1 - z).

    A rational z (``Fraction`` or int) stays exact until 1 - z, or the
    Pfaff image and its complement, are formed, so z = 1 - 10^-40 keeps
    every digit of 1 - z; any other z is rounded first.
    """
    with ctx.workdps(10):
        p = as_real(p, ctx)
        q = as_real(q, ctx)
        r = as_real(r, ctx)
        z = Fraction(z) if isinstance(z, (int, Fraction)) else as_real(z, ctx)
        _check_2f1_domain(p, q, r, z)
        if z == 0:
            return mp.mpf(1)
        if z == 1:
            return (gamma(r, ctx) * gamma(r - p - q, ctx)
                    / (gamma(r - p, ctx) * gamma(r - q, ctx)))
        if z < 0:
            image, w = as_real(z / (z - 1), ctx), as_real(1 / (1 - z), ctx)
            return as_real(1 - z, ctx) ** (-p) * _hyp2f1_unit(p, r - q, r, image, w, ctx)
        return _hyp2f1_unit(p, q, r, as_real(z, ctx), as_real(1 - z, ctx), ctx)
