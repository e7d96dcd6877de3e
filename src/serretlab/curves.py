"""Curve catalog: polar equations, arc-length integrands, total lengths.

Families
--------
* ``Sinusoidal(a,b)`` r^q = 2 cos(q theta) with q = a/b > 0 in lowest
  terms; a leaves.
* ``Erdos(n)``       |z^n - 1| = 1, whose polar form r^n = 2 cos(n theta)
  is the sinusoidal spiral with q = n: ``Sinusoidal(n, 1)`` with n leaves.
* ``Regular(a,k)``   |z^k - a^k| = 1 with a > 0, a != 1 (a = 1 is the
  Erdos case, whose closed forms differ); k = 2 gives Cassini ovals.
* ``PolyLemniscate(coeffs)``  |P(z)| = 1 for an arbitrary polynomial;
  accepted only by the render module.

Two independent total-length routes are provided: closed forms (Beta /
2F1 / K) and direct quadrature of the arc-length integrals, radial

    l = 2k int 2 r^k dr / sqrt((r^2k - (a^k-1)^2)((1+a^k)^2 - r^2k))

or angular

    l = 4 (1+a^k)^-(k-1)/k int_0^{pi/2} (1 - pb sin^2 phi)^-(k-1)/2k dphi

with pb = 4 a^k/(1+a^k)^2.  Note two distinct helper constants named b
exist in the Cassini literature; here ``cassini_b`` always means
(1-a^4)/a^4 (reduced-integral form) and ``pfaff_b`` means
4a^k/(1+a^k)^2 (angular form); they never meet in one formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from mpmath import mp

from .errors import ConfigurationError, DomainError, InternalConsistencyError
from .numkernel import BigReal, PrecisionContext, as_real
from .quadrature import _one_minus_power, _rational_power, tanh_sinh
from .specfun import beta, carlson_rf, ellip_k, hyp2f1


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    raise ConfigurationError(f"expected a rational-like value, got {x!r}")


@dataclass(frozen=True)
class Sinusoidal:
    """Sinusoidal spiral r^q = 2 cos(q theta), q = a/b in lowest terms."""

    a: int
    b: int

    def __post_init__(self):
        if min(self.a, self.b) < 1:
            raise ConfigurationError("Sinusoidal needs positive integers a, b")
        if gcd(self.a, self.b) != 1:
            raise ConfigurationError(f"gcd({self.a}, {self.b}) != 1")

    @property
    def q(self) -> Fraction:
        return Fraction(self.a, self.b)

    @property
    def leaves(self) -> int:
        return self.a


class Erdos(Sinusoidal):
    """Erdos lemniscate |z^n - 1| = 1: the sinusoidal spiral with q = n."""

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ConfigurationError(f"Erdos needs integer n >= 1, got {n!r}")
        super().__init__(n, 1)

    @property
    def n(self) -> int:
        return self.a


@dataclass(frozen=True)
class Regular:
    """Regular polynomial lemniscate |z^k - a^k| = 1, a > 0, a != 1."""

    a: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        if self.a <= 0 or self.a == 1:
            raise ConfigurationError(f"Regular needs a > 0, a != 1, got a={self.a}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ConfigurationError(f"Regular needs integer k >= 1, got {self.k!r}")


@dataclass(frozen=True)
class PolyLemniscate:
    """|P(z)| = 1; coeffs ascending, coeffs[i] multiplies z^i."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)
        if len(cs) < 2 or cs[-1] == 0:
            raise ConfigurationError("PolyLemniscate needs degree >= 1")


Curve = Union[Sinusoidal, Regular, PolyLemniscate]


@dataclass(frozen=True)
class PolarPoint:
    r: BigReal
    theta: BigReal


def exponent_2q(curve) -> Fraction:
    """The 2q in the normalized arc integrand (1 - s^(2q))^(-1/2)."""
    if isinstance(curve, Sinusoidal):
        return 2 * curve.q
    raise DomainError(f"no normalized arc exponent for {type(curve).__name__}")


def polar_radius(curve, theta, ctx: PrecisionContext, branch: str = "outer") -> PolarPoint:
    """Solve the polar equation for r >= 0 at the given angle.

    Erdos/sinusoidal leaves need |q theta| <= pi/2.  For Regular curves
    the quadratic in r^k gives r^k = a^k cos(k theta) +/- sqrt(1 -
    a^2k sin^2(k theta)); ``branch`` picks the root, and the inner one
    exists only for a > 1 on the angular window where the radicand is
    nonnegative.
    """
    with ctx.workdps():
        theta = as_real(theta, ctx)
        slack = mp.mpf(10) ** (-ctx.digits)
        if isinstance(curve, Sinusoidal):
            if branch != "outer":
                raise DomainError("leaf curves have a single branch")
            q = as_real(curve.q, ctx)
            c = 2 * mp.cos(q * theta)
            if c < 0:
                if c < -slack:
                    raise DomainError(
                        f"theta={theta} outside the leaf |q theta| <= pi/2")
                c = mp.mpf(0)
            r = mp.power(c, 1 / q) if c > 0 else mp.mpf(0)
            return PolarPoint(r, theta)
        if isinstance(curve, Regular):
            a = as_real(curve.a, ctx)
            k = curve.k
            ak = a ** k
            s = mp.sin(k * theta)
            radicand = 1 - ak * ak * s * s
            if radicand < 0:
                if radicand < -slack:
                    raise DomainError(
                        f"theta={theta} outside the component of C_(a={a}, k={k})")
                radicand = mp.mpf(0)
            root = mp.sqrt(radicand)
            if branch == "outer":
                rk = ak * mp.cos(k * theta) + root
            elif branch == "inner":
                if a < 1:
                    raise DomainError("inner branch exists only for a > 1")
                rk = ak * mp.cos(k * theta) - root
            else:
                raise ConfigurationError(f"unknown branch {branch!r}")
            if rk <= 0:
                raise DomainError(f"no positive radius at theta={theta} ({branch})")
            return PolarPoint(mp.power(rk, mp.mpf(1) / k), theta)
        raise DomainError("polar_radius does not accept PolyLemniscate")


def normalized_arc_integral(exponent_2q, s_end, ctx: PrecisionContext) -> BigReal:
    """F(s_end) = int_0^{s_end} ds / sqrt(1 - s^(2q)); increasing in s_end.

    The incomplete Beta function (1/2q) B(z; 1/(2q), 1/2), z = s^(2q), w = 1 - z,
    with a 2F1 series argument never above 1/2 (DLMF 8.17.7 and 8.17.4):
    F(s) = s 2F1(1/2, 1/(2q); 1 + 1/(2q); z) for z <= 1/2, else
    F(s) = F(1) - (2 sqrt(w)/2q) 2F1(1/2, 1 - 1/(2q); 3/2; w), F(1) = B(1/2, 1/(2q))/(2q).
    """
    with ctx.workdps():
        twoq = as_real(exponent_2q, ctx)
        s_end = as_real(s_end, ctx)
        if twoq <= 0:
            raise DomainError(f"need 2q > 0, got {twoq}")
        if not 0 <= s_end <= 1:
            raise DomainError(f"need 0 <= s_end <= 1, got {s_end}")
        if s_end == 0:
            return mp.mpf(0)
        a = 1 / twoq
        half = mp.mpf(1) / 2
        z = mp.power(s_end, twoq)
        if z <= half:
            return s_end * hyp2f1(half, a, 1 + a, z, ctx)
        # 1 - s^(2q) without cancellation as s -> 1
        w = -mp.expm1(twoq * mp.log(s_end))
        return a * (beta(half, a, ctx) - 2 * mp.sqrt(w) * hyp2f1(half, 1 - a, 3 * half, w, ctx))


def _closed_regular_lt1(a: Fraction, k: int, ctx: PrecisionContext) -> BigReal:
    """2 pi 2F1((k-1)/2k, (k-1)/2k, 1; a^2k) for 0 < a < 1.

    For k = 2 the same length equals 4 K((1 - sqrt(1-a^4))/2); both are
    computed and must agree to 10**(-digits+3).
    """
    with ctx.workdps():
        av = as_real(a, ctx)
        p = mp.mpf(k - 1) / (2 * k)
        val = 2 * mp.pi * hyp2f1(p, p, 1, av ** (2 * k), ctx)
        if k == 2:
            alt = 4 * ellip_k((1 - mp.sqrt(1 - av ** 4)) / 2, ctx)
            if abs(val - alt) > mp.mpf(10) ** (-ctx.digits + 3) * max(mp.mpf(1), abs(val)):
                raise InternalConsistencyError(
                    f"2F1 and K forms of l(C_a) disagree at a={a}: {val} vs {alt}")
        return val


def total_length_closed(curve, ctx: PrecisionContext) -> BigReal:
    """Total length by closed form (Beta for leaves, 2F1/K for Regular)."""
    with ctx.workdps():
        if isinstance(curve, Sinusoidal):
            q = as_real(curve.q, ctx)
            return curve.b * 2 ** (1 / q) * beta(mp.mpf(1) / 2, 1 / (2 * q), ctx)
        if isinstance(curve, Regular):
            if curve.a < 1:
                return _closed_regular_lt1(curve.a, curve.k, ctx)
            scale = as_real(curve.a, ctx) ** (curve.k - 1)
            return _closed_regular_lt1(1 / curve.a, curve.k, ctx) / scale
        raise DomainError("no closed-form length for PolyLemniscate")


def total_length_quadrature(curve, ctx: PrecisionContext, route: str = "radial") -> BigReal:
    """Total length by direct quadrature, independent of the closed forms.

    ``route='radial'`` integrates in the radius (default; both endpoint
    singularities handled by tanh-sinh), ``route='angular'`` uses the
    smooth angular integral, available for Regular curves.
    """
    if isinstance(curve, PolyLemniscate):
        raise DomainError("no arc-length quadrature for PolyLemniscate")
    if route not in ("radial", "angular"):
        raise ConfigurationError(f"unknown route {route!r}")
    with ctx.workdps():
        if isinstance(curve, Sinusoidal):
            if route == "angular":
                # at a = 1 the angular integrand degenerates to
                # cos(phi)^-(k-1)/k, whose tail is too shallow for the
                # default node cutoff; leaves use the radial form only
                raise ConfigurationError("angular route needs a Regular curve")
            q = as_real(curve.q, ctx)
            twoq = exponent_2q(curve)
            leaves = curve.leaves
            # l = 2a int_0^{2^{1/q}} dr / sqrt(1 - (r 2^{-1/q})^{2q})
            top = mp.power(2, 1 / q)

            def f(node):
                return 1 / mp.sqrt(_one_minus_power(node[2] / top, twoq))

            return 2 * leaves * tanh_sinh(f, 0, top, ctx).value
        a, k = curve.a, curve.k
        av = as_real(a, ctx)
        ak = av ** k
        if route == "angular":
            inv = av < 1
            base = av if inv else 1 / av
            bk = base ** k
            pfaff_b = 4 * bk / (1 + bk) ** 2
            expo = mp.mpf(k - 1) / (2 * k)
            comp = (1 - bk) ** 2 / (1 + bk) ** 2  # 1 - pfaff_b, cancellation-free

            def f(node):
                # 1 - pb sin^2 = cos^2 + (1-pb) sin^2; at a = 1 the raw
                # form cancels to rounding noise near phi = pi/2
                phi = node[0]
                w = mp.cos(phi) ** 2 + comp * mp.sin(phi) ** 2
                return mp.power(w, -expo)

            val = 4 / (1 + bk) ** (mp.mpf(k - 1) / k) * tanh_sinh(f, 0, mp.pi / 2, ctx).value
            return val if inv else val * base ** (k - 1)
        # evaluate the radial integral through y = r^k, whose endpoints
        # |1 - a^k| and 1 + a^k are exact; the singular quadratic factors
        # are kept in factored form, with the offsets from the endpoints
        # taken from the node:
        #   2k int 2 r^k dr / sqrt(.) = 4 int y^(1/k) dy / sqrt(.)
        y_lo = abs(1 - ak)
        y_hi = 1 + ak

        def f(node):
            y, da, db = node
            quart = da * (y + y_lo) * db * (y_hi + y)
            return mp.root(y, k) / mp.sqrt(quart)

        return 4 * tanh_sinh(f, y_lo, y_hi, ctx).value


def _angular_window(curve, ctx: PrecisionContext):
    """(period, half-width) of the windows |theta - j period| <= half-width
    holding the outer branch, or None when it covers every angle
    (Regular, a < 1)."""
    if isinstance(curve, Sinusoidal):
        q = as_real(curve.q, ctx)
        return 2 * mp.pi / q, mp.pi / (2 * q)
    if curve.a < 1:
        return None
    k = curve.k
    return 2 * mp.pi / k, mp.asin(as_real(curve.a, ctx) ** (-k)) / k


def polar_arc_length(curve, theta1, theta2, ctx: PrecisionContext) -> BigReal:
    """Arc length along the outer branch between two angles.

    Uses ds = r(theta) dtheta / sqrt(1 - a^2k sin^2(k theta)) for
    Regular curves and ds = r dtheta / |cos(q theta)| for leaves (the
    a = 1 degeneration of the same identity).  Where the branch ends at
    an angle (the leaf edge pi/(2q), or asin(a^-k)/k for a > 1, about
    the window center), the vanishing factor is formed from the node's
    distance e to that edge, taken from the integration limits and the
    node offsets; a limit within 10**-(working_digits - 5) of an edge is
    taken to be the edge.
    """
    if isinstance(curve, PolyLemniscate):
        raise DomainError("no arc length for PolyLemniscate")
    if isinstance(curve, Sinusoidal):
        # at the leaf edge the integrand behaves like cos(q theta)^(1/q - 1)
        alpha = min(1 / float(curve.q) - 1, -0.5)
    else:
        alpha = -0.5
    with ctx.workdps():
        t1 = as_real(theta1, ctx)
        t2 = as_real(theta2, ctx)
        if t1 == t2:
            return mp.mpf(0)
        if t1 > t2:
            t1, t2 = t2, t1
        window = _angular_window(curve, ctx)
        if window is not None:
            period, edge = window
            center = period * mp.nint((t1 + t2) / (2 * period))
            # distances of the limits from the window edges
            gap_lo, gap_hi = (t1 - center) + edge, edge - (t2 - center)
            snap = mp.mpf(10) ** (-(ctx.working_digits - 5))
            if gap_lo < -snap or gap_hi < -snap:
                raise DomainError(f"angles {t1}, {t2} leave the window of half-width {edge}")
            if gap_lo <= snap:
                gap_lo, t1 = mp.mpf(0), center - edge
            if gap_hi <= snap:
                gap_hi, t2 = mp.mpf(0), center + edge

        if isinstance(curve, Sinusoidal):
            q = as_real(curve.q, ctx)
            inv_q = 1 / curve.q

            def f(node):
                _, da, db = node
                # cos(q theta) = sin(q e), e the distance from the nearer edge
                c = mp.sin(q * min(gap_lo + da, gap_hi + db))
                return _rational_power(2 * c, inv_q) / c
        else:
            a = as_real(curve.a, ctx)
            k = curve.k
            ak = a ** k
            a2k = ak * ak

            def f(node):
                th, da, db = node
                if window is None:
                    w = 1 - a2k * mp.sin(k * th) ** 2
                else:
                    # with |theta - center| = edge - e and a^k sin(k edge) = 1,
                    # 1 - a^k sin(k(edge - e)) = 2 a^k cos(k(edge - e/2)) sin(k e/2)
                    e = min(gap_lo + da, gap_hi + db)
                    w = (2 * ak * mp.cos(k * (edge - e / 2)) * mp.sin(k * e / 2)
                         * (1 + ak * mp.sin(k * (edge - e))))
                if w <= 0:
                    raise DomainError(f"angle {th} outside the component")
                rk = ak * mp.cos(k * th) + mp.sqrt(w)
                return mp.root(rk, k) / mp.sqrt(w)

        return tanh_sinh(f, t1, t2, ctx, min_endpoint_exponent=alpha).value


def cassini_b(a, ctx: PrecisionContext) -> BigReal:
    """(1 - a^4)/a^4, the constant of the reduced Cassini integral."""
    with ctx.workdps():
        av = as_real(a, ctx)
        return (1 - av ** 4) / av ** 4


def cassini_reduced_integral(a, v_upper, ctx: PrecisionContext) -> BigReal:
    """I-value a^2 (4b)^(1/4) int_{sqrt(1-a^4)}^{v} dv / sqrt(v(1-v)(v^2-(1-a^4))).

    0 < a < 1, sqrt(1-a^4) <= v_upper <= 1.  The quartic's roots are
    -v0, 0, v0 = sqrt(1-a^4), 1 and the lower limit sits on v0, so
    Carlson's reduction (DLMF 19.29.4) gives 2 R_F(U12^2, U13^2, U14^2),
    U12 = Y1 Y2 X3 X4/d, U13 = X1 X3 Y2 Y4/d, U14 = Y1 Y4 X2 X3/d, with
    d = v - v0 and X_i, Y_i the roots of v + v0, v, v - v0, 1 - v at v, v0.
    """
    with ctx.workdps(10):
        av = as_real(a, ctx)
        if not 0 < av < 1:
            raise DomainError(f"need 0 < a < 1, got {av}")
        c = 1 - av ** 4
        vlo = mp.sqrt(c)
        vu = as_real(v_upper, ctx)
        slack = mp.mpf(10) ** (-ctx.digits)
        if vu > 1 + slack or vu < vlo - slack:
            raise DomainError(f"need sqrt(1-a^4) <= v_upper <= 1, got {vu}")
        vu = min(vu, mp.mpf(1))
        # v_upper carries at most working-digit accuracy, and near the
        # lower limit the u -> v map is quadratically degenerate, so an
        # interval thinner than the caller's resolution is empty by
        # construction (its true value is itself below sqrt-resolution)
        d = vu - vlo
        if d <= mp.mpf(10) ** (-(ctx.working_digits - 5)):
            return mp.mpf(0)
        pref = av ** 2 * mp.power(4 * c / av ** 4, mp.mpf(1) / 4)
        # the squares, with X3^2 = d cancelled once
        return 2 * pref * carlson_rf(2 * vlo * vlo * (1 - vu) / d, vlo * (1 - vlo) * (vu + vlo) / d,
                                     2 * vlo * (1 - vlo) * vu / d, ctx)


def v_of_u(u, a, ctx: PrecisionContext) -> BigReal:
    """v(u) = (cos(u)^2 / b + 1)^(-1/2) with b = (1-a^4)/a^4, u in [0, pi/2]."""
    with ctx.workdps():
        uv = as_real(u, ctx)
        slack = mp.mpf(10) ** (-ctx.digits)
        if uv < -slack or uv > mp.pi / 2 + slack:
            raise DomainError(f"need 0 <= u <= pi/2, got {uv}")
        b = cassini_b(a, ctx)
        return mp.power(mp.cos(uv) ** 2 / b + 1, mp.mpf(-1) / 2)


def cos_u_of_v(v, a, ctx: PrecisionContext) -> BigReal:
    """Inverse of :func:`v_of_u`: cos(u) = sqrt(b) sqrt(v^-2 - 1)."""
    with ctx.workdps():
        vv = as_real(v, ctx)
        if not 0 < vv <= 1:
            raise DomainError(f"need 0 < v <= 1, got {vv}")
        b = cassini_b(a, ctx)
        t = 1 / (vv * vv) - 1
        return mp.sqrt(b) * mp.sqrt(t)
