"""Curve catalog: arc-length integrands, total lengths.

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

Two independent total-length routes are provided: closed forms (Beta
for the leaf curves, 2F1 with an exact argument for Regular curves) and
direct quadrature of the arc-length integral in the radius,

    l = 2k int 2 r^k dr / sqrt((r^2k - (a^k-1)^2)((1+a^k)^2 - r^2k))

for Regular curves, taken in y = r^k by ``radial_arc_integral``, which
also gives the arc between two radii that the Cassini division checks.
Both limits are passed as gaps to the singular radii, which the integral
forms from the rational a.  The angular forms of the same lengths are
test oracles only; no polar equation is solved here.  The constants of
the reduced Cassini integral, which checks the Cassini division, are
formed in ``_cassini_scale``, again from the rational a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from mpmath import mp

from .errors import ConfigurationError, DomainError
from .numkernel import BigReal, PrecisionContext, as_real
from .quadrature import tanh_sinh
from .specfun import beta, carlson_rf, hyp2f1


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


def exponent_2q(curve) -> Fraction:
    """The 2q in the normalized arc integrand (1 - s^(2q))^(-1/2)."""
    if isinstance(curve, Sinusoidal):
        return 2 * curve.q
    raise DomainError(f"no normalized arc exponent for {type(curve).__name__}")


def normalized_arc_total(exponent_2q, ctx: PrecisionContext) -> BigReal:
    """F(1) = B(1/2, 1/(2q))/(2q), the normalized length of the half-leaf."""
    with ctx.workdps():
        a = 1 / as_real(exponent_2q, ctx)
        return a * beta(mp.mpf(1) / 2, a, ctx)


def normalized_arc_integral(exponent_2q, s_end, f_one, ctx: PrecisionContext) -> BigReal:
    """F(s_end) = int_0^{s_end} ds / sqrt(1 - s^(2q)); increasing in s_end.

    The incomplete Beta function (1/2q) B(z; 1/(2q), 1/2), z = s^(2q), w = 1 - z,
    with a 2F1 series argument never above 1/2 (DLMF 8.17.7 and 8.17.4):
    F(s) = s 2F1(1/2, 1/(2q); 1 + 1/(2q); z) for z <= 1/2, else
    F(s) = f_one - (2 sqrt(w)/2q) 2F1(1/2, 1 - 1/(2q); 3/2; w), f_one = F(1).
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
        return f_one - 2 * a * mp.sqrt(w) * hyp2f1(half, 1 - a, 3 * half, w, ctx)


def total_length_closed(curve, ctx: PrecisionContext) -> BigReal:
    """Total length by closed form: 2 leaves 2^(1/q) F(1) for the leaf
    curves, F(1) = B(1/2, 1/(2q))/(2q); for Regular curves
    2 pi 2F1(p, p; 1; b^(2k)), p = (k-1)/(2k), b = min(a, 1/a), with b^(2k)
    passed exact so that 1 - b^(2k) keeps its digits as a -> 1, and
    l(C_a) = a^-(k-1) l(C_(1/a)) for a > 1."""
    with ctx.workdps():
        if isinstance(curve, Sinusoidal):
            top = mp.power(2, 1 / as_real(curve.q, ctx))
            return 2 * curve.leaves * top * normalized_arc_total(exponent_2q(curve), ctx)
        if isinstance(curve, Regular):
            a, k = curve.a, curve.k
            p = Fraction(k - 1, 2 * k)
            val = 2 * mp.pi * hyp2f1(p, p, 1, min(a, 1 / a) ** (2 * k), ctx)
            return val if a < 1 else val / as_real(a, ctx) ** (k - 1)
        raise DomainError("no closed-form length for PolyLemniscate")


# below this distance u from a singular endpoint, 1 - (1-u)^p is summed as a
# series in u; above it the plain power loses < 15 of the spare digits
_CANCELLATION_FLOOR = mp.mpf("1e-15")


def _rational_power(x, p: Fraction) -> BigReal:
    """x^p for x >= 0 and p = m/n > 0: an integer root and an integer power,
    several times cheaper than exp(p log x)."""
    root = x if p.denominator == 1 else mp.root(x, p.denominator)
    return root ** p.numerator


def _one_minus_power(u, p: Fraction) -> BigReal:
    """1 - (1 - u)^p = -expm1(p log1p(-u)) for 0 < u <= 1 and p > 0, without
    cancellation as u -> 0.

    Below _CANCELLATION_FLOOR it is the binomial series sum_{j>=1} c_j u^j,
    c_1 = p, c_{j+1} = c_j (j - p)/(j + 1), each term below 1e-15 times the
    one before: a few multiplications instead of a log and an exp.
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


def total_length_quadrature(curve, ctx: PrecisionContext) -> BigReal:
    """Total length by direct quadrature in the radius, independent of the
    closed forms; tanh-sinh handles both endpoint singularities."""
    if isinstance(curve, PolyLemniscate):
        raise DomainError("no arc-length quadrature for PolyLemniscate")
    with ctx.workdps():
        if isinstance(curve, Sinusoidal):
            q = as_real(curve.q, ctx)
            twoq = exponent_2q(curve)
            leaves = curve.leaves
            # l = 2a int_0^{2^{1/q}} dr / sqrt(1 - (r 2^{-1/q})^{2q})
            top = mp.power(2, 1 / q)

            def f(node):
                return 1 / mp.sqrt(_one_minus_power(node[2] / top, twoq))

            return 2 * leaves * tanh_sinh(f, 0, top, ctx).value
        return 4 * radial_arc_integral(curve.a, curve.k, 0, 0, ctx)


def radial_arc_integral(a, k: int, gap_lo, gap_hi, ctx: PrecisionContext) -> BigReal:
    """int y^(1/k) dy / sqrt((y^2 - y_lo^2)(y_hi^2 - y^2)) on |z^k - a^k| = 1,
    from y_lo + gap_lo to y_hi - gap_hi.

    y = r^k runs between y_lo = |1 - a^k| and y_hi = 1 + a^k, formed from
    the rational a, and 2k int 2 r^k dr / sqrt(.) = 4 int y^(1/k) dy / sqrt(.):
    along a stretch where r is monotone the arc between two radii is 2/k
    times this integral, and 4 times it with both gaps 0 is l(C).  The
    singular factors y - y_lo and y_hi - y are a gap plus the node's
    distance from that limit.
    """
    ak = _as_fraction(a) ** k
    with ctx.workdps():
        y_lo = as_real(abs(1 - ak), ctx)
        y_hi = as_real(1 + ak, ctx)
        if gap_lo < 0 or gap_hi < 0 or gap_lo + gap_hi > y_hi - y_lo:
            raise DomainError(f"need gaps >= 0 within [{y_lo}, {y_hi}], got {gap_lo}, {gap_hi}")

        def f(node):
            y, da, db = node
            quart = (gap_lo + da) * (y + y_lo) * (gap_hi + db) * (y_hi + y)
            return mp.root(y, k) / mp.sqrt(quart)

        return tanh_sinh(f, y_lo + gap_lo, y_hi - gap_hi, ctx).value


def _cassini_scale(a, ctx: PrecisionContext) -> tuple:
    """(v0, w, pref) of the reduced Cassini integral at working + 10 digits:
    its lower limit v0 = sqrt(c), w = 1 - v0 = a^4/(1 + v0) and prefactor
    a^2 (4c/a^4)^(1/4), c = 1 - a^4 exact."""
    a = _as_fraction(a)
    if not 0 < a < 1:
        raise DomainError(f"need 0 < a < 1, got {a}")
    with ctx.workdps(10):
        av = as_real(a, ctx)
        c = as_real(1 - a ** 4, ctx)
        v0 = mp.sqrt(c)
        w = as_real(a ** 4, ctx) / (1 + v0)
        return v0, w, av ** 2 * mp.power(4 * c / av ** 4, mp.mpf(1) / 4)


def cassini_reduced_integral(a, v_upper, ctx: PrecisionContext) -> BigReal:
    """I-value a^2 (4b)^(1/4) int_{sqrt(1-a^4)}^{v} dv / sqrt(v(1-v)(v^2-(1-a^4))).

    0 < a < 1, sqrt(1-a^4) <= v_upper <= 1.  The quartic's roots are
    -v0, 0, v0 = sqrt(1-a^4), 1 and the lower limit sits on v0, so
    Carlson's reduction (DLMF 19.29.4) gives 2 R_F(U12^2, U13^2, U14^2),
    U12 = Y1 Y2 X3 X4/d, U13 = X1 X3 Y2 Y4/d, U14 = Y1 Y4 X2 X3/d, with
    d = v - v0 and X_i, Y_i the roots of v + v0, v, v - v0, 1 - v at v, v0.
    """
    vlo, _, pref = _cassini_scale(a, ctx)
    with ctx.workdps(10):
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
        # the squares, with X3^2 = d cancelled once
        return 2 * pref * carlson_rf(2 * vlo * vlo * (1 - vu) / d, vlo * (1 - vlo) * (vu + vlo) / d,
                                     2 * vlo * (1 - vlo) * vu / d, ctx)
