"""Independent routes that only the tests call, to check what the package
computes with: fresh quadratures of lengths the package takes in closed
form or in the radius, and the map v(u) of the reduced Cassini integral."""

from fractions import Fraction

from mpmath import mp

from serretlab.curves import Regular, Sinusoidal, _one_minus_power, exponent_2q
from serretlab.errors import DomainError
from serretlab.numkernel import as_real
from serretlab.quadrature import tanh_sinh
from serretlab.specfun import beta


def beta_integral_check(n, i, ctx):
    """|quadrature - closed form| for int_0^1 s^i (1-s^(2n))^(-1/2) ds.

    The closed form is B(1/2, (i+1)/(2n)) / (2n).  The discrepancy must
    be at most 10**(-digits+5).
    """
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


def subarc_length(curve, s_a, s_b, ctx):
    """Arc length between normalized radii s_a <= s_b of a leaf, by quadrature.

    2^(1/q) int_{s_a}^{s_b} ds / sqrt(1 - s^(2q)); independent of the
    closed-form F of ``normalized_arc_integral``.
    """
    if not isinstance(curve, Sinusoidal):
        raise DomainError("subarc_length needs an Erdos or Sinusoidal curve")
    with ctx.workdps():
        twoq = exponent_2q(curve)
        sa = as_real(s_a, ctx)
        sb = as_real(s_b, ctx)
        if not 0 <= sa <= sb <= 1:
            raise DomainError(f"need 0 <= s_a <= s_b <= 1, got {sa}, {sb}")
        if sa == sb:
            return mp.mpf(0)
        scale = mp.power(2, 2 / as_real(twoq, ctx))
        gap = 1 - sb  # distance of the upper limit from the singular s = 1

        def f(node):
            return 1 / mp.sqrt(_one_minus_power(gap + node[2], twoq))

        return scale * tanh_sinh(f, sa, sb, ctx).value


def angular_total_length(curve, ctx):
    """l(C) of a Regular curve by the smooth angular integral

        l = 4 (1+a^k)^-(k-1)/k int_0^{pi/2} (1 - pb sin^2 phi)^-(k-1)/2k dphi,

    pb = 4 a^k/(1+a^k)^2, for a < 1; a > 1 scales from 1/a.
    """
    if not isinstance(curve, Regular):
        raise DomainError("angular_total_length needs a Regular curve")
    k = curve.k
    with ctx.workdps():
        av = as_real(curve.a, ctx)
        inv = av < 1
        base = av if inv else 1 / av
        bk = base ** k
        expo = mp.mpf(k - 1) / (2 * k)
        comp = (1 - bk) ** 2 / (1 + bk) ** 2  # 1 - pb, cancellation-free

        def f(node):
            # 1 - pb sin^2 = cos^2 + (1-pb) sin^2; at a = 1 the raw
            # form cancels to rounding noise near phi = pi/2
            phi = node[0]
            w = mp.cos(phi) ** 2 + comp * mp.sin(phi) ** 2
            return mp.power(w, -expo)

        val = 4 / (1 + bk) ** (mp.mpf(k - 1) / k) * tanh_sinh(f, 0, mp.pi / 2, ctx).value
        return val if inv else val * base ** (k - 1)


def angular_arc_length(curve, theta1, theta2, ctx):
    """Arc of the oval |z^k - a^k| = 1, a < 1, between angles theta1 < theta2:
    int r dtheta / sqrt(1 - a^2k sin^2(k theta)), in the angle rather than
    in the radius."""
    if not (isinstance(curve, Regular) and curve.a < 1):
        raise DomainError("angular_arc_length needs a Regular curve with a < 1")
    k = curve.k
    with ctx.workdps():
        ak = as_real(curve.a, ctx) ** k
        a2k = ak * ak

        def f(node):
            th = node[0]
            w = 1 - a2k * mp.sin(k * th) ** 2
            rk = ak * mp.cos(k * th) + mp.sqrt(w)
            return mp.root(rk, k) / mp.sqrt(w)

        return tanh_sinh(f, as_real(theta1, ctx), as_real(theta2, ctx), ctx).value


def v_of_u(u, a, ctx):
    """v(u) = (cos(u)^2 / b + 1)^(-1/2) with b = (1-a^4)/a^4, u in [0, pi/2]."""
    with ctx.workdps():
        uv = as_real(u, ctx)
        slack = mp.mpf(10) ** (-ctx.digits)
        if uv < -slack or uv > mp.pi / 2 + slack:
            raise DomainError(f"need 0 <= u <= pi/2, got {uv}")
        b = as_real((1 - Fraction(a) ** 4) / Fraction(a) ** 4, ctx)
        return mp.power(mp.cos(uv) ** 2 / b + 1, mp.mpf(-1) / 2)


def cassini_inversion(a, n, ctx):
    """(v_u, cos_u) of the order-n Cassini division with no Newton solve:
    the reduced integral inverted by Byrd and Friedman 256.00,
    v = v0 / (1 - (1 - v0) sn^2(((n-1)/n) K(m) | m)), v0 = sqrt(1 - a^4),
    m = (1 - v0)/2, through mpmath's ellipfun and ellipk, with 1 - a^4 exact."""
    a = Fraction(a)
    c = 1 - a ** 4
    with ctx.workdps(20):
        v0 = mp.sqrt(mp.mpf(c.numerator) / c.denominator)
        m = (1 - v0) / 2
        sn = mp.ellipfun("sn", mp.mpf(n - 1) / n * mp.ellipk(m), m=m)
        v = v0 / (1 - (1 - v0) * sn ** 2)
        b = c / a ** 4
        return v, mp.sqrt(mp.mpf(b.numerator) / b.denominator) * mp.sqrt(1 / (v * v) - 1)
