"""Independent routes that only the tests call, to check what the package
computes with."""

from fractions import Fraction

from mpmath import mp

from serretlab.errors import DomainError
from serretlab.quadrature import _one_minus_power, tanh_sinh
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
