import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from serretlab.errors import ConfigurationError, DomainError
from serretlab.numkernel import (ELEMENTARY_OPS, GUARD_DIGITS, elementary, from_decimal,
                                 make_context, pi, to_decimal)

SQRT2_50 = "1.4142135623730950488016887242096980785696718753769"
PI_50 = "3.1415926535897932384626433832795028841971693993751"


class TestMakeContext:
    def test_echoes_input(self):
        ctx = make_context(50)
        assert ctx.digits == 50
        assert ctx.working_digits == 50 + GUARD_DIGITS

    def test_boundary_accepted(self):
        assert make_context(15).digits == 15
        assert make_context(1000).digits == 1000

    @pytest.mark.parametrize("bad", [10, 14, 1001, 0, -5])
    def test_out_of_range(self, bad):
        with pytest.raises(ConfigurationError):
            make_context(bad)

    def test_non_integer(self):
        with pytest.raises(ConfigurationError):
            make_context(50.0)


def _newton_sqrt2(digits):
    # independent oracle: Newton iteration at doubled precision,
    # accepted only after checking the square
    with mp.workdps(2 * digits + 10):
        x = mp.mpf(1.5)
        for _ in range(200):
            x_new = (x + 2 / x) / 2
            if abs(x_new - x) < mp.mpf(10) ** (-2 * digits):
                x = x_new
                break
            x = x_new
        assert abs(x * x - 2) < mp.mpf(10) ** (-2 * digits + 2)
        return x


class TestElementary:
    def test_sqrt_identity(self, ctx50):
        assert elementary("sqrt", 1, ctx=ctx50) == 1

    def test_sqrt2_against_newton_oracle(self, ctx50):
        got = elementary("sqrt", 2, ctx=ctx50)
        assert abs(got - _newton_sqrt2(50)) < mp.mpf(10) ** -50
        assert to_decimal(got, ctx50) == SQRT2_50

    def test_atan2_symmetry_case(self, ctx50):
        assert elementary("atan2", 0, 1, ctx=ctx50) == 0

    def test_binary_ops(self, ctx50):
        assert elementary("add", 2, 3, ctx=ctx50) == 5
        assert elementary("sub", 2, 3, ctx=ctx50) == -1
        assert elementary("mul", 6, 7, ctx=ctx50) == 42
        assert elementary("div", 1, 8, ctx=ctx50) == mp.mpf("0.125")
        assert elementary("pow", 2, 10, ctx=ctx50) == 1024
        assert elementary("pow", 0, 2, ctx=ctx50) == 0

    @pytest.mark.parametrize("op,args", [
        ("sqrt", (-1,)),
        ("log", (0,)),
        ("log", (-3,)),
        ("div", (1, 0)),
        ("pow", (-1, 0.5)),
        ("pow", (0, -1)),
        ("pow", (0, 0)),
        ("atan2", (0, 0)),
    ])
    def test_domain_errors(self, ctx50, op, args):
        with pytest.raises(DomainError):
            elementary(op, *args, ctx=ctx50)

    def test_unknown_op(self, ctx50):
        with pytest.raises(ConfigurationError):
            elementary("tan", 1, ctx=ctx50)

    def test_wrong_arity(self, ctx50):
        with pytest.raises(ConfigurationError):
            elementary("sqrt", 1, 2, ctx=ctx50)

    def test_op_list_stable(self):
        assert "atan2" in ELEMENTARY_OPS and "pow" in ELEMENTARY_OPS


def _machin_pi(digits):
    with mp.workdps(digits + 20):
        def acot(n):
            total = term = 1 / mp.mpf(n)
            k = 1
            n2 = n * n
            while abs(term) > mp.mpf(10) ** (-digits - 15):
                term = -term / n2
                total += term / (2 * k + 1)
                k += 1
            return total
        return 4 * (4 * acot(5) - acot(239))


def _agm_pi(digits):
    # Brent-Salamin
    with mp.workdps(digits + 20):
        a, b, t, p = mp.mpf(1), 1 / mp.sqrt(2), mp.mpf(1) / 4, mp.mpf(1)
        for _ in range(40):
            a_new = (a + b) / 2
            b = mp.sqrt(a * b)
            t -= p * (a - a_new) ** 2
            p *= 2
            if abs(a - a_new) < mp.mpf(10) ** (-digits - 10):
                a = a_new
                break
            a = a_new
        return (a + b) ** 2 / (4 * t)


class TestPi:
    def test_two_independent_formulas(self, ctx50):
        v = pi(ctx50)
        tol = mp.mpf(10) ** -50
        assert abs(v - _machin_pi(50)) < tol
        assert abs(v - _agm_pi(50)) < tol
        assert to_decimal(v, ctx50) == PI_50

    def test_sin_of_pi(self, ctx50):
        assert abs(elementary("sin", pi(ctx50), ctx=ctx50)) < mp.mpf(10) ** -50

    def test_arctangent_identity(self, ctx50):
        assert abs(4 * elementary("atan2", 1, 1, ctx=ctx50) - pi(ctx50)) < mp.mpf(10) ** -50


class TestSerialization:
    def test_exact_digit_count(self, ctx50):
        s = to_decimal(mp.mpf(2) / 3, ctx50)
        mantissa = s.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) == 50

    @pytest.mark.parametrize("value", ["2", "0.5", "12345.6789", "1e-30", "7e+40",
                                       "-3.25", "0.125"])
    def test_round_trip(self, ctx50, value):
        x = mp.mpf(value)
        s = to_decimal(x, ctx50)
        back = from_decimal(s, ctx50)
        scale = mp.mpf(10) ** (mp.mag(x) // 4 if x == 0 else 0)
        ulp = abs(x) * mp.mpf(10) ** -49 if x != 0 else mp.mpf(10) ** -49
        assert abs(back - x) <= ulp, (s, scale)

    def test_zero(self, ctx50):
        s = to_decimal(0, ctx50)
        assert s == "0." + "0" * 49
        assert from_decimal(s, ctx50) == 0

    def test_parse_garbage(self, ctx50):
        with pytest.raises(ConfigurationError):
            from_decimal("not-a-number", ctx50)


class TestAccuracyProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=10, allow_nan=False))
    def test_exp_log_and_sqrt_square_roundtrip(self, x):
        ctx = make_context(50)
        with mp.workdps(80):
            tol = mp.mpf(10) ** -48
            y = elementary("exp", elementary("log", x, ctx=ctx), ctx=ctx)
            assert abs(y - mp.mpf(x)) <= tol * max(1, abs(mp.mpf(x)))
            z = elementary("sqrt", x, ctx=ctx)
            assert abs(z * z - mp.mpf(x)) <= tol * max(1, abs(mp.mpf(x)))

    def test_sin_cos_pythagoras(self, ctx50):
        rng = random.Random(20260810)
        tol = mp.mpf(10) ** -48
        for _ in range(100):
            x = mp.mpf(rng.uniform(-10, 10))
            s = elementary("sin", x, ctx=ctx50)
            c = elementary("cos", x, ctx=ctx50)
            assert abs(s * s + c * c - 1) <= tol

    def test_precision_monotonicity(self):
        lo, hi = make_context(50), make_context(70)
        for op, args in [("sqrt", (2,)), ("exp", (1,)), ("log", (7,)), ("sin", (1,))]:
            a = elementary(op, *args, ctx=lo)
            b = elementary(op, *args, ctx=hi)
            assert abs(a - b) < mp.mpf(10) ** -50
        assert abs(pi(lo) - pi(hi)) < mp.mpf(10) ** -50
