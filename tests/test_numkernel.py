import pytest
from mpmath import mp

from serretlab.errors import ConfigurationError
from serretlab.numkernel import GUARD_DIGITS, from_decimal, make_context, to_decimal


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

    def test_bumped_may_exceed_the_caller_range(self):
        # the +40-digit re-verification of a 1000-digit answer
        assert make_context(1000).bumped(40).digits == 1040


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

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "+inf"])
    def test_parse_non_finite(self, ctx50, text):
        # mpmath reads these, but they are not decimal literals
        with pytest.raises(ConfigurationError, match="not a decimal literal"):
            from_decimal(text, ctx50)

    def test_parse_grouped_digits(self, ctx50):
        # mpmath alone reads '0.1_2' as 0.012
        assert from_decimal("0.1_2", ctx50) == from_decimal("0.12", ctx50)
        assert from_decimal("-1_000.5e1_0", ctx50) == from_decimal("-1000.5e10", ctx50)
