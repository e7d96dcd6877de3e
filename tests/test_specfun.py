import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from serretlab import specfun
from serretlab.curves import Regular, _one_minus_power, total_length_closed, total_length_quadrature
from serretlab.errors import ConvergenceError, DomainError
from serretlab.numkernel import make_context, to_decimal
from serretlab.quadrature import tanh_sinh
from serretlab.specfun import beta, carlson_rf, ellip_k, ellip_sn, gamma, hyp2f1

GAMMA_QUARTER_50 = "3.6256099082219083119306851558676720029951676828801"
K_HALF_50 = "1.8540746773013719184338503471952600462175988235218"


class TestGamma:
    def test_factorial(self, ctx50):
        assert abs(gamma(5, ctx50) - 24) < mp.mpf(10) ** -48

    def test_half_is_sqrt_pi(self, ctx50):
        assert abs(gamma(mp.mpf(1) / 2, ctx50) - mp.sqrt(mp.pi)) < mp.mpf(10) ** -50

    def test_quarter_with_reflection_cross_check(self, ctx50):
        g14 = gamma(mp.mpf(1) / 4, ctx50)
        g34 = gamma(mp.mpf(3) / 4, ctx50)
        # reflection at z = 1/4: Gamma(1/4) Gamma(3/4) = pi / sin(pi/4)
        assert abs(g14 * g34 - mp.pi / mp.sin(mp.pi / 4)) < mp.mpf(10) ** -48
        assert to_decimal(g14, ctx50) == GAMMA_QUARTER_50

    def test_against_mpmath(self, ctx50):
        for x in (mp.mpf(1) / 3, mp.mpf(7) / 2, mp.mpf("0.001"), mp.mpf(120)):
            with mp.workdps(80):
                ref = mpmath.gamma(x)
            assert abs(gamma(x, ctx50) - ref) < mp.mpf(10) ** -48 * max(1, abs(ref))

    def test_domain(self, ctx50):
        for pole in (0, -1, -2, -7):
            with pytest.raises(DomainError):
                gamma(pole, ctx50)
        assert gamma(-2.5, ctx50) < 0  # Gamma(-5/2) = -8 sqrt(pi)/15

    @pytest.mark.parametrize("digits", [50, 1000])
    def test_negative_non_integer(self, digits):
        # Gamma(x) = Gamma(x + N) / (x (x+1) ... (x+N-1)); the 1 - z route
        # of 2F1 needs Gamma(-1/k)
        ctx = make_context(digits)
        for x in (mp.mpf(-1) / 2, mp.mpf(-1) / 3, mp.mpf(-1) / 5, mp.mpf(-5) / 2,
                  mp.mpf("-7.25"), mp.mpf(-1) / 1000, -1 + mp.mpf(10) ** -8):
            with mp.workdps(digits + 40):
                ref = mpmath.gamma(x)
            assert abs(gamma(x, ctx) - ref) <= mp.mpf(10) ** -digits * max(1, abs(ref))


class TestBeta:
    def test_half_half_is_pi(self, ctx50):
        assert abs(beta(mp.mpf(1) / 2, mp.mpf(1) / 2, ctx50) - mp.pi) < mp.mpf(10) ** -49

    def test_half_two(self, ctx50):
        # factorial form: B(1/2, k) = (k-1)! / ((1/2)(3/2)...(k-1/2)), k = 2
        assert abs(beta(mp.mpf(1) / 2, 2, ctx50) - mp.mpf(4) / 3) < mp.mpf(10) ** -49

    def test_golden_ratio_of_betas(self, ctx50):
        lhs = beta(mp.mpf(1) / 2, mp.mpf(1) / 10, ctx50) / beta(mp.mpf(1) / 2, mp.mpf(2) / 5, ctx50)
        assert abs(lhs - mp.sqrt(5 + 2 * mp.sqrt(5))) < mp.mpf(10) ** -48


class TestEllipK:
    def test_k0(self, ctx50):
        assert abs(ellip_k(0, ctx50) - mp.pi / 2) < mp.mpf(10) ** -50

    def test_defining_integral_oracle(self, ctx50):
        m = mp.mpf(1) / 2

        def f(node):
            t, _, db = node
            return 1 / mp.sqrt(db * (1 + t) * (1 - m * t * t))

        quad = tanh_sinh(f, 0, 1, ctx50).value
        v = ellip_k(m, ctx50)
        assert abs(v - quad) < mp.mpf(10) ** -45
        assert to_decimal(v, ctx50) == K_HALF_50

    def test_pfaff_transformation_of_k(self, ctx50):
        s = mp.mpf(1) / 3
        lhs = ellip_k(s, ctx50)
        rhs = ellip_k(s / (s - 1), ctx50) / mp.sqrt(1 - s)
        assert abs(lhs - rhs) < mp.mpf(10) ** -48

    def test_negative_parameter_and_domain(self, ctx50):
        assert ellip_k(-1, ctx50) > 0
        with pytest.raises(DomainError):
            ellip_k(1, ctx50)
        with pytest.raises(DomainError):
            ellip_k(2, ctx50)


class TestEllipSn:
    """Jacobi sn by descending Landen against mpmath's ``ellipfun``."""

    # the last is the parameter of the a = 4/5 Cassini division,
    # m = (1 - sqrt(1 - a^4))/2 with 1 - a^4 = 369/625
    PARAMS = {"0": lambda: mp.mpf(0), "1/10": lambda: mp.mpf(1) / 10,
              "3/10": lambda: mp.mpf(3) / 10, "0.49": lambda: mp.mpf(49) / 100,
              "0.9": lambda: mp.mpf(9) / 10, "cassini 4/5": lambda: (1 - mp.sqrt(369) / 25) / 2}

    @staticmethod
    def check(m, digits):
        ctx = make_context(digits)
        with mp.workdps(digits + 30):
            mv = TestEllipSn.PARAMS[m]()
            k = mp.ellipk(mv)
            for u in (0, k / 3, -k / 3, k, 5 * k / 2, 4 * k + mp.mpf(1) / 10):
                err = abs(ellip_sn(u, mv, ctx) - mp.ellipfun("sn", u, m=mv))
                assert err <= mp.mpf(10) ** -digits, (m, digits, u)

    @pytest.mark.parametrize("digits", [50, 200])
    @pytest.mark.parametrize("m", sorted(PARAMS))
    def test_against_ellipfun(self, m, digits):
        self.check(m, digits)

    def test_against_ellipfun_1000_digits(self):
        self.check("cassini 4/5", 1000)

    def test_domain(self, ctx50):
        for m in (mp.mpf(-1) / 10, 1, 2):
            with pytest.raises(DomainError):
                ellip_sn(mp.mpf(1) / 2, m, ctx50)


class TestCarlsonRF:
    CASES = [(1, 2, 3), (mp.mpf("0.3"), mp.mpf("0.3"), 7),      # two equal
             (0, mp.mpf("0.5"), 2), (mp.mpf(10) ** 12, mp.mpf("1e-9"), 1),
             (5, 5, 5)]

    @pytest.mark.parametrize("digits", [50, 200, 1000])
    def test_against_mpmath(self, digits):
        ctx = make_context(digits)
        for x, y, z in self.CASES:
            with mp.workdps(digits + 40):
                ref = mpmath.elliprf(x, y, z)
            got = carlson_rf(x, y, z, ctx)
            assert abs(got - ref) <= mp.mpf(10) ** -digits * max(1, abs(ref))

    def test_complete_integral(self, ctx50):
        # K(m) = R_F(0, 1 - m, 1) (DLMF 19.25.1)
        m = mp.mpf(1) / 2
        assert abs(carlson_rf(0, 1 - m, 1, ctx50) - ellip_k(m, ctx50)) < mp.mpf(10) ** -49

    def test_domain(self, ctx50):
        with pytest.raises(DomainError):
            carlson_rf(-1, 1, 2, ctx50)
        with pytest.raises(DomainError):
            carlson_rf(0, 0, 2, ctx50)


class TestHyp2F1:
    def test_at_zero(self, ctx50):
        assert hyp2f1(mp.mpf("0.3"), mp.mpf("1.7"), mp.mpf("0.9"), 0, ctx50) == 1

    def test_elliptic_special_case(self, ctx50):
        m = mp.mpf(3) / 10
        lhs = hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, m, ctx50)
        assert abs(lhs - 2 / mp.pi * ellip_k(m, ctx50)) < mp.mpf(10) ** -48

    def test_gauss_summation_at_one(self, ctx50):
        q = mp.mpf(1) / 4
        lhs = hyp2f1(q, q, 1, 1, ctx50)
        assert abs(lhs - mp.hyp2f1(q, q, 1, 1)) < mp.mpf(10) ** -49

    def test_against_mpmath(self, ctx50):
        with mp.workdps(80):
            cases = [(0.25, 0.75, 1.0, -9.0), (0.5, 0.5, 1.0, 0.95),
                     (0.25, 0.25, 1.0, 0.4096), (1.5, 0.5, 2.5, -0.5)]
            for p, q, r, z in cases:
                ref = mpmath.hyp2f1(mp.mpf(p), mp.mpf(q), mp.mpf(r), mp.mpf(z))
                got = hyp2f1(mp.mpf(p), mp.mpf(q), mp.mpf(r), mp.mpf(z), ctx50)
                assert abs(got - ref) < mp.mpf(10) ** -48 * max(1, abs(ref))

    def test_domain_errors(self, ctx50):
        with pytest.raises(DomainError):
            hyp2f1(1, 1, 0, mp.mpf("0.5"), ctx50)          # r = 0
        with pytest.raises(DomainError):
            hyp2f1(1, 1, -2, mp.mpf("0.5"), ctx50)         # r negative integer
        with pytest.raises(DomainError):
            hyp2f1(1, 1, 1, mp.mpf("1.5"), ctx50)          # z > 1
        with pytest.raises(DomainError):
            hyp2f1(1, 1, 1, 1, ctx50)                      # r - p - q <= 0 at z = 1


class TestHyp2F1NearOne:
    """The 1 - z route (DLMF 15.8.4) above z = 3/4, against mpmath."""

    # catalog lengths (p = q = (k-1)/2k, r = 1, so r - p - q = 1/k), a
    # generic triple and one with a negative parameter
    PARAMS = [(mp.mpf(1) / 4, mp.mpf(1) / 4, 1), (mp.mpf(2) / 5, mp.mpf(2) / 5, 1),
              (mp.mpf("0.3"), mp.mpf("1.7"), mp.mpf("2.9")),
              (mp.mpf(-1) / 3, mp.mpf(5) / 2, mp.mpf(7) / 4)]

    @pytest.mark.parametrize("digits", [15, 200, 1000])
    def test_against_mpmath(self, digits):
        ctx = make_context(digits)
        # a Fraction z stays exact in hyp2f1, so 1 - z keeps every digit;
        # the oracle takes it with 80 digits to spare
        for z in (mp.mpf("0.8"), mp.mpf("0.99"), 1 - mp.mpf(10) ** -6, 1 - Fraction(1, 10 ** 40)):
            for p, q, r in self.PARAMS:
                if isinstance(z, Fraction):
                    zc = z
                    with mp.workdps(digits + 80):
                        ref = mpmath.hyp2f1(p, q, r, mp.mpf(z.numerator) / z.denominator)
                else:
                    with ctx.workdps():
                        zc = +z  # the argument hyp2f1 sees
                    with mp.workdps(digits + 40):
                        ref = mpmath.hyp2f1(p, q, r, zc)
                got = hyp2f1(p, q, r, zc, ctx)
                assert abs(got - ref) <= mp.mpf(10) ** -digits * max(1, abs(ref)), (z, p, q, r)

    def test_route_taken_only_above_crossover(self, ctx50, monkeypatch):
        calls = []
        route = specfun._one_minus_z
        monkeypatch.setattr(specfun, "_one_minus_z",
                            lambda *args: calls.append(args[3]) or route(*args))
        p, q = mp.mpf(1) / 3, mp.mpf(1) / 4
        for z in ("0.6", "0.75", "0.76", "-9"):  # -9: Pfaff image 0.9
            hyp2f1(p, q, 1, mp.mpf(z), ctx50)
        # the route is handed 1 - z, for the Pfaff image 1/(1 - z)
        assert [mp.nstr(w, 3) for w in calls] == ["0.24", "0.1"]

    def test_integer_z_is_exact(self, ctx50):
        # z = -9: the Pfaff image 9/10 and its complement 1/10 are formed
        # from the int as rationals, not as floats
        p, q = mp.mpf(1) / 3, mp.mpf(1) / 4
        with mp.workdps(90):
            ref = mpmath.hyp2f1(p, q, 1, -9)
        assert abs(hyp2f1(p, q, 1, -9, ctx50) - ref) <= mp.mpf(10) ** -50 * ref

    def test_integer_excess_stays_on_series(self, ctx50, monkeypatch):
        # r - p - q = 0 (K(m)) and 1: the connection coefficients have poles,
        # so the direct series runs even at z = 0.95
        def refuse(*args):
            raise AssertionError("1 - z route taken")

        monkeypatch.setattr(specfun, "_one_minus_z", refuse)
        z = mp.mpf("0.95")
        for p, q, r in ((mp.mpf(1) / 2, mp.mpf(1) / 2, 1), (mp.mpf(1) / 4, mp.mpf(3) / 4, 2)):
            with mp.workdps(90):
                ref = mpmath.hyp2f1(p, q, r, z)
            assert abs(hyp2f1(p, q, r, z, ctx50) - ref) <= mp.mpf(10) ** -50 * max(1, ref)

    def test_series_refuses_a_hopeless_budget(self, ctx50):
        # integer r - p - q right next to z = 1: the series would need about
        # 10^14 terms, so it refuses at once instead of grinding
        start = time.process_time()
        with pytest.raises(ConvergenceError):
            hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, 1 - mp.mpf(10) ** -12, ctx50)
        # an exact z below 1 that rounds to 1 at working precision
        with pytest.raises(ConvergenceError):
            hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, 1 - Fraction(1, 10 ** 100), ctx50)
        assert time.process_time() - start < 1

    @pytest.mark.parametrize("z", ["0.3", "0.75", "0.9"])
    def test_tail_bound_stop(self, z):
        # ratios rising to z (p + q < r + 1) and falling to z (p + q > r + 1)
        for p, q, r in ((mp.mpf(1) / 3, mp.mpf(1) / 3, mp.mpf(3)),
                        (mp.mpf(5) / 2, mp.mpf(7) / 3, mp.mpf(1) / 2)):
            with mp.workdps(80):
                got = specfun._series_2f1(p, q, r, mp.mpf(z), 50)
                ref = mpmath.hyp2f1(p, q, r, mp.mpf(z))
            assert abs(got - ref) <= mp.mpf(10) ** -50 * max(1, abs(ref))


class TestRegularLengthEdge:
    """Boundary sweep: l(C_(a,k)) as a -> 1 from both sides, against mpmath.
    The plain 2F1 series needs up to 500,000 terms per value here; the
    whole sweep has a fixed CPU budget."""

    @staticmethod
    def _oracle(a, k):
        p = mp.mpf(k - 1) / (2 * k)
        if a < 1:
            return 2 * mp.pi * mpmath.hyp2f1(p, p, 1, a ** (2 * k))
        return a ** (1 - k) * 2 * mp.pi * mpmath.hyp2f1(p, p, 1, a ** (-2 * k))

    @pytest.mark.parametrize("digits", [15, 200])
    def test_a_to_one(self, digits):
        ctx = make_context(digits)
        start = time.process_time()
        for k in (2, 3, 5):
            for j in (2, 4, 6, 8, 20, 40):
                for a in (1 - Fraction(1, 10 ** j), 1 + Fraction(1, 10 ** j)):
                    # j more digits keep 1 - a^2k, of size 10^-j, good to digits + 40
                    with mp.workdps(digits + 40 + j):
                        ref = self._oracle(mp.mpf(a.numerator) / a.denominator, k)
                    got = total_length_closed(Regular(a, k), ctx)
                    assert abs(got - ref) <= mp.mpf(10) ** -digits * ref, (a, k)
                    if digits == 15 and j <= 8:  # the radial quadrature, as the CLI runs it
                        quad = total_length_quadrature(Regular(a, k), ctx)
                        assert abs(quad - ref) <= mp.mpf(10) ** -digits * ref, (a, k)
        assert time.process_time() - start < 60


class TestGaussValueAtOne:
    def test_half_half_two(self, ctx50):
        got = hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 2, 1, ctx50)
        assert abs(got - 4 / mp.pi) < mp.mpf(10) ** -49

    def test_p_zero_collapses(self, ctx50):
        assert abs(hyp2f1(0 + mp.mpf(10) ** -60, mp.mpf(1) / 3,
                          mp.mpf(3) / 2, 1, ctx50) - 1) < mp.mpf(10) ** -55

    def test_beta_bridge_k3(self, ctx50):
        # 2 pi 2F1((k-1)/2k, (k-1)/2k, 1; 1) = 2^(1/k) B(1/2, 1/(2k)), k = 3
        p = mp.mpf(2) / 6
        lhs = 2 * mp.pi * hyp2f1(p, p, mp.mpf(1), 1, ctx50)
        rhs = 2 ** (mp.mpf(1) / 3) * beta(mp.mpf(1) / 2, mp.mpf(1) / 6, ctx50)
        assert abs(lhs - rhs) < mp.mpf(10) ** -47

    def test_domain(self, ctx50):
        with pytest.raises(DomainError):
            hyp2f1(1, 1, 1, 1, ctx50)


class TestTransformationProperties:
    def test_symmetry(self, ctx50):
        tol = mp.mpf(10) ** -48
        for z in (mp.mpf("-0.7"), mp.mpf("0.45")):
            a = hyp2f1(mp.mpf(1) / 4, mp.mpf(2) / 3, mp.mpf(5) / 4, z, ctx50)
            b = hyp2f1(mp.mpf(2) / 3, mp.mpf(1) / 4, mp.mpf(5) / 4, z, ctx50)
            assert abs(a - b) <= tol

    def test_euler_integral(self, ctx50):
        # B(q, r-q) 2F1(p,q,r;z) = int_0^1 t^(q-1) (1-t)^(r-q-1) (1-zt)^(-p) dt
        # = (1/q) int_0^1 (1-t)^(r-q-1) (1-zt)^(-p) du with t = u^(1/q), whose
        # endpoint exponents r-q-1 are all -1/2 or more
        tol = mp.mpf(10) ** -45
        grid = [(Fraction(1, 4), Fraction(1, 2), Fraction(3, 2), Fraction(3, 10)),
                (Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(-4, 5)),
                (Fraction(3, 4), Fraction(1, 3), Fraction(1), Fraction(3, 5))]
        for p, q, r, z in grid:
            lhs = beta(q, r - q, ctx50) * hyp2f1(p, q, r, z, ctx50)

            def f(node, p=p, q=q, r=r, z=z):
                u, _, db = node  # 1 - t = 1 - (1 - db)^(1/q)
                return (_one_minus_power(db, 1 / q) ** (r - q - 1)
                        * (1 - z * u ** (1 / q)) ** (-p) / q)

            rhs = tanh_sinh(f, 0, 1, ctx50).value
            assert abs(lhs - rhs) <= tol

    def test_pfaff(self, ctx50):
        tol = mp.mpf(10) ** -48
        p, q, r = mp.mpf(1) / 4, mp.mpf(1) / 2, mp.mpf(3) / 2
        for z in (mp.mpf(-2), mp.mpf("-0.5"), mp.mpf("0.25"), mp.mpf("0.6")):
            lhs = hyp2f1(p, q, r, z, ctx50)
            rhs = (1 - z) ** (-p) * hyp2f1(p, r - q, r, z / (z - 1), ctx50)
            assert abs(lhs - rhs) <= tol

    def test_quadratic_transformation(self, ctx50):
        tol = mp.mpf(10) ** -48
        p, q = mp.mpf(1) / 4, mp.mpf(3) / 4
        for z in (mp.mpf("0.1"), mp.mpf("0.3"), mp.mpf("0.5")):
            lhs = hyp2f1(p, q, 2 * q, 4 * z / (1 + z) ** 2, ctx50)
            rhs = (1 + z) ** (2 * p) * hyp2f1(p, p - q + mp.mpf(1) / 2,
                                              q + mp.mpf(1) / 2, z * z, ctx50)
            assert abs(lhs - rhs) <= tol

    def test_agm_consistency(self, ctx50):
        tol = mp.mpf(10) ** -48
        for m in (mp.mpf(-1), mp.mpf(0), mp.mpf("0.2"), mp.mpf("0.7"), mp.mpf("0.95")):
            lhs = ellip_k(m, ctx50)
            rhs = mp.pi / 2 * hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, m, ctx50)
            assert abs(lhs - rhs) <= tol
