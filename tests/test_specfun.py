import mpmath
import pytest
from mpmath import mp

from serretlab.errors import DomainError
from serretlab.numkernel import make_context, to_decimal
from serretlab.quadrature import tanh_sinh
from serretlab.specfun import beta, carlson_rf, ellip_k, gamma, gauss_value_at_1, hyp2f1

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
        with pytest.raises(DomainError):
            gamma(0, ctx50)
        with pytest.raises(DomainError):
            gamma(-2.5, ctx50)


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

        def f(t):
            return 1 / mp.sqrt((1 - t * t) * (1 - m * t * t))

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
        rhs = gauss_value_at_1(q, q, mp.mpf(1), ctx50)
        assert lhs == rhs

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


class TestGaussValueAtOne:
    def test_half_half_two(self, ctx50):
        got = gauss_value_at_1(mp.mpf(1) / 2, mp.mpf(1) / 2, 2, ctx50)
        assert abs(got - 4 / mp.pi) < mp.mpf(10) ** -49

    def test_p_zero_collapses(self, ctx50):
        assert abs(gauss_value_at_1(0 + mp.mpf(10) ** -60, mp.mpf(1) / 3,
                                    mp.mpf(3) / 2, ctx50) - 1) < mp.mpf(10) ** -55

    def test_beta_bridge_k3(self, ctx50):
        # 2 pi 2F1((k-1)/2k, (k-1)/2k, 1; 1) = 2^(1/k) B(1/2, 1/(2k)), k = 3
        p = mp.mpf(2) / 6
        lhs = 2 * mp.pi * gauss_value_at_1(p, p, mp.mpf(1), ctx50)
        rhs = 2 ** (mp.mpf(1) / 3) * beta(mp.mpf(1) / 2, mp.mpf(1) / 6, ctx50)
        assert abs(lhs - rhs) < mp.mpf(10) ** -47

    def test_domain(self, ctx50):
        with pytest.raises(DomainError):
            gauss_value_at_1(1, 1, 1, ctx50)


class TestTransformationProperties:
    def test_symmetry(self, ctx50):
        tol = mp.mpf(10) ** -48
        for z in (mp.mpf("-0.7"), mp.mpf("0.45")):
            a = hyp2f1(mp.mpf(1) / 4, mp.mpf(2) / 3, mp.mpf(5) / 4, z, ctx50)
            b = hyp2f1(mp.mpf(2) / 3, mp.mpf(1) / 4, mp.mpf(5) / 4, z, ctx50)
            assert abs(a - b) <= tol

    def test_euler_integral(self, ctx50):
        # B(q, r-q) 2F1(p,q,r;z) = int_0^1 t^(q-1) (1-t)^(r-q-1) (1-zt)^(-p) dt
        tol = mp.mpf(10) ** -45
        grid = [(mp.mpf(1) / 4, mp.mpf(1) / 2, mp.mpf(3) / 2, mp.mpf("0.3")),
                (mp.mpf(1) / 2, mp.mpf(3) / 4, mp.mpf(2), mp.mpf("-0.8")),
                (mp.mpf(3) / 4, mp.mpf(1) / 3, mp.mpf(1), mp.mpf("0.6"))]
        for p, q, r, z in grid:
            lhs = beta(q, r - q, ctx50) * hyp2f1(p, q, r, z, ctx50)

            def f(t, p=p, q=q, r=r, z=z):
                return t ** (q - 1) * (1 - t) ** (r - q - 1) * (1 - z * t) ** (-p)

            worst = float(min(q - 1, r - q - 1, 0))
            rhs = tanh_sinh(f, 0, 1, ctx50, min_endpoint_exponent=worst).value
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
