import pytest
from mpmath import mp

from serretlab.algebra import (RAY_CLASS_DEGREE_CAP, DegreeBoundRecord, documented_degree_bound,
                              minpoly, pslq)
from serretlab.curves import Erdos, Sinusoidal
from serretlab.division import divide_fundamental_arc
from serretlab.errors import ConfigurationError, DomainError, SpuriousRelationError
from serretlab.numkernel import make_context


def _kills(relation, xs, tol):
    dot = mp.fsum(m * x for m, x in zip(relation, xs))
    return abs(dot) < tol


class TestPslq:
    def test_exact_rational(self, ctx50):
        rel = pslq([1, 3], 100, ctx50)
        assert rel is not None and any(rel)
        assert _kills(rel, [mp.mpf(1), mp.mpf(3)], mp.mpf(10) ** -40)
        assert sorted(abs(v) for v in rel) == [1, 3]
        # y entries collapse together here, and the relation sits outside
        # the column of the smallest one
        for k in (3, 5):
            xs = [mp.mpf(1), mp.mpf(1) / k]
            rel = pslq(xs, 100, ctx50)
            assert rel is not None and sorted(abs(v) for v in rel) == [1, k]

    def test_golden_ratio(self, ctx50):
        phi = (1 + mp.sqrt(5)) / 2
        rel = pslq([1, phi, phi * phi], 100, ctx50)
        assert rel is not None
        assert _kills(rel, [mp.mpf(1), phi, phi * phi], mp.mpf(10) ** -40)
        assert sorted(abs(v) for v in rel) == [1, 1, 1]

    def test_lemniscate_radius_relation(self):
        ctx = make_context(60)
        alpha = divide_fundamental_arc(Erdos(2), 2, ctx)[1].s
        powers = [alpha ** k for k in range(5)]
        rel = pslq(powers, 10 ** 6, ctx)
        norm = [-v for v in rel] if rel[-1] < 0 else list(rel)
        assert norm == [-1, 0, 2, 0, 1]
        # re-verify at doubled precision
        ctx2 = make_context(120)
        alpha2 = divide_fundamental_arc(Erdos(2), 2, ctx2)[1].s
        assert _kills(norm, [alpha2 ** k for k in range(5)], mp.mpf(10) ** -90)

    def test_none_for_pi_rational(self, ctx50):
        assert pslq([1, +mp.pi], 1000, ctx50) is None

    def test_never_zero_vector(self, ctx50):
        for xs in ([1, 3], [1, mp.sqrt(2)], [2, 5, 9]):
            rel = pslq(xs, 10 ** 4, ctx50)
            assert rel is None or any(v != 0 for v in rel)

    def test_residual_bound_contract(self, ctx50):
        # returned relations satisfy |sum m x| < 10^(-0.8 digits) sum |m x|
        phi = (1 + mp.sqrt(5)) / 2
        xs = [mp.mpf(1), phi, phi * phi]
        rel = pslq(xs, 100, ctx50)
        dot = abs(mp.fsum(m * x for m, x in zip(rel, xs)))
        scale = mp.fsum(abs(m * x) for m, x in zip(rel, xs))
        assert dot < mp.mpf(10) ** -40 * scale

    def test_input_validation(self, ctx50):
        with pytest.raises(ConfigurationError):
            pslq([1], 100, ctx50)
        with pytest.raises(DomainError):
            pslq([1, 0], 100, ctx50)
        with pytest.raises(ConfigurationError):
            pslq([1, 2, 3], 10 ** 60, ctx50)  # precision budget exceeded


class TestMinpoly:
    def test_rational_recognition(self, ctx50):
        for num, den in ((3, 7), (1, 3), (1, 5)):
            cand = minpoly(mp.mpf(num) / den, 4, 1000, ctx50)
            assert cand.status == "found"
            assert cand.coeffs == (-num, den)
            assert cand.degree == 1 and cand.height == den

    def test_sqrt2_over_2(self, ctx50):
        cand = minpoly(mp.sqrt(2) / 2, 4, 1000, ctx50)
        assert cand.coeffs == (-1, 0, 2)
        assert cand.residual < mp.mpf(10) ** -40 * cand.height * cand.degree

    def test_pi_rejection(self, ctx50):
        cand = minpoly(+mp.pi, 6, 10 ** 4, ctx50)
        assert cand.status == "none"
        assert cand.coeffs == ()

    def test_refine_verification(self, ctx50):
        def phi_at(c):
            with c.workdps():
                return (1 + mp.sqrt(5)) / 2

        cand = minpoly(phi_at, 4, 100, ctx50)
        assert cand.coeffs == (-1, -1, 1)
        assert cand.verified

    def test_invariance_under_more_digits(self):
        a = minpoly(lambda c: mp.sqrt(2) / 2, 4, 1000, make_context(50))
        b = minpoly(lambda c: mp.sqrt(2) / 2, 4, 1000, make_context(90))
        assert a.coeffs == b.coeffs

    def test_spurious_relation_rejected(self, ctx50):
        # a non-refinable near-root: residual cannot shrink at +40 digits
        with mp.workdps(200):
            fake = mp.sqrt(2) / 2 + mp.mpf(10) ** -45

        def stuck(c):
            return fake

        with pytest.raises(SpuriousRelationError):
            minpoly(stuck, 4, 1000, ctx50)

    def test_budget_exhaustion_is_configuration_error(self, ctx50):
        # degree 16 at height 10^6 needs 20 + 17*6 > 50 digits; pi has no
        # low-degree relation, so the search cannot be completed honestly
        with pytest.raises(ConfigurationError):
            minpoly(+mp.pi, 16, 10 ** 6, ctx50)

    def test_double_precision_residual_invariant(self):
        # relation evaluated with exact integer weights against inputs
        # recomputed at doubled precision: residual < 10^(-1.6 digits + 10)
        ctx = make_context(50)
        cand = minpoly(lambda c: divide_fundamental_arc(Erdos(2), 2, c)[1].s,
                       4, 10 ** 4, ctx)
        ctx2 = make_context(100)
        alpha2 = divide_fundamental_arc(Erdos(2), 2, ctx2)[1].s
        dot = abs(mp.fsum(m * alpha2 ** k for k, m in enumerate(cand.coeffs)))
        assert dot < mp.mpf(10) ** (-80 + 10)

    def test_zero_input(self, ctx50):
        cand = minpoly(mp.mpf(0), 4, 100, ctx50)
        assert cand.coeffs == (0, 1)

    def test_normalization(self, ctx50):
        # content removed, leading coefficient positive
        cand = minpoly(-mp.sqrt(2), 4, 100, ctx50)
        assert cand.coeffs[-1] > 0
        from math import gcd
        g = 0
        for c in cand.coeffs:
            g = gcd(g, abs(c))
        assert g == 1


class TestDegreeBound:
    def test_circle(self):
        rec = documented_degree_bound(Erdos(1), 2)
        assert isinstance(rec, DegreeBoundRecord)
        assert rec.degree_cap == 4  # phi(8)
        assert "Q(zeta_8)" in rec.field_statement

    def test_circle_trivial(self):
        assert documented_degree_bound(Erdos(1), 1).degree_cap == 2  # phi(4)

    def test_lemniscate_and_kiepert_caps(self):
        assert documented_degree_bound(Erdos(2), 3).degree_cap == 16
        rec = documented_degree_bound(Erdos(3), 2)
        assert rec.degree_cap == RAY_CLASS_DEGREE_CAP
        assert f"configured cap {RAY_CLASS_DEGREE_CAP}" in rec.field_statement
        assert "degree at most 2" in rec.field_statement

    def test_unsupported(self):
        with pytest.raises(DomainError):
            documented_degree_bound(Erdos(4), 2)
        with pytest.raises(DomainError):
            documented_degree_bound(Sinusoidal(1, 2), 2)
