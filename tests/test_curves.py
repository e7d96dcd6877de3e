from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from oracles import angular_arc_length, angular_total_length, subarc_length, v_of_u
from serretlab.curves import (Erdos, PolyLemniscate, Regular, Sinusoidal, _one_minus_power,
                              cassini_reduced_integral, exponent_2q,
                              normalized_arc_integral, normalized_arc_total,
                              radial_arc_integral, total_length_closed, total_length_quadrature)
from serretlab.division import divide_fundamental_arc
from serretlab.errors import ConfigurationError, DomainError
from serretlab.numkernel import as_real, make_context
from serretlab.quadrature import tanh_sinh
from serretlab.specfun import beta, ellip_k, hyp2f1

L_C2_60 = "7.41629870920548767373540138878104018487039529408706762231"


class TestCurveSpecs:
    def test_erdos_validation(self):
        assert Erdos(3).leaves == 3
        assert exponent_2q(Erdos(3)) == Fraction(6)
        with pytest.raises(ConfigurationError):
            Erdos(0)

    def test_sinusoidal_validation(self):
        assert Sinusoidal(3, 2).q == Fraction(3, 2)
        with pytest.raises(ConfigurationError):
            Sinusoidal(2, 4)
        with pytest.raises(ConfigurationError):
            Sinusoidal(0, 1)

    def test_regular_validation(self):
        assert Regular("0.8", 2).a == Fraction(4, 5)
        with pytest.raises(ConfigurationError):
            Regular(1, 2)
        with pytest.raises(ConfigurationError):
            Regular(Fraction(1, 2), 0)

    def test_poly_lemniscate_validation(self):
        assert len(PolyLemniscate((0, 1)).coeffs) == 2
        with pytest.raises(ConfigurationError):
            PolyLemniscate((1,))
        with pytest.raises(ConfigurationError):
            PolyLemniscate((1, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_erdos_is_the_integer_sinusoidal_spiral(self, ctx50, n):
        # r^n = 2 cos(n theta) is the sinusoidal spiral with q = n: the two
        # spellings give the same bits (mpf equality is exact)
        erdos, spiral = Erdos(n), Sinusoidal(n, 1)
        assert total_length_closed(erdos, ctx50) == total_length_closed(spiral, ctx50)
        assert (normalized_arc_total(exponent_2q(erdos), ctx50)
                == normalized_arc_total(exponent_2q(spiral), ctx50))
        for p, r in zip(divide_fundamental_arc(erdos, 3, ctx50),
                        divide_fundamental_arc(spiral, 3, ctx50)):
            assert (p.s, p.radius, p.theta, p.x, p.y, p.residual) == \
                (r.s, r.radius, r.theta, r.x, r.y, r.residual)


class TestNormalizedArcIntegral:
    def test_arcsine(self, ctx50):
        f_one = normalized_arc_total(2, ctx50)
        assert abs(f_one - mp.pi / 2) < mp.mpf(10) ** -49
        assert normalized_arc_integral(2, 1, f_one, ctx50) == f_one

    def test_quarter_beta(self, ctx50):
        got = normalized_arc_total(4, ctx50)
        want = beta(mp.mpf(1) / 2, mp.mpf(1) / 4, ctx50) / 4
        assert abs(got - want) < mp.mpf(10) ** -48

    def test_empty(self, ctx50):
        assert normalized_arc_integral(6, 0, normalized_arc_total(6, ctx50), ctx50) == 0

    def test_strictly_increasing(self, ctx50):
        grid = [mp.mpf(x) / 10 for x in range(0, 11)]
        f_one = normalized_arc_total(Fraction(1, 2), ctx50)
        vals = [normalized_arc_integral(Fraction(1, 2), s, f_one, ctx50) for s in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    # 2q = 2/3, 1, 2, 4, 6, 11, 32/3
    @pytest.mark.parametrize("curve", [
        Sinusoidal(1, 3), Sinusoidal(1, 2), Erdos(1), Erdos(2), Erdos(3),
        Sinusoidal(11, 2), Sinusoidal(16, 3)])
    @pytest.mark.parametrize("digits", [50, 200])
    def test_matches_subarc_quadrature(self, curve, digits):
        # closed form against a fresh quadrature of the arc, on both
        # sides of the series switch at s^(2q) = 1/2 and next to s = 1
        ctx = make_context(digits)
        twoq = exponent_2q(curve)
        inv = mp.mpf(twoq.denominator) / twoq.numerator
        scale = mp.power(2, -2 * inv)  # 2^(-1/q)
        f_one = normalized_arc_total(twoq, ctx)
        for s in (mp.power(mp.mpf(1) / 4, inv), mp.power(mp.mpf(3) / 4, inv),
                  1 - mp.mpf(10) ** -8, mp.mpf(1)):
            got = normalized_arc_integral(twoq, s, f_one, ctx)
            want = subarc_length(curve, 0, s, ctx) * scale
            assert abs(got - want) <= mp.mpf(10) ** -digits * max(1, want)


class TestTotalLengths:
    def test_circle(self, ctx50):
        assert abs(total_length_closed(Erdos(1), ctx50) - 2 * mp.pi) < mp.mpf(10) ** -49

    def test_cardioid_exact(self, ctx50):
        assert abs(total_length_closed(Sinusoidal(1, 2), ctx50) - 16) < mp.mpf(10) ** -48

    def test_quarter_spiral(self, ctx50):
        got = total_length_closed(Sinusoidal(1, 4), ctx50)
        assert abs(got - mp.mpf(256) / 3) < mp.mpf(10) ** -47

    def test_lemniscate_frozen(self, ctx50):
        assert abs(total_length_closed(Erdos(2), ctx50) - mp.mpf(L_C2_60)) < mp.mpf(10) ** -50

    @pytest.mark.parametrize("curve", [
        Erdos(1), Erdos(2), Erdos(3),
        Sinusoidal(1, 2), Sinusoidal(1, 4), Sinusoidal(3, 2),
        Regular(Fraction(3, 10), 2), Regular(Fraction(4, 5), 2),
        Regular(Fraction(3, 5), 3), Regular(2, 2), Regular(Fraction(5, 4), 3),
    ])
    def test_closed_matches_quadrature(self, ctx50, curve):
        closed = total_length_closed(curve, ctx50)
        quad = total_length_quadrature(curve, ctx50)
        assert abs(closed - quad) < mp.mpf(10) ** -45

    def test_erdos2_beta_value(self, ctx50):
        quad = total_length_quadrature(Erdos(2), ctx50)
        want = 2 ** mp.mpf("0.5") * beta(mp.mpf(1) / 2, mp.mpf(1) / 4, ctx50)
        assert abs(quad - want) < mp.mpf(10) ** -45

    def test_regular_vs_2f1(self, ctx50):
        quad = total_length_quadrature(Regular(Fraction(3, 5), 3), ctx50)
        a = mp.mpf(3) / 5
        want = 2 * mp.pi * hyp2f1(mp.mpf(1) / 3, mp.mpf(1) / 3, 1, a ** 6, ctx50)
        assert abs(quad - want) < mp.mpf(10) ** -45

    @pytest.mark.parametrize("digits", [50, 200])
    @pytest.mark.parametrize("a", [Fraction(3, 10), Fraction(4, 5), 1 - Fraction(1, 10 ** 40),
                                   Fraction(2)])
    def test_cassini_k_form(self, a, digits):
        # l(C_a) = 4 K(m), m = a^4 / (2 (1 + sqrt(1 - a^4))) with 1 - a^4
        # exact, and l(C_a) = b l(C_b) for a > 1, b = 1/a
        ctx = make_context(digits)
        b = min(a, 1 / a)
        octx = ctx.bumped(10)
        with octx.workdps():
            m = as_real(b ** 4, octx) / (2 * (1 + mp.sqrt(as_real(1 - b ** 4, octx))))
            want = 4 * ellip_k(m, octx) * as_real(b if a > 1 else 1, octx)
        got = total_length_closed(Regular(a, 2), ctx)
        assert abs(got - want) <= mp.mpf(10) ** -digits * want

    def test_scaling_a_greater_one(self, ctx50):
        big = total_length_quadrature(Regular(2, 2), ctx50)
        small = total_length_closed(Regular(Fraction(1, 2), 2), ctx50)
        assert abs(big - small / 2) < mp.mpf(10) ** -45

    def test_angular_route_matches(self, ctx50):
        for curve in (Regular(Fraction(4, 5), 2), Regular(2, 2)):
            r = total_length_quadrature(curve, ctx50)
            g = angular_total_length(curve, ctx50)
            assert abs(r - g) < mp.mpf(10) ** -45

    @pytest.mark.parametrize("a,k", [(1 - Fraction(1, 10 ** 40), 2), (1 - Fraction(1, 10 ** 40), 3),
                                     (1 + Fraction(1, 10 ** 40), 3)])
    def test_quadrature_near_a_one(self, a, k):
        # 1 - a^2k and |1 - a^k| cancel in a rounded a; the oracle is
        # 2 pi 2F1(p, p; 1; b^2k) with b^2k exact, b = min(a, 1/a), and
        # l(C_a) = b^(k-1) l(C_b) for a > 1
        b = min(a, 1 / a)
        with mp.workdps(160):
            p = mp.mpf(k - 1) / (2 * k)
            ref = 2 * mp.pi * mpmath.hyp2f1(p, p, 1, as_real(b ** (2 * k), make_context(160)))
            if a > 1:
                ref *= as_real(b, make_context(160)) ** (k - 1)
        got = total_length_quadrature(Regular(a, k), make_context(100))
        assert abs(got - ref) <= mp.mpf(10) ** -100 * ref

    def test_poly_rejected(self, ctx50):
        with pytest.raises(DomainError):
            total_length_closed(PolyLemniscate((0, 1)), ctx50)
        with pytest.raises(DomainError):
            total_length_quadrature(PolyLemniscate((0, 1)), ctx50)


def _reduced_quadrature(v0, v, ctx):
    """int_{v0}^{v} dt / sqrt(t (1-t) (t-v0) (t+v0)) by tanh-sinh."""
    # factored t^2 - v0^2, with t - v0 and 1 - t from the node offsets
    def f(node):
        t, da, db = node
        return 1 / mp.sqrt(t * ((1 - v) + db) * da * (t + v0))

    return tanh_sinh(f, v0, v, ctx).value


def _reduced_elliprf(v0, v):
    """The same integral by DLMF 19.29.4 with the lower limit on the root v0."""
    with mp.workdps(mp.dps + 40):
        y1, y2, y4 = mp.sqrt(2 * v0), mp.sqrt(v0), mp.sqrt(1 - v0)
        x1, x2, x3, x4 = mp.sqrt(v + v0), mp.sqrt(v), mp.sqrt(v - v0), mp.sqrt(1 - v)
        d = v - v0
        return 2 * mpmath.elliprf((y1 * y2 * x3 * x4 / d) ** 2, (x1 * x3 * y2 * y4 / d) ** 2,
                                  (y1 * y4 * x2 * x3 / d) ** 2)


class TestCassiniPieces:
    A = Fraction(4, 5)

    def test_empty_integral(self, ctx50):
        vlo = mp.sqrt(1 - (mp.mpf(4) / 5) ** 4)
        assert cassini_reduced_integral(self.A, vlo, ctx50) == 0

    def test_total_matches_length(self, ctx50):
        # l(C_a) = (2/a) I(pi/2)
        total = cassini_reduced_integral(self.A, 1, ctx50)
        length = total_length_closed(Regular(self.A, 2), ctx50)
        assert abs(mp.mpf(5) / 2 * total - length) < mp.mpf(10) ** -45

    def test_partial_monotone(self, ctx50):
        partial = cassini_reduced_integral(self.A, mp.mpf("0.9"), ctx50)
        total = cassini_reduced_integral(self.A, 1, ctx50)
        assert 0 < partial < total

    @pytest.mark.parametrize("a", [Fraction(1, 10), Fraction(1, 5), Fraction(4, 5),
                                   Fraction(9, 10), Fraction(99, 100)])
    def test_against_quadrature_and_mpmath(self, ctx50, a):
        av = mp.mpf(a.numerator) / a.denominator
        v0 = mp.sqrt(1 - av ** 4)
        pref = av ** 2 * mp.power(4 * (1 - av ** 4) / av ** 4, mp.mpf(1) / 4)
        tol = mp.mpf(10) ** -50
        for t in (mp.mpf(10) ** -6, mp.mpf(1) / 3, mp.mpf(9) / 10, mp.mpf(1)):
            v = v0 + t * (1 - v0)
            got = cassini_reduced_integral(a, v, ctx50)
            assert abs(got - pref * _reduced_quadrature(v0, v, ctx50)) <= tol * max(1, got)
            assert abs(got - pref * _reduced_elliprf(v0, v)) <= tol * max(1, got)

    def test_out_of_range(self, ctx50):
        with pytest.raises(DomainError):
            cassini_reduced_integral(self.A, mp.mpf("1.5"), ctx50)
        with pytest.raises(DomainError):
            cassini_reduced_integral(self.A, mp.mpf("0.1"), ctx50)
        with pytest.raises(DomainError):
            cassini_reduced_integral(Fraction(3, 2), 1, ctx50)

    def test_v_of_u_endpoints(self, ctx50):
        assert abs(v_of_u(mp.pi / 2, self.A, ctx50) - 1) < mp.mpf(10) ** -49
        want = mp.sqrt(1 - (mp.mpf(4) / 5) ** 4)
        assert abs(v_of_u(0, self.A, ctx50) - want) < mp.mpf(10) ** -49

    def test_u_domain(self, ctx50):
        with pytest.raises(DomainError):
            v_of_u(2, self.A, ctx50)


def _cassini_arc(a, theta1, theta2, ctx):
    """The arc of C_a between two angles in [0, pi/2], by the package's
    radial integral between the radii there,
    y = r^2 = a^2 cos(2 theta) + sqrt(1 - a^4 sin(2 theta)^2), passed as
    their gaps to 1 - a^2 and 1 + a^2."""
    with ctx.workdps():
        a2 = as_real(a, ctx) ** 2
        ya, yb = sorted(a2 * mp.cos(2 * t) + mp.sqrt(1 - a2 * a2 * mp.sin(2 * t) ** 2)
                        for t in (as_real(theta1, ctx), as_real(theta2, ctx)))
        return radial_arc_integral(a, 2, ya - (1 - a2), (1 + a2) - yb, ctx)


class TestPolarArcLength:
    """The angular arc oracle that the Cassini division's radial check is
    tested against."""

    def test_quarter_oval(self, ctx50):
        curve = Regular(Fraction(4, 5), 2)
        quarter = angular_arc_length(curve, 0, mp.pi / 2, ctx50)
        assert abs(quarter - total_length_closed(curve, ctx50) / 4) < mp.mpf(10) ** -45


class TestOneMinusPower:
    """The singular leaf factor 1 - (1-u)^p, against -expm1(p log1p(-u))."""

    @pytest.mark.parametrize("dps", [85, 1035])
    def test_against_expm1_log1p(self, dps):
        with mp.workdps(dps):
            for p in (Fraction(6), Fraction(2, 7), Fraction(80), Fraction(32, 3)):
                # both sides of the switch to the series at u = 1e-15
                for u in (mp.mpf("0.5"), mp.mpf("2e-15"), mp.mpf("9e-16"),
                          mp.mpf(10) ** -40, mp.mpf(10) ** -(dps + 100)):
                    got = _one_minus_power(u, p)
                    with mp.workdps(dps + 40):
                        ref = -mp.expm1(mp.mpf(p.numerator) / p.denominator * mp.log1p(-u))
                    # the plain power loses up to 15 of the 20 spare digits
                    assert abs(got - ref) <= mp.mpf(10) ** -(dps - 20) * ref, (p, u)


class TestWorkingPrecision:
    """Machine-independent gate: every integrand runs near the working digits,
    not at twice them, and the evaluation counts stay pinned."""

    # (label, call at 50 digits, integrand evaluations)
    CASES = [
        ("erdos 3", lambda ctx: total_length_quadrature(Erdos(3), ctx), 345),
        ("sinusoidal 1/3", lambda ctx: total_length_quadrature(Sinusoidal(1, 3), ctx), 173),
        ("regular a=4/5 k=3", lambda ctx: total_length_quadrature(Regular(Fraction(4, 5), 3), ctx),
         345),
        ("regular a=3/2 k=2", lambda ctx: total_length_quadrature(Regular(Fraction(3, 2), 2), ctx),
         345),
        ("regular angular", lambda ctx: angular_total_length(Regular(Fraction(4, 5), 3), ctx),
         691),
        ("cassini arc", lambda ctx: _cassini_arc(Fraction(4, 5), mp.mpf(1) / 5, mp.pi / 3, ctx),
         345),
        ("subarc", lambda ctx: subarc_length(Sinusoidal(1, 3), mp.mpf(1) / 4, 1, ctx), 345),
    ]

    @pytest.mark.parametrize("label,call,evals", CASES, ids=[c[0] for c in CASES])
    def test_integrand_precision_and_count(self, monkeypatch, label, call, evals):
        import oracles
        from serretlab import curves

        seen = []

        def recording(f, *args, **kwargs):
            def g(node):
                seen.append(mp.dps)
                return f(node)
            return tanh_sinh(g, *args, **kwargs)

        for mod in (curves, oracles):
            monkeypatch.setattr(mod, "tanh_sinh", recording)
        ctx = make_context(50)
        call(ctx)
        assert max(seen) <= ctx.working_digits + 25
        assert len(seen) == evals


def _record_quadratures(monkeypatch, call, ctx):
    """The results of every tanh_sinh run that ``call(ctx)`` makes."""
    import oracles
    from serretlab import curves

    results = []

    def recording(*args, **kwargs):
        results.append(tanh_sinh(*args, **kwargs))
        return results[-1]

    for mod in (curves, oracles):
        monkeypatch.setattr(mod, "tanh_sinh", recording)
    call(ctx)
    return results


# the domain edges: leaf exponents q = 1/7 and 7, a 40-leaf lemniscate,
# Regular curves on both sides of the a -> 1 leaf degeneration, and a
# Cassini oval far from it
EDGE_CASES = [
    ("sinusoidal 1/7", lambda ctx: total_length_quadrature(Sinusoidal(1, 7), ctx)),
    ("sinusoidal 7", lambda ctx: total_length_quadrature(Sinusoidal(7, 1), ctx)),
    ("erdos 40", lambda ctx: total_length_quadrature(Erdos(40), ctx)),
    *[(f"regular a={a} k={k}", lambda ctx, a=a, k=k: total_length_quadrature(Regular(a, k), ctx))
      for a in (Fraction(49, 50), Fraction(51, 50)) for k in (2, 3, 4, 5)],
    ("cassini a=1/10", lambda ctx: _cassini_arc(Fraction(1, 10), mp.mpf(1) / 10, mp.mpf(7) / 5,
                                                ctx)),
]


class TestStoppingRuleSweep:
    """The level tanh_sinh accepts, often one before two levels agree,
    against the same integral 20 digits deeper: within 10**-(digits+3)
    relative."""

    @staticmethod
    def check(monkeypatch, call, digits):
        ctx = make_context(digits)
        got = _record_quadratures(monkeypatch, call, ctx)
        ref = _record_quadratures(monkeypatch, call, ctx.bumped(20))
        assert got and len(got) == len(ref)
        for r, truth in zip(got, ref):
            gap = abs(r.value - truth.value)
            assert gap <= mp.mpf(10) ** -(digits + 3) * max(1, abs(truth.value))

    @pytest.mark.parametrize("digits", [25, 50, 200])
    @pytest.mark.parametrize("call", [c[1] for c in TestWorkingPrecision.CASES],
                             ids=[c[0] for c in TestWorkingPrecision.CASES])
    def test_working_precision_cases(self, monkeypatch, call, digits):
        self.check(monkeypatch, call, digits)

    @pytest.mark.parametrize("digits", [25, 50, 200])
    @pytest.mark.parametrize("call", [c[1] for c in EDGE_CASES], ids=[c[0] for c in EDGE_CASES])
    def test_domain_edges(self, monkeypatch, call, digits):
        self.check(monkeypatch, call, digits)
