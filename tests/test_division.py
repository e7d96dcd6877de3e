import json
import logging
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from oracles import angular_arc_length, cassini_inversion, subarc_length, v_of_u
from serretlab import curves, division, quadrature
from serretlab.algebra import minpoly
from serretlab.cli import main
from serretlab.curves import (Erdos, Regular, Sinusoidal, cassini_reduced_integral,
                              total_length_closed)
from serretlab.division import (cassini_cos_u, divide_cassini, divide_fundamental_arc,
                                expand_by_symmetry, leaf_radius)
from serretlab.errors import ConfigurationError, DomainError
from serretlab.numkernel import make_context

SQRT2_OVER_2 = "0.70710678118654752440084436210484903928483593768847403658833987"


class TestDivideFundamentalArc:
    def test_circle_halving(self, ctx50):
        pts = divide_fundamental_arc(Erdos(1), 2, ctx50)
        assert abs(pts[1].s - mp.mpf(SQRT2_OVER_2)) < mp.mpf(10) ** -49
        assert pts[1].residual < mp.mpf(10) ** -45

    def test_root_on_coarse_bisection_midpoint(self):
        # arcsin(s_1) = pi/6 puts s_1 = 1/2 exactly on the first
        # bisection midpoint of [0, 1]
        pts = divide_fundamental_arc(Erdos(1), 3, make_context(80))
        assert abs(pts[1].s - mp.mpf(1) / 2) < mp.mpf(10) ** -80

    def test_degenerate_division(self, ctx50):
        pts = divide_fundamental_arc(Erdos(2), 1, ctx50)
        assert [p.s for p in pts] == [0, 1]
        assert pts[0].fraction == 0 and pts[1].fraction == 1

    def test_lemniscate_half_radius_polynomial(self, ctx50):
        s1 = divide_fundamental_arc(Erdos(2), 2, ctx50)[1].s
        assert abs(s1 ** 4 + 2 * s1 ** 2 - 1) < mp.mpf(10) ** -48

    def test_cartesian_consistency(self, ctx50):
        tol = mp.mpf(10) ** -48
        for p in divide_fundamental_arc(Erdos(3), 3, ctx50):
            assert abs(p.x - p.radius * mp.cos(p.theta)) <= tol
            assert abs(p.y - p.radius * mp.sin(p.theta)) <= tol
            assert 0 <= p.s <= 1

    def test_strict_ordering(self, ctx50):
        pts = divide_fundamental_arc(Sinusoidal(3, 2), 4, ctx50)
        svals = [p.s for p in pts]
        assert all(a < b for a, b in zip(svals, svals[1:]))

    def test_partition_property(self, ctx50):
        curve = Erdos(3)
        pts = divide_fundamental_arc(curve, 2, ctx50)
        total = total_length_closed(curve, ctx50)
        tol = mp.mpf(10) ** -45
        arcs = [subarc_length(curve, pts[i].s, pts[i + 1].s, ctx50) for i in range(2)]
        assert abs(arcs[0] - arcs[1]) < tol
        assert abs(sum(arcs) - total / 6) < tol

    def test_solver_precision_consistency(self):
        lo, hi = make_context(50), make_context(100)
        a = divide_fundamental_arc(Erdos(2), 2, lo)[1].s
        b = divide_fundamental_arc(Erdos(2), 2, hi)[1].s
        assert abs(a - b) < mp.mpf(10) ** -50

    def test_validation(self, ctx50):
        with pytest.raises(ConfigurationError):
            divide_fundamental_arc(Erdos(2), 0, ctx50)
        with pytest.raises(DomainError):
            divide_fundamental_arc(Regular(Fraction(1, 2), 2), 2, ctx50)


class TestExpandBySymmetry:
    def test_circle_antipodal(self, ctx50):
        pts = expand_by_symmetry(Erdos(1), divide_fundamental_arc(Erdos(1), 1, ctx50), ctx50)
        assert len(pts) == 2
        coords = [(round(float(p.x), 10), round(float(p.y), 10)) for p in pts]
        assert (0.0, 0.0) in coords and (2.0, 0.0) in coords

    def test_lemniscate_four_points(self, ctx50):
        pts = expand_by_symmetry(Erdos(2), divide_fundamental_arc(Erdos(2), 1, ctx50), ctx50)
        assert len(pts) == 4
        coords = {(round(float(p.x), 8), round(float(p.y), 8)) for p in pts}
        r = round(float(2 ** mp.mpf("0.5")), 8)
        assert (0.0, 0.0) in coords and (r, 0.0) in coords and (-r, -0.0) in coords or \
               (-r, 0.0) in coords

    def test_kiepert_twelve_points_equal_arcs(self, ctx50):
        curve = Erdos(3)
        fund = divide_fundamental_arc(curve, 2, ctx50)
        pts = expand_by_symmetry(curve, fund, ctx50)
        assert len(pts) == 12
        assert [p.index for p in pts] == list(range(12))
        total = total_length_closed(curve, ctx50)
        tol = mp.mpf(10) ** -45
        # each consecutive pair lies within one half-leaf; re-integrate in s
        for p, q in zip(pts, pts[1:]):
            lo, hi = (p.s, q.s) if p.s <= q.s else (q.s, p.s)
            arc = subarc_length(curve, lo, hi, ctx50)
            assert abs(arc - total / 12) < tol

    def test_fractions_of_whole(self, ctx50):
        pts = expand_by_symmetry(Erdos(2), divide_fundamental_arc(Erdos(2), 2, ctx50), ctx50)
        assert [p.fraction for p in pts] == [Fraction(i, 8) for i in range(8)]

    def test_rejects_foreign_list(self, ctx50):
        pts = divide_fundamental_arc(Erdos(2), 2, ctx50)
        with pytest.raises(ConfigurationError):
            expand_by_symmetry(Erdos(2), pts[1:], ctx50)

    @pytest.mark.parametrize("curve,l", [(Erdos(3), 2), (Erdos(2), 3), (Sinusoidal(1, 3), 2)],
                             ids=["erdos3-l2", "erdos2-l3", "sinusoidal1_3-l2"])
    def test_meets_the_context_contract(self, curve, l):
        # run at the 15 digits that the CLI leaves ambient, every coordinate
        # matches a 100-digit recomputation to 1e-50
        lo, hi = make_context(50), make_context(100)
        with mp.workdps(15):
            got = expand_by_symmetry(curve, divide_fundamental_arc(curve, l, lo), lo)
        want = expand_by_symmetry(curve, divide_fundamental_arc(curve, l, hi), hi)
        assert len(got) == len(want) == 2 * curve.leaves * l
        with mp.workdps(120):
            for p, q in zip(got, want):
                for name in ("s", "radius", "theta", "x", "y"):
                    a, b = getattr(p, name), getattr(q, name)
                    assert abs(a - b) <= mp.mpf(10) ** -50 * max(1, abs(b)), (p.index, name)


class TestDivideKiepert:
    def test_tip_radius(self, ctx50):
        pts = divide_fundamental_arc(Erdos(3), 1, ctx50)
        assert abs(pts[-1].radius - 2 ** (mp.mpf(1) / 3)) < mp.mpf(10) ** -49

    def test_half_point_polynomial(self, ctx50):
        # golden: minimal polynomial of the l=2 midpoint is 2x^4 + 2x^2 - 1
        s1 = divide_fundamental_arc(Erdos(3), 2, ctx50)[1].s
        assert abs(2 * s1 ** 4 + 2 * s1 ** 2 - 1) < mp.mpf(10) ** -48

    def test_thirds_residuals(self, ctx50):
        pts = divide_fundamental_arc(Erdos(3), 3, ctx50)
        assert all(p.residual < mp.mpf(10) ** -45 for p in pts)
        # golden: s_2 = 2^(-1/3)
        assert abs(2 * pts[2].s ** 3 - 1) < mp.mpf(10) ** -48


class TestDivideCassini:
    A = Fraction(4, 5)

    def test_degenerate_n1(self, ctx50):
        r = divide_cassini(self.A, 1, ctx50)
        assert r.u == 0 and r.cos_u == 1
        a = mp.mpf(4) / 5
        assert abs(r.P[0] - mp.sqrt(a * a + 1)) < mp.mpf(10) ** -48
        assert abs(r.P[1]) < mp.mpf(10) ** -48
        assert abs(r.P_prime[1] - mp.sqrt(1 - a * a)) < mp.mpf(10) ** -48
        quarter = total_length_closed(Regular(self.A, 2), ctx50) / 4
        assert abs(r.arc_length - quarter) < mp.mpf(10) ** -45

    def test_halving_arc(self, ctx50):
        r = divide_cassini(self.A, 2, ctx50)
        assert r.residual < mp.mpf(10) ** -45
        assert r.arc_residual < mp.mpf(10) ** -45
        # golden quartic for cos(u), found by the integer-relation search
        c = r.cos_u
        assert abs(256 * c ** 4 - 1512 * c ** 2 + 631) < mp.mpf(10) ** -44

    @pytest.mark.parametrize("digits", [50, 200])
    @pytest.mark.parametrize("a", [Fraction(1, 30), Fraction(1, 10), Fraction(1, 2),
                                   Fraction(4, 5), Fraction(9, 10), Fraction(29, 30)])
    def test_radial_arc_against_angular_oracle(self, a, digits):
        # the check integrates in y = r^2; the oracle in the angle, between
        # the same two points, and both must give l(C_a)/(4n)
        ctx = make_context(digits)
        curve = Regular(a, 2)
        tol = mp.mpf(10) ** -(digits - 5)
        length = total_length_closed(curve, ctx)
        for n in range(1, 5):
            r = divide_cassini(a, n, ctx)
            angular = angular_arc_length(curve, r.u / 2, mp.pi / 2 - r.u / 2, ctx)
            assert abs(r.arc_length - angular) <= tol, n
            assert abs(r.arc_length - length / (4 * n)) <= tol, n

    @pytest.mark.parametrize("a", [Fraction(1, 10), Fraction(4, 5), Fraction(29, 30),
                                   1 - Fraction(1, 10 ** 20), 1 - Fraction(1, 10 ** 40),
                                   Fraction(1, 10 ** 6), 1 - Fraction(1, 10 ** 50)])
    def test_against_elliptic_inversion(self, a):
        # the package's Landen sn against mpmath's; as a -> 1 this needs
        # c = 1 - a^4 exact, which a rounded a loses to cancellation, and
        # as a -> 0 it needs 1 - v0 = a^4/(1 + v0) and cos(u) from sn and cn
        cases = [(50, range(1, 5)), (200, range(1, 5))]
        if a == self.A:
            cases.append((1000, range(2, 5)))
        for digits, ns in cases:
            ctx = make_context(digits)
            tol = mp.mpf(10) ** -(digits + 3)
            for n in ns:
                if digits == 50:  # the whole division, whose two checks must pass too
                    r = divide_cassini(a, n, ctx)
                    got = r.cos_u, r.v_u
                else:  # the point alone, the same bits: the arc check takes seconds
                    got = cassini_cos_u(a, n, ctx)
                v_u, cos_u = cassini_inversion(a, n, ctx)
                assert abs(got[0] - cos_u) <= tol and abs(got[1] - v_u) <= tol, (digits, n)

    def test_monotone_reduced_integral(self, ctx50):
        us = [mp.mpf(i) / 10 * mp.pi / 2 for i in range(0, 11, 2)]
        vals = [cassini_reduced_integral(self.A, v_of_u(u, self.A, ctx50), ctx50)
                for u in us]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self, ctx50):
        with pytest.raises(DomainError):
            divide_cassini(Fraction(3, 2), 2, ctx50)
        with pytest.raises(ConfigurationError):
            divide_cassini(self.A, 0, ctx50)


class TestSolverCost:
    """Machine-independent cost gate: F evaluations per interior point."""

    LEAVES = [Erdos(1), Erdos(2), Erdos(3), Erdos(4),
              Sinusoidal(1, 3), Sinusoidal(11, 2), Sinusoidal(16, 3)]
    CASSINI = [Fraction(1, 10), Fraction(1, 5), Fraction(4, 5), Fraction(9, 10)]

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"F": 0, "tanh_sinh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for attr in ("normalized_arc_integral", "cassini_reduced_integral"):
            monkeypatch.setattr(division, attr, counted("F", getattr(division, attr)))
        for mod in (quadrature, curves):
            monkeypatch.setattr(mod, "tanh_sinh", counted("tanh_sinh", mod.tanh_sinh))
        return counts

    @pytest.mark.parametrize("digits", [50, 100])
    def test_leaf_division(self, counts, digits):
        ctx = make_context(digits)
        for curve in self.LEAVES:
            for l in (2, 3):
                counts["F"] = 0
                divide_fundamental_arc(curve, l, ctx)
                # one F(1) for the total, then at most 10 per interior point
                assert counts["F"] - 1 <= 10 * (l - 1), (curve, l, counts["F"])
        assert counts["tanh_sinh"] == 0

    @pytest.mark.parametrize("digits", [50, 100])
    def test_cassini_division(self, counts, digits):
        # no solve: the two reduced integrals are the residual, I(v_u) and I(1)
        ctx = make_context(digits)
        for a in self.CASSINI:
            for n in (2, 3, 4):
                counts["F"] = 0
                divide_cassini(a, n, ctx)
                assert counts["F"] == 2, (a, n, counts["F"])


class TestOnePoint:
    """A point computed alone is, bit for bit, that point of the whole division."""

    def test_leaf_radius(self, ctx50):
        for curve in TestSolverCost.LEAVES:
            for l in (2, 3):
                for i, p in enumerate(divide_fundamental_arc(curve, l, ctx50)):
                    assert leaf_radius(curve, Fraction(i, l), ctx50) == (p.s, p.residual)

    def test_cassini_cos_u(self, ctx50):
        for a in TestSolverCost.CASSINI:
            for n in (2, 3, 4):
                r = divide_cassini(a, n, ctx50)
                assert cassini_cos_u(a, n, ctx50) == (r.cos_u, r.v_u)

    def test_leaf_validation(self, ctx50):
        with pytest.raises(ConfigurationError):
            leaf_radius(Erdos(2), Fraction(3, 2), ctx50)
        with pytest.raises(DomainError):
            leaf_radius(Regular(Fraction(1, 2), 2), Fraction(1, 2), ctx50)


class TestMinpolyDivisionCost:
    """`divide --minpoly` and `minpoly --from` compute each point once at the
    requested digits, and once more at +40 to re-verify a found relation;
    only `divide --cassini` integrates, an arc once and its residual's two
    reduced integrals, and the Cassini points themselves integrate nothing."""

    @staticmethod
    def calls(monkeypatch, capsys, argv, *names):
        """{name: argument tuples of each division.<name> call made by argv}."""
        calls = {}
        for name in names:
            def counted(*args, fn=getattr(division, name), seen=calls.setdefault(name, [])):
                seen.append(args)
                return fn(*args)

            monkeypatch.setattr(division, name, counted)
        assert main(argv) == 0
        capsys.readouterr()
        return calls

    @staticmethod
    def digits(calls):
        return Counter(args[-1].digits for args in calls)

    def test_leaf(self, monkeypatch, capsys):
        # six radii at 60 digits, of which the endpoints 0 and 1 solve
        # nothing; the four interior ones are solved again at 100
        calls = self.calls(monkeypatch, capsys,
                           ["divide", "--erdos", "1", "--parts", "5", "--minpoly", "--digits", "60"],
                           "leaf_radius")["leaf_radius"]
        assert self.digits(calls) == {60: 6, 100: 4}
        assert self.digits(c for c in calls if 0 < c[1] < 1) == {60: 4, 100: 4}

    def test_cassini(self, monkeypatch, capsys):
        calls = self.calls(monkeypatch, capsys,
                           ["divide", "--cassini", "a=4/5", "--n", "2", "--minpoly", "--digits", "100"],
                           "cassini_cos_u", "radial_arc_integral", "cassini_reduced_integral")
        assert self.digits(calls["cassini_cos_u"]) == {100: 1, 140: 1}
        assert self.digits(calls["radial_arc_integral"]) == {100: 1}
        assert self.digits(calls["cassini_reduced_integral"]) == {100: 2}

    def test_cassini_pipeline(self, monkeypatch, capsys):
        calls = self.calls(monkeypatch, capsys,
                           ["minpoly", "--from", "cassini:a=4/5:n=2", "--digits", "100",
                            "--max-height", "1000000"],
                           "cassini_cos_u", "radial_arc_integral", "cassini_reduced_integral")
        assert self.digits(calls["cassini_cos_u"]) == {100: 1, 140: 1}
        assert calls["radial_arc_integral"] == calls["cassini_reduced_integral"] == []


class TestCassiniCertificate:
    # minimal polynomial of cos(u) at a = 4/5, n = 3: an even polynomial
    # of degree 16, listed here in y = x^2 from the constant term up
    Y_COEFFS = (121643214659, -364275189772, -961807042048, 124575524096, -78022405120,
                -185561595904, -31927042048, 2100297728, -16777216)

    def test_degree_16_polynomial_vanishes(self):
        cos_u = divide_cassini(Fraction(4, 5), 3, make_context(300)).cos_u
        with mp.workdps(400):
            resid = mp.fsum(c * cos_u ** (2 * i) for i, c in enumerate(self.Y_COEFFS))
        assert abs(resid) < mp.mpf(10) ** -250

    def test_vanishes_at_700_digits(self):
        # the README's re-verification, of cos(u) alone with no arc check
        cos_u = cassini_cos_u(Fraction(4, 5), 3, make_context(700))[0]
        with mp.workdps(800):
            resid = mp.fsum(c * cos_u ** (2 * i) for i, c in enumerate(self.Y_COEFFS))
        assert abs(resid) < mp.mpf(10) ** -690

    def test_minpoly_of_cos_u_squared(self):
        def y(ctx):
            cos_u = divide_cassini(Fraction(4, 5), 3, ctx).cos_u
            with ctx.workdps():
                return cos_u * cos_u

        cand = minpoly(y, 8, 10 ** 12, make_context(150))
        assert cand.status == "found" and cand.verified
        assert cand.coeffs in (self.Y_COEFFS, tuple(-c for c in self.Y_COEFFS))

    def test_degree_16_pipeline(self, capsys, caplog):
        # the README-scale command: cos(u) itself at degree 16, two searches
        # (17 terms find the relation, 16 terms prove it minimal)
        caplog.set_level(logging.DEBUG, logger="serretlab.algebra")
        code = main(["minpoly", "--from", "cassini:a=4/5:n=3", "--max-degree", "16",
                     "--max-height", "1000000000000", "--digits", "260"])
        (row,) = json.loads(capsys.readouterr().out)["results"]
        assert code == 0 and row["status"] == "found" and row["minpoly_verified"] is True
        # Y_COEFFS in x = cos(u), negated for a positive leading coefficient
        assert row["minpoly"] == (
            "16777216x^16 - 2100297728x^14 + 31927042048x^12 + 185561595904x^10 "
            "+ 78022405120x^8 - 124575524096x^6 + 961807042048x^4 + 364275189772x^2 "
            "- 121643214659")
        assert row["minpoly_degree"] == 16 and row["minpoly_height"] == 961807042048
        events = [r.pslq for r in caplog.records if r.name == "serretlab.algebra"]
        assert [(e["terms"], e["outcome"]) for e in events] == [(17, "relation"), (16, "proof")]

    def test_n3_none_is_a_proof(self, caplog):
        # acceptance criterion 10's bounds (degree <= 8, height <= 1e6) hold
        # no relation; the answer comes from one proof, not an exhausted search
        caplog.set_level(logging.DEBUG, logger="serretlab.algebra")
        ctx = make_context(100)
        cand = minpoly(lambda c: divide_cassini(Fraction(4, 5), 3, c).cos_u, 8, 10 ** 6, ctx)
        assert cand.status == "none"
        (event,) = [r.pslq for r in caplog.records if r.name == "serretlab.algebra"]
        assert event["terms"] == 9 and event["outcome"] == "proof"
        assert event["norm_bound"] > 10 ** 6 * 3


class TestSubarcLength:
    def test_full_equals_quarter_length(self, ctx50):
        got = subarc_length(Erdos(2), 0, 1, ctx50)
        want = total_length_closed(Erdos(2), ctx50) / 4
        assert abs(got - want) < mp.mpf(10) ** -45

    def test_empty(self, ctx50):
        assert subarc_length(Erdos(2), mp.mpf("0.3"), mp.mpf("0.3"), ctx50) == 0

    def test_validation(self, ctx50):
        with pytest.raises(DomainError):
            subarc_length(Erdos(2), mp.mpf("0.9"), mp.mpf("0.1"), ctx50)
