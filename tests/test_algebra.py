import json
import logging
import random
from fractions import Fraction
from math import gcd, log10

import mpmath
import pytest
from mpmath import mp

from serretlab.algebra import (RAY_CLASS_DEGREE_CAP, DegreeBoundRecord, _nint_div,
                              documented_degree_bound, minpoly, pslq)
from serretlab.cli import main
from serretlab.curves import Erdos, Sinusoidal
from serretlab.division import divide_cassini, divide_fundamental_arc
from serretlab.errors import (ConfigurationError, ConvergenceError, DomainError,
                              SpuriousRelationError)
from serretlab.numkernel import as_real, from_decimal, make_context


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

    def test_integer_input(self, ctx50):
        # x - m without a search, and without recomputing alpha
        def never(c):
            raise AssertionError("refine called")

        cand = minpoly(mp.mpf(-3), 4, 100, ctx50, refine=never)
        assert (cand.coeffs, cand.height, cand.status, cand.verified) == ((3, 1), 3, "found", True)
        assert cand.residual == 0

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


# -- outcomes, counts and the top-first search --------------------------------

# Cassini a = 4/5, n = 3: cos(u)^2 is a root of this degree-8 polynomial
# (coefficients of y^8 down to y^0)
CASSINI_N3_Y = (-16777216, 2100297728, -31927042048, -185561595904, -78022405120,
                124575524096, -961807042048, -364275189772, 121643214659)


@pytest.fixture
def searches(caplog):
    """Reader of the per-search debug events, cleared after each read."""
    caplog.set_level(logging.DEBUG, logger="serretlab.algebra")

    def read():
        events = [r.pslq for r in caplog.records if r.name == "serretlab.algebra"]
        caplog.clear()
        return events
    return read


def _constant(fn):
    """A named constant evaluated the way ``minpoly --const`` does."""
    def at(c):
        with c.workdps():
            return fn()
    return at


PI = _constant(lambda: +mp.pi)
E = _constant(lambda: +mp.e)


def _digits_for(max_degree, max_height):
    """The precision budget of a degree/height pair, plus a margin."""
    return 20 + int((max_degree + 2) * log10(max_height)) + 10


def _root_literal(coeffs_high_first, lo, hi, digits):
    """A root in [lo, hi] by bisection, written with digits + 10 places."""
    with mp.workdps(digits + 30):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        f_lo = mp.polyval(coeffs_high_first, lo)
        for _ in range(int(3.33 * (digits + 30)) + 10):
            mid = (lo + hi) / 2
            f_mid = mp.polyval(coeffs_high_first, mid)
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return mp.nstr((lo + hi) / 2, digits + 10, strip_zeros=False)


def _eisenstein(seed, degree):
    """Monic, middle coefficients in {-2, 0, 2}, constant -2: irreducible,
    with a root in (0, 3).  Coefficients from the leading one down."""
    rng = random.Random(seed)
    return [1] + [rng.choice((-2, 0, 2)) for _ in range(degree - 1)] + [-2]


def _normal(rel):
    """Trailing zeros stripped, content removed, leading coefficient positive."""
    coeffs = list(rel)
    while coeffs[-1] == 0:
        coeffs.pop()
    content = 0
    for c in coeffs:
        content = gcd(content, abs(c))
    sign = 1 if coeffs[-1] > 0 else -1
    return tuple(sign * c // content for c in coeffs)


def test_nint_div_rounds_like_mp_nint():
    # ties to even on both signs of numerator and denominator
    for a in range(-13, 14):
        for b in (-4, -3, -2, -1, 1, 2, 3, 4):
            assert _nint_div(a, b) == int(mp.nint(mp.mpf(a) / b)), (a, b)


class TestPslqOutcomes:
    """None only after the norm-bound proof; exhaustion raises."""

    def test_proof(self, ctx50, searches):
        assert pslq([1, +mp.pi], 1000, ctx50) is None
        (event,) = searches()
        assert event["outcome"] == "proof" and event["terms"] == 2
        assert event["norm_bound"] > 1000 * mp.sqrt(2)

    def test_max_steps_exhausted(self, searches, monkeypatch):
        monkeypatch.setattr("serretlab.algebra.MAX_STEPS", 1)
        ctx = make_context(35)
        xs = [E(ctx) ** k for k in range(17)]
        with pytest.raises(ConvergenceError, match="max_steps") as info:
            pslq(xs, 2, ctx)
        state = info.value.state
        assert state["terms"] == 17 and state["iterations"] == 1
        assert state["norm_bound"] > 0
        best = info.value.best
        assert len(best) == 17 and all(isinstance(v, int) for v in best) and any(best)
        (event,) = searches()
        assert event["outcome"] == "exhausted" and event["iterations"] == 1

    def test_precision_exhausted(self, ctx50, searches):
        # (-4, 1) is an exact relation of height 4 > 3: detection rejects it,
        # its norm sqrt(17) < 3 sqrt(2) keeps the proof out of reach, and
        # the reduction runs H down to zero
        with pytest.raises(ConvergenceError, match="ran out of precision") as info:
            pslq([1, 4], 3, ctx50)
        assert sorted(info.value.best) == [-4, 1]
        assert info.value.state["terms"] == 2
        assert abs(info.value.state["norm_bound"] - mp.sqrt(17)) < mp.mpf(10) ** -40
        assert searches()[0]["outcome"] == "exhausted"
        # (3, 0, -1) kills (1, sqrt 2, 3) at height 3 > 2; a norm bound
        # above its norm sqrt(10) can only come from spent precision
        with pytest.raises(ConvergenceError, match="above max_height") as info:
            pslq([1, mp.sqrt(2), 3], 2, ctx50)
        assert sorted(info.value.best) == [-1, 0, 3]

    def test_minpoly_propagates_exhaustion(self, ctx50):
        with pytest.raises(ConvergenceError):
            minpoly(mp.mpf(4), 1, 3, ctx50)

    def test_cli_exit_3_document(self, capsys):
        code = main(["minpoly", "4." + "0" * 33, "--max-degree", "1", "--max-height", "3"])
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "ConvergenceError"
        assert sorted(int(v) for v in error["best"]) == [-4, 1]
        assert error["state"]["terms"] == "2" and error["state"]["iterations"] == "2"
        assert error["state"]["norm_bound"].startswith("4.12310562561766054982")


class TestPslqCounts:
    """Iteration and search counts: machine-independent regression gates.

    The iteration counts equal those of the earlier mpf implementation,
    whose 0-based loop index at return was one less (15, 88, 554, 1443).
    """

    @pytest.mark.parametrize("const, degree, digits, iterations", [
        (PI, 4, 31, 16), (PI, 8, 33, 89), (E, 16, 35, 555)], ids=["pi5", "pi9", "e17"])
    def test_none_is_one_proof(self, searches, const, degree, digits, iterations):
        assert digits == _digits_for(degree, 2)
        cand = minpoly(const, degree, 2, make_context(digits))
        assert cand.status == "none"
        (event,) = searches()
        assert (event["terms"], event["outcome"], event["iterations"]) == (
            degree + 1, "proof", iterations)
        assert event["norm_bound"] > 2 * mp.sqrt(degree + 1)

    def test_cassini_y_root(self, searches):
        ctx = make_context(_digits_for(8, 10 ** 12))
        alpha = from_decimal(_root_literal(CASSINI_N3_Y, 0, 1, ctx.digits), ctx)
        cand = minpoly(alpha, 8, 10 ** 12, ctx)
        assert cand.coeffs == tuple(-c for c in reversed(CASSINI_N3_Y))
        assert [(e["terms"], e["outcome"], e["iterations"]) for e in searches()] == [
            (9, "relation", 1444), (8, "proof", 1096)]

    def test_degree_16_root_two_searches(self, searches):
        coeffs = _eisenstein(16, 16)
        ctx = make_context(_digits_for(16, 2))
        alpha = from_decimal(_root_literal(coeffs, 0, 3, ctx.digits), ctx)
        cand = minpoly(alpha, 16, 2, ctx)
        assert cand.coeffs == tuple(reversed(coeffs))
        assert [(e["terms"], e["outcome"]) for e in searches()] == [
            (17, "relation"), (16, "proof")]

    def test_step_down_from_a_multiple(self, ctx50, searches):
        cand = minpoly(mp.sqrt(2), 4, 10, ctx50)
        assert cand.coeffs == (-2, 0, 1)
        events = searches()
        # the top search finds x^2 (x^2 - 2); the factor x^2 goes, and one
        # search on (1, sqrt 2) proves x^2 - 2 minimal
        assert [(e["terms"], e["outcome"]) for e in events] == [(5, "relation"), (2, "proof")]


def _by_degree(value, max_degree, max_height, ctx):
    """Reference: the degree-by-degree search, first relation wins."""
    with ctx.workdps(10):
        a = as_real(value, ctx)
        powers = [mp.mpf(1)]
        for _ in range(max_degree):
            powers.append(powers[-1] * a)
            rel = pslq(powers, max_height, ctx)
            if rel is not None:
                return _normal(rel)
    return None


def _findpoly(value, max_degree, max_height, ctx):
    """Oracle: mpmath's own findpoly at the requested digits."""
    with mp.workdps(ctx.digits):
        rel = mpmath.findpoly(value, max_degree, maxcoeff=max_height + 1, maxsteps=10 ** 5)
    return None if rel is None else _normal(rel[::-1])


def _literal_case(coeffs, lo, hi, max_degree, max_height, digits=None):
    digits = digits or _digits_for(max_degree, max_height)
    return lambda ctx: from_decimal(_root_literal(coeffs, lo, hi, digits), ctx), digits


def _equivalence_corpus():
    cases = {}
    for degree in (4, 8, 16):
        digits = _digits_for(degree, 2)
        coeffs = _eisenstein(degree, degree)
        cases[f"eisenstein{degree}"] = (
            lambda ctx, c=coeffs: from_decimal(_root_literal(c, 0, 3, ctx.digits), ctx),
            degree, 2, digits, tuple(reversed(coeffs)))
        cases[f"pi{degree}"] = (PI, degree, 2, digits, None)
        cases[f"e{degree}"] = (E, degree, 2, digits, None)
    # the top search finds a multiple and steps down
    cases["sqrt2"] = (_constant(lambda: mp.sqrt(2)), 4, 10, 40, (-2, 0, 1))
    cases["phi"] = (_constant(lambda: (1 + mp.sqrt(5)) / 2), 4, 10, 40, (-1, -1, 1))
    cases["3/7"] = (_constant(lambda: mp.mpf(3) / 7), 4, 10, 40, (-3, 7))
    cases["erdos2"] = (lambda ctx: divide_fundamental_arc(Erdos(2), 2, ctx)[1].s,
                       8, 10 ** 4, 60, (-1, 0, 2, 0, 1))
    cases["erdos3"] = (lambda ctx: divide_fundamental_arc(Erdos(3), 2, ctx)[1].s,
                       8, 10 ** 4, 60, (-1, 0, 2, 0, 2))
    cases["cassini2"] = (lambda ctx: divide_cassini(Fraction(4, 5), 2, ctx).cos_u,
                         8, 10 ** 6, 100, (631, 0, -1512, 0, 256))
    return cases


EQUIVALENCE = _equivalence_corpus()


@pytest.mark.parametrize("name", sorted(EQUIVALENCE))
def test_top_first_equals_by_degree_and_findpoly(name):
    alpha, max_degree, max_height, digits, want = EQUIVALENCE[name]
    ctx = make_context(digits)
    cand = minpoly(alpha, max_degree, max_height, ctx)
    got = cand.coeffs if cand.status == "found" else None
    assert got == want
    if got is not None:
        assert cand.verified
    value = alpha(ctx)
    assert _by_degree(value, max_degree, max_height, ctx) == want
    assert _findpoly(value, max_degree, max_height, ctx) == want
