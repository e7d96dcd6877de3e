import importlib
import pkgutil
from fractions import Fraction

import pytest
from mpmath import mp

import serretlab
from oracles import beta_integral_check
from serretlab.errors import ConvergenceError, DomainError, IntegrandError
from serretlab.numkernel import make_context
from serretlab.quadrature import _RESEED, QuadratureResult, _accepted_error, _nodes, tanh_sinh

# frozen with mpmath.beta at 85 digits (independent of serretlab.specfun);
# parsed lazily so the ambient-precision fixture governs the conversion
QUARTER_B_HALF_QUARTER = (  # (1/4) B(1/2, 1/4) = int_0^1 ds/sqrt(1-s^4)
    "1.31102877714605990523241979494555970684137747571581158140841085190039529354")
SIXTH_B_HALF_THIRD = (      # (1/6) B(1/2, 1/3) = int_0^1 s ds/sqrt(1-s^6)
    "0.701091052662727130587509539525147067731511102711993048090996993538142382991")


# integrands take one node (x, da, db), da = x - a, db = b - x; on (0, 1)
# the singular factor 1 - s^(2m) is formed as db * (1 + s + ... + s^(2m-1))
def _arcsine(node):
    s, _, db = node
    return 1 / mp.sqrt(db * (1 + s))


def _quartic(node):
    s, _, db = node
    return 1 / mp.sqrt(db * (1 + s) * (1 + s * s))


def _sextic_odd(node):
    s, _, db = node
    return s / mp.sqrt(db * (1 + s + s * s) * (1 + s) * (1 - s + s * s))


def _corpus(ctx):
    with ctx.workdps():
        return [
            (_arcsine, 0, 1, mp.pi / 2),
            (_quartic, 0, 1, mp.mpf(QUARTER_B_HALF_QUARTER)),
            (_sextic_odd, 0, 1, mp.mpf(SIXTH_B_HALF_THIRD)),
            (lambda node: mp.exp(node[0]), 0, 1, mp.e - 1),
        ]


class TestTanhSinh:
    def test_arcsine(self, ctx50):
        r = tanh_sinh(_arcsine, 0, 1, ctx50)
        assert abs(r.value - mp.pi / 2) < mp.mpf(10) ** -50
        assert r.error_estimate >= 0

    def test_lemniscatic_period(self, ctx50):
        r = tanh_sinh(_quartic, 0, 1, ctx50)
        assert abs(r.value - mp.mpf(QUARTER_B_HALF_QUARTER)) < mp.mpf(10) ** -50

    def test_kiepert_odd_period(self, ctx50):
        r = tanh_sinh(_sextic_odd, 0, 1, ctx50)
        assert abs(r.value - mp.mpf(SIXTH_B_HALF_THIRD)) < mp.mpf(10) ** -50

    def test_error_contract_on_corpus(self, ctx50):
        for f, a, b, truth in _corpus(ctx50):
            r = tanh_sinh(f, a, b, ctx50)
            assert abs(r.value - truth) <= 10 * r.error_estimate

    def test_level_monotonicity(self, ctx50, monkeypatch):
        for f, a, b, truth in _corpus(ctx50):
            errors = []
            for level in range(2, 8):
                monkeypatch.setattr("serretlab.quadrature.MAX_LEVEL", level)
                try:
                    v = tanh_sinh(f, a, b, ctx50).value
                except ConvergenceError as e:
                    v = e.best.value
                errors.append(abs(v - truth))
            floor = mp.mpf(10) ** -50
            for lo, hi in zip(errors[1:], errors):
                assert lo <= hi + floor

    def test_linearity(self, ctx50):
        f, a, b, truth = _corpus(ctx50)[1]
        for c in (mp.mpf(3), mp.mpf("0.125"), mp.mpf(7) / 11):
            r = tanh_sinh(lambda node: c * f(node), a, b, ctx50)
            assert abs(r.value - c * truth) < mp.mpf(10) ** -48

    def test_interval_additivity(self, ctx50):
        truth = _corpus(ctx50)[1][3]
        m = mp.mpf(7) / 10

        def f(node):  # 1 - s = (1 - m) + db on (0, m)
            s, _, db = node
            return 1 / mp.sqrt(((1 - m) + db) * (1 + s) * (1 + s * s))

        left = tanh_sinh(f, 0, m, ctx50).value
        right = tanh_sinh(_quartic, m, 1, ctx50).value
        assert abs(left + right - truth) < mp.mpf(10) ** -48

    def test_reversed_interval_rejected(self, ctx50):
        with pytest.raises(DomainError):
            tanh_sinh(lambda node: node[0], 1, 0, ctx50)
        with pytest.raises(DomainError):
            tanh_sinh(lambda node: node[0], 1, 1, ctx50)

    def test_non_real_integrand(self, ctx50):
        with pytest.raises(IntegrandError):
            tanh_sinh(lambda node: mp.sqrt(node[0] - 2), 0, 1, ctx50)

    def test_convergence_error_carries_best(self, ctx50, monkeypatch):
        monkeypatch.setattr("serretlab.quadrature.MAX_LEVEL", 1)
        with pytest.raises(ConvergenceError) as err:
            tanh_sinh(_arcsine, 0, 1, ctx50)
        best = err.value.best
        assert isinstance(best, QuadratureResult)
        assert abs(best.value - mp.pi / 2) < mp.mpf("1e-3")
        # the state holds |S_1 - S_0|, which is also best's error estimate
        state = err.value.state
        assert state == {"levels": 1, "differences": [best.error_estimate]}
        assert 0 < best.error_estimate < 1

    def test_never_evaluates_endpoints(self, ctx50):
        seen = []

        def f(node):
            seen.append(node)
            return _arcsine(node)

        tanh_sinh(f, 0, 1, ctx50)
        assert all(da > 0 and db > 0 for _, da, db in seen)
        # distances are exact complements, down to the node cutoff
        assert all(abs(da + db - 1) < mp.mpf(10) ** -60 for _, da, db in seen)
        assert min(db for _, _, db in seen) < mp.mpf(10) ** -100


class TestStoppingRule:
    """A level is accepted when it agrees with the one before, or when the
    last three level sums converge quadratically with room to spare."""

    TARGET = mp.mpf(10) ** -53

    @staticmethod
    def sums(*differences):
        """Level sums from 1 whose successive differences are the given ones."""
        out = [mp.mpf(0), mp.mpf(1)]
        for d in differences:
            out.append(out[-1] + d)
        return out

    def test_agreement_is_accepted_as_before(self):
        got = _accepted_error(self.sums(mp.mpf(10) ** -20, mp.mpf(10) ** -60), self.TARGET)
        assert abs(got - mp.mpf(10) ** -60) <= mp.mpf(10) ** -75

    def test_quadratic_levels_accepted_early(self):
        # 20 then 40 digits of agreement, short of the 53 asked for: the next
        # difference is about 10**-80, reported times the margin 1000
        got = _accepted_error(self.sums(mp.mpf(10) ** -20, mp.mpf(10) ** -40), self.TARGET)
        assert abs(got - mp.mpf(10) ** -77) <= mp.mpf(10) ** -90
        # never before level 3
        assert _accepted_error(self.sums(mp.mpf(10) ** -40), self.TARGET) is None

    def test_not_yet_quadratic_falls_back_to_agreement(self):
        # 20 then 25 digits: D1 = -25 > 1.5 * D2 = -30, so level 3 is not
        # accepted, however small 10**(2 * D1) is against the target ...
        sums = self.sums(mp.mpf(10) ** -20, mp.mpf(10) ** -25)
        assert _accepted_error(sums, self.TARGET) is None
        # ... and level 4 is accepted by agreement alone
        sums.append(sums[-1] + mp.mpf(10) ** -60)
        assert abs(_accepted_error(sums, self.TARGET) - mp.mpf(10) ** -60) <= mp.mpf(10) ** -75

    def test_quadratic_but_short_of_target_continues(self):
        # 30 then 45 digits: E = 10**(45**2 / -30) = 10**-67.5, times the
        # margin 1000, is above a target of 1e-70
        sums = self.sums(mp.mpf(10) ** -30, mp.mpf(10) ** -45)
        assert _accepted_error(sums, mp.mpf(10) ** -70) is None

    @pytest.mark.parametrize("digits", [25, 50, 200])
    def test_corpus_against_deeper_run(self, digits):
        ctx = make_context(digits)
        for f, a, b, _ in _corpus(ctx):
            r = tanh_sinh(f, a, b, ctx)
            truth = tanh_sinh(f, a, b, ctx.bumped(20)).value
            gap = abs(r.value - truth)
            assert gap <= mp.mpf(10) ** -(digits + 3) * max(1, abs(truth))
            assert gap <= 10 * r.error_estimate


class TestNodeTables:
    """Each node's e^t comes from a running product, reseeded every _RESEED
    nodes; offsets and weights must match the direct sinh/cosh/exp formula
    to 10**-(dps-10) relative, on every level `length --erdos 1 --digits
    1000` uses (0 to 9)."""

    @staticmethod
    def direct(t, dps):
        with mp.workdps(dps + 20):
            u = mp.pi / 2 * mp.sinh(t)
            e = mp.exp(-2 * u)
            return 2 * e / (1 + e), mp.pi / 2 * mp.cosh(t) * 4 * e / (1 + e) ** 2

    @pytest.mark.parametrize("dps,clip", [(85, 130), (1035, 2030)])
    def test_recurrence_against_direct_formula(self, dps, clip):
        tol = mp.mpf(10) ** -(dps - 10)
        for level in range(10):
            table = _nodes(clip, level, dps)
            h = mp.mpf(2) ** -level

            def t(n):  # the abscissa of entry n
                return n * h if level == 0 else (2 * n + 1) * h

            # every node on the short tables; on the long ones at 1035 places
            # the last node of each reseed block, where the product has
            # drifted most, and the last node of the table
            every = dps < 1000 or level < 7
            checked = [n for n in range(len(table))
                       if every or n % _RESEED == _RESEED - 1 or n == len(table) - 1]
            for n in checked:
                delta, w = table[n]
                ref_delta, ref_w = self.direct(t(n), dps)
                assert abs(delta - ref_delta) <= tol * ref_delta, (level, n)
                assert abs(w - ref_w) <= tol * ref_w, (level, n)
            # the same length: the direct offset crosses the clip just there
            assert self.direct(t(len(table) - 1), dps)[0] >= mp.mpf(10) ** -clip
            assert self.direct(t(len(table)), dps)[0] < mp.mpf(10) ** -clip


class TestBetaIntegralCheck:
    @pytest.mark.parametrize("n,i", [(1, 0), (2, 0), (5, 3)])
    def test_discrepancy_small(self, ctx50, n, i):
        assert beta_integral_check(n, i, ctx50) <= mp.mpf(10) ** -45

    def test_bad_parameters(self, ctx50):
        with pytest.raises(DomainError):
            beta_integral_check(0, 0, ctx50)
        with pytest.raises(DomainError):
            beta_integral_check(3, 3, ctx50)


class TestCachePolicy:
    def test_node_tables_are_the_only_cache_and_bounded(self):
        # reads each cache's size without filling it: a flood of tables
        # would evict the ones the other tests reuse
        caches = {}
        for info in pkgutil.iter_modules(serretlab.__path__, "serretlab."):
            for obj in vars(importlib.import_module(info.name)).values():
                if callable(getattr(obj, "cache_info", None)):
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
        assert all(size is not None for size in caches.values()), caches
        assert list(caches) == ["serretlab.quadrature._nodes"]
