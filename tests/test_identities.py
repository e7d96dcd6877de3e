import pytest
from mpmath import mp

from serretlab.identities import (ALL_CHECKS, _assemble, check_beta_ratios,
                                  check_gauss_beta_bridge, check_hypgeoell, check_pfaff,
                                  check_period_ratio_genus2, check_quadratic,
                                  check_scaling_law, run_all)
from serretlab.numkernel import make_context, to_decimal

EXPECTED_NAMES = ["pfaff", "quadratic", "hypgeoell", "gauss_beta_bridge",
                  "beta_ratios", "scaling_law", "period_ratio_genus2"]


@pytest.fixture(scope="module")
def reports30():
    with mp.workdps(300):
        return run_all(make_context(30))


@pytest.fixture(scope="module")
def reports50():
    with mp.workdps(300):
        return run_all(make_context(50))


class TestSuite:
    def test_all_pass_at_30(self, reports30):
        assert [r.name for r in reports30] == EXPECTED_NAMES
        assert all(r.passed for r in reports30)

    def test_all_pass_at_50(self, reports50):
        assert all(r.passed for r in reports50)

    def test_passed_iff_within_tolerance(self, reports50):
        for r in reports50:
            assert r.passed == (r.max_residual <= r.tolerance)

    def test_residual_shrinks_15_orders(self, reports30, reports50):
        for r30, r50 in zip(reports30, reports50):
            assert r50.max_residual <= r30.max_residual * mp.mpf(10) ** -15

    def test_deterministic(self, ctx30, reports30):
        again = run_all(ctx30)
        for a, b in zip(reports30, again):
            assert a.name == b.name
            assert to_decimal(a.max_residual, ctx30) == to_decimal(b.max_residual, ctx30)
            assert a.grid == b.grid

    def test_injected_tolerance_forces_failure(self, ctx30):
        # the tolerance boundary 10^-(digits-3): a residual just above fails
        with mp.workdps(60):
            tol = mp.mpf(10) ** -27
            above = _assemble("x", [((1,), tol * (1 + mp.mpf(10) ** -20))], 3, ctx30)
            below = _assemble("x", [((1,), tol * (1 - mp.mpf(10) ** -20))], 3, ctx30)
        assert not above.passed and below.passed
        assert above.tolerance == below.tolerance
        assert abs(above.tolerance - tol) <= tol * mp.mpf(10) ** -40


class TestIndividualChecks:
    def test_pfaff_grid_size(self, ctx30):
        r = check_pfaff(ctx30)
        assert len(r.grid) == 3 * 3 * 2 * 4
        assert r.passed

    def test_quadratic(self, ctx30):
        assert check_quadratic(ctx30).passed

    def test_hypgeoell_grid(self, ctx30):
        r = check_hypgeoell(ctx30)
        assert len(r.grid) == 5
        assert r.passed

    def test_bridge_includes_k7(self, ctx30):
        r = check_gauss_beta_bridge(ctx30)
        assert (7,) in r.grid
        assert r.passed

    def test_beta_ratios_rows(self, ctx30):
        r = check_beta_ratios(ctx30)
        assert len(r.grid) == 3
        assert r.passed

    def test_scaling_law(self, ctx30):
        assert check_scaling_law(ctx30).passed

    def test_genus2(self, ctx30):
        assert check_period_ratio_genus2(ctx30).passed

    def test_check_registry(self):
        assert len(ALL_CHECKS) == len(EXPECTED_NAMES)
