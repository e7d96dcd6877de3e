"""Acceptance battery: one numbered criterion per test, each printing a
pass/fail line.  Runs at 50 digits unless a criterion states otherwise.

Criterion 10 is split per n; its minimal-polynomial clause for n = 3 is
expected to fail: the true minimal polynomial of cos(u) at a = 4/5,
n = 3 has degree 16 and coefficient height ~ 9.6e11 (certified by a
deep integer-relation search re-verified at 700 digits), so no
candidate exists within the stated bounds (degree <= 8, height <= 1e6).
The honest search returns "none" and the assertion records the gap.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from oracles import angular_total_length, beta_integral_check, subarc_length
from serretlab.algebra import documented_degree_bound, minpoly, pslq
from serretlab.cli import main
from serretlab.curves import (Erdos, PolyLemniscate, Regular, Sinusoidal,
                              total_length_closed, total_length_quadrature)
from serretlab.division import divide_cassini, divide_fundamental_arc, expand_by_symmetry
from serretlab.numkernel import make_context
from serretlab.render import RenderOptions, trace_implicit

PI_75 = ("3.14159265358979323846264338327950288419716939937510582097494"
         "45923078164062862")
TOL45 = "1e-45"
GOLDEN_DIR = Path(__file__).parent / "golden"


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else None


def test_criterion_01_circle_length(capsys):
    code, doc = cli_json(capsys, "length", "--erdos", "1")
    row = doc["results"][0]
    two_pi = 2 * mp.mpf(PI_75)
    ok = (code == 0
          and abs(mp.mpf(row["closed_form"]) - two_pi) < mp.mpf(TOL45)
          and abs(mp.mpf(row["quadrature"]) - two_pi) < mp.mpf(TOL45))
    report(1, ok, "length --erdos 1 equals 2 pi to 1e-45 at 50 digits")


def test_criterion_02_cardioid(capsys):
    code, doc = cli_json(capsys, "length", "--sinusoidal", "1/2")
    row = doc["results"][0]
    ok = (code == 0
          and abs(mp.mpf(row["closed_form"]) - 16) < mp.mpf(TOL45)
          and abs(mp.mpf(row["quadrature"]) - 16) < mp.mpf(TOL45))
    report(2, ok, "length --sinusoidal 1/2 equals 16 to 1e-45")


def test_criterion_03_algebraic_spiral(ctx50):
    closed = total_length_closed(Sinusoidal(1, 4), ctx50)
    quad = total_length_quadrature(Sinusoidal(1, 4), ctx50)
    want = mp.mpf(256) / 3
    ok = abs(closed - want) < mp.mpf(TOL45) and abs(quad - want) < mp.mpf(TOL45)
    report(3, ok, "l(C_1/4) = 256/3 via Beta closed form and via quadrature")


def test_criterion_04_beta_period_identity(ctx50):
    worst = mp.mpf(0)
    for n in range(2, 7):
        for i in range(0, n - 1):
            worst = max(worst, beta_integral_check(n, i, ctx50))
    report(4, worst < mp.mpf(TOL45),
           f"I(n,i) matches B(1/2,(i+1)/2n)/(2n) for 2<=n<=6 (worst {mp.nstr(worst, 3)})")


def test_criterion_05_cassini_three_routes(ctx50):
    from serretlab.specfun import ellip_k, hyp2f1
    worst = mp.mpf(0)
    for a in (Fraction(3, 10), Fraction(3, 5), Fraction(9, 10)):
        with ctx50.workdps():
            av = mp.mpf(a.numerator) / a.denominator
            angular = angular_total_length(Regular(a, 2), ctx50)
            kform = 4 * ellip_k((1 - mp.sqrt(1 - av ** 4)) / 2, ctx50)
            f21 = 2 * mp.pi * hyp2f1(mp.mpf(1) / 4, mp.mpf(1) / 4, 1, av ** 4, ctx50)
            worst = max(worst, abs(angular - kform), abs(angular - f21),
                        abs(kform - f21))
    report(5, worst < mp.mpf(TOL45),
           f"Cassini lengths agree on three routes for a in (0.3,0.6,0.9) "
           f"(worst {mp.nstr(worst, 3)})")


def test_criterion_06_identity_suite(capsys):
    code30, doc30 = cli_json(capsys, "identities", "--digits", "30")
    code50, doc50 = cli_json(capsys, "identities", "--digits", "50")
    ok = code30 == 0 and code50 == 0
    for r30, r50 in zip(doc30["results"], doc50["results"]):
        ok = ok and mp.mpf(r50["max_residual"]) <= mp.mpf(r30["max_residual"]) * mp.mpf("1e-15")
    report(6, ok, "identities exit 0 at 30 and 50 digits; residuals shrink >= 1e15")


def test_criterion_07_circle_division(capsys):
    code, doc = cli_json(capsys, "divide", "--erdos", "1", "--parts", "2", "--minpoly")
    row = doc["results"][1]
    ok = (code == 0
          and abs(mp.mpf(row["s"]) - mp.sqrt(2) / 2) < mp.mpf(TOL45)
          and row["minpoly"] == "2x^2 - 1")
    ctx = make_context(60)
    for parts in (3, 4, 5):
        cap = documented_degree_bound(Erdos(1), parts).degree_cap
        for i in range(1, parts):
            cand = minpoly(
                lambda c, i=i, parts=parts: divide_fundamental_arc(Erdos(1), parts, c)[i].s,
                cap, 10 ** 4, ctx)
            ok = ok and cand.status == "found" and cand.verified and cand.degree <= cap
    report(7, ok, "circle division radii: s_1 = sqrt(2)/2 with 2x^2-1; "
                  "parts 3..5 recover polynomials of degree <= phi(4l)")


def test_criterion_08_lemniscate_witness():
    ctx60 = make_context(60)
    alpha = divide_fundamental_arc(Erdos(2), 2, ctx60)[1].s
    with ctx60.workdps():
        rel = pslq([alpha ** k for k in range(5)], 10, ctx60)
    ok = rel is not None
    if ok:
        if rel[-1] < 0:
            rel = [-v for v in rel]
        ok = rel == [-1, 0, 2, 0, 1] and max(abs(v) for v in rel) <= 10
    ctx120 = make_context(120)
    alpha120 = divide_fundamental_arc(Erdos(2), 2, ctx120)[1].s
    with ctx120.workdps():
        resid = abs(mp.fsum(m * alpha120 ** k for k, m in enumerate(rel)))
    ok = ok and resid < mp.mpf("1e-90")
    report(8, ok, f"lemniscate half-radius relation (-1,0,2,0,1); residual at "
                  f"120 digits {mp.nstr(resid, 3)} < 1e-90")


GOLDEN_KIEPERT = {
    (2, 1): (-1, 0, 2, 0, 2),     # 2x^4 + 2x^2 - 1
    (3, 1): (-1, 0, 6, 0, 0, 0, 4),
    (3, 2): (-1, 0, 0, 2),        # s = 2^(-1/3)
}


def test_criterion_09_kiepert_division():
    ctx = make_context(100)
    ok = True
    details = []
    for parts in (2, 3):
        for i in range(1, parts):
            cand = minpoly(
                lambda c, i=i, parts=parts: divide_fundamental_arc(Erdos(3), parts, c)[i].s,
                16, 10 ** 6, ctx)
            good = (cand.status == "found" and cand.verified
                    and cand.degree <= 16 and cand.height <= 10 ** 6
                    and cand.coeffs == GOLDEN_KIEPERT[(parts, i)])
            ok = ok and good
            details.append(f"l={parts} i={i} deg {cand.degree} h {cand.height}")
        # partition: the 6l sub-arcs of the closed curve re-integrate equally
        pts = expand_by_symmetry(Erdos(3), divide_fundamental_arc(Erdos(3), parts, ctx), ctx)
        with ctx.workdps():
            piece = total_length_closed(Erdos(3), ctx) / (6 * parts)
            for p, q in zip(pts, list(pts[1:]) + [pts[0]]):
                lo, hi = (p.s, q.s) if p.s <= q.s else (q.s, p.s)
                arc = subarc_length(Erdos(3), lo, hi, ctx)
                ok = ok and abs(arc - piece) < mp.mpf(TOL45)
    report(9, ok, "Kiepert division at 100 digits: verified minimal polynomials "
                  f"({'; '.join(details)}) and equal sub-arcs to 1e-45")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_10_cassini_division(n):
    ctx = make_context(100)
    a = Fraction(4, 5)
    result = divide_cassini(a, n, ctx)
    ok_solution = result.residual < mp.mpf(TOL45) and result.arc_residual < mp.mpf(TOL45)
    report(10, ok_solution,
           f"(n={n}) I(u) targeting and arc re-integration within 1e-45")
    cand = minpoly(lambda c: divide_cassini(a, n, c).cos_u, 8, 10 ** 6, ctx)
    ok_poly = (cand.status == "found" and cand.verified
               and cand.degree <= 8 and cand.height <= 10 ** 6)
    report(10, ok_poly,
           f"(n={n}) cos(u) has a verified integer polynomial with degree <= 8, "
           f"height <= 1e6 [search returned: {cand.status}"
           + (f", degree {cand.degree}, height {cand.height}]" if cand.status == "found"
              else "; the true minimal polynomial has degree 16 and height ~9.6e11, "
                   "outside the stated bounds]"))


def test_criterion_11_monotone_convex(ctx50):
    with ctx50.workdps():
        ok = True
        for k in (2, 3, 4):
            grid = [Fraction(j, 10) for j in range(1, 10)]
            vals = [total_length_closed(Regular(a, k), ctx50) for a in grid]
            ok = ok and all(x < y for x, y in zip(vals, vals[1:]))
            second = [vals[j + 1] - 2 * vals[j] + vals[j - 1] for j in range(1, len(vals) - 1)]
            ok = ok and all(d > 0 for d in second)
            erdos_val = total_length_closed(Erdos(k), ctx50)
            ok = ok and all(v < erdos_val for v in vals)
            above = [total_length_closed(Regular(Fraction(10 + j, 10), k), ctx50)
                     for j in range(1, 11)]
            ok = ok and all(v < erdos_val for v in above)
    report(11, ok, "a -> l(C_(a,k)) increasing and convex on (0,1), maximal at a = 1")


def test_criterion_12_rejection_path(capsys):
    code, doc = cli_json(capsys, "minpoly", "--const", "pi",
                         "--max-degree", "6", "--max-height", "10000")
    ok = code == 0 and doc["results"][0]["status"] == "none"
    report(12, ok, "minpoly rejects pi (degree <= 6, height <= 1e4): no relation")


def test_criterion_13_render(capsys, tmp_path):
    coeffs = (-1, 0, 1)  # z^2 - 1
    opts = RenderOptions(bbox=(-2, -2, 2, 2), grid_resolution=1024)
    pls = trace_implicit(PolyLemniscate(coeffs), opts)

    def level(x, y):
        z = complex(x, y)
        return abs(z * z - 1)

    worst = max(abs(level(x, y) - 1) for pl in pls for x, y in pl.points)
    ok = worst < 1e-2

    out1, out2 = tmp_path / "k1.svg", tmp_path / "k2.svg"
    for target in (out1, out2):
        code = main(["plot", "--erdos", "3", "--divide", "12",
                     "--digits", "30", "--out", str(target)])
        capsys.readouterr()
        ok = ok and code == 0
    svg = out1.read_text()
    ok = ok and svg.count('class="marker"') == 12
    ok = ok and out1.read_bytes() == out2.read_bytes()
    golden = GOLDEN_DIR / "kiepert_div12_d30.svg"
    ok = ok and out1.read_bytes() == golden.read_bytes()
    report(13, ok, f"implicit tracer vertex accuracy {worst:.1e} < 1e-2; "
                   "12 markers; byte-identical to the golden file")
