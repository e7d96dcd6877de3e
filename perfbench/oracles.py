"""Independent output checks, built on mpmath's own functions.

Each check takes a task and the CLI's exit code and stdout and returns None
when the output is right, or a one-line reason when it is not.  They run
outside the timed region.  Decimal outputs carry ``digits`` significant
digits; a value is accepted within ten units of its last digit (scaled by
the local slope where a value is a root of an equation), which leaves room
for the package's 10^-digits contract plus rounding to the printed digits.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpf

IDENTITY_GRID_SIZES = {"pfaff": 72, "quadratic": 18, "hypgeoell": 5,
                       "gauss_beta_bridge": 5, "beta_ratios": 3, "scaling_law": 6,
                       "period_ratio_genus2": 3}


def _q(x: Fraction):
    return mpf(x.numerator) / x.denominator


def _ulps(digits):
    return mpf(10) ** (1 - digits)


def check(task, code, stdout) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    with mp.workdps(task.digits + 30):
        try:
            return CHECKS[task.kind](task, doc)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"


def _divide_leaf(task, doc):
    """(1/2q) B(s_i^(2q); 1/(2q), 1/2) = (i/l) F(1) for each division radius."""
    q, parts, digits = _q(task.params["q"]), task.params["parts"], task.digits
    rows = doc["results"]
    if [r["index"] for r in rows] != list(range(parts + 1)):
        return f"expected indices 0..{parts}"
    a = 1 / (2 * q)
    total = a * mpmath.beta(a, mpf(1) / 2)
    for row in rows:
        s = mpf(row["s"])
        f_s = a * mpmath.betainc(a, mpf(1) / 2, 0, s ** (2 * q))
        target = total * row["index"] / parts
        slope = 1 / mpmath.sqrt(1 - s ** (2 * q)) if s < 1 else 0
        if abs(f_s - target) > _ulps(digits) * (total + slope):
            return f"s_{row['index']}: F(s) - target = {mpmath.nstr(f_s - target, 5)}"
        radius = mpf(2) ** (1 / q) * s
        if abs(mpf(row["radius"]) - radius) > _ulps(digits) * max(1, radius):
            return f"radius_{row['index']} != 2^(1/q) s"
    return _svg_written(task)


def reduced_integral(v0, x):
    """int_{v0}^{x} dt / sqrt((t + v0) t (t - v0) (1 - t)) for v0 < x <= 1.

    Carlson's reduction of a quartic with four real roots (DLMF 19.29.4),
    here with the lower limit on the root v0, evaluated by mpmath.elliprf.
    """
    y1, y2, y4 = mpmath.sqrt(2 * v0), mpmath.sqrt(v0), mpmath.sqrt(1 - v0)
    x1, x2, x3, x4 = (mpmath.sqrt(x + v0), mpmath.sqrt(x), mpmath.sqrt(x - v0),
                      mpmath.sqrt(1 - x))
    d = x - v0
    return 2 * mpmath.elliprf((y1 * y2 * x3 * x4 / d) ** 2, (x1 * x3 * y2 * y4 / d) ** 2,
                              (y1 * y4 * x2 * x3 / d) ** 2)


def _divide_cassini(task, doc):
    """J(v_u) = ((n-1)/n) J(1) for the reduced integral J, by Carlson's R_F."""
    a, n, digits = _q(task.params["a"]), task.params["n"], task.digits
    row = doc["results"][0]
    v = mpf(row["v_u"])
    c = 1 - a ** 4
    v0 = mpmath.sqrt(c)
    pref = a ** 2 * (4 * c / a ** 4) ** (mpf(1) / 4)
    total = pref * reduced_integral(v0, mpf(1))
    j_v = pref * reduced_integral(v0, v) if v > v0 else mpf(0)
    slope = pref / mpmath.sqrt(v * (1 - v) * (v - v0) * (v + v0)) if v0 < v < 1 else 0
    if abs(j_v - total * (n - 1) / n) > _ulps(digits) * (total + slope):
        return f"J(v_u) - target = {mpmath.nstr(j_v - total * (n - 1) / n, 5)}"
    cos_u = mpmath.sqrt(c / a ** 4) * mpmath.sqrt(1 / v ** 2 - 1)
    cos_slope = mpmath.sqrt(c) / (a ** 2 * v ** 2 * mpmath.sqrt(1 - v ** 2)) if v < 1 else 0
    if abs(mpf(row["cos_u"]) - cos_u) > _ulps(digits) * (1 + cos_slope):
        return "cos_u != sqrt(b) sqrt(v^-2 - 1)"
    # l(C_a) = 4 K(m) with K(m) = int_0^1 dt/sqrt((1-t^2)(1-m t^2)), which is
    # mpmath's ellipk(m): the arc between the points is K(m)/n
    arc = mpmath.ellipk((1 - mpmath.sqrt(c)) / 2) / n
    if abs(mpf(row["arc_length"]) - arc) > _ulps(digits) * max(1, arc):
        return "arc_length != K(m)/n"
    return _svg_written(task)


def _svg_written(task):
    svg = task.params.get("svg")
    if svg is None:
        return None
    path = Path(svg)
    if not path.is_file() or "<svg" not in path.read_text()[:400]:
        return f"no SVG written to {svg}"
    return None


def length_oracle(family, params):
    """Total length from mpmath.beta, mpmath.hyp2f1 or mpmath.ellipk."""
    if family in ("erdos", "sinusoidal"):
        q = params["q"]
        qv = _q(q)
        return q.denominator * mpf(2) ** (1 / qv) * mpmath.beta(mpf(1) / 2, 1 / (2 * qv))
    a, k = params["a"], params["k"]
    if a > 1:
        return length_oracle(family, {"a": 1 / a, "k": k}) / _q(a) ** (k - 1)
    av = _q(a)
    if k == 2:
        # the package's K(m) is mpmath's ellipk(m): m multiplies t^2
        return 4 * mpmath.ellipk((1 - mpmath.sqrt(1 - av ** 4)) / 2)
    p = mpf(k - 1) / (2 * k)
    return 2 * mp.pi * mpmath.hyp2f1(p, p, 1, av ** (2 * k))


def _length(task, doc):
    row = doc["results"][0]
    want = length_oracle(task.params["family"], task.params)
    tol = _ulps(task.digits) * max(1, want)
    for key in ("closed_form", "quadrature"):
        if abs(mpf(row[key]) - want) > tol:
            return f"{key} - oracle = {mpmath.nstr(mpf(row[key]) - want, 5)}"
    if mpf(row["residual"]) > tol:
        return "residual above tolerance"
    return None


def _identities(task, doc):
    rows = {r["name"]: r for r in doc["results"]}
    if {name: r["grid_size"] for name, r in rows.items()} != IDENTITY_GRID_SIZES:
        return "identity suite grids differ from the published suite"
    for name, r in rows.items():
        if not r["passed"] or mpf(r["max_residual"]) > mpf(r["tolerance"]):
            return f"identity {name} failed"
    if not doc["summary"]["passed"] or doc["summary"]["checks"] != len(IDENTITY_GRID_SIZES):
        return "summary does not report every check passed"
    return None


def parse_poly(text):
    """Integer coefficients, highest degree first, of the CLI's polynomial text."""
    tokens = text.split()
    terms = [("-" if tokens[0].startswith("-") else "+", tokens[0].lstrip("-"))]
    terms += list(zip(tokens[1::2], tokens[2::2]))
    coeffs = {}
    for sign, body in terms:
        if "x" in body:
            mag, _, power = body.partition("x")
            power = int(power[1:]) if power else 1
            mag = int(mag) if mag else 1
        else:
            mag, power = int(body), 0
        coeffs[power] = -mag if sign == "-" else mag
    return [coeffs.get(p, 0) for p in range(max(coeffs), -1, -1)]


def _divides(p, g):
    """Whether integer polynomial p divides g over Z (both highest first)."""
    rem = [Fraction(c) for c in g]
    quot = []
    while len(rem) >= len(p):
        factor = rem[0] / p[0]
        quot.append(factor)
        rem = [r - factor * c for r, c in zip(rem, p + [0] * len(rem))][1:]
    return all(r == 0 for r in rem) and all(c.denominator == 1 for c in quot)


def _certify(task, doc):
    row, params = doc["results"][0], task.params
    if "const" in params:
        alpha = {"pi": mp.pi, "e": mp.e, "sqrt2": mpmath.sqrt(2),
                 "phi": (1 + mpmath.sqrt(5)) / 2}[params["const"]]
        alpha = +alpha
    else:
        alpha = mpf(task.argv[1])
    if abs(mpf(row["value"]) - alpha) > _ulps(task.digits) * max(1, abs(alpha)):
        return "value differs from the input constant"
    if row["status"] != params["expect"]:
        return f"status {row['status']}, expected {params['expect']}"
    if params["expect"] == "none":
        return None if row["minpoly"] == "none" else "none status with a polynomial"
    poly = parse_poly(row["minpoly"])
    if len(poly) - 1 != row["minpoly_degree"] or max(map(abs, poly)) != row["minpoly_height"]:
        return "degree or height does not match the polynomial"
    size = mpmath.fsum(abs(c) * abs(alpha) ** i for i, c in enumerate(reversed(poly)))
    if abs(mpmath.polyval(poly, alpha)) > mpf(10) ** (-task.digits // 2) * size:
        return "polynomial does not vanish at the root"
    if not _divides(poly, params["generator"]):
        return "polynomial does not divide the generator over Z"
    return None


CHECKS = {"divide_leaf": _divide_leaf, "divide_cassini": _divide_cassini,
          "length": _length, "identities": _identities, "certify": _certify}
