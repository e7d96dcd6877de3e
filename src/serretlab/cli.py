"""Command-line interface: machine-readable access to every module.

Commands
--------
length      closed-form and quadrature total lengths, with discrepancy;
            exit 3 when they differ by more than 2 * 10^-digits * max(1, |l|)
divide      equal-arc division points (leaf curves or Cassini ovals)
identities  run the identity suite; exit 1 if any check fails
minpoly     integer minimal-polynomial search for a constant
plot        SVG rendering, optionally with division markers

Every command validates ``--digits`` (15 to 1000) into one precision
context before it runs, and options are taken by their full names only.
Numbers in JSON/CSV output are decimal strings carrying the full
requested digits; output is byte-deterministic for fixed inputs.
Exit codes: 0 success, 1 identity/verification failure, 2 usage error
(ConfigurationError), 3 any other SerretError, 4 I/O error.  With
``--format json`` (the default), exit codes 2 and 3 also write a JSON
error document to stdout:
{"command", "exit_code", "error": {"kind", "message"[, "best", "state"]}},
``best`` and ``state`` (convergence failures only) with numbers as
decimal strings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from mpmath import mp

from . import algebra, division, identities, render
from .curves import Erdos, PolyLemniscate, Regular, Sinusoidal, total_length_closed, total_length_quadrature
from .errors import ConfigurationError, ConvergenceError, InternalConsistencyError, SerretError
from .numkernel import from_decimal, make_context, to_decimal

DEFAULT_DIGITS = 50


def _parse_kv(tokens, wanted):
    """Parse ['a=0.8', 'k=2'] style token lists; every wanted key is required."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigurationError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if key not in wanted:
            raise ConfigurationError(f"unknown parameter {key!r} (expected {sorted(wanted)})")
        out[key] = val
    missing = wanted - out.keys()
    if missing:
        raise ConfigurationError(f"missing parameter(s) {sorted(missing)}")
    return out


def _fraction(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"not a rational literal: {text!r}") from exc


def _integer(text) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigurationError(f"not an integer literal: {text!r}") from exc


def _cassini_a(text) -> Fraction:
    """The a of a --cassini value, given as 'a=A' or as a bare 'A'."""
    return _fraction(_parse_kv([text if "=" in text else f"a={text}"], {"a"})["a"])


def _curve_from_flags(ns):
    flags = ("erdos", "sinusoidal", "regular", "cassini", "poly", "mandelbrot_level")
    chosen = [name for name in flags if getattr(ns, name, None) is not None]
    if len(chosen) != 1:
        raise ConfigurationError(f"exactly one curve flag required, got {chosen or 'none'}")
    kind = chosen[0]
    if kind == "erdos":
        return Erdos(ns.erdos)
    if kind == "sinusoidal":
        q = _fraction(ns.sinusoidal)
        if q <= 0:
            raise ConfigurationError("sinusoidal q must be positive")
        return Sinusoidal(q.numerator, q.denominator)
    if kind == "regular":
        kv = _parse_kv(ns.regular, {"a", "k"})
        return Regular(_fraction(kv["a"]), _integer(kv["k"]))
    if kind == "cassini":
        return Regular(_cassini_a(ns.cassini), 2)
    if kind == "poly":
        coeffs_desc = []
        for tok in ns.poly.split(","):
            re_s, _, im_s = tok.partition(":")
            coeffs_desc.append(complex(float(_fraction(re_s)), float(_fraction(im_s or "0"))))
        return PolyLemniscate(tuple(reversed(coeffs_desc)))
    return PolyLemniscate(render.mandelbrot_coeffs(ns.mandelbrot_level))


def _curve_params(curve):
    if isinstance(curve, Erdos):
        return {"family": "erdos", "n": curve.n}
    if isinstance(curve, Sinusoidal):
        return {"family": "sinusoidal", "q": f"{curve.a}/{curve.b}"}
    if isinstance(curve, Regular):
        return {"family": "regular", "a": str(curve.a), "k": curve.k}
    return {"family": "poly_lemniscate", "degree": len(curve.coeffs) - 1}


def _length_citations(curve):
    if isinstance(curve, Erdos):
        return [f"l(C_n) = 2^(1/n) B(1/2, 1/(2n)) with n = {curve.n}",
                "l(C_n) = 2n int_0^(2^(1/n)) dr / sqrt(1 - (r/2^(1/n))^(2n))"]
    if isinstance(curve, Sinusoidal):
        return [f"l(C_q) = b 2^(1/q) B(1/2, 1/(2q)) with q = {curve.a}/{curve.b}",
                "l(C_q) = 2a 2^(1/q) int_0^1 ds / sqrt(1 - s^(2q))"]
    cites = [f"l(C_(a,k)) = 2 pi 2F1((k-1)/(2k), (k-1)/(2k), 1; a^(2k)) with "
             f"a = {curve.a}, k = {curve.k}",
             "l(C_(a,k)) = 2k int 2 r^k dr / sqrt((r^(2k)-(a^k-1)^2)((1+a^k)^2-r^(2k)))"]
    if curve.a > 1:
        cites.insert(0, "l(C_(a,k)) = a^-(k-1) l(C_(1/a,k)) for a > 1")
    return cites


def _report(ns, ctx, params, rows, citations, **extra):
    """Write {"command", "params", "digits", "results", "citations"[, "summary"]}
    to stdout in ``ns.format``, with the digits of ``ctx``."""
    if ns.format == "json":
        print(json.dumps({"command": ns.command, "params": params, "digits": ctx.digits,
                          "results": rows, "citations": citations, **extra}, indent=2))
    elif ns.format == "csv":
        if rows:
            keys = list(rows[0].keys())
            print(",".join(keys))
            for row in rows:
                print(",".join(str(row.get(k, "")) for k in keys))
    else:
        print(f"# {ns.command} (digits={ctx.digits})")
        for key, val in params.items():
            print(f"  {key} = {val}")
        for row in rows:
            print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
        for cite in citations:
            print(f"  formula: {cite}")


def _write_svg(path, polylines, markers, opts):
    doc = render.emit_svg(polylines, markers, opts)  # a usage error writes no file
    with open(path, "w") as fh:
        fh.write(doc)


def cmd_length(ns, ctx) -> int:
    curve = _curve_from_flags(ns)
    with ctx.workdps():
        closed = total_length_closed(curve, ctx)
        quad = total_length_quadrature(curve, ctx)
        disc = abs(closed - quad)
        # two values that each keep the contract differ by at most twice its bound
        if disc > 2 * mp.mpf(10) ** -ctx.digits * max(1, abs(closed)):
            raise InternalConsistencyError(
                f"closed form and quadrature disagree by {mp.nstr(disc, 2)}")
    _report(ns, ctx, _curve_params(curve), [{
        "closed_form": to_decimal(closed, ctx),
        "quadrature": to_decimal(quad, ctx),
        "residual": to_decimal(disc, ctx),
    }], _length_citations(curve))
    return 0


def _point_row(p, ctx):
    return {
        "index": p.index,
        "fraction": str(p.fraction),
        "s": to_decimal(p.s, ctx),
        "radius": to_decimal(p.radius, ctx),
        "theta": to_decimal(p.theta, ctx),
        "x": to_decimal(p.x, ctx),
        "y": to_decimal(p.y, ctx),
        "residual": to_decimal(p.residual, ctx),
    }


def _poly_text(coeffs) -> str:
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            var = "x" if power == 1 else f"x^{power}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    text = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _minpoly_columns(candidate, ctx):
    if candidate.status != "found":
        return {"minpoly": "none", "minpoly_degree": "", "minpoly_height": "",
                "minpoly_residual": "", "minpoly_verified": ""}
    return {
        "minpoly": _poly_text(candidate.coeffs),
        "minpoly_degree": candidate.degree,
        "minpoly_height": candidate.height,
        "minpoly_residual": to_decimal(candidate.residual, ctx),
        "minpoly_verified": candidate.verified,
    }


# Recomputable pipeline constants, as the ``refine`` callables of
# algebra.minpoly: one point each, no arc.  They look division.<fn> up at
# each call, so a replaced module attribute (a tracer, a test double) runs.

def _leaf_radius(curve, l: int, i: int):
    """ctx -> s_i of the l-part division of the fundamental half-leaf."""
    return lambda c: division.leaf_radius(curve, Fraction(i, l), c)[0]


def _cassini_cos_u(a, n: int):
    """ctx -> cos(u) of the order-n division of the Cassini oval C_a."""
    return lambda c: division.cassini_cos_u(a, n, c)[0]


def _divide_leaf(ns, ctx, curve):
    points = division.divide_fundamental_arc(curve, ns.parts, ctx)
    rows = [_point_row(p, ctx) for p in points]
    citations = [
        "F(s_i) = (i/l) F(1), F(s) = int_0^s dt / sqrt(1 - t^(2q))",
        "theta_i = arccos(s_i^q)/q, r_i = 2^(1/q) s_i",
    ]
    if ns.minpoly:
        bound = None
        if isinstance(curve, Erdos) and curve.n in (1, 2, 3):
            bound = algebra.documented_degree_bound(curve, ns.parts)
            citations.append(bound.field_statement)
        cap = ns.max_degree if ns.max_degree is not None else (bound.degree_cap if bound else 8)
        for p, row in zip(points, rows):
            cand = algebra.minpoly(p.s, cap, ns.max_height, ctx,
                                   refine=_leaf_radius(curve, ns.parts, p.index))
            row.update(_minpoly_columns(cand, ctx))
    if ns.svg_out:
        expanded = division.expand_by_symmetry(curve, points, ctx)
        markers = [(float(p.x), float(p.y), f"P{p.index}") for p in expanded]
        polylines = render.trace_polar(curve, min(720, render.MAX_POLAR_VERTICES // curve.leaves))
        _write_svg(ns.svg_out, polylines, markers, render.RenderOptions())
    _report(ns, ctx, {**_curve_params(curve), "parts": ns.parts}, rows, citations)
    return 0


def _divide_cassini(ns, ctx):
    a = _cassini_a(ns.cassini)
    result = division.divide_cassini(a, ns.n, ctx)
    row = {
        "n": result.n,
        "u": to_decimal(result.u, ctx),
        "v_u": to_decimal(result.v_u, ctx),
        "cos_u": to_decimal(result.cos_u, ctx),
        "P_x": to_decimal(result.P[0], ctx),
        "P_y": to_decimal(result.P[1], ctx),
        "P_prime_x": to_decimal(result.P_prime[0], ctx),
        "P_prime_y": to_decimal(result.P_prime[1], ctx),
        "arc_length": to_decimal(result.arc_length, ctx),
        "residual": to_decimal(result.residual, ctx),
        "arc_residual": to_decimal(result.arc_residual, ctx),
    }
    if ns.minpoly:
        cand = algebra.minpoly(result.cos_u, 8 if ns.max_degree is None else ns.max_degree,
                               ns.max_height, ctx, refine=_cassini_cos_u(a, ns.n))
        row.update(_minpoly_columns(cand, ctx))
    if ns.svg_out:
        markers = [(float(result.P[0]), float(result.P[1]), "P"),
                   (float(result.P_prime[0]), float(result.P_prime[1]), "P'")]
        _write_svg(ns.svg_out, render.trace_polar(Regular(a, 2), 720), markers, render.RenderOptions())
    _report(ns, ctx, {"family": "cassini", "a": str(a), "n": ns.n}, [row], [
        "I(u) = ((n-1)/n) I(pi/2) places points at angles u/2 and pi/2 - u/2",
        "shortest arc between them has length l(C_a)/(4n)",
    ])
    return 0


def cmd_divide(ns, ctx) -> int:
    if ns.cassini is not None:
        if ns.parts is not None:
            raise ConfigurationError("--parts applies to leaf curves; use --n with --cassini")
        return _divide_cassini(ns, ctx)
    if ns.parts is None:
        raise ConfigurationError("--parts is required for leaf curves")
    curve = _curve_from_flags(ns)
    if not isinstance(curve, Sinusoidal):
        raise ConfigurationError("divide needs --erdos, --sinusoidal or --cassini")
    return _divide_leaf(ns, ctx, curve)


def cmd_identities(ns, ctx) -> int:
    reports = identities.run_all(ctx)
    rows = []
    for r in reports:
        rows.append({
            "name": r.name,
            "grid_size": len(r.grid),
            "max_residual": to_decimal(r.max_residual, ctx),
            "tolerance": to_decimal(r.tolerance, ctx),
            "passed": r.passed,
        })
    all_passed = all(r.passed for r in reports)
    _report(ns, ctx, {}, rows, ["see per-check docstrings for the identity statements"],
            summary={"passed": all_passed, "checks": len(reports),
                     "failed": [r.name for r in reports if not r.passed]})
    return 0 if all_passed else 1


_NAMED_CONSTANTS = {
    "pi": lambda c: +mp.pi,
    "e": lambda c: +mp.e,
    "sqrt2": lambda c: mp.sqrt(2),
    "phi": lambda c: (1 + mp.sqrt(5)) / 2,
}


def _constant_from_spec(spec: str):
    """Resolve 'divide:erdos3:l=2:i=1' or 'cassini:a=4/5:n=2' pipelines."""
    parts = spec.split(":")
    if parts[0] == "divide" and len(parts) == 4 and parts[1].startswith("erdos"):
        n = _integer(parts[1][len("erdos"):])
        kv = _parse_kv(parts[2:], {"l", "i"})
        l, i = _integer(kv["l"]), _integer(kv["i"])
        if not 0 <= i <= l:
            raise ConfigurationError(f"index i={i} outside 0..{l}")
        return _leaf_radius(Erdos(n), l, i), f"divide:erdos{n}:l={l}:i={i} (normalized radius s_i)"
    if parts[0] == "cassini" and len(parts) == 3:
        kv = _parse_kv(parts[1:], {"a", "n"})
        a, n = _fraction(kv["a"]), _integer(kv["n"])
        return _cassini_cos_u(a, n), f"cassini:a={a}:n={n} (cos of the division angle u)"
    raise ConfigurationError(f"cannot parse constant pipeline {spec!r}")


def cmd_minpoly(ns, ctx) -> int:
    sources = [s for s in (ns.value, ns.const, ns.from_spec) if s is not None]
    if len(sources) != 1:
        raise ConfigurationError("give exactly one of: a literal, --const, --from")
    if ns.value is not None:
        literal = ns.value.strip().rstrip("…").rstrip(".")
        mantissa = literal.split("e")[0].split("E")[0]
        sig = len("".join(filter(str.isdigit, mantissa)).lstrip("0"))
        ctx = make_context(max(15, min(ctx.digits, sig)))
        alpha = from_decimal(literal, ctx)
        refine = None
        source = f"literal ({sig} significant digits)"
    elif ns.const is not None:
        if ns.const not in _NAMED_CONSTANTS:
            raise ConfigurationError(
                f"unknown constant {ns.const!r}; have {sorted(_NAMED_CONSTANTS)}")
        fn = _NAMED_CONSTANTS[ns.const]

        def refine(c, fn=fn):
            with c.workdps():
                return fn(c)

        alpha = refine(ctx)
        source = f"named constant {ns.const}"
    else:
        refine, source = _constant_from_spec(ns.from_spec)
        alpha = refine(ctx)

    cand = algebra.minpoly(alpha, ns.max_degree, ns.max_height, ctx, refine=refine)
    row = {"value": to_decimal(alpha, ctx), "source": source, "status": cand.status}
    row.update(_minpoly_columns(cand, ctx))
    _report(ns, ctx, {"max_degree": ns.max_degree, "max_height": ns.max_height}, [row],
            ["PSLQ integer relation on (1, x, ..., x^d), gamma = sqrt(4/3)"])
    return 0


def cmd_plot(ns, ctx) -> int:
    curve = _curve_from_flags(ns)
    optkw = {"grid_resolution": ns.grid}
    if ns.bbox:
        try:
            xmin, ymin, xmax, ymax = (float(v) for v in ns.bbox.split(","))
        except ValueError as exc:
            raise ConfigurationError(f"--bbox needs four numbers, got {ns.bbox!r}") from exc
        optkw["bbox"] = (xmin, ymin, xmax, ymax)
    opts = render.RenderOptions(**optkw)
    if isinstance(curve, PolyLemniscate):
        polylines = render.trace_implicit(curve, opts)
    else:
        polylines = render.trace_polar(curve, ns.samples)
    markers = []
    if ns.divide:
        if not isinstance(curve, Sinusoidal):
            raise ConfigurationError("--divide markers need a leaf curve")
        per_leaf = 2 * curve.leaves
        if ns.divide % per_leaf:
            raise ConfigurationError(
                f"--divide must be a multiple of {per_leaf} for this curve")
        points = division.divide_fundamental_arc(curve, ns.divide // per_leaf, ctx)
        expanded = division.expand_by_symmetry(curve, points, ctx)
        markers = [(float(p.x), float(p.y), f"P{p.index}") for p in expanded]
    _write_svg(ns.out, polylines, markers, opts)
    print(f"wrote {ns.out} ({len(polylines)} path(s), {len(markers)} marker(s))")
    return 0


def _add_common(sub, svg_out=False):
    # argparse converts a string default with type=int, so a malformed
    # SERRET_DIGITS is a usage error like a malformed --digits
    sub.add_argument("--digits", type=int,
                     default=os.environ.get("SERRET_DIGITS", str(DEFAULT_DIGITS)),
                     help="decimal digits of working accuracy")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    if svg_out:
        sub.add_argument("--svg-out", default=None, help="also render an SVG here")


def _add_curve_flags(sub, with_poly=False):
    sub.add_argument("--erdos", type=int, metavar="N")
    sub.add_argument("--sinusoidal", metavar="A/B")
    sub.add_argument("--regular", nargs=2, metavar=("a=A", "k=K"))
    sub.add_argument("--cassini", metavar="a=A")
    if with_poly:
        sub.add_argument("--poly", metavar="C_high,...,C_low",
                         help="polynomial coefficients, highest degree first")
        sub.add_argument("--mandelbrot-level", type=int, metavar="L", help="0 to 9")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`ConfigurationError`,
    so that they exit 2 through the same path as every other usage error.
    It takes options by their full names only, the rule by which
    :func:`_requested_format` reads ``--format``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="serretlab",
        description="arc lengths, equal-arc division points and algebraicity "
                    "certificates for Serret curves")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("length", help="total length, closed form vs quadrature")
    _add_curve_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_length)

    p = subs.add_parser("divide", help="equal-arc-length division points")
    _add_curve_flags(p)
    p.add_argument("--parts", type=int, default=None, metavar="L")
    p.add_argument("--n", type=int, default=1, help="Cassini division order")
    p.add_argument("--minpoly", action="store_true",
                   help="attach integer minimal polynomials to each point")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--max-height", type=int, default=10 ** 6)
    _add_common(p, svg_out=True)
    p.set_defaults(func=cmd_divide)

    p = subs.add_parser("identities", help="run the identity verification suite")
    _add_common(p)
    p.set_defaults(func=cmd_identities)

    p = subs.add_parser("minpoly", help="integer minimal polynomial of a constant")
    p.add_argument("value", nargs="?", default=None,
                   help="decimal literal; its length bounds the usable precision")
    p.add_argument("--const", default=None, help="named constant (pi, e, sqrt2, phi)")
    p.add_argument("--from", dest="from_spec", default=None,
                   metavar="divide:erdos3:l=2:i=1",
                   help="recomputable pipeline constant")
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--max-height", type=int, default=10 ** 4)
    _add_common(p)
    p.set_defaults(func=cmd_minpoly)

    p = subs.add_parser("plot", help="render a curve (and markers) to SVG")
    _add_curve_flags(p, with_poly=True)
    p.add_argument("--divide", type=int, default=None, metavar="N",
                   help="mark the N equal-arc division points")
    p.add_argument("--samples", type=int, default=720)
    p.add_argument("--grid", type=int, default=512, help="implicit-tracer resolution")
    p.add_argument("--bbox", default=None, metavar="xmin,ymin,xmax,ymax")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_plot)
    return parser


def _decimal_strings(obj, ctx):
    """``obj`` with every number in it as a decimal string, containers as JSON ones."""
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(key): _decimal_strings(val, ctx) for key, val in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_decimal_strings(val, ctx) for val in obj]
    if dataclasses.is_dataclass(obj):
        return _decimal_strings(vars(obj), ctx)
    if isinstance(obj, int):
        return str(obj)
    return to_decimal(obj, ctx)


def _requested_format(argv) -> str:
    """The --format of a command line that did not parse (json by default)."""
    fmt = "json"
    for tok, nxt in zip(argv, argv[1:] + [None]):
        if tok == "--format" and nxt is not None:
            fmt = nxt
        elif tok.startswith("--format="):
            fmt = tok.partition("=")[2]
    return fmt


def _error_exit(ns, ctx, argv, exc, code: int) -> int:
    """Exit ``code``; in JSON mode first write the error document to stdout.

    The document carries the error kind and message and, for a
    :class:`ConvergenceError`, its ``best`` estimate and ``state`` with
    every number as a decimal string of the digits of ``ctx``.
    """
    if (ns.format if ns is not None else _requested_format(argv)) == "json":
        error = {"kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConvergenceError):
            error["best"] = _decimal_strings(exc.best, ctx)
            error["state"] = _decimal_strings(exc.state, ctx)
        doc = {"command": ns.command if ns is not None else None, "exit_code": code,
               "error": error}
        print(json.dumps(doc, indent=2))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = ctx = None
    try:
        ns = build_parser().parse_args(argv)
        ctx = make_context(ns.digits)
        return ns.func(ns, ctx)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _error_exit(ns, ctx, argv, exc, 2)
    except SerretError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return _error_exit(ns, ctx, argv, exc, 3)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
