import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp

from serretlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
# commands whose stdout is pinned byte for byte, in the file named after the
# command with the suffix of its --format (JSON by default)
GOLDEN_COMMANDS = {
    "length_erdos1": ["length", "--erdos", "1"],
    "length_sinusoidal_1_2": ["length", "--sinusoidal", "1/2"],
    "length_regular_a0.8_k2": ["length", "--regular", "a=0.8", "k=2"],
    # a = 1 - 10^-40: 1 - a^6 must stay exact inside the closed form
    "length_regular_a1-1e-40_k3": ["length", "--regular",
                                   "a=0.9999999999999999999999999999999999999999", "k=3"],
    "divide_erdos3_parts2_d30": ["divide", "--erdos", "3", "--parts", "2", "--digits", "30"],
    "divide_cassini_a4_5_n2_d30": ["divide", "--cassini", "a=4/5", "--n", "2", "--digits", "30"],
    "divide_erdos2_parts2_minpoly": ["divide", "--erdos", "2", "--parts", "2", "--minpoly"],
    "divide_cassini_a4_5_n2_minpoly_d100": ["divide", "--cassini", "a=4/5", "--n", "2",
                                            "--minpoly", "--digits", "100"],
    "identities_d30": ["identities", "--digits", "30"],
    "minpoly_sqrt2_over_2": ["minpoly", "0.70710678118654752440084436210484903928483593768847"],
    "minpoly_const_pi_deg6": ["minpoly", "--const", "pi", "--max-degree", "6"],
    "divide_erdos2_parts2_minpoly_csv": ["divide", "--erdos", "2", "--parts", "2", "--minpoly",
                                         "--format", "csv"],
    "divide_cassini_a4_5_n2_d30_text": ["divide", "--cassini", "a=4/5", "--n", "2",
                                        "--digits", "30", "--format", "text"],
}
SUFFIX = {"json": "json", "csv": "csv", "text": "txt"}
# commands whose SVG file is pinned byte for byte; each ends with the flag
# that names the file
GOLDEN_PLOTS = {
    # Regular a > 1: k separate ovals, each traced out and back
    "plot_regular_a3_2_k3": ["plot", "--regular", "a=3/2", "k=3", "--out"],
    "divide_cassini_a4_5_n2_d30": ["divide", "--cassini", "a=4/5", "--n", "2", "--digits", "30",
                                   "--svg-out"],
}

PI_LITERAL = "3.14159265358979323846264338327950288419716939937510582097494"
SQRT2_OVER_2 = "0.70710678118654752440084436210484903928483593768847403658833987"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestLength:
    def test_circle(self, capsys):
        doc = run_json(capsys, "length", "--erdos", "1")
        assert doc["command"] == "length"
        assert doc["digits"] == 50
        row = doc["results"][0]
        closed = mp.mpf(row["closed_form"])
        assert abs(closed - 2 * mp.mpf(PI_LITERAL)) < mp.mpf(10) ** -45
        assert mp.mpf(row["residual"]) < mp.mpf(10) ** -45
        assert doc["citations"]

    def test_cardioid_is_16(self, capsys):
        doc = run_json(capsys, "length", "--sinusoidal", "1/2")
        row = doc["results"][0]
        assert abs(mp.mpf(row["closed_form"]) - 16) < mp.mpf(10) ** -45
        assert abs(mp.mpf(row["quadrature"]) - 16) < mp.mpf(10) ** -45

    def test_cassini_matches_k_form(self, capsys):
        doc = run_json(capsys, "length", "--regular", "a=0.8", "k=2", "--digits", "30")
        with mp.workdps(60):
            m = (1 - mp.sqrt(1 - mp.mpf("0.8") ** 4)) / 2
            want = 4 * mp.pi / (2 * mp.agm(1, mp.sqrt(1 - m)))  # 4 K(m) by AGM
        got = mp.mpf(doc["results"][0]["closed_form"])
        assert abs(got - want) < mp.mpf(10) ** -25

    def test_numbers_are_decimal_strings(self, capsys):
        doc = run_json(capsys, "length", "--erdos", "2", "--digits", "30")
        for value in doc["results"][0].values():
            assert isinstance(value, str)

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "length", "--erdos", "3", "--digits", "30")
        _, out2, _ = run(capsys, "length", "--erdos", "3", "--digits", "30")
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "length", "--erdos", "1", "--format", "csv",
                           "--digits", "30")
        assert code == 0
        header = out.splitlines()[0]
        assert header.split(",") == ["closed_form", "quadrature", "residual"]

    def test_usage_errors(self, capsys, monkeypatch):
        assert run(capsys, "length")[0] == 2                      # no curve
        assert run(capsys, "length", "--erdos", "1", "--sinusoidal", "1/2")[0] == 2
        assert run(capsys, "length", "--sinusoidal", "x/y")[0] == 2
        assert run(capsys, "length", "--regular", "a=1", "k=2")[0] == 2
        assert run(capsys, "length", "--regular", "a=1/2", "k=x")[0] == 2
        assert run(capsys, "length", "--regular", "a=1/2", "a=2")[0] == 2
        assert run(capsys, "length", "--cassini", "a=1")[0] == 2
        assert run(capsys, "nonsense")[0] == 2
        monkeypatch.setenv("SERRET_DIGITS", "abc")
        assert run(capsys, "length", "--erdos", "1")[0] == 2


    def test_degenerate_edge(self, capsys):
        # within 10^-5 of a = 1 the 2F1 argument is 1 - 4e-5, where the plain
        # series would need about 1.7 million terms
        start = time.process_time()
        doc = run_json(capsys, "length", "--regular", "a=99999/100000", "k=2", "--digits", "15")
        row = doc["results"][0]
        assert mp.mpf(row["residual"]) < mp.mpf(10) ** -15
        assert row["closed_form"] == row["quadrature"]
        assert time.process_time() - start < 10


class TestErrorDocument:
    """--format json (the default) also writes exit codes 2 and 3 as JSON."""

    def test_usage_error_exit_2(self, capsys):
        code, out, err = run(capsys, "length", "--erdos", "1", "--sinusoidal", "1/2")
        assert code == 2 and "exactly one curve flag" in err
        doc = json.loads(out)
        assert doc["command"] == "length" and doc["exit_code"] == 2
        assert doc["error"] == {"kind": "ConfigurationError",
                                "message": "exactly one curve flag required, "
                                           "got ['erdos', 'sinusoidal']"}
        # a command line that does not parse: no command known
        code, out, _ = run(capsys, "length", "--erdos", "x")
        doc = json.loads(out)
        assert code == 2 and doc["command"] is None and doc["exit_code"] == 2
        assert "invalid int value" in doc["error"]["message"]
        # other formats keep stdout empty
        assert run(capsys, "length", "--erdos", "x", "--format", "csv")[1] == ""
        assert run(capsys, "length", "--erdos", "1", "--cassini", "a=1/2",
                   "--format=text")[1] == ""

    def test_abbreviated_option_is_a_usage_error(self, capsys):
        # options are taken by their full names only, the rule by which a
        # command line that does not parse picks its error format
        code, out, err = run(capsys, "length", "--erdos", "1", "--form", "text")
        assert code == 2 and "unrecognized arguments: --form text" in err
        assert json.loads(out)["exit_code"] == 2
        code, out, _ = run(capsys, "length", "--erdos", "1", "--form", "text", "--bogus")
        assert code == 2 and json.loads(out)["exit_code"] == 2

    def test_numeric_error_exit_3(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "divide", "--cassini", "a=1", "--n", "2")
        doc = json.loads(out)
        assert code == 3 and doc["exit_code"] == 3
        assert doc["error"] == {"kind": "DomainError", "message": "need 0 < a < 1, got 1"}
        # a solver that cannot converge: F never reaches the target
        monkeypatch.setattr("serretlab.division.normalized_arc_total", lambda twoq, ctx: mp.mpf(1))
        monkeypatch.setattr("serretlab.division.normalized_arc_integral",
                            lambda twoq, s, f_one, ctx: mp.mpf(0) if s < 1 else f_one)
        code, out, _ = run(capsys, "divide", "--erdos", "2", "--parts", "2", "--digits", "20")
        assert code == 3
        error = json.loads(out)["error"]
        assert error["kind"] == "ConvergenceError"
        assert error["message"] == "division solver stalled at fraction 1/2"
        # decimal strings of the requested 20 digits; the bracket closed on s = 1
        assert error["best"] == "1." + "0" * 19
        assert error["state"] == {"bracket": [error["best"], error["best"]],
                                  "residual": "0.5" + "0" * 19}

    def test_routes_that_disagree_exit_3(self, capsys):
        # near a = 1 tanh-sinh accepts a level sum 4.0e-21 off the exact
        # closed form at 25 digits; when the quadrature is mended this
        # command exits 0
        code, out, _ = run(capsys, "length", "--regular",
                           "a=0.9999999999999999999999999999999999999999", "k=2", "--digits", "25")
        doc = json.loads(out)
        assert code == 3 and doc["exit_code"] == 3
        assert doc["error"]["kind"] == "InternalConsistencyError"
        assert doc["error"]["message"].startswith("closed form and quadrature disagree by ")

    @pytest.mark.parametrize("factor,code", [("1.9", 0), ("2.1", 3)])
    def test_length_gate_is_twice_the_contract(self, capsys, monkeypatch, factor, code):
        # two values that each keep |err| <= 10^-digits max(1, |l|) differ
        # by at most twice that: the gate sits there, relative to l = 16
        monkeypatch.setattr("serretlab.cli.total_length_quadrature",
                            lambda curve, ctx: 16 + mp.mpf(factor) * 16 * mp.mpf(10) ** -20)
        assert run(capsys, "length", "--sinusoidal", "1/2", "--digits", "20")[0] == code

    def test_quadrature_best_estimate(self, capsys, monkeypatch):
        monkeypatch.setattr("serretlab.quadrature.MAX_LEVEL", 1)
        code, out, _ = run(capsys, "length", "--erdos", "5", "--digits", "17")
        assert code == 3
        error = json.loads(out)["error"]
        assert error["kind"] == "ConvergenceError"
        best = error["best"]
        assert best["levels_used"] == "1"
        # the levels run and |S_1 - S_0|, the last difference being best's error
        assert error["state"] == {"levels": "1", "differences": [best["error_estimate"]]}
        # the half-leaf integral l(C_5)/10 = 1.30068..., two levels in
        assert abs(mp.mpf(best["value"]) - mp.mpf("1.30068")) < mp.mpf(best["error_estimate"])


class TestDivide:
    def test_circle_half_minpoly(self, capsys):
        doc = run_json(capsys, "divide", "--erdos", "1", "--parts", "2",
                       "--minpoly", "--digits", "40")
        rows = doc["results"]
        assert len(rows) == 3
        assert abs(mp.mpf(rows[1]["s"]) - mp.mpf(SQRT2_OVER_2)) < mp.mpf(10) ** -38
        assert rows[1]["minpoly"] == "2x^2 - 1"
        assert rows[1]["minpoly_verified"] is True

    def test_lemniscate_quartic(self, capsys):
        doc = run_json(capsys, "divide", "--erdos", "2", "--parts", "2",
                       "--minpoly", "--digits", "50")
        row = doc["results"][1]
        assert row["minpoly"] == "x^4 + 2x^2 - 1"
        assert int(row["minpoly_degree"]) == 4

    def test_cassini(self, capsys):
        doc = run_json(capsys, "divide", "--cassini", "a=4/5", "--n", "2",
                       "--digits", "40")
        row = doc["results"][0]
        assert mp.mpf(row["residual"]) < mp.mpf(10) ** -35
        assert mp.mpf(row["arc_residual"]) < mp.mpf(10) ** -35
        c = mp.mpf(row["cos_u"])
        assert abs(256 * c ** 4 - 1512 * c ** 2 + 631) < mp.mpf(10) ** -33

    def test_svg_out(self, capsys, tmp_path):
        target = tmp_path / "div.svg"
        code, _, _ = run(capsys, "divide", "--erdos", "2", "--parts", "1",
                         "--digits", "30", "--svg-out", str(target))
        assert code == 0
        svg = target.read_text()
        assert svg.count('class="marker"') == 4
        # 300 leaves at 720 samples each would pass the vertex bound: the
        # leaf sampling thins instead of refusing the drawing
        code, _, _ = run(capsys, "divide", "--erdos", "300", "--parts", "1",
                         "--digits", "20", "--svg-out", str(target))
        assert code == 0 and target.read_text().count('class="marker"') == 600

    def test_cassini_conflicting_flags(self, capsys):
        assert run(capsys, "divide", "--cassini", "a=4/5", "--parts", "2")[0] == 2
        assert run(capsys, "divide", "--erdos", "2")[0] == 2

    def test_max_degree_zero_is_a_usage_error(self, capsys):
        # 0 is a request, not "unset": minpoly refuses it instead of the default cap
        for curve in (["--erdos", "1", "--parts", "2"], ["--cassini", "a=4/5", "--n", "2"]):
            code, _, err = run(capsys, "divide", *curve, "--minpoly", "--max-degree", "0")
            assert code == 2 and "max_degree must be >= 1" in err, curve

    def test_numeric_error_exit_code(self, capsys):
        code, _, err = run(capsys, "divide", "--cassini", "a=3/2", "--n", "1")
        assert code == 3
        assert run(capsys, "divide", "--cassini", "a=1", "--n", "2")[0] == 3
        assert run(capsys, "divide", "--cassini", "a=0", "--n", "2")[0] == 3


class TestIdentities:
    def test_passes_at_30(self, capsys):
        code, out, _ = run(capsys, "identities", "--digits", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["passed"] is True
        assert len(doc["results"]) == 7

    def test_injected_tolerance_fails(self, capsys, monkeypatch):
        from serretlab import identities

        def failing(ctx):
            return identities.IdentityReport("always_fails", ((1,),), mp.mpf(1),
                                             mp.mpf(10) ** -27, False)

        monkeypatch.setattr(identities, "ALL_CHECKS", (failing,))
        code, out, _ = run(capsys, "identities", "--digits", "30")
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"] == {"passed": False, "checks": 1, "failed": ["always_fails"]}

    def test_no_tolerance_option(self, capsys):
        assert run(capsys, "identities", "--inject-tolerance-exponent", "-80")[0] == 2


class TestMinpoly:
    def test_literal(self, capsys):
        doc = run_json(capsys, "minpoly", SQRT2_OVER_2, "--max-degree", "4")
        row = doc["results"][0]
        assert row["status"] == "found"
        assert row["minpoly"] == "2x^2 - 1"

    def test_pi_rejection(self, capsys):
        doc = run_json(capsys, "minpoly", "--const", "pi", "--max-degree", "6")
        assert doc["results"][0]["status"] == "none"

    def test_const_at_top_digits(self, capsys):
        # the +40-digit re-verification runs above the 1000 digits a caller may ask for
        doc = run_json(capsys, "minpoly", "--const", "sqrt2", "--max-degree", "2",
                       "--digits", "1000")
        row = doc["results"][0]
        assert row["minpoly"] == "x^2 - 2"
        assert row["minpoly_verified"] is True
        assert run(capsys, "minpoly", "--const", "sqrt2", "--digits", "1001")[0] == 2
        # checked before a literal lowers the precision to its own digits
        code, out, _ = run(capsys, "minpoly", SQRT2_OVER_2, "--digits", "5000")
        assert code == 2
        assert json.loads(out)["error"]["message"] == "digits must be in [15, 1000], got 5000"

    def test_plus_sign_adds_no_significant_digits(self, capsys):
        # a literal's '+' and the zeros after it are not significant: both
        # forms carry 34 digits, too few to prove that no relation exists
        tiny = "0.000000000000000000000000000001414213562373095048801688724209698"
        unsigned, signed = (run(capsys, "minpoly", "--max-degree", "2", "--max-height", "100",
                                "--", sign + tiny) for sign in ("", "+"))
        assert unsigned[0] == signed[0] == 3
        assert signed[1] == unsigned[1]

    def test_integer_literal(self, capsys):
        for literal, poly in (("1", "x - 1"), ("-3", "x + 3"), ("0", "x")):
            row = run_json(capsys, "minpoly", "--", literal)["results"][0]
            assert (row["minpoly"], row["minpoly_verified"]) == (poly, True), literal
            assert mp.mpf(row["minpoly_residual"]) == 0

    @pytest.mark.parametrize("literal", ["1.4142135623730951", "1.41421356237309504880168872"])
    def test_too_short_for_degree_1(self, capsys, literal):
        # 17 and 27 digits: degree 1 at height 10^4 needs 20 + 2*4 = 28
        code, _, err = run(capsys, "minpoly", literal)
        assert code == 2
        assert "2 numbers with height 10000: need >= 28 digits" in err

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    def test_non_finite_literal(self, capsys, literal):
        code, out, _ = run(capsys, "minpoly", "--", literal)
        assert code == 2
        assert json.loads(out)["error"]["message"] == f"not a decimal literal: {literal!r}"

    def test_significant_digits_are_digits(self, capsys):
        # '_' groups digits for the parser but is not one: both forms carry 50
        grouped = "0.707_106_781_186_547_524_400_844_362_104_849_039_284_835_937_688_47"
        plain, spaced = (run_json(capsys, "minpoly", lit, "--digits", "60", "--max-degree", "4")
                         for lit in (grouped.replace("_", ""), grouped))
        assert spaced == plain and plain["digits"] == 50
        assert plain["results"][0]["source"] == "literal (50 significant digits)"

    def test_phi_verified(self, capsys):
        doc = run_json(capsys, "minpoly", "--const", "phi", "--max-degree", "4")
        row = doc["results"][0]
        assert row["minpoly"] == "x^2 - x - 1"
        assert row["minpoly_verified"] is True

    def test_pipeline_kiepert(self, capsys):
        doc = run_json(capsys, "minpoly", "--from", "divide:erdos3:l=2:i=1",
                       "--digits", "60")
        row = doc["results"][0]
        assert row["minpoly"] == "2x^4 + 2x^2 - 1"
        assert row["minpoly_verified"] is True

    def test_source_flag_conflicts(self, capsys):
        assert run(capsys, "minpoly")[0] == 2
        assert run(capsys, "minpoly", "0.5", "--const", "pi")[0] == 2
        assert run(capsys, "minpoly", "--const", "zeta3")[0] == 2
        assert run(capsys, "minpoly", "--from", "bogus:spec")[0] == 2
        assert run(capsys, "minpoly", "--from", "divide:erdosX:l=2:i=1")[0] == 2
        assert run(capsys, "minpoly", "--from", "cassini:a=4/5:a=3")[0] == 2


class TestPlot:
    def test_bernoulli_poly(self, capsys, tmp_path):
        target = tmp_path / "lem.svg"
        code, _, _ = run(capsys, "plot", "--poly", "1,0,-1", "--out", str(target),
                         "--grid", "128")
        assert code == 0
        assert "<svg" in target.read_text()

    def test_kiepert_twelve_markers(self, capsys, tmp_path):
        target = tmp_path / "kiepert.svg"
        code, _, _ = run(capsys, "plot", "--erdos", "3", "--divide", "12",
                         "--digits", "30", "--out", str(target))
        assert code == 0
        assert target.read_text().count('class="marker"') == 12

    def test_mandelbrot_level(self, capsys, tmp_path):
        target = tmp_path / "m3.svg"
        code, _, _ = run(capsys, "plot", "--mandelbrot-level", "3",
                         "--out", str(target), "--grid", "128")
        assert code == 0

    def test_mandelbrot_level_bound(self, capsys, tmp_path):
        target = tmp_path / "m9.svg"
        code, _, _ = run(capsys, "plot", "--mandelbrot-level", "9",
                         "--out", str(target), "--grid", "64")
        assert code == 0 and "<svg" in target.read_text()
        # degree 2^L: above level 9 the squaring and the float tracer
        # blow up, so the level is a usage error raised before any work
        for level in ("10", "40"):
            start = time.monotonic()
            code, _, _ = run(capsys, "plot", "--mandelbrot-level", level,
                             "--out", str(tmp_path / "big.svg"), "--grid", "64")
            assert code == 2
            assert time.monotonic() - start < 1
            assert not (tmp_path / "big.svg").exists()

    @pytest.mark.parametrize("argv", [
        ["--erdos", "2", "--bbox=-inf,-1,inf,1"],          # infinite bounds
        ["--erdos", "2", "--bbox=0,0,1e-320,1e-320"],      # infinite pixel scale
        ["--poly", "1,0,-1", "--bbox=-1e308,-1e308,1e308,1e308", "--grid", "64"],  # span
        ["--erdos", "2", "--bbox=0,0,1e-300,1e-300"],      # curve 1e303 pixels away
    ])
    def test_bbox_must_map_to_finite_pixels(self, capsys, tmp_path, argv):
        target = tmp_path / "x.svg"
        code, out, _ = run(capsys, "plot", *argv, "--out", str(target))
        assert code == 2 and not target.exists()
        doc = json.loads(out)
        assert doc["exit_code"] == 2 and doc["error"]["kind"] == "ConfigurationError"

    def test_deep_zoom_within_the_pixel_bound(self, capsys, tmp_path):
        # a 1e-6 bbox at the lemniscate's node keeps every coordinate
        # within 1e9 pixels, so the file is drawn at the usual size
        target = tmp_path / "x.svg"
        code, _, _ = run(capsys, "plot", "--erdos", "2", "--bbox=-1e-6,-1e-6,1e-6,1e-6",
                         "--out", str(target))
        assert code == 0 and target.stat().st_size < 100_000

    def test_samples_bound(self, capsys, tmp_path):
        # the vertex count is bounded before any is built
        target = tmp_path / "x.svg"
        start = time.monotonic()
        code, out, _ = run(capsys, "plot", "--erdos", "2", "--samples", "100000000",
                           "--out", str(target))
        assert code == 2 and time.monotonic() - start < 1
        assert not target.exists()
        assert json.loads(out)["error"]["kind"] == "ConfigurationError"

    def test_divide_must_fit_symmetry(self, capsys, tmp_path):
        code, _, _ = run(capsys, "plot", "--erdos", "3", "--divide", "10",
                         "--out", str(tmp_path / "x.svg"))
        assert code == 2
        # malformed numbers are usage errors too
        out = str(tmp_path / "f.svg")
        assert run(capsys, "plot", "--erdos", "2", "--bbox", "1,2,x,4", "--out", out)[0] == 2
        assert run(capsys, "plot", "--erdos", "2", "--bbox", "1,2,4", "--out", out)[0] == 2
        assert run(capsys, "plot", "--poly", "1:x,0", "--out", out)[0] == 2

    def test_digits_validated(self, capsys, tmp_path):
        # plot uses --digits only for --divide markers, yet checks it like every command
        target = tmp_path / "x.svg"
        assert run(capsys, "plot", "--erdos", "1", "--digits", "5000", "--out", str(target))[0] == 2
        assert not target.exists()

    def test_io_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "plot", "--erdos", "1",
                         "--out", "/nonexistent-dir/x.svg")
        assert code == 4

    def test_golden_file_stability(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            run(capsys, "plot", "--erdos", "3", "--divide", "6",
                "--digits", "30", "--out", str(target))
        assert a.read_bytes() == b.read_bytes()


class TestEnvironment:
    def test_serret_digits_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SERRET_DIGITS", "30")
        doc = run_json(capsys, "length", "--erdos", "1")
        assert doc["digits"] == 30
        mantissa = doc["results"][0]["closed_form"].replace(".", "")
        assert len(mantissa.lstrip("0")) == 30

    def test_explicit_digits_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SERRET_DIGITS", "30")
        doc = run_json(capsys, "length", "--erdos", "1", "--digits", "25")
        assert doc["digits"] == 25

    @staticmethod
    def _probe(code):
        """stdout of ``code`` run in a fresh interpreter on this checkout's src."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()

    def test_import_leaves_numpy_unloaded(self):
        assert self._probe("import sys, serretlab.cli; print('numpy' in sys.modules)") == "False"

    def test_import_leaves_logging_unloaded(self):
        # only a PSLQ search loads logging, for its debug event
        assert self._probe(
            "import io, sys, contextlib, serretlab.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['length', '--erdos', '1', '--digits', '20'])\n"
            "print('logging' in sys.modules)") == "False"


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_json_bytes(self, capsys, monkeypatch, name):
        """stdout, byte for byte; JSON unless the command names another --format."""
        monkeypatch.delenv("SERRET_DIGITS", raising=False)
        argv = GOLDEN_COMMANDS[name]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == (GOLDEN / f"{name}.{SUFFIX[fmt]}").read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_PLOTS))
    def test_svg_bytes(self, capsys, monkeypatch, tmp_path, name):
        monkeypatch.delenv("SERRET_DIGITS", raising=False)
        target = tmp_path / f"{name}.svg"
        code, _, err = run(capsys, *GOLDEN_PLOTS[name], str(target))
        assert code == 0, err
        assert target.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()
