import math
from fractions import Fraction

import pytest

from serretlab.curves import Erdos, PolyLemniscate, Regular, Sinusoidal
from serretlab.errors import ConfigurationError, DomainError
from serretlab.render import (Polyline, RenderOptions, emit_svg, mandelbrot_coeffs,
                              trace_implicit, trace_polar)


def _abs_p(coeffs, x, y):
    z = complex(x, y)
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return abs(acc)


class TestPolyline:
    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            Polyline(((0, 0),), False)

    def test_consecutive_distinct(self):
        with pytest.raises(ConfigurationError):
            Polyline(((0, 0), (0, 0), (1, 1)), False)


class TestRenderOptions:
    def test_bbox_validation(self):
        with pytest.raises(ConfigurationError):
            RenderOptions(bbox=(1, 0, 1, 2))

    def test_grid_range(self):
        with pytest.raises(ConfigurationError):
            RenderOptions(grid_resolution=32)
        with pytest.raises(ConfigurationError):
            RenderOptions(grid_resolution=8192)


class TestTracePolar:
    def test_circle(self):
        pls = trace_polar(Erdos(1), 360)
        assert len(pls) == 1 and pls[0].closed
        assert len(pls[0].points) == 360
        worst = max(abs(math.hypot(x - 1, y) - 1) for x, y in pls[0].points)
        assert worst < 1e-3

    def test_two_lobes_point_count(self):
        pls = trace_polar(Erdos(2), 360)
        assert len(pls) == 1
        assert len(pls[0].points) == 2 * 360
        assert any(math.hypot(x, y) < 1e-9 for x, y in pls[0].points)

    def test_three_components_for_outer_ovals(self):
        pls = trace_polar(Regular(2, 3), 120)
        assert len(pls) == 3
        assert all(p.closed for p in pls)

    def test_cassini_single_component(self):
        pls = trace_polar(Regular(Fraction(4, 5), 2), 240)
        assert len(pls) == 1

    def test_cardioid(self):
        pls = trace_polar(Sinusoidal(1, 2), 240)
        assert len(pls) == 1

    def test_symmetric_vertex_set(self):
        pts = set()
        for x, y in trace_polar(Erdos(2), 128)[0].points:
            pts.add((round(x, 9), round(y, 9)))
        mirrored = {(x, -y) for x, y in pts}
        assert pts == mirrored

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trace_polar(Erdos(1), 8)
        with pytest.raises(DomainError):
            trace_polar(PolyLemniscate((0, 1)), 64)


class TestMandelbrotCoeffs:
    def test_first_iterates(self):
        assert mandelbrot_coeffs(0) == (0, 1)
        assert mandelbrot_coeffs(1) == (0, 1, 1)       # T^2 + T
        assert mandelbrot_coeffs(2) == (0, 1, 1, 2, 1)  # (T^2+T)^2 + T

    def test_degree_doubles(self):
        assert len(mandelbrot_coeffs(3)) == 9

    def test_level_range(self):
        assert len(mandelbrot_coeffs(9)) == 2 ** 9 + 1
        for level in (-1, 10, 40):
            with pytest.raises(ConfigurationError):
                mandelbrot_coeffs(level)


class TestTraceImplicit:
    def test_unit_circle(self):
        opts = RenderOptions(bbox=(-2, -2, 2, 2), grid_resolution=256)
        pls = trace_implicit(PolyLemniscate((0, 1)), opts)
        assert len(pls) == 1 and pls[0].closed
        worst = max(abs(math.hypot(x, y) - 1) for x, y in pls[0].points)
        assert worst < 2 / 256

    def test_bernoulli_vertices(self):
        opts = RenderOptions(bbox=(-2, -2, 2, 2), grid_resolution=1024)
        coeffs = (-1, 0, 1)  # z^2 - 1
        pls = trace_implicit(PolyLemniscate(coeffs), opts)
        assert pls
        worst = max(abs(_abs_p(coeffs, x, y) - 1) for pl in pls for x, y in pl.points)
        assert worst < 1e-2
        xs = [x for pl in pls for x, _ in pl.points]
        assert min(xs) < -1 and max(xs) > 1  # both lobes present

    def test_second_mandelbrot_iterate(self):
        coeffs = mandelbrot_coeffs(1)  # T^2 + T
        opts = RenderOptions(bbox=(-2.25, -2.25, 2.25, 2.25), grid_resolution=512)
        pls = trace_implicit(PolyLemniscate(coeffs), opts)
        worst = max(abs(_abs_p(coeffs, x, y) - 1) for pl in pls for x, y in pl.points)
        assert worst < 1e-2

    def test_empty_intersection(self):
        opts = RenderOptions(bbox=(-1, -1, 1, 1), grid_resolution=64)
        assert trace_implicit(PolyLemniscate((10, 0, 1)), opts) == []

    def test_deterministic(self):
        opts = RenderOptions(bbox=(-2, -2, 2, 2), grid_resolution=128)
        a = trace_implicit(PolyLemniscate((-1, 0, 1)), opts)
        b = trace_implicit(PolyLemniscate((-1, 0, 1)), opts)
        assert a == b

    def test_rejects_catalog_curves(self):
        with pytest.raises(DomainError):
            trace_implicit(Erdos(2), RenderOptions())


class TestEmitSvg:
    def test_empty_canvas(self):
        svg = emit_svg([], [], RenderOptions())
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")

    def test_closed_path_has_z(self):
        pls = trace_polar(Erdos(1), 64)
        svg = emit_svg(pls, [], RenderOptions())
        assert svg.count("<path") == 1
        assert ' Z"' in svg

    def test_marker_count(self):
        markers = [(0.1 * i, 0.2 * i, f"P{i}") for i in range(12)]
        svg = emit_svg(trace_polar(Erdos(3), 120), markers, RenderOptions())
        assert svg.count('class="marker"') == 12
        assert svg.count("<text") == 12

    def test_deterministic_output(self):
        pls = trace_polar(Erdos(2), 90)
        opts = RenderOptions()
        assert emit_svg(pls, [(1.0, 0.0, "A")], opts) == emit_svg(pls, [(1.0, 0.0, "A")], opts)

    def test_aspect_preserved(self):
        # square viewport, tall bbox: x-extent must not stretch
        opts = RenderOptions(bbox=(-1, -2, 1, 2))
        square = Polyline(((-1, -1), (1, -1), (1, 1), (-1, 1)), True)
        svg = emit_svg([square], [], opts)
        # pixels per unit = min(640/2, 640/4) = 160 -> x in [160, 480]
        assert "M 160.000" in svg
        assert 'width="640" height="640"' in svg
