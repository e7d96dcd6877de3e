"""Plane rendering of Serret curves as SVG: polar tracing for the
catalog families, marching squares for arbitrary |P(z)| = 1 level sets.

Everything here runs at machine precision (pixels need 7 digits at
most); division-point markers arrive as already-rounded coordinates
from the high-precision pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import PolyLemniscate, Sinusoidal
from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class Polyline:
    points: tuple
    closed: bool

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ConfigurationError("a polyline needs at least two points")
        if any(pts[i] == pts[i + 1] for i in range(len(pts) - 1)):
            raise ConfigurationError("consecutive polyline points must be distinct")


# every SVG is a square viewport of this many pixels, drawn in two colours
VIEWPORT_PX = 640
STROKE = "#204080"
MARKER_FILL = "#c02020"
# trace_polar builds at most this many vertices (10^5 take about 0.4 s and 35 MB)
MAX_POLAR_VERTICES = 200_000
# no SVG pixel coordinate exceeds this in absolute value: a bbox that maps
# a curve point beyond it zooms past any drawable detail, and would write
# coordinates of up to 300 digits
MAX_PIXEL_OFFSET = 1e9


@dataclass(frozen=True)
class RenderOptions:
    bbox: tuple = (-2.25, -2.25, 2.25, 2.25)
    grid_resolution: int = 512

    def __post_init__(self):
        xmin, ymin, xmax, ymax = self.bbox
        if not (xmin < xmax and ymin < ymax):
            raise ConfigurationError(f"degenerate bbox {self.bbox}")
        span = max(xmax - xmin, ymax - ymin)
        if not all(math.isfinite(v) for v in (*self.bbox, span, VIEWPORT_PX / span)):
            raise ConfigurationError(f"bbox {self.bbox} needs a finite span and pixel scale")
        if not 64 <= self.grid_resolution <= 4096:
            raise ConfigurationError("grid_resolution must be in [64, 4096]")


def _leaf_points(q: float, center: float, samples: int):
    """One leaf of r^q = 2 cos(q (theta - center)), starting at the origin."""
    half = math.pi / (2 * q)
    pts = [(0.0, 0.0)]  # the leaf starts exactly at the origin
    for j in range(1, samples):
        phi = -half + j * (2 * half) / samples
        c = max(2 * math.cos(q * phi), 0.0)
        r = c ** (1 / q) if c > 0 else 0.0
        theta = center + phi
        pts.append((r * math.cos(theta), r * math.sin(theta)))
    return pts


def trace_polar(curve, samples: int) -> list:
    """Closed polylines approximating the curve, one per component.

    Erdos and sinusoidal leaves all meet at the origin and glue into a
    single closed polyline with ``samples`` vertices per leaf;
    Regular a < 1 is one loop around the origin; Regular a > 1 has k
    congruent components, each traced along its outer then inner branch.
    More than MAX_POLAR_VERTICES vertices in all is a configuration error.
    """
    if samples < 16:
        raise ConfigurationError("need samples >= 16")
    if isinstance(curve, PolyLemniscate):
        raise DomainError("trace_polar does not accept PolyLemniscate; use trace_implicit")
    # vertices per sample: one per leaf, per loop, or per branch of each a > 1 oval
    per_sample = curve.leaves if isinstance(curve, Sinusoidal) else curve.k * (2 if curve.a > 1 else 1)
    if per_sample * samples > MAX_POLAR_VERTICES:
        raise ConfigurationError(f"samples={samples} gives up to {per_sample * samples} vertices, "
                                 f"above {MAX_POLAR_VERTICES}")
    if isinstance(curve, Sinusoidal):
        q = float(curve.q)
        pts = []
        for leaf in range(curve.leaves):
            pts.extend(_leaf_points(q, 2 * math.pi * leaf / q, samples))
        return [Polyline(tuple(pts), True)]

    a, k = float(curve.a), curve.k
    ak = a ** k
    if a < 1:
        pts = []
        n = k * samples
        for j in range(n):
            theta = 2 * math.pi * j / n
            s = math.sin(k * theta)
            rk = ak * math.cos(k * theta) + math.sqrt(max(1 - ak * ak * s * s, 0.0))
            r = rk ** (1 / k)
            pts.append((r * math.cos(theta), r * math.sin(theta)))
        return [Polyline(tuple(pts), True)]

    # a > 1: k separate ovals; the one crossing the positive x-axis spans
    # |k theta| <= arcsin(a^-k), outer branch (+ root) out, inner branch
    # (- root) back
    theta_star = math.asin(1 / ak) / k
    walk = [(j, 1) for j in range(samples)] + [(j, -1) for j in range(samples - 2, 0, -1)]
    out = []
    for comp in range(k):
        center = 2 * math.pi * comp / k
        pts = []
        for j, sign in walk:
            phi = -theta_star + j * (2 * theta_star) / (samples - 1)
            s = math.sin(k * phi)
            root = math.sqrt(max(1 - ak * ak * s * s, 0.0))
            rk = ak * math.cos(k * phi) + sign * root
            theta = center + phi
            r = max(rk, 0.0) ** (1 / k)
            pts.append((r * math.cos(theta), r * math.sin(theta)))
        out.append(Polyline(tuple(pts), True))
    return out


def mandelbrot_coeffs(level: int) -> tuple:
    """Ascending coefficients of P_level, where P_0 = T, P_{n+1} = P_n^2 + T."""
    # degree 2^level: above 9 the float tracer overflows, squaring costs O(4^level)
    if not 0 <= level <= 9:
        raise ConfigurationError(f"level must be in [0, 9], got {level}")
    coeffs = [0, 1]
    for _ in range(level):
        sq = [0] * (2 * len(coeffs) - 1)
        for i, ci in enumerate(coeffs):
            for j, cj in enumerate(coeffs):
                sq[i + j] += ci * cj
        sq[1] += 1
        coeffs = sq
    return tuple(coeffs)


# marching squares: case index from the four corner signs (bit set =
# inside, i.e. F < 0), corners ordered bl, br, tr, tl; each case lists
# the crossed-edge pairs to join.  Edges: 0 bottom, 1 right, 2 top, 3 left.
_CASES = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    3: [(3, 1)], 12: [(3, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    6: [(0, 2)], 9: [(0, 2)],
    7: [(3, 2)], 8: [(3, 2)],
    # 5 and 10 are the ambiguous saddles, resolved by the center sample
}


def trace_implicit(poly: PolyLemniscate, opts: RenderOptions) -> list:
    """Marching-squares contours of |P(x+iy)| = 1 inside opts.bbox.

    Crossing positions are linearly interpolated on cell edges; saddle
    cells take the connection matching the sign of the cell center.
    Chains closing on themselves give closed polylines; chains ending on
    the bbox boundary stay open.  An empty intersection returns [].
    """
    # numpy is imported here, not at module level: no other code needs
    # it, and its import would be most of the CLI start-up time
    import numpy as np

    if not isinstance(poly, PolyLemniscate):
        raise DomainError("trace_implicit needs a PolyLemniscate")
    g = opts.grid_resolution
    xmin, ymin, xmax, ymax = (float(v) for v in opts.bbox)
    xs = np.linspace(xmin, xmax, g + 1)
    ys = np.linspace(ymin, ymax, g + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = X + 1j * Y
    P = np.zeros_like(Z)
    for c in reversed(poly.coeffs):
        P = P * Z + c
    F = np.abs(P) - 1.0
    inside = F < 0

    def horner(z):
        acc = 0j
        for c in reversed(poly.coeffs):
            acc = acc * z + c
        return abs(acc) - 1.0

    # edge key -> interpolated crossing point
    def edge_key(ix, iy, edge):
        # canonical id: horizontal edges keyed by left corner, vertical by bottom
        if edge == 0:
            return ("h", ix, iy)
        if edge == 2:
            return ("h", ix, iy + 1)
        if edge == 3:
            return ("v", ix, iy)
        return ("v", ix + 1, iy)

    def crossing(key):
        kind, ix, iy = key
        if kind == "h":
            fa, fb = F[ix, iy], F[ix + 1, iy]
            t = fa / (fa - fb)
            return (xs[ix] + t * (xs[ix + 1] - xs[ix]), ys[iy])
        fa, fb = F[ix, iy], F[ix, iy + 1]
        t = fa / (fa - fb)
        return (xs[ix], ys[iy] + t * (ys[iy + 1] - ys[iy]))

    sign_change = inside[:-1, :-1] | inside[1:, :-1] | inside[1:, 1:] | inside[:-1, 1:]
    all_inside = inside[:-1, :-1] & inside[1:, :-1] & inside[1:, 1:] & inside[:-1, 1:]
    active = np.argwhere(sign_change & ~all_inside)

    adjacency: dict = {}
    points: dict = {}

    def join(k1, k2):
        for k in (k1, k2):
            if k not in points:
                points[k] = crossing(k)
        adjacency.setdefault(k1, []).append(k2)
        adjacency.setdefault(k2, []).append(k1)

    for ix, iy in active:
        case = (int(inside[ix, iy]) | int(inside[ix + 1, iy]) << 1
                | int(inside[ix + 1, iy + 1]) << 2 | int(inside[ix, iy + 1]) << 3)
        if case in (5, 10):
            cx = 0.5 * (xs[ix] + xs[ix + 1])
            cy = 0.5 * (ys[iy] + ys[iy + 1])
            center_inside = horner(complex(cx, cy)) < 0
            # case 5: bl,tr inside; case 10: br,tl inside
            if case == 5:
                pairs = [(3, 2), (0, 1)] if center_inside else [(3, 0), (1, 2)]
            else:
                pairs = [(0, 1), (3, 2)] if not center_inside else [(3, 0), (1, 2)]
        else:
            pairs = _CASES[case]
        for e1, e2 in pairs:
            join(edge_key(ix, iy, e1), edge_key(ix, iy, e2))

    # walk chains
    visited = set()
    polylines = []
    # open chains first (endpoints with degree 1), then remaining loops
    keys = sorted(adjacency, key=str)
    for start in [k for k in keys if len(adjacency[k]) == 1] + keys:
        if start in visited or (start not in adjacency):
            continue
        chain = [start]
        visited.add(start)
        cur = start
        while True:
            nxt = next((k for k in adjacency[cur] if k not in visited), None)
            if nxt is None:
                break
            chain.append(nxt)
            visited.add(nxt)
            cur = nxt
        closed = len(chain) > 2 and chain[0] in adjacency.get(chain[-1], [])
        pts = [points[k] for k in chain]
        dedup = [pts[0]]
        for p in pts[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        if len(dedup) >= 2:
            polylines.append(Polyline(tuple(dedup), closed))
    return polylines


def _to_pixels(pts, opts: RenderOptions):
    xmin, ymin, xmax, ymax = (float(v) for v in opts.bbox)
    scale = VIEWPORT_PX / max(xmax - xmin, ymax - ymin)
    cx, cy = (xmin + xmax) / 2, (ymin + ymax) / 2
    out = []
    for x, y in pts:
        px = (float(x) - cx) * scale + VIEWPORT_PX / 2
        py = VIEWPORT_PX / 2 - (float(y) - cy) * scale
        if max(abs(px), abs(py)) > MAX_PIXEL_OFFSET:
            raise ConfigurationError(
                f"bbox {opts.bbox} puts the point ({float(x)}, {float(y)}) at pixel "
                f"({px:.3g}, {py:.3g}), beyond {MAX_PIXEL_OFFSET:g}")
        out.append((px, py))
    return out


def emit_svg(curves, markers, opts: RenderOptions) -> str:
    """Deterministic SVG 1.1 document: curve paths plus labeled markers.

    ``markers`` is a list of (x, y, label) in curve coordinates; the
    bbox maps to the VIEWPORT_PX square with the aspect ratio preserved.
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEWPORT_PX}" height="{VIEWPORT_PX}" '
        f'viewBox="0 0 {VIEWPORT_PX} {VIEWPORT_PX}">',
        f'  <rect width="{VIEWPORT_PX}" height="{VIEWPORT_PX}" fill="white"/>',
    ]
    for pl in curves:
        pix = _to_pixels(pl.points, opts)
        d = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in pix)
        if pl.closed:
            d += " Z"
        lines.append(f'  <path d="{d}" fill="none" stroke="{STROKE}" stroke-width="1.5"/>')
    for x, y, label in markers:
        (px, py), = _to_pixels([(x, y)], opts)
        lines.append(f'  <circle class="marker" cx="{px:.3f}" cy="{py:.3f}" r="4" '
                     f'fill="{MARKER_FILL}"/>')
        lines.append(f'  <text x="{px + 6:.3f}" y="{py - 6:.3f}" font-size="11" '
                     f'font-family="monospace">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
