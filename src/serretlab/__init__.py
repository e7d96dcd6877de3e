"""serretlab: high-precision arc lengths, equal-arc-length division
points and numerically certified minimal polynomials for Serret curves
(Erdos lemniscates, sinusoidal spirals, Cassini ovals, regular
polynomial lemniscates), plus an identity verification suite and an
SVG renderer."""

from .algebra import MinPolyCandidate, documented_degree_bound, minpoly, pslq
from .curves import (Erdos, PolyLemniscate, Regular, Sinusoidal, cassini_reduced_integral,
                     normalized_arc_integral, total_length_closed, total_length_quadrature)
from .division import (CassiniDivision, DivisionPoint, cassini_cos_u, divide_cassini,
                       divide_fundamental_arc, expand_by_symmetry, leaf_radius)
from .errors import (ConfigurationError, ConvergenceError, DomainError, IntegrandError,
                     InternalConsistencyError, SerretError, SpuriousRelationError)
from .identities import IdentityReport, run_all
from .numkernel import BigReal, PrecisionContext, from_decimal, make_context, to_decimal
from .quadrature import QuadratureResult, tanh_sinh
from .render import Polyline, RenderOptions, emit_svg, mandelbrot_coeffs, trace_implicit, trace_polar
from .specfun import beta, carlson_rf, ellip_k, ellip_sn, gamma, hyp2f1

__version__ = "0.1.0"
