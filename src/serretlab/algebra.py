"""Integer-relation detection and minimal-polynomial recognition.

PSLQ here is the classical one-level algorithm with gamma = sqrt(4/3):
a lower-trapezoidal matrix H built from the normalized input vector is
repeatedly size-reduced and row-swapped; the inverse of its largest
diagonal entry is a lower bound for the Euclidean norm of any integer
relation, so the search can stop with a definitive "none within the
requested height" answer.  A candidate relation is accepted only if the
residual |sum m_i x_i| is below 10**(-0.8 digits) relative to
sum |m_i x_i|.

Recognition of a minimal polynomial runs PSLQ on (1, alpha, ...,
alpha^d) for increasing d and re-verifies any hit by recomputing alpha
with 40 extra digits: a genuine relation's residual shrinks by at least
10**30, a precision artifact's does not and raises
:class:`SpuriousRelationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, log10
from typing import Callable, Optional, Sequence

from mpmath import mp

from .curves import Erdos
from .errors import ConfigurationError, DomainError, SpuriousRelationError
from .numkernel import BigReal, PrecisionContext, as_real

DEFAULT_MAX_STEPS = 50_000
RAY_CLASS_DEGREE_CAP = 16  # degree cap for the n = 2, 3 lemniscates


def _precision_budget_degree(ctx: PrecisionContext, max_height: int) -> int:
    """Largest vector length n with digits >= 20 + n log10(max_height)."""
    if max_height < 2:
        raise ConfigurationError("max_height must be at least 2")
    return int((ctx.digits - 20) / log10(max_height))


def pslq(xs: Sequence, max_height: int, ctx: PrecisionContext,
         max_steps: int = DEFAULT_MAX_STEPS) -> Optional[list]:
    """Integers m, max|m_i| <= max_height, with sum m_i x_i ~ 0, or None.

    None means the iteration proved no relation of the requested height
    exists at this precision (norm bound exceeded) or exhausted its
    budget; a precision too low for the requested bounds raises
    :class:`ConfigurationError` instead.
    """
    n = len(xs)
    if n < 2:
        raise ConfigurationError("pslq needs at least two numbers")
    if _precision_budget_degree(ctx, max_height) < n:
        raise ConfigurationError(
            f"precision {ctx.digits} digits cannot certify relations on "
            f"{n} numbers with height {max_height}: need >= "
            f"{20 + int(n * log10(max_height)) + 1} digits")

    with ctx.workdps(10):
        x = [as_real(v, ctx) for v in xs]
        if any(abs(v) > mp.mpf(10) ** ctx.digits for v in x):
            raise DomainError("pslq inputs must satisfy |x| <= 10^digits")
        if any(v == 0 for v in x):
            raise DomainError("pslq inputs must be nonzero")
        # inputs are only guaranteed accurate to 10^-digits, so a true
        # relation's y-entry bottoms out near that scale, not at the
        # working-precision floor; detect slightly below the acceptance
        # bound 10^(-0.8 digits).  The precision precondition keeps the
        # coincidence floor 10^(-n log10 h) well above this.
        detect_tol = mp.mpf(10) ** (-int(0.8 * ctx.digits) - 2)
        accept_tol = mp.mpf(10) ** int(-0.8 * ctx.digits)

        def accepted(m):
            if all(v == 0 for v in m) or max(abs(v) for v in m) > max_height:
                return False
            dot = mp.fsum(mi * xi for mi, xi in zip(m, x))
            scale = mp.fsum(abs(mi * xi) for mi, xi in zip(m, x))
            if scale == 0:
                return True
            return abs(dot) < accept_tol * scale

        gamma = mp.sqrt(mp.mpf(4) / 3)
        # partial norms s_k = sqrt(sum_{j>=k} x_j^2), then normalize
        s = [mp.mpf(0)] * n
        acc = mp.mpf(0)
        for k in range(n - 1, -1, -1):
            acc += x[k] * x[k]
            s[k] = mp.sqrt(acc)
        t = s[0]
        y = [v / t for v in x]
        s = [v / t for v in s]

        B = [[mp.mpf(1) if i == j else mp.mpf(0) for j in range(n)] for i in range(n)]
        H = [[mp.mpf(0)] * (n - 1) for _ in range(n)]
        for i in range(n):
            if i < n - 1:
                H[i][i] = s[i + 1] / s[i]
            for j in range(i):
                H[i][j] = -y[i] * y[j] / (s[j] * s[j + 1])

        def reduce_from(start_row):
            # full size reduction of rows >= start_row (covers Bailey's
            # partial column range; already-reduced entries give t = 0)
            for i in range(start_row, n):
                for j in range(i - 1, -1, -1):
                    if H[j][j] == 0:
                        continue
                    tq = mp.nint(H[i][j] / H[j][j])
                    if tq == 0:
                        continue
                    y[j] += tq * y[i]
                    for k in range(j + 1):
                        H[i][k] -= tq * H[j][k]
                    for k in range(n):
                        B[k][j] += tq * B[k][i]

        reduce_from(1)

        for _ in range(max_steps):
            # row with the largest gamma^i |H_ii|
            m_row, best = 0, mp.mpf(-1)
            g = mp.mpf(1)
            for i in range(n - 1):
                g *= gamma
                sz = g * abs(H[i][i])
                if sz > best:
                    m_row, best = i, sz
            i = m_row
            y[i], y[i + 1] = y[i + 1], y[i]
            H[i], H[i + 1] = H[i + 1], H[i]
            for k in range(n):
                B[k][i], B[k][i + 1] = B[k][i + 1], B[k][i]
            if i < n - 2:
                t0 = mp.sqrt(H[i][i] ** 2 + H[i][i + 1] ** 2)
                if t0 == 0:
                    break  # precision exhausted
                c0, c1 = H[i][i] / t0, H[i][i + 1] / t0
                for r in range(i, n):
                    h0, h1 = H[r][i], H[r][i + 1]
                    H[r][i] = c0 * h0 + c1 * h1
                    H[r][i + 1] = -c1 * h0 + c0 * h1
            reduce_from(i + 1)

            # several y entries can fall below the tolerance together, and
            # the relation need not sit in the column of the smallest one
            for j in sorted(range(n), key=lambda k: abs(y[k])):
                if abs(y[j]) >= detect_tol:
                    break
                cand = [int(mp.nint(B[r][j])) for r in range(n)]
                if accepted(cand):
                    return cand
            h_max = max(abs(H[r][r]) for r in range(n - 1))
            if h_max == 0:
                break
            if 1 / h_max > max_height * mp.sqrt(n):
                return None  # no relation of this height exists
        return None


@dataclass(frozen=True)
class MinPolyCandidate:
    coeffs: tuple       # integers, degree low to high, content 1, leading > 0
    degree: int
    residual: BigReal
    height: int
    status: str         # "found" | "none"
    verified: bool = False


def _poly_residual(coeffs, alpha, ctx: PrecisionContext, extra: int = 0) -> BigReal:
    with ctx.workdps(10 + extra):
        a = as_real(alpha, ctx)
        acc = mp.mpf(0)
        for c in reversed(coeffs):
            acc = acc * a + c
        return abs(acc)


def _normalize(rel):
    deg = len(rel) - 1
    while deg > 0 and rel[deg] == 0:
        deg -= 1
    coeffs = list(rel[:deg + 1])
    content = 0
    for c in coeffs:
        content = gcd(content, abs(c))
    if content > 1:
        coeffs = [c // content for c in coeffs]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(coeffs)


def minpoly(alpha, max_degree: int, max_height: int, ctx: PrecisionContext,
            refine: Optional[Callable[[PrecisionContext], BigReal]] = None) -> MinPolyCandidate:
    """Integer polynomial of degree <= max_degree vanishing at alpha.

    ``alpha`` may be a number or a callable ctx -> value; a callable is
    also used to recompute alpha at digits + 40 for the shrink test.
    Searches degree 1, 2, ... within the precision budget; exhausting
    the budget before ``max_degree`` without a hit is a configuration
    error (the request cannot be decided), a completed search without a
    hit returns status "none".
    """
    if max_degree < 1:
        raise ConfigurationError("max_degree must be >= 1")
    if refine is None and callable(alpha):
        refine = alpha
    value = refine(ctx) if callable(alpha) else alpha
    with ctx.workdps():
        if as_real(value, ctx) == 0:
            return MinPolyCandidate((0, 1), 1, mp.mpf(0), 1, "found", True)

    budget = _precision_budget_degree(ctx, max_height) - 1
    searchable = min(max_degree, budget)
    with ctx.workdps(10):
        a = as_real(value, ctx)
        powers = [mp.mpf(1)]
        for d in range(1, searchable + 1):
            powers.append(powers[-1] * a)
            rel = pslq(powers, max_height, ctx)
            if rel is None:
                continue
            coeffs = _normalize(rel)
            degree = len(coeffs) - 1
            height = max(abs(c) for c in coeffs)
            residual = _poly_residual(coeffs, a, ctx)
            threshold = mp.mpf(10) ** int(-0.8 * ctx.digits) * height * max(degree, 1)
            if residual >= threshold:
                raise SpuriousRelationError(
                    f"relation {coeffs} rejected: residual {residual} above threshold")
            verified = False
            if refine is not None:
                bumped = ctx.bumped(40)
                with bumped.workdps():
                    refined_alpha = refine(bumped)
                refined = _poly_residual(coeffs, refined_alpha, bumped)
                # a genuine relation tracks alpha's accuracy: either the
                # full 1e-30 shrink, or (if the base residual was already
                # below its own floor) meeting the stricter acceptance
                # threshold of the bumped precision -- unreachable for a
                # precision artifact, whose residual does not move
                bumped_threshold = (mp.mpf(10) ** int(-0.8 * bumped.digits)
                                    * height * max(degree, 1))
                if not (refined <= residual * mp.mpf(10) ** -30
                        or refined <= bumped_threshold):
                    raise SpuriousRelationError(
                        f"relation {coeffs} failed re-verification: residual "
                        f"{residual} -> {refined} at +40 digits")
                verified = True
            return MinPolyCandidate(coeffs, degree, residual, int(height), "found", verified)
        if searchable < max_degree:
            raise ConfigurationError(
                f"precision {ctx.digits} digits supports degree <= {searchable} "
                f"at height {max_height}; cannot decide degrees up to {max_degree}")
        return MinPolyCandidate((), 0, mp.mpf(0), 0, "none", False)


def _totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@dataclass(frozen=True)
class DegreeBoundRecord:
    curve: Erdos
    parts: int
    field_statement: str
    degree_cap: int


def documented_degree_bound(curve, l: int) -> DegreeBoundRecord:
    """Field membership statement and degree cap for division radii.

    Only the circle bound phi(4l) is computed exactly; the one- and
    three-leaf lemniscate radii lie in (extensions of) ray class fields
    whose degrees this package does not compute, so those use the
    conservative cap RAY_CLASS_DEGREE_CAP.
    """
    if not isinstance(curve, Erdos) or curve.n not in (1, 2, 3):
        raise DomainError("degree bounds are documented for Erdos n in {1, 2, 3}")
    if l < 1:
        raise ConfigurationError("need l >= 1")
    if curve.n == 1:
        return DegreeBoundRecord(
            curve, l,
            f"division radii lie in the cyclotomic field Q(zeta_{4 * l}) "
            f"of degree phi({4 * l}) = {_totient(4 * l)} over Q",
            _totient(4 * l))
    if curve.n == 2:
        return DegreeBoundRecord(
            curve, l,
            f"division radii lie in the ray class field of Q(i) with modulus {4 * l}; "
            f"its degree is not computed here (configured cap {RAY_CLASS_DEGREE_CAP})",
            RAY_CLASS_DEGREE_CAP)
    return DegreeBoundRecord(
        curve, l,
        f"division radii lie in an extension of degree at most 2 of the ray class "
        f"field of Q(zeta_3) with modulus {2 * l}; its degree is not computed here "
        f"(configured cap {RAY_CLASS_DEGREE_CAP})",
        RAY_CLASS_DEGREE_CAP)
