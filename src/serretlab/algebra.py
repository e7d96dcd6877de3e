"""Integer-relation detection and minimal-polynomial recognition.

PSLQ here is the classical one-level algorithm of Ferguson, Bailey and
Arno (Math. Comp. 68 (1999) 351-369) with gamma = sqrt(4/3): a
lower-trapezoidal matrix H built from the normalized input vector is
repeatedly size-reduced and row-swapped; the inverse of its largest
diagonal entry is a lower bound for the Euclidean norm of any integer
relation, so the search can stop with a definitive "none within the
requested height" answer.  The iterations run on Python integers: y and
H are fixed-point numbers scaled by 2^prec (prec the working precision
in bits) and the basis B is exact.  A candidate relation is accepted
only if its residual |sum m_i x_i|, evaluated on the original inputs, is
below 10**(-0.8 digits) relative to sum |m_i x_i|.  ``pslq`` returns
None only on that norm-bound proof; a search that runs out of steps or
of precision raises :class:`ConvergenceError`.

Recognition of a minimal polynomial searches the top degree first.
Padding a relation with zeros keeps its norm, so a proof on
(1, alpha, ..., alpha^D) rules out every degree <= D; a relation of
degree e is followed by one search at degree e - 1, until a search ends
in a proof.  The last relation is re-verified by recomputing alpha with
40 extra digits: a genuine relation's residual shrinks by at least
10**30, a precision artifact's does not and raises
:class:`SpuriousRelationError`.  Each PSLQ search logs one debug event
on the ``serretlab.algebra`` logger with its length, outcome, iteration
count and proven norm bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd, isqrt, log10
from typing import Callable, Optional, Sequence

from mpmath import mp

from .curves import Erdos
from .errors import ConfigurationError, ConvergenceError, DomainError, SpuriousRelationError
from .numkernel import BigReal, PrecisionContext, as_real

MAX_STEPS = 50_000  # read at call time, so tests may lower it
RAY_CLASS_DEGREE_CAP = 16  # degree cap for the n = 2, 3 lemniscates


def _log():
    # imported on first use: commands that run no PSLQ never load logging
    import logging
    return logging.getLogger(__name__)


def _precision_budget_degree(ctx: PrecisionContext, max_height: int) -> int:
    """Largest vector length n with digits >= 20 + n log10(max_height)."""
    if max_height < 2:
        raise ConfigurationError("max_height must be at least 2")
    return int((ctx.digits - 20) / log10(max_height))


def _nint_div(a: int, b: int) -> int:
    """Nearest integer to a / b (b != 0), ties to even like ``mp.nint``."""
    q, r = divmod(a, b)
    twice = 2 * r
    if (twice > b if b > 0 else twice < b) or (twice == b and q & 1):
        q += 1
    return q


def pslq(xs: Sequence, max_height: int, ctx: PrecisionContext) -> Optional[list]:
    """Integers m, max|m_i| <= max_height, with sum m_i x_i ~ 0, or None.

    None means the iteration proved that no relation of the requested
    height exists (its norm bound exceeds max_height * sqrt(n)).  Running
    out of precision, or past MAX_STEPS iterations, raises
    :class:`ConvergenceError` whose ``best`` is the basis column of the
    smallest |y| entry and whose ``state`` holds the terms, iterations
    and proven norm bound; a precision too low for the requested bounds
    raises :class:`ConfigurationError` before any iteration.
    """
    n = len(xs)
    if n < 2:
        raise ConfigurationError("pslq needs at least two numbers")
    if _precision_budget_degree(ctx, max_height) < n:
        raise ConfigurationError(
            f"precision {ctx.digits} digits cannot certify relations on "
            f"{n} numbers with height {max_height}: need >= "
            f"{20 + ceil(n * log10(max_height))} digits")

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
        accept_tol = mp.mpf(10) ** int(-0.8 * ctx.digits)
        prec = mp.prec
        detect_tol = (mp.mpf(10) ** (-int(0.8 * ctx.digits) - 2)).to_fixed(prec)
        # proof: 1 / max|H_ii| > max_height sqrt(n)
        proof_h = (1 / (max_height * mp.sqrt(n))).to_fixed(prec)
        gamma = mp.sqrt(mp.mpf(4) / 3)
        gamma_pow = [(gamma ** (i + 1)).to_fixed(prec) for i in range(n - 1)]

        def vanishes(m):
            # B is unimodular, so m != 0 and sum |m_i x_i| > 0
            dot = mp.fsum(mi * xi for mi, xi in zip(m, x))
            scale = mp.fsum(abs(mi * xi) for mi, xi in zip(m, x))
            return abs(dot) < accept_tol * scale

        # partial norms s_k = sqrt(sum_{j>=k} x_j^2), then normalize
        s = [mp.mpf(0)] * n
        acc = mp.mpf(0)
        for k in range(n - 1, -1, -1):
            acc += x[k] * x[k]
            s[k] = mp.sqrt(acc)
        t = s[0]
        yf = [v / t for v in x]
        s = [v / t for v in s]
        y = [v.to_fixed(prec) for v in yf]
        H = [[0] * (n - 1) for _ in range(n)]
        for i in range(n):
            if i < n - 1:
                H[i][i] = (s[i + 1] / s[i]).to_fixed(prec)
            for j in range(i):
                H[i][j] = (-yf[i] * yf[j] / (s[j] * s[j + 1])).to_fixed(prec)
        B = [[int(i == j) for i in range(n)] for j in range(n)]  # B[j] is column j

        def reduce_from(start_row):
            # full size reduction of rows >= start_row (covers Bailey's
            # partial column range; already-reduced entries give t = 0)
            for i in range(start_row, n):
                Hi = H[i]
                for j in range(i - 1, -1, -1):
                    Hj = H[j]
                    hjj = Hj[j]
                    if hjj == 0 or 2 * abs(Hi[j]) <= abs(hjj):  # nint(H_ij/H_jj) = 0
                        continue
                    tq = _nint_div(Hi[j], hjj)
                    y[j] += tq * y[i]
                    for k in range(j + 1):
                        Hi[k] -= tq * Hj[k]
                    B[j] = [u + tq * v for u, v in zip(B[j], B[i])]

        def finish(outcome, iterations, h_max):
            bound = mp.ldexp(1, prec) / h_max if h_max else mp.inf
            _log().debug("pslq on %d terms: %s after %d iterations, norm bound %s",
                         n, outcome, iterations, mp.nstr(bound, 8),
                         extra={"pslq": {"terms": n, "outcome": outcome,
                                         "iterations": iterations, "norm_bound": bound}})
            return bound

        def exhausted(why, iterations, h_max):
            bound = finish("exhausted", iterations, h_max)
            smallest = min(range(n), key=lambda k: abs(y[k]))
            raise ConvergenceError(
                f"pslq on {n} numbers {why} after {iterations} iterations "
                f"(norm bound {mp.nstr(bound, 8)})",
                best=list(B[smallest]),
                state={"terms": n, "iterations": iterations, "norm_bound": bound})

        reduce_from(1)
        # squared norm of the shortest relation found above max_height: a
        # norm bound beyond it shows the working precision is spent
        over_height = None
        h_max = max(abs(H[r][r]) for r in range(n - 1))
        for it in range(1, MAX_STEPS + 1):
            # row with the largest gamma^i |H_ii|
            m_row, best = 0, -1
            for i in range(n - 1):
                sz = gamma_pow[i] * abs(H[i][i])
                if sz > best:
                    m_row, best = i, sz
            i = m_row
            y[i], y[i + 1] = y[i + 1], y[i]
            H[i], H[i + 1] = H[i + 1], H[i]
            B[i], B[i + 1] = B[i + 1], B[i]
            if i < n - 2:
                a, b = H[i][i], H[i][i + 1]
                t0 = isqrt(a * a + b * b)
                if t0 == 0:
                    exhausted("ran out of precision", it, h_max)
                c0, c1 = (a << prec) // t0, (b << prec) // t0
                for r in range(i, n):
                    Hr = H[r]
                    h0, h1 = Hr[i], Hr[i + 1]
                    Hr[i] = (c0 * h0 + c1 * h1) >> prec
                    Hr[i + 1] = (c0 * h1 - c1 * h0) >> prec
            reduce_from(i + 1)
            last_h, h_max = h_max, max(abs(H[r][r]) for r in range(n - 1))

            # several y entries can fall below the tolerance together, and
            # the relation need not sit in the column of the smallest one
            for j in sorted(range(n), key=lambda k: abs(y[k])):
                if abs(y[j]) >= detect_tol:
                    break
                m = B[j]
                if not vanishes(m):
                    continue
                if max(abs(v) for v in m) <= max_height:
                    finish("relation", it, h_max)
                    return list(m)
                norm2 = sum(v * v for v in m)
                over_height = norm2 if over_height is None else min(over_height, norm2)
            if h_max == 0:
                exhausted("ran out of precision", it, last_h)
            if h_max < proof_h:
                if over_height is not None and over_height * h_max ** 2 < 1 << 2 * prec:
                    exhausted(f"found a relation of norm {mp.nstr(mp.sqrt(over_height), 8)} "
                              "above max_height, then ran out of precision", it, h_max)
                finish("proof", it, h_max)
                return None  # no relation of this height exists
        exhausted(f"ran out of max_steps = {MAX_STEPS}", MAX_STEPS, h_max)


@dataclass(frozen=True)
class MinPolyCandidate:
    coeffs: tuple       # integers, degree low to high, content 1, leading > 0
    degree: int
    residual: BigReal
    height: int
    status: str         # "found" | "none"
    verified: bool = False


def _poly_residual(coeffs, alpha, ctx: PrecisionContext) -> BigReal:
    with ctx.workdps(10):
        a = as_real(alpha, ctx)
        acc = mp.mpf(0)
        for c in reversed(coeffs):
            acc = acc * a + c
        return abs(acc)


def _normalize(rel):
    """Content 1, leading coefficient positive and no factor x: alpha != 0,
    so x^k q(x) vanishing at alpha means q(alpha) = 0."""
    nonzero = [k for k, c in enumerate(rel) if c != 0]
    coeffs = list(rel[nonzero[0]:nonzero[-1] + 1])
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
    An alpha equal to an integer m with |m| <= max_height is answered
    x - m (verified, residual 0) without a search.
    Searches the top degree the precision budget allows first: a proof
    there returns status "none", or is a configuration error if the
    budget stops short of ``max_degree`` (the request cannot be decided).
    A relation of degree e is followed by a search at degree e - 1 until
    a search ends in a proof; the last relation is the answer.  A search
    that runs out of steps or precision raises :class:`ConvergenceError`.
    """
    if max_degree < 1:
        raise ConfigurationError("max_degree must be >= 1")
    if refine is None and callable(alpha):
        refine = alpha
    value = refine(ctx) if callable(alpha) else alpha
    rounded = as_real(value, ctx)
    if mp.isint(rounded) and abs(rounded) <= max_height:
        m = int(rounded)
        return MinPolyCandidate((-m, 1), 1, mp.mpf(0), max(abs(m), 1), "found", True)

    # below degree 1, the first pslq call names the digits that degree 1 needs
    searchable = max(1, min(max_degree, _precision_budget_degree(ctx, max_height) - 1))
    with ctx.workdps(10):
        a = as_real(value, ctx)
        powers = [mp.mpf(1)]
        for _ in range(searchable):
            powers.append(powers[-1] * a)
        coeffs, top = None, searchable
        while top >= 1:
            rel = pslq(powers[:top + 1], max_height, ctx)
            if rel is None:
                break
            coeffs = _normalize(rel)
            top = len(coeffs) - 2  # one below the relation's degree
        if coeffs is None:
            if searchable < max_degree:
                raise ConfigurationError(
                    f"precision {ctx.digits} digits supports degree <= {searchable} "
                    f"at height {max_height}; cannot decide degrees up to {max_degree}")
            return MinPolyCandidate((), 0, mp.mpf(0), 0, "none", False)

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
            f"division radii lie in the cyclotomic field Q(zeta_{4 * l}) "
            f"of degree phi({4 * l}) = {_totient(4 * l)} over Q",
            _totient(4 * l))
    if curve.n == 2:
        return DegreeBoundRecord(
            f"division radii lie in the ray class field of Q(i) with modulus {4 * l}; "
            f"its degree is not computed here (configured cap {RAY_CLASS_DEGREE_CAP})",
            RAY_CLASS_DEGREE_CAP)
    return DegreeBoundRecord(
        f"division radii lie in an extension of degree at most 2 of the ray class "
        f"field of Q(zeta_3) with modulus {2 * l}; its degree is not computed here "
        f"(configured cap {RAY_CLASS_DEGREE_CAP})",
        RAY_CLASS_DEGREE_CAP)
