"""Seeded task streams for the three workloads.

A workload is a stream of tasks made of rounds.  Every round holds the same
templates in the same order, and the seed draws each template's parameters,
so runs with different seeds run the same mix.  The program only ever sees
the argv.

* ``divide``: division points at 50 digits.  Every (curve, parts, digits) key
  is distinct within a run, because ``division`` caches each result per key
  and a repeated key would time a dictionary lookup.  A template whose key
  pool runs out is dropped from later rounds.  Sinusoidal curves are drawn
  with 2q an integer (q = a/2, a/4: integer powers in the integrand) and with
  2q fractional (q = a/3), because the integrand cost differs by about 2x.
* ``certify``: ``minpoly`` of real roots of seeded integer polynomials and of
  named constants, covering 5-, 9- and 17-term PSLQ vectors with both
  outcomes.  Seeded generators are Eisenstein at 2 (so irreducible: the
  expected minimal polynomial is the generator itself).  The Cassini a = 4/5,
  n = 3 relation enters through its degree-8 form in y = x^2.
* ``lengths``: total lengths of all four families over a digits ladder and
  one identity-suite run per round.  Keys come from ``_spread``, so the
  cost of a run's keys does not move with the seed.  Every run starts with one task within
  10^-5 of a = 1, the degenerate edge where the 2F1 series of the seed
  commit gives up after 500,000 terms (exit 3), and one length per rung.
  These come before the rounds, so that every round costs the same
  whatever the run holds.

A run holds the preamble and a fixed number of whole rounds (``rounds_for``),
never a round cut short, so its mix, its task count and its error rate do not
depend on how fast the machine ran.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import log10
from pathlib import Path

import mpmath

DIVIDE_DIGITS = 50
# an odd number of rungs puts the median task inside the middle rung
LENGTHS_LADDER = (25, 50, 100, 150, 200)
DEGENERATE_DIGITS = 15
# share of Erdos and Cassini tasks that also render an SVG; sinusoidal curves
# with many leaves are not rendered, so the peak memory does not follow
# which q the seed drew
SVG_SHARE = 0.4

# Cassini a = 4/5, n = 3: cos(u) is a root of this even degree-16 polynomial
# (coefficients of x^16, x^14, ..., x^0), irreducible over Q; y = cos(u)^2
# is a root of the same coefficients read as a degree-8 polynomial in y.
CASSINI_N3_EVEN = (-16777216, 2100297728, -31927042048, -185561595904,
                   -78022405120, 124575524096, -961807042048, -364275189772,
                   121643214659)


@dataclass
class Task:
    argv: list
    kind: str
    digits: int
    params: dict = field(default_factory=dict)


# whole rounds in a run of REFERENCE_SECONDS.  On the reference machine
# (2 vCPUs, pure-Python mpmath) a round takes about 15 s of CPU time on
# divide, 11 s on certify and 9 s on lengths, whose preamble adds 25 s.
# Divide keeps one round, which already holds every template, so that its
# runs stay short.
REFERENCE_SECONDS = 25
ROUNDS = {"divide": 1, "certify": 2, "lengths": 3}


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds in a run of ``seconds``.  The count depends on the
    arguments alone, so every run of a workload attempts the same tasks in
    the same mix, and a known failure is the same share of them."""
    return max(1, round(ROUNDS[workload] * seconds / REFERENCE_SECONDS))


def tasks(workload: str, seed: int, out_dir: Path):
    """(preamble, rounds) for this seed.

    The preamble is a list of tasks every run starts with; ``rounds`` yields
    lists of tasks and ends only if every key pool runs out.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "divide":
        return [], _divide_rounds(rng, out_dir / f"divide-{seed}-")
    if workload == "certify":
        return [], _certify_rounds(rng)
    return _lengths(rng)


NAMES = ("divide", "certify", "lengths")


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def _spread(items, rng):
    """Yield ``items``, which come sorted by cost, once each, in an order
    whose every prefix spreads over the whole list.

    The i-th item yielded sits at (u + v_i) mod 1 along the list, where u is
    drawn from the seed and v_i is the base-2 van der Corput sequence (0,
    1/2, 1/4, 3/4, ...); a position already taken passes to the next free
    one.  A run takes a few items from the front of each pool, so every run
    gets cheap, middling and dear keys in about the same shares, whatever
    the seed; drawn at random instead, the cost of a run's keys, and with
    it the median task, moved with the seed.
    """
    items = list(items)
    n, u = len(items), rng.random()
    taken = [False] * n
    for i in range(n):
        v, weight = 0.0, 0.5
        while i:
            v += weight * (i & 1)
            i, weight = i >> 1, weight / 2
        pos = int((u + v) % 1.0 * n)
        while taken[pos]:
            pos = (pos + 1) % n
        taken[pos] = True
        yield items[pos]


# -- divide -----------------------------------------------------------------

def _divide_rounds(rng, svg_prefix):
    def pool(items):
        items = list(items)
        rng.shuffle(items)
        return items

    third = [Fraction(a, 3) for a in range(1, 43) if a % 3]
    cassini_a = sorted({Fraction(p, q) for q in range(3, 31) for p in range(1, q)
                        if Fraction(1, 10) <= Fraction(p, q) <= Fraction(9, 10)})
    templates = [
        ("erdos", 2, pool(range(1, 5))),
        ("sinusoidal", 2, pool(Fraction(a, 2) for a in range(1, 29, 2))),
        ("cassini", None, pool((a, 2) for a in cassini_a)),
        ("sinusoidal", 2, pool(Fraction(a, 4) for a in range(1, 57, 2))),
        ("sinusoidal", 2, pool(third)),
        ("cassini", None, pool((a, rng.choice((3, 4))) for a in cassini_a)),
    ]
    serial = 0
    while any(p for _, _, p in templates):
        batch = []
        for family, parts, keys in templates:
            if not keys:
                continue
            key = keys.pop()
            if family == "erdos":
                argv = ["divide", "--erdos", str(key), "--parts", str(parts)]
                params = {"q": Fraction(key), "parts": parts}
            elif family == "sinusoidal":
                argv = ["divide", "--sinusoidal", _frac(key), "--parts", str(parts)]
                params = {"q": key, "parts": parts}
            else:
                a, n = key
                argv = ["divide", "--cassini", f"a={_frac(a)}", "--n", str(n)]
                params = {"a": a, "n": n}
            argv += ["--digits", str(DIVIDE_DIGITS)]
            if family != "sinusoidal" and rng.random() < SVG_SHARE:
                svg = f"{svg_prefix}{serial}.svg"
                argv += ["--svg-out", svg]
                params["svg"] = svg
            serial += 1
            kind = "divide_cassini" if family == "cassini" else "divide_leaf"
            batch.append(Task(argv, kind, DIVIDE_DIGITS, params))
        yield batch


# -- certify ----------------------------------------------------------------

def _digits_for(max_degree: int, max_height: int) -> int:
    """Digits the package's PSLQ budget needs for this search, plus margin."""
    return 20 + int((max_degree + 2) * log10(max_height)) + 10


def _real_root(coeffs_high_first, lo, hi, dps):
    """A root of the polynomial in [lo, hi], where it changes sign, by bisection."""
    with mpmath.workdps(dps):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        f_lo = mpmath.polyval(coeffs_high_first, lo)
        for _ in range(int(3.33 * dps) + 10):
            mid = (lo + hi) / 2
            f_mid = mpmath.polyval(coeffs_high_first, mid)
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return (lo + hi) / 2


def _eisenstein(rng, degree):
    """Monic, middle coefficients in {-2, 0, 2}, constant -2: irreducible.

    p(0) = -2 < 0 < p(3), so a positive real root lies in (0, 3).
    """
    return [1] + [rng.choice((-2, 0, 2)) for _ in range(degree - 1)] + [-2]


def _literal_task(coeffs, lo, hi, max_degree, max_height):
    digits = _digits_for(max_degree, max_height)
    root = _real_root(coeffs, lo, hi, digits + 30)
    literal = mpmath.nstr(root, digits + 10, strip_zeros=False)
    argv = ["minpoly", literal, "--max-degree", str(max_degree),
            "--max-height", str(max_height), "--digits", str(digits)]
    return Task(argv, "certify", digits,
                {"expect": "found", "generator": list(coeffs)})


def _const_task(name, max_degree, max_height, expect, generator=None):
    digits = _digits_for(max_degree, max_height)
    argv = ["minpoly", "--const", name, "--max-degree", str(max_degree),
            "--max-height", str(max_height), "--digits", str(digits)]
    return Task(argv, "certify", digits,
                {"expect": expect, "const": name, "generator": generator})


def _certify_rounds(rng):
    cassini_roots = ((0, 1), (20, 30), (100, 120))  # brackets of its positive roots
    h = 2  # every seeded generator has height 2
    while True:
        lo, hi = rng.choice(cassini_roots)
        name, gen = rng.choice((("sqrt2", [1, 0, -2]), ("phi", [1, -1, -1])))
        heavy = [_literal_task(_eisenstein(rng, 16), 0, 3, 16, h),
                 _const_task(rng.choice(("pi", "e")), 16, h, "none"),
                 _literal_task(list(CASSINI_N3_EVEN), lo, hi, 8, 10 ** 12)]
        mid = [_literal_task(_eisenstein(rng, 8), 0, 3, 8, h) if i % 2 else
               _const_task(("pi", "e")[i // 2 % 2], 8, h, "none") for i in range(8)]
        cheap = [_literal_task(_eisenstein(rng, 4), 0, 3, 4, h),
                 _const_task(rng.choice(("pi", "e")), 4, h, "none"),
                 _const_task(name, 4, h, "found", gen)]
        # the fourteen tasks sort as three cheap, eight mid (all 9-term
        # searches) and three heavy, so the median task is a mid one and has
        # many like it; heavy and lighter tasks alternate
        yield [heavy[0], mid[0], cheap[0], mid[1], mid[2], heavy[1], mid[3], cheap[1],
               mid[4], mid[5], heavy[2], mid[6], cheap[2], mid[7]]


# -- lengths ----------------------------------------------------------------

def _lengths(rng):
    """Keys (curve, digits) never repeat within a run: the package caches
    every total length per key, and a repeat would time a dictionary lookup.

    The preamble holds the degenerate-edge task and one Erdos length per rung
    of the ladder, which builds the quadrature node tables of every rung, so
    that every round costs the same, the first one too.
    """
    def pools(items, cost=None):
        items = sorted(items, key=cost)
        return {d: _spread(items, rng) for d in LENGTHS_LADDER}

    # a on both sides of 1, from 1/10 to 10, at least 1/50 away from 1
    regular_a = {Fraction(p, q) for q in range(1, 51) for p in range(1, 10 * q + 1)
                 if Fraction(1, 10) <= Fraction(p, q) <= 10
                 and abs(Fraction(p, q) - 1) >= Fraction(1, 50)}
    erdos = pools(range(1, 41))
    # q with 3, 5 or 7 in its denominator costs about 2x more than the rest
    sinusoidal = pools({Fraction(a, b) for a in range(1, 8) for b in range(1, 8)},
                       lambda q: (_odd_part(q.denominator), q))
    # k = 2 costs about half of k > 2; a is in random order within each k
    regular = pools(((a, k) for a in regular_a for k in range(2, 6)),
                    lambda ak: (ak[1], rng.random()))
    cassini = pools(regular_a)
    identity_digits = _spread(range(20, 41), rng)

    def erdos_task(digits):
        n = next(erdos[digits])
        return Task(["length", "--erdos", str(n), "--digits", str(digits)], "length",
                    digits, {"family": "erdos", "q": Fraction(n)})

    edge = 1 - Fraction(rng.randint(1, 10), 10 ** 6)
    preamble = [Task(["length", "--regular", f"a={_frac(edge)}", "k=2",
                      "--digits", str(DEGENERATE_DIGITS)], "length",
                     DEGENERATE_DIGITS, {"family": "regular", "a": edge, "k": 2})]
    preamble += [erdos_task(d) for d in LENGTHS_LADDER]
    return preamble, _lengths_rounds(rng, erdos_task, sinusoidal, regular, cassini,
                                     identity_digits)


def _lengths_rounds(rng, erdos_task, sinusoidal, regular, cassini, identity_digits):
    rungs = len(LENGTHS_LADDER)
    for id_digits in identity_digits:
        batch = []
        # every family meets every rung once per round, in an order where
        # consecutive tasks change both
        for shift in range(rungs):
            for family in range(4):
                digits = LENGTHS_LADDER[(shift + family) % rungs]
                d = ["--digits", str(digits)]
                if family == 0:
                    batch.append(erdos_task(digits))
                elif family == 1:
                    q = next(sinusoidal[digits])
                    batch.append(Task(["length", "--sinusoidal", _frac(q)] + d, "length",
                                      digits, {"family": "sinusoidal", "q": q}))
                elif family == 2:
                    a, k = next(regular[digits])
                    batch.append(Task(["length", "--regular", f"a={_frac(a)}", f"k={k}"] + d,
                                      "length", digits, {"family": "regular", "a": a, "k": k}))
                else:
                    a = next(cassini[digits])
                    batch.append(Task(["length", "--cassini", f"a={_frac(a)}"] + d, "length",
                                      digits, {"family": "regular", "a": a, "k": 2}))
        batch.append(Task(["identities", "--digits", str(id_digits)], "identities",
                          id_digits))
        yield batch
