"""Outside-in tracer for serretlab: spans around each layer's public functions.

The benchmark installs the wrappers from outside the package.  Every public
function defined in a layer module is wrapped once, and every binding of the
original function object in every ``serretlab.*`` module (found by identity in
``vars(module)``) is replaced by the wrapper, because names such as
``tanh_sinh``, ``hyp2f1`` and ``to_decimal`` are imported by name into other
modules.  Functions held in other containers (``identities.ALL_CHECKS``) keep
their original objects; their time is charged to the enclosing traced span of
the same layer, so layer self times are unaffected.

A span is the list ``[task, name, start, end, parent, extra]`` where ``parent``
is the index of the enclosing span (-1 at top level) and ``extra`` holds the
counts recorded at that boundary: integrand evaluations and levels for
``tanh_sinh``, whether ``pslq`` returned a relation, and the division size.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("numkernel", "quadrature", "specfun", "curves", "division",
          "algebra", "identities", "render", "cli")

# spans whose calls are the division solver's cumulative-length evaluations
F_SPANS = ("curves.normalized_arc_integral", "curves.cassini_reduced_integral")
DIVISION_SPANS = ("division.divide_fundamental_arc", "division.divide_cassini")


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []

    def install(self):
        """Wrap every public function of every layer, in every module binding it."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"serretlab.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "serretlab" and not mod_name.startswith("serretlab."):
                continue
            for key, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def _wrap(self, fn, label):
        spans, stack = self.spans, self._stack

        def open_span():
            rec = [self.task, label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            return rec

        def close_span(rec):
            rec[3] = perf_counter()
            stack.pop()

        if label == "quadrature.tanh_sinh":
            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                evals = [0]

                def counted(x):
                    evals[0] += 1
                    return f(x)

                rec = open_span()
                levels = None
                try:
                    result = fn(counted, *args, **kwargs)
                    levels = result.levels_used
                    return result
                except Exception as exc:
                    best = getattr(exc, "best", None)
                    levels = getattr(best, "levels_used", None)
                    raise
                finally:
                    close_span(rec)
                    rec[5] = {"evals": evals[0], "levels": levels}
            return wrapper

        if label == "algebra.pslq":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = open_span()
                try:
                    result = fn(*args, **kwargs)
                    rec[5] = {"found": result is not None}
                    return result
                finally:
                    close_span(rec)
            return wrapper

        if label in DIVISION_SPANS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = open_span()
                # leaf: (curve, l, ctx); Cassini: (a, n, ctx) -- both sizes
                # are the second positional argument
                rec[5] = {"size": args[1] if len(args) > 1 else None}
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(rec)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(rec)
        return wrapper


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def division_points(spans) -> tuple:
    """(interior points solved, cumulative-length evaluations) under division spans.

    An evaluation belongs to its nearest division ancestor.  A division span
    that evaluated anything missed the package's result cache, so it solved
    l - 1 interior points (leaf curves) or one point (Cassini, n >= 2).
    """
    f_calls = {}
    for span in spans:
        if span[1] not in F_SPANS:
            continue
        parent = span[4]
        while parent >= 0 and spans[parent][1] not in DIVISION_SPANS:
            parent = spans[parent][4]
        if parent >= 0:
            f_calls[parent] = f_calls.get(parent, 0) + 1
    points = 0
    for index in f_calls:
        name, size = spans[index][1], spans[index][5]["size"]
        if name == "division.divide_fundamental_arc":
            points += size - 1
        elif size >= 2:
            points += 1
    return points, sum(f_calls.values())


def layer_metrics(spans, task_digits, digits_ladder) -> dict:
    """Per-layer counts and self times from the spans of a traced pass.

    ``task_digits`` maps a task id to its requested digits; the quadrature
    cost per integrand evaluation is also reported per rung of
    ``digits_ladder``.
    """
    own = self_times(spans)
    calls, self_s = {}, {}
    evals = levels_max = 0
    quad_by_digits = {}
    pslq_found = 0
    for span, t_self in zip(spans, own):
        name = span[1]
        layer = name.split(".")[0]
        for key in (layer, name):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + t_self
        extra = span[5]
        if name == "quadrature.tanh_sinh":
            evals += extra["evals"]
            levels_max = max(levels_max, extra["levels"] or 0)
            acc = quad_by_digits.setdefault(task_digits[span[0]], [0.0, 0])
            acc[0] += t_self
            acc[1] += extra["evals"]
        elif name == "algebra.pslq" and extra and extra["found"]:
            pslq_found += 1
    points, f_calls = division_points(spans)

    def count(key):
        return calls.get(key, 0)

    def secs(key):
        return self_s.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "quadrature.calls": count("quadrature"),
        "quadrature.evals": evals,
        "quadrature.evals_per_call": ratio(evals, count("quadrature")),
        "quadrature.levels_max": levels_max,
        "quadrature.self_s": secs("quadrature"),
        "quadrature.us_per_eval": 1e6 * ratio(secs("quadrature"), evals),
    }
    for digits in digits_ladder:
        t_self, n_evals = quad_by_digits.get(digits, (0.0, 0))
        metrics[f"quadrature.us_per_eval.d{digits}"] = 1e6 * ratio(t_self, n_evals)
    metrics.update({
        "specfun.calls": count("specfun"),
        "specfun.self_s": secs("specfun"),
        "specfun.hyp2f1.calls": count("specfun.hyp2f1"),
        "specfun.hyp2f1.self_s": secs("specfun.hyp2f1"),
        "specfun.gamma.calls": count("specfun.gamma"),
        "specfun.gamma.self_s": secs("specfun.gamma"),
        "specfun.ellip_k.self_s": secs("specfun.ellip_k"),
        "curves.calls": count("curves"),
        "curves.self_s": secs("curves"),
        "division.points": points,
        "division.f_per_point": ratio(f_calls, points),
        "division.self_s": secs("division"),
        "algebra.pslq.calls": count("algebra.pslq"),
        "algebra.pslq.self_s": secs("algebra.pslq"),
        "algebra.pslq.found_ratio": ratio(pslq_found, count("algebra.pslq")),
        "algebra.minpoly.calls": count("algebra.minpoly"),
        "algebra.minpoly.self_s": secs("algebra.minpoly"),
        "numkernel.to_decimal.calls": count("numkernel.to_decimal"),
        "numkernel.to_decimal.self_s": secs("numkernel.to_decimal"),
        "render.calls": count("render"),
        "render.self_s": secs("render"),
        "cli.self_s": secs("cli"),
        "identities.self_s": secs("identities"),
    })
    return metrics
