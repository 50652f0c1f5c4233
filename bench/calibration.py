"""Calibration slices: fixed work that measures how fast the machine runs now.

On a shared host the speed of one core drifts by a quarter within seconds as
other tenants come and go, and a run's op times drift with it.  The worker
runs one slice after every op; ``run.py`` scales each op time by the slices
around it to one reference speed.

A slice is pure Python and never calls the library, so no change to the
library moves it; only the speed of the machine does.  It does the same kind
of work as the library's hot paths, so that it slows down as much as they do
when the machine does:

* Gauss-Kronrod-style quadrature of a complex ``cmath`` integrand, as in
  ``expr.integrate_callable``;
* evaluation of many distinct straight-line complex functions, each its own
  code object, as ``expr.compile_expr`` emits them.
"""

from __future__ import annotations

import cmath
import random
import time

_QUAD_NODES = tuple((0.1 * k, 1.0 / (1 + k)) for k in range(15))
_QUAD_PANELS = 400
_LINE_FUNCTIONS = 48
_LINES_PER_FUNCTION = 40
_LINE_POINTS = tuple((complex(0.3 + 0.01 * k, 0.1), complex(1.1, 0.05 * k))
                     for k in range(12))


def _integrand(z: complex) -> complex:
    return cmath.exp(-z * z) * cmath.sqrt(1 + z) / (2 + z)


def _straight_line_functions() -> list:
    """Fixed functions f(x, t) of straight-line complex arithmetic whose
    values stay of moderate size on ``_LINE_POINTS``."""
    rnd = random.Random(0)
    functions = []
    for _ in range(_LINE_FUNCTIONS):
        names = ["x", "t"]
        body = []
        for k in range(_LINES_PER_FUNCTION):
            a, b = rnd.choice(names), rnd.choice(names)
            c = complex(round(rnd.uniform(0.5, 1.1), 3), round(rnd.uniform(-0.5, 0.5), 3))
            form = rnd.randrange(4)
            if form == 0:
                rhs = f"({a} + {b}) * 0.5 * {c!r}"
            elif form == 1:
                rhs = f"{a} * {b} / (1 + {b} * {b})"
            elif form == 2:
                rhs = f"_exp(0.01 * {a}) + {c!r}"
            else:
                rhs = f"_sqrt({a} + 2) * {c!r}"
            body.append(f"    v{k} = {rhs}")
            names.append(f"v{k}")
        source = "\n".join(["def f(x, t):", *body, f"    return {names[-1]}"])
        namespace = {"_exp": cmath.exp, "_sqrt": cmath.sqrt}
        exec(source, namespace)  # noqa: S102 - fixed, generated source
        functions.append(namespace["f"])
    return functions


_FUNCTIONS = _straight_line_functions()


def _slice_value() -> complex:
    acc = 0j
    for j in range(_QUAD_PANELS):
        m = complex(0.01 * j + 0.005, 0.3)
        for x, w in _QUAD_NODES:
            acc += w * _integrand(m + 0.005 * x)
    for f in _FUNCTIONS:
        for x, t in _LINE_POINTS:
            acc += f(x, t)
    return acc


def slice_ns() -> int:
    """CPU time of this thread for one slice (5-10 ms on a 2-core x86 host)."""
    start = time.thread_time_ns()
    value = _slice_value()
    elapsed = time.thread_time_ns() - start
    if not cmath.isfinite(value):
        raise RuntimeError("calibration slice lost its value")
    return elapsed
