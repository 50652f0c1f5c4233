"""Minimal symbolic expression engine over the complex numbers.

Expressions are immutable trees of complex constants, the spectral
variable ``x`` and the deformation variable ``t``; a family parameter is
written into a tree as a constant when the tree is built.  The engine
provides exact differentiation, substitution of ``x`` or ``t``, a
one-point walk (:func:`evaluate`), kernels (:class:`Kernel`): the
value-numbered tape of a DAG, whose one batch form is the one evaluator at
many points, compiled to straight-line Python in three stages, on x, on t
and on both (:func:`compile_expr`), and run as first-order jets and plain
values for numerical decisions (:func:`_jets`, :func:`_sample`), one walker
of adaptive Chebyshev panels along a straight segment, one panel at a time
(contour quadrature, or the solve of a 2x2 linear ODE and its t-variation)
and an infix printer.

One table, ``_KINDS``, holds one row per interior node kind (:class:`_Kind`),
and one for the subtraction a kernel fuses a neg into:
its constructor, the template of its compiled line, the function that line
applies to one point and to arrays of points, its chain rule on expressions
and on arrays of values and, for ``div``, ``ipow`` and ``log``, the check of
the operand that can make it singular.  The walk, the kernel, the jets,
differentiation, substitution and compilation read a kind's rule from its
row and handle only the leaves themselves (the printer keeps its own
precedence rules).  One traversal,
:func:`_traverse`, visits each node object of a DAG once, children first;
differentiation and substitution go through it, and a kernel numbers its
nodes in that order in a pass of its own, with no per-node callback.
:func:`evaluate` keeps its own recursion, as it takes a checked operand
first; a decision on sampled values, and a kernel's batch that raises or is
not finite, walk a point only where a value is not finite, to raise the
walk's exception there (:func:`_finite`).  Compiled code serves one caller
alone, ``ReducedEquation.coefficients_at``, which answers a point its
compiled code raises at by the walk too.

Design constraints:

* no general simplifier -- only local constant folding plus the rewrites
  ``e^0 -> 1``, ``0*e -> 0``, ``e*1 -> e``, ``e+0 -> e``;  identity checking
  is done numerically (see :func:`numerically_zero`);
* principal branches everywhere for ``log``, ``sqrt`` and fractional powers;
* integer exponents are stored exactly as ``int``, fractional exponents as
  exact :class:`fractions.Fraction` values;
* complex double precision throughout.

All values are immutable and all operations are pure, so expressions may be
shared and evaluated concurrently without locking.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev

__all__ = [
    "Expr",
    "Binding",
    "ExprError",
    "UnboundSymbolError",
    "SingularEvaluationError",
    "QuadratureError",
    "X",
    "T",
    "const",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "ipow",
    "fpow",
    "pow_any",
    "exp",
    "log",
    "sqrt",
    "differentiate",
    "evaluate",
    "substitute",
    "compile_expr",
    "Kernel",
    "integrate_callable",
    "numerically_zero",
    "to_string",
]


class ExprError(Exception):
    """Base class for expression-engine errors."""


class UnboundSymbolError(ExprError):
    """A variable required for evaluation has no value."""


class SingularEvaluationError(ExprError):
    """Evaluation hit a pole, a log of zero, or a zero base with a
    negative exponent."""


class QuadratureError(ExprError):
    """A quadrature or linear-solve panel stayed unresolved at the depth cap
    or budget, the integrand divided by zero at a panel point, or the
    linear solve met a non-finite value."""


class Expr:
    """Immutable expression node.

    ``kind`` is one of ``const``, ``var`` (``x`` or ``t``), ``neg``,
    ``add``, ``mul``, ``div``, ``ipow``, ``fpow``, ``exp``, ``log``,
    ``sqrt``.
    ``value`` holds the payload for leaves and power exponents; ``children``
    holds sub-expressions.  Construct nodes through the module-level helper
    functions, which apply local constant folding.
    """

    __slots__ = ("kind", "value", "children", "_hash")

    def __init__(self, kind: str, value=None, children: tuple["Expr", ...] = ()):
        # The slots' own setters, bound below the class: object.__setattr__
        # would look each slot up by name, at several times the cost.
        _set_kind(self, kind)
        _set_value(self, value)
        _set_children(self, children)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.value == other.value
            and self.children == other.children
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, self.value, self.children))
            _set_hash(self, h)
        return h

    def __repr__(self):
        """The infix text of a tree of at most ``_REPR_NODES`` nodes, else
        a summary, so a repr takes time linear in the DAG (the text of a
        DAG whose subtrees are shared is exponential in its depth)."""
        tree, dag = _tree_sizes(self)
        if tree <= _REPR_NODES:
            return f"Expr({to_string(self)!r})"
        return f"<Expr {self.kind}: {tree} tree nodes, {dag} distinct>"

    # Arithmetic sugar; every operator funnels through the folding helpers.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_any(self, exponent)


_set_kind, _set_value, _set_children, _set_hash = (
    getattr(Expr, name).__set__ for name in Expr.__slots__)

# The largest tree that Expr.__repr__ prints in full.
_REPR_NODES = 500


def _tree_sizes(e: Expr) -> tuple[int, int]:
    """The number of nodes of ``e`` as a tree and of distinct node objects
    in its DAG, in one pass over the DAG.  It keeps its own stack, not
    :func:`_traverse`'s recursion, so a repr never raises however deep the
    DAG."""
    size: dict[int, int] = {}
    stack = [e]
    while stack:
        n = stack[-1]
        if id(n) in size:
            stack.pop()
            continue
        todo = [c for c in n.children if id(c) not in size]
        if todo:
            stack += todo
        else:
            stack.pop()
            size[id(n)] = 1 + sum(size[id(c)] for c in n.children)
    return size[id(e)], len(size)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, Fraction):
        return const(complex(value))
    if isinstance(value, (int, float, complex)):
        return const(value)
    raise TypeError(f"cannot coerce {value!r} to Expr")


# ---------------------------------------------------------------------------
# Constructors (with local constant folding)

def const(value) -> Expr:
    return Expr("const", complex(value))


X = Expr("var", "x")
T = Expr("var", "t")

_ZERO = const(0)
_ONE = const(1)


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = a.kind == "const", b.kind == "const"
    if ca and cb:
        return const(a.value + b.value)
    if ca and a.value == 0:
        return b
    if cb and b.value == 0:
        return a
    return Expr("add", None, (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def neg(a: Expr) -> Expr:
    if a.kind == "const":
        return const(-a.value)
    if a.kind == "neg":
        return a.children[0]
    return Expr("neg", None, (a,))


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = a.kind == "const", b.kind == "const"
    if ca and cb:
        return const(a.value * b.value)
    if ca and a.value == 0 or cb and b.value == 0:
        return _ZERO
    if ca and a.value == 1:
        return b
    if cb and b.value == 1:
        return a
    return Expr("mul", None, (a, b))


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = a.kind == "const", b.kind == "const"
    if cb and b.value == 1:
        return a
    if ca and a.value == 0:
        return _ZERO
    if ca and cb and b.value != 0:
        return const(a.value / b.value)
    return Expr("div", None, (a, b))


def ipow(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int):
        raise TypeError("integer-power exponent must be int")
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if base.kind == "const" and not (base.value == 0 and exponent < 0):
        return const(base.value ** exponent)
    return Expr("ipow", exponent, (base,))


def fpow(base: Expr, exponent: Fraction) -> Expr:
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return ipow(base, int(exponent))
    if base.kind == "const" and base.value != 0:
        return const(_principal_pow(base.value, float(exponent)))
    return Expr("fpow", exponent, (base,))


def pow_any(base: Expr, exponent) -> Expr:
    """Power with an int, Fraction or generic exponent.

    Generic (non-rational) exponents are lowered to ``exp(k*log(base))``;
    the tree itself only ever stores exact integer or rational exponents.
    """
    if isinstance(exponent, bool):
        raise TypeError("bool exponent")
    if isinstance(exponent, int):
        return ipow(base, exponent)
    if isinstance(exponent, Fraction):
        return fpow(base, exponent)
    if isinstance(exponent, float) and exponent == int(exponent):
        return ipow(base, int(exponent))
    return exp(mul(_coerce(exponent), log(base)))


def exp(a: Expr) -> Expr:
    if a.kind == "const":
        return const(cmath.exp(a.value))
    return Expr("exp", None, (a,))


def log(a: Expr) -> Expr:
    if a.kind == "const" and a.value != 0:
        return const(cmath.log(a.value))
    return Expr("log", None, (a,))


def sqrt(a: Expr) -> Expr:
    if a.kind == "const":
        return const(cmath.sqrt(a.value))
    return Expr("sqrt", None, (a,))


# ---------------------------------------------------------------------------
# Node kinds and the DAG traversal

def _principal_pow(base: complex, exponent: float) -> complex:
    """Principal-branch power, shared by evaluation and compiled code."""
    if base == 0:
        if exponent > 0:
            return 0j
        raise SingularEvaluationError("0 raised to a non-positive fractional power")
    return cmath.exp(exponent * cmath.log(base))


def _principal_pow_array(base, exponent: float):
    """:func:`_principal_pow` on an array of bases.  A zero base with a
    non-positive exponent raises FloatingPointError, which sends the batch
    to the walk (:func:`_finite`)."""
    base = np.asarray(base, dtype=complex)
    zero = base == 0
    if not zero.any():
        return np.exp(exponent * np.log(base))
    if exponent <= 0:
        raise FloatingPointError("0 raised to a non-positive fractional power")
    out = np.zeros_like(base)
    out[~zero] = np.exp(exponent * np.log(base[~zero]))
    return out


class _Kind(NamedTuple):
    """One interior node kind, or ``sub``, the kind of no node but of a
    kernel's fused lines (:class:`Kernel`): the columns every interpreter
    of the kind reads.

    * ``build``: its folding constructor.
    * ``line``: the ``%`` template of its compiled line.
    * ``scalar``, ``array``: the function that line applies to one point
      and to numpy arrays of points; a line that calls a function calls it
      as ``_<kind>``.
    * ``derive(n, c, d)``: its chain rule, the derivative of the node ``n``
      from its operands ``c`` and their derivatives ``d``.  It is written
      with Python operators, which on ``Expr`` go through the folding
      constructors.
    * ``jet(v, c0, c1, d0, d1, q)``: a second copy of that rule, on numpy
      arrays (:func:`_jets`): a line's gradient from its value ``v``, its
      operands' values ``c`` and gradients ``d`` and its exponent ``q``.
      It applies ``derive``'s operations in their order; a vanishing
      gradient is None and folds as the constant 0 does (``0 - d`` is
      ``-d``).  ``TestJetRules`` in the tests holds the copies together.
    * ``check``: None, or ``(i, singular, message)`` for a kind with a
      singular point: :func:`evaluate` walks operand ``i`` first and raises
      ``SingularEvaluationError(message)`` when ``singular(v, value)``
      holds for its value ``v`` and the node's ``value``.

    ``build``, ``line``, ``scalar`` and ``array`` take the operands (new
    children, their names or their values) and then the node's ``value``
    when it has one (an exponent)."""

    build: Callable[..., Expr]
    line: str
    scalar: Callable
    array: Callable
    derive: Callable[[Expr, tuple, tuple], Expr]
    jet: Callable
    check: tuple[int, Callable[[complex, object], bool], str] | None = None


_KINDS: dict[str, _Kind] = {
    "neg": _Kind(neg, "-%s", operator.neg, operator.neg, lambda n, c, d: -d[0],
                 lambda v, c0, c1, d0, d1, q: -d0),
    "add": _Kind(add, "%s + %s", operator.add, operator.add, lambda n, c, d: d[0] + d[1],
                 lambda v, c0, c1, d0, d1, q: d1 if d0 is None else d0 if d1 is None else d0 + d1),
    "mul": _Kind(mul, "%s * %s", operator.mul, operator.mul,
                 lambda n, c, d: d[0] * c[1] + c[0] * d[1],
                 lambda v, c0, c1, d0, d1, q: c0 * d1 if d0 is None else d0 * c1
                 if d1 is None else d0 * c1 + c0 * d1),
    "div": _Kind(div, "%s / %s", operator.truediv, operator.truediv,
                 lambda n, c, d: (d[0] * c[1] - c[0] * d[1]) / c[1] ** 2,
                 lambda v, c0, c1, d0, d1, q: (-(c0 * d1) if d0 is None else d0 * c1
                                               if d1 is None else d0 * c1 - c0 * d1) / c1 ** 2,
                 (1, lambda v, q: v == 0, "division by zero")),
    "ipow": _Kind(ipow, "%s ** %s", operator.pow, operator.pow,
                  lambda n, c, d: n.value * c[0] ** (n.value - 1) * d[0],
                  lambda v, c0, c1, d0, d1, q: c0 ** (q - 1) * q * d0,
                  (0, lambda v, q: q < 0 and v == 0, "pole: 0 raised to a negative power")),
    # A Fraction exponent prints as "p/q", which compiles to the float the
    # walk applies, float(Fraction(p, q)).  Its derivative's power keeps
    # the form a^(q - 1), which never divides by a.
    "fpow": _Kind(fpow, "_fpow(%s, %s)", _principal_pow, _principal_pow_array,
                  lambda n, c, d: complex(n.value) * c[0] ** (n.value - 1) * d[0],
                  lambda v, c0, c1, d0, d1, q: _principal_pow_array(c0, float(q - 1))
                  * complex(q) * d0),
    "exp": _Kind(exp, "_exp(%s)", cmath.exp, np.exp, lambda n, c, d: n * d[0],
                 lambda v, c0, c1, d0, d1, q: v * d0),
    "log": _Kind(log, "_log(%s)", cmath.log, np.log, lambda n, c, d: d[0] / c[0],
                 lambda v, c0, c1, d0, d1, q: d0 / c0, (0, lambda v, q: v == 0, "log of zero")),
    "sqrt": _Kind(sqrt, "_sqrt(%s)", cmath.sqrt, np.sqrt, lambda n, c, d: d[0] / (2 * n),
                  lambda v, c0, c1, d0, d1, q: d0 / (v * 2)),
    # The kind of no node: a kernel's fused line of an add and a neg it reads.
    "sub": _Kind(sub, "%s - %s", operator.sub, operator.sub, lambda n, c, d: d[0] - d[1],
                 lambda v, c0, c1, d0, d1, q: -d1 if d0 is None else d0 if d1 is None
                 else d0 - d1),
}

# The globals of the compiled lines.
_SCALAR_NAMESPACE = {"_" + k: row.scalar for k, row in _KINDS.items()}


def _traverse(roots: Sequence[Expr], visit: Callable[[Expr, tuple], object]) -> list:
    """``visit(n, results)`` once per node object ``n`` of the DAG under
    ``roots``, children first, where ``results`` is the tuple of what it
    returned for ``n``'s children; the results of the roots.  A node that
    many paths reach is visited once, so a tree built from the results (a
    derivative, a substitution) shares what the input shares.  ``visit``
    never returns None."""
    memo: dict[int, object] = {}
    seen = memo.get

    def rec(n: Expr):
        key = id(n)
        got = seen(key)
        if got is None:
            kids = n.children   # a node has at most two children
            if kids:
                kids = (rec(kids[0]),) if len(kids) == 1 else (rec(kids[0]), rec(kids[1]))
            got = memo[key] = visit(n, kids)
        return got

    try:
        return [rec(root) for root in roots]
    finally:
        # rec's closure holds rec: a cycle that would keep memo alive
        # until the cyclic collector runs.
        del rec


# ---------------------------------------------------------------------------
# Differentiation

def differentiate(e: Expr | tuple[Expr, ...], var: str) -> Expr | tuple[Expr, ...]:
    """Exact symbolic derivative of ``e`` with respect to ``x`` or ``t``;
    given a tuple of expressions, the tuple of their derivatives.  One
    :func:`_traverse` of the DAG under all of them makes one node per node
    object, so the derivative of a subtree shared within or between the
    expressions is one object, and each derivative equals the one a call on
    that expression alone returns.  An interior node's derivative is its
    kind's ``derive`` rule (``_KINDS``).

    Derivatives of ``div``, ``log`` and ``sqrt`` introduce ``div`` nodes;
    domain issues surface at evaluation time, not here.
    """
    if var not in ("x", "t"):
        raise ValueError("var must be 'x' or 't'")

    def rule(n: Expr, d: tuple) -> Expr:
        if n.kind == "const":
            return _ZERO
        if n.kind == "var":
            return _ONE if n.value == var else _ZERO
        return _KINDS[n.kind].derive(n, n.children, d)

    if isinstance(e, tuple):
        return tuple(_traverse(e, rule))
    return _traverse((e,), rule)[0]


def _jets(kernel: Kernel, xs: np.ndarray, ts: np.ndarray
          ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(value, d/dx, d/dt) of each output of ``kernel`` at the points
    ``(xs[k], ts[k])``, 1-D arrays: first-order jets, one per fused line
    (as the array form runs them), with no derivative DAG built.

    A line's value is its row's ``array`` function, as the array form
    applies it, and its gradient, d/dx and d/dt stacked in one array, is
    its row's ``jet`` rule (``_KINDS``), seeded with the (2, 1) columns of
    x and t, so the jets agree with the values of :func:`differentiate`'s
    output to rounding.  A gradient that vanishes identically is None, as
    ``differentiate`` folds it to the constant 0, and a line whose
    operands all have it is not derived.
    Evaluated under ``np.errstate(all="ignore")``: a value is NaN at each
    point where some line's is not finite (their sum is not), and a value
    and its gradient are NaN everywhere when the run raises (a zero base
    to a non-positive fractional power, or a constant line dividing by
    zero), so a singular point is never hidden behind a finite value
    (1 / inf) or behind a gradient the run never reached; the caller
    decides (:func:`_finite`, :func:`_walked_jets`)."""
    shape = np.broadcast(xs, ts).shape
    vals, grads = kernel.start.copy(), [None] * len(kernel.start)
    vals[0], vals[1] = xs, ts
    grads[0], grads[1] = np.array([[1], [0]], dtype=complex), np.array([[0], [1]], dtype=complex)
    try:
        with np.errstate(all="ignore"):
            for slot, kind, a, b, q, _ in kernel.fused:
                row = _KINDS[kind]
                # One operand: the second is the line's own slot, as in the
                # array rows: its start (an exponent or None), no gradient.
                e = slot if b is None else b
                c0, d0, c1, d1 = vals[a], grads[a], vals[e], grads[e]
                v = vals[slot] = row.array(c0) if c1 is None else row.array(c0, c1)
                if d0 is not None or d1 is not None:
                    grads[slot] = row.jet(v, c0, c1, d0, d1, q)
            bad = ~np.isfinite(sum([vals[line[0]] for line in kernel.fused], 0j))
    except ArithmeticError:
        nan = np.full((2, 1), np.nan, dtype=complex)
        vals, grads, bad = [0j] * len(vals), [nan] * len(vals), True

    def rows(slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # np.broadcast_to costs microseconds: only where a shape falls short.
        value, grad = np.asarray(vals[slot], dtype=complex), grads[slot]
        if grad is None or grad.shape[1:] != shape:
            grad = np.broadcast_to(0j if grad is None else grad, (2, *shape))
        value = value if value.shape == shape else np.broadcast_to(value, shape)
        return np.where(bad, np.nan, value), *grad

    return [rows(slot) for slot in kernel.outputs]


def _walked_jets(kernel: Kernel, xs, ts) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The jets of :func:`_jets`, with each output's value walked
    (:func:`_finite`) at each point where it is not finite: a singular
    point raises the walk's exception, the one a loop of :func:`evaluate`
    over the outputs, in order, and the points raises first.  Where the
    walk gives a value, the gradient stays as the jets give it, so a value
    that is finite where its derivative is not (a square root at zero)
    leaves the gradient not finite for the caller to read."""
    jets = _jets(kernel, xs, ts)
    if np.isfinite([value for value, _, _ in jets]).all():
        return jets
    exprs = kernel.expr if isinstance(kernel.expr, tuple) else (kernel.expr,)
    xs, ts = np.broadcast_arrays(xs, ts)
    return [(_finite(e, value, xs, ts), dx, dt) for e, (value, dx, dt) in zip(exprs, jets)]


def _sample(kernel: Kernel, xs: np.ndarray, ts: np.ndarray) -> list[np.ndarray]:
    """The values of the outputs of ``kernel`` at the points ``(xs[k],
    ts[k])``, arrays of one shape, from one run of its array rows, with
    the NaNs of :func:`_jets`.  The caller decides (:func:`_finite`)."""
    try:
        with np.errstate(all="ignore"):
            vals = kernel.x_values(xs)
            out = list(kernel.values(vals, ts))
            bad = ~np.isfinite(sum([vals[line[0]] for line in kernel.fused], 0j))
    except ArithmeticError:
        out, bad = [0j] * len(kernel.outputs), True
    return [np.where(bad, np.nan, np.broadcast_to(v, np.shape(xs))) for v in out]


# ---------------------------------------------------------------------------
# Evaluation

@dataclass(frozen=True)
class Binding:
    """Values of the variables ``x`` and ``t`` for :func:`evaluate`.

    Evaluation fails loudly (:class:`UnboundSymbolError`) if a required
    variable is unbound.
    """

    x: complex | None = None
    t: complex | None = None


def evaluate(e: Expr, b: Binding) -> complex:
    """Evaluate ``e`` at a binding: a walk of the DAG, each node object
    once, that applies each node's row (``_KINDS``) and visits the operand
    its row's ``check`` names first (a ``div``'s denominator), so it raises
    :class:`SingularEvaluationError` at a singular node before walking its
    other operand, and :class:`UnboundSymbolError` for an unbound variable
    (any other exception is the operation's own).  Pure: identical inputs
    give bit-identical outputs."""
    return _evaluate(e, b, {})


def _evaluate(e: Expr, b: Binding, memo: dict[int, complex]) -> complex:
    got = memo.get(id(e))
    if got is not None:
        return got
    k = e.kind
    if k == "const":
        return e.value
    if k == "var":
        v = b.x if e.value == "x" else b.t
        if v is None:
            raise UnboundSymbolError(f"variable {e.value!r} is unbound")
        return complex(v)
    row, kids, q = _KINDS[k], e.children, e.value
    if row.check is not None:
        i, singular, message = row.check
        if singular(_evaluate(kids[i], b, memo), q):
            raise SingularEvaluationError(message)
    # A checked operand is a memo hit now, or a leaf.  The operands are
    # walked by direct calls, as in _traverse: a comprehension would add a
    # frame per level and halve the depth the walk reaches.  An exponent
    # is applied as its compiled literal: an int as itself, a Fraction p/q
    # as the float p / q.
    a = _evaluate(kids[0], b, memo)
    if len(kids) == 2:
        got = row.scalar(a, _evaluate(kids[1], b, memo))
    else:
        got = row.scalar(a) if q is None else row.scalar(a, q if type(q) is int else float(q))
    memo[id(e)] = got
    return got


def _finite(e: Expr, values: np.ndarray, xs, ts) -> np.ndarray:
    """``values``, those of ``e`` at the points ``(xs[k], ts[k])`` (numpy
    arrays of one shape) from :func:`_sample` or :func:`_jets`, with
    :func:`evaluate`'s value at each point where one is not finite, walked
    in order: so a singular point raises the walk's exception, the one a
    loop of :func:`evaluate` over the points raises first."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        values = np.array(values)
        for k in bad:
            values.flat[k] = evaluate(e, Binding(xs.flat[k], ts.flat[k]))
    return values


def substitute(e: Expr, x: Expr | complex | None = None,
               t: Expr | complex | None = None) -> Expr:
    """Replace ``x`` and/or ``t`` by an expression or a value and re-fold
    constants."""
    rx = _coerce(x) if x is not None else None
    rt = _coerce(t) if t is not None else None

    def rebuild(n: Expr, kids: tuple) -> Expr:
        if n.kind == "var":
            r = rx if n.value == "x" else rt
            return n if r is None else r
        if kids == n.children:
            return n
        build = _KINDS[n.kind].build
        return build(*kids) if n.value is None else build(*kids, n.value)

    return _traverse((e,), rebuild)[0]


# ---------------------------------------------------------------------------
# Compilation to fast callables

def _literal(value: complex) -> str:
    """A constant as Python source that binds as one operand (``-2j ** 2``
    is -(2j ** 2)) and folds to one constant with the sign of every part.
    ``repr`` loses a zero's sign (``(-1-0j)`` is -1 + 0j); ``(re - |im|j)``
    keeps re and gives im = -|im| or +0.0, its negation ``(-(-re - |im|j))``
    im = +|im| or -0.0.  A non-finite value is parsed from its ``repr`` at
    run time, since ``nan`` and ``inf`` are not Python literals."""
    value = complex(value)
    if not cmath.isfinite(value):
        return f"complex({repr(value).strip('()')!r})"
    re, im = value.real, value.imag
    if im > 0 or (im == 0 and math.copysign(1.0, im) < 0):
        return f"(-({-re!r} - {abs(im)!r}j))"
    return f"({re!r} - {abs(im)!r}j)"


# What a per-point call raises at a singular point, and so what rejects a
# probe draw: the walk's ExprError, an OverflowError (an ArithmeticError),
# or, from the compiled code of ``ReducedEquation.coefficients_at`` where
# the walk passes, ZeroDivisionError or ValueError.  The array runs
# catch ArithmeticError alone (numpy's FloatingPointError among them), so a
# broadcast mismatch propagates.
_SAMPLE_ERRORS = (ArithmeticError, ValueError, ExprError)


# The subset of {x, t} a kernel's line depends on, as a bit mask.
_X_DEP, _T_DEP = 1, 2
# The slot of a kernel's line.
_SLOT = operator.itemgetter(0)

# How many lines deep compile_expr writes lines inside their one reader.
# Each adds a pair or two of parentheses, and Python's parser refuses more
# than 200 open at once ("too many nested parentheses"), so a chain of
# single-use lines is cut into assignments this many lines long.
_INLINE_DEPTH = 32


class Kernel:
    """Expressions to evaluate at many points, and the value-numbered tape
    of the DAG under them: the one structure that its batch form,
    :func:`_sample`, :func:`_jets` and :func:`compile_expr` read, built once
    per DAG.  The array form, the compiled text and the jets are three
    renderings of its ``fused`` lines.

    ``Kernel(e)`` takes one expression, or a tuple of them, as its roots,
    and a call returns their values: an array for one expression, a tuple
    of arrays for a tuple.  ``Kernel(roots, n_out)`` returns the values of
    the first ``n_out`` roots alone and numbers the rest for a
    :meth:`view`.  ``expr`` is what a call returns the values of (one
    expression, or a tuple of them) and ``exprs`` the tuple of the roots,
    which a view and the walk of a batch that fails read.

    Every value has a slot: x is slot 0, t slot 1, and each distinct
    constant and interior line the next one, in the order one pass over
    the roots first meets it, children first and each node object once (the
    order of :func:`_traverse`, inlined).

    * ``start``: per slot, the value the array form starts from: a
      constant's; a power line's exponent, as the int or the float ``p /
      q`` that the compiled line applies, which its row reads from its own
      slot before it writes its value there; or None.
    * ``lines``: ``(slot, kind, a, b, q, mask)`` per line, in evaluation
      order, operands first: its ``_KINDS`` row, the slots of its operands
      (``b`` is None for one operand), its exponent ``q`` (None but for
      ``ipow`` and ``fpow``) and the subset of {x, t} it depends on.  A line
      that reads neither is marked as depending on x: it runs with the
      x-lines, so a line reading it and t is an (x, t) line.
    * ``roots``: the slot of each root; ``outputs``, the slots of ``expr``.
    * ``fused``: the lines the outputs read, in the same order, where a
      neg whose every reader among them is an add that negates it (the
      outputs counting as readers of another kind; an add negates its
      second operand if that is a neg, else its first) runs inside each of
      those adds as a ``sub`` line: add(a, neg b) as a - b and add(neg a,
      b) as b - a.
      That is IEEE 754's difference, bit for bit, and addition commutes
      exactly, so the fused lines give the values of the lines they
      replace.  The fusion is decided over these lines alone, so a kernel
      with roots after its outputs, or a view, fuses as a kernel of its
      outputs alone.

    Values are shared by structure (hash-consing by value numbering): a
    line is keyed on its kind, operand slots and exponent, a constant on
    the bits of its real and imaginary parts, so two nodes share a slot
    only when they would compile to the same line, and exactly then but
    for NaNs of different bits (a finite constant's literal is as distinct
    as its bits): sharing never changes a bit of a value.  ``Expr``
    equality is not the key: it equates ``const(0j)`` and
    ``const(complex(0, -0.0))``, whose bits differ.

    The one batch form, ``kernel(x, t)`` and :meth:`on_x`, runs the fused
    lines on numpy arrays as pre-bound rows ``(slot, array, a, b)`` on a
    copy of ``start``, the x-lines first (:meth:`x_values`), then the
    others (:meth:`values`); a power line's ``b`` is its own slot.  It
    never compiles.  Its values are, bit for bit, those of the compiled
    lines run on the same arrays: each applies its row's ``array``
    function, as the compiled line's array counterpart would.  A batch
    that raises or is not finite is answered as a decision on sampled
    values is: the run of :func:`_sample`, then :func:`_finite`,
    expression by expression.  A kernel holds no compiled form and no
    reference to itself."""

    __slots__ = ("expr", "exprs", "lines", "roots", "outputs", "start", "fused",
                 "_x_rows", "_xt_rows")

    def __init__(self, e: Expr | tuple[Expr, ...], n_out: int | None = None):
        self.exprs = roots = e if isinstance(e, tuple) else (e,)
        self.expr = e if n_out is None else roots[:n_out]
        slots: dict = {}
        memo: dict[int, int] = {}     # id of a node met -> its slot
        masks, start, lines = [_X_DEP, _T_DEP], [None, None], []

        def number(n: Expr) -> int:
            slot = memo.get(id(n))
            if slot is not None:
                return slot
            kind = n.kind
            if kind == "var":
                slot = 0 if n.value == "x" else 1
            elif kind == "const":
                key = struct.pack("dd", n.value.real, n.value.imag)
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(masks)
                    masks.append(0)
                    start.append(n.value)
            else:
                kids = n.children   # a node has at most two children
                a = number(kids[0])
                b = number(kids[1]) if len(kids) == 2 else None
                key = (kind, a, b, n.value)
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(masks)
                    mask = masks[a] | masks[a if b is None else b] or _X_DEP
                    masks.append(mask)
                    q = n.value
                    start.append(q if q is None or type(q) is int else float(q))
                    lines.append((slot, kind, a, b, q, mask))
            memo[id(n)] = slot
            return slot

        try:
            self.roots = tuple([number(root) for root in roots])
        finally:
            del number      # its closure holds it: a cycle, as in _traverse
        self.lines, self.start = tuple(lines), start
        self._bind(self.roots[:n_out])

    def view(self, first: int) -> Kernel:
        """The kernel of this one's roots from ``first`` on, as a tuple: it
        shares the lines, slots and start values, and its array form runs
        only the lines those roots read.  So kernels of several suffixes of
        one DAG's roots number it once, and a line only an earlier root
        reads (a pole there) never reaches their calls."""
        kernel = object.__new__(Kernel)
        kernel.lines, kernel.roots, kernel.start = self.lines, self.roots, self.start
        kernel.exprs, kernel.expr = self.exprs, self.exprs[first:]
        kernel._bind(self.roots[first:])
        return kernel

    def _bind(self, outputs: tuple[int, ...]) -> None:
        """Take ``outputs`` as the outputs: the lines they read, then their
        fused lines and the rows of those, from one scan that collects the
        negs and the slots read other than as an add's negated operand and
        one that emits."""
        if outputs == self.roots[:len(outputs)]:
            # Numbered first, the outputs read every slot up to their last
            # one (a later slot is numbered for a later root alone), and
            # the lines are in slot order: they read a prefix of them.
            lines = self.lines[:bisect.bisect_right(self.lines, max(outputs, default=-1), key=_SLOT)]
        else:
            need, lines = set(outputs), []
            for line in reversed(self.lines):
                if line[0] in need:
                    need.update(line[2:4])
                    lines.append(line)
            lines.reverse()
        # A neg that an output, another kind or an add taking its other
        # operand reads stays a line, add(n, n)'s n among them.
        negs, kept = {}, set(outputs)
        for slot, kind, a, b, _, _ in lines:
            if kind == "add":
                if b in negs:
                    kept.add(a)
            else:
                kept.add(a)
                kept.add(b)
                if kind == "neg":
                    negs[slot] = a
        subs = negs.keys() - kept
        fused, rows = [], ([], [])     # rows: the x-lines', then the others'
        for line in lines:
            slot, kind, a, b, q, mask = line
            if slot in subs:
                continue
            if b in subs:
                kind, b = "sub", negs[b]
                line = (slot, kind, a, b, q, mask)
            elif a in subs:
                kind, a, b = "sub", b, negs[a]
                line = (slot, kind, a, b, q, mask)
            fused.append(line)
            rows[mask != _X_DEP].append((slot, _KINDS[kind].array, a, b if q is None else slot))
        self.outputs, self.fused, (self._x_rows, self._xt_rows) = outputs, fused, rows

    def x_values(self, x) -> list:
        """A new list of values with x in its slot and every x-line run."""
        vals = self.start.copy()
        vals[0] = x
        for slot, fn, a, b in self._x_rows:
            vals[slot] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
        return vals

    def values(self, vals: list, t) -> Iterable:
        """The outputs' values, in order, given the list :meth:`x_values`
        returned, which the t-lines and (x, t)-lines fill in place."""
        vals[1] = t
        for slot, fn, a, b in self._xt_rows:
            vals[slot] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
        return map(vals.__getitem__, self.outputs)

    def __call__(self, x, t, held: list | None = None):
        """The batch form: the values at numpy arrays of points.

        ``x`` and ``t`` broadcast against each other; the result has their
        shape (a tuple of such arrays when ``expr`` is a tuple).  It is
        evaluated under ``np.errstate`` raising on divide, overflow and
        invalid.  A batch that raises an ArithmeticError or yields a
        non-finite value is run again with the NaNs of :func:`_sample` and
        each expression's non-finite values walked (:func:`_finite`), so it
        ends in the walk's values or in the exception the walk raises at
        the first bad point of the first expression that has one.
        ``held`` is :meth:`on_x`'s list of the values of the x-lines at
        ``x``, filled by its first call that they do not raise in and
        copied by the calls after."""
        x, t = np.asarray(x, dtype=complex), np.asarray(t, dtype=complex)
        # Where one side is a single point, the shape is the other's: no
        # np.broadcast, which costs a microsecond.
        shape = (t.shape if x.size == 1 and x.ndim <= t.ndim else x.shape
                 if t.size == 1 and t.ndim <= x.ndim else np.broadcast(x, t).shape)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                if held == []:
                    held.append(self.x_values(x))
                vals = self.x_values(x) if held is None else held[0].copy()
                out = self.values(vals, t)
            out = [v if type(v) is np.ndarray and v.shape == shape
                   else np.full(shape, v, dtype=complex) for v in out]
            every = out[0] if len(out) == 1 else np.concatenate(out, axis=None)
            # 0 * v is 0 where v is finite and NaN where it is not, so the
            # sum is finite exactly when every value is.
            if cmath.isfinite(np.vdot(np.zeros(every.size, dtype=complex), every)):
                return tuple(out) if isinstance(self.expr, tuple) else out[0]
        except ArithmeticError:
            pass
        # The batch raised or is not finite: the walk answers.
        xs, ts = np.broadcast_to(x, shape), np.broadcast_to(t, shape)
        exprs = self.expr if isinstance(self.expr, tuple) else (self.expr,)
        out = [_finite(e, v, xs, ts) for e, v in zip(exprs, _sample(self, xs, ts))]
        return tuple(out) if isinstance(self.expr, tuple) else out[0]

    def on_x(self, x: complex) -> Callable[[object], object]:
        """The array form on the line through the one point x: ``g(t)`` is
        ``self([x], t)``, with its values, bit for bit, and its walk.
        The x-lines run at x on the first call of ``g``, which keeps their
        values unless they raise, and every later call runs only the other
        lines.  ``g`` holds the kernel and no reference to itself."""
        return functools.partial(self, np.array([complex(x)]), held=[])


def compile_expr(kernel: Kernel) -> tuple[Callable, Callable, Callable]:
    """Compile the fused lines of ``kernel`` to straight-line Python staged
    on x and on t: the tuple ``(pre_x, pre_t, post)`` of three functions,
    from one ``compile`` call, where ``post(x, t, pre_x(x), pre_t(t))`` is
    the value of the kernel's ``expr`` at the point (x, t), a tuple of
    values for a tuple.  Each fused line runs once, so a subtree shared by
    structure is computed once and a neg that only adds read runs inside
    them as a subtraction, as in the array form.  A line is an assignment
    ``v<k> = ...``, unless exactly one later line of its own stage reads it
    and it is not an output: then it is written inside that reader's
    expression, in parentheses, up to ``_INLINE_DEPTH`` lines deep (a
    deeper one is an assignment again).  Singular inputs raise the native
    ZeroDivisionError/ValueError.  As the fused lines are those the outputs
    read, a kernel with roots after its outputs compiles to the text of a
    kernel of its outputs alone, and a view to its lines in the order of
    the kernel it shares.

    ``pre_x(x)`` runs every line that does not depend on t: the lines in x
    alone and those in neither variable.  ``pre_t(t)`` runs the lines in t
    alone that read no such constant line (a line in t reading one runs in
    ``post``).  Each returns the tuple of its values that later lines or
    the result read, which are always assigned; ``post(x, t, xv, tv)``
    unpacks both and runs the lines that depend on x and t.  A caller that
    meets the same x, or the same t, at many points can compute its stage
    once.  Every line runs once, in exactly one stage, on the values of its
    operands, so the values do not depend on the staging or the inlining,
    bit for bit, and a point raises exactly when one of its lines does
    (which line raises first, when several would, follows the text)."""
    lines = kernel.fused
    # Per slot, the stages of its reads: a line read once, by its own
    # stage, and not an output is written inside its reader.
    reads: dict[int, list[int]] = {slot: [0] for slot in kernel.outputs}
    for slot, kind, a, b, q, mask in lines:
        for s in (a,) if b is None else (a, b):
            reads.setdefault(s, []).append(mask)
    names = ["x", "t", *(v if v is None else _literal(v) for v in kernel.start[2:])]
    depth = [0] * len(names)    # the lines written inside a slot's text
    stages: dict[int, list[str]] = {_X_DEP: [], _T_DEP: [], _X_DEP | _T_DEP: []}
    read = set(kernel.outputs)  # what the (x, t)-lines and the result read
    for k, (slot, kind, a, b, q, mask) in enumerate(lines):
        ops = (a,) if b is None else (a, b)
        rhs = _KINDS[kind].line % tuple(
            [names[s] for s in ops] if q is None else [*(names[s] for s in ops), q])
        d = 1 + max(depth[s] for s in ops)
        if reads.get(slot) == [mask] and d <= _INLINE_DEPTH:
            names[slot], depth[slot] = f"({rhs})", d
        else:
            names[slot] = f"v{k}"
            stages[mask].append(f"    v{k} = {rhs}\n")
        if mask == _X_DEP | _T_DEP:
            read.update(ops)
    # The values an x-stage or a t-stage returns, in the order it runs them.
    xv, tv = ("(" + "".join(f"{names[slot]}, " for slot, *_, mask in lines
                            if mask == dep and slot in read) + ")"
              for dep in (_X_DEP, _T_DEP))
    outputs = [names[slot] for slot in kernel.outputs]
    result = "".join(f"{o}, " for o in outputs) if isinstance(kernel.expr, tuple) else outputs[0]
    src = "".join([
        "def _pre_x(x):\n", *stages[_X_DEP], f"    return {xv}\n",
        "def _pre_t(t):\n", *stages[_T_DEP], f"    return {tv}\n",
        f"def _post(x, t, xv, tv):\n    {xv} = xv\n    {tv} = tv\n",
        *stages[_X_DEP | _T_DEP], f"    return ({result})\n"])
    ns = dict(_SCALAR_NAMESPACE)
    exec(compile(src, "<fuchsreduce-expr>", "exec"), ns)
    # Popped, so no function is held by its own globals (a cycle).
    return ns.pop("_pre_x"), ns.pop("_pre_t"), ns.pop("_post")


# ---------------------------------------------------------------------------
# Quadrature

# A panel is sampled at the second-kind Chebyshev points of [-1, 1], written
# symmetrically so the midpoint and the end points are exact.  The tables map
# the samples to the Chebyshev coefficients of their interpolant and to its
# integral from -1 at the same points (last row: Clenshaw-Curtis weights).
def _chebyshev_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = n - 1
    nodes = np.sin(np.pi * np.arange(-m, m + 1, 2) / (2 * m))
    to_coeffs = np.linalg.inv(chebyshev.chebvander(nodes, m))
    integral = chebyshev.chebint(np.eye(n), lbnd=-1)
    return nodes, to_coeffs, chebyshev.chebvander(nodes, n) @ integral @ to_coeffs


_CHEB_NODES, _CHEB_TO_COEFFS, _CHEB_CUMSUM = _chebyshev_tables(25)
# Chebyshev coefficients (a column) to those of the derivative on [-1, 1];
# the last row is zero, so a differentiated series keeps its length.
_CHEB_DIFF = np.vstack([chebyshev.chebder(np.eye(25)), np.zeros(25)])
# The last three coefficients (the tail) estimate the interpolation error.
# Samples whose tail is within this multiple of eps of their largest modulus
# are resolved to rounding, and no bisection can improve them.
# One product with ``_CHEB_APPLY`` gives both: its first three columns map a
# row of samples to its tail, the others to its running integral.
_CHEB_APPLY = np.hstack([_CHEB_TO_COEFFS[-3:].T, _CHEB_CUMSUM.T]).astype(complex)
_ROUNDING_FLOOR = 100 * np.finfo(float).eps
# Near a singularity on the path the samples are dominated by the rounding
# of the points themselves, and panels bisect without settling; this budget
# turns that into a prompt QuadratureError instead of millions of samples.
_MAX_PANELS = 2000
# A panel still unresolved after this many bisections fails the walk.
_MAX_DEPTH = 48
# A linear-system panel passes when the tails of Phi and of Psi are each at
# most _ATOL + _RTOL times its own largest modulus on the panel.
_RTOL, _ATOL = 1e-12, 1e-13


def _integrate_panel(stages: Sequence[Callable], z: np.ndarray, half: complex,
                     totals: list[complex], tail_tol: float, pair: np.ndarray
                     ) -> list[complex] | None:
    """The stage integrals from the start of the walk to the end of the
    panel sampled at ``z`` (half-width ``half``), given ``totals`` at its
    start; None when some stage rejects the panel.  What a stage raises
    propagates.  ``pair`` is the walk's (2, n) operand, which each stage's
    samples fill."""
    prior: list[np.ndarray] = []
    ends: list[complex] = []
    for stage, total in zip(stages, totals):
        out = stage(z, prior)
        vals, *passed = [np.asarray(v, dtype=complex)
                         for v in (out if isinstance(out, tuple) else (out,))]
        # A row of a 2-row product: a 1-D product goes through BLAS's
        # matrix-vector kernel, whose sums round differently.
        pair[:] = vals
        applied = (pair @ _CHEB_APPLY)[0]
        tail = np.abs(applied[:3]).max()
        # A nan tail fails both tests: bisect.
        if not (tail <= tail_tol or tail <= _ROUNDING_FLOOR * np.abs(vals).max()):
            return None
        running = total + half * applied[3:]
        prior += [running, *passed]
        # Built-in complex: numpy's complex arithmetic rounds differently
        # from Python's downstream.
        ends.append(running[-1].item())
    return ends


def _collocate(matrix: Callable, z: np.ndarray, half: complex,
               y: np.ndarray) -> np.ndarray | None:
    """y = (Phi, Psi) at the panel points ``z``, or None when the panel
    must be bisected.  Phi solves Phi' = A(z) Phi and Psi, its variation in
    t, Psi' = A Psi + A_t Phi, both from their values ``y`` at the start of
    the panel.  On a panel of half-width ``half`` the values at the nodes
    solve the integral forms Phi = Phi(p) + half W (A Phi) and Psi = Psi(p)
    + half W (A Psi + A_t Phi), with W = ``_CHEB_CUMSUM`` (Greengard, SIAM
    J. Numer. Anal. 28, 1991).  The collocated system is block
    lower-triangular, so it takes one 50x50 matrix I - half W A and two
    solves: Phi, then Psi with the forcing half W (A_t Phi).  The panel
    passes when the tail of Phi is at most ``_ATOL + _RTOL max|Phi|`` on
    it, and that of Psi likewise.  A non-finite coefficient or solution
    value raises :class:`QuadratureError`."""
    n = len(_CHEB_NODES)
    a11, a12, a21, a22, d11, d12, d21, d22 = entries = [
        np.broadcast_to(np.asarray(v, dtype=complex), z.shape) for v in matrix(z)]
    if not all(np.isfinite(v).all() for v in entries):
        raise QuadratureError(f"non-finite coefficient on the panel [{z[0]}, {z[-1]}]")
    hw = half * _CHEB_CUMSUM
    system = np.eye(2 * n) - np.block([[hw * a11, hw * a12], [hw * a21, hw * a22]])
    phi1, phi2 = np.linalg.solve(system, np.repeat(y[:2], n)).reshape(2, n)
    forcing = np.concatenate([hw @ (d11 * phi1 + d12 * phi2),
                              hw @ (d21 * phi1 + d22 * phi2)])
    psi = np.linalg.solve(system, np.repeat(y[2:], n) + forcing)
    ys = np.vstack([phi1, phi2, psi.reshape(2, n)])
    if not np.isfinite(ys).all():
        raise QuadratureError(f"non-finite solution on the panel [{z[0]}, {z[-1]}]")
    if (np.abs(ys @ _CHEB_APPLY[:, :3]).reshape(2, 6).max(axis=1)
            > _ATOL + _RTOL * np.abs(ys).reshape(2, 2 * n).max(axis=1)).any():
        return None
    return ys


def _walk_panels(stages: Sequence[Callable[[np.ndarray, list], object]],
                 a: complex, b: complex, abs_tol: float,
                 system: tuple[Callable, Sequence[complex]] | None = None
                 ) -> list[complex] | _PiecewiseChebyshev:
    """Integrals of each stage over the straight segment [a, b] on adaptive
    Chebyshev panels taken left to right, one per round; or, given a linear
    ``system`` and no stages, its solution along the segment.

    Each round samples the next panel [p, q] at z = mid + half * nodes,
    with mid = (p + q) / 2 and half = (q - p) / 2.  Each stage is called
    once per round as ``stage(z, prior)``: ``prior`` holds, per earlier
    stage, its running integral from ``a`` at the same points followed by
    the values it passed on, so f exp(int h) needs no integration inside
    the integrand.  The stage returns its samples in the shape of ``z``, or
    a tuple of its samples and of more values at the same points that it
    passes on to the later stages (so one kernel call can serve several
    stages).  A stage accepts the panel when its error bound |q - p| * tail
    is at most ``abs_tol`` times the panel's share of [a, b] or the tail is
    within the rounding floor of the samples; a panel some stage rejects is
    bisected, and the later stages do not see it.

    ``system`` = (matrix, start) is the x-equation Phi' = A Phi of a
    2-vector together with its t-variation Psi' = A Psi + A_t Phi, solved
    panel by panel (:func:`_collocate`, to the fixed ``_RTOL`` and
    ``_ATOL``; ``abs_tol`` is not read).  ``matrix(z)`` returns the
    entries (a11, a12, a21, a22) of A and then those of A_t = dA/dt on the
    panel points, each in the shape of ``z`` or broadcastable to it; what
    it raises ends the walk.  ``start`` holds (Phi(a), Psi(a)).

    Returns without a system the list of stage integrals, built-in
    ``complex``, and with one the dense output
    (:class:`_PiecewiseChebyshev`) of the rows (Phi1, Phi2, Psi1, Psi2)
    over the arclength [0, |b - a|].  Raises :class:`QuadratureError` when
    a panel at depth ``_MAX_DEPTH`` is still unresolved, the walk needs
    more than ``_MAX_PANELS`` panels, a stage divides by zero or raises
    :class:`SingularEvaluationError` at one of its points (a pole exactly
    on the path; raised from the stage's exception) or a coefficient or
    solution value is not finite, else whatever a stage or ``matrix``
    raised.  A segment of zero length gives zero integrals without a system
    and raises :class:`QuadratureError` with one."""
    a, b = complex(a), complex(b)
    if a == b:
        if system is None:
            return [0j] * len(stages)
        raise QuadratureError(
            f"a linear system is solved only on a segment of nonzero length, not [{a}, {b}]")
    if system is not None:
        matrix, y = system
        y = np.asarray(y, dtype=complex)
        edges, coeffs = [0.0], []
    totals = [0j] * len(stages)
    pair = np.empty((2, len(_CHEB_NODES)), dtype=complex)
    tail_tol = abs_tol / abs(b - a)
    stack = [(a, b, 0)]
    for _ in range(_MAX_PANELS):
        p, q, depth = stack.pop()
        mid, half = 0.5 * (p + q), 0.5 * (q - p)
        z = mid + half * _CHEB_NODES
        if system is None:
            try:
                got = _integrate_panel(stages, z, half, totals, tail_tol, pair)
            except (ZeroDivisionError, SingularEvaluationError) as exc:
                raise QuadratureError(f"integrand is singular on the panel [{p}, {q}]") from exc
            if got is not None:
                totals = got
        else:
            got = _collocate(matrix, z, half, y)
            if got is not None:
                y = got[:, -1]
                coeffs.append(got @ _CHEB_TO_COEFFS.T)
                edges.append(abs(q - a))
        if got is None:
            if depth >= _MAX_DEPTH:
                raise QuadratureError(f"the panel walk did not converge on [{p}, {q}]")
            stack += [(mid, q, depth + 1), (p, mid, depth + 1)]
        if not stack:
            return totals if system is None else _PiecewiseChebyshev(edges, coeffs)
    raise QuadratureError(f"the panel walk needs more than {_MAX_PANELS} panels on [{a}, {b}]")


class _PiecewiseChebyshev:
    """Dense output of :func:`_walk_panels` with a linear system: per panel
    of [0, L] in arclength, the Chebyshev coefficients of the rows (Phi1,
    Phi2, Psi1, Psi2).
    Called like scipy's ``OdeSolution``: a float gives the rows' values
    (shape (k,)), an array of m arclengths a (k, m) array.  With ``derivatives`` = d > 0
    the result gains a leading axis of length d + 1: the rows and their
    first d derivatives in arclength, each the exact derivative of the
    panel's series (``_CHEB_DIFF``)."""

    def __init__(self, edges: list[float], coeffs: list[np.ndarray]):
        self.edges = np.array(edges)
        self.coeffs = np.array(coeffs)      # (panels, rows, nodes)

    def __call__(self, s, derivatives: int = 0):
        s = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s)
        j = np.clip(np.searchsorted(self.edges, flat, side="right") - 1,
                    0, len(self.coeffs) - 1)
        lo, hi = self.edges[j], self.edges[j + 1]
        basis = chebyshev.chebvander((2 * flat - lo - hi) / (hi - lo), len(_CHEB_NODES) - 1)
        vals = np.empty((derivatives + 1, self.coeffs.shape[1], len(flat)), dtype=complex)
        # Panel by panel, so a derivative series is formed once per panel;
        # einsum sums each point alone, so a value does not depend on the
        # batch it is asked for in.
        for p in np.flatnonzero(np.bincount(j)):
            at = j == p
            c = self.coeffs[p]
            diff = 2 / (self.edges[p + 1] - self.edges[p]) * _CHEB_DIFF.T
            for d in range(derivatives + 1):
                if d:
                    c = c @ diff
                vals[d][:, at] = np.einsum("mn,kn->km", basis[at], c)
        vals = vals if derivatives else vals[0]
        return vals[..., 0] if s.ndim == 0 else vals


def integrate_callable(fn: Callable[[complex], complex],
                       points: Iterable[complex]) -> complex:
    """Adaptive quadrature of a callable along the polygon through the
    waypoints ``points``: the definite-integral view of
    :func:`_walk_panels`, each segment taking an equal share of the
    absolute tolerance 1e-12.  Deterministic for fixed waypoints; raises
    ValueError for fewer than two waypoints and :class:`QuadratureError` on
    a singularity on or too close to the polygon."""
    pts = [complex(p) for p in points]
    if len(pts) < 2:
        raise ValueError("a path needs at least two waypoints")
    stage = lambda z, prior: [fn(w) for w in z.tolist()]
    seg_tol = 1e-12 / (len(pts) - 1)
    return sum((_walk_panels((stage,), a, b, seg_tol)[0]
                for a, b in zip(pts, pts[1:])), 0j)


def numerically_zero(values, tol: float = 1e-10, reference=None) -> bool:
    """Decide whether an array of values vanishes: True iff ``max |values|``
    is at most ``tol * (1 + scale)``, where ``scale`` is the max modulus of
    the array ``reference`` (1 when no reference is given).  A NaN in
    either reads as not zero."""
    scale = 1.0 if reference is None else np.max(np.abs(reference))
    return bool(np.max(np.abs(values)) <= tol * (1.0 + scale))


# ---------------------------------------------------------------------------
# Printer

def _fmt_real(v: float) -> str:
    if abs(v) < 1e15 and v == int(v):
        return str(int(v))
    return repr(v)


def _print_const(c: complex) -> tuple[str, bool]:
    """Render a complex constant.  Second element: needs no outer parens."""
    re, im = c.real, c.imag
    if im == 0:
        return _fmt_real(re), re >= 0
    if re == 0:
        if im == 1:
            return "i", True
        if im == -1:
            return "(-i)", True
        return f"({_fmt_real(im)}*i)", True
    sign = "+" if im >= 0 else "-"
    im_abs = abs(im)
    im_part = "i" if im_abs == 1 else f"{_fmt_real(im_abs)}*i"
    return f"({_fmt_real(re)} {sign} {im_part})", True


def _atomish(e: Expr) -> bool:
    """Nodes that print as self-delimiting units."""
    if e.kind in ("var", "exp", "log", "sqrt"):
        return True
    if e.kind == "const":
        return _print_const(e.value)[1]
    return False


def to_string(e: Expr) -> str:
    """Infix rendering: ``^`` for powers, ``i`` for the imaginary unit and
    rational exponents as ``(p/q)``.  Read left-associatively with the
    usual precedence (unary minus below ``^``), the text rebuilds ``e``
    structurally through the constructors."""
    k = e.kind
    if k == "const":
        return _print_const(e.value)[0]
    if k == "var":
        return e.value
    if k == "neg":
        c = e.children[0]
        s = to_string(c)
        if c.kind in ("add", "mul", "div"):
            return f"-({s})"
        return f"-{s}"
    if k == "add":
        # Read left-associatively, only right-hand adds need parentheses
        # to rebuild the same tree.
        a, b = e.children
        sa = to_string(a)
        if b.kind == "neg":
            inner = b.children[0]
            sb = to_string(inner)
            if inner.kind == "add":
                return f"{sa} - ({sb})"
            return f"{sa} - {sb}"
        if b.kind == "add":
            return f"{sa} + ({to_string(b)})"
        if b.kind == "const" and b.value.imag == 0 and b.value.real < 0:
            return f"{sa} - {_fmt_real(-b.value.real)}"
        return f"{sa} + {to_string(b)}"
    if k == "mul":
        a, b = e.children
        sa = to_string(a)
        sb = to_string(b)
        if a.kind in ("add", "neg", "div"):
            sa = f"({sa})"
        if b.kind in ("add", "neg", "div", "mul"):
            sb = f"({sb})"
        return f"{sa} * {sb}"
    if k == "div":
        a, b = e.children
        sa = to_string(a)
        sb = to_string(b)
        if a.kind in ("add", "neg"):
            sa = f"({sa})"
        if not _atomish(b) or b.kind == "const" and not _print_const(b.value)[1]:
            sb = f"({sb})"
        return f"{sa} / {sb}"
    if k in ("ipow", "fpow"):
        base = e.children[0]
        sb = to_string(base)
        if not _atomish(base):
            sb = f"({sb})"
        if k == "ipow":
            n = e.value
            return f"{sb}^{n}" if n >= 0 else f"{sb}^({n})"
        q: Fraction = e.value
        return f"{sb}^({q.numerator}/{q.denominator})"
    if k in ("exp", "log", "sqrt"):
        return f"{k}({to_string(e.children[0])})"
    raise ValueError(f"unknown node kind {k!r}")  # pragma: no cover

