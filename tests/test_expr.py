import ast
import cmath
import collections
import inspect
import math
import random
import struct
import time
import types
from fractions import Fraction

import numpy as np
import pytest

from fuchsreduce import catalog, expr as fe
from fuchsreduce.expr import Binding, T, X


def fd_derivative(e, var, b, step=1e-6):
    """Central finite difference, the independent oracle for differentiate."""
    if var == "x":
        up = Binding(x=b.x + step, t=b.t)
        dn = Binding(x=b.x - step, t=b.t)
    else:
        up = Binding(x=b.x, t=b.t + step)
        dn = Binding(x=b.x, t=b.t - step)
    return (fe.evaluate(e, up) - fe.evaluate(e, dn)) / (2 * step)


class TestDifferentiate:
    def test_polynomial_rule(self):
        d = fe.differentiate(X**2 + T, "x")
        assert d == 2 * X

    def test_log_rule(self):
        d = fe.differentiate(fe.log(X), "x")
        b = Binding(x=3.7)
        assert fe.evaluate(d, b) == pytest.approx(1 / 3.7)

    def test_quartic_coefficient_against_fd(self):
        # q = -x^4 - t x^2; exact slope at (1, 0) is -4
        q = -(X**4) - T * X**2
        d = fe.differentiate(q, "x")
        b = Binding(x=1.0, t=0.0)
        oracle = fd_derivative(q, "x", b)
        assert fe.evaluate(d, b) == pytest.approx(oracle, rel=1e-6)
        assert fe.evaluate(d, b) == pytest.approx(-4.0)

    def test_t_derivative(self):
        d = fe.differentiate(fe.exp(2 * T) * X, "t")
        b = Binding(x=1.5, t=0.3)
        assert fe.evaluate(d, b) == pytest.approx(fd_derivative(d and fe.exp(2 * T) * X, "t", b), rel=1e-6)

    def test_fractional_power_rule(self):
        e = fe.fpow(X, Fraction(4, 3))
        d = fe.differentiate(e, "x")
        b = Binding(x=2.2)
        assert fe.evaluate(d, b) == pytest.approx((4 / 3) * 2.2 ** (1 / 3), rel=1e-12)

    @staticmethod
    def _doubling_dag(depth):
        # e = (e + e) * x, depth times: 2^depth x^(depth+1), a DAG of
        # 2 depth + 1 distinct nodes whose tree is exponential in depth.
        e = X
        for _ in range(depth):
            e = (e + e) * X
        return e

    def test_derivative_of_a_shared_subtree_is_shared(self):
        depth = 12
        e = self._doubling_dag(depth)
        d = fe.differentiate(e, "x")
        assert fe._tree_sizes(d)[1] <= 6 * depth
        b = Binding(x=1.1)
        assert fe.evaluate(d, b) == pytest.approx(2**depth * (depth + 1) * 1.1**depth,
                                                  rel=1e-12)

    def test_substitution_of_a_shared_subtree_is_shared(self):
        depth = 12
        e = self._doubling_dag(depth)
        s = fe.substitute(e, x=2 * X + 1)
        assert fe._tree_sizes(s)[1] <= 6 * depth
        b = Binding(x=0.05)
        assert fe.evaluate(s, b) == pytest.approx(2**depth * 1.1**(depth + 1), rel=1e-12)


def _reference_derivative(e, var):
    """Reference shape of a derivative: the chain rule of each node kind,
    applied node by node through the folding constructors.
    ``differentiate`` must build the same trees, down to the sign of a
    zero constant."""
    k = e.kind
    if k == "const":
        return fe.const(0)
    if k == "var":
        return fe.const(1 if e.value == var else 0)
    d = [_reference_derivative(c, var) for c in e.children]
    a = e.children[0]
    if k == "neg":
        return fe.neg(d[0])
    if k == "add":
        return fe.add(*d)
    if k == "mul":
        return fe.add(fe.mul(d[0], e.children[1]), fe.mul(a, d[1]))
    if k == "div":
        b = e.children[1]
        return fe.div(fe.sub(fe.mul(d[0], b), fe.mul(a, d[1])), fe.ipow(b, 2))
    if k == "ipow":
        return fe.mul(fe.mul(fe.const(e.value), fe.ipow(a, e.value - 1)), d[0])
    if k == "fpow":
        return fe.mul(fe.mul(fe.const(complex(e.value)), fe.fpow(a, e.value - 1)), d[0])
    if k == "exp":
        return fe.mul(e, d[0])
    if k == "log":
        return fe.div(d[0], a)
    if k == "sqrt":
        return fe.div(d[0], fe.mul(fe.const(2), e))
    raise ValueError(f"unknown node kind {k!r}")


class TestDerivativeShape:
    def test_same_trees_as_the_reference_rule_property(self):
        # Compared by value-numbered tapes, which key a constant on its
        # compiled literal: Expr equality equates the zero constants 0j and
        # -0j, which compile to different values.
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=200, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(_raw_trees(st), st.sampled_from(["x", "t"]))
        def check(e, var):
            want = _numbered(_reference_derivative(e, var))
            assert _numbered(fe.differentiate(e, var)) == want

        check()


def _numbered(e):
    """The value-numbered tape of ``e``'s kernel as plain tuples: equal
    exactly when two expressions compile to the same lines."""
    kernel = fe.Kernel(e)
    return (kernel.lines, kernel.roots,
            [v if v is None else fe._literal(v) for v in kernel.start])


_ALL_ENTRIES = catalog.list_entries() + catalog.list_negative_entries()


def _reference_tape(roots):
    """A kernel's numbering by its first rule: :func:`fe._traverse` with a
    per-node callback, a constant keyed on its compiled literal.  As
    (lines, roots, start), the start holding the DAG's slots alone."""
    slots, masks, start, lines = {}, [fe._X_DEP, fe._T_DEP], [None, None], []

    def number(n, kids):
        if n.kind == "var":
            return 0 if n.value == "x" else 1
        const = n.kind == "const"
        key = fe._literal(n.value) if const else (n.kind, kids, n.value)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(masks)
            masks.append(0 if const else masks[kids[0]] | masks[kids[-1]] or fe._X_DEP)
            start.append(n.value if const else None)
            if not const:
                lines.append((slot, n.kind, kids[0], kids[1] if len(kids) == 2 else None,
                              n.value, masks[slot]))
        return slot

    numbered = tuple(fe._traverse(roots, number))
    return tuple(lines), numbered, start


def _assert_reference_numbering(roots, n_out=None):
    """``fe.Kernel(roots, n_out)`` numbers as :func:`_reference_tape` does,
    each constant compared by its bits."""
    def bits(start):
        return [struct.pack("dd", v.real, v.imag) if type(v) is complex else (type(v), v)
                for v in start]

    lines, want_roots, start = _reference_tape(roots)
    kernel = fe.Kernel(roots, n_out)
    # A power line's slot starts from its exponent, the int or the float
    # p / q its row applies; no slot lies past the DAG's.
    exps = {slot: q if type(q) is int else float(q) for slot, *_, q, _ in lines if q is not None}
    start = [exps.get(slot, v) for slot, v in enumerate(start)]
    assert (kernel.lines, kernel.roots, bits(kernel.start)) == (lines, want_roots, bits(start))


class TestDifferentiateRootSets:
    """``differentiate`` given a tuple: one pass over the DAG under all the
    roots, each derivative as the one-root call builds it."""

    @staticmethod
    def _assert_as_one_root_calls(roots, var):
        got = fe.differentiate(roots, var)
        assert isinstance(got, tuple) and len(got) == len(roots)
        for root, d in zip(roots, got):
            alone = fe.differentiate(root, var)
            assert d == alone
            assert _numbered(d) == _numbered(alone)

    @pytest.mark.parametrize("entry_id", catalog.list_entries())
    def test_f_h_g_in_x(self, entry_id):
        dec = catalog.lookup(entry_id).decomposition
        # The gauge exponent G is R.
        self._assert_as_one_root_calls((dec.f, dec.h, dec.R), "x")

    @pytest.mark.parametrize("entry_id", [i for i in _ALL_ENTRIES
                                          if catalog.lookup(i).lax is not None])
    def test_lax_a_entries_in_t(self, entry_id):
        a = catalog.lookup(entry_id).lax.a
        self._assert_as_one_root_calls((*a[0], *a[1]), "t")

    def test_a_shared_subtree_has_one_derivative_object(self):
        s = fe.log(X * T + 1)
        d_sx, d_s = fe.differentiate((s * X, s), "x")
        # d(s x) = ds x + s, built through the folding constructors.
        assert d_sx.children[0].children[0] is d_s
        # One-root calls share nothing between their results.
        assert fe.differentiate(s * X, "x").children[0].children[0] is not \
            fe.differentiate(s, "x")

    def test_a_bare_expression_gives_an_expression(self):
        assert isinstance(fe.differentiate(X**2, "x"), fe.Expr)
        (d,) = fe.differentiate((X**2,), "x")
        assert d == 2 * X
        assert fe.differentiate((), "t") == ()


def frobenius_systems(entry):
    """The systems whose kernel a report on ``entry`` numbers: the
    one its Frobenius stage checks (the Lax pair, or a direct pair's
    companion system), then the leg's system when that is another (a
    swapped system)."""
    checked, leg = entry.lax or entry.scalar.system, entry.decomposition.sp.system
    return (checked,) if leg is checked else (checked, leg)


class TestTapeNumbering:
    """``Kernel`` numbers in its own pass and keys a constant on its bits,
    slot for slot as :func:`_reference_tape` numbers."""

    SIGNED_ZEROS = [complex(0.0, 0.0), complex(0.0, -0.0),
                    complex(-0.0, 0.0), complex(-0.0, -0.0)]

    def test_signed_zero_patterns_keep_distinct_slots(self):
        roots = tuple(fe.Expr("const", c) for c in self.SIGNED_ZEROS)
        kernel = fe.Kernel(roots)
        assert len(set(kernel.roots)) == 4
        for slot, c in zip(kernel.roots, self.SIGNED_ZEROS):
            assert fe._literal(kernel.start[slot]) == fe._literal(c)
            assert struct.pack("dd", kernel.start[slot].real, kernel.start[slot].imag) == \
                struct.pack("dd", c.real, c.imag)
        assert len({fe._literal(c) for c in self.SIGNED_ZEROS}) == 4

    def test_equal_bits_share_a_slot(self):
        a, b = fe.const(1.5 - 2j), fe.const(complex("1.5-2j"))
        assert a is not b
        kernel = fe.Kernel((X * a, X * b, fe.div(X * b, fe.const(-0j))))
        assert kernel.roots[0] == kernel.roots[1]
        assert sum(v is not None for v in kernel.start[2:]) == 2   # 1.5-2j and -0j
        assert [line[1] for line in kernel.lines] == ["mul", "div"]

    @pytest.mark.parametrize("entry_id", _ALL_ENTRIES)
    def test_shipped_kernels_match_the_reference_numbering(self, entry_id):
        # Each kernel a report keeps, from its roots: the coefficients with
        # G, h and f, the flow, and the entries of B and A of the system
        # the report checks (the Lax pair or a direct pair's companion
        # system) and of the leg's system when that is another (a swapped
        # system).
        entry = catalog.lookup(entry_id)
        dec = entry.decomposition
        tapes = [(dec._coeff_array, (*dec._coeff_array.expr, *dec._coeff_array.view(3).expr), 3),
                 (entry.flow_fns, entry.flow_fns.expr, None)]
        for system in frobenius_systems(entry):
            tapes.append((system.kernel, system.kernel.expr, None))
        for kernel, roots, n_out in tapes:
            _assert_reference_numbering(roots, n_out)
            assert kernel.lines == fe.Kernel(roots, n_out).lines
        # G, h and f are in the coefficients' DAG: they add no line.
        assert dec._coeff_array.lines == fe.Kernel(dec._coeff_array.expr).lines

    def test_random_trees_match_the_reference_numbering_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(_raw_trees(st), min_size=1, max_size=3))
        def check(roots):
            _assert_reference_numbering(tuple(roots))

        check()


class TestExprNode:
    def test_assigning_an_attribute_raises(self):
        e = X * T + 1
        for name in ("kind", "value", "children", "_hash", "other"):
            with pytest.raises(AttributeError, match="^Expr nodes are immutable$"):
                setattr(e, name, None)
        assert (e.kind, e.value, e.children) == ("add", None, (X * T, fe.const(1)))

    def test_hash_and_equality(self):
        a, b = fe.log(X * T + 1), fe.log(X * T + 1)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(("log", None, a.children))
        assert a._hash == hash(a)       # computed once, then kept
        assert fe.const(0j) == fe.const(-0j) and hash(fe.const(0j)) == hash(fe.const(-0j))
        assert a != fe.log(X * T + 2) and a != "log(x * t + 1)"


def _tree_walk(e, b):
    """Reference semantics of a tree at one binding: the recursive walker,
    one node at a time, children left to right except that a ``div``
    takes its denominator first.  ``evaluate`` must agree with it bit for
    bit and exception for exception."""
    k = e.kind
    if k == "const":
        return e.value
    if k == "var":
        v = b.x if e.value == "x" else b.t
        if v is None:
            raise fe.UnboundSymbolError(f"variable {e.value!r} is unbound")
        return complex(v)
    if k == "neg":
        return -_tree_walk(e.children[0], b)
    if k == "add":
        return _tree_walk(e.children[0], b) + _tree_walk(e.children[1], b)
    if k == "mul":
        return _tree_walk(e.children[0], b) * _tree_walk(e.children[1], b)
    if k == "div":
        den = _tree_walk(e.children[1], b)
        if den == 0:
            raise fe.SingularEvaluationError("division by zero")
        return _tree_walk(e.children[0], b) / den
    if k == "ipow":
        base = _tree_walk(e.children[0], b)
        if base == 0 and e.value < 0:
            raise fe.SingularEvaluationError("pole: 0 raised to a negative power")
        return base ** e.value
    if k == "fpow":
        return fe._principal_pow(_tree_walk(e.children[0], b), float(e.value))
    if k == "exp":
        return cmath.exp(_tree_walk(e.children[0], b))
    if k == "log":
        v = _tree_walk(e.children[0], b)
        if v == 0:
            raise fe.SingularEvaluationError("log of zero")
        return cmath.log(v)
    if k == "sqrt":
        return cmath.sqrt(_tree_walk(e.children[0], b))
    raise ValueError(f"unknown node kind {k!r}")


class TestEvaluate:
    def test_arithmetic(self):
        assert fe.evaluate(X**2 + T, Binding(x=2, t=1)) == 5

    def test_principal_log(self):
        assert fe.evaluate(fe.log(fe.const(-1)), Binding()) == pytest.approx(1j * math.pi)

    def test_catalog_entry_value(self):
        # For the flat second-family solution the (1,2) entry is u*x with
        # u = 1, y = 0, i.e. exactly x.
        from fuchsreduce import catalog

        lp = catalog.lookup("PII.y0").lax
        a12 = lp.a[0][1]
        assert fe.evaluate(a12, Binding(x=1.5, t=0.4)) == pytest.approx(1.5)

    def test_unbound_symbol(self):
        with pytest.raises(fe.UnboundSymbolError):
            fe.evaluate(X + T, Binding(x=1.0))

    def test_division_by_zero(self):
        with pytest.raises(fe.SingularEvaluationError):
            fe.evaluate(1 / X, Binding(x=0.0))

    def test_log_of_zero(self):
        with pytest.raises(fe.SingularEvaluationError):
            fe.evaluate(fe.log(X), Binding(x=0.0))

    def test_deep_chain_with_a_pole(self):
        # 900 adds over 1 / (x - 1): deeper than half the recursion limit.
        # The walk reaches it as a kernel's numbering does, so it evaluates
        # at a regular point, and the kernel answers a batch holding the
        # pole by the walk's exception, class and message.
        e = fe.div(fe.const(1), X - 1)
        for _ in range(900):
            e = e + X
        want = fe.evaluate(e, Binding(x=2.0))
        assert want == 1801
        kernel = fe.Kernel(e)
        assert _bits(kernel(np.array([2.0]), 0j)[0]) == _bits(want)
        with pytest.raises(fe.SingularEvaluationError, match="^division by zero$"):
            kernel(np.array([2.0, 1.0]), 0j)

    def test_pure_function_bit_identical(self):
        e = fe.exp(X * T) / (X - 1) + fe.sqrt(T) * fe.fpow(X, Fraction(5, 2))
        b = Binding(x=1.7 + 0.3j, t=0.9 - 0.1j)
        v1 = fe.evaluate(e, b)
        v2 = fe.evaluate(e, b)
        assert v1 == v2

    def test_compile_matches_evaluate(self):
        e = fe.exp(X * T) / (X - 1) + fe.sqrt(T) * fe.fpow(X, Fraction(5, 2))
        f = compiled(e)
        b = Binding(x=1.7 + 0.3j, t=0.9 - 0.1j)
        assert f(b.x, b.t) == pytest.approx(fe.evaluate(e, b), rel=1e-14)

    def test_same_as_reference_walker_property(self):
        # evaluate is the one-point probe-set walk, which visits a shared
        # node once; the reference revisits it.  Same bits, same exception.
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        trees = _raw_trees(st)

        @st.composite
        def dags(draw):
            a, c = draw(trees), draw(trees)
            return draw(st.sampled_from([
                _raw("add", a, _raw("mul", a, c)), _raw("div", _raw("neg", a), a),
                _raw("add", _raw("log", c), _raw("div", a, c)), c]))

        point = st.sampled_from(_PROPERTY_POINTS)

        @hyp.settings(max_examples=400, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(dags(), point, st.one_of(point, st.none()))
        def check(e, x, t):
            b = Binding(x, t)
            want, got = _outcome(_tree_walk, e, b), _outcome(fe.evaluate, e, b)
            assert got == want

        check()


def _raw(kind, *children, value=None):
    """A node built without the folding helpers, so zero constants stay."""
    return fe.Expr(kind, value, children)


def _clone(e):
    """A structurally equal copy that shares no node object with ``e``."""
    return fe.Expr(e.kind, e.value, tuple(_clone(c) for c in e.children))


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _call(f, *args):
    """f(*args), or the class of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared by class
        return type(exc)


def _call_message(f, *args):
    """f(*args), or the class and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared by class and message
        return type(exc), str(exc)


def _outcome(f, *args):
    """The bits of f(*args), or the class and message of what it raised."""
    return _call_message(lambda: _bits(f(*args)))


def _raw_trees(st, extra_leaves=()):
    """Hypothesis strategy: raw trees over x, t with signed-zero constants,
    every node kind and exponents that can hit a pole or a branch cut."""
    leaves = st.sampled_from([X, T, fe.const(0j), fe.const(-0j),
                              fe.const(complex(0.0, -0.0)),
                              fe.const(1.5 - 0.5j), fe.const(-2 + 1j), *extra_leaves])

    def extend(kids):
        return st.one_of(
            st.builds(_raw, st.sampled_from(["neg", "exp", "log", "sqrt"]), kids),
            st.builds(_raw, st.sampled_from(["add", "mul", "div"]), kids, kids),
            st.builds(lambda n, a: _raw("ipow", a, value=n),
                      st.sampled_from([-2, 2, 3]), kids),
            st.builds(lambda q, a: _raw("fpow", a, value=q),
                      st.sampled_from([Fraction(1, 2), Fraction(-1, 3)]), kids),
        )

    return st.recursive(leaves, extend, max_leaves=10)


_PROPERTY_POINTS = [0j, complex(-0.0, -0.0), complex(0.0, -0.0),
                    0.7 + 0.2j, -1.3 - 0.4j, 2.5 + 0j]


def _n_statements(f):
    """The assignments of a compiled form, over its three stage code
    objects: the locals of each stage but its arguments, where a value
    ``post`` unpacks from another stage counts in that stage alone."""
    pre_x, pre_t, post = (stage.__code__ for stage in f)
    return len({*pre_x.co_varnames[1:pre_x.co_nlocals],
                *pre_t.co_varnames[1:pre_t.co_nlocals],
                *post.co_varnames[4:post.co_nlocals]})


def compiled(e):
    """The compiled form of ``e``, a kernel or the expressions of one, as
    one function of (x, t): ``post(x, t, pre_x(x), pre_t(t))`` on the
    stages that ``compile_expr`` returns."""
    pre_x, pre_t, post = fe.compile_expr(e if isinstance(e, fe.Kernel) else fe.Kernel(e))
    return lambda x, t: post(x, t, pre_x(x), pre_t(t))


def _compile_text(kernel):
    """``compile_expr(kernel)``, its stages, and the text it compiled."""
    texts = []
    fe.compile = lambda src, *args: texts.append(src) or compile(src, *args)
    try:
        stages = fe.compile_expr(kernel)
    finally:
        del fe.compile
    return stages, texts[0]


_OPERATIONS = (ast.BinOp, ast.UnaryOp, ast.Call)


def _reads_value(node, constant=frozenset()):
    """Whether compiled text ``node`` reads x, t or the value ``v<k>`` of a
    line not in ``constant``."""
    return any(isinstance(n, ast.Name) and (n.id in ("x", "t") or n.id[0] == "v"
                                            and n.id not in constant)
               for n in ast.walk(node))


def _stage_ops(text):
    """The operations of a compiled text per stage (pre_x, pre_t, post):
    its operators and its calls of a kind's function that read x or t,
    directly or through the value of a line, so a literal, an exponent
    and a line of constants alone count none."""
    constant: set[str] = set()      # the lines of constants alone
    counts = []
    for stage in ast.parse(text).body:
        counts.append(0)
        for statement in stage.body:
            if isinstance(statement, ast.Assign) and not _reads_value(statement.value, constant):
                constant.update(n.id for n in statement.targets if isinstance(n, ast.Name))
            counts[-1] += sum(isinstance(n, _OPERATIONS) and _reads_value(n, constant)
                              for n in ast.walk(statement))
    return tuple(counts)


def _single_use_statements(text):
    """The assignments of a compiled text that exactly one later statement
    of their own stage reads, once, and nothing else reads, each with the
    depth of its expression: its operations nested in one another, its
    own counting one (a literal's count none)."""
    tree = ast.parse(text)
    loads = collections.Counter(n.id for n in ast.walk(tree)
                                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))

    def depth(node):
        inner = max(map(depth, ast.iter_child_nodes(node)), default=0)
        return inner + (isinstance(node, _OPERATIONS) and _reads_value(node))

    found = []
    for stage in tree.body:
        assigns = [s for s in stage.body if isinstance(s, ast.Assign)
                   and isinstance(s.targets[0], ast.Name)]
        stage_loads = collections.Counter(n.id for s in assigns for n in ast.walk(s.value)
                                          if isinstance(n, ast.Name))
        found += [(s.targets[0].id, depth(s.value)) for s in assigns
                  if loads[s.targets[0].id] == stage_loads[s.targets[0].id] == 1]
    return found


def _variable_lines(kernel):
    """Per stage (pre_x, pre_t, post), the fused lines of ``kernel`` that
    read x or t through their operands: those whose operations
    :func:`_stage_ops` counts (the others read constants alone)."""
    read, masks = {0, 1}, []
    for slot, _, a, b, q, mask in kernel.fused:
        if a in read or b in read:
            read.add(slot)
            masks.append(mask)
    return tuple(masks.count(dep) for dep in (fe._X_DEP, fe._T_DEP, fe._X_DEP | fe._T_DEP))


class TestCompileSharing:
    def test_structurally_equal_subtrees_emit_once(self):
        e = fe.add(fe.mul(X, T), fe.mul(X, T))
        # one product and one sum
        assert _n_statements(fe.compile_expr(fe.Kernel(e))) == 2
        assert compiled(e)(1.5 + 0.5j, 2.0 - 1j) == 2 * ((1.5 + 0.5j) * (2.0 - 1j))

    def test_tuple_returns_values_in_order(self):
        parts = (fe.mul(X, T), X, fe.const(2), fe.add(fe.mul(X, T), T))
        x, t = 0.3 - 1.1j, 1.7 + 0.2j
        assert compiled(parts)(x, t) == (x * t, x, 2 + 0j, x * t + t)
        assert _n_statements(fe.compile_expr(fe.Kernel(parts))) == 2

    def test_signed_zero_constants_are_not_merged(self):
        # Expr equality holds for 0j and complex(0, -0.0), but they emit
        # different values, 0j and -0j, so they must not share a variable.
        a = fe.sqrt(_raw("add", X, fe.const(0j)))
        b = fe.sqrt(_raw("add", X, fe.const(complex(0.0, -0.0))))
        assert a == b
        fa, fb, fab = compiled(a), compiled(b), compiled((a, b))
        for x in (complex(-0.0, -0.0), complex(0.0, -0.0), -4 + 0j, 2 - 3j):
            assert [_bits(v) for v in fab(x, 0j)] == [_bits(fa(x, 0j)), _bits(fb(x, 0j))]

    def test_tuple_compile_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        trees = _raw_trees(st)

        @st.composite
        def pairs(draw):
            # The second tree often holds a copy of the first, so the two
            # share subtrees by structure but not by identity.
            a, c = draw(trees), draw(trees)
            return a, draw(st.sampled_from([c, _raw("add", _clone(a), c),
                                            _raw("mul", c, _clone(a))]))

        points = st.sampled_from(_PROPERTY_POINTS)

        @hyp.settings(max_examples=400, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(pairs(), points, points)
        def check(pair, x, t):
            single = [_call(compiled(e), x, t) for e in pair]
            fused = _call(compiled(pair), x, t)
            raised = [v for v in single if isinstance(v, type)]
            if raised:
                # The body runs the first expression's lines first.
                assert fused is raised[0]
                return
            assert [_bits(v) for v in fused] == [_bits(v) for v in single]
            for e, got in zip(pair, single):
                try:
                    want = fe.evaluate(e, Binding(x=x, t=t))
                except Exception:  # noqa: BLE001 - no reference value here
                    continue
                if cmath.isfinite(want):
                    assert abs(got - want) <= 1e-12 * abs(want)

        check()

    def test_tuple_kernel_property(self):
        # A tuple kernel's array form, on its first call and on its second,
        # gives bit for bit the array forms of one kernel per expression
        # where its batch stands; where it does not (it raised or is not
        # finite), the walk's values to rounding (bit for bit where not
        # finite), or what the walk raises first, expression by expression
        # and point by point (class and message).
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        trees = _raw_trees(st)
        points = st.sampled_from(_PROPERTY_POINTS)

        @hyp.settings(max_examples=300, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(st.tuples(trees, trees), st.lists(points, min_size=1, max_size=4), points)
        def check(e, xs, t):
            want = _call_message(lambda: [[_walk_one(part, x, t) for x in xs] for part in e])
            kernel = fe.Kernel(e)
            got = _call_message(called_twice, kernel, np.array(xs), t)
            if not isinstance(want, list):
                assert got == want
                return
            if not _batch_stands(kernel, np.array(xs), t):
                for values, walked in zip(got, want):
                    _assert_walked(values.tolist(), walked)
                return
            singles = [fe.Kernel(part) for part in e]
            parts = tuple(called_twice(single, np.array(xs), t) for single in singles)
            assert _result_bits(got) == _result_bits(parts)

        check()


class TestKernelApi:
    """One kernel class: ``Kernel(e, n_out)`` numbers its roots once, a
    :meth:`~fuchsreduce.expr.Kernel.view` shares that numbering, and
    ``compile_expr`` renders a kernel as the plain tuple of its stages."""

    E, G = fe.mul(fe.exp(X), T), fe.log(X + 2)

    def test_no_tape_parameter(self):
        assert list(inspect.signature(fe.Kernel).parameters) == ["e", "n_out"]
        assert list(inspect.signature(fe.compile_expr).parameters) == ["kernel"]

    def test_no_tape_or_staged_class(self):
        assert not hasattr(fe, "_Tape")
        assert not hasattr(fe, "_Staged")

    def test_one_expression_returns_an_array(self):
        xs = np.array([0.5, 1.5 + 0.25j])
        got = fe.Kernel(self.E)(xs, 0.5)
        assert type(got) is np.ndarray and got.shape == (2,)
        stages = fe.compile_expr(fe.Kernel(self.E))
        assert type(stages) is tuple and len(stages) == 3
        assert type(compiled(self.E)(0.5, 0.5)) is complex

    def test_tuple_kernels_and_views_return_tuples(self):
        xs = np.array([0.5, 1.5 + 0.25j])
        both = fe.Kernel((self.E, self.G), 1)
        kernels = {"one root": fe.Kernel((self.E,)), "two roots": fe.Kernel((self.E, self.G)),
                   "n_out": both, "view": both.view(1), "view of one": fe.Kernel(self.E).view(0)}
        for name, kernel in kernels.items():
            got = kernel(xs, 0.5)
            assert type(got) is tuple and all(v.shape == (2,) for v in got), name
            assert type(compiled(kernel)(0.5, 0.5)) is tuple, name
        # A view shares the lines, slots and start values it was taken from.
        view = kernels["view"]
        assert (view.lines, view.roots, view.start) == (both.lines, both.roots, both.start)
        assert view.lines is both.lines and view.start is both.start
        (g,) = view(xs, 0.5)
        assert _result_bits(g) == _result_bits(fe.Kernel(self.G)(xs, 0.5))
        (e,) = both(xs, 0.5)
        assert _result_bits(e) == _result_bits(fe.Kernel(self.E)(xs, 0.5))


def _batch_stands(kernel, x, t):
    """Whether the kernel's batch at ``(x, t)`` stands: the run of its
    rows raises no floating-point error and every output is finite."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = list(kernel.values(kernel.x_values(np.asarray(x, dtype=complex)),
                                     np.asarray(t, dtype=complex)))
    except ArithmeticError:
        return False
    return all(np.isfinite(v).all() for v in out)


def _assert_walked(got, walked):
    """Each value of ``got`` is the walk's to rounding, bit for bit where
    the walk's is not finite."""
    for g, want in zip(got, walked, strict=True):
        if cmath.isfinite(want):
            assert abs(g - want) <= 1e-9 * max(1.0, abs(want))
        else:
            assert _bits(g) == _bits(want)


def _reprs(value):
    """The ``repr`` of each value of a scalar or tuple result."""
    return [repr(complex(v)) for v in (value if isinstance(value, tuple) else (value,))]


def _result_bits(value):
    """The type, shape and bits of a kernel's result: a value, an array, or
    a list or tuple of them."""
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [_result_bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return "ndarray", value.shape, [_bits(complex(v)) for v in value.ravel()]
    return type(value).__name__, _bits(complex(value))


def called_twice(call, *args):
    """``call(*args)`` twice, ``call`` being a new kernel, whose first call
    runs its lines and whose second runs them again.  Both give the same
    bits or raise the same class and message; the second's result is
    returned, or its exception raised."""
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append((call(*args), None))
        except Exception as exc:  # noqa: BLE001 - compared by class and message
            outcomes.append((None, exc))
    (first, first_err), (second, err) = outcomes
    if err is not None or first_err is not None:
        assert (type(first_err), str(first_err)) == (type(err), str(err))
        raise err
    assert _result_bits(first) == _result_bits(second)
    return second


# A placeholder leaf: it prints, and _raw_bound replaces it before any
# evaluation or compilation.
A = fe.Expr("var", "a")
_A_VALUE = 0.5 - 1.25j


def _raw_bound(e, a, memo=None):
    """``e`` (an expression or a tuple of them) with every ``A`` leaf
    replaced by the raw constant leaf ``a``.  Unlike ``substitute`` it
    refolds nothing, so the compilers see the tree's own shape, and a node
    shared by identity stays shared."""
    memo = {} if memo is None else memo
    if isinstance(e, tuple):
        return tuple(_raw_bound(part, a, memo) for part in e)
    got = memo.get(id(e))
    if got is None:
        if e == A:      # by value: _clone copies the leaf too
            got = fe.Expr("const", complex(a))
        else:
            got = fe.Expr(e.kind, e.value, tuple(_raw_bound(c, a, memo) for c in e.children))
        memo[id(e)] = got
    return got


def _walk_one(e, x, t):
    """The one-point walk of ``e`` (an expression or a tuple of them, in
    turn) at (x, t), shaped as the compiled result."""
    parts = [fe.evaluate(part, Binding(x, t))
             for part in (e if isinstance(e, tuple) else (e,))]
    return tuple(parts) if isinstance(e, tuple) else parts[0]


def _check_staged(e, xs, ts):
    """``compile_expr``'s stages, called as one function of (x, t)
    (:func:`compiled`), against the scalar tree walk on every (x, t) of
    ``xs`` x ``ts``, one point at a time: the same values by ``repr`` where
    neither raises, the same raising points."""
    f = compiled(e)
    for x in xs:
        for t in ts:
            want = _call(_walk_one, e, x, t)
            got = _call(f, x, t)
            assert isinstance(got, type) == isinstance(want, type), (x, t)
            if isinstance(want, type):
                continue
            assert _reprs(got) == _reprs(want)


class TestCompileStaged:
    """``compile_expr``'s one compiled form: its lines in an x-stage, a
    t-stage and an (x, t) stage."""

    @pytest.mark.parametrize("e, n_x_lines, n_t_lines, n_x_carried, n_t_carried, statements", [
        # x-only result: post has no lines and returns the carried value.
        (fe.add(fe.mul(fe.exp(X), X), A), 3, 0, 1, 0, (1, 0)),
        # t-only result: every line is in the t-stage, the x-stage is empty.
        (fe.add(fe.mul(T, T), A), 0, 2, 0, 1, (0, 1)),
        (fe.add(fe.mul(fe.exp(T), T), fe.log(fe.exp(T))), 0, 4, 0, 1, (0, 2)),
        # constant result: its lines run in the x-stage.
        (fe.mul(_raw("exp", fe.const(2)), A), 2, 0, 1, 0, (1, 0)),
        # a t-line reading a constant line runs in post.
        (fe.mul(_raw("exp", fe.const(2)), T), 1, 0, 1, 0, (1, 0)),
        # x and t read directly by post, returned bare too.
        ((fe.mul(X, T), X, T, fe.const(2)), 0, 0, 0, 0, (0, 0)),
        # shared x-only subtree read by two (x, t) lines and returned.
        ((fe.mul(fe.exp(X), T), fe.add(fe.exp(X), T), fe.exp(X)), 1, 0, 1, 0, (1, 0)),
        # shared t-only subtree read by an (x, t) line and returned.
        ((fe.mul(fe.exp(T), X), fe.exp(T)), 0, 1, 0, 1, (0, 1)),
        # a line read only by another line of its stage is not carried, and
        # runs inside that line, not as an assignment.
        (fe.mul(fe.sqrt(fe.log(X)), T), 2, 0, 1, 0, (1, 0)),
        (fe.mul(fe.sqrt(fe.log(T)), X), 0, 2, 0, 1, (0, 1)),
    ], ids=["x-only", "t-only", "t-only-shared", "constant", "constant-times-t",
            "bare-x-t", "shared", "shared-t", "internal", "internal-t"])
    def test_stage_shapes(self, e, n_x_lines, n_t_lines, n_x_carried, n_t_carried, statements):
        e = _raw_bound(e, _A_VALUE)
        kernel = fe.Kernel(e)
        (pre_x, pre_t, post), text = _compile_text(kernel)
        masks = [line[5] for line in kernel.fused]
        assert (masks.count(fe._X_DEP), masks.count(fe._T_DEP)) == (n_x_lines, n_t_lines)
        # Every line runs in exactly one stage, once: its stage's text has
        # its operation, whether it is an assignment or inside its reader.
        assert _stage_ops(text) == _variable_lines(kernel)
        assert (pre_x.__code__.co_nlocals - 1, pre_t.__code__.co_nlocals - 1) == statements
        assert len(pre_x(0.7 + 0.2j)) == n_x_carried
        assert len(pre_t(0.7 + 0.2j)) == n_t_carried
        _check_staged(e, _PROPERTY_POINTS, _PROPERTY_POINTS)

    @pytest.mark.parametrize("start, var", [(X, X), (T, T), (fe.mul(X, T), X)],
                             ids=["x", "t", "xt"])
    def test_deep_single_use_chain(self, start, var):
        # A Horner chain of 300 lines, each read once by the next, in one
        # stage: written inside one another it would nest 600 parentheses
        # and more, past Python's parser limit.  It compiles to assignments
        # _INLINE_DEPTH + 1 lines apart (the last is the output), and gives
        # the walk's values bit for bit, and on arrays the array form's.
        e = start
        for k in range(150):
            e = fe.add(fe.mul(e, var), fe.const(1 / (k + 2) - 0.5j / (k + 3)))
        kernel = fe.Kernel(e)
        stages, text = _compile_text(kernel)
        assert len(kernel.fused) >= 300
        assert sum(_stage_ops(text)) == len(kernel.fused)
        assert _stage_ops(text) == _variable_lines(kernel)
        assert _n_statements(stages) == math.ceil(len(kernel.fused) / (fe._INLINE_DEPTH + 1))
        xs, ts = [0.5 + 0.1j, -0.7 + 0.3j, 0j], [0.6 - 0.2j, 0.9 + 0j]
        f = compiled(kernel)
        for x in xs:
            for t in ts:
                assert _bits(f(x, t)) == _bits(fe.evaluate(e, Binding(x, t)))
        xa, ta = np.repeat(xs, len(ts)), np.tile(ts, len(xs))
        pre_x, pre_t, post = (types.FunctionType(stage.__code__, _ARRAYS) for stage in stages)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = post(xa, ta, pre_x(xa), pre_t(ta))
        assert _nan_bits(got.tolist()) == _nan_bits(kernel(xa, ta).tolist())

    def test_staged_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        trees = _raw_trees(st, extra_leaves=[A])

        @st.composite
        def dags(draw):
            # Later parts reuse earlier ones by identity and by structure,
            # and bare x, t or the A leaf may be returned.
            a, c = draw(trees), draw(trees)
            shared = draw(st.sampled_from([c, _raw("add", a, c), _raw("mul", c, _clone(a)),
                                           _raw("div", _raw("mul", a, T), _clone(a))]))
            return draw(st.sampled_from([a, shared, (a, shared), (shared, X, T, A)]))

        values = st.sampled_from([0.5 - 1.25j, 0j, -2 + 0j])
        points = st.lists(st.sampled_from(_PROPERTY_POINTS), min_size=1, max_size=3,
                          unique=True)

        @hyp.settings(max_examples=300, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(dags(), values, points, points)
        def check(e, a, xs, ts):
            _check_staged(_raw_bound(e, a), xs, ts)

        check()


class TestCompileConstants:
    def test_negative_imaginary_parameter_power(self):
        # repr(complex(0, -2)) is '-2j', and '-2j ** 2' is -(2j ** 2) = 4.
        # A bound parameter is a constant leaf; ipow folds constant bases,
        # so build the node raw.
        a = complex(0.0, -2.0)
        e = _raw("ipow", fe.Expr("const", a), value=2)
        want = fe.evaluate(e, Binding(x=0j, t=0j))
        f = compiled(e)
        assert want == -4
        assert f(0j, 0j) == want
        assert list(called_twice(fe.Kernel(e), np.array([0j, 1j]), 0j)) == [want, want]

    @pytest.mark.parametrize("value", [complex(0.0, -0.5), complex(-0.0, -0.5), 3j,
                                       -1 + 0j])
    def test_constant_power_matches_evaluate(self, value):
        # ipow folds constant bases, so build the node raw.
        e = fe.add(X, _raw("ipow", fe.const(value), value=2))
        want = fe.evaluate(e, Binding(x=1 + 1j, t=0j))
        f = compiled(e)
        assert f(1 + 1j, 0j) == want
        got = called_twice(fe.Kernel(e), np.array([1 + 1j]), 0j)
        assert got[0] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("re", [0.0, -0.0, 1.5, -1.5])
    @pytest.mark.parametrize("im", [0.0, -0.0, 2.5, -2.5])
    def test_signed_zeros_match_evaluate_bit_for_bit(self, re, im):
        # repr(complex(-1, -0.0)) is '(-1-0j)', which reads as -1 + 0j.
        # x = -0 - 0j adds nothing but keeps every zero of the constant.
        x = complex(-0.0, -0.0)
        for e in (fe.const(complex(re, im)), fe.add(X, fe.const(complex(re, im)))):
            want = _bits(fe.evaluate(e, Binding(x=x, t=0j)))
            f = compiled(e)
            assert _bits(f(x, 0j)) == want
            got = called_twice(fe.Kernel(e), np.array([x, x]), 0j)
            assert [_bits(complex(v)) for v in got] == [want, want]

    def test_negative_zero_imaginary_part_picks_the_branch(self):
        # sqrt(-1 - 0j) is -1j on the principal branch, sqrt(-1 + 0j) is 1j.
        e = fe.sqrt(X + fe.const(complex(-1, -0.0)))
        x = complex(0, -0.0)
        assert fe.evaluate(e, Binding(x=x, t=0j)) == -1j
        assert compiled(e)(x, 0j) == -1j

    @pytest.mark.parametrize("e, params", [
        (fe.add(X, fe.const(math.nan)), {}),
        (fe.add(X, T), {"t": math.inf}),
        (fe.add(X, fe.const(complex(0.0, -math.inf))), {}),
    ])
    def test_non_finite_value_matches_evaluate(self, e, params):
        # repr gives '(nan+0j)', '(inf+0j)', '-infj': nan and inf are not
        # Python literals, so emitted bare they would raise NameError.  The
        # array batch is not finite, so the kernel falls back to the scalar
        # values.
        xs = [1 + 0j, 2 - 1j]
        e = fe.substitute(e, **params)
        want = [repr(fe.evaluate(e, Binding(x=x, t=0j))) for x in xs]
        f = compiled(e)
        assert [repr(f(x, 0j)) for x in xs] == want
        assert [repr(complex(v)) for v in called_twice(fe.Kernel(e), np.array(xs), 0j)] == want


class TestArrayForm:
    """A kernel's array form: its rows, which apply the numpy operations
    of its compiled lines evaluated on arrays."""

    def test_matches_scalar_on_catalog_coefficients(self, prep):
        # The walk matrix (A, then dA/dt) of the leg's system of three
        # entries, A from the array form of the view of A and dA/dt from
        # its jets; PVdeg's is the companion system of its direct scalar
        # pair, with constant entries.
        rng = np.random.default_rng(3)
        for entry_id in ("PIII.y1", "PV.y_m1", "PVdeg.kitaev_sqrt"):
            systems = catalog.lookup(entry_id).decomposition.sp.system
            a = (*systems.a[0], *systems.a[1])
            scalar = compiled((*a, *(fe.differentiate(e, "t") for e in a)))
            box = prep(entry_id).entry.box_x
            xs = (rng.uniform(box.re_lo, box.re_hi, 50)
                  + 1j * rng.uniform(box.im_lo, box.im_hi, 50))
            ts = rng.uniform(0.5, 1.5, 50) + 0j
            view = systems.kernel.view(4)
            got = [*called_twice(fe.Kernel(view.expr), xs, ts),
                   *(a_t for _, _, a_t in fe._walked_jets(view, xs, ts))]
            want = np.array([scalar(x, t) for x, t in zip(xs.tolist(), ts.tolist())]).T
            assert len(got) == 8 and all(g.shape == (50,) for g in got)
            scale = np.maximum(1.0, np.abs(want).max(axis=1, keepdims=True))
            assert np.all(np.abs(np.array(got) - want) <= 1e-13 * scale)

    def test_broadcasts_and_keeps_shape(self):
        kernel = fe.Kernel((fe.const(2), fe.mul(X, T), T))
        xs = np.array([[1 + 1j, 2], [3, 4j]])
        two, xt, t = called_twice(kernel, xs, 0.5)
        assert two.shape == xt.shape == t.shape == (2, 2)
        assert np.all(two == 2) and np.all(t == 0.5)
        assert np.all(xt == xs * 0.5)
        assert called_twice(fe.Kernel(X), 1 + 2j, 0).shape == ()

    @pytest.mark.parametrize("e, bad, error", [
        (fe.div(fe.const(1), fe.div(fe.const(1), fe.sub(X, fe.const(1.5)))), 1.5,
         (fe.SingularEvaluationError, "division by zero")),
        (fe.log(fe.sub(X, fe.const(1.5))), 1.5, (fe.SingularEvaluationError, "log of zero")),
        (fe.exp(fe.mul(fe.const(1000), X)), 1.0, (OverflowError, "math range error")),
        (fe.fpow(fe.sub(X, fe.const(1.5)), Fraction(-1, 2)), 1.5,
         (fe.SingularEvaluationError, "0 raised to a non-positive fractional power")),
        (fe.ipow(fe.sub(X, fe.const(1.5)), -2), 1.5,
         (fe.SingularEvaluationError, "pole: 0 raised to a negative power")),
    ], ids=["pole-under-reciprocal", "log-zero", "exp-overflow", "zero-fpow",
            "zero-ipow"])
    def test_singular_point_raises_scalar_exception(self, e, bad, error):
        # numpy would return inf or nan here (and 1/(1/0) is a finite 0);
        # the batch goes to the one-point walk, which raises its own
        # exception, on the kernel's first call and on its second.
        assert _call_message(fe.evaluate, e, Binding(bad, 0j)) == error
        assert _call_message(called_twice, fe.Kernel(e), np.array([0.5, bad, 1.25]), 0j) \
            == error
        assert np.all(np.isfinite(called_twice(fe.Kernel(e), np.array([0.25, 0.5]), 0j)))

    def test_non_finite_batch_is_answered_by_the_scalar_form(self, monkeypatch):
        # A NaN point raises no floating-point error, but the batch's values
        # are not all finite: the walk answers that point alone, and the
        # others keep the batch's values, which are the walk's here.
        kernel = fe.Kernel(fe.add(fe.mul(X, fe.const(2)), T))
        xs = np.array([1.0, complex("nan"), 0.5j])
        walked, walk = [], fe.evaluate
        monkeypatch.setattr(fe, "evaluate", lambda e, b: walked.append(b.x) or walk(e, b))
        got = kernel(xs, 0.25)
        assert [_bits(v) for v in got.tolist()] == \
            [_bits(walk(kernel.expr, Binding(x, 0.25))) for x in xs.tolist()]
        assert len(walked) == 1 and cmath.isnan(walked[0])

    def test_zero_base_positive_fractional_power(self):
        kernel = fe.Kernel(fe.fpow(fe.sub(X, fe.const(1.5)), Fraction(1, 2)))
        got = called_twice(kernel, np.array([1.5, 2.5]), 0j)
        assert got[0] == 0 and got[1] == pytest.approx(1.0)

    def test_array_form_property(self):
        # The values are the walk's to rounding, or the walk's exception at
        # the first point it raises at.  Where the batch stands (no error,
        # every value finite), they are those of the compiled lines run on
        # the same arrays, bit for bit, signed zeros included.
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        points = st.sampled_from(_PROPERTY_POINTS)

        @hyp.settings(max_examples=400, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(_raw_trees(st), st.lists(points, min_size=1, max_size=5), points)
        def check(e, xs, t):
            stages = fe.compile_expr(fe.Kernel(e))
            scalar = [_call_message(_walk_one, e, x, t) for x in xs]
            got = _call_message(called_twice, fe.Kernel(e), np.array(xs), t)
            raised = [v for v in scalar if isinstance(v, tuple)]
            if raised:
                # The walk runs point by point, in order.
                assert got == raised[0]
                return
            assert got.shape == (len(xs),)
            _assert_walked(got.tolist(), scalar)
            pre_x, pre_t, post = (types.FunctionType(stage.__code__, _ARRAYS)
                                  for stage in stages)
            x, tt = np.array(xs, dtype=complex), np.asarray(t, dtype=complex)
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    batch = np.broadcast_to(post(x, tt, pre_x(x), pre_t(tt)), got.shape)
            except fe._SAMPLE_ERRORS:
                return
            if np.isfinite(batch).all():
                assert [_bits(v) for v in got.tolist()] == [_bits(v) for v in batch.tolist()]

        check()

    def test_fused_lines_property(self):
        # One neg, n, with one to three readers: adds with n as either
        # operand or as both, and readers of other kinds, an output among
        # them.  n runs inside its readers as a subtraction exactly when
        # each reader is an add that takes it (an add takes its second
        # operand's neg if it has one, else its first's).  Both renderings
        # of the fused lines run exactly those lines, and give the values
        # of the unfused lines bit for bit, signed zeros included.
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        trees = _raw_trees(st)
        points = st.sampled_from(_PROPERTY_POINTS)
        readers = {"a - n": lambda n, w: _raw("add", w, n), "n + a": lambda n, w: _raw("add", n, w),
                   "n + n": lambda n, w: _raw("add", n, n), "n * a": lambda n, w: _raw("mul", n, w),
                   "-n": lambda n, w: _raw("neg", n), "exp": lambda n, w: _raw("exp", n),
                   "out": lambda n, w: n}

        @st.composite
        def cases(draw):
            n = _raw("neg", draw(trees))
            kinds = draw(st.lists(st.sampled_from(sorted(readers)), min_size=1, max_size=3))
            return n, tuple(readers[k](n, draw(trees)) for k in kinds)

        @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @hyp.given(cases(), st.lists(points, min_size=1, max_size=4), points)
        def check(case, xs, t):
            n, roots = case
            kernel = fe.Kernel((*roots, n), len(roots))
            n_slot, kinds = kernel.roots[-1], {line[0]: line[1] for line in kernel.lines}
            taken = [b == n_slot != a or a == n_slot and kinds.get(b) != "neg"
                     for _, kind, a, b, *_ in kernel.lines if kind == "add" and n_slot in (a, b)]
            read = sum((a, b).count(n_slot) for _, _, a, b, *_ in kernel.lines) \
                + kernel.outputs.count(n_slot)
            assert (n_slot not in [line[0] for line in kernel.fused]) == \
                (len(taken) == read and all(taken))
            stages, text = _compile_text(kernel)
            rows = kernel._x_rows + kernel._xt_rows
            assert len(rows) == len(kernel.fused)
            assert _stage_ops(text) == _variable_lines(kernel)
            # Per point: the compiled lines, and the unfused lines on
            # Python complex.  A neg never raises, so both raise or neither.
            f = compiled(kernel)
            for x in xs:
                want = _call(_unfused_lines, kernel, x, t, "scalar")
                got = _call(f, x, t)
                assert isinstance(got, type) == isinstance(want, type)
                if not isinstance(want, type):
                    assert _nan_bits(got) == _nan_bits(want)
            # On arrays: the kernel's rows, the compiled lines and the
            # unfused lines, each on numpy's operations.
            xa, ta = np.array(xs, dtype=complex), np.complex128(t)
            pre_x, pre_t, post = (types.FunctionType(stage.__code__, _ARRAYS)
                                  for stage in stages)
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                outcomes = [_call(lambda: tuple(kernel.values(kernel.x_values(xa), ta))),
                            _call(lambda: post(xa, ta, pre_x(xa), pre_t(ta))),
                            _call(_unfused_lines, kernel, xa, ta, "array")]
            raised = [isinstance(v, type) for v in outcomes]
            assert raised in ([True] * 3, [False] * 3)
            if not raised[0]:
                got, batch, want = ([_nan_bits(np.broadcast_to(v, xa.shape)) for v in out]
                                    for out in outcomes)
                assert got == batch == want

        check()


# The globals of compiled lines run on numpy arrays.
_ARRAYS = {"_" + kind: row.array for kind, row in fe._KINDS.items()}


def _unfused_lines(kernel, x, t, form):
    """The outputs of ``kernel`` at (x, t) from its value-numbered lines,
    every neg its own line: each line applies its kind's ``form`` function
    (``scalar`` or ``array``) to its operands and exponent, in order."""
    vals = [None] * len(kernel.start)
    vals[0], vals[1] = x, t
    for slot, value in enumerate(kernel.start[2:], 2):
        vals[slot] = value if type(value) is complex else None
    for slot, kind, a, b, q, _ in kernel.lines:
        operands = [vals[a]] if b is None else [vals[a], vals[b]]
        if q is not None:
            operands.append(q if type(q) is int else float(q))
        vals[slot] = getattr(fe._KINDS[kind], form)(*operands)
    return tuple(vals[slot] for slot in kernel.outputs)


def _nan_bits(values):
    """The bits of complex values, a NaN part as ``nan`` whatever its sign
    and payload (which IEEE 754 leaves open: a - b and a + (-b) may differ
    there)."""
    return [tuple("nan" if math.isnan(p) else struct.pack("<d", p) for p in (z.real, z.imag))
            for z in np.ravel(np.asarray(values, dtype=complex)).tolist()]


class TestMismatchedGrids:
    """The three array runs catch ArithmeticError alone: point grids that
    do not broadcast are the caller's error, raised as numpy's ValueError,
    never read as a singular batch whose values are all NaN."""

    E = fe.add(fe.mul(X, T), fe.exp(X))

    def test_kernel(self):
        with pytest.raises(ValueError):
            fe.Kernel(self.E)(np.ones(3), np.ones(4))

    def test_sample(self):
        with pytest.raises(ValueError):
            fe._sample(fe.Kernel(self.E), np.ones(3, dtype=complex), np.ones(4, dtype=complex))

    def test_jets(self):
        # Grids of one shape, (3, 23), against which the jets' (2, 1)
        # gradient columns do not broadcast.
        grid = np.ones((3, 23), dtype=complex)
        with pytest.raises(ValueError):
            fe._jets(fe.Kernel(self.E), grid, grid)


def _one_line_dags():
    """(kind, DAG) pairs whose kernel runs one fused line of that kind:
    every two-operand kind on (x, t) and with a constant on either side,
    and every one-operand kind on x and on t, with positive and negative
    int and Fraction exponents.  ``sub``, the kind of no node, is the
    add of a neg, built raw so a negated constant stays a line."""
    c = fe.const(0.7 - 1.3j)
    sub = lambda a, b: _raw("add", a, _raw("neg", b))
    pairs = [(X, T), (c, X), (X, c), (c, T), (T, c)]
    dags = [(kind, build(a, b)) for a, b in pairs
            for kind, build in (("add", fe.add), ("sub", sub), ("mul", fe.mul), ("div", fe.div))]
    for u in (X, T):
        dags += [("neg", fe.neg(u)), ("exp", fe.exp(u)), ("log", fe.log(u)), ("sqrt", fe.sqrt(u))]
        dags += [("ipow", fe.ipow(u, q)) for q in (2, 3, -1, -3)]
        dags += [("fpow", fe.fpow(u, Fraction(q))) for q in ("1/2", "-2/3", "5/3")]
    return dags


class TestJetRules:
    """Each kind's chain rule has two copies in its ``_KINDS`` row:
    ``derive``, on expressions (``differentiate``), and ``jet``, on numpy
    arrays of values (``_jets``).  This test is what holds the two in
    agreement: the jets of a one-line kernel of each kind against the walk
    of ``differentiate``'s output, at random complex points."""

    @pytest.mark.parametrize("kind, e", _one_line_dags(), ids=lambda v: (
        v if isinstance(v, str) else fe.to_string(v)))
    def test_jet_rule_is_the_derive_rule(self, kind, e):
        kernel = fe.Kernel(e)
        assert [line[1] for line in kernel.fused] == [kind]
        rng = np.random.default_rng(7)
        xs, ts = (rng.uniform(0.3, 2, 16) * np.exp(1j * rng.uniform(-3, 3, 16))
                  for _ in range(2))
        (value, dx, dt), = fe._jets(kernel, xs, ts)
        points = [Binding(x, t) for x, t in zip(xs, ts)]
        for got, ref in ((value, e), (dx, fe.differentiate(e, "x")),
                         (dt, fe.differentiate(e, "t"))):
            want = np.array(walked(ref, points))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _integral_in_x(e, path, t=0j):
    f = compiled(e)
    return fe.integrate_callable(lambda x: f(x, t), path)


class TestQuadrature:
    def test_log_antiderivative(self):
        v = _integral_in_x(1 / X, [1.0, math.e])
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_shifted_pole(self):
        v = _integral_in_x(1 / (X - 1), [2.0, 5.0])
        assert v == pytest.approx(math.log(4), abs=1e-12)

    def test_linear(self):
        v = _integral_in_x(2 * X, [0.0, 3.0])
        assert v == pytest.approx(9.0, abs=1e-12)

    def test_path_reversal_cancels(self):
        e = fe.exp(X) / (X + 2)
        fwd = _integral_in_x(e, [0.0, 1.5 + 0.5j])
        bwd = _integral_in_x(e, [1.5 + 0.5j, 0.0])
        assert abs(fwd + bwd) <= 1e-11

    def test_path_independence_right_half_plane(self):
        e = 1 / X
        direct = _integral_in_x(e, [1.0, 2.0])
        detour = _integral_in_x(e, [1.0, 1.5 - 0.8j, 2.0])
        assert abs(direct - detour) <= 1e-11

    def test_t_variable_integration(self):
        f = compiled(X * T)
        v = fe.integrate_callable(lambda t: f(3.0, t), [0.0, 2.0])
        assert v == pytest.approx(6.0, abs=1e-11)


class TestChebyshevPanels:
    """The panel integrator against mpmath, its failure path and its cost."""

    @pytest.mark.parametrize("fn, a, b", [
        (lambda z: cmath.exp(z) / (z + 2), 0.0, 1.5 + 0.5j),
        (lambda z: cmath.cos(3 * z), -1.0, 2.0),
        (lambda z: z**7 - 2 * z, 0.5, 1.0 + 1.0j),
        (lambda z: cmath.sqrt(z) * cmath.log(z), 1.0, 4.0 + 2.0j),
        # a pole 0.05 off the path
        (lambda z: 1 / (z - 1.5 - 0.05j), 1.0, 2.0),
    ], ids=["exp-ratio", "cos", "polynomial", "sqrt-log", "near-pole"])
    def test_matches_mpmath(self, fn, a, b):
        mpmath = pytest.importorskip("mpmath")
        # mpmath runs along a detour that keeps every singularity on the
        # same side as the straight path does, so the integral is the same.
        mid = 0.5 * (a + b) - 0.1j
        with mpmath.workdps(30):
            oracle = complex(mpmath.quad(lambda z: fn(complex(z)), [a, mid, b]))
        got = fe.integrate_callable(fn, [a, b])
        assert type(got) is complex
        assert abs(got - oracle) <= 1e-13 * max(1.0, abs(oracle))

    def test_pole_on_path_raises(self):
        calls = []

        def fn(z):
            calls.append(z)
            return 1 / (z - 1.3)

        with pytest.raises(fe.QuadratureError):
            fe.integrate_callable(fn, [1.0, 2.0])
        assert len(calls) <= 100_000

    def test_pole_on_panel_point_raises_quadrature_error(self):
        # The first panel's midpoint is the pole, so the integrand itself
        # divides by zero; the integrator reports it as a quadrature failure.
        with pytest.raises(fe.QuadratureError) as info:
            fe.integrate_callable(lambda x: 1 / (x - 1.5), [1, 2])
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_unresolved_panel_at_depth_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fe, "_MAX_DEPTH", 2)
        with pytest.raises(fe.QuadratureError):
            fe.integrate_callable(lambda z: 1 / (z - 1.5 - 0.05j), [1.0, 2.0])

    @pytest.mark.parametrize("entry_id", ["PIII.y1", "PV.y_m1", "PVdeg.kitaev_sqrt"])
    def test_tau_point_work_is_linear(self, prep, entry_id, monkeypatch):
        # E and S at one point cost one pass of panels, not a quadrature of
        # E inside the integrand of S, and the one (h, f) kernel evaluates
        # each point of each panel taken once.  Counted: the points the
        # kernel is called on, and the panels the walk takes (the calls of
        # its first stage, one per panel).
        from fuchsreduce import reduction

        p = prep(entry_id)
        red = reduction.build_reduced(p.red.dec, p.red.basepoint_x)
        points = [0]
        kernel = red._hf_array

        def counted(z, t):
            points[0] += np.size(z)
            return kernel(z, t)

        panels = [0]
        stages = red._es_stages

        def first(z, prior):
            panels[0] += 1
            return stages[0](z, prior)

        red._hf_array = counted
        monkeypatch.setattr(type(red), "_es_stages",
                            property(lambda self: (first, *stages[1:])))
        x = complex(p.entry.box_x.re_lo, p.entry.box_x.im_hi)
        red.E(x)
        red.S(x)
        assert 0 < points[0] == panels[0] * len(fe._CHEB_NODES) <= 200


def _scalar_stage(fn):
    return lambda z, prior: [fn(w) for w in z.tolist()]


class TestMultiSegmentPanels:
    """The panel walker over segments from one start, one walk each: a
    walk that fails leaves the others as they are."""

    def test_later_stage_rejection_keeps_each_row_its_totals(self):
        # The second stage bisects [0, 3] long after the first would
        # accept its panels: a panel a later stage rejects must not
        # advance the earlier stage's total, or int_0^3 z is not 4.5.
        stages = (lambda z, prior: z, lambda z, prior: np.exp(6 * z) * np.cos(12 * z))
        got = fe._walk_panels(stages, 0.0, 3.0, 1e-12)
        assert got[0] == pytest.approx(4.5, rel=1e-15)
        assert got[1] == pytest.approx(fe._walk_panels(stages[1:], 0.0, 3.0, 1e-12)[0],
                                       rel=1e-15)

    def test_pole_on_one_panel_point_fails_only_that_segment(self):
        from fuchsreduce import reduction
        from fuchsreduce.scalarize import ScalarPair

        # h = 1/(x - 3/2): the first panel of [1, 2] has its midpoint on the
        # pole; the other segments never reach it.  The scalar pair only
        # gives the reduced equation coefficients to compile.
        h = fe.div(fe.const(1), fe.sub(X, fe.const(1.5)))
        zero = fe.const(0)
        dec = reduction.Decomposition(
            f=fe.const(1), h=h, R=fe.const(0), M=fe.const(0), exponent_A=None,
            box_x=catalog.DEFAULT_X_BOX, box_t=catalog.DEFAULT_T_BOX,
            sp=ScalarPair(p1=zero, q1=zero, p2=fe.add(fe.const(1), fe.mul(T, h)), q2=zero))
        red = reduction.build_reduced(dec, 1.0)
        ends = [2.0 + 0j, 1.3 + 0j, 1.2 + 0.5j]
        # The walk's first kernel call runs the tape, which raises at the
        # pole; the one-point walk answers with its own exception, which
        # the panel walk names the panel by, raised from it.
        panel = r"^integrand is singular on the panel \[\(1\+0j\), \(2\+0j\)\]$"
        with pytest.raises(fe.QuadratureError, match=panel) as info:
            fe._walk_panels((red._hf_rows, red._fE_rows), 1.0, ends[0], 1e-13)
        cause = info.value.__cause__
        assert (type(cause), str(cause)) == (fe.SingularEvaluationError, "division by zero")
        for x in ends[1:]:
            e, s = fe._walk_panels((red._hf_rows, red._fE_rows), 1.0, x, 1e-13)
            assert (red.E(x), red.S(x)) == (cmath.exp(e), s)
        with pytest.raises(fe.QuadratureError, match="^integrand is singular on the panel"):
            red.E(ends[0])
        assert set(red._cache_ES) == set(ends[1:])

    def test_depth_cap_applies_per_segment(self, monkeypatch):
        # Only [1, 2] passes 0.05 from the pole; [1, 1.2] resolves at once.
        stage = _scalar_stage(lambda z: 1 / (z - 1.5 - 0.05j))
        (want,) = fe._walk_panels((stage,), 1.0, 1.2, 1e-12)
        monkeypatch.setattr(fe, "_MAX_DEPTH", 2)
        with pytest.raises(fe.QuadratureError, match="did not converge"):
            fe._walk_panels((stage,), 1.0, 2.0, 1e-12)
        assert fe._walk_panels((stage,), 1.0, 1.2, 1e-12) == [want]

    def test_panel_budget_applies_per_segment(self, monkeypatch):
        ends = [1.0 + 0.1 * k for k in range(1, 9)]
        panels = [0] * len(ends)
        for k, b in enumerate(ends):
            counted = _scalar_stage(lambda z: cmath.cos(30 * z))

            def counting(z, prior, k=k, counted=counted):
                panels[k] += 1
                return counted(z, prior)

            fe._walk_panels((counting,), 1.0, b, 1e-13)
        # The budget is per walk: each segment fits it alone, all of them
        # together would not.
        budget = max(panels)
        assert sum(panels) > budget > min(panels)
        stage = _scalar_stage(lambda z: cmath.cos(30 * z))
        monkeypatch.setattr(fe, "_MAX_PANELS", budget)
        for b in ends:
            fe._walk_panels((stage,), 1.0, b, 1e-13)
        monkeypatch.setattr(fe, "_MAX_PANELS", budget - 1)
        for b, n in zip(ends, panels):
            if n > budget - 1:
                with pytest.raises(fe.QuadratureError, match="more than"):
                    fe._walk_panels((stage,), 1.0, b, 1e-13)
            else:
                fe._walk_panels((stage,), 1.0, b, 1e-13)

    def test_stage_exception_class_is_kept(self):
        # Not a division by zero: the stage's own error ends the walk.
        stage = _scalar_stage(lambda z: cmath.log(z - 1.5))
        with pytest.raises(ValueError):
            fe._walk_panels((stage,), 1.0, 2.0, 1e-12)
        fe._walk_panels((stage,), 1.0, 1.4, 1e-12)

    def test_zero_length_segment(self):
        # Without a system it gives zero integrals; with one it raises, as
        # on any segment the walker cannot solve.
        stage = _scalar_stage(lambda z: z)
        assert fe._walk_panels((stage,), 1.0, 1.0, 1e-12) == [0j]
        constant = (lambda z: (0,) * 8, (1.0, 2.0, 0.5, -1.0))
        with pytest.raises(fe.QuadratureError, match="nonzero length"):
            fe._walk_panels((), 1.0, 1.0, 1e-12, constant)
        got = fe._walk_panels((), 1.0, 1.5, 1e-12, constant)
        assert got(0.5).tolist() == [1.0, 2.0, 0.5, -1.0]


def walked(e, probes):
    """The values of ``e`` at the probes, one :func:`fe.evaluate` each."""
    return [fe.evaluate(e, p) for p in probes]


def joint_probes(box_x, box_t, n):
    """n joint (x, t) probes on the box diagonals, run in opposite directions."""
    return [Binding(x=x, t=t) for x, t in zip(box_x.diagonal(n), reversed(box_t.diagonal(n)))]


def _probe_arrays(probes):
    return tuple(np.array(v, dtype=complex) for v in zip(*[(p.x, p.t) for p in probes]))


class TestNumericallyZero:
    def test_exact_cancellation(self):
        e = X - X
        probes = [Binding(x=1.0 + 0.1j * k, t=0j) for k in range(8)]
        assert fe.numerically_zero(fe.Kernel(e)(*_probe_arrays(probes)))

    def test_entry_with_vanishing_h(self, prep):
        # h vanishes identically for the first flat reduction case.
        dec = prep("PII.y0").red.dec
        probes = [Binding(x=1.0 + 0.15 * k, t=0.5) for k in range(9)]
        assert fe.numerically_zero(walked(dec.h, probes))

    def test_nonzero_f_detected(self, prep):
        dec = prep("PII.y0").red.dec
        probes = [Binding(x=1.0 + 0.125 * k, t=0.5) for k in range(9)]
        assert not fe.numerically_zero(walked(dec.f, probes))

    @staticmethod
    def _per_probe(e, probes, tol=1e-10, reference=None):
        """The verdict, or (class, message) of the exception, of the
        reference walk over the probes one at a time; a NaN reads as not
        zero."""
        try:
            mx = np.max([abs(_tree_walk(e, p)) for p in probes])
            scale = 1.0
            if reference is not None:
                scale = np.max([abs(_tree_walk(reference, p)) for p in probes])
        except Exception as exc:  # noqa: BLE001 - compared by class and message
            return type(exc), str(exc)
        return bool(mx <= tol * (1.0 + scale))

    @staticmethod
    def _one_pass(e, probes, tol=1e-10, reference=None):
        """The verdict, or (class, message) of the exception, of
        ``numerically_zero`` on the values of ``e`` and ``reference`` from
        one call of their kernel."""
        roots = (e,) if reference is None else (e, reference)
        try:
            vals = fe.Kernel(roots)(*_probe_arrays(probes))
            return fe.numerically_zero(vals[0], tol, None if reference is None else vals[1])
        except Exception as exc:  # noqa: BLE001 - compared by class and message
            return type(exc), str(exc)

    def test_shared_subtrees_and_a_singular_probe(self):
        s = fe.div(fe.const(1), X - 1.5)
        e = s * s - fe.log(s * T) + fe.sqrt(s)
        reference = s * T + fe.ipow(T - 0.5, -2)
        regular = [Binding(x=1.0 + 0.2j * k, t=0.9 - 0.1j * k) for k in range(6)]
        for probes in (regular, regular + [Binding(x=1.5, t=0.9)],
                       regular + [Binding(x=1.2, t=0.5)]):
            for ref in (None, reference):
                for tol in (1e-10, 1e3):
                    assert self._one_pass(e, probes, tol, ref) == \
                        self._per_probe(e, probes, tol, ref)
        assert self._one_pass(e, regular + [Binding(x=1.5, t=0.9)]) == \
            (fe.SingularEvaluationError, "division by zero")
        assert self._one_pass(e, regular, reference=reference, tol=1e3) is True

    def test_same_as_per_probe_walk_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        trees = _raw_trees(st)

        @st.composite
        def dags(draw):
            # e and the reference share subtrees by identity, and e reuses
            # one subtree of its own.
            a, c = draw(trees), draw(trees)
            e = draw(st.sampled_from([_raw("add", a, _raw("mul", a, c)),
                                      _raw("div", _raw("neg", a), a), c]))
            reference = draw(st.sampled_from([None, a, _raw("sqrt", c)]))
            return e, reference

        point = st.sampled_from(_PROPERTY_POINTS)
        probe = st.builds(Binding, point, point)

        @hyp.settings(max_examples=400, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(dags(), st.lists(probe, min_size=1, max_size=4),
                   st.sampled_from([1e-10, 1.0, 1e6]))
        def check(dag, probes, tol):
            e, reference = dag
            assert self._one_pass(e, probes, tol, reference) == \
                self._per_probe(e, probes, tol, reference)

        check()

    def test_one_pass_visits_each_node_once(self, monkeypatch):
        # 60 doublings of x: a DAG of 120 interior nodes whose tree has 2^60
        # leaves.  Only evaluators that take each node once can finish: the
        # tape of the array call, and evaluate, whose walk computes a node
        # once and meets it again only as a memo hit.
        e = X
        for _ in range(60):
            e = fe.mul(fe.add(e, e), fe.const(0.5))
        probes = [Binding(x=1.0 + 0.25j * k, t=0j) for k in range(8)]
        e_v, diff_v = fe.Kernel((e, fe.sub(e, X)))(*_probe_arrays(probes))
        assert fe.numerically_zero(diff_v, reference=e_v)
        assert not fe.numerically_zero(e_v)
        walk, visits = fe._evaluate, []

        def recorded(node, b, memo):
            visits.append(id(node))
            return walk(node, b, memo)

        monkeypatch.setattr(fe, "_evaluate", recorded)
        assert fe.evaluate(e, Binding(x=1.5)) == 1.5
        assert max(collections.Counter(visits).values()) == 2

    def test_several_points_raise_the_first_points_exception(self):
        # At x = 2 the log is regular and the division fails; at x = 1 the
        # log fails first.  The kernel's batch gives neither point a finite
        # value, and the points are walked in order: the first point's
        # error is raised.
        e = fe.log(X - 1) + 1 / (X - 2)
        xs, ts = np.array([2.0, 1.0], dtype=complex), np.zeros(2, dtype=complex)
        first = (fe.SingularEvaluationError, "division by zero")
        assert _call_message(_tree_walk, e, Binding(x=2.0)) == first
        assert _call_message(fe.Kernel(e), xs, ts) == first
        probes = [Binding(x=x, t=0j) for x in xs]
        assert self._one_pass(e, probes) == first
        assert self._one_pass(fe.const(1), probes, reference=e) == first
        assert _call_message(fe.Kernel(e), xs[::-1], ts) == \
            (fe.SingularEvaluationError, "log of zero")


def random_rational_expr(rng, depth=0):
    """Random polynomial/rational tree for the derivative-vs-FD property."""
    leaf_choices = ("x", "t", "const")
    if depth >= 4 or rng.random() < 0.3:
        kind = rng.choice(leaf_choices)
        if kind == "x":
            return X
        if kind == "t":
            return T
        return fe.const(round(rng.uniform(-3, 3), 3))
    op = rng.choice(("add", "sub", "mul", "div", "ipow"))
    a = random_rational_expr(rng, depth + 1)
    if op == "ipow":
        return fe.ipow(a, rng.randint(1, 3))
    b = random_rational_expr(rng, depth + 1)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return a / b


def _variables(e):
    """The variables, ``'x'`` and ``'t'``, that occur in ``e``."""
    out, stack = set(), [e]
    while stack:
        n = stack.pop()
        if n.kind == "var":
            out.add(n.value)
        stack.extend(n.children)
    return out


class TestDerivativeProperty:
    def test_random_rational_against_fd(self):
        rng = random.Random(20240811)
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 4000:
            attempts += 1
            e = random_rational_expr(rng)
            b = Binding(x=rng.uniform(0.6, 2.0) + 0.2j * rng.random(),
                        t=rng.uniform(0.6, 2.0) - 0.1j * rng.random())
            var = rng.choice(("x", "t"))
            try:
                exact = fe.evaluate(fe.differentiate(e, var), b)
                approx = fd_derivative(e, var, b)
            except fe.SingularEvaluationError:
                continue
            scale = max(abs(exact), abs(approx))
            if scale > 1e4 or not (abs(exact) < float("inf")):
                continue  # steep pole nearby; FD oracle unreliable there
            assert abs(exact - approx) <= 1e-6 * (1 + scale)
            checked += 1
        assert checked == 100


def _cauchy_derivative(e, var, b, radius, n):
    """d e / d var at ``b`` by the Cauchy integral on the circle of
    ``radius`` about it, with the n-point trapezoid rule:
    (1/r) mean_k e(z0 + r w_k) / w_k, w_k = exp(2 pi i k / n).  Its error
    falls geometrically in n while e is holomorphic on a larger disk."""
    total = 0j
    for k in range(n):
        w = cmath.exp(2j * cmath.pi * k / n)
        moved = {"x": b.x, "t": b.t, var: getattr(b, var) + radius * w}
        total += fe.evaluate(e, Binding(**moved)) / w
    return total / (n * radius)


class TestDifferentiateCauchy:
    def test_differentiate_against_cauchy_integral(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        points = st.sampled_from([0.7 + 0.2j, -1.3 - 0.4j, 2.5 + 0j, 1.1 - 0.9j])
        radius = 0.05
        checked = [0]

        trees = _raw_trees(st, extra_leaves=[fe.Expr("const", 0.5 - 1.25j), X, T])

        @st.composite
        def cases(draw):
            # A tree and one of the variables it contains.
            e = draw(trees.filter(lambda e: _variables(e)))
            return e, draw(st.sampled_from(sorted(_variables(e))))

        @hyp.settings(max_examples=300, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(cases(), points, points)
        def check(case, x, t):
            e, var = case
            b = Binding(x=x, t=t)
            try:
                exact = fe.evaluate(fe.differentiate(e, var), b)
                coarse, fine = (_cauchy_derivative(e, var, b, radius, n) for n in (32, 64))
            except fe.SingularEvaluationError:
                return
            scale = abs(fe.evaluate(e, b)) / radius + abs(exact)
            if not (cmath.isfinite(exact) and cmath.isfinite(fine) and scale < 1e12):
                return
            # The two rules agree only when no pole or branch cut is near
            # the circle; elsewhere the trapezoid rule is no oracle.
            if abs(fine - coarse) > 1e-12 * scale:
                return
            assert abs(exact - fine) <= 1e-11 * scale
            checked[0] += exact != 0

        check()
        # Derivatives that are not identically zero, checked.
        assert checked[0] >= 150


def random_any_expr(rng, depth=0):
    if depth >= 4 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return X
        if kind == 1:
            return T
        re = round(rng.uniform(-3, 3), 2)
        im = rng.choice((0.0, round(rng.uniform(-2, 2), 2)))
        return fe.const(complex(re, im))
    op = rng.randrange(9)
    a = random_any_expr(rng, depth + 1)
    if op == 0:
        return fe.neg(a)
    if op == 1:
        return fe.exp(a)
    if op == 2:
        return fe.log(a)
    if op == 3:
        return fe.sqrt(a)
    if op == 4:
        return fe.ipow(a, rng.choice((-3, -2, 2, 3, 5)))
    if op == 5:
        return fe.fpow(a, Fraction(rng.choice((1, 2, 4, -1, -3)), rng.choice((2, 3, 5))))
    b = random_any_expr(rng, depth + 1)
    return (a + b, a - b, a * b, a / b)[op - 6]


_BINARY = {ast.Add: fe.add, ast.Sub: fe.sub, ast.Mult: fe.mul, ast.Div: fe.div}
_FUNCTIONS = {"exp": fe.exp, "log": fe.log, "sqrt": fe.sqrt}


def read_infix(text):
    """The tree ``to_string`` printed as ``text``, rebuilt through the
    constructors: the printed grammar is Python's once ``^`` is ``**``."""
    def build(node):
        if isinstance(node, ast.Constant):
            return fe.const(node.value)
        if isinstance(node, ast.Name):
            return {"x": X, "t": T, "i": fe.const(1j)}[node.id]
        if isinstance(node, ast.UnaryOp):
            assert isinstance(node.op, ast.USub)
            return fe.neg(build(node.operand))
        if isinstance(node, ast.Call):
            (arg,) = node.args
            return _FUNCTIONS[node.func.id](build(arg))
        if isinstance(node.op, ast.Pow):
            exponent = Fraction(ast.unparse(node.right).replace(" ", ""))
            return fe.pow_any(build(node.left), exponent)
        return _BINARY[type(node.op)](build(node.left), build(node.right))

    return build(ast.parse(text.replace("^", "**"), mode="eval").body)


class TestGrammar:
    def test_round_trip_examples(self):
        cases = [
            X**2 + T,
            -(X**4) - T * X**2,
            fe.fpow(X, Fraction(4, 3)) * T + fe.exp(fe.log(X) / 2),
            fe.sqrt(X * (X - 1)),
            fe.const(2j) * X - 3,
            (X + 1) / (X * (X - 1)),
            fe.ipow(X - 1, -2) * fe.fpow(X, Fraction(3, 4)),
        ]
        for e in cases:
            assert read_infix(fe.to_string(e)) == e

    def test_round_trip_random(self):
        rng = random.Random(7)
        done = 0
        while done < 150:
            e = random_any_expr(rng)
            s = fe.to_string(e)
            assert read_infix(s) == e, s
            done += 1

    def test_a_non_finite_constant_prints(self):
        inf, nan = float("inf"), float("nan")
        assert fe.to_string(fe.const(inf)) == "inf"
        assert fe.to_string(fe.const(nan)) == "nan"
        assert fe.to_string(fe.const(complex(0, -inf))) == "(-inf*i)"
        assert fe.to_string(fe.const(complex(1e300, inf)) * X) == "(1e+300 + inf*i) * x"
        assert fe.to_string(X + fe.const(-inf)) == "x - inf"

    def test_repr_is_the_infix_text_of_a_small_tree(self):
        e = (X + 1) / (X * (X - 1))
        assert repr(e) == f"Expr({fe.to_string(e)!r})"

    def test_repr_of_a_deep_dag_returns_promptly(self):
        # The 60-doubling DAG of TestNumericallyZero: 181 distinct nodes
        # (120 interior), 2^62 - 3 as a tree.  A failing test reprs its
        # arguments, so the repr must not render the tree.
        e = X
        for _ in range(60):
            e = fe.mul(fe.add(e, e), fe.const(0.5))
        start = time.perf_counter()
        text = repr(e)
        assert time.perf_counter() - start < 1.0
        assert text == f"<Expr mul: {2 ** 62 - 3} tree nodes, 181 distinct>"

    def test_repr_of_a_dag_deeper_than_the_recursion_limit(self):
        e = X
        for _ in range(1200):
            e = e + X
        assert repr(e) == "<Expr add: 2401 tree nodes, 1201 distinct>"


class TestSubstitute:
    def test_substitute_t(self):
        e = X * T + T**2
        s = fe.substitute(e, t=2.0)
        assert fe.evaluate(s, Binding(x=1.5)) == pytest.approx(7.0)
        assert "t" not in _variables(s)


class TestPath:
    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two waypoints"):
            fe.integrate_callable(lambda z: z, [1.0])
