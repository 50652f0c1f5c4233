import cmath
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from fuchsreduce import catalog, expr as fe
from fuchsreduce.expr import Binding, Path, T, X


def fd_derivative(e, var, b, step=1e-6):
    """Central finite difference, the independent oracle for differentiate."""
    if var == "x":
        up = Binding(x=b.x + step, t=b.t, params=b.params)
        dn = Binding(x=b.x - step, t=b.t, params=b.params)
    else:
        up = Binding(x=b.x, t=b.t + step, params=b.params)
        dn = Binding(x=b.x, t=b.t - step, params=b.params)
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
            fe.evaluate(X + fe.param("alpha"), Binding(x=1.0))
        with pytest.raises(fe.UnboundSymbolError):
            fe.evaluate(X + T, Binding(x=1.0))

    def test_division_by_zero(self):
        with pytest.raises(fe.SingularEvaluationError):
            fe.evaluate(1 / X, Binding(x=0.0))

    def test_log_of_zero(self):
        with pytest.raises(fe.SingularEvaluationError):
            fe.evaluate(fe.log(X), Binding(x=0.0))

    def test_pure_function_bit_identical(self):
        e = fe.exp(X * T) / (X - 1) + fe.sqrt(T) * fe.fpow(X, Fraction(5, 2))
        b = Binding(x=1.7 + 0.3j, t=0.9 - 0.1j)
        v1 = fe.evaluate(e, b)
        v2 = fe.evaluate(e, b)
        assert v1 == v2

    def test_compile_matches_evaluate(self):
        e = fe.exp(X * T) / (X - 1) + fe.sqrt(T) * fe.fpow(X, Fraction(5, 2))
        f = fe.compile_expr(e)
        b = Binding(x=1.7 + 0.3j, t=0.9 - 0.1j)
        assert f(b.x, b.t) == pytest.approx(fe.evaluate(e, b), rel=1e-14)


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


class TestCompileSharing:
    def test_structurally_equal_subtrees_emit_once(self):
        e = fe.add(fe.mul(X, T), fe.mul(X, T))
        f = fe.compile_expr(e)
        # x, t, one product and one sum
        assert f.__code__.co_nlocals == 4
        assert f(1.5 + 0.5j, 2.0 - 1j) == 2 * ((1.5 + 0.5j) * (2.0 - 1j))

    def test_tuple_returns_values_in_order(self):
        parts = (fe.mul(X, T), X, fe.const(2), fe.add(fe.mul(X, T), T))
        f = fe.compile_expr(parts)
        x, t = 0.3 - 1.1j, 1.7 + 0.2j
        assert f(x, t) == (x * t, x, 2 + 0j, x * t + t)
        assert f.__code__.co_nlocals == 4

    def test_signed_zero_constants_are_not_merged(self):
        # Expr equality holds for 0j and complex(0, -0.0), but they emit
        # different values, 0j and -0j, so they must not share a variable.
        a = fe.sqrt(_raw("add", X, fe.const(0j)))
        b = fe.sqrt(_raw("add", X, fe.const(complex(0.0, -0.0))))
        assert a == b
        fa, fb, fab = fe.compile_expr(a), fe.compile_expr(b), fe.compile_expr((a, b))
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
            single = [_call(fe.compile_expr(e), x, t) for e in pair]
            fused = _call(fe.compile_expr(pair), x, t)
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


def _reprs(value):
    """The ``repr`` of each value of a scalar or tuple result."""
    return [repr(complex(v)) for v in (value if isinstance(value, tuple) else (value,))]


def _array_reprs(value):
    """The ``repr`` of every element of an array result, part by part."""
    return [_reprs(tuple(v.ravel())) for v in (value if isinstance(value, tuple) else (value,))]


A = fe.param("a")
_STAGED_PARAMS = {"a": 0.5 - 1.25j}


def _check_staged(e, params, xs, ts):
    """``compile_staged`` against ``compile_expr`` on every (x, t) of
    ``xs`` x ``ts``: the same values by ``repr`` where neither raises, the
    same raising points, values within rounding of ``evaluate``; and the
    array forms of the two agree by ``repr`` on the whole lattice."""
    fused = fe.compile_expr(e, params)
    pre, post = fe.compile_staged(e, params)
    for x in xs:
        for t in ts:
            want = _call(fused, x, t)
            got = _call(lambda: post(x, t, pre(x)))
            assert isinstance(got, type) == isinstance(want, type), (x, t)
            if isinstance(want, type):
                continue
            assert _reprs(got) == _reprs(want)
            parts = e if isinstance(e, tuple) else (e,)
            for part, value in zip(parts, got if isinstance(e, tuple) else (got,)):
                try:
                    ref = fe.evaluate(part, Binding(x=x, t=t, params=params))
                except Exception:  # noqa: BLE001 - no reference value here
                    continue
                if cmath.isfinite(ref):
                    assert abs(value - ref) <= 1e-12 * abs(ref)
    grid = np.array(xs)[:, None], np.array(ts)[None, :]
    want = _call(fe.array_form(fused), *grid)
    got = _call(fe.array_form((pre, post)), *grid)
    if isinstance(want, type) or isinstance(got, type):
        # Both fall back to their scalar functions point by point, which
        # raise at the same first point (perhaps at another line).
        assert isinstance(want, type) and isinstance(got, type)
        return
    assert _array_reprs(got) == _array_reprs(want)


class TestCompileStaged:
    """``compile_staged``: the lines of ``compile_expr`` in an x-stage and
    an (x, t) stage."""

    @pytest.mark.parametrize("e, n_pre_lines, n_carried", [
        # x-only result: post has no lines and returns the carried value.
        (fe.add(fe.mul(fe.exp(X), X), A), 3, 1),
        # t-only result: the x-stage is empty.
        (fe.add(fe.mul(T, T), A), 0, 0),
        # constant result: its lines run in the x-stage.
        (fe.mul(_raw("exp", fe.const(2)), A), 2, 1),
        # x and t read directly by post, returned bare too.
        ((fe.mul(X, T), X, T, fe.const(2)), 0, 0),
        # shared x-only subtree read by two t-lines and returned.
        ((fe.mul(fe.exp(X), T), fe.add(fe.exp(X), T), fe.exp(X)), 1, 1),
        # an x-only line read only by another x-only line is not carried.
        (fe.mul(fe.sqrt(fe.log(X)), T), 2, 1),
    ], ids=["x-only", "t-only", "constant", "bare-x-t", "shared", "internal"])
    def test_stage_shapes(self, e, n_pre_lines, n_carried):
        pre, post = fe.compile_staged(e, _STAGED_PARAMS)
        assert pre.__code__.co_nlocals - 1 == n_pre_lines
        assert len(pre(0.7 + 0.2j)) == n_carried
        # Every line runs in one stage or the other, once.
        n_lines = fe.compile_expr(e, _STAGED_PARAMS).__code__.co_nlocals - 2
        assert n_pre_lines + post.__code__.co_nlocals - 3 - n_carried == n_lines
        _check_staged(e, _STAGED_PARAMS, _PROPERTY_POINTS, _PROPERTY_POINTS)

    def test_staged_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        trees = _raw_trees(st, extra_leaves=[A])

        @st.composite
        def dags(draw):
            # Later parts reuse earlier ones by identity and by structure,
            # and bare x, t or a parameter may be returned.
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
            _check_staged(e, {"a": a}, xs, ts)

        check()


class TestCompileConstants:
    def test_negative_imaginary_parameter_power(self):
        # repr(complex(0, -2)) is '-2j', and '-2j ** 2' is -(2j ** 2) = 4.
        a = complex(0.0, -2.0)
        e = fe.ipow(fe.param("a"), 2)
        want = fe.evaluate(e, Binding(x=0j, t=0j, params={"a": a}))
        f = fe.compile_expr(e, {"a": a})
        assert want == -4
        assert f(0j, 0j) == want
        assert list(fe.array_form(f)(np.array([0j, 1j]), 0j)) == [want, want]

    @pytest.mark.parametrize("value", [complex(0.0, -0.5), complex(-0.0, -0.5), 3j,
                                       -1 + 0j])
    def test_constant_power_matches_evaluate(self, value):
        # ipow folds constant bases, so build the node raw.
        e = fe.add(X, _raw("ipow", fe.const(value), value=2))
        want = fe.evaluate(e, Binding(x=1 + 1j, t=0j))
        f = fe.compile_expr(e)
        assert f(1 + 1j, 0j) == want
        assert fe.array_form(f)(np.array([1 + 1j]), 0j)[0] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("e, params", [
        (fe.add(X, fe.const(math.nan)), {}),
        (fe.add(X, fe.param("a")), {"a": math.inf}),
        (fe.add(X, fe.const(complex(0.0, -math.inf))), {}),
    ])
    def test_non_finite_value_matches_evaluate(self, e, params):
        # repr gives '(nan+0j)', '(inf+0j)', '-infj': nan and inf are not
        # Python literals, so emitted bare they would raise NameError.
        xs = [1 + 0j, 2 - 1j]
        want = [repr(fe.evaluate(e, Binding(x=x, t=0j, params=params))) for x in xs]
        f = fe.compile_expr(e, params)
        assert [repr(f(x, 0j)) for x in xs] == want
        assert [repr(complex(v)) for v in fe.array_form(f)(np.array(xs), 0j)] == want


class TestArrayForm:
    """``array_form``: the same compiled body evaluated on arrays."""

    def test_matches_scalar_on_catalog_coefficients(self, prep):
        rng = np.random.default_rng(3)
        for entry_id in ("PIII.y1", "PV.y_m1", "PVdeg.kitaev_sqrt"):
            red = prep(entry_id).red
            box = prep(entry_id).box_x
            xs = (rng.uniform(box.re_lo, box.re_hi, 50)
                  + 1j * rng.uniform(box.im_lo, box.im_hi, 50))
            ts = rng.uniform(0.5, 1.5, 50) + 0j
            got = red._coeff_parts_array(xs, ts)
            want = np.array([red._post(x, t, red._pre(x))
                             for x, t in zip(xs.tolist(), ts.tolist())]).T
            assert all(g.shape == (50,) for g in got)
            scale = np.maximum(1.0, np.abs(want).max(axis=1, keepdims=True))
            assert np.all(np.abs(np.array(got) - want) <= 1e-13 * scale)

    def test_broadcasts_and_keeps_shape(self):
        f = fe.compile_expr((fe.const(2), fe.mul(X, T), T))
        xs = np.array([[1 + 1j, 2], [3, 4j]])
        two, xt, t = fe.array_form(f)(xs, 0.5)
        assert two.shape == xt.shape == t.shape == (2, 2)
        assert np.all(two == 2) and np.all(t == 0.5)
        assert np.all(xt == xs * 0.5)
        assert fe.array_form(fe.compile_expr(X))(1 + 2j, 0).shape == ()

    @pytest.mark.parametrize("e, bad, error", [
        (fe.div(fe.const(1), fe.div(fe.const(1), fe.sub(X, fe.const(1.5)))), 1.5,
         ZeroDivisionError),
        (fe.log(fe.sub(X, fe.const(1.5))), 1.5, ValueError),
        (fe.exp(fe.mul(fe.const(1000), X)), 1.0, OverflowError),
        (fe.fpow(fe.sub(X, fe.const(1.5)), Fraction(-1, 2)), 1.5,
         fe.SingularEvaluationError),
        (fe.ipow(fe.sub(X, fe.const(1.5)), -2), 1.5, ZeroDivisionError),
    ], ids=["pole-under-reciprocal", "log-zero", "exp-overflow", "zero-fpow",
            "zero-ipow"])
    def test_singular_point_raises_scalar_exception(self, e, bad, error):
        # numpy would return inf or nan here (and 1/(1/0) is a finite 0);
        # the batch goes back to the scalar form, which raises.
        f = fe.compile_expr(e)
        array = fe.array_form(f)
        with pytest.raises(error):
            f(bad, 0j)
        with pytest.raises(error):
            array(np.array([0.5, bad, 1.25]), 0j)
        assert np.all(np.isfinite(array(np.array([0.25, 0.5]), 0j)))

    def test_zero_base_positive_fractional_power(self):
        f = fe.compile_expr(fe.fpow(fe.sub(X, fe.const(1.5)), Fraction(1, 2)))
        got = fe.array_form(f)(np.array([1.5, 2.5]), 0j)
        assert got[0] == 0 and got[1] == pytest.approx(1.0)

    def test_array_form_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        points = st.sampled_from(_PROPERTY_POINTS)

        @hyp.settings(max_examples=400, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(_raw_trees(st), st.lists(points, min_size=1, max_size=5), points)
        def check(e, xs, t):
            f = fe.compile_expr(e)
            scalar = [_call(f, x, t) for x in xs]
            got = _call(fe.array_form(f), np.array(xs), t)
            raised = [v for v in scalar if isinstance(v, type)]
            if raised:
                # The scalar form is run point by point, in order.
                assert got is raised[0]
                return
            assert got.shape == (len(xs),)
            for g, want in zip(got.tolist(), scalar):
                if cmath.isfinite(want):
                    assert abs(g - want) <= 1e-9 * max(1.0, abs(want))
                else:
                    assert _bits(g) == _bits(want)

        check()


def _integral_in_x(e, path, t=0j):
    f = fe.compile_expr(e)
    return fe.integrate_callable(lambda x: f(x, t), path)


class TestQuadrature:
    def test_log_antiderivative(self):
        v = _integral_in_x(1 / X, Path([1.0, math.e]))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_shifted_pole(self):
        v = _integral_in_x(1 / (X - 1), Path([2.0, 5.0]))
        assert v == pytest.approx(math.log(4), abs=1e-12)

    def test_linear(self):
        v = _integral_in_x(2 * X, Path([0.0, 3.0]))
        assert v == pytest.approx(9.0, abs=1e-12)

    def test_path_reversal_cancels(self):
        e = fe.exp(X) / (X + 2)
        fwd = _integral_in_x(e, Path([0.0, 1.5 + 0.5j]))
        bwd = _integral_in_x(e, Path([1.5 + 0.5j, 0.0]))
        assert abs(fwd + bwd) <= 1e-11

    def test_path_independence_right_half_plane(self):
        e = 1 / X
        direct = _integral_in_x(e, Path([1.0, 2.0]))
        detour = _integral_in_x(e, Path([1.0, 1.5 - 0.8j, 2.0]))
        assert abs(direct - detour) <= 1e-11

    def test_t_variable_integration(self):
        f = fe.compile_expr(X * T)
        v = fe.integrate_callable(lambda t: f(3.0, t), Path([0.0, 2.0]))
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
        got = fe.integrate_callable(fn, Path([a, b]))
        assert type(got) is complex
        assert abs(got - oracle) <= 1e-13 * max(1.0, abs(oracle))

    def test_pole_on_path_raises(self):
        calls = []

        def fn(z):
            calls.append(z)
            return 1 / (z - 1.3)

        with pytest.raises(fe.QuadratureError):
            fe.integrate_callable(fn, Path([1.0, 2.0]))
        assert len(calls) <= 100_000

    def test_pole_on_panel_point_raises_quadrature_error(self):
        # The first panel's midpoint is the pole, so the integrand itself
        # divides by zero; the integrator reports it as a quadrature failure.
        with pytest.raises(fe.QuadratureError) as info:
            fe.integrate_callable(lambda x: 1 / (x - 1.5), Path([1, 2]))
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_unresolved_panel_at_depth_cap_raises(self):
        with pytest.raises(fe.QuadratureError):
            fe.integrate_callable(lambda z: 1 / (z - 1.5 - 0.05j), Path([1.0, 2.0]),
                                  max_depth=2)

    @pytest.mark.parametrize("entry_id", ["PIII.y1", "PV.y_m1", "PVdeg.kitaev_sqrt"])
    def test_tau_point_work_is_linear(self, prep, entry_id):
        # E and S at one point cost one pass of panels, not a quadrature of
        # E inside the integrand of S.  Counted: the points of the panel
        # rows that h and f are sampled on.
        from fuchsreduce import reduction

        p = prep(entry_id)
        red = reduction.build_reduced(p.dec, p.red.basepoint_x)
        calls = [0]

        def counted(fn):
            def wrapper(z, t):
                calls[0] += np.size(z)
                return fn(z, t)
            return wrapper

        red._h_array, red._f_array = counted(red._h_array), counted(red._f_array)
        x = complex(p.box_x.re_lo, p.box_x.im_hi)
        red.E(x)
        red.S(x)
        assert 0 < calls[0] <= 400


def _scalar_stage(fn):
    return lambda z, prior: [[fn(w) for w in row] for row in z.tolist()]


class TestMultiSegmentPanels:
    """The panel walker over many end points sharing one start."""

    @pytest.mark.parametrize("entry_id", catalog.list_entries()
                             + catalog.list_negative_entries())
    def test_agrees_with_one_call_per_segment(self, prep, entry_id):
        from fuchsreduce import reduction

        p = prep(entry_id)
        red = reduction.build_reduced(p.dec, p.red.basepoint_x)
        stages, x0 = (red._h_rows, red._fE_rows), red.basepoint_x
        rng = np.random.default_rng(64)
        xs = [x for (x,) in catalog.random_points(rng, (p.box_x,), 64)]
        batched = fe._walk_panels(stages, x0, xs, red.quad_tol)
        for x, got in zip(xs, batched):
            want = fe._walk_all(stages, x0, (x,), red.quad_tol)[0]
            assert len(got) == 2
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-15 * max(1.0, abs(w))

    def test_pole_on_one_panel_point_fails_only_that_segment(self):
        from fuchsreduce import reduction
        from fuchsreduce.scalarize import ScalarPair

        # h = 1/(x - 3/2): the first panel of [1, 2] has its midpoint on the
        # pole; the other segments never reach it.  The scalar pair only
        # gives the reduced equation coefficients to compile.
        h = fe.div(fe.const(1), fe.sub(X, fe.const(1.5)))
        zero = fe.const(0)
        dec = reduction.Decomposition(
            f=fe.const(1), h=h, R=fe.const(0), M=fe.const(0), g_of_t=None,
            P1=None, P2=None, P3=None, exponent_A=None, f_zero=False,
            h_zero=False, M_zero=True, M_constant=True, component="first",
            sp=ScalarPair(p1=zero, q1=zero, p2=fe.add(fe.const(1), fe.mul(T, h)), q2=zero))
        red = reduction.build_reduced(dec, 1.0)
        ends = [2.0 + 0j, 1.3 + 0j, 1.2 + 0.5j]
        got = fe._walk_panels((red._h_rows, red._fE_rows), 1.0, ends, 1e-13)
        assert isinstance(got[0], fe.QuadratureError)
        assert isinstance(got[0].__cause__, ZeroDivisionError)
        red.prefetch(ends)
        assert set(red._cache_ES) == set(ends[1:])
        single = reduction.build_reduced(dec, 1.0)
        for x in ends[1:]:
            assert red.E(x) == pytest.approx(single.E(x), rel=1e-15)
            assert red.S(x) == pytest.approx(single.S(x), rel=1e-15)
        with pytest.raises(fe.QuadratureError) as info:
            red.E(2.0)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_depth_cap_applies_per_segment(self):
        # Only [1, 2] passes 0.05 from the pole; [1, 1.2] resolves at once.
        stage = _scalar_stage(lambda z: 1 / (z - 1.5 - 0.05j))
        got = fe._walk_panels((stage,), 1.0, [2.0, 1.2], 1e-12, max_depth=2)
        assert isinstance(got[0], fe.QuadratureError)
        assert "did not converge" in str(got[0])
        want = fe._walk_all((stage,), 1.0, (1.2,), 1e-12)[0][0]
        assert got[1][0] == pytest.approx(want, rel=1e-15)

    def test_panel_budget_applies_per_segment(self, monkeypatch):
        stage = _scalar_stage(lambda z: cmath.exp(8 * z))
        ends = [1.0 + 0.1 * k for k in range(1, 9)]
        panels = [0] * len(ends)
        for k, b in enumerate(ends):
            counted = _scalar_stage(lambda z: cmath.exp(8 * z))

            def counting(z, prior, k=k, counted=counted):
                panels[k] += len(z)
                return counted(z, prior)

            fe._walk_panels((counting,), 1.0, [b], 1e-13)
        # Each segment fits the budget alone, all of them together do not.
        budget = max(panels)
        assert sum(panels) > budget
        monkeypatch.setattr(fe, "_MAX_PANELS", budget)
        assert not any(isinstance(v, Exception)
                       for v in fe._walk_panels((stage,), 1.0, ends, 1e-13))
        monkeypatch.setattr(fe, "_MAX_PANELS", budget - 1)
        got = fe._walk_panels((stage,), 1.0, ends, 1e-13)
        over = [isinstance(v, fe.QuadratureError) for v in got]
        assert over == [n > budget - 1 for n in panels]
        assert all("more than" in str(v) for v in got if isinstance(v, Exception))

    def test_stage_exception_class_is_kept(self):
        # Not a division by zero: the stage's own error ends the segment.
        stage = _scalar_stage(lambda z: cmath.log(z - 1.5))
        got = fe._walk_panels((stage,), 1.0, [2.0, 1.4], 1e-12)
        assert isinstance(got[0], ValueError)
        assert not isinstance(got[1], Exception)
        with pytest.raises(ValueError):
            fe._walk_all((stage,), 1.0, (2.0,), 1e-12)

    def test_zero_length_segment(self):
        # Without a system it gives the start values; with one it fails
        # alone, as any segment the walker cannot solve.
        stage = _scalar_stage(lambda z: z)
        assert fe._walk_panels((stage,), 1.0, [1.0], 1e-12) == [[0j]]
        identity = (lambda z: (0, 0, 0, 0), (1.0, 2.0, 0.5), 1e-12, 1e-13)
        got = fe._walk_panels((stage,), 1.0, [1.0, 1.5], 1e-12, identity)
        assert isinstance(got[0], fe.QuadratureError)
        assert "nonzero length" in str(got[0])
        assert got[1](0.5)[:2].tolist() == [1.0, 2.0]
        assert got[1](0.5)[2] == pytest.approx(0.5 + (1.5 ** 2 - 1) / 2, rel=1e-14)


class TestNumericallyZero:
    def test_exact_cancellation(self):
        e = X - X
        probes = [Binding(x=1.0 + 0.1j * k) for k in range(8)]
        assert fe.numerically_zero(e, probes)

    def test_entry_with_vanishing_h(self, prep):
        # h vanishes identically for the first flat reduction case.
        dec = prep("PII.y0").dec
        probes = [Binding(x=1.0 + 0.15 * k, t=0.5) for k in range(9)]
        assert fe.numerically_zero(dec.h, probes)

    def test_nonzero_f_detected(self, prep):
        dec = prep("PII.y0").dec
        probes = [Binding(x=1.0 + 0.125 * k, t=0.5) for k in range(9)]
        assert not fe.numerically_zero(dec.f, probes)


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
        total += fe.evaluate(e, Binding(params=b.params, **moved)) / w
    return total / (n * radius)


class TestDifferentiateCauchy:
    def test_differentiate_against_cauchy_integral(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        points = st.sampled_from([0.7 + 0.2j, -1.3 - 0.4j, 2.5 + 0j, 1.1 - 0.9j])
        radius = 0.05
        checked = [0]

        trees = _raw_trees(st, extra_leaves=[fe.param("a"), X, T])

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
            b = Binding(x=x, t=t, params={"a": 0.5 - 1.25j})
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
        kind = rng.randrange(4)
        if kind == 0:
            return X
        if kind == 1:
            return T
        if kind == 2:
            return fe.param(rng.choice(("alpha", "beta", "kappa2")))
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
            assert fe.parse(fe.to_string(e)) == e

    def test_round_trip_random(self):
        rng = random.Random(7)
        done = 0
        while done < 150:
            e = random_any_expr(rng)
            s = fe.to_string(e)
            assert fe.parse(s) == e, s
            done += 1

    def test_rational_exponent_syntax(self):
        e = fe.parse("x^(4/3) + t^(-1/2)")
        assert e == fe.fpow(X, Fraction(4, 3)) + fe.fpow(T, Fraction(-1, 2))

    def test_imaginary_unit(self):
        e = fe.parse("i * x")
        assert fe.evaluate(e, Binding(x=2.0)) == 2j

    def test_parse_errors(self):
        for bad in ("x +", "(x", "x ^ t", "x^(1/2/3)", "2..5", "x @ t"):
            with pytest.raises(fe.ParseError):
                fe.parse(bad)

    def test_parameters_survive(self):
        e = fe.parse("alpha * x + beta")
        assert fe.evaluate(e, Binding(x=2.0, params={"alpha": 3.0, "beta": 1.0})) == 7.0


class TestSubstitute:
    def test_substitute_t(self):
        e = X * T + T**2
        s = fe.substitute(e, t=2.0)
        assert fe.evaluate(s, Binding(x=1.5)) == pytest.approx(7.0)
        assert "t" not in _variables(s)

    def test_substitute_param(self):
        e = fe.param("alpha") * X
        s = fe.substitute(e, params={"alpha": 2.5})
        assert fe.evaluate(s, Binding(x=2.0)) == 5.0


class TestPath:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Path([1.0])
