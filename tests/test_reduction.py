import cmath
import dataclasses

import numpy as np
import pytest

from fuchsreduce import catalog, expr as fe, reduction, scalarize
from fuchsreduce.expr import Binding, T, X
from fuchsreduce.scalarize import ScalarPair
from test_expr import both_tiers

ALL_IDS = catalog.list_entries()


def scalar_pair_for(entry_id, overrides=None):
    entry = catalog.lookup(entry_id, overrides)
    if entry.lax is None:
        return entry.scalar, entry
    sp = scalarize.scalar_coefficients(entry.lax, entry.component,
                                       probes=entry.probe_bindings())
    return sp, entry


def decomposition_for(entry_id):
    sp, entry = scalar_pair_for(entry_id)
    dec = reduction.decompose(sp, entry.box_x, entry.box_t)
    return sp, dec, entry


class TestDecompose:
    def test_flat_case_values(self):
        _, dec, entry = decomposition_for("PII.y0")
        b = Binding(x=1.5)
        assert fe.evaluate(dec.f, b) == pytest.approx(3.0)
        assert abs(fe.evaluate(dec.h, b)) <= 1e-14
        assert abs(fe.evaluate(dec.R, b)) <= 1e-14
        assert abs(fe.evaluate(dec.M, Binding(t=0.8))) <= 1e-14
        assert dec.exponent_A == pytest.approx(0.0)

    def test_quadratic_deformation_values(self):
        _, dec, entry = decomposition_for("PIV.y_m2t3")
        bx = Binding(x=1.5)
        bt = Binding(t=0.9)
        assert fe.evaluate(dec.M, bt) == pytest.approx(0.6)          # 2t/3
        assert fe.evaluate(dec.f, bx) == pytest.approx(1.0)
        assert fe.evaluate(dec.h, bx) == pytest.approx(1 / 4.5)      # 1/(3x)
        assert fe.evaluate(dec.R, bx) == pytest.approx(-1 / 9.0)     # -1/(6x)

    def test_rational_solution_values(self):
        _, dec, entry = decomposition_for("PV.y_m1")
        x = 1.6
        bx = Binding(x=x)
        bt = Binding(t=1.1)
        assert fe.evaluate(dec.M, bt) == pytest.approx(-0.25)
        assert fe.evaluate(dec.h, bx) == pytest.approx(0.5 * (1 / x + 1 / (x - 1)))
        assert fe.evaluate(dec.R, bx) == pytest.approx(-1 / (4 * x) - 1 / (4 * (x - 1)))

    # Exact reduction data for every entry, checked at 16 joint probes.
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_closed_form_table(self, entry_id):
        sp, dec, entry = decomposition_for(entry_id)
        cf = entry.reduction_closed_forms
        for name in ("f", "h", "R", "M"):
            got = getattr(dec, name)
            want = cf[name]
            for b in entry.probe_bindings(16):
                v1 = fe.evaluate(got, b)
                v2 = fe.evaluate(want, b)
                assert abs(v1 - v2) <= 1e-9 * (1 + abs(v2)), (entry_id, name)

    def test_second_component_pair_matches_first(self):
        sp0, _, e0 = decomposition_for("PII.y0")
        sp1, _, e1 = decomposition_for("PII.y_inv_t")
        for b in e0.probe_bindings(8):
            for name in ("p1", "q1", "p2", "q2"):
                v0 = fe.evaluate(getattr(sp0, name), b)
                v1 = fe.evaluate(getattr(sp1, name), b)
                assert abs(v0 - v1) <= 1e-10 * (1 + abs(v0))

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_split_and_factor_invariants(self, entry_id):
        sp, dec, entry = decomposition_for(entry_id)
        probes = entry.probe_bindings(16)
        phi = dec.f + T * dec.h
        split = sp.q2_decomposable() - (dec.R + dec.M * phi)
        assert fe.numerically_zero(split, probes, tol=1e-9,
                                   reference=sp.q2_decomposable())
        aoff, boff = sp.off_diag
        assert fe.numerically_zero(dec.f - dec.P1 / dec.P3, probes,
                                   tol=1e-10, reference=dec.f)
        assert fe.numerically_zero(dec.h - dec.P2 / dec.P3, probes,
                                   tol=1e-10, reference=dec.f)
        assert fe.numerically_zero(aoff - dec.g_of_t * (dec.P1 + T * dec.P2),
                                   probes, tol=1e-9, reference=aoff)
        assert fe.numerically_zero(boff - dec.g_of_t * dec.P3,
                                   probes, tol=1e-9, reference=boff)

    def test_kitaev_factorization_is_trivial(self):
        # The Kitaev pair is given without matrices, so its off-diagonal
        # pair is (p2, 1): g = 1, P3 = 1, P1 = f and P2 = h.
        _, dec, entry = decomposition_for("PVdeg.kitaev_sqrt")
        probes = entry.probe_bindings(16)
        for b in probes:
            assert fe.evaluate(dec.g_of_t, b) == 1
            assert fe.evaluate(dec.P3, b) == 1
        assert fe.numerically_zero(dec.P1 - dec.f, probes, tol=1e-14, reference=dec.f)
        assert fe.numerically_zero(dec.P2 - dec.h, probes, tol=1e-14, reference=dec.h)
        # M = 1/(2t) is not constant, so there is no exponent A.
        assert dec.exponent_A is None

    @pytest.mark.parametrize("entry_id", ["PIV.y_m2t3", "PV.y_m1"])
    def test_profile_matches_deformation_exponential(self, entry_id):
        # Where the split is unique (f, h not proportional) the profile must
        # satisfy dlog g/dt = -2M exactly.
        _, dec, entry = decomposition_for(entry_id)
        dlog = fe.differentiate(dec.g_of_t, "t") / dec.g_of_t
        for tval in (0.6, 0.9, 1.3):
            b = Binding(t=tval)
            assert fe.evaluate(dlog, b) == pytest.approx(
                -2 * fe.evaluate(dec.M, b), rel=1e-8, abs=1e-10)

    def test_profile_remainder_is_exponent_over_t(self):
        # With f = 0 the split's freedom is M -> M + c/t; the secant pin
        # recovers the constant M = -1, which leaves dlog g + 2M = A/t.
        _, dec, entry = decomposition_for("PIII.y1")
        dlog = fe.differentiate(dec.g_of_t, "t") / dec.g_of_t
        for tval in (0.6, 0.9, 1.3):
            b = Binding(t=tval)
            rem = fe.evaluate(dlog, b) + 2 * fe.evaluate(dec.M, b)
            assert rem * tval == pytest.approx(dec.exponent_A, rel=1e-8)

    def test_exponent_a_values(self):
        for entry_id, want in (("PIII.y1", 1.5), ("PV.y_lin", -2.0),
                               ("PII.y0", 0.0), ("PIV.y_m2t", 0.0)):
            _, dec, _ = decomposition_for(entry_id)
            assert dec.exponent_A == pytest.approx(want, abs=1e-7), entry_id

    def test_non_affine_ratio_rejected(self):
        zero = fe.const(0)
        sp = ScalarPair(p1=zero, q1=zero, p2=X * T**2, q2=zero)
        with pytest.raises(reduction.DecompositionError):
            reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)

    def test_x_dependent_profile_rejected(self):
        # b_off = x + t cannot factor as g(t) P3(x).
        zero = fe.const(0)
        off = X + T
        sp = ScalarPair(p1=zero, q1=zero, p2=fe.const(1), q2=zero,
                        off_diag=(off, off))
        with pytest.raises(reduction.DecompositionError, match="depends on x"):
            reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)

    def test_singular_P3_raises_the_earlier_probes_error(self):
        # b_off at t1 is singular at two of the 7 x probes: at xs[2] in its
        # log, at xs[4] in the division, which the walk over all probes
        # meets first.  decompose raises what the earlier probe raises.
        xs = catalog.DEFAULT_X_BOX.diagonal(7)
        boff = 1 / (X - xs[4]) + fe.log(X - xs[2])
        zero = fe.const(0)
        sp = ScalarPair(p1=zero, q1=zero, p2=fe.const(1), q2=zero,
                        off_diag=(boff, boff))
        with pytest.raises(fe.SingularEvaluationError, match="^log of zero$"):
            reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)

    def test_scalar_pair_is_required(self):
        # The reduced coefficients compile from dec.sp, so a decomposition
        # without one is refused when it is built, not when it is reduced.
        _, dec, _ = decomposition_for("PII.y0")
        kw = {f.name: getattr(dec, f.name) for f in dataclasses.fields(dec) if f.name != "sp"}
        with pytest.raises(TypeError, match="'sp'"):
            reduction.Decomposition(**kw)


class TestProportionalSplit:
    """f = 2h, h = 1/x and R = 1/x^2: q2 = R + M (f + t h) fixes M only up to
    M -> M + c/(t + 2), R -> R - c h, and decompose recovers a member of
    that family for every M, constant or not."""

    @staticmethod
    def pair(f, h, M):
        zero = fe.const(0)
        phi = f + T * h
        return ScalarPair(p1=zero, q1=zero, p2=phi, q2=1 / X**2 + M * phi)

    @pytest.mark.parametrize("M", [fe.const(-1), -1 / (T + 3), -2 * T],
                             ids=["-1", "-1/(t+3)", "-2t"])
    def test_recovers_M_up_to_the_freedom(self, M):
        h = 1 / X
        dec = reduction.decompose(self.pair(2 * h, h, M), catalog.DEFAULT_X_BOX,
                                  catalog.DEFAULT_T_BOX)
        shifts = [(fe.evaluate(dec.M, Binding(t=t)) - fe.evaluate(M, Binding(t=t))) * (t + 2)
                  for t in (0.6, 1.0, 1.4)]
        c = shifts[0]
        assert max(abs(s - c) for s in shifts) <= 1e-12
        for x in catalog.DEFAULT_X_BOX.diagonal(5):
            assert abs(fe.evaluate(dec.R, Binding(x=x)) - (1 / x**2 - c / x)) <= 1e-12
        constant = M.kind == "const"
        assert dec.M_constant == constant
        if constant:
            # The constant representative, when there is one, is the one taken.
            assert abs(c) <= 1e-12
        else:
            assert dec.exponent_A is None

    def test_f_plus_t1_h_vanishing_is_one_error(self):
        # f = -t1 h: f + t h vanishes at the pin's t1 = box_t.diagonal(7)[1].
        h = 1 / X
        t1 = catalog.DEFAULT_T_BOX.diagonal(7)[1]
        with pytest.raises(reduction.DecompositionError,
                           match=r"^cannot split q2: f \+ t h vanishes at all probes$"):
            reduction.decompose(self.pair(-t1 * h, h, fe.const(-1)), catalog.DEFAULT_X_BOX,
                                catalog.DEFAULT_T_BOX)


class TestCaseFlags:
    def test_replaced_f_measures_its_own_flags(self):
        # PIII.y1 has f = 0, so its reduced equation walks h alone.  A copy
        # with f + 1e-3 must not inherit f_zero, or S would be dropped.
        _, dec, entry = decomposition_for("PIII.y1")
        assert dec.f_zero
        mutated = dataclasses.replace(dec, f=dec.f + 1e-3)
        assert not mutated.f_zero
        assert (mutated.h_zero, mutated.M_zero, mutated.M_constant) == \
            (dec.h_zero, dec.M_zero, dec.M_constant)
        red = reduction.build_reduced(mutated, entry.basepoint_x)
        assert red._es_stages == (red._hf_rows, red._fE_rows)
        # S = 1e-3 int E, where the unmutated equation has S = 0.
        assert abs(red.S(2.3)) > 1e-4

    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_flags_measured_by_decompose_are_the_properties(self, entry_id):
        # decompose stores what it measured while splitting; a copy that
        # measures afresh from the same f, h and M agrees.
        _, dec, _ = decomposition_for(entry_id)
        fresh = dataclasses.replace(dec)
        assert "f_zero" not in fresh.__dict__
        for name in ("f_zero", "h_zero", "M_zero", "M_constant"):
            assert getattr(fresh, name) == getattr(dec, name), name


class TestClassify:
    @pytest.mark.parametrize("entry_id,case", [
        ("PII.y0", "EQ3"),
        ("PII.y_inv_t", "EQ3"),
        ("PIII.y1", "EQ2"),
        ("PIV.y_m2t", "mixed"),
        ("PIV.y_m2t3", "generic_EQ"),
        ("PV.y_lin", "EQ2"),
        ("PV.y_m1", "generic_EQ"),
        ("PVdeg.kitaev_sqrt", "generic_EQ"),
    ])
    def test_case_tags(self, entry_id, case):
        _, dec, _ = decomposition_for(entry_id)
        assert reduction.classify_case(dec) == case

    @pytest.mark.parametrize("f, M, case", [
        (fe.const(0), fe.const(-1), "EQ1"),
        (None, fe.const(-1), "EQ1"),
        (None, T, "generic_EQ"),
    ], ids=["f=h=0, M constant", "h=0, M constant", "h=0, M varies"])
    def test_cases_no_entry_reaches(self, f, M, case):
        # PII.y0 has h = 0, f = 2x and M = 0; a copy re-measures its flags.
        _, dec, entry = decomposition_for("PII.y0")
        copy = dataclasses.replace(dec, f=dec.f if f is None else f, M=M)
        assert reduction.build_reduced(copy, entry.basepoint_x).case_tag == case

    def test_vanishing_f_h_with_varying_M_is_not_reducible(self):
        _, dec, entry = decomposition_for("PII.y0")
        copy = dataclasses.replace(dec, f=fe.const(0), M=T)
        with pytest.raises(reduction.DecompositionError, match="outside the reducible class"):
            reduction.build_reduced(copy, entry.basepoint_x)


class TestTauMap:
    def test_flat_entry_closed_form(self):
        sp, dec, entry = decomposition_for("PII.y0")
        # Closed form x^2 + t, anchored so tau(basepoint) = t.
        got = reduction.build_reduced(dec, entry.basepoint_x).tau_at(2.0, 1.0)
        assert got == pytest.approx(4.0, abs=1e-10)

    def test_tau_equals_t_when_f_h_vanish(self):
        zero = fe.const(0)
        sp = ScalarPair(p1=zero, q1=zero, p2=zero, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        for x in (1.2, 1.9, 2.4):
            got = reduction.build_reduced(dec, 1.0).tau_at(x, 0.77)
            assert got == pytest.approx(0.77, abs=1e-12)

    def test_piii_value_and_frame(self):
        sp, dec, entry = decomposition_for("PIII.y1")
        got = reduction.build_reduced(dec, entry.basepoint_x).tau_at(2.0, 3.0)
        # At the basepoint the normalization makes tau = t exactly; the
        # documented closed form (x-1)^2 t / x evaluates to 1.5 there and
        # differs by the constant frame factor 1/2.
        assert got == pytest.approx(3.0, abs=1e-10)
        cf = fe.evaluate(entry.reduction_closed_forms["tau"],
                         Binding(x=2.0, t=3.0))
        assert cf == pytest.approx(1.5)
        assert cf / got == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_first_integral_property(self, entry_id):
        # dtau/dx - (f + t h) dtau/dt = 0, by finite differences.
        sp, dec, entry = decomposition_for(entry_id)
        red = reduction.build_reduced(dec, entry.basepoint_x)
        pts = list(zip(entry.box_x.diagonal(4), reversed(entry.box_t.diagonal(4))))
        pts += [(x + 0.11, t + 0.07j) for x, t in pts]  # 16 points total
        hstep = 1e-5
        fh = fe.compile_expr(dec.f + T * dec.h)
        for x, t in pts[:16]:
            dx = (red.tau_at(x + hstep, t) - red.tau_at(x - hstep, t)) / (2 * hstep)
            dt = (red.tau_at(x, t + hstep) - red.tau_at(x, t - hstep)) / (2 * hstep)
            resid = dx - fh(x, t) * dt
            assert abs(resid) <= 1e-7 * (1 + abs(dx))


def _two_kernel_stages(dec):
    """The E/S stages of separate h and f kernels: the h stage samples h,
    and the f E stage samples f again on the rows the h stage accepted;
    when h vanishes, the one stage f."""
    h = fe.Kernel(dec.h)
    f = fe.Kernel(dec.f)

    def h_rows(z, prior):
        return h(z, 0j)

    def fE_rows(z, prior):
        return np.exp(prior[0]) * f(z, 0j)

    def f_rows(z, prior):
        return f(z, 0j)

    if dec.f_zero:
        return (h_rows,)
    return (f_rows,) if dec.h_zero else (h_rows, fE_rows)


def _E_and_S(dec, integrals):
    """E and S from the integrals of the stages of _two_kernel_stages."""
    if dec.f_zero:
        return cmath.exp(integrals[0]), 0j
    if dec.h_zero:
        return 1 + 0j, integrals[0]
    return cmath.exp(integrals[0]), integrals[1]


class TestOnePassStages:
    """One (h, f) kernel call per panel point gives the E and S of h and f
    sampled by kernels of their own, bit for bit."""

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_same_E_and_S_as_two_kernels(self, prep, entry_id):
        p = prep(entry_id)
        red = reduction.build_reduced(p.red.dec, p.red.basepoint_x)
        reference = _two_kernel_stages(red.dec)
        rng = np.random.default_rng(24)
        xs = [x for (x,) in catalog.random_points(rng, (p.entry.box_x,), 64)]
        x0, tol = red.basepoint_x, red.quad_tol

        def bits(results):
            return [[repr(v) for v in got] for got in results]

        one = fe._walk_all(red._es_stages, x0, xs[:1], tol)
        assert bits(one) == bits(fe._walk_all(reference, x0, xs[:1], tol))
        batch = fe._walk_panels(red._es_stages, x0, xs, tol)
        want = fe._walk_panels(reference, x0, xs, tol)
        assert bits(batch) == bits(want)
        red.prefetch(xs)
        for x, integrals in zip(xs, want):
            assert (red.E(x), red.S(x)) == _E_and_S(red.dec, integrals)

    @pytest.mark.parametrize("entry_id", ["PII.y0", "PII.y_inv_t"])
    def test_vanishing_h_walks_f_alone(self, prep, entry_id):
        # h is 0 (PII.y0) or a rounding residue (PII.y_inv_t): E is 1
        # exactly, and S the integral of f alone.
        red = prep(entry_id).red
        assert red.dec.h_zero and not red.dec.f_zero
        assert red._es_stages == (red._f_rows,)
        x = 1.9 + 0.1j
        assert red.E(x) == 1
        (s,) = fe._walk_all(_two_kernel_stages(red.dec), red.basepoint_x, (x,),
                            red.quad_tol)[0]
        assert repr(red.S(x)) == repr(s)

    def test_a_fallback_of_f_takes_h_from_the_scalar_form(self):
        # f = h + 1/((x - x + 1e200) 1e200) overflows in numpy but not in
        # Python, whose complex product is inf + 0j and 1/(inf + 0j) = 0, so
        # every batch of the (h, f) kernel is evaluated again point by
        # point, h included.  numpy's
        # complex division and Python's round differently, so these h
        # samples differ from those of h's own kernel in the last places
        # (and E and S with them), though never by more than rounding.
        h = fe.div(fe.const(1), fe.add(fe.mul(X, X), fe.const(0.3)))
        big = fe.const(1e200)
        f = fe.add(h, fe.div(fe.const(1), fe.mul(fe.add(fe.sub(X, X), big), big)))
        zero = fe.const(0)
        dec = reduction.Decomposition(
            f=f, h=h, R=zero, M=zero, g_of_t=fe.const(1), P1=f, P2=h, P3=fe.const(1),
            exponent_A=None, box_x=catalog.DEFAULT_X_BOX, box_t=catalog.DEFAULT_T_BOX,
            sp=ScalarPair(p1=zero, q1=zero, p2=fe.add(f, fe.mul(T, h)), q2=zero))
        xs = (np.linspace(1.1, 2.5, 64) + 0.1j).tolist()
        h_scalar, f_scalar = fe.compile_expr(h), fe.compile_expr(f)
        h_own = fe.Kernel(h)(xs, 0j)
        # The batch falls back to the scalar values on the kernel's first
        # (walked) call and on its later (compiled) calls alike.
        assert dec._hf_array._fn is None
        got_h, got_f = both_tiers(dec._hf_array, xs, 0j)
        assert got_h.tolist() == [h_scalar(x, 0j) for x in xs]
        assert got_f.tolist() == [f_scalar(x, 0j) for x in xs] == got_h.tolist()
        assert (got_h != h_own).any()
        assert np.abs(got_h - h_own).max() <= 2e-16 * np.abs(h_own).max()

        red = reduction.build_reduced(dec, 1.0)
        ends = [2.0 + 0.1j, 1.5 - 0.2j]
        got = fe._walk_panels(red._es_stages, 1.0, ends, red.quad_tol)
        want = fe._walk_panels(_two_kernel_stages(dec), 1.0, ends, red.quad_tol)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-14, abs=0)


class _ProductRows(np.ndarray):
    """``expr._CHEB_APPLY`` viewed so that every product with it records
    the row count of its left operand."""

    rows: list

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.rows.append(inputs[0].shape[0])
        return getattr(ufunc, method)(*(np.asarray(v) for v in inputs), **kwargs)


class TestBatchIndependence:
    """A point's E, S and gauge bits do not depend on the points it is
    walked with: walked alone, in batches of any size or in reverse order,
    prefetched or not.  (The one exception, a batch of a stage kernel that
    falls back to scalar values in ``expr.Kernel.__call__``, meets no
    shipped entry on these points.)"""

    SIZES = (2, 63, 64, 65, 128, 200)

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_same_bits_in_any_batch(self, prep, entry_id):
        p = prep(entry_id)
        red = reduction.build_reduced(p.red.dec, p.red.basepoint_x)
        rng = np.random.default_rng(30)
        xs = [x for (x,) in catalog.random_points(rng, (p.entry.box_x,), max(self.SIZES))]
        x0, tol = red.basepoint_x, red.quad_tol

        def bits(stages, points, size):
            out = {}
            for k in range(0, len(points), size):
                batch = points[k:k + size]
                for x, got in zip(batch, fe._walk_panels(stages, x0, batch, tol)):
                    out[x] = repr(got)
            return out

        for stages in (red._es_stages, (red._G_rows,)):
            alone = bits(stages, xs, 1)
            for size in self.SIZES:
                assert bits(stages, xs, size) == alone, size
            assert bits(stages, xs[::-1], len(xs)) == alone
        single = reduction.build_reduced(red.dec, x0)
        red.prefetch(xs)
        assert len(red._cache_ES) == len(xs)
        for x in xs:
            assert repr(red.E(x)) == repr(single.E(x))
            assert repr(red.S(x)) == repr(single.S(x))

    def test_panel_product_blocks(self, prep, monkeypatch):
        # No product of the walk has one row (BLAS's matrix-vector kernel)
        # or more than 64 (which OpenBLAS may thread).
        p = prep("PIII.y1")
        red = reduction.build_reduced(p.red.dec, p.red.basepoint_x)
        apply = fe._CHEB_APPLY.view(_ProductRows)
        apply.rows = []
        monkeypatch.setattr(fe, "_CHEB_APPLY", apply)
        xs = [complex(1.2 + 0.005 * k, 0.1) for k in range(200)]
        red.prefetch(xs)
        red.E(2.45 - 0.1j)
        red.gauge(2.45 - 0.1j)
        assert apply.rows and min(apply.rows) >= 2 and max(apply.rows) <= 64
        assert max(apply.rows) == 64


class TestGauge:
    def test_flat_entry_gauge_is_one(self):
        sp, dec, entry = decomposition_for("PII.y0")
        for x in (1.2, 1.8, 2.4):
            got = reduction.build_reduced(dec, entry.basepoint_x).gauge(x)
            assert got == pytest.approx(1.0)

    def test_inverse_sqrt_gauge(self):
        sp, dec, _ = decomposition_for("PIV.y_m2t")
        got = reduction.build_reduced(dec, 1.0).gauge(4.0)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_piii_gauge_against_quadrature_oracle(self):
        # Quadrature of the closed form R = 3/(4x) - 2/(x-1) at theta = 5/2:
        # exp(int R) = x^(3/4) (x-1)^(-2), normalized at the basepoint.
        sp, dec, entry = decomposition_for("PIII.y1")
        got = reduction.build_reduced(dec, 2.0).gauge(4.0)
        formula = lambda x: x ** 0.75 * (x - 1) ** (-2.0)
        assert got == pytest.approx(formula(4.0) / formula(2.0), rel=1e-10)

    def test_second_component_flips_sign(self):
        sp, dec, _ = decomposition_for("PIV.y_m2t")
        up = reduction.build_reduced(dataclasses.replace(
            dec, sp=dataclasses.replace(dec.sp, component="first")), 1.0).gauge(4.0)
        dn = reduction.build_reduced(dataclasses.replace(
            dec, sp=dataclasses.replace(dec.sp, component="second")), 1.0).gauge(4.0)
        assert up * dn == pytest.approx(1.0, abs=1e-10)


class TestBuiltinComplexValues:
    @pytest.mark.parametrize("entry_id", ["PII.y0", "PV.y_m1"])
    def test_maps_return_builtin_complex(self, entry_id):
        import numpy as np

        sp, dec, entry = decomposition_for(entry_id)
        red = reduction.build_reduced(dec, entry.basepoint_x)
        for x in (entry.basepoint_x, np.complex128(1.7 + 0.1j), 2.2):
            t = np.complex128(0.9)
            values = [red.E(x), red.S(x), red.gauge(x),
                      red.tau_at(x, t), red.solve_t(x, 1.3),
                      reduction.build_reduced(dec, entry.basepoint_x).tau_at(x, t),
                      reduction.build_reduced(dec, entry.basepoint_x).gauge(x)]
            assert all(type(v) is complex for v in values)


class TestReducedCoefficients:
    def test_flat_entry_airy_form(self):
        sp, dec, entry = decomposition_for("PII.y0")
        red = reduction.build_reduced(dec, entry.basepoint_x)
        for x, t in ((1.4, 0.7), (2.0 + 0.1j, 1.2 - 0.05j)):
            P, Q = red.coefficients_at(x, t)
            assert abs(P) <= 1e-12
            assert Q == pytest.approx(-(x**2 + t) / 4, rel=1e-10)

    def test_constant_targets(self):
        for entry_id, qval in (("PIV.y_m2t", -1.0), ("PV.y_m1", -0.25)):
            sp, dec, entry = decomposition_for(entry_id)
            red = reduction.build_reduced(dec, entry.basepoint_x)
            scale = {"PIV.y_m2t": 1.0, "PV.y_m1": 2 ** 0.5}[entry_id]
            for x, t in ((1.5, 0.8), (2.2, 1.3)):
                P, Q = red.coefficients_at(x, t)
                assert abs(P) <= 1e-10
                assert Q * scale**-2 == pytest.approx(qval, rel=1e-9)

    def test_flat_system_chain_rule_sanity(self):
        zero = fe.const(0)
        sp = ScalarPair(p1=zero, q1=zero, p2=fe.const(1), q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 0.0)
        P, Q = red.coefficients_at(0.9, 0.4)
        assert P == 0 and Q == 0

    def test_degenerate_point_reported(self):
        zero = fe.const(0)
        # p2 = x: tau_x vanishes at x = 0
        sp = ScalarPair(p1=zero, q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        with pytest.raises(reduction.DegenerateTauPointError):
            red.coefficients_at(0.0, 0.5)

    def test_degenerate_point_with_numerator_pole(self):
        # p1 = 1/x puts a pole in the P and Q numerators at x = 0, where
        # tau_x vanishes too.  The kernel raises before the gates run, and
        # its own exception rejects the point, as at any singular point.
        zero = fe.const(0)
        sp = ScalarPair(p1=1 / X, q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        with pytest.raises(ZeroDivisionError):
            red.coefficients_at(0.0, 0.5)
        assert fe.evaluate(dec.f + T * dec.h, Binding(x=0.0, t=0.5)) == 0
        # The pole is x-only, so the raw kernel raises in its x-stage.
        with pytest.raises(ZeroDivisionError):
            red._pre_x(0.0)
        with pytest.raises(ZeroDivisionError):
            red._post(0.0, 0.5, red._pre_x(0.0), red._pre_t(0.5))
        assert 0j not in red._cache_x

    def test_batch_rejects_only_its_bad_points(self):
        # p1 = 1/(x - 2) has a pole at x = 2, and p2 = x makes tau_x vanish
        # at x = 0.  The batch raises at the pole and runs again point by
        # point: each bad point is rejected by what coefficients_at raises
        # there, and the others get coefficients_at's values to rounding.
        zero = fe.const(0)
        sp = ScalarPair(p1=1 / (X - 2), q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        xs, ts = [1.5 + 0.1j, 2.0, 0.0, 2.5], [0.5, 0.5, 0.5, 0.7 - 0.2j]
        got = red.coefficients_batch(xs, ts)
        for x, t, value in zip(xs, ts, got):
            try:
                want = red.coefficients_at(x, t)
            except fe._SAMPLE_ERRORS as exc:
                assert type(value) is type(exc)
                assert str(value) == str(exc)
                continue
            assert value == pytest.approx(want, rel=1e-14)
        assert [type(v) for v in got[1:3]] == [ZeroDivisionError,
                                                reduction.DegenerateTauPointError]

    @pytest.mark.parametrize("p1, error", [(1 / (X - 2), ZeroDivisionError),
                                           (fe.log(X - 2), ValueError)])
    def test_x_stage_error_at_regular_point(self, p1, error):
        # p1 is singular at x = 2, where tau_x = 2: the point is not
        # degenerate, so the kernel's own exception comes through, and the
        # x-stage memo keeps nothing for that x.
        zero = fe.const(0)
        sp = ScalarPair(p1=p1, q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        tau_x = fe.evaluate(dec.f + T * dec.h, Binding(x=2.0, t=0.5)) * red.E(2.0)
        assert tau_x == 2
        for t in (0.5, 0.7):
            with pytest.raises(error):
                red.coefficients_at(2.0, t)
        assert 2 + 0j not in red._cache_x
        red.coefficients_at(2.5, 0.5)
        assert list(red._cache_x) == [2.5 + 0j]

    @pytest.mark.parametrize("p1, error", [(1 / (T - 2), ZeroDivisionError),
                                           (fe.log(T - 2), ValueError)])
    def test_t_stage_error_at_regular_point(self, p1, error):
        # p1 is singular at t = 2, where tau_x = x: the point is not
        # degenerate, so the kernel's own exception comes through from its
        # t-stage, and the t-stage memo keeps nothing for that t.
        zero = fe.const(0)
        sp = ScalarPair(p1=p1, q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        tau_x = fe.evaluate(dec.f + T * dec.h, Binding(x=1.5, t=2.0)) * red.E(1.5)
        assert tau_x == 1.5
        with pytest.raises(error):
            red._pre_t(2.0)
        for x in (1.5, 1.7):
            with pytest.raises(error):
                red.coefficients_at(x, 2.0)
        assert 2 + 0j not in red._cache_t
        assert red._cache_x == {}
        red.coefficients_at(1.5, 0.5)
        assert list(red._cache_t) == [0.5 + 0j]
        assert list(red._cache_x) == [1.5 + 0j]

    def test_fused_coefficients_share_subexpressions(self, prep):
        # phi, p_num and q_num of PIII.y1 have 162 structurally distinct
        # interior nodes together (compiled one by one: 27 + 187 + 265).
        # The three stages hold them once between them; post also has the
        # unpacked x- and t-stage values and the arguments x, t, xv and tv.
        red = prep("PIII.y1").red
        pre_x, pre_t, post = (red._pre_x.__code__, red._pre_t.__code__,
                              red._post.__code__)
        carried = len(red._pre_x(2.0)) + len(red._pre_t(0.5))
        n_x, n_t = pre_x.co_nlocals - 1, pre_t.co_nlocals - 1
        assert n_x + n_t + post.co_nlocals - 4 - carried <= 162
        # Most of the lines depend on x alone, and the t-stage is not empty.
        assert n_x >= 100
        assert n_t >= 10


class TestBasepointCovariance:
    @pytest.mark.parametrize("entry_id", ["PII.y0", "PIII.y1", "PV.y_m1"])
    def test_affine_relation_between_basepoints(self, entry_id):
        sp, dec, entry = decomposition_for(entry_id)
        red0 = reduction.build_reduced(dec, entry.basepoint_x)
        red1 = reduction.build_reduced(dec, entry.basepoint_x + 0.3)
        pts = [(1.4, 0.8), (1.9, 1.1), (2.3, 0.6), (1.6, 1.3)]
        t0 = [red0.tau_at(x, t) for x, t in pts]
        t1 = [red1.tau_at(x, t) for x, t in pts]
        c = (t1[1] - t1[0]) / (t0[1] - t0[0])
        d = t1[0] - c * t0[0]
        # fit from three points, verify the fourth
        assert t1[2] == pytest.approx(c * t0[2] + d, abs=1e-9)
        assert t1[3] == pytest.approx(c * t0[3] + d, abs=1e-9)
        # gauge rescales by a constant between basepoints
        g_ratio = [red1.gauge(x) / red0.gauge(x) for x, _ in pts[:2]]
        assert g_ratio[0] == pytest.approx(g_ratio[1], rel=1e-9)
