import cmath
import dataclasses

import pytest

from fuchsreduce import catalog, expr as fe, reduction, scalarize
from fuchsreduce.expr import Binding, Path, T, X
from fuchsreduce.scalarize import ScalarPair

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

    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_split_and_factor_invariants(self, entry_id):
        sp, dec, entry = decomposition_for(entry_id)
        probes = entry.probe_bindings(16)
        phi = dec.f + T * dec.h
        split = sp.q2_decomposable() - (dec.R + dec.M * phi)
        assert fe.numerically_zero(split, probes, tol=1e-9,
                                   reference=sp.q2_decomposable())
        if sp.off_diag is not None:
            aoff, boff = sp.off_diag
            assert fe.numerically_zero(dec.f - dec.P1 / dec.P3, probes,
                                       tol=1e-10, reference=dec.f)
            assert fe.numerically_zero(dec.h - dec.P2 / dec.P3, probes,
                                       tol=1e-10, reference=dec.f)
            assert fe.numerically_zero(aoff - dec.g_of_t * (dec.P1 + T * dec.P2),
                                       probes, tol=1e-9, reference=aoff)
            assert fe.numerically_zero(boff - dec.g_of_t * dec.P3,
                                       probes, tol=1e-9, reference=boff)

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
        # With f = 0 the constant-M convention leaves dlog g + 2M = A/t.
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
                        off_diag=(off, off), diag=(zero, zero))
        with pytest.raises(reduction.DecompositionError, match="depends on x"):
            reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)


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
        up = reduction.build_reduced(
            dataclasses.replace(dec, component="first"), 1.0).gauge(4.0)
        dn = reduction.build_reduced(
            dataclasses.replace(dec, component="second"), 1.0).gauge(4.0)
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
                      red.tau_at(x, t), red.solve_t(x, 1.3), red.tau_x_at(x, t),
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
        # tau_x vanishes too: the point is degenerate, not a division error.
        zero = fe.const(0)
        sp = ScalarPair(p1=1 / X, q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        with pytest.raises(reduction.DegenerateTauPointError):
            red.coefficients_at(0.0, 0.5)
        # The pole is x-only, so the raw kernel raises in its x-stage.
        with pytest.raises(ZeroDivisionError):
            red._pre(0.0)
        with pytest.raises(ZeroDivisionError):
            red._post(0.0, 0.5, red._pre(0.0))
        assert 0j not in red._cache_x

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
        assert red.tau_x_at(2.0, 0.5) == 2
        for t in (0.5, 0.7):
            with pytest.raises(error):
                red.coefficients_at(2.0, t)
        assert 2 + 0j not in red._cache_x
        red.coefficients_at(2.5, 0.5)
        assert list(red._cache_x) == [2.5 + 0j]

    def test_fused_coefficients_share_subexpressions(self, prep):
        # phi, p_num and q_num of PIII.y1 have 162 structurally distinct
        # interior nodes together (compiled one by one: 27 + 187 + 265).
        # The two stages hold them once between them; post also has the
        # unpacked x-stage values and the arguments x, t and xv.
        red = prep("PIII.y1").red
        pre, post = red._pre.__code__, red._post.__code__
        carried = len(red._pre(2.0))
        assert pre.co_nlocals - 1 + post.co_nlocals - 3 - carried <= 162
        # Most of the lines depend on x alone.
        assert pre.co_nlocals - 1 >= 100


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
