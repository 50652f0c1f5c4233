import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from fuchsreduce import catalog, expr as fe, reduction, scalarize, verify
from fuchsreduce.catalog import LaxPair
from fuchsreduce.config import Config
from fuchsreduce.expr import Binding, T, X
from test_expr import compiled, joint_probes

LAX_IDS = ["PII.y0", "PII.y_inv_t", "PIII.y1", "PIV.y_m2t", "PIV.y_m2t3",
           "PV.y_lin", "PV.y_m1"]


def hand_frobenius_pii(x, t, y_const):
    """Independent oracle: assemble dA/dt - dB/dx + [A, B] with plain numpy
    from the hand-substituted second-family matrices (y constant, z = -t/2,
    u = 1, theta = 1/2)."""
    y = y_const
    A = np.array([[x**2, x - y], [t * x - 1 + y * t, -(x**2)]], dtype=complex)
    At = np.array([[0.0, 0.0], [x + y, 0.0]], dtype=complex)
    B = np.array([[x / 2, 0.5], [t / 2, -x / 2]], dtype=complex)
    Bx = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
    R = At - Bx + A @ B - B @ A
    return float(np.max(np.abs(R)))


def zero_lax():
    z = fe.const(0)
    grid = ((z, z), (z, z))
    return LaxPair(grid, grid)


class TestFrobenius:
    def test_zero_system(self):
        assert scalarize.frobenius_residual_grid(zero_lax(), [(0.3, 1.2)]) == 0.0

    def test_pii_y0_matches_hand_assembly(self):
        lp = catalog.lookup("PII.y0").lax
        got = scalarize.frobenius_residual_grid(lp, [(1.3, 0.7)])
        oracle = hand_frobenius_pii(1.3, 0.7, y_const=0.0)
        assert got == pytest.approx(oracle, abs=1e-13)
        assert got <= 1e-12

    def test_negative_control_fails(self):
        lp = catalog.lookup("negative.PII_bad_y1").lax
        got = scalarize.frobenius_residual_grid(lp, [(1.3, 0.7)])
        oracle = hand_frobenius_pii(1.3, 0.7, y_const=1.0)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got >= 1e-2

    @pytest.mark.parametrize("entry_id", (*LAX_IDS, "negative.PII_bad_y1"))
    def test_fused_kernel_is_bit_identical(self, entry_id):
        # On the report's 5 x 5 grid and the 12 joint probes, the one tuple
        # kernel on the pair's shared tape gives in array form the bits of
        # the array forms of one kernel per entry, and agrees with the
        # compiled code to rounding; the grid maximum is the maximum over
        # the per-entry kernels, on the entry's pair and on a fresh one.
        entry = catalog.lookup(entry_id)
        lp = entry.lax
        exprs = scalarize.frobenius_residual_exprs(lp)
        singles = [fe.Kernel(r) for r in exprs]
        compiled_residuals = [compiled(r) for r in exprs]
        probes = joint_probes(entry.box_x, entry.box_t, 12)
        points = entry.grid_points(5) + [(b.x, b.t) for b in probes]
        xs, ts = (np.array(v, dtype=complex) for v in zip(*points))
        want = [single(xs, ts) for single in singles]
        for kernel in (lp.frobenius_fns, LaxPair(lp.a, lp.b).frobenius_fns):
            got = kernel(xs, ts)
            assert [[repr(v) for v in row.tolist()] for row in got] == \
                [[repr(v) for v in row.tolist()] for row in want]
        for row, f in zip(want, compiled_residuals):
            ref = np.array([f(x, t) for x, t in zip(xs.tolist(), ts.tolist())])
            assert np.all(np.abs(row - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        for k, (x, t) in enumerate(points):
            worst = repr(max(float(np.abs(row)[k]) for row in want))
            assert repr(scalarize.frobenius_residual_grid(lp, [(x, t)])) == worst
        grid = entry.grid_points(5)
        want_max = max(float(np.abs(row[:len(grid)]).max()) for row in want)
        assert repr(scalarize.frobenius_residual_grid(lp, grid)) == repr(want_max)
        fresh = LaxPair(lp.a, lp.b)
        assert repr(scalarize.frobenius_residual_grid(fresh, grid)) == repr(want_max)

    def test_nan_entry_is_the_reading(self):
        # A NaN entry of the defect is the reading even at the last point,
        # where Python's max would drop it and the gate would pass.
        class Rows:
            def __call__(self, xs, ts):
                assert xs.shape == ts.shape == (2,)
                rows = [(1e-16, 0j, 0j, 0j), (0j, 2e-16, 0j, complex(float("nan"), 0))]
                return tuple(np.array(col, dtype=complex) for col in zip(*rows))

        lax = catalog.lookup("PII.y0").lax
        lp = LaxPair(lax.a, lax.b)
        lp.__dict__["frobenius_fns"] = Rows()
        assert np.isnan(scalarize.frobenius_residual_grid(lp, [(1.5, 1.0), (2.0, 1.2)]))

    @pytest.mark.parametrize("entry_id", LAX_IDS)
    def test_probe_grid_25_points(self, entry_id):
        entry = catalog.lookup(entry_id)
        worst = scalarize.frobenius_residual_grid(entry.lax, entry.grid_points(5))
        assert worst <= 1e-10

    @pytest.mark.parametrize("overrides", [
        None, {"kappa": Fraction(1, 2)}, {"kappa": Fraction(3)}, {"kappa": Fraction(-6)},
        {"mu": Fraction(-6)}, {"mu": Fraction(11, 2)},
    ])
    def test_kitaev_systems_are_compatible(self, overrides):
        # The report's Frobenius stage checks the Kitaev pair's companion
        # system (``ScalarPair.system``), on the entry's grid.  Largest
        # reading 1.0e-13, at kappa = -6 (4.5e-15 at the defaults).
        rep = verify.full_report("PVdeg.kitaev_sqrt", overrides=overrides)
        entry = catalog.lookup("PVdeg.kitaev_sqrt", overrides)
        worst = scalarize.frobenius_residual_grid(entry.scalar.system, entry.grid_points())
        assert rep.frobenius_max == worst <= Config().tol_frobenius
        assert rep.passed, rep.errors

    def test_kitaev_system_with_wrong_q2_fails_the_report(self, monkeypatch):
        # A companion system built from a q2 off by 1e-3 x is not
        # compatible: the report fails on its Frobenius gate (2.0e-2).
        entry = catalog.lookup("PVdeg.kitaev_sqrt")
        sp = entry.scalar
        q2 = sp.q2 + 1e-3 * X
        wrong = dataclasses.replace(sp, q2=q2, system=catalog._companion_system(
            sp.p1, sp.q1, sp.p2, q2))
        monkeypatch.setattr(catalog, "lookup",
                            lambda *_: dataclasses.replace(entry, scalar=wrong))
        rep = verify.full_report("PVdeg.kitaev_sqrt")
        assert rep.frobenius_max > 100 * rep.tolerances["frobenius"]
        assert not rep.passed


class TestOffDiagonalPair:
    @pytest.mark.parametrize("entry_id", catalog.list_entries() + catalog.list_negative_entries())
    def test_every_entry_carries_a_pair_of_expressions(self, entry_id):
        # A pair scalarized from matrices carries the entries it divides,
        # (a12, b12) or (a21, b21); the direct Kitaev pair carries None.
        entry = catalog.lookup(entry_id)
        off = entry.decomposition.sp.off_diag
        if entry.lax is None:
            assert off is None
            return
        a, b = entry.lax.a, entry.lax.b
        first = entry.decomposition.sp.component == "first"
        want = (a[0][1], b[0][1]) if first else (a[1][0], b[1][0])
        assert isinstance(off, tuple) and len(off) == 2
        assert off[0] is want[0] and off[1] is want[1]

    def test_pair_built_without_one_gets_p2_and_one(self):
        # The cross relation as the first row of the system on (phi, phi_t):
        # decompose reads a pair without one as a12 = p2 and b12 = 1, which
        # give back p2 = a12 / b12, so g = 1 and P3 = 1: it decomposes as
        # the pair given (p2, 1), bit for bit.
        zero = fe.const(0)
        p2 = X + T / X
        sp = scalarize.ScalarPair(p1=zero, q1=zero, p2=p2, q2=zero)
        assert sp.off_diag is None
        given = dataclasses.replace(sp, off_diag=(p2, fe.const(1)))
        dec, want = (reduction.decompose(pair, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
                     for pair in (sp, given))
        assert dec.exponent_A == want.exponent_A
        for b in joint_probes(dec.box_x, dec.box_t, 12):
            for name in ("f", "h", "R", "M"):
                assert fe.evaluate(getattr(dec, name), b) == fe.evaluate(getattr(want, name), b)
            assert fe.evaluate(dec.f + T * dec.h, b) == pytest.approx(fe.evaluate(p2, b), rel=1e-14)


class TestScalarCoefficients:
    def test_pii_y0_closed_forms(self):
        entry = catalog.lookup("PII.y0")
        lp = entry.lax
        sp = scalarize.scalar_coefficients(lp, "first")
        for x, t in ((1.4, 0.6), (2.2 + 0.1j, 1.1 - 0.1j)):
            b = Binding(x=x, t=t)
            assert fe.evaluate(sp.p1, b) == pytest.approx(-1 / x)
            assert fe.evaluate(sp.q1, b) == pytest.approx(-(x**2) * (x**2 + t))
            assert fe.evaluate(sp.p2, b) == pytest.approx(2 * x)
            assert abs(fe.evaluate(sp.q2, b)) <= 1e-13

    def test_piv_q2(self):
        entry = catalog.lookup("PIV.y_m2t")
        lp = entry.lax
        sp = scalarize.scalar_coefficients(lp, "first")
        b = Binding(x=1.7, t=0.8)
        assert fe.evaluate(sp.q2, b) == pytest.approx(-1 / (2 * 1.7))

    def test_piii_displayed_equation(self):
        # The full second-order equation at theta_inf = 5/2.
        entry = catalog.lookup("PIII.y1")
        lp = entry.lax
        sp = scalarize.scalar_coefficients(lp, "first")
        thi = 2.5
        for x, t in ((1.7 + 0.1j, 0.9 - 0.05j), (2.3, 1.2)):
            b = Binding(x=x, t=t)
            assert fe.evaluate(sp.p1, b) == pytest.approx(2 / x - 1 / (x + 1), rel=1e-10)
            q1_disp = (-t**2 / 4 + 1 / (4 * (x + 1))
                       + (2 * t * (thi - 1) - 1) / (4 * x)
                       + (8 * t**2 + 16 * (thi - 1) * t + 3) / (16 * x**2)
                       + (thi - 1) * t / (2 * x**3) - t**2 / (4 * x**4))
            assert fe.evaluate(sp.q1, b) == pytest.approx(q1_disp, rel=1e-10)
            assert fe.evaluate(sp.p2, b) == pytest.approx(
                t * (x + 1) / (x * (x - 1)), rel=1e-10)
            q2_disp = ((thi - 1) / (2 * x) - (2 * thi - 1) / (2 * (x - 1))
                       - t * (x + 1) / (x * (x - 1)))
            assert fe.evaluate(sp.q2, b) == pytest.approx(q2_disp, rel=1e-10)

    def test_piv_m2t3_displayed_equation(self):
        entry = catalog.lookup("PIV.y_m2t3")
        lp = entry.lax
        sp = scalarize.scalar_coefficients(lp, "first")
        x, t = 1.6 + 0.08j, 1.05 - 0.04j
        b = Binding(x=x, t=t)
        assert fe.evaluate(sp.p1, b) == pytest.approx(t / (x * (3 * x + t)), rel=1e-10)
        q1_disp = -(7 / (36 * x**2) - t / (6 * x**2 * (3 * x + t))
                    + (3 * x + t) ** 2 * (3 * x + 4 * t) / (27 * x))
        assert fe.evaluate(sp.q1, b) == pytest.approx(q1_disp, rel=1e-10)
        q2_disp = -1 / (6 * x) + (2 * t / 3) * (1 + t / (3 * x))
        assert fe.evaluate(sp.q2, b) == pytest.approx(q2_disp, rel=1e-10)

    def test_pv_lin_displayed_equation(self):
        entry = catalog.lookup("PV.y_lin")
        lp = entry.lax
        sp = scalarize.scalar_coefficients(lp, "first")
        th1 = 3.0
        x, t = 1.8 - 0.06j, 0.8 + 0.03j
        b = Binding(x=x, t=t)
        assert fe.evaluate(sp.p1, b) == pytest.approx(1 / (x - 1), rel=1e-10)
        q1_disp = -(t**2 / 4 + t * (th1 - 1) / (2 * (x - 1)) + th1**2 / (4 * (x - 1) ** 2))
        assert fe.evaluate(sp.q1, b) == pytest.approx(q1_disp, rel=1e-10)
        assert fe.evaluate(sp.p2, b) == pytest.approx(t / (x - 1), rel=1e-10)
        q2_disp = -((2 - th1) / (2 * (x - 1)) + t / (2 * (x - 1)))
        assert fe.evaluate(sp.q2, b) == pytest.approx(q2_disp, rel=1e-10)

    def test_second_component_mirrors_first(self):
        # The second-component scalar pair of the 1/t solution coincides
        # with the first-component pair of the flat solution.
        e0 = catalog.lookup("PII.y0")
        lp0 = e0.lax
        e1 = catalog.lookup("PII.y_inv_t")
        lp1 = e1.lax
        sp0 = scalarize.scalar_coefficients(lp0, "first")
        sp1 = scalarize.scalar_coefficients(lp1, "second")
        for x, t in ((1.5, 0.8), (2.1 + 0.1j, 1.2 - 0.1j)):
            b0 = Binding(x=x, t=t)
            b1 = Binding(x=x, t=t)
            for name in ("p1", "q1", "p2", "q2"):
                v0 = fe.evaluate(getattr(sp0, name), b0)
                v1 = fe.evaluate(getattr(sp1, name), b1)
                assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-12), name

    def test_constant_offdiagonal_gives_zero_p1(self):
        one = fe.const(1)
        zero = fe.const(0)
        lp = LaxPair(((X, one), (X * T, fe.neg(X))),
                     ((zero, one), (zero, zero)))
        sp = scalarize.scalar_coefficients(lp, "first")
        b = Binding(x=1.3, t=0.4)
        assert fe.evaluate(sp.p1, b) == 0

    def test_vanishing_offdiagonal_rejected(self):
        # Scalarizing is symbolic; decompose samples the entries it divides.
        sp = scalarize.scalar_coefficients(zero_lax(), "first")
        with pytest.raises(scalarize.VanishingOffDiagonalError,
                           match="^a-offdiag entry vanishes on the probe set; "
                                 "cannot scalarize the first component$"):
            reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)

    def test_vanishing_b_offdiagonal_rejected_before_p2_is_read(self):
        # b12 = 0 makes p2 = a12 / b12 singular at every probe: decompose
        # names the vanishing entry rather than the division it causes.
        one, zero = fe.const(1), fe.const(0)
        lp = LaxPair(((X, X + T), (X * T, fe.neg(X))), ((X * T, zero), (one, fe.neg(X * T))))
        sp = scalarize.scalar_coefficients(lp, "first")
        with pytest.raises(scalarize.VanishingOffDiagonalError) as info:
            reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        assert str(info.value) == ("b-offdiag entry vanishes on the probe set; "
                                   "cannot scalarize the first component")

    @pytest.mark.parametrize("entry_id", LAX_IDS)
    def test_scalarizing_numbers_no_kernel(self, monkeypatch, entry_id):
        # A fresh entry's scalar pairs are expressions alone: no kernel
        # numbers them, and no value of them is computed.
        entry = catalog.lookup(entry_id, dict(catalog.lookup(entry_id).params_exact))
        numbered = []
        real_init = fe.Kernel.__init__
        monkeypatch.setattr(fe.Kernel, "__init__", lambda kernel, *args: numbered.append(args)
                            or real_init(kernel, *args))
        scalarize.scalar_coefficients(entry.lax, "first")
        scalarize.scalar_coefficients(entry.lax, "second")
        assert numbered == []

    @pytest.mark.parametrize("entry_id", LAX_IDS)
    def test_q2_integrability_identity(self, entry_id):
        # q2 must also equal the half-difference form forced by the
        # integrability condition on the off-diagonal entries of the system
        # the pair is the first component of.
        entry = catalog.lookup(entry_id)
        sp = scalarize.scalar_coefficients(entry.lax, entry.decomposition.sp.component)
        aoff, boff = sp.off_diag
        alt = (fe.differentiate(boff, "x") / boff
               - fe.differentiate(aoff, "t") / boff) / 2
        for b in joint_probes(entry.box_x, entry.box_t, 9):
            v1 = fe.evaluate(sp.q2, b)
            v2 = fe.evaluate(alt, b)
            assert abs(v1 - v2) <= 1e-9 * (1 + abs(v2))


def scalar_residual(sp, values, x, t):
    """Check both scalar equations on a joint solution.

    ``values`` holds phi, phi_x, phi_xx and phi_t of a solution component
    at (x, t).  Returns the larger of the two equation residuals, relative
    to the local solution scale."""
    f, d1, d2, dt1 = values
    bnd = Binding(x=complex(x), t=complex(t))
    p1 = fe.evaluate(sp.p1, bnd)
    q1 = fe.evaluate(sp.q1, bnd)
    p2 = fe.evaluate(sp.p2, bnd)
    q2 = fe.evaluate(sp.q2, bnd)

    r_second_order = d2 + p1 * d1 + q1 * f
    r_cross = d1 - p2 * dt1 - q2 * f
    scale1 = max(abs(d2), abs(q1 * f), 1.0)
    scale2 = max(abs(d1), abs(p2 * dt1), 1.0)
    return max(abs(r_second_order) / scale1, abs(r_cross) / scale2)


def leg_values(p, x, t, anchor):
    """phi, phi_x, phi_xx and phi_t at (x, t) of the joint solution that
    cross-validation walks (``verify._walk_leg``), on the leg from
    ``anchor`` through x: phi is the first component of the leg's system,
    the x-derivatives come from the leg's Chebyshev series, phi_t from its
    t-variation Psi."""
    x, t, anchor = complex(x), complex(t), complex(anchor)
    u = (x - anchor) / abs(x - anchor) if x != anchor else 1.0
    leg = verify._walk_leg(p, t, anchor, x + 0.3 * u)
    vals = leg(abs(x - anchor), derivatives=2)
    return vals[0, 0], vals[1, 0] / u, vals[2, 0] / u**2, vals[0, 2]


class TestScalarResidual:
    def test_zero_system_constant_solution(self):
        zero = fe.const(0)
        sp = scalarize.ScalarPair(p1=zero, q1=zero, p2=fe.const(1), q2=zero)
        r = scalar_residual(sp, (1.0 + 0j, 0j, 0j, 0j), 1.0, 1.0)
        assert r == 0.0

    # The anchor of the leg: the entry's basepoint, so the residual is
    # checked up to 0.56 along the leg, or x itself.
    @pytest.mark.parametrize("entry_id,x,t,anchor", [
        ("PII.y0", 1.5, 0.5, "basepoint"),
        ("PII.y_inv_t", 1.5, 0.8, "basepoint"),
        ("PIII.y1", 2.0, 0.9, "basepoint"),
        ("PIV.y_m2t", 1.4, 0.9, "basepoint"),
        ("PIV.y_m2t3", 1.4, 1.1, "basepoint"),
        ("PV.y_lin", 2.0, 0.9, "basepoint"),
        ("PV.y_m1", 1.8, 0.9, "basepoint"),
        # The companion system of a direct scalar pair.
        ("PVdeg.kitaev_sqrt", 1.8, 0.9, "basepoint"),
        # Off the real axis in both variables: B and A are evaluated at
        # complex t, and the leg runs at Im x.
        ("PIII.y1", 2.0 - 0.15j, 0.9 + 0.1j, "x"),
        ("PIII.y1", 1.6 + 0.1j, 1.2 - 0.1j, "x"),
        ("PIV.y_m2t3", 1.4 - 0.1j, 1.1 + 0.15j, "x"),
        ("PV.y_lin", 2.1 + 0.15j, 0.8 - 0.1j, "x"),
        ("PV.y_m1", 1.8 + 0.1j, 0.9 - 0.1j, "x"),
    ])
    def test_joint_solution_satisfies_both_equations(self, prep, entry_id, x, t, anchor):
        p = prep(entry_id)
        values = leg_values(p, x, t, p.entry.basepoint_x if anchor == "basepoint" else x)
        # Up to 9e-10 where x is the leg's start: the second derivative of
        # a panel's series at its end point scales rounding by about n^4.
        assert scalar_residual(p.red.dec.sp, values, x, t) <= 1e-8

    @pytest.mark.parametrize("kwargs", [{"x1": 2.0}, {"x1": 2.0, "t": 0.9 + 0.1j}])
    def test_joint_solution_refuses_an_empty_stencil(self, prep, kwargs):
        # A leg of zero length leaves nothing to walk, at real or complex t.
        with pytest.raises(fe.QuadratureError, match="nonzero length"):
            verify._walk_leg(prep("PIII.y1"), **{"t": 0.9, "x0": 2.0, **kwargs})

    @pytest.mark.parametrize("entry_id", LAX_IDS)
    def test_p2_is_offdiagonal_ratio(self, entry_id):
        entry = catalog.lookup(entry_id)
        sp = scalarize.scalar_coefficients(entry.lax, entry.decomposition.sp.component)
        aoff, boff = sp.off_diag
        for b in joint_probes(entry.box_x, entry.box_t, 10):
            ratio = fe.evaluate(aoff, b) / fe.evaluate(boff, b)
            got = fe.evaluate(sp.p2, b)
            assert abs(got - ratio) <= 1e-10 * (1 + abs(ratio))
