import cmath
import dataclasses
import struct
from fractions import Fraction

import numpy as np
import pytest

from fuchsreduce import catalog, expr as fe, reduction, scalarize, verify
from fuchsreduce.config import Config
from fuchsreduce.expr import Binding, T, X
from fuchsreduce.scalarize import ScalarPair
from test_expr import (_call_message, _compile_text, _result_bits, _stage_ops, called_twice,
                       compiled, joint_probes, walked)

ALL_IDS = catalog.list_entries()


def scalar_pair_for(entry_id, overrides=None):
    entry = catalog.lookup(entry_id, overrides)
    if entry.lax is None:
        return entry.scalar, entry
    sp = scalarize.scalar_coefficients(entry.lax, entry.decomposition.sp.component)
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
            for b in joint_probes(entry.box_x, entry.box_t, 16):
                v1 = fe.evaluate(got, b)
                v2 = fe.evaluate(want, b)
                assert abs(v1 - v2) <= 1e-9 * (1 + abs(v2)), (entry_id, name)

    def test_second_component_pair_matches_first(self):
        sp0, _, e0 = decomposition_for("PII.y0")
        sp1, _, e1 = decomposition_for("PII.y_inv_t")
        for b in joint_probes(e0.box_x, e0.box_t, 8):
            for name in ("p1", "q1", "p2", "q2"):
                v0 = fe.evaluate(getattr(sp0, name), b)
                v1 = fe.evaluate(getattr(sp1, name), b)
                assert abs(v0 - v1) <= 1e-10 * (1 + abs(v0))

    @pytest.mark.parametrize("entry_id", ["PV.y_lin", "PV.y_m1"])
    def test_second_component_exponent_a(self, entry_id):
        # exponent_A = t (g'/g + 2 M) with the M of the pair's own relation
        # q2 = R + M (f + t h): through the second component it is the
        # constant 0 (to rounding at the two t it compares).
        entry = catalog.lookup(entry_id)
        dec = reduction.decompose(scalarize.scalar_coefficients(entry.lax, "second"),
                                  entry.box_x, entry.box_t)
        assert dec.exponent_A is not None
        assert abs(dec.exponent_A) <= 1e-12

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_split_and_factor_invariants(self, entry_id):
        sp, dec, entry = decomposition_for(entry_id)
        probes = joint_probes(entry.box_x, entry.box_t, 16)
        phi = dec.f + T * dec.h
        split = sp.q2 - (dec.R + dec.M * phi)
        assert fe.numerically_zero(walked(split, probes), tol=1e-9,
                                   reference=walked(sp.q2, probes))
        # decompose reads a pair given directly (off_diag None) as (p2, 1).
        # The factorization a_off = g P3 (f + t h), b_off = g P3 with g in t
        # alone: a_off = b_off phi, and b_off(x, t) / b_off(x, t_ref) does
        # not depend on x.
        aoff, boff = sp.off_diag or (sp.p2, fe.const(1))
        assert fe.numerically_zero(walked(aoff - boff * phi, probes),
                                   tol=1e-9, reference=walked(aoff, probes))
        x_ref, t_ref = entry.box_x.center, entry.box_t.center

        def b_at(x, t):
            return fe.evaluate(boff, Binding(x=x, t=t))

        cross = [b_at(p.x, p.t) * b_at(x_ref, t_ref) for p in probes]
        assert fe.numerically_zero(
            [c - b_at(x_ref, p.t) * b_at(p.x, t_ref) for c, p in zip(cross, probes)],
            tol=1e-9, reference=cross)

    def test_kitaev_factorization_is_trivial(self):
        # The Kitaev pair is given without matrices, so decompose reads its
        # off-diagonal pair as (p2, 1): g = 1, P3 = 1, P1 = f and P2 = h,
        # so p2 is f + t h.
        sp, dec, entry = decomposition_for("PVdeg.kitaev_sqrt")
        assert sp.off_diag is None
        probes = joint_probes(entry.box_x, entry.box_t, 16)
        assert fe.numerically_zero(walked(sp.p2 - (dec.f + T * dec.h), probes), tol=1e-14,
                                   reference=walked(sp.p2, probes))
        # M = 1/(2t) is not constant, so there is no exponent A.
        assert dec.exponent_A is None

    @staticmethod
    def dlog_g(sp, entry):
        """d/dt log g on the line x = x0, the centre of the x box: g is b_off
        up to a factor in x alone."""
        _, boff = sp.off_diag
        boff = fe.substitute(boff, x=entry.box_x.center)
        return fe.differentiate(boff, "t") / boff

    @pytest.mark.parametrize("entry_id", ["PIV.y_m2t3", "PV.y_m1"])
    def test_profile_matches_deformation_exponential(self, entry_id):
        # Where the split is unique (f, h not proportional) the profile must
        # satisfy dlog g/dt = -2M exactly.
        sp, dec, entry = decomposition_for(entry_id)
        dlog = self.dlog_g(sp, entry)
        for tval in (0.6, 0.9, 1.3):
            b = Binding(t=tval)
            assert fe.evaluate(dlog, b) == pytest.approx(
                -2 * fe.evaluate(dec.M, b), rel=1e-8, abs=1e-10)

    def test_profile_remainder_is_exponent_over_t(self):
        # With f = 0 the split's freedom is M -> M + c/t; the secant pin
        # recovers the constant M = -1, which leaves dlog g + 2M = A/t.
        sp, dec, entry = decomposition_for("PIII.y1")
        dlog = self.dlog_g(sp, entry)
        for tval in (0.6, 0.9, 1.3):
            b = Binding(t=tval)
            rem = fe.evaluate(dlog, b) + 2 * fe.evaluate(dec.M, b)
            assert rem * tval == pytest.approx(dec.exponent_A, rel=1e-8)

    def test_exponent_a_values(self):
        # The documented exponent, which `reduce` and `list --json` print.
        for entry_id in catalog.list_entries():
            _, dec, entry = decomposition_for(entry_id)
            want = entry.expected_exponent_a
            if want is None:
                assert dec.exponent_A is None, entry_id
            else:
                assert dec.exponent_A == pytest.approx(want, abs=1e-12), entry_id

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


class TestOneEvaluator:
    """decompose takes its decisions from array calls on one tape of (p2,
    q2, a_off, b_off) and walks no point of a regular pair."""

    SHIFTS = [("PIII.y1", "theta_inf"), ("PV.y_lin", "theta1"), ("PV.y_m1", "theta_inf"),
              ("PVdeg.kitaev_sqrt", "kappa"), ("PVdeg.kitaev_sqrt", "mu")]

    def test_one_tape_and_no_point_walk(self, monkeypatch):
        entries = [catalog.lookup(entry_id) for entry_id in ALL_IDS]
        for entry_id, name in self.SHIFTS:
            default = catalog.lookup(entry_id).params_exact[name]
            entries += [catalog.lookup(entry_id, {name: default + shift})
                        for shift in (Fraction(1, 3), Fraction(-5, 7))]
        pairs = [(entry.decomposition.sp, entry.box_x, entry.box_t) for entry in entries]
        kernels, walks = [], []
        real_init, real_walk = fe.Kernel.__init__, fe._evaluate

        def recording_init(kernel, *args):
            kernels.append(kernel)
            real_init(kernel, *args)

        def recording_walk(*args):
            walks.append(args)
            return real_walk(*args)

        monkeypatch.setattr(fe.Kernel, "__init__", recording_init)
        monkeypatch.setattr(fe, "_evaluate", recording_walk)
        for sp, box_x, box_t in pairs:
            del kernels[:]
            reduction.decompose(sp, box_x, box_t)
            assert len(kernels) == 1
        assert walks == []
        for name in ("_probe_values", "_values_at", "_ProbeSet", "_probe"):
            assert not hasattr(fe, name)

    def test_singular_probe_errors_are_the_walks(self):
        # theta1 = 2 puts a pole of PV.y_lin's matrices on the Frobenius
        # grid, and a 0/0 in p2 at t = 1, one of the 9 t probes: the array
        # values there are NaN, and the walk of p2 at (xa, 1) raises.  The
        # Frobenius kernel's batch is answered by the walk too.
        rep = verify.full_report("PV.y_lin", overrides={"theta1": Fraction(2)})
        assert rep.errors == ["frobenius: division by zero",
                              "reduction: division by zero"]


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
        (entry_id, catalog.lookup(entry_id).expected_case)
        for entry_id in catalog.list_entries()])
    def test_case_tags(self, entry_id, case):
        # The documented case, which `reduce` and `list --json` print.
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
        fh = compiled(dec.f + T * dec.h)
        for x, t in pts[:16]:
            dx = (red.tau_at(x + hstep, t) - red.tau_at(x - hstep, t)) / (2 * hstep)
            dt = (red.tau_at(x, t + hstep) - red.tau_at(x, t - hstep)) / (2 * hstep)
            resid = dx - fh(x, t) * dt
            assert abs(resid) <= 1e-7 * (1 + abs(dx))


def _two_kernel_stages(dec):
    """The E/S stages of separate h and f kernels: the h stage samples h,
    and the f E stage samples f again on the panels the h stage accepted;
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
        (xs,) = catalog.random_points(rng, (p.entry.box_x,), 64)
        x0, tol = red.basepoint_x, red.quad_tol
        for x in xs:
            want = fe._walk_panels(reference, x0, x, tol)
            got = fe._walk_panels(red._es_stages, x0, x, tol)
            assert [repr(v) for v in got] == [repr(v) for v in want]
            assert (red.E(x), red.S(x)) == _E_and_S(red.dec, want)

    @pytest.mark.parametrize("entry_id", ["PII.y0", "PII.y_inv_t"])
    def test_vanishing_h_walks_f_alone(self, prep, entry_id):
        # h is 0 (PII.y0) or a rounding residue (PII.y_inv_t): E is 1
        # exactly, and S the integral of f alone.
        red = prep(entry_id).red
        assert red.dec.h_zero and not red.dec.f_zero
        assert red._es_stages == (red._f_rows,)
        x = 1.9 + 0.1j
        assert red.E(x) == 1
        (s,) = fe._walk_panels(_two_kernel_stages(red.dec), red.basepoint_x, x,
                               red.quad_tol)
        assert repr(red.S(x)) == repr(s)

    def test_a_fallback_of_f_takes_h_from_the_scalar_form(self):
        # f = h + 1/((x - x + 1e200) 1e200) overflows in numpy but not in
        # Python, whose complex product is inf + 0j and 1/(inf + 0j) = 0, so
        # every point of every batch of the (h, f) kernel is walked, h
        # included.  numpy's
        # complex division and Python's round differently, so these h
        # samples differ from those of h's own kernel in the last places
        # (and E and S with them), though never by more than rounding.
        h = fe.div(fe.const(1), fe.add(fe.mul(X, X), fe.const(0.3)))
        big = fe.const(1e200)
        f = fe.add(h, fe.div(fe.const(1), fe.mul(fe.add(fe.sub(X, X), big), big)))
        zero = fe.const(0)
        dec = reduction.Decomposition(
            f=f, h=h, R=zero, M=zero, exponent_A=None,
            box_x=catalog.DEFAULT_X_BOX, box_t=catalog.DEFAULT_T_BOX,
            sp=ScalarPair(p1=zero, q1=zero, p2=fe.add(f, fe.mul(T, h)), q2=zero))
        xs = (np.linspace(1.1, 2.5, 64) + 0.1j).tolist()
        h_own = fe.Kernel(h)(xs, 0j)
        # The batch falls back to the walk's values on the kernel's first
        # call and on its second alike.
        got_h, got_f = called_twice(dec._hf_array, xs, 0j)
        assert got_h.tolist() == [fe.evaluate(h, Binding(x, 0j)) for x in xs]
        assert got_f.tolist() == [fe.evaluate(f, Binding(x, 0j)) for x in xs] == got_h.tolist()
        assert (got_h != h_own).any()
        assert np.abs(got_h - h_own).max() <= 2e-16 * np.abs(h_own).max()

        red = reduction.build_reduced(dec, 1.0)
        for b in (2.0 + 0.1j, 1.5 - 0.2j):
            got = fe._walk_panels(red._es_stages, 1.0, b, red.quad_tol)
            want = fe._walk_panels(_two_kernel_stages(dec), 1.0, b, red.quad_tol)
            assert got == pytest.approx(want, rel=1e-14, abs=0)


def gauge_at(dec, x0, x):
    """exp(int_{x0}^{x} G), G = R the decomposition's gauge exponent, by one
    panel walk."""
    kernel = fe.Kernel(dec.R)
    stage = lambda z, prior: kernel(z, 0j)
    (val,) = fe._walk_panels((stage,), x0, x, reduction.ReducedEquation.quad_tol)
    return cmath.exp(val)


class TestGauge:
    def test_flat_entry_gauge_is_one(self):
        sp, dec, entry = decomposition_for("PII.y0")
        for x in (1.2, 1.8, 2.4):
            got = gauge_at(dec, entry.basepoint_x, x)
            assert got == pytest.approx(1.0)

    def test_inverse_sqrt_gauge(self):
        sp, dec, _ = decomposition_for("PIV.y_m2t")
        got = gauge_at(dec, 1.0, 4.0)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_piii_gauge_against_quadrature_oracle(self):
        # Quadrature of the closed form R = 3/(4x) - 2/(x-1) at theta = 5/2:
        # exp(int R) = x^(3/4) (x-1)^(-2), normalized at the basepoint.
        sp, dec, entry = decomposition_for("PIII.y1")
        got = gauge_at(dec, 2.0, 4.0)
        formula = lambda x: x ** 0.75 * (x - 1) ** (-2.0)
        assert got == pytest.approx(formula(4.0) / formula(2.0), rel=1e-10)

    def test_second_component_flips_sign(self):
        # The second component's sign lives in its q2, not in G: its pair is
        # the first of the swapped system, whose q2 is a22 - b22 a21/b21 =
        # -(a11 - b11 a21/b21).  A pair whose q2 is negated decomposes to
        # -R, and as G = R its gauge is the reciprocal.
        sp, dec, entry = decomposition_for("PV.y_m1")
        flipped = reduction.decompose(dataclasses.replace(sp, q2=fe.neg(sp.q2)),
                                      entry.box_x, entry.box_t)
        assert gauge_at(dec, 2.0, 4.0) * gauge_at(flipped, 2.0, 4.0) == \
            pytest.approx(1.0, abs=1e-10)
        (a11, _), (a21, _) = entry.lax.a
        (b11, _), (b21, _) = entry.lax.b
        core = a11 - b11 * a21 / b21
        probes = joint_probes(entry.box_x, entry.box_t, 8)
        second = scalarize.scalar_coefficients(entry.lax, "second")
        assert fe.numerically_zero(walked(second.q2 + core, probes),
                                   tol=1e-12, reference=walked(core, probes))


def _bits_or_raised(kernel, xs):
    """The bits of each array of ``kernel(xs, 0j)``, a tuple kernel's
    call, as a list, or the class and message of what it raises."""
    return _call_message(lambda: _result_bits(kernel(xs, 0j))[1])


class TestCoefficientViews:
    """The coefficient kernel numbers (phi, p_num, q_num, G, h, f): its
    suffix views of (G, h, f) and (h, f) are what the leg and the E/S walk
    read."""

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_ghf_view_gives_the_bits_of_its_parts(self, entry_id):
        # Bit for bit, the values of a kernel of G alone and of one of
        # (h, f) alone, on the leg's points and off the real line.
        dec = catalog.lookup(entry_id).decomposition
        xs = np.concatenate([np.linspace(1.86, 2.34, 9), np.array(dec.box_x.diagonal(7))])
        ghf = dec._coeff_array.view(3)
        assert ghf.expr == (dec.R, dec.h, dec.f)
        want = (_bits_or_raised(fe.Kernel((dec.R,)), xs)
                + _bits_or_raised(fe.Kernel((dec.h, dec.f)), xs))
        assert _bits_or_raised(ghf, xs) == want
        assert _bits_or_raised(dec._hf_array, xs) == want[1:]

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_gauge_exponent_is_r(self, entry_id):
        # G is R for every component: the coefficient kernel's fourth root
        # is R itself.
        dec = catalog.lookup(entry_id).decomposition
        assert dec._coeff_array.exprs[3] is dec.R

    @pytest.mark.parametrize("component", ["first", "second"])
    def test_ghf_view_raises_as_its_parts_at_a_pole(self, component):
        # G = R = log(x - 3/2), whichever the component, has a log of zero
        # at 3/2 and h = 1/(x - 2) a pole at 2.  The view raises what G's
        # own kernel raises where G is singular, first when both are, and
        # what (h, f)'s raises where h alone is.
        zero = fe.const(0)
        R, f = fe.log(fe.sub(X, fe.const(1.5))), X
        h = fe.div(fe.const(1), fe.sub(X, fe.const(2)))
        dec = reduction.Decomposition(
            f=f, h=h, R=R, M=zero, exponent_A=None,
            box_x=catalog.DEFAULT_X_BOX, box_t=catalog.DEFAULT_T_BOX,
            sp=ScalarPair(p1=zero, q1=zero, p2=fe.add(f, fe.mul(T, h)), q2=zero,
                          component=component))
        ghf = dec._coeff_array.view(3)
        of_g, of_hf = fe.Kernel((dec.R,)), fe.Kernel((h, f))
        for xs, want in (([1.25, 1.5, 1.75], of_g), ([1.5, 2.0], of_g), ([1.75, 2.0], of_hf),
                         ([2.0, 1.5], of_g)):
            xs = np.array(xs, dtype=complex)
            raised = _bits_or_raised(want, xs)
            assert isinstance(raised, tuple), xs
            assert _bits_or_raised(ghf, xs) == raised
        regular = np.array([1.25, 1.75 + 0.5j])
        assert _bits_or_raised(ghf, regular) == \
            _bits_or_raised(of_g, regular) + _bits_or_raised(of_hf, regular)
        assert _bits_or_raised(ghf, np.array([1.5 + 0j])) == \
            (fe.SingularEvaluationError, "log of zero")
        # The E/S walk's (h, f) runs no line of G: its pole is not met.
        assert _bits_or_raised(dec._hf_array, np.array([1.5, 2.0 + 0j])) == \
            (fe.SingularEvaluationError, "division by zero")


class TestBuiltinComplexValues:
    @pytest.mark.parametrize("entry_id", ["PII.y0", "PV.y_m1"])
    def test_maps_return_builtin_complex(self, entry_id):
        import numpy as np

        sp, dec, entry = decomposition_for(entry_id)
        red = reduction.build_reduced(dec, entry.basepoint_x)
        f = compiled(dec.f)
        for x in (entry.basepoint_x, np.complex128(1.7 + 0.1j), 2.2):
            t = np.complex128(0.9)
            # Not numpy's complex128, whose arithmetic rounds differently
            # from Python's downstream: the walk's integrals too.
            values = [*fe._walk_panels(red._es_stages, entry.basepoint_x, x, red.quad_tol),
                      red.E(x), red.S(x), red.tau_at(x, t), red.solve_t(x, 1.3),
                      reduction.build_reduced(dec, entry.basepoint_x).tau_at(x, t),
                      fe.integrate_callable(lambda z: f(z, 0j), [entry.basepoint_x, x])]
            assert all(type(v) is complex for v in values)


# The walk's message where the compiled code raises each class: for a
# division by zero, and for a log of zero (cmath's ValueError).
_WALK_MESSAGES = {ZeroDivisionError: "division by zero", ValueError: "log of zero"}


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
        # the walk's exception rejects the point, as at any singular point.
        zero = fe.const(0)
        sp = ScalarPair(p1=1 / X, q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        with pytest.raises(fe.SingularEvaluationError, match="^division by zero$"):
            red.coefficients_at(0.0, 0.5)
        assert fe.evaluate(dec.f + T * dec.h, Binding(x=0.0, t=0.5)) == 0
        # The pole is x-only, so the raw kernel raises in its x-stage.
        pre_x, pre_t, post = red.dec._coeff_stages
        with pytest.raises(ZeroDivisionError):
            pre_x(0.0)
        with pytest.raises(ZeroDivisionError):
            post(0.0, 0.5, pre_x(0.0), pre_t(0.5))
        assert 0j not in red._cache_x

    def test_batch_rejects_only_its_bad_points(self):
        # On the line x = x0 = 1.8, the centre of the x box: q1 = 1/(t - 1/2)
        # has a pole at t = 1/2, and p2 = x - t makes tau_x vanish at t = x0.
        # The call raises at the pole and runs again t by t: the pole and
        # the degenerate point are rejected by what coefficients_at raises
        # there (at the pole, the walk's exception), and the others get
        # coefficients_at's values to rounding.  So it goes on the kernel's
        # first call, on its later ones and on its held x-stage.
        zero = fe.const(0)
        sp = ScalarPair(p1=zero, q1=1 / (T - 0.5), p2=X - T, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        x0 = dec.box_x.center
        ts = [1.5 + 0.1j, 0.5, x0, 0.7 - 0.2j]
        for _ in range(3):
            got = red.coefficients_at_x0(ts, red.E(x0))
            for t, value in zip(ts, got):
                try:
                    want = red.coefficients_at(x0, t)
                except fe._SAMPLE_ERRORS as exc:
                    assert (type(value), str(value)) == (type(exc), str(exc))
                    continue
                assert value == pytest.approx(want, rel=1e-14)
            assert [type(v) for v in got[1:3]] == [fe.SingularEvaluationError,
                                                    reduction.DegenerateTauPointError]
        # At t = 1e155, |phi E| passes 1.4e154, so (phi E)**2 overflows:
        # the call itself does not raise, the gates reject the degenerate
        # point and the overflowing square each in its place, and the others
        # keep the values they have alone.
        ts = [1.5 + 0.1j, x0, 1e155, 0.7 - 0.2j]
        got = red.coefficients_at_x0(ts, red.E(x0))
        assert [type(v) for v in got[1:3]] == [reduction.DegenerateTauPointError, OverflowError]
        assert str(got[2]) == "complex exponentiation"
        for k in (0, 3):
            assert got[k] == red.coefficients_at_x0([ts[k]], red.E(x0))[0]

    @pytest.mark.parametrize("pair, pole", [
        (dict(p1=fe.log(T - 0.5)), "log of zero"),
        (dict(p1=fe.ipow(T - 0.5, -2)), "pole: 0 raised to a negative power"),
        (dict(q1=fe.fpow(T - 0.5, Fraction(-1, 3))),
         "0 raised to a non-positive fractional power"),
        (dict(p1=1 / (X - T - 1.3)), "division by zero"),
        (dict(q1=fe.exp(1 / (X + T - 2.3))), "division by zero"),
    ], ids=["t-log", "t-ipow", "t-fpow", "xt-div", "xt-exp-div"])
    def test_both_apis_reject_a_pole_alike(self, pair, pole):
        # As test_batch_rejects_only_its_bad_points for a division in t: on
        # the line x = x0 = 1.8, each pair has a pole at t = 1/2, in its
        # t-stage or in its (x, t)-stage.  coefficients_at, on first use
        # and from its memos, and coefficients_at_x0 reject it with the
        # same class and message, the walk's, and agree elsewhere.
        zero = fe.const(0)
        sp = ScalarPair(**{"p1": zero, "q1": zero, "p2": X, "q2": zero, **pair})
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        x0 = dec.box_x.center
        assert x0 == 1.8
        ts = [0.7 - 0.2j, 0.5, 1.5 + 0.1j]
        for _ in range(2):
            got = red.coefficients_at_x0(ts, red.E(x0))
            want = []
            for t in ts:
                try:
                    want.append(red.coefficients_at(x0, t))
                except fe._SAMPLE_ERRORS as exc:
                    want.append((type(exc), str(exc)))
            assert (type(got[1]), str(got[1])) == want[1] == (fe.SingularEvaluationError, pole)
            for k in (0, 2):
                assert got[k] == pytest.approx(want[k], rel=1e-14)

    def test_singular_x0_rejects_every_t(self):
        # p1 = 1/(x - x0): the x-stage raises at x0, on every call, and
        # every t is rejected by the walk's exception there, in both APIs.
        zero = fe.const(0)
        x0 = catalog.DEFAULT_X_BOX.center
        sp = ScalarPair(p1=1 / (X - x0), q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        ts = [0.6, 1.2 - 0.1j]
        for _ in range(3):
            got = red.coefficients_at_x0(ts, red.E(x0))
            assert [(type(v), str(v)) for v in got] == \
                [(fe.SingularEvaluationError, "division by zero")] * 2
        for t in ts:
            with pytest.raises(fe.SingularEvaluationError, match="^division by zero$"):
                red.coefficients_at(x0, t)

    @pytest.mark.parametrize("p1, error", [(1 / (X - 2), ZeroDivisionError),
                                           (fe.log(X - 2), ValueError)])
    def test_x_stage_error_at_regular_point(self, p1, error):
        # p1 is singular at x = 2, where tau_x = 2: the point is not
        # degenerate, so the compiled x-stage raises ``error`` and the
        # walk's exception, raised while handling it, rejects the point;
        # the x-stage memo keeps nothing for that x.
        zero = fe.const(0)
        sp = ScalarPair(p1=p1, q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        tau_x = fe.evaluate(dec.f + T * dec.h, Binding(x=2.0, t=0.5)) * red.E(2.0)
        assert tau_x == 2
        for t in (0.5, 0.7):
            with pytest.raises(fe.SingularEvaluationError) as info:
                red.coefficients_at(2.0, t)
            assert str(info.value) == _WALK_MESSAGES[error]
            assert type(info.value.__context__) is error
        with pytest.raises(error):
            red.dec._coeff_stages[0](2.0)
        assert 2 + 0j not in red._cache_x
        red.coefficients_at(2.5, 0.5)
        assert list(red._cache_x) == [2.5 + 0j]

    @pytest.mark.parametrize("p1, error", [(1 / (T - 2), ZeroDivisionError),
                                           (fe.log(T - 2), ValueError)])
    def test_t_stage_error_at_regular_point(self, p1, error):
        # p1 is singular at t = 2, where tau_x = x: the point is not
        # degenerate, so the compiled t-stage raises ``error``, the walk's
        # exception rejects the point, and the t-stage memo keeps nothing
        # for that t.
        zero = fe.const(0)
        sp = ScalarPair(p1=p1, q1=zero, p2=X, q2=zero)
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        tau_x = fe.evaluate(dec.f + T * dec.h, Binding(x=1.5, t=2.0)) * red.E(1.5)
        assert tau_x == 1.5
        for x in (1.5, 1.7):
            with pytest.raises(fe.SingularEvaluationError) as info:
                red.coefficients_at(x, 2.0)
            assert str(info.value) == _WALK_MESSAGES[error]
            assert type(info.value.__context__) is error
        with pytest.raises(error):
            red.dec._coeff_stages[1](2.0)
        assert 2 + 0j not in red._cache_t
        assert red._cache_x == {}
        red.coefficients_at(1.5, 0.5)
        assert list(red._cache_t) == [0.5 + 0j]
        assert list(red._cache_x) == [1.5 + 0j]

    def test_fused_coefficients_share_subexpressions(self, prep):
        # phi, p_num and q_num of PIII.y1 have 162 structurally distinct
        # interior nodes together (compiled one by one: 27 + 187 + 265).
        # The three stages run them once between them, an operation each.
        red = prep("PIII.y1").red
        red.coefficients_at(2.0, 0.5)
        kernel = red.dec._coeff_array
        n_x, n_t, n_post = _stage_ops(_compile_text(kernel)[1])
        assert n_x + n_t + n_post <= 162
        # Most of the operations depend on x alone (82 of the 137 once each
        # neg that only adds read runs inside them), and the t-stage is not
        # empty.
        assert n_x >= 80
        assert n_t >= 10


def _point_bits(values):
    return [struct.pack("<dd", v.real, v.imag) for v in values]


class TestPerPointInputs:
    """``tau_at`` and ``coefficients_at`` on their memos: a point whose x and
    t are memoized probes one memo per coordinate, and what a first use
    computes is memoized only once the point has passed."""

    # Each form of a coordinate next to the built-in complex it equals.
    FORMS = [(1.7, 0.9), (2, 1), (np.complex128(1.6 + 0.1j), np.complex128(0.8 - 0.05j)),
             (complex(1.9, -0.0), complex(1.1, -0.0)), (complex(1.5, 0.0), complex(0.7, -0.0))]

    def test_forms_give_the_values_and_keys_of_builtin_complex(self):
        dec = catalog.lookup("PIII.y1").decomposition
        for x, t in self.FORMS:
            got, want = (reduction.build_reduced(dec, 1.4) for _ in range(2))
            # Twice: a first use, then both memos hit.
            for _ in range(2):
                g = [got.tau_at(x, t), *got.coefficients_at(x, t)]
                w = [want.tau_at(complex(x), complex(t)), *want.coefficients_at(complex(x), complex(t))]
                assert all(type(v) is complex for v in g)
                assert _point_bits(g) == _point_bits(w)
            for memo in ("_cache_ES", "_cache_x", "_cache_t"):
                keys, want_keys = list(getattr(got, memo)), list(getattr(want, memo))
                assert all(type(k) is complex for k in keys)
                assert _point_bits(keys) == _point_bits(want_keys) == _point_bits(
                    [complex(t) if memo == "_cache_t" else complex(x)])

    def test_signed_zero_parts_share_an_entry(self):
        red = reduction.build_reduced(catalog.lookup("PIII.y1").decomposition, 1.4)
        for x, t in [(complex(1.9, -0.0), complex(0.9, 0.0)), (complex(1.9, 0.0), complex(0.9, -0.0))]:
            red.tau_at(x, t)
            red.coefficients_at(x, t)
        assert [len(red._cache_ES), len(red._cache_x), len(red._cache_t)] == [1, 1, 1]

    @pytest.mark.parametrize("pair, point, error", [
        # p1 = 1/(x - t): the (x, t)-stage divides by zero where x = t, and
        # the walk rejects the point.
        (dict(p1=1 / (X - T)), (1.5, 1.5), fe.SingularEvaluationError),
        # p2 = x - t: phi = x - t, so tau_x vanishes where x = t.
        (dict(p2=X - T), (1.5, 1.5), reduction.DegenerateTauPointError),
        # h = 1/(x - 1.3): E's walk from the basepoint 1 to x = 1.6 meets
        # its pole, where the (h, f) kernel's batch is answered by the walk,
        # whose exception the panel walk names the panel by.
        (dict(p2=X + T / (X - 1.3)), (1.6, 0.9), fe.QuadratureError),
    ])
    def test_a_first_use_that_raises_memoizes_no_x(self, pair, point, error):
        zero = fe.const(0)
        sp = ScalarPair(**{"p1": zero, "q1": zero, "p2": X, "q2": zero, **pair})
        dec = reduction.decompose(sp, catalog.DEFAULT_X_BOX, catalog.DEFAULT_T_BOX)
        red = reduction.build_reduced(dec, 1.0)
        x, t = point
        for _ in range(2):
            with pytest.raises(error):
                red.coefficients_at(x, t)
            assert red._cache_x == {}
            assert list(red._cache_t) == [t]
        if error is not fe.QuadratureError:
            # A point that passes memoizes x, after which the bad point
            # raises from the memos as it did on first use.
            red.coefficients_at(x, 0.7)
            assert list(red._cache_x) == [x]
            with pytest.raises(error):
                red.coefficients_at(x, t)


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
        x0 = entry.basepoint_x
        g_ratio = [gauge_at(dec, x0 + 0.3, x) / gauge_at(dec, x0, x) for x, _ in pts[:2]]
        assert g_ratio[0] == pytest.approx(g_ratio[1], rel=1e-9)


def _invariance_probes(dec):
    """The points of ``Decomposition.invariance``, as lists."""
    n = reduction._INVARIANCE_PROBES
    return dec.box_x.diagonal(n), dec.box_t.diagonal(n)[::-1]


class TestInvariance:
    """The reading of the invariance identities D a + h a/phi = 0 and
    D b + 2 h b/phi = 0, from first-order jets of the coefficient kernel's
    DAGs."""

    IDS = ALL_IDS + catalog.list_negative_entries()

    @pytest.mark.parametrize("entry_id", IDS)
    def test_jets_agree_with_differentiate(self, entry_id):
        # Values and both derivatives of (phi, p_num, q_num), from the
        # coefficient kernel, against the one-point walk of
        # differentiate's output, relative to the largest of those values:
        # p_num vanishes to rounding on several entries, so its derivatives
        # are sums of terms of that size which cancel.
        dec = catalog.lookup(entry_id).decomposition
        roots = dec._coeff_array.expr
        xs, ts = _invariance_probes(dec)
        jets = fe._jets(dec._coeff_array, np.array(xs), np.array(ts))
        assert len(jets) == len(roots)
        points = [Binding(x, t) for x, t in zip(xs, ts)]
        want = [[np.array(walked(e if var is None else fe.differentiate(e, var), points))
                 for var in (None, "x", "t")] for e in roots]
        scale = max(1.0, max(float(np.max(np.abs(w))) for row in want for w in row))
        for jet, row in zip(jets, want):
            for got, ref in zip(jet, row):
                assert got.shape == (len(xs),)
                assert float(np.max(np.abs(got - ref))) <= 1e-13 * scale

    @pytest.mark.parametrize("entry_id", IDS)
    def test_reading_is_the_symbolic_identity(self, entry_id):
        # The identities built with differentiate, walked point by point.
        dec = catalog.lookup(entry_id).decomposition
        phi, p_num, q_num = dec._coeff_array.expr
        xs, ts = _invariance_probes(dec)
        readings = []
        for k, num in ((1, p_num), (2, q_num)):
            a = num / phi ** 2
            identity = (fe.differentiate(a, "t") - fe.differentiate(a, "x") / phi
                        + k * dec.h * a / phi)
            points = [Binding(x, t) for x, t in zip(xs, ts)]
            got, scale = (np.array(walked(e, points)) for e in (identity, a))
            readings.append(np.max(np.abs(got) / np.maximum(1.0, np.abs(scale))))
        want = max(readings)
        assert abs(dec.invariance - want) <= 1e-13 + 1e-9 * want
        assert (want <= 1e-13) == (entry_id in ALL_IDS)

    def test_warm_reports_make_no_jet_walk(self, monkeypatch):
        # A decomposition runs its jets once, on its coefficient kernel; a
        # warm report reads the reading it kept, a fresh entry runs them
        # again, after decompose took those of b_off alone (a view of its
        # kernel of (p2, q2, a_off, b_off)) for the exponent A.
        verify.full_report("PIII.y1")
        walks = []
        jets = fe._jets

        def counted(kernel, xs, ts):
            walks.append(kernel)
            return jets(kernel, xs, ts)

        monkeypatch.setattr(fe, "_jets", counted)
        for seed in (42, 7, 1):
            assert verify.full_report("PIII.y1", Config(seed=seed)).passed
        assert walks == []
        params = dict(catalog.lookup("PIII.y1").params_exact)
        for _ in range(3):
            assert verify.full_report("PIII.y1", overrides=params).passed
        assert len(walks) == 6
        assert all(isinstance(kernel, fe.Kernel) for kernel in walks)
        assert [len(kernel.outputs) for kernel in walks] == [1, 3] * 3

    def test_replaced_decomposition_reads_its_own(self):
        # dataclasses.replace starts without the reading, so a mutated copy
        # (as TestStageSensitivity builds them) is read afresh.
        _, dec, _ = decomposition_for("PIII.y1")
        assert dec.invariance <= 1e-13
        mutated = dataclasses.replace(dec, R=dec.R + 0.01 * X)
        assert "invariance" not in mutated.__dict__
        assert mutated.invariance > 1e-5

    def test_vanishing_phi_reads_not_finite(self):
        # phi = f + t h vanishes at a probe x for every t: the reading is
        # not finite, so it fails every gate.
        _, dec, _ = decomposition_for("PII.y0")
        x_k = _invariance_probes(dec)[0][5]
        singular = dataclasses.replace(dec, f=2 * (X - x_k))
        assert not np.isfinite(singular.invariance)
