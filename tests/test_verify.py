import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fuchsreduce import catalog, expr as fe, reduction as red_mod, verify
from fuchsreduce.catalog import LaxPair
from fuchsreduce.config import Config
from fuchsreduce.expr import Binding, Path
from fuchsreduce.targets import ClassicalTarget

ALL_IDS = catalog.list_entries()


class TestTIndependence:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_deviation_within_tolerance(self, prep, entry_id):
        dev, samples = verify.check_t_independence(prep(entry_id), n_pairs=32, seed=5)
        assert dev <= 1e-8
        assert len(samples) == 64

    def test_flat_entry_explicit_pair(self, prep):
        # (x, t) = (1, 4) and (2, 1) share the documented tau value 5; the
        # reduced coefficient there is -5/4.
        p = prep("PII.y0")
        red = p.red
        tau1 = red.tau_at(1.0, 4.0)
        tau2 = red.tau_at(2.0, 1.0)
        assert tau1 == pytest.approx(tau2, abs=1e-10)
        for x, t in ((1.0, 4.0), (2.0, 1.0)):
            tau, P, Q = p.to_paper_frame(red.tau_at(x, t), *red.coefficients_at(x, t))
            assert tau == pytest.approx(5.0, abs=1e-9)
            assert Q == pytest.approx(-5.0 / 4.0, abs=1e-9)

    def test_constant_target_pairs(self, prep):
        p = prep("PIV.y_m2t")
        _, samples = verify.check_t_independence(p, n_pairs=16, seed=11)
        for tau, P, Q in (p.to_paper_frame(*s) for s in samples):
            assert abs(P) <= 1e-10
            assert Q == pytest.approx(-1.0, abs=1e-10)

    def test_negative_control_deviates(self):
        p = verify.prepare("negative.PII_bad_y1")
        dev, _ = verify.check_t_independence(p, n_pairs=16, seed=3)
        assert dev >= 1e-3

    def test_frame_fit_validates(self, prep):
        for entry_id in ALL_IDS:
            assert prep(entry_id).frame_residual <= 1e-9


def _scalar_t_independence(prep, n_pairs, seed):
    """Reference: the one-candidate-at-a-time loop that the batched stage
    replaced, with E and S integrated point by point on a memo miss."""
    entry = prep.entry
    red = prep.red
    rng = np.random.default_rng(seed)
    region = prep.box_t.inflated(3.0)
    samples = []
    max_dev = 0.0
    accepted = 0
    attempts = 0
    max_attempts = 200 * n_pairs
    while accepted < n_pairs and attempts < max_attempts:
        attempts += 1
        x1 = prep.box_x.random(rng)
        t1 = prep.box_t.random(rng)
        x2 = prep.box_x.random(rng)
        if abs(x2 - x1) < 0.05:
            continue
        try:
            tau = red.tau_at(x1, t1)
            t2 = red.solve_t(x2, tau)
            if not region.contains(t2):
                continue
            if any(abs(t2 - s) < 0.15 for s in entry.singular_t):
                continue
            if abs(red.tau_x_at(x1, t1)) < 1e-8 or abs(red.tau_x_at(x2, t2)) < 1e-8:
                continue
            p1c, q1c = red.coefficients_at(x1, t1)
            p2c, q2c = red.coefficients_at(x2, t2)
        except (fe.SingularEvaluationError, fe.QuadratureError,
                red_mod.DegenerateTauPointError, ZeroDivisionError, ValueError):
            continue
        scale = max(1.0, abs(p1c), abs(q1c), abs(p2c), abs(q2c))
        max_dev = max(max_dev, (abs(p1c - p2c) + abs(q1c - q2c)) / scale)
        samples.append((tau, p1c, q1c))
        samples.append((tau, p2c, q2c))
        accepted += 1
    if accepted < n_pairs:
        raise verify.VerifyError(
            f"could only place {accepted}/{n_pairs} tau-matched pairs inside "
            f"the probe region for {entry.id}")
    return max_dev, samples


def _record_tau_calls(prep):
    """The (x1, t1) of every candidate that reaches tau_at, in order."""
    calls = []
    tau_at = prep.red.tau_at

    def recorded(x, t):
        calls.append((x, t))
        return tau_at(x, t)

    prep.red.tau_at = recorded
    return calls


class TestTIndependenceBatched:
    """The chunked, prefetched stage against the scalar loop it replaced."""

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_same_candidates_pairs_and_samples(self, entry_id, seed):
        ref_prep, new_prep = verify.prepare(entry_id), verify.prepare(entry_id)
        ref_calls, new_calls = _record_tau_calls(ref_prep), _record_tau_calls(new_prep)
        ref_dev, ref = _scalar_t_independence(ref_prep, 32, seed)
        new_dev, new = verify.check_t_independence(new_prep, n_pairs=32, seed=seed)
        assert new_calls == ref_calls
        assert len(new) == len(ref) == 64
        assert abs(new_dev - ref_dev) <= 1e-14
        for got, want in zip(new, ref):
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * (1 + abs(w))

    def test_placement_failure_message_and_budget(self):
        # A deformation box this small leaves most t2 outside the region:
        # both loops place 2 of 3 pairs within the 200-per-pair budget.
        def small_box():
            p = verify.prepare("PII.y0")
            c = p.box_t.center
            box = catalog.ComplexRect(c.real, c.real + 0.12, c.imag, c.imag + 0.12)
            return dataclasses.replace(p, box_t=box)

        ref_prep, new_prep = small_box(), small_box()
        ref_calls, new_calls = _record_tau_calls(ref_prep), _record_tau_calls(new_prep)
        with pytest.raises(verify.VerifyError, match="could only place 2/3") as ref:
            _scalar_t_independence(ref_prep, 3, 5)
        with pytest.raises(verify.VerifyError, match="could only place 2/3") as new:
            verify.check_t_independence(new_prep, n_pairs=3, seed=5)
        assert str(new.value) == str(ref.value)
        assert new_calls == ref_calls
        assert 100 < len(new_calls) <= 600


class TestMatchClassical:
    def samples_for(self, prep, entry_id, n=24, seed=17):
        p = prep(entry_id)
        _, samples = verify.check_t_independence(p, n_pairs=n, seed=seed)
        return [p.to_paper_frame(*s) for s in samples]

    def test_airy_with_cuberoot_scale(self, prep):
        target, resid = verify.match_classical(self.samples_for(prep, "PII.y0"))
        assert target.kind == "airy"
        assert target.scale == pytest.approx(4 ** (1 / 3), rel=1e-8)
        assert resid <= 1e-8

    def test_airy_second_component_same_scale(self, prep):
        target, resid = verify.match_classical(self.samples_for(prep, "PII.y_inv_t"))
        assert target.kind == "airy"
        assert target.scale == pytest.approx(4 ** (1 / 3), rel=1e-8)
        assert resid <= 1e-8

    def test_airy_three_quarters_scale(self, prep):
        target, resid = verify.match_classical(self.samples_for(prep, "PIV.y_m2t3"))
        assert target.kind == "airy"
        assert target.scale == pytest.approx((3 / 4) ** (1 / 3), rel=1e-8)
        assert resid <= 1e-8

    def test_whittaker_from_third_family(self, prep):
        target, resid = verify.match_classical(self.samples_for(prep, "PIII.y1"))
        assert target.kind == "whittaker"
        assert target.kappa == pytest.approx(0.75, abs=1e-8)
        assert target.mu_sq == pytest.approx(1 / 16, abs=1e-8)
        assert resid <= 1e-8

    def test_whittaker_from_fifth_family(self, prep):
        target, resid = verify.match_classical(self.samples_for(prep, "PV.y_lin"))
        assert target.kind == "whittaker"
        assert target.kappa == pytest.approx(-1.0, abs=1e-8)
        assert target.mu_sq == pytest.approx(9 / 4, abs=1e-8)
        assert resid <= 1e-8

    def test_constant_targets(self, prep):
        for entry_id, c in (("PIV.y_m2t", 1.0), ("PV.y_m1", 0.25),
                            ("PVdeg.kitaev_sqrt", 1.0)):
            target, resid = verify.match_classical(self.samples_for(prep, entry_id))
            assert target.kind == "constant", entry_id
            assert target.c == pytest.approx(c, abs=1e-8)
            assert resid <= 1e-8

    def test_requires_enough_distinct_samples(self):
        samples = [(1.0 + 0j, 0j, -1.0 + 0j)] * 10
        with pytest.raises(verify.MatchError):
            verify.match_classical(samples)

    def test_clustered_samples_rejected(self):
        samples = [(1.0 + k * 1e-6, 0j, -1.0 + 0j) for k in range(10)]
        with pytest.raises(verify.MatchError):
            verify.match_classical(samples)

    def test_synthetic_linear_potential(self):
        taus = np.linspace(1.0, 3.0, 12)
        samples = [(complex(t), 0j, complex(-(2.0 + 0.5 * t))) for t in taus]
        target, resid = verify.match_classical(samples)
        assert target.kind == "linear_potential"
        assert target.a == pytest.approx(2.0, abs=1e-10)
        assert target.b == pytest.approx(0.5, abs=1e-10)
        assert resid <= 1e-10

    def test_unrecognized_returns_none(self):
        taus = np.linspace(1.0, 3.0, 16)
        samples = [(complex(t), complex(t**2), complex(-t)) for t in taus]
        target, resid = verify.match_classical(samples)
        assert target.kind == "none"


class TestSolveLinearSystem:
    def test_zero_system_constant_trace(self):
        # Swap a zero system into a copy of an entry: the trace must stay at
        # its initial value.
        import copy

        zero = fe.const(0)
        grid = ((zero, zero), (zero, zero))
        base = verify.prepare(catalog.lookup("PII.y0"))
        entry_zero = copy.copy(base.entry)
        entry_zero.lax = LaxPair(grid, grid)
        prep_zero = copy.copy(base)
        prep_zero.entry = entry_zero
        trace = verify._trace(prep_zero, 0.5, Path([1.0, 2.0]), initial=(1.0, 0.0))
        for s in np.linspace(0, trace.length, 7):
            state = trace.state(s)
            assert state[0] == pytest.approx(1.0, abs=1e-12)
            assert state[1] == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_returns_to_start(self, prep):
        p = prep("PII.y0")
        fwd = verify._trace(p, 0.5, Path([1.0, 2.0]), initial=(1.0, 0.0))
        end = fwd.state(fwd.length)[:2]
        back = verify._trace(p, 0.5, Path([2.0, 1.0]), initial=(end[0], end[1]))
        start = back.state(back.length)[:2]
        assert abs(start[0] - 1.0) <= 1e-8
        assert abs(start[1] - 0.0) <= 1e-8

    def test_against_second_integrator(self, prep):
        # Independent oracle: same system, different solver family and
        # tolerance, no shared dense machinery.
        p = prep("PII.y0")
        trace = verify._trace(p, 0.5, Path([1.0, 2.0]), initial=(1.0, 0.0))
        a = p.entry.lax.a
        fns = [fe.compile_expr(a[i][j], p.entry.params) for i in range(2) for j in range(2)]

        def rhs(x, y):
            a11, a12, a21, a22 = (f(complex(x), 0.5 + 0j) for f in fns)
            return [a11 * y[0] + a12 * y[1], a21 * y[0] + a22 * y[1]]

        res = solve_ivp(rhs, (1.0, 2.0), np.array([1.0 + 0j, 0.0 + 0j]),
                        method="RK45", rtol=1e-12, atol=1e-12)
        ours = trace.state(trace.length)[:2]
        assert abs(ours[0] - res.y[0, -1]) <= 1e-8 * max(1, abs(ours[0]))
        assert abs(ours[1] - res.y[1, -1]) <= 1e-8 * max(1, abs(ours[1]))

    def test_augmented_channels_match_quadrature(self, prep):
        # The E, S, gauge channels integrate the same quantities the
        # quadrature-based maps compute; they must agree.
        p = prep("PIII.y1")
        trace = verify._trace(p, 0.9, Path([2.0, 2.4]), initial=(1.0, 0.0))
        for s in (0.1, 0.25, 0.4):
            x = trace.x_of(s)
            e, ssum, g = trace.channels(s)
            vc = p.red._vc
            assert e == pytest.approx(vc.E(x), rel=1e-9)
            assert abs(ssum - vc.S(x)) <= 1e-9
            assert g == pytest.approx(vc.gauge(x), rel=1e-9)


class TestCrossValidate:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_reduced_equation_on_trace(self, prep, entry_id):
        assert verify.cross_validate(prep(entry_id)) <= 1e-6

    def test_exponential_solutions_for_constant_target(self, prep):
        # With Q = -1 and P = 0 the reduced solutions are combinations of
        # exp(tau) and exp(-tau); fit both coefficients and check the trace.
        p = prep("PIV.y_m2t")
        entry = p.entry
        t_fixed = 1.0
        trace = verify._trace(p, t_fixed, Path([1.0, 2.4]), initial=(1.0, 0.0))
        ss = np.linspace(0.05, trace.length - 0.05, 80)
        taus = []
        ws = []
        for s in ss:
            e, ssum, g = trace.channels(s)
            taus.append(p.frame_a * (t_fixed * e + ssum) + p.frame_b)
            ws.append(trace.phi(s) / g)
        taus = np.asarray(taus)
        ws = np.asarray(ws)
        basis = np.column_stack([np.exp(taus), np.exp(-taus)])
        coef, *_ = np.linalg.lstsq(basis, ws, rcond=None)
        resid = np.max(np.abs(basis @ coef - ws)) / np.max(np.abs(ws))
        assert resid <= 1e-6


class TestCrossValidateBatched:
    """The batched tau inversion: its cost and its failure paths."""

    @pytest.mark.parametrize("n_points", [201, 801])
    @pytest.mark.parametrize("entry_id", ["PII.y0", "PIII.y1", "PVdeg.kitaev_sqrt"])
    def test_dense_output_calls_do_not_grow_with_points(self, prep, monkeypatch,
                                                        entry_id, n_points):
        calls = [0]
        real_trace = verify._trace

        def counted_trace(*args, **kwargs):
            trace = real_trace(*args, **kwargs)
            sol = trace.sol

            def counted(s):
                calls[0] += 1
                return sol(s)

            trace.sol = counted
            return trace

        monkeypatch.setattr(verify, "_trace", counted_trace)
        assert verify.cross_validate(prep(entry_id), n_points=n_points) <= 1e-6
        assert 0 < calls[0] <= 12

    @pytest.mark.parametrize("entry_id", ["PII.y0", "PIII.y1", "PVdeg.kitaev_sqrt"])
    def test_matches_scalar_newton(self, prep, entry_id):
        # Reference: the per-target scalar Newton loop that the batched
        # inversion replaced, on the same trace, targets and guesses.
        p = prep(entry_id)
        t = complex(0.5 * (p.box_t.re_lo + p.box_t.re_hi), 0.0)
        trace = verify._trace(p, t, verify._default_cross_path(p),
                              initial=(1.0, 0.4 + 0.1j))
        length = trace.length
        u = (trace.x_end - trace.x_start) / length

        def tau_re(s):
            e, ssum, _ = trace.channels(s)
            return (t * e + ssum).real

        def scalar_newton(target, s):
            for _ in range(8):
                g = tau_re(s) - target
                dg = (p.red._phi(trace.x_of(s), t) * trace.channels(s)[0] * u).real
                if dg == 0:
                    break
                step = g / dg
                s = min(max(s - step, 0.0), length)
                if abs(step) < 1e-13 * (1 + length):
                    break
            return s

        # A coarse table leaves Newton several steps to take.
        s_coarse = np.linspace(0.0, length, 9)
        tau_coarse = np.array([tau_re(s) for s in s_coarse])
        order = np.argsort(tau_coarse)
        lo, hi = sorted((tau_coarse[0], tau_coarse[-1]))
        taus = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 41)
        guesses = np.interp(taus, tau_coarse[order], s_coarse[order])
        batched = verify._invert_tau(trace, p.red._phi_array, t, taus, guesses)
        reference = [scalar_newton(tau, s) for tau, s in zip(taus, guesses)]
        assert np.max(np.abs(batched - reference)) <= 1e-12 * (1 + length)

    def test_unconverged_newton_raises(self, prep, monkeypatch):
        # tau_x ten times too large makes every Newton step ten times too
        # short, so the targets cannot settle within the step budget.
        p = prep("PII.y0")
        phi_array = p.red._phi_array
        monkeypatch.setattr(p.red, "_phi_array", lambda x, t: 10 * phi_array(x, t))
        with pytest.raises(verify.VerifyError, match="did not converge"):
            verify.cross_validate(p)

    def test_nonfinite_sample_fails_report(self, monkeypatch):
        # One NaN Q sample inside the stencil range must fail the stage,
        # not drop out of the max.
        real_trace = verify._trace

        def poison_then_trace(prep, *args, **kwargs):
            coeff_parts_array = prep.red._coeff_parts_array

            def q_nan(x, t):
                # cross_validate evaluates all points in one call, in order;
                # the 100th point gets the NaN.
                ph, p_num, q_num = coeff_parts_array(x, t)
                q_num = q_num.copy()
                q_num[99] = complex("nan")
                return ph, p_num, q_num

            monkeypatch.setattr(prep.red, "_coeff_parts_array", q_nan)
            return real_trace(prep, *args, **kwargs)

        monkeypatch.setattr(verify, "_trace", poison_then_trace)
        rep = verify.full_report("PII.y0")
        assert not rep.passed
        assert rep.cross_validation_residual is None
        assert [e for e in rep.errors if e.startswith("cross-validation: non-finite")]


class TestLazyScipy:
    def test_import_leaves_scipy_integrate_unloaded(self):
        # solve_ivp stays a module attribute, so it can be wrapped from
        # outside, but scipy.integrate is imported only on its first call.
        import fuchsreduce

        src = os.path.dirname(os.path.dirname(fuchsreduce.__file__))
        code = ("import sys, fuchsreduce\n"
                "from fuchsreduce import verify\n"
                "print('scipy.integrate' in sys.modules, "
                "'solve_ivp' in verify.__dict__)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]


class TestFullReport:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_positive_entries_pass(self, report, entry_id):
        rep = report(entry_id)
        assert rep.passed, rep.errors
        assert rep.match is not None
        assert rep.match.agrees_with(rep.expected_target)

    def test_whittaker_parameters_reported(self, report):
        rep = report("PV.y_lin")
        assert rep.match.kind == "whittaker"
        assert rep.match.kappa == pytest.approx(-1.0, abs=1e-6)
        assert rep.match.mu_sq == pytest.approx(2.25, abs=1e-6)

    def test_negative_control_fails_loudly(self, report):
        rep = report("negative.PII_bad_y1")
        assert not rep.passed
        assert rep.frobenius_max >= 1e-2
        assert rep.t_independence_max is None or rep.t_independence_max >= 1e-3
        # The batched tau inversion converges on the negative control too.
        assert rep.cross_validation_residual is not None

    def test_report_serializes(self, report):
        doc = report("PII.y0").to_json()
        assert doc["schema"] == "fuchs-reduce/1"
        assert doc["passed"] is True
        assert doc["match"]["kind"] == "airy"

    def test_loosened_tolerances_never_flip_pass(self):
        loose = Config(
            tol_frobenius=1e-9, tol_flow=1e-9, tol_independence=1e-7,
            tol_match=1e-7, tol_crossval=1e-5, target_param_tol=1e-5)
        for entry_id in ("PII.y0", "PVdeg.kitaev_sqrt"):
            assert verify.full_report(entry_id, loose).passed

    def test_basepoint_override_keeps_whittaker_parameters(self):
        cfg = Config(basepoint=1.8 + 0j)
        rep = verify.full_report("PIII.y1", cfg)
        assert rep.passed
        assert rep.match.kind == "whittaker"
        assert rep.match.kappa == pytest.approx(0.75, abs=1e-6)
        assert rep.match.mu_sq == pytest.approx(1 / 16, abs=1e-6)

    def test_frame_gate_is_reported_and_applied(self, monkeypatch):
        assert Config().tolerances_json()["frame"] == 1e-9
        # PII.y0's frame residual is about 1e-16, so a stricter gate fails
        # the report without any stage error.
        monkeypatch.setattr(verify, "FRAME_TOL", 1e-18)
        strict = verify.full_report("PII.y0")
        assert strict.frame_residual > 1e-18
        assert not strict.passed
        assert strict.errors == []

    def test_probe_box_override(self):
        cfg = Config(box_x=(1.3, 2.2, -0.1, 0.1), box_t=(0.6, 1.2, -0.1, 0.1))
        rep = verify.full_report("PIV.y_m2t", cfg)
        assert rep.passed
        assert rep.match.kind == "constant"
        with pytest.raises(ValueError):
            Config(box_x=(2.0, 1.0, 0.0, 0.0))


class TestTargets:
    def test_agreement_requires_matching_kind(self):
        a = ClassicalTarget.airy(2.0)
        c = ClassicalTarget.constant(1.0)
        assert not a.agrees_with(c)

    def test_agreement_tolerance(self):
        a = ClassicalTarget.whittaker(0.75, 0.0625)
        b = ClassicalTarget.whittaker(0.75 + 1e-9, 0.0625 - 1e-9)
        assert a.agrees_with(b)
        assert not a.agrees_with(ClassicalTarget.whittaker(0.8, 0.0625))
