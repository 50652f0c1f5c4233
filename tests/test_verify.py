import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fuchsreduce import catalog, expr as fe, reduction as red_mod, verify
from fuchsreduce.catalog import LaxPair
from fuchsreduce.config import Config
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
        p = verify.prepare(catalog.lookup("negative.PII_bad_y1"))
        dev, _ = verify.check_t_independence(p, n_pairs=16, seed=3)
        assert dev >= 1e-3

    def test_frame_fit_validates(self, prep):
        for entry_id in ALL_IDS:
            assert prep(entry_id).frame_residual <= 1e-9

    @pytest.mark.parametrize("n_pairs", [0, -1])
    def test_no_pairs_is_an_error(self, prep, n_pairs):
        # With no pair to compare the stage would report 0.0, under its gate.
        with pytest.raises(ValueError, match="n_pairs"):
            verify.check_t_independence(prep("negative.PII_bad_y1"), n_pairs=n_pairs)


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
        ((x1, t1, x2),) = catalog.random_points(rng, (prep.box_x, prep.box_t, prep.box_x), 1)
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
        ref_prep, new_prep = verify.prepare(catalog.lookup(entry_id)), verify.prepare(catalog.lookup(entry_id))
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
            p = verify.prepare(catalog.lookup("PII.y0"))
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


def _scan_distinct(taus):
    """The dedup match_classical ran before exact repeats were dropped."""
    uniq = []
    for tau in taus:
        if all(abs(tau - u) > 1e-10 for u in uniq):
            uniq.append(tau)
    return uniq


class TestDistinctTaus:
    CASES = {
        "exact repeats": [1.5 + 0.2j, 1.5 + 0.2j, 2 - 1j, 1.5 + 0.2j, 2 - 1j],
        "pairs as sampled": [z for z in (0.3 + 1j, 0.7 - 2j, 1.1 + 0j) for _ in (0, 1)],
        "signed zeros": [complex(1.0, -0.0), complex(1.0, 0.0), complex(1.0, -0.0)],
        "within 1e-10": [1.0, 1.0 + 6e-11, 1.0 - 6e-11, 1.0 + 6e-11, 1.0 + 1.2e-10,
                         1.0 + 1.2e-10, 1.0 + 6e-11j],
        "just above 1e-10": [1.0, 1.0 + 1.01e-10, 1.0 + 2.02e-10, 1.0 + 1.01e-10,
                             1.0 - 1.01e-10, 1.0 + 1.01e-10j, 1.0 - 1.01e-10],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_as_scan(self, name):
        taus = self.CASES[name]
        assert [repr(z) for z in verify._distinct_taus(taus)] == \
            [repr(z) for z in _scan_distinct(taus)]

    def test_same_as_scan_on_clustered_draws(self):
        # Values on a 0.5e-10 lattice with exact repeats: every kind of
        # near and exact coincidence, in many orders.
        rng = np.random.default_rng(12)
        for _ in range(300):
            k = rng.integers(0, 8, size=rng.integers(1, 40))
            taus = [complex(1.25 + 0.5e-10 * a, 0.5e-10 * b)
                    for a, b in zip(k, rng.permutation(k))]
            assert [repr(z) for z in verify._distinct_taus(taus)] == \
                [repr(z) for z in _scan_distinct(taus)]

    def test_report_samples(self, prep):
        p = prep("PV.y_m1")
        _, samples = verify.check_t_independence(p, n_pairs=32, seed=42)
        taus = [p.to_paper_frame(*s)[0] for s in samples]
        assert verify._distinct_taus(taus) == _scan_distinct(taus)
        assert len(verify._distinct_taus(taus)) == 32


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


def _channels(values):
    """Trace rows (phi1, phi2, log E, S, log g) with E and g exponentiated:
    the rows (phi1, phi2, E, S, gauge)."""
    out = np.array(values)
    out[[2, 4]] = np.exp(out[[2, 4]])
    return out


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
        trace = verify._trace(prep_zero, 0.5, 1.0, 2.0, initial=(1.0, 0.0))
        for s in np.linspace(0, trace.edges[-1], 7):
            state = trace(s)
            assert state[0] == pytest.approx(1.0, abs=1e-12)
            assert state[1] == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_returns_to_start(self, prep):
        p = prep("PII.y0")
        fwd = verify._trace(p, 0.5, 1.0, 2.0, initial=(1.0, 0.0))
        end = fwd(fwd.edges[-1])[:2]
        back = verify._trace(p, 0.5, 2.0, 1.0, initial=(end[0], end[1]))
        start = back(back.edges[-1])[:2]
        assert abs(start[0] - 1.0) <= 1e-8
        assert abs(start[1] - 0.0) <= 1e-8

    def test_against_second_integrator(self, prep):
        # Independent oracle: same system, different solver family and
        # tolerance, no shared dense machinery.
        p = prep("PII.y0")
        trace = verify._trace(p, 0.5, 1.0, 2.0, initial=(1.0, 0.0))
        a = p.entry.lax.a
        fns = [fe.compile_expr(a[i][j]) for i in range(2) for j in range(2)]

        def rhs(x, y):
            a11, a12, a21, a22 = (f(complex(x), 0.5 + 0j) for f in fns)
            return [a11 * y[0] + a12 * y[1], a21 * y[0] + a22 * y[1]]

        res = solve_ivp(rhs, (1.0, 2.0), np.array([1.0 + 0j, 0.0 + 0j]),
                        method="RK45", rtol=1e-12, atol=1e-12)
        ours = trace(trace.edges[-1])[:2]
        assert abs(ours[0] - res.y[0, -1]) <= 1e-8 * max(1, abs(ours[0]))
        assert abs(ours[1] - res.y[1, -1]) <= 1e-8 * max(1, abs(ours[1]))

    def test_augmented_channels_match_quadrature(self, prep):
        # The E, S, gauge channels integrate the same quantities the
        # quadrature-based maps compute; they must agree.
        p = prep("PIII.y1")
        trace = verify._trace(p, 0.9, 2.0, 2.4, initial=(1.0, 0.0))
        for s in (0.1, 0.25, 0.4):
            x = 2.0 + s
            e, ssum, g = _channels(trace(s))[2:]
            assert e == pytest.approx(p.red.E(x), rel=1e-9)
            assert abs(ssum - p.red.S(x)) <= 1e-9
            assert g == pytest.approx(p.red.gauge(x), rel=1e-9)


def _compiled_a(lax):
    """(x, t) -> (a11, a12, a21, a22), compiled for the scalar oracles."""
    return fe.compile_expr((*lax.a[0], *lax.a[1]))


def _dop853_trace(prep, t_fixed, x0, x1, initial):
    """The five channels (phi1, phi2, E, S, gauge) of a trace by a DOP853
    dense solve at the panel trace's tolerances: an independent oracle."""
    x0, x1 = complex(x0), complex(x1)
    length = abs(x1 - x0)
    u = (x1 - x0) / length
    t_fixed = complex(t_fixed)
    red, dec = prep.red, prep.dec
    h, f, G = (fe.compile_expr(e) for e in (dec.h, dec.f, dec.gauge_exponent()))
    if prep.entry.lax is not None:
        a_entries = _compiled_a(prep.entry.lax)
    else:
        p1_q1 = fe.compile_expr((dec.sp.p1, dec.sp.q1))

    def rhs(s, y):
        x = x0 + u * s
        if prep.entry.lax is not None:
            a11, a12, a21, a22 = a_entries(x, t_fixed)
        else:
            p1, q1 = p1_q1(x, t_fixed)
            a11, a12, a21, a22 = 0, 1, -q1, -p1
        return [u * (a11 * y[0] + a12 * y[1]), u * (a21 * y[0] + a22 * y[1]),
                u * h(x, t_fixed) * y[2], u * f(x, t_fixed) * y[2],
                u * G(x, t_fixed) * y[4]]

    y0 = np.array([*initial, red.E(x0), red.S(x0), red.gauge(x0)], dtype=complex)
    res = verify.solve_ivp(rhs, (0.0, length), y0, method="DOP853",
                           rtol=1e-12, atol=1e-13, dense_output=True)
    assert res.success
    return res.sol


def _entry_with_a(prep, a):
    """A copy of the workspace whose entry has x-matrix ``a`` (E, S and the
    gauge still come from the original decomposition)."""
    import copy

    entry = copy.copy(prep.entry)
    entry.lax = LaxPair(a, a)
    out = copy.copy(prep)
    out.entry = entry
    return out


class TestPanelTrace:
    """The panel walker's linear-system solve behind ``_trace``
    (``expr._walk_panels``): accuracy against an independent DOP853 solve,
    its dense output and its failure paths."""

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_channels_match_dop853(self, prep, entry_id):
        p = prep(entry_id)
        t = complex(0.5 * (p.box_t.re_lo + p.box_t.re_hi), 0.0)
        off_basepoint = (p.box_x.re_lo + 0.1 + 0.05j, p.box_x.re_hi - 0.1 - 0.05j)
        assert off_basepoint[0] != p.red.basepoint_x
        for path in (verify._default_cross_path(p), off_basepoint):
            trace = verify._trace(p, t, *path, initial=(1.0, 0.4 + 0.1j))
            oracle = _dop853_trace(p, t, *path, (1.0, 0.4 + 0.1j))
            s = np.linspace(0.0, trace.edges[-1], 301)
            ours, ref = _channels(trace(s)), oracle(s)
            # S is zero up to rounding when f vanishes, so every channel's
            # scale is at least 1 (the size of E and of the initial vector).
            scale = np.maximum(np.max(np.abs(ref), axis=1), 1.0)
            assert (np.max(np.abs(ours - ref), axis=1) <= 1e-10 * scale).all()

    def test_scalar_and_array_calls_agree(self, prep):
        p = prep("PII.y0")
        trace = verify._trace(p, 1.0, *verify._default_cross_path(p), initial=(1.0, 0.4 + 0.1j))
        s = np.linspace(0.0, trace.edges[-1], 17)
        table = _channels(trace(s))
        assert table.shape == (5, 17)
        for k, sk in enumerate(s):
            one = _channels(trace(float(sk)))
            assert one.shape == (5,)
            np.testing.assert_allclose(one, table[:, k], rtol=1e-14, atol=0)

    def test_panel_edges_agree_from_both_sides(self, prep):
        p = prep("PII.y0")
        trace = verify._trace(p, 1.0, *verify._default_cross_path(p), initial=(1.0, 0.4 + 0.1j))
        edges = trace.edges[1:-1]
        assert len(edges) >= 1
        for edge in edges:
            left = _channels(trace(np.nextafter(edge, 0.0)))
            right = _channels(trace(float(edge)))
            assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(right))

    def test_pole_on_a_panel_node_raises_the_kernel_class(self, prep):
        # 1.5 is the middle node of the first panel of [1, 2].
        zero = fe.const(0)
        pole = fe.div(fe.const(1), fe.sub(fe.X, fe.const(1.5)))
        p = _entry_with_a(prep("PII.y0"), ((zero, pole), (zero, zero)))
        with pytest.raises(ZeroDivisionError):
            verify._trace(p, 0.5, 1.0, 2.0, initial=(1.0, 1.0))

    def test_unresolvable_system_hits_the_depth_cap(self, prep):
        # a12 = 1e6 [Im(x) < 0]: log(x - 2) - log(2 - x) jumps by 2 pi i
        # where the path crosses Im x = 0.  The kink it puts in phi1 stays
        # above the tail tolerance on every panel down to the depth cap.
        c = fe.const(2.0)
        jump = fe.sub(fe.sub(fe.log(fe.sub(fe.X, c)), fe.log(fe.sub(c, fe.X))),
                      fe.const(-1j * np.pi))
        step = fe.mul(fe.const(1e6 / (2j * np.pi)), jump)
        zero = fe.const(0)
        p = _entry_with_a(prep("PII.y0"), ((zero, step), (zero, zero)))
        with pytest.raises(verify.VerifyError, match="did not converge"):
            verify._trace(p, 0.5, 1.5 - 0.3j, 1.5 + 0.7j, initial=(1.0, 1.0))

    def test_panel_budget_raises(self, prep, monkeypatch):
        zero, k = fe.const(0), fe.const(200.0)
        p = _entry_with_a(prep("PII.y0"), ((zero, k), (fe.neg(k), zero)))
        monkeypatch.setattr(fe, "_MAX_PANELS", 8)
        with pytest.raises(verify.VerifyError, match="more than 8 panels"):
            verify._trace(p, 0.5, 1.0, 2.0, initial=(1.0, 0.0))

    def test_zero_length_path_raises(self, prep):
        with pytest.raises(verify.VerifyError, match="nonzero length"):
            verify._trace(prep("PII.y0"), 0.5, 1.5, 1.5, initial=(1.0, 0.0))

    def test_nan_coefficient_raises(self, prep):
        # (1e200 x)^2 overflows to inf, and inf - inf is nan.
        big = fe.mul(fe.const(1e200), fe.X)
        nan = fe.sub(fe.mul(big, big), fe.mul(big, big))
        zero = fe.const(0)
        p = _entry_with_a(prep("PII.y0"), ((nan, zero), (zero, zero)))
        with pytest.raises(verify.VerifyError, match="non-finite"):
            verify._trace(p, 0.5, 1.0, 2.0, initial=(1.0, 0.0))


def _dop853_joint(prep, x_anchor, t_center, dt=5e-3, span=0.6):
    """phi(x, t) of :func:`verify.joint_solution` by DOP853 dense solves at
    the same tolerances: the transport along the straight t-segment, then
    each x-leg, as a function of the fraction u of the segment or leg."""
    lax = prep.entry.lax
    a_entries = _compiled_a(lax)
    b = fe.compile_expr((*lax.b[0], *lax.b[1]))
    comp = 0 if prep.entry.component == "first" else 1

    def solve(matrix, y0):
        res = verify.solve_ivp(lambda u, y: _times(matrix(u), y), (0.0, 1.0),
                               np.asarray(y0, dtype=complex), method="DOP853",
                               rtol=1e-12, atol=1e-13, dense_output=True)
        assert res.success
        return res.sol

    legs = {}
    for k in (-2, -1, 0, 1, 2):
        tk = t_center + k * dt
        y0 = solve(lambda u: [k * dt * v for v in b(x_anchor, t_center + u * k * dt)],
                   [1.0, 0.4 + 0.1j])(1.0)
        for side in (1, -1):
            legs[k, side] = solve(lambda u, tk=tk, side=side: [
                side * span * v for v in a_entries(x_anchor + u * side * span, tk)], y0)

    def phi(x, k):
        s = (x - x_anchor).real
        return legs[k, 1 if s >= 0 else -1](abs(s) / span)[comp]

    return phi


def _times(m, y):
    a11, a12, a21, a22 = m
    return [a11 * y[0] + a12 * y[1], a21 * y[0] + a22 * y[1]]


class TestJointSolution:
    @pytest.mark.parametrize("entry_id, x_anchor, t_center", [
        ("PII.y0", 1.6 + 0.1j, 0.7 + 0.1j),
        ("PIII.y1", 2.0 - 0.15j, 0.9 + 0.1j),
        ("PV.y_m1", 1.8, 0.9),
    ])
    def test_legs_match_dop853(self, prep, entry_id, x_anchor, t_center):
        p = prep(entry_id)
        ours = verify.joint_solution(p, x_anchor, t_center)
        oracle = _dop853_joint(p, x_anchor, t_center)
        xs = [x_anchor + s for s in np.linspace(-0.6, 0.6, 25)]
        for k in (-2, -1, 0, 1, 2):
            got = np.array([ours(x, t_center + k * 5e-3) for x in xs])
            ref = np.array([oracle(x, k) for x in xs])
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), k


class TestCrossValidate:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_reduced_equation_on_trace(self, prep, entry_id):
        assert verify.cross_validate(prep(entry_id)) <= 1e-6

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_residual_floor(self, prep, entry_id):
        # Derivatives of the trace's own series leave rounding, not
        # truncation error: 1.3e-13 to 3.2e-11 on these entries.
        assert verify.cross_validate(prep(entry_id)) <= 1e-9

    @pytest.mark.parametrize("entry_id, name", [("PIII.y1", "theta_inf"),
                                                ("PVdeg.kitaev_sqrt", "kappa")])
    def test_far_parameter_passes(self, entry_id, name):
        # At -6 a 5-point stencil's truncation error alone exceeded the
        # 1e-6 gate; every other gate is below 4e-12.
        rep = verify.full_report(entry_id, overrides={name: Fraction(-6)})
        assert rep.passed, rep.errors
        assert rep.cross_validation_residual <= 1e-9

    def test_exponential_solutions_for_constant_target(self, prep):
        # With Q = -1 and P = 0 the reduced solutions are combinations of
        # exp(tau) and exp(-tau); fit both coefficients and check the trace.
        p = prep("PIV.y_m2t")
        entry = p.entry
        t_fixed = 1.0
        trace = verify._trace(p, t_fixed, 1.0, 2.4, initial=(1.0, 0.0))
        obs = 0 if entry.component == "first" else 1
        ss = np.linspace(0.05, trace.edges[-1] - 0.05, 80)
        taus = []
        ws = []
        for s in ss:
            rows = _channels(trace(s))
            e, ssum, g = rows[2:]
            taus.append(p.frame_a * (t_fixed * e + ssum) + p.frame_b)
            ws.append(rows[obs] / g)
        taus = np.asarray(taus)
        ws = np.asarray(ws)
        basis = np.column_stack([np.exp(taus), np.exp(-taus)])
        coef, *_ = np.linalg.lstsq(basis, ws, rcond=None)
        resid = np.max(np.abs(basis @ coef - ws)) / np.max(np.abs(ws))
        assert resid <= 1e-6


def _add_quadratic_to_observable(coeffs, obs):
    # A T_2 term on every panel: continuous across panel edges (T_2(+-1) = 1)
    # but no longer a solution of the system.
    coeffs[:, obs, 2] += 1e-3 * np.max(np.abs(coeffs[:, obs, 0]))


def _scale_log_g(coeffs, obs):
    coeffs[:, 4] *= 1.001


def _scale_s(coeffs, obs):
    coeffs[:, 3] *= 1.001


class TestCrossValidateCanFail:
    """The stage sees a trace that is wrong: one that no longer solves the
    system, or whose gauge or S channel is off by 0.1%.  The series is
    perturbed after the solve, before the stage reads it."""

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_perturbed_trace_fails(self, prep, entry_id):
        p = prep(entry_id)
        t = complex(0.5 * (p.box_t.re_lo + p.box_t.re_hi), 0.0)
        trace = verify._trace(p, t, *verify._default_cross_path(p), initial=(1.0, 0.4 + 0.1j))
        obs = 0 if p.entry.component == "first" else 1
        ways = [_add_quadratic_to_observable]
        # log g is 0 on the PII entries, whose gauge is 1; S is 0 when f is.
        if np.max(np.abs(trace.coeffs[:, 4])) > 1e-12:
            ways.append(_scale_log_g)
        if not p.dec.f_zero:
            ways.append(_scale_s)
        real_trace = verify._trace
        for perturb in ways:
            def perturbed_trace(*args, **kwargs):
                got = real_trace(*args, **kwargs)
                perturb(got.coeffs, obs)
                return got

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "_trace", perturbed_trace)
                resid = verify.cross_validate(p)
            assert resid > Config().tol_crossval, (perturb.__name__, resid)


class TestCrossValidateBatched:
    """The stage evaluates all its points in one batch: a bad point among
    them fails it."""

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


def _run_python(code: str, **env_overrides) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this
    checkout's package."""
    import fuchsreduce

    src = os.path.dirname(os.path.dirname(fuchsreduce.__file__))
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


_VERIFY_ALL = ("from fuchsreduce import cli\n"
               "cli.main(['verify', '--all', '--with-negative', '--json'])\n")


class TestLazyScipy:
    def test_import_leaves_scipy_integrate_unloaded(self):
        # solve_ivp stays a module attribute, so it can be wrapped from
        # outside, but scipy.integrate is imported only on its first call.
        out = _run_python("import sys, fuchsreduce\n"
                          "from fuchsreduce import verify\n"
                          "print('scipy.integrate' in sys.modules, "
                          "'solve_ivp' in verify.__dict__)\n")
        assert out.split() == ["False", "True"]

    def test_verify_all_leaves_scipy_integrate_unloaded(self):
        # No scipy module at all: scipy is a test-only dependency.
        out = _run_python(_VERIFY_ALL + "import sys\n"
                          "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert out.splitlines()[-1] == "[]"

    def test_joint_solution_leaves_scipy_integrate_unloaded(self):
        out = _run_python("import sys\n"
                          "from fuchsreduce import catalog, verify\n"
                          "p = verify.prepare(catalog.lookup('PIII.y1'))\n"
                          "phi = verify.joint_solution(p, 2.0 - 0.15j, 0.9 + 0.1j)\n"
                          "phi(2.3 - 0.15j, 0.9 + 0.1j + 5e-3)\n"
                          "print('scipy.integrate' in sys.modules)\n")
        assert out.split() == ["False"]

    def test_verify_all_bytes_do_not_depend_on_blas_threads(self):
        one = _run_python(_VERIFY_ALL, OPENBLAS_NUM_THREADS="1")
        two = _run_python(_VERIFY_ALL, OPENBLAS_NUM_THREADS="2")
        assert one.startswith("[")
        assert one == two


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


class TestConfigValues:
    GATES = ("tol_frobenius", "tol_flow", "tol_independence", "tol_match",
             "tol_crossval", "target_param_tol")

    @pytest.mark.parametrize("name", GATES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_gate_must_be_finite_and_positive(self, name, bad):
        with pytest.raises(ValueError, match=name):
            Config(**{name: bad})

    @pytest.mark.parametrize("name", ["box_x", "box_t"])
    @pytest.mark.parametrize("box", [(float("nan"), 2.5, -0.2, 0.2),
                                     (1.1, float("inf"), -0.2, 0.2),
                                     (1.1, 2.5, -0.2, float("nan"))])
    def test_box_bounds_must_be_finite(self, name, box):
        with pytest.raises(ValueError, match=name):
            Config(**{name: box})

    @pytest.mark.parametrize("basepoint", [complex(float("nan"), 0.0),
                                           complex(1.8, float("inf"))])
    def test_basepoint_must_be_finite(self, basepoint):
        with pytest.raises(ValueError, match="basepoint"):
            Config(basepoint=basepoint)


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
