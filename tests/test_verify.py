import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fuchsreduce import catalog, config, expr as fe, reduction as red_mod, scalarize, verify
from fuchsreduce.catalog import LaxPair
from fuchsreduce.config import FRAME_TOL, Config
from fuchsreduce.expr import Binding
from fuchsreduce.targets import ClassicalTarget
from test_expr import compiled
from test_metamorphic import GAUGES, MATRIX_IDS, gauged
from test_reduction import gauge_at

ALL_IDS = catalog.list_entries()


class TestTIndependence:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_deviation_within_tolerance(self, prep, entry_id):
        # The identity reading, largest 6.0e-15 (PV.y_m1), and one sample
        # per drawn t, all at the centre of the x box.
        p = prep(entry_id)
        dev, samples = verify.check_t_independence(p, n_points=32, seed=5)
        assert dev <= 1e-13
        assert dev == p.red.dec.invariance
        assert len(samples) == 32
        assert len(verify._distinct_taus([s[0] for s in samples])) == 32

    def test_flat_entry_explicit_pair(self, prep):
        # (x, t) = (1, 4) and (2, 1) share the documented tau value 5; the
        # reduced coefficient there is -5/4.
        p = prep("PII.y0")
        red = p.red
        tau1 = red.tau_at(1.0, 4.0)
        tau2 = red.tau_at(2.0, 1.0)
        assert tau1 == pytest.approx(tau2, abs=1e-10)
        for x, t in ((1.0, 4.0), (2.0, 1.0)):
            ((tau, P, Q),) = p.to_paper_frame([(red.tau_at(x, t), *red.coefficients_at(x, t))])
            assert tau == pytest.approx(5.0, abs=1e-9)
            assert Q == pytest.approx(-5.0 / 4.0, abs=1e-9)

    def test_constant_target_pairs(self, prep):
        p = prep("PIV.y_m2t")
        _, samples = verify.check_t_independence(p, n_points=16, seed=11)
        for tau, P, Q in p.to_paper_frame(samples):
            assert abs(P) <= 1e-10
            assert Q == pytest.approx(-1.0, abs=1e-10)

    def test_negative_control_deviates(self):
        # Samples at one x cannot see the t-dependence (match finds a
        # linear potential); the identity reads 8.94.
        p = verify.prepare(catalog.lookup("negative.PII_bad_y1"))
        dev, _ = verify.check_t_independence(p, n_points=16, seed=3)
        assert dev == pytest.approx(8.944, rel=1e-3)

    def test_frame_fit_validates(self, prep):
        for entry_id in ALL_IDS:
            assert prep(entry_id).frame_residual <= 1e-9

    def test_overflowing_draw_is_rejected(self, monkeypatch):
        # Every exception of expr._SAMPLE_ERRORS rejects a draw, an
        # OverflowError among them; the stage still places all its samples.
        # The error is raised in the one call on the line x = x0, at the
        # first draw: the call is run again t by t, only that draw is
        # dropped, and the next draw takes its place.
        p = verify.prepare(catalog.lookup("PII.y0"))
        dec = p.red.dec
        reading = dec.invariance
        line = dec._coeff_x0
        bad, raised = [], []

        def overflow_at_first_point(t):
            t = np.asarray(t)
            if not bad:
                bad.append(complex(t[0]))
            if bad[0] in t:
                raised.append(len(t))
                raise OverflowError("overflow in a draw")
            return line(t)

        monkeypatch.setitem(dec.__dict__, "_coeff_x0", overflow_at_first_point)
        dev, samples = verify.check_t_independence(p, n_points=32)
        # The call, then its one bad point alone: one rejection.
        assert raised == [32, 1]
        assert (dev, len(samples)) == (reading, 32)
        assert samples == _scalar_t_independence(p, 32, 42)
        monkeypatch.setitem(dec.__dict__, "_coeff_x0", line)
        _, unhurt = verify.check_t_independence(verify.prepare(catalog.lookup("PII.y0")),
                                                n_points=33)
        # The first draw is gone, and the other 32 keep their order.
        assert samples == unhurt[1:]

        # The same draw with phi too large to square: the call returns, and
        # (phi E)**2 rejects that draw alone, by OverflowError, in its place.
        def huge_phi_at_first_point(t):
            ph, p_num, q_num = line(t)
            return np.where(np.asarray(t) == bad[0], 1e155, ph), p_num, q_num

        monkeypatch.setitem(dec.__dict__, "_coeff_x0", huge_phi_at_first_point)
        e0 = p.red.E(dec.box_x.center)
        (ts,) = catalog.random_points(np.random.default_rng(42), (p.entry.box_t,), 3)
        got = p.red.coefficients_at_x0(ts, e0)
        assert isinstance(got[0], OverflowError)
        assert got[1:] == p.red.coefficients_at_x0(ts[1:], e0)
        assert verify.check_t_independence(p, n_points=32) == (reading, unhurt[1:])

    def test_failed_walk_to_x0_is_a_stage_error(self, monkeypatch):
        # Every sample sits at x0, so a walk there that fails ends the
        # stage at once, naming it.  A fresh entry, whose record holds no
        # x0: the failed walk records nothing, so every call walks again and
        # raises the same error, and a walk that succeeds is recorded.
        entry = catalog.lookup("PII.y0", dict(catalog.lookup("PII.y0").params_exact))
        walks = []

        def unresolved(red, x):
            walks.append(x)
            raise fe.QuadratureError("unresolved panel")

        monkeypatch.setattr(red_mod.ReducedEquation, "E", unresolved)
        for _ in range(2):
            with pytest.raises(verify.VerifyError,
                               match=r"^the E/S walk to x0 = 1\.8\+0j failed: unresolved panel$"):
                verify.check_t_independence(verify.prepare(entry))
        assert walks == [1.8 + 0j] * 2
        assert "x0" not in entry.certified
        monkeypatch.undo()
        verify.check_t_independence(verify.prepare(entry))
        assert entry.certified["x0"] == verify.prepare(entry).red._ES(1.8 + 0j)

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_no_points_is_an_error(self, prep, n_points):
        # With no sample the stage would give match nothing to fit.
        with pytest.raises(ValueError, match="n_points"):
            verify.check_t_independence(prep("negative.PII_bad_y1"), n_points=n_points)


def _scalar_t_independence(prep, n_points, seed):
    """Reference: the samples of the one-draw-at-a-time loop, with each
    point's coefficients from its own one-t call of the stage's kernel on
    the line x = x0, and E and S at x0 from the prep's reduced equation.
    E and S are walked afresh there when the stage read them from the
    entry's record, and the walk is deterministic, so the reference must
    give the stage's samples exactly."""
    entry = prep.entry
    red = prep.red
    x0 = entry.box_x.center
    rng = np.random.default_rng(seed)
    samples = []
    draws = 0
    while len(samples) < n_points and draws < 8 * n_points:
        draws += 1
        ((t,),) = catalog.random_points(rng, (entry.box_t,), 1)
        if any(abs(t - s) < 0.15 for s in entry.singular_t):
            continue
        (got,) = red.coefficients_at_x0([t], red.E(x0))
        if isinstance(got, Exception):
            continue
        samples.append((red.tau_at(x0, t), *got))
    if len(samples) < n_points:
        raise verify.VerifyError(
            f"could only place {len(samples)}/{n_points} samples at x0 = {x0:.6g} "
            f"in {8 * n_points} draws for {entry.id}")
    return samples


def _record_x0_calls(prep):
    """The (t, E(x0)) of every drawn t that reaches the coefficients on the
    line x = x0 from now on, in order (a later call records into its own
    list)."""
    calls = []
    coefficients = type(prep.red).coefficients_at_x0

    def recorded(ts, e0):
        calls.extend((t, e0) for t in ts)
        return coefficients(prep.red, ts, e0)

    prep.red.coefficients_at_x0 = recorded
    return calls


class TestTIndependenceBatched:
    """The one-x stage, with one coefficient call on the line x = x0, and
    E and S at x0 from the entry's record, against the one-draw-at-a-time
    loop."""

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_same_candidates_pairs_and_samples(self, entry_id, seed):
        prep = verify.prepare(catalog.lookup(entry_id))
        new_calls = _record_x0_calls(prep)
        new_dev, new = verify.check_t_independence(prep, n_points=32, seed=seed)
        ref_calls = _record_x0_calls(prep)
        ref = _scalar_t_independence(prep, 32, seed)
        assert new_calls == ref_calls
        assert {e0 for _, e0 in new_calls} == {prep.red.E(prep.entry.box_x.center)}
        assert len(new) == len(ref) == 32
        assert (new_dev, new) == (prep.red.dec.invariance, ref)

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_batch_agrees_with_coefficients_at(self, entry_id, seed):
        # The stage's coefficients come from numpy's array arithmetic,
        # coefficients_at's from the staged scalar kernel: at every sampled
        # point they agree to rounding.
        prep = verify.prepare(catalog.lookup(entry_id))
        red = prep.red
        x0 = prep.entry.box_x.center
        points = []
        coefficients = red.coefficients_at_x0

        def recorded(ts, e0):
            got = coefficients(ts, e0)
            points.extend(zip(ts, got))
            return got

        red.coefficients_at_x0 = recorded
        verify.check_t_independence(prep, n_points=32, seed=seed)
        assert len(points) == 32
        for t, (P, Q) in points:
            want_p, want_q = red.coefficients_at(x0, t)
            scale = max(1.0, abs(want_p), abs(want_q))
            assert max(abs(P - want_p), abs(Q - want_q)) <= 1e-13 * scale

    def test_placement_failure_message_and_budget(self):
        # A singular t at the centre of a small deformation box: most draws
        # fall within 0.15 of it, and both loops run out of their 8 draws
        # per sample before placing 8 samples.
        entry = dataclasses.replace(catalog.lookup("PII.y0"), singular_t=(1.0 + 0j,))
        prep = verify.prepare(entry, Config(box_t=(0.9, 1.16, -0.1, 0.1)))
        new_calls = _record_x0_calls(prep)
        with pytest.raises(verify.VerifyError, match="could only place [0-7]/8 ") as new:
            verify.check_t_independence(prep, n_points=8, seed=5)
        ref_calls = _record_x0_calls(prep)
        with pytest.raises(verify.VerifyError) as ref:
            _scalar_t_independence(prep, 8, 5)
        assert str(new.value) == str(ref.value)
        assert new_calls == ref_calls
        assert str(new.value).endswith("in 64 draws for PII.y0")


class TestSingularTFilter:
    """The stage tests its draws against a singular t only when the t box
    comes within 0.15 of it: the draws it keeps are those of the
    one-draw-at-a-time loop, which tests every draw."""

    def test_box_near_a_singular_t_still_drops_draws(self):
        # --box-t=0.05,0.45,-0.2,0.2 on PIII.y1, whose singular t is 0:
        # some draws fall within 0.15 of it, and the stage drops them.
        prep = verify.prepare(catalog.lookup("PIII.y1"), Config(box_t=(0.05, 0.45, -0.2, 0.2)))
        assert prep.entry.box_t.distance(0j) == 0.05
        new_calls = _record_x0_calls(prep)
        new = verify.check_t_independence(prep, n_points=16, seed=3)[1]
        ref_calls = _record_x0_calls(prep)
        ref = _scalar_t_independence(prep, 16, 3)
        assert (new_calls, new) == (ref_calls, ref)
        (drawn,) = catalog.random_points(np.random.default_rng(3), (prep.entry.box_t,), 16)
        dropped = [t for t in drawn if abs(t) < 0.15]
        assert dropped and not set(dropped) & {t for t, _ in new_calls}

    def test_far_singular_t_is_read_once(self):
        # The default t box lies 0.5 from t = 0: the stage reads the
        # singular t once, for its distance test, and tests no draw against
        # it; its samples are those of the loop that tests every draw.
        iterations = []

        class Recorded(tuple):
            def __iter__(self):
                iterations.append(None)
                return super().__iter__()

        entry = dataclasses.replace(catalog.lookup("PIII.y1"), singular_t=Recorded((0j,)))
        prep = verify.prepare(entry)
        assert prep.entry.box_t.distance(0j) == 0.5
        new = verify.check_t_independence(prep, n_points=32, seed=42)[1]
        assert len(iterations) == 1
        assert new == _scalar_t_independence(prep, 32, 42)


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
        # The early exit's boundaries: sorted real parts exactly 1e-10 apart
        # or equal take the scan, as does a NaN; an infinite tau does not.
        "real parts 1e-10 apart": [0.5, 0.0, 1e-10, complex(2e-10, 0.5), 1e-10 + 0.5j],
        "equal real parts": [1.0 + 0j, 1.0 + 1j, 2.0 + 0j, 1.0 - 2j, 1.0 + 1j],
        "a nan tau": [1.0 + 0j, complex(float("nan"), 0.0), 2.0 - 1j, 0.5 + 1j],
        "an inf tau": [1.0 + 0j, complex(float("inf"), 0.0), 2.0 - 1j, complex(-float("inf"), 1.0)],
        # An infinite tau that takes the scan: its distance to itself is
        # inf - inf, which must not warn.
        "an inf tau and a nan": [1.0 + 0j, complex(float("inf"), 0.0),
                                 complex(float("nan"), 0.0), 2.0 - 1j],
        "an inf tau and a near pair": [1.0 + 0j, complex(float("inf"), 1.0), 1.0 + 6e-11,
                                       2.0 - 1j, complex(float("inf"), 1.0)],
        # Distances that Python's abs rounds to 1e-10 and just above it,
        # where numpy's complex abs rounds the other way.
        "abs at 1e-10": [0j, complex(9.589819866042345e-11, 2.834670163680353e-11),
                         complex(-7.958874440847287e-11, -6.054446104709151e-11), 1 + 0.5j],
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

    def test_same_as_scan_on_random_lists_with_repeats(self):
        # Spread draws, some of them repeated exactly, in random order.
        rng = np.random.default_rng(5)
        for _ in range(300):
            z = rng.uniform(-2, 2, size=(rng.integers(0, 48), 2)) @ [1, 1j]
            taus = [complex(v) for v in np.concatenate([z, rng.choice(z, len(z) // 3)])
                    ] if len(z) else []
            taus = [taus[k] for k in rng.permutation(len(taus))]
            assert [repr(v) for v in verify._distinct_taus(taus)] == \
                [repr(v) for v in _scan_distinct(taus)]

    def test_same_as_scan_property(self):
        # Spread values mixed with exact repeats and copies moved by less
        # than, about or more than 1e-10, in any order.
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        base = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
        offset = st.sampled_from([0, 3e-11, 9.9e-11, 1e-10, 1.01e-10, 2e-10, 1e-9])
        direction = st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / 2 ** 0.5])

        @st.composite
        def taus(draw):
            values = draw(st.lists(base, min_size=0, max_size=24))
            for _ in range(draw(st.integers(0, 6)) if values else 0):
                value = draw(st.sampled_from(values))
                values.append(value + draw(offset) * draw(direction))
            return draw(st.permutations(values))

        @hyp.settings(max_examples=400, deadline=None, derandomize=True,
                      database=None)
        @hyp.given(taus())
        def check(values):
            assert [repr(z) for z in verify._distinct_taus(values)] == \
                [repr(z) for z in _scan_distinct(values)]

        check()

    def test_report_samples(self, prep):
        p = prep("PV.y_m1")
        _, samples = verify.check_t_independence(p, n_points=32, seed=42)
        taus = [s[0] for s in p.to_paper_frame(samples)]
        assert verify._distinct_taus(taus) == _scan_distinct(taus)
        assert len(verify._distinct_taus(taus)) == 32


class TestMatchClassical:
    def samples_for(self, prep, entry_id, n=24, seed=17):
        p = prep(entry_id)
        _, samples = verify.check_t_independence(p, n_points=n, seed=seed)
        return p.to_paper_frame(samples)

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
        doc = target.to_json()
        assert list(doc) == ["kind", "a", "b"]
        assert doc["a"]["re"] == pytest.approx(2.0, abs=1e-10)
        assert doc["b"]["re"] == pytest.approx(0.5, abs=1e-10)
        assert target.agrees_with(ClassicalTarget.linear_potential(2.0, 0.5))
        assert not target.agrees_with(ClassicalTarget.linear_potential(2.0, 0.6))

    def test_unrecognized_returns_none(self):
        taus = np.linspace(1.0, 3.0, 16)
        samples = [(complex(t), complex(t**2), complex(-t)) for t in taus]
        target, resid = verify.match_classical(samples)
        assert target.kind == "none"


def _walk_matrix(a, t):
    """The ``matrix`` of a system walk of the x-matrix ``a`` at fixed t,
    built as the leg builds its own: A and dA/dt from the jets of the
    system's kernel."""
    return verify._leg_matrix(LaxPair(a, a), t)


def _walk(a, t, x0, x1, start):
    """The dense output (Phi1, Phi2, Psi1, Psi2) of one system walk."""
    return fe._walk_panels((), x0, x1, fe._ATOL, (_walk_matrix(a, t), start))


def _stage_leg(p):
    """The leg cross-validation walks: from the centre of the x box to 0.1
    short of its right edge."""
    x0 = p.entry.box_x.center
    return x0, complex(p.entry.box_x.re_hi - 0.1, x0.imag)


def _stage_t(p):
    """The t cross-validation walks at: the midpoint of the real range."""
    return complex(0.5 * (p.entry.box_t.re_lo + p.entry.box_t.re_hi), 0.0)


def _compiled_a_dadt(a):
    """(x, t) -> the entries of A and then of dA/dt, compiled for the
    scalar oracles."""
    entries = (*a[0], *a[1])
    return compiled((*entries, *(fe.differentiate(e, "t") for e in entries)))


def _tangent_rhs(m, y):
    """(Phi, Psi)' = (A Phi, A Psi + A_t Phi) for the entries ``m`` of
    A and A_t."""
    a11, a12, a21, a22, d11, d12, d21, d22 = m
    return [a11 * y[0] + a12 * y[1], a21 * y[0] + a22 * y[1],
            a11 * y[2] + a12 * y[3] + d11 * y[0] + d12 * y[1],
            a21 * y[2] + a22 * y[3] + d21 * y[0] + d22 * y[1]]


class TestSolveLinearSystem:
    """The system mode of the panel walker (``expr._walk_panels``): Phi
    and its t-variation Psi."""

    def test_zero_system_constant_trace(self):
        # A zero system keeps Phi and Psi at their start values.
        zero = fe.const(0)
        grid = ((zero, zero), (zero, zero))
        start = (1.0, 0.0, 0.3, -0.2j)
        leg = _walk(grid, 0.5, 1.0, 2.0, start)
        for s in np.linspace(0, leg.edges[-1], 7):
            assert np.max(np.abs(leg(s) - start)) <= 1e-12

    def test_round_trip_returns_to_start(self, prep):
        a = prep("PII.y0").red.dec.sp.system.a
        fwd = _walk(a, 0.5, 1.0, 2.0, (1.0, 0.0, 0.0, 0.0))
        back = _walk(a, 0.5, 2.0, 1.0, fwd(fwd.edges[-1]))
        start = back(back.edges[-1])
        assert np.max(np.abs(start - [1.0, 0.0, 0.0, 0.0])) <= 1e-8

    def test_against_second_integrator(self, prep):
        # Independent oracle: same system, different solver family and
        # tolerance, no shared dense machinery.
        a = prep("PII.y0").red.dec.sp.system.a
        leg = _walk(a, 0.5, 1.0, 2.0, (1.0, 0.0, 0.0, 0.0))
        fns = _compiled_a_dadt(a)
        res = solve_ivp(lambda x, y: _tangent_rhs(fns(complex(x), 0.5 + 0j), y), (1.0, 2.0),
                        np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
                        method="RK45", rtol=1e-12, atol=1e-12)
        ours = leg(leg.edges[-1])
        assert (np.abs(ours - res.y[:, -1]) <= 1e-8 * np.maximum(1, np.abs(ours))).all()

    def test_t_variation_is_b_phi_on_a_compatible_entry(self, prep):
        # Psi starts as B Phi and, on a compatible entry, B Phi solves the
        # same equation, so they agree along the leg, although the walk
        # evaluates B only at the leg's start.
        p = prep("PIII.y1")
        b = compiled(tuple(e for row in p.entry.lax.b for e in row))
        leg = verify._walk_leg(p, 0.9, 2.0, 2.4)
        for s in (0.1, 0.25, 0.4):
            phi1, phi2, psi1, psi2 = leg(s)
            b11, b12, b21, b22 = b(2.0 + s, 0.9 + 0j)
            want = np.array([b11 * phi1 + b12 * phi2, b21 * phi1 + b22 * phi2])
            assert np.max(np.abs([psi1, psi2] - want)) <= 1e-10 * np.max(np.abs(want))


def _dop853_leg(prep, t, x0, x1):
    """The rows (Phi1, Phi2, Psi1, Psi2) of ``verify._walk_leg`` by a
    DOP853 dense solve at the panel walk's tolerances, from the same
    start, on the same system: an independent oracle."""
    systems = prep.red.dec.sp.system
    fns = _compiled_a_dadt(systems.a)
    x0, x1, t = complex(x0), complex(x1), complex(t)
    length = abs(x1 - x0)
    u = (x1 - x0) / length
    b11, b12, b21, b22 = compiled(tuple(e for row in systems.b for e in row))(x0, t)
    phi1, phi2 = verify._PHI0
    y0 = np.array([phi1, phi2, b11 * phi1 + b12 * phi2, b21 * phi1 + b22 * phi2])
    res = verify.solve_ivp(lambda s, y: [u * v for v in _tangent_rhs(fns(x0 + u * s, t), y)],
                           (0.0, length), y0, method="DOP853",
                           rtol=1e-12, atol=1e-13, dense_output=True)
    assert res.success
    return res.sol


class TestPanelTrace:
    """The walker's system mode as cross-validation runs it
    (``verify._walk_leg``) and on hand-made systems: accuracy against an
    independent DOP853 solve, its dense output and its failure paths."""

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_channels_match_dop853(self, prep, entry_id):
        p = prep(entry_id)
        t = _stage_t(p)
        off_axis = (p.entry.box_x.re_lo + 0.1 + 0.05j, p.entry.box_x.re_hi - 0.1 - 0.05j)
        for path in (_stage_leg(p), off_axis):
            leg = verify._walk_leg(p, t, *path)
            oracle = _dop853_leg(p, t, *path)
            s = np.linspace(0.0, leg.edges[-1], 301)
            ours, ref = leg(s), oracle(s)
            scale = np.maximum(np.max(np.abs(ref), axis=1), 1.0)
            assert (np.max(np.abs(ours - ref), axis=1) <= 1e-10 * scale).all()

    def test_scalar_and_array_calls_agree(self, prep):
        leg = verify._walk_leg(prep("PII.y0"), 1.0, 1.0, 2.45)
        s = np.linspace(0.0, leg.edges[-1], 17)
        table = leg(s)
        assert table.shape == (4, 17)
        for k, sk in enumerate(s):
            one = leg(float(sk))
            assert one.shape == (4,)
            np.testing.assert_allclose(one, table[:, k], rtol=1e-14, atol=0)

    def test_panel_edges_agree_from_both_sides(self, prep):
        leg = verify._walk_leg(prep("PII.y0"), 1.0, 1.0, 2.45)
        edges = leg.edges[1:-1]
        assert len(edges) >= 1
        for edge in edges:
            left = leg(np.nextafter(edge, 0.0))
            right = leg(float(edge))
            assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(right))

    def test_pole_on_a_panel_node_raises_the_kernel_class(self):
        # 1.5 is the middle node of the first panel of [1, 2].
        zero = fe.const(0)
        pole = fe.div(fe.const(1), fe.sub(fe.X, fe.const(1.5)))
        with pytest.raises(fe.SingularEvaluationError, match="^division by zero$"):
            _walk(((zero, pole), (zero, zero)), 0.5, 1.0, 2.0, (1.0, 1.0, 0.0, 0.0))

    def test_unresolvable_system_hits_the_depth_cap(self):
        # a12 = 1e6 [Im(x) < 0]: log(x - 2) - log(2 - x) jumps by 2 pi i
        # where the path crosses Im x = 0.  The kink it puts in phi1 stays
        # above the tail tolerance on every panel down to the depth cap.
        c = fe.const(2.0)
        jump = fe.sub(fe.sub(fe.log(fe.sub(fe.X, c)), fe.log(fe.sub(c, fe.X))),
                      fe.const(-1j * np.pi))
        step = fe.mul(fe.const(1e6 / (2j * np.pi)), jump)
        zero = fe.const(0)
        with pytest.raises(fe.QuadratureError, match="did not converge"):
            _walk(((zero, step), (zero, zero)), 0.5, 1.5 - 0.3j, 1.5 + 0.7j,
                  (1.0, 1.0, 0.0, 0.0))

    def test_panel_budget_raises(self, monkeypatch):
        zero, k = fe.const(0), fe.const(200.0)
        monkeypatch.setattr(fe, "_MAX_PANELS", 8)
        with pytest.raises(fe.QuadratureError, match="more than 8 panels"):
            _walk(((zero, k), (fe.neg(k), zero)), 0.5, 1.0, 2.0, (1.0, 0.0, 0.0, 0.0))

    def test_zero_length_path_raises(self, prep):
        with pytest.raises(fe.QuadratureError, match="nonzero length"):
            verify._walk_leg(prep("PII.y0"), 0.5, 1.5, 1.5)

    def test_nan_coefficient_raises(self):
        # (1e200 x)^2 overflows to inf, and inf - inf is nan.
        big = fe.mul(fe.const(1e200), fe.X)
        nan = fe.sub(fe.mul(big, big), fe.mul(big, big))
        zero = fe.const(0)
        with pytest.raises(fe.QuadratureError, match="non-finite"):
            _walk(((nan, zero), (zero, zero)), 0.5, 1.0, 2.0, (1.0, 0.0, 0.0, 0.0))


def _dop853_joint(prep, x_anchor, t_center, dt=5e-3, span=0.6):
    """phi(x, t_center + k dt), |k| <= 2, of one joint solution by DOP853
    dense solves: the transport along the straight t-segment from
    ``t_center`` with y_t = B(x_anchor, t) y, then each x-leg from the
    anchor, as a function of the fraction u of the segment or leg.  phi is
    the first component of the leg's system (``ScalarPair.system``)."""
    systems = prep.red.dec.sp.system
    a_entries = compiled((*systems.a[0], *systems.a[1]))
    b = compiled((*systems.b[0], *systems.b[1]))

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
                   verify._PHI0)(1.0)
        for side in (1, -1):
            legs[k, side] = solve(lambda u, tk=tk, side=side: [
                side * span * v for v in a_entries(x_anchor + u * side * span, tk)], y0)

    def phi(x, k):
        s = (x - x_anchor).real
        return legs[k, 1 if s >= 0 else -1](abs(s) / span)[0]

    return phi


def _times(m, y):
    a11, a12, a21, a22 = m
    return [a11 * y[0] + a12 * y[1], a21 * y[0] + a22 * y[1]]


class TestJointSolution:
    """The leg of cross-validation is one joint solution of both systems:
    Phi matches DOP853 on the x-legs from the anchor, and Psi the 5-point
    t-difference of DOP853 solutions transported in t."""

    @pytest.mark.parametrize("entry_id, x_anchor, t_center", [
        ("PII.y0", 1.6 + 0.1j, 0.7 + 0.1j),
        ("PIII.y1", 2.0 - 0.15j, 0.9 + 0.1j),
        ("PV.y_m1", 1.8, 0.9),
    ])
    def test_legs_match_dop853(self, prep, entry_id, x_anchor, t_center):
        p = prep(entry_id)
        oracle = _dop853_joint(p, x_anchor, t_center)
        dt = 5e-3
        for side in (1, -1):
            leg = verify._walk_leg(p, t_center, x_anchor, x_anchor + side * 0.6)
            s = np.linspace(0.0, 0.6, 25)
            xs = x_anchor + side * s
            phi, psi = leg(s)[[0, 2]]
            want_phi = np.array([oracle(x, 0) for x in xs])
            want_psi = np.array([(oracle(x, -2) - 8 * oracle(x, -1) + 8 * oracle(x, 1)
                                  - oracle(x, 2)) / (12 * dt) for x in xs])
            assert np.max(np.abs(phi - want_phi)) <= 1e-10 * np.max(np.abs(want_phi))
            assert np.max(np.abs(psi - want_psi)) <= 1e-8 * np.max(np.abs(want_psi))


class TestCrossValidate:
    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_reduced_equation_on_trace(self, prep, entry_id):
        assert verify.cross_validate(prep(entry_id)) <= 1e-6

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_residual_floor(self, prep, entry_id):
        # mu is constant to rounding on the shipped entries (1.9e-14 to
        # 4.3e-14).  The negative control's t-system is not compatible
        # with its x-system, and its mu varies at 2.8e-2.
        got = verify.cross_validate(prep(entry_id))
        if prep(entry_id).entry.is_negative:
            assert got >= 1e-3
        else:
            assert got <= 1e-12

    @pytest.mark.parametrize("entry_id, name", [("PIII.y1", "theta_inf"),
                                                ("PVdeg.kitaev_sqrt", "kappa")])
    def test_far_parameter_passes(self, entry_id, name):
        # At -6 a 5-point stencil's truncation error alone exceeded the
        # 1e-6 gate; every other gate is below 4e-12.
        rep = verify.full_report(entry_id, overrides={name: Fraction(-6)})
        assert rep.passed, rep.errors
        assert rep.cross_validation_residual <= 1e-9

    @pytest.mark.parametrize("box_x", [(2.0, 2.2, -0.1, 0.1), (1.1, 1.3, 0.0, 0.0),
                                       (1.1, 1.30001, 0.0, 0.0)])
    @pytest.mark.parametrize("entry_id", ["PIII.y1", "PII.y0", "PVdeg.kitaev_sqrt",
                                          "negative.PII_bad_y1"])
    def test_narrow_x_box(self, entry_id, box_x):
        # The leg spans a fixed share of the box's real width, so it has
        # nonzero length on a box 0.2 wide and its mu is constant to
        # rounding there as on the default box.
        p = verify.prepare(catalog.lookup(entry_id), Config(box_x=box_x))
        got = verify.cross_validate(p)
        if p.entry.is_negative:
            assert got >= 1e-3
        else:
            assert got <= 1e-12

    def test_singular_coefficient_names_the_leg(self):
        # kappa t + 1 = 0 at the stage's t = 1 when kappa = -1: q1 and the
        # t-system have a pole for every x.  The Frobenius grid holds t = 1
        # too, so that stage fails first.
        rep = verify.full_report("PVdeg.kitaev_sqrt", overrides={"kappa": Fraction(-1)})
        assert rep.errors == ["frobenius: division by zero",
                              "cross-validation: singular coefficient on the leg "
                              "[1.8+0j, 2.4+0j] at t = 1+0j: division by zero"]
        assert rep.frobenius_max is None
        assert rep.cross_validation_residual is None

    def test_leg_reads_the_component_its_decomposition_reduced(self, prep):
        # PV.y_m1 reduces through either component.  Decomposed through the
        # second, which its entry does not choose, the leg walks the swapped
        # system, whose first component is the second of the solution, and
        # passes as the first does.
        p = prep("PV.y_m1")
        entry = p.entry
        assert p.red.dec.sp.component == "first"
        assert p.red.dec.sp.system is entry.lax
        sp = scalarize.scalar_coefficients(entry.lax, "second")
        assert sp.system.a[0][1] is entry.lax.a[1][0]
        dec = red_mod.decompose(sp, entry.box_x, entry.box_t)
        second = dataclasses.replace(p, red=red_mod.build_reduced(dec, p.red.basepoint_x))
        assert verify.cross_validate(second) <= 1e-11
        assert verify.cross_validate(p) <= 1e-12

    def test_exponential_solutions_for_constant_target(self):
        # With Q = -1 and P = 0 the reduced solutions are combinations of
        # exp(tau) and exp(-tau); fit both coefficients to w = phi / g
        # along a leg.
        p = verify.prepare(catalog.lookup("PIV.y_m2t"))
        t = 1.0
        leg = verify._walk_leg(p, t, 1.0, 2.4)
        ss = np.linspace(0.05, leg.edges[-1] - 0.05, 80)
        xs = 1.0 + ss
        taus = np.array([p.frame_a * p.red.tau_at(x, t) + p.frame_b for x in xs])
        ws = leg(ss)[0] / np.array([gauge_at(p.red.dec, p.red.basepoint_x, x) for x in xs])
        basis = np.column_stack([np.exp(taus), np.exp(-taus)])
        coef, *_ = np.linalg.lstsq(basis, ws, rcond=None)
        resid = np.max(np.abs(basis @ coef - ws)) / np.max(np.abs(ws))
        assert resid <= 1e-6


def _add_quadratic_to_observable(coeffs):
    # A T_2 term on every panel of phi, the first row: continuous across
    # panel edges (T_2(+-1) = 1) but no longer a solution of the system.
    coeffs[:, 0, 2] += 1e-3 * np.max(np.abs(coeffs[:, 0, 0]))


def _scale_t_variation(coeffs):
    coeffs[:, 2] *= 1.001


class TestCrossValidateCanFail:
    """The stage sees a leg that is wrong: one whose phi no longer solves
    the system, or whose t-derivative is off by 0.1%.  The series is
    perturbed after the walk, before the stage reads it."""

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_perturbed_trace_fails(self, prep, entry_id):
        p = prep(entry_id)
        real_walk = verify._walk_leg
        for perturb in (_add_quadratic_to_observable, _scale_t_variation):
            def perturbed_walk(*args):
                got = real_walk(*args)
                perturb(got.coeffs)
                return got

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "_walk_leg", perturbed_walk)
                resid = verify.cross_validate(p)
            assert resid > Config().tol_crossval, (perturb.__name__, resid)


class TestCrossValidateBatched:
    """The stage evaluates mu at all its points in one batch: a bad point
    among them fails it."""

    def test_nonfinite_sample_fails_report(self, monkeypatch):
        # One NaN G sample among the 9 points of the leg must fail the
        # stage, not drop out of the spread, whether the poisoned call is
        # the first of the leg's (G, h, f) view or follows a call of its
        # own; no call compiles it.  Each report is on a fresh entry
        # (overrides equal to the defaults), whose record holds no
        # cross-validation outcome that a report on the default entry could
        # have kept.
        real_view = fe.Kernel.view
        defaults = dict(catalog.lookup("PII.y0").params_exact)

        class Poisoned(fe.Kernel):
            __slots__ = ()

            def __call__(self, x, t):
                G, h, f = super().__call__(x, t)
                if np.shape(x) == (9,):
                    G = G.copy()
                    G[4] = complex("nan")
                return G, h, f

        for taped in (False, True):
            kernels = []

            def poisoned_view(kernel, first):
                view = real_view(kernel, first)
                if first == 3 and len(kernel.exprs) == 6:  # the coefficients' (G, h, f)
                    view.__class__ = Poisoned
                    if taped:
                        view(np.zeros(2), 0j)     # a call before the report's
                    kernels.append(view)
                return view

            monkeypatch.setattr(fe.Kernel, "view", poisoned_view)
            rep = verify.full_report("PII.y0", overrides=defaults)
            assert not rep.passed
            assert rep.cross_validation_residual is None
            assert rep.errors == ["cross-validation: non-finite mu at x = 2.1+0j on the leg "
                                  "[1.8+0j, 2.4+0j] at t = 1+0j"]
            assert len(kernels) == 1 and not hasattr(kernels[0], "__dict__")


_MUTATIONS = {
    "h*(1+eps)": lambda dec: dataclasses.replace(dec, h=dec.h * 1.001),
    "h+eps": lambda dec: dataclasses.replace(dec, h=dec.h + 1e-3),
    "f+eps": lambda dec: dataclasses.replace(dec, f=dec.f + 1e-3),
    "R+eps": lambda dec: dataclasses.replace(dec, R=dec.R + 1e-3),
    "R+eps*x": lambda dec: dataclasses.replace(dec, R=dec.R + 1e-3 * fe.X),
}


def _gauge_equivalent(dec, mutated) -> bool:
    """Whether ``mutated`` is ``dec`` up to the split's gauge freedom:
    the same f and h, h = 0, and R moved by a constant multiple of f."""
    points = [Binding(x=x) for x in dec.box_x.diagonal(7)]

    def values(e):
        return np.array([fe.evaluate(e, b) for b in points])

    f = values(dec.f)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(f))))
    if not (dec.h_zero and np.max(np.abs(values(mutated.f) - f)) <= tol
            and np.max(np.abs(values(mutated.h) - values(dec.h))) <= tol):
        return False
    ratio = (values(mutated.R) - values(dec.R)) / f
    return float(np.max(np.abs(ratio - ratio[0]))) <= 1e-12


class TestStageSensitivity:
    """Mutations of f, h and R, built with ``dataclasses.replace`` on the
    decomposition, through four stages: cross-validation, t-independence
    and match each fail every one that changes the reduction and pass the
    gauge-equivalent ones.  The frame fit compares tau alone, so it fails
    every mutation of f or h that changes the reduction and cannot see R.
    The same holds on every matrix entry under every gauge in t of
    ``test_metamorphic``, among them the f = 0 entries whose M the gauge
    makes vary, which could not be reduced before M was recovered as a
    function of t."""

    @pytest.mark.parametrize("entry_id", ALL_IDS)
    def test_mutations(self, prep, entry_id):
        self._check_mutations(prep(entry_id), entry_id)

    @pytest.mark.parametrize("gauge", GAUGES)
    @pytest.mark.parametrize("entry_id", MATRIX_IDS)
    def test_mutations_under_t_gauge(self, entry_id, gauge):
        entry = gauged(catalog.lookup(entry_id), gauge)
        self._check_mutations(verify.prepare(entry), entry_id)

    @staticmethod
    def _check_mutations(p, entry_id):
        cfg = Config()
        equivalent = []
        for name, mutate in _MUTATIONS.items():
            dec = mutate(p.red.dec)
            red = red_mod.build_reduced(dec, p.red.basepoint_x)
            a, b, frame = verify._tau_frame(p.entry, red)
            mutated = dataclasses.replace(p, red=red, frame_a=a, frame_b=b,
                                          frame_residual=frame)
            cross = verify.cross_validate(mutated)
            dev, samples = verify.check_t_independence(mutated)
            # E and S at x0 are walked on the mutated equation, not read
            # from the entry's record.
            assert samples == _scalar_t_independence(mutated, 32, 42), name
            matched = _matches(mutated, samples, cfg)
            if _gauge_equivalent(p.red.dec, dec):
                equivalent.append(name)
                assert cross <= 1e-12 and dev <= 1e-12, (name, cross, dev)
                assert frame <= FRAME_TOL and matched, (name, frame)
            else:
                # Smallest readings: 1.44e-5 and 1.59e-5, both on PIV.y_m2t3.
                assert cross > cfg.tol_crossval and dev > cfg.tol_independence, (
                    name, cross, dev)
                assert not matched, name
                if name.startswith("R"):
                    # Largest reading 2.9e-16: tau does not depend on R.
                    assert frame <= FRAME_TOL, (name, frame)
                else:
                    # Smallest reading 1.59e-5, PII.y_inv_t's f+eps.
                    assert frame > FRAME_TOL, (name, frame)
        assert equivalent == (["h*(1+eps)", "R+eps*x"] if entry_id.startswith("PII.") else [])


def _matches(prep, samples, cfg) -> bool:
    """Whether the samples, mapped by the frame of ``prep``, match the
    entry's documented target, as ``full_report`` gates it."""
    try:
        target, resid = verify.match_classical(
            prep.to_paper_frame(samples), tol=cfg.tol_match)
    except verify.MatchError:
        return False
    return resid <= cfg.tol_match and target.agrees_with(
        prep.entry.expected_target, tol=config.TARGET_PARAM_TOL)


def test_no_solve_is_larger_than_50x50(monkeypatch):
    # Above about 100 rows an OpenBLAS that is not pinned to one thread
    # hands a solve to worker threads, which on 2 cores stalls it for up
    # to 0.1 s; the panel walk keeps every system at 50x50.  Fresh entries
    # (overrides equal to the defaults), so every stage walks, the ones a
    # default entry runs once included.
    sizes = []
    solve = np.linalg.solve

    def recorded(a, b):
        sizes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    for entry_id in ALL_IDS + catalog.list_negative_entries():
        verify.full_report(entry_id, overrides=dict(catalog.lookup(entry_id).params_exact))
    assert sizes
    assert max(max(s) for s in sizes) <= 50


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
                          "leg = verify._walk_leg(p, 0.9 + 0.1j, 2.0 - 0.15j, 2.6 - 0.15j)\n"
                          "leg(0.3, derivatives=1)\n"
                          "print('scipy.integrate' in sys.modules)\n")
        assert out.split() == ["False"]

    def test_verify_all_bytes_do_not_depend_on_blas_threads(self):
        one = _run_python(_VERIFY_ALL, OPENBLAS_NUM_THREADS="1")
        two = _run_python(_VERIFY_ALL, OPENBLAS_NUM_THREADS="2")
        assert one.startswith("[")
        assert one == two


class TestFullReport:
    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_one_generator_per_report(self, monkeypatch, entry_id):
        # A report seeds one generator, inside check_t_independence, with
        # the entry seed; the flow stage reads 16 t on the t box's diagonal.
        config = Config(seed=3)
        entry = catalog.lookup(entry_id, dict(catalog.lookup(entry_id).params_exact))
        seed = config.entry_seed(entry_id)
        want_flow = catalog.flow_residual(entry, entry.box_t.diagonal(16))
        want = verify.check_t_independence(verify.prepare(entry, config), seed=seed)
        seeded, got, flow_ts = [], [], []
        real_rng, real_check = np.random.default_rng, verify.check_t_independence
        real_flow = catalog.flow_residual

        def check(prep, **kw):
            seeded.append("enter")
            got.append(real_check(prep, **kw))
            seeded.append("exit")
            return got[-1]

        monkeypatch.setattr(catalog, "lookup", lambda *_: entry)
        monkeypatch.setattr(np.random, "default_rng", lambda *args: seeded.append(
            args) or real_rng(*args))
        monkeypatch.setattr(verify, "check_t_independence", check)
        monkeypatch.setattr(catalog, "flow_residual", lambda e, ts: flow_ts.append(
            list(ts)) or real_flow(e, ts))
        rep = verify.full_report(entry_id, config)
        assert seeded == ["enter", (seed,), "exit"]
        assert flow_ts == [entry.box_t.diagonal(16)]
        assert rep.flow_max == want_flow
        assert got == [want]

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_flow_reading_is_the_entrys(self, monkeypatch, entry_id):
        # The flow reading does not depend on the seed, and after an
        # entry's first report no later report runs the flow stage.
        entry = catalog.lookup(entry_id, dict(catalog.lookup(entry_id).params_exact))
        monkeypatch.setattr(catalog, "lookup", lambda *_: entry)
        first = verify.full_report(entry_id, Config(seed=42))
        calls = []
        real_flow = catalog.flow_residual
        monkeypatch.setattr(catalog, "flow_residual", lambda e, ts: calls.append(
            e) or real_flow(e, ts))
        second = verify.full_report(entry_id, Config(seed=7))
        assert calls == []
        assert second.flow_max == first.flow_max is not None

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
        assert doc["schema"] == "fuchs-reduce/2"
        assert doc["passed"] is True
        assert doc["match"]["kind"] == "airy"

    def test_non_finite_numbers_are_null_and_named(self, report):
        rep = dataclasses.replace(report("PII.y0"), t_independence_max=float("nan"),
                                  frame=(complex(float("inf"), 0.0), 1j))
        doc = rep.to_json()
        assert doc["passed"] is False
        assert doc["t_independence_max"] is None
        assert doc["frame"]["a"] == {"re": None, "im": 0.0}
        assert doc["non_finite"] == {"t_independence_max": "nan", "frame.a.re": "inf"}
        assert report("PII.y0").to_json()["non_finite"] == {}

    def test_loosened_tolerances_never_flip_pass(self):
        loose = Config(
            tol_frobenius=1e-9, tol_flow=1e-9, tol_independence=1e-7,
            tol_match=1e-7, tol_crossval=1e-5)
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
        monkeypatch.setattr(config, "FRAME_TOL", 1e-18)
        strict = verify.full_report("PII.y0")
        assert strict.tolerances["frame"] == 1e-18
        assert strict.frame_residual > 1e-18
        assert not strict.passed
        assert strict.errors == []

    def test_failed_draw_keeps_the_invariance_reading(self):
        # On this box x0 = 0 is a zero of phi = 2x, so every draw of a
        # sample is rejected.  The invariance reading depends on the
        # decomposition alone, and the report keeps it.
        config = Config(box_x=(-0.5, 0.5, -0.2, 0.2))
        rep = verify.full_report("PII.y0", config)
        assert rep.errors == ["t-independence: could only place 0/32 samples at x0 = 0+0j "
                              "in 256 draws for PII.y0"]
        reading = verify.prepare(catalog.lookup("PII.y0"), config).red.dec.invariance
        assert rep.t_independence_max == reading <= Config().tol_independence
        assert rep.match is None and not rep.passed

    def test_failed_draw_skips_match_alone(self):
        # Match reads the failed draw's samples and is skipped;
        # cross-validation reads the reduction and still runs.
        rep = verify.full_report("PII.y0", Config(box_x=(-0.5, 0.5, -0.2, 0.2)))
        assert [e.partition(": ")[0] for e in rep.errors] == ["t-independence"]
        assert rep.match is None and rep.match_residual is None
        assert rep.cross_validation_residual <= Config().tol_crossval

    def test_stage_table_runs_in_pipeline_order(self):
        names = [stage.name for stage in verify.STAGES]
        assert names == ["flow", "frobenius", "reduction", "t-independence", "match",
                         "cross-validation"]
        # Each stage reads the output of an earlier one, or none.
        for k, stage in enumerate(verify.STAGES):
            assert stage.reads is None or stage.reads in names[:k], stage.name

    def test_reduction_failure_is_recorded(self):
        # theta_inf = 1/2 makes the first component's a-offdiag entry
        # vanish, and the second's p2 is not affine in t: the reduction
        # stage fails, naming both, the stages before it are recorded and
        # none after it runs.
        rep = verify.full_report("PIII.y1", overrides={"theta_inf": Fraction(1, 2)})
        assert rep.errors == ["reduction: first component: a-offdiag entry vanishes on the "
                              "probe set; cannot scalarize the first component; second "
                              "component: the off-diagonal ratio p2 is not affine in the "
                              "deformation variable"]
        assert rep.flow_max is not None and rep.frobenius_max is not None
        assert (rep.case_tag, rep.frame, rep.t_independence_max, rep.match,
                rep.cross_validation_residual) == (None,) * 5
        assert not rep.passed

    def test_box_override_reaches_every_stage(self, monkeypatch):
        # The flow, Frobenius, frame and later stages all probe the run's
        # boxes, not the entry's own.
        box_t = (0.8, 1.8, -0.1, 0.3)
        cfg = Config(box_t=box_t)
        rect = catalog.ComplexRect(*box_t)
        flow_calls = []
        real_flow = catalog.flow_residual

        def recording(entry, ts):
            flow_calls.append(list(ts))
            return real_flow(entry, ts)

        monkeypatch.setattr(catalog, "flow_residual", recording)
        rep = verify.full_report("PII.y0", cfg)
        assert rep.passed, rep.errors
        # One call takes the 16 t on the override box's diagonal.
        assert flow_calls == [rect.diagonal(16)]
        entry = catalog.lookup("PII.y0")
        grid = [(x, t) for x in entry.box_x.diagonal(5) for t in rect.diagonal(5)]
        assert rep.frobenius_max == scalarize.frobenius_residual_grid(entry.lax, grid)
        p = verify.prepare(entry, cfg)
        assert p.entry.box_t == rect and p.entry.box_x == entry.box_x
        assert rep.frame == (p.frame_a, p.frame_b)

    def test_probe_box_override(self):
        cfg = Config(box_x=(1.3, 2.2, -0.1, 0.1), box_t=(0.6, 1.2, -0.1, 0.1))
        rep = verify.full_report("PIV.y_m2t", cfg)
        assert rep.passed
        assert rep.match.kind == "constant"
        with pytest.raises(ValueError):
            Config(box_x=(2.0, 1.0, 0.0, 0.0))


class TestCertifiedRecord:
    """The stages that depend on the entry alone (flow, Frobenius, frame
    fit, the E/S walk to x0, cross-validation) run once per entry, and
    their outcomes are kept in its record, ``CatalogEntry.certified``."""

    # The table's once rows, and the frame fit and the walk to x0, which
    # prepare and check_t_independence record.
    STAGES = (*(stage.name for stage in verify.STAGES if stage.once), "frame", "x0")

    @staticmethod
    def _fresh(entry_id, config=Config()):
        # Overrides equal to the defaults build a new entry, with an empty
        # record.
        params = dict(catalog.lookup(entry_id).params_exact)
        return json.dumps(verify.full_report(entry_id, config, overrides=params).to_json())

    @pytest.mark.parametrize("entry_id", ALL_IDS + catalog.list_negative_entries())
    def test_warm_record_reports_as_a_fresh_entry(self, monkeypatch, entry_id):
        entry = catalog.lookup(entry_id)
        verify.full_report(entry_id)
        assert set(entry.certified) == set(self.STAGES)
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        # ReducedEquation.E is called by the walk to x0 alone.
        for module, name in ((verify, "cross_validate"), (verify, "_tau_frame"),
                             (catalog, "flow_residual"),
                             (scalarize, "frobenius_residual_grid"),
                             (red_mod.ReducedEquation, "E")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        warm = [json.dumps(verify.full_report(entry_id, Config(seed=s)).to_json())
                for s in (42, 7, 1)]
        assert calls == []
        assert warm == [self._fresh(entry_id, Config(seed=s)) for s in (42, 7, 1)]
        assert len(calls) == 3 * len(entry.certified)

    def test_box_and_basepoint_runs_leave_the_record_alone(self, monkeypatch):
        # Poisoned outcomes in the default entry's record: a run on other
        # boxes reads none of them, and a run at another basepoint reads
        # neither the frame nor E and S at x0.  Flow, Frobenius and
        # cross-validation do not depend on the basepoint, so that run reads
        # them; they are restored first.
        entry = catalog.lookup("PIII.y1")
        verify.full_report("PIII.y1")
        kept = dict(entry.certified)
        poison = {"flow": 1.0, "frobenius": 1.0, "frame": (3j, 3j, 1.0), "x0": (3j, 3j),
                  "cross-validation": 1.0}
        for stage, value in poison.items():
            monkeypatch.setitem(entry.certified, stage, value)
        box_t = Config(box_t=(0.8, 1.8, -0.1, 0.3))
        assert json.dumps(verify.full_report("PIII.y1", box_t).to_json()) == \
            self._fresh("PIII.y1", box_t)
        assert entry.certified == poison
        at_basepoint = {"frame": poison["frame"], "x0": poison["x0"]}
        entry.certified.update(kept, **at_basepoint)
        basepoint = Config(basepoint=1.7)
        assert json.dumps(verify.full_report("PIII.y1", basepoint).to_json()) == \
            self._fresh("PIII.y1", basepoint)
        assert entry.certified == {**kept, **at_basepoint}

    @pytest.mark.parametrize("entry_id, overrides, stage", [
        ("PV.y_lin", {"theta1": Fraction(2)}, "frobenius"),
        ("PVdeg.kitaev_sqrt", {"kappa": Fraction(-1)}, "cross-validation")])
    def test_raising_stage_is_run_again(self, monkeypatch, entry_id, overrides, stage):
        # One entry serves both reports: the stage that raised kept nothing,
        # so the second report runs it again and records the same error.
        entry = catalog.lookup(entry_id, overrides)
        monkeypatch.setattr(catalog, "lookup", lambda *_: entry)
        first, second = (verify.full_report(entry_id) for _ in range(2))
        assert any(e.startswith(f"{stage}: ") for e in first.errors)
        assert second.errors == first.errors
        assert stage not in entry.certified

    def test_record_stays_bounded(self, monkeypatch):
        # 50 reports at distinct seeds, half of them at distinct basepoints.
        entry = catalog.lookup("PII.y0", dict(catalog.lookup("PII.y0").params_exact))
        monkeypatch.setattr(catalog, "lookup", lambda *_: entry)
        for k in range(50):
            cfg = Config(seed=k, basepoint=None if k % 2 else 1.5 + 0.02 * k)
            assert verify.full_report("PII.y0", cfg).passed
        assert set(entry.certified) <= set(self.STAGES)


class TestConfigValues:
    GATES = ("tol_frobenius", "tol_flow", "tol_independence", "tol_match",
             "tol_crossval")

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
