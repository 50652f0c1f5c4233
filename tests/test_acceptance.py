"""Acceptance suite: the exit criteria for the whole package.

Each test pins the tolerance it enforces and prints one PASS line when the
criterion holds (run with ``pytest -s`` to see them inline).  Expected
values come from the catalog's documented closed forms or from independent
oracles computed in-test, never from the code path under test.
"""

import io
import random

import numpy as np
import pytest

from fuchsreduce import catalog, cli, expr as fe, scalarize, verify
from fuchsreduce.expr import Binding
from test_expr import compiled, joint_probes

POSITIVE_IDS = catalog.list_entries()

# Closed-form reduction data per entry, evaluated as the oracle for
# criterion 3 below.  theta_inf = 5/2 (third family), theta1 = 3 and
# theta_inf = 1/2 (fifth family), kappa = 1, mu = 1/2 (degenerate fifth).
DECOMPOSITION_TABLE = {
    "PII.y0": {
        "f": lambda x: 2 * x, "h": lambda x: 0.0,
        "R": lambda x: 0.0, "M": lambda t: 0.0,
    },
    "PII.y_inv_t": {
        "f": lambda x: 2 * x, "h": lambda x: 0.0,
        "R": lambda x: 0.0, "M": lambda t: 0.0,
    },
    "PIII.y1": {
        "f": lambda x: 0.0,
        "h": lambda x: (x + 1) / (x * (x - 1)),
        "R": lambda x: (2.5 - 1) / (2 * x) - (2 * 2.5 - 1) / (2 * (x - 1)),
        "M": lambda t: -1.0,
    },
    "PIV.y_m2t": {
        "f": lambda x: 1.0, "h": lambda x: 1 / x,
        "R": lambda x: -1 / (2 * x), "M": lambda t: 0.0,
    },
    "PIV.y_m2t3": {
        "f": lambda x: 1.0, "h": lambda x: 1 / (3 * x),
        "R": lambda x: -1 / (6 * x), "M": lambda t: 2 * t / 3,
    },
    "PV.y_lin": {
        "f": lambda x: 0.0, "h": lambda x: 1 / (x - 1),
        "R": lambda x: (3 - 2) / (2 * (x - 1)), "M": lambda t: -0.5,
    },
    "PV.y_m1": {
        "f": lambda x: (1 - 0.5) / (x * (x - 1)),
        "h": lambda x: 0.5 * (1 / x + 1 / (x - 1)),
        "R": lambda x: -1 / (4 * x) - 1 / (4 * (x - 1)),
        "M": lambda t: -0.25,
    },
    "PVdeg.kitaev_sqrt": {
        "f": lambda x: 1 / (2 * 1.0 * x * (x - 1)),
        "h": lambda x: 1 / (2 * (x - 1)),
        "R": lambda x: -1 / (4 * (x - 1)),
        "M": lambda t: 1 / (2 * t),
    },
}

EXPECTED_TARGETS = {
    "PII.y0": ("airy", {"scale": 4 ** (1 / 3)}),
    "PII.y_inv_t": ("airy", {"scale": 4 ** (1 / 3)}),
    "PIV.y_m2t3": ("airy", {"scale": (3 / 4) ** (1 / 3)}),
    "PIII.y1": ("whittaker", {"kappa": (2.5 - 1) / 2, "mu_sq": 1 / 16}),
    "PV.y_lin": ("whittaker", {"kappa": (1 - 3) / 2, "mu_sq": 9 / 4}),
    "PIV.y_m2t": ("constant", {"c": 1.0}),
    "PV.y_m1": ("constant", {"c": 0.25}),
    "PVdeg.kitaev_sqrt": ("constant", {"c": 2 * 0.5 * 1.0**2}),
}


def test_criterion_1_integrability():
    """Frobenius residual <= 1e-10 on a 5x5 grid for every entry's system:
    its Lax pair, or the companion system of its direct scalar pair."""
    worst = 0.0
    for entry_id in POSITIVE_IDS:
        entry = catalog.lookup(entry_id)
        worst = max(worst, scalarize.frobenius_residual_grid(
            entry.lax or entry.scalar.system, entry.grid_points(5)))
        assert worst <= 1e-10, entry_id
    print(f"PASS criterion 1 (integrability): max Frobenius residual {worst:.3e} <= 1e-10")


def test_criterion_2_flow_consistency():
    """Flow residual <= 1e-10 at 16 random deformation values per entry."""
    worst = 0.0
    for entry_id in POSITIVE_IDS:
        entry = catalog.lookup(entry_id)
        rng = np.random.default_rng(1000 + len(entry_id))
        (ts,) = catalog.random_points(rng, (entry.box_t,), 16)
        worst = max(worst, catalog.flow_residual(entry, ts))
        assert worst <= 1e-10, entry_id
    print(f"PASS criterion 2 (flow consistency): max flow residual {worst:.3e} <= 1e-10")


def test_criterion_3_decomposition_reproduction(prep):
    """f, h, R, M match the documented closed forms to 1e-9 relative at 16
    probes; the second-component entry shares the first entry's scalar pair."""
    worst = 0.0
    for entry_id, table in DECOMPOSITION_TABLE.items():
        p = prep(entry_id)
        entry = p.entry
        for b in joint_probes(entry.box_x, entry.box_t, 16):
            for name in ("f", "h", "R"):
                want = table[name](b.x)
                got = fe.evaluate(getattr(p.red.dec, name), b)
                dev = abs(got - want) / (1 + abs(want))
                worst = max(worst, dev)
                assert dev <= 1e-9, (entry_id, name)
            want = table["M"](b.t)
            got = fe.evaluate(p.red.dec.M, b)
            dev = abs(got - want) / (1 + abs(want))
            worst = max(worst, dev)
            assert dev <= 1e-9, (entry_id, "M")
    # identical scalar pairs across the two second-family entries
    p0, p1 = prep("PII.y0"), prep("PII.y_inv_t")
    for b in joint_probes(p0.entry.box_x, p0.entry.box_t, 16):
        for name in ("p1", "q1", "p2", "q2"):
            v0 = fe.evaluate(getattr(p0.red.dec.sp, name), b)
            v1 = fe.evaluate(getattr(p1.red.dec.sp, name), b)
            assert abs(v0 - v1) <= 1e-9 * (1 + abs(v0))
    print(f"PASS criterion 3 (decomposition reproduction): max deviation {worst:.3e} <= 1e-9")


def test_criterion_4_deformation_independence(prep):
    """The invariance identities read <= 1e-8 on every entry; the negative
    control fails by at least 1e-3 (it breaks integrability outright)."""
    worst = 0.0
    for entry_id in POSITIVE_IDS:
        dev, _ = verify.check_t_independence(prep(entry_id), n_points=32, seed=42)
        worst = max(worst, dev)
        assert dev <= 1e-8, entry_id
    neg = verify.prepare(catalog.lookup("negative.PII_bad_y1"))
    neg_dev, _ = verify.check_t_independence(neg, n_points=16, seed=42)
    neg_frob = scalarize.frobenius_residual_grid(
        catalog.lookup("negative.PII_bad_y1").lax,
        catalog.lookup("negative.PII_bad_y1").grid_points(5))
    assert neg_dev >= 1e-3 or neg_frob >= 1e-3
    print(f"PASS criterion 4 (deformation independence): max identity reading {worst:.3e} "
          f"<= 1e-8; negative control reads {neg_dev:.3e} and fails integrability by "
          f"{neg_frob:.3e}")


def test_criterion_5_classical_targets(prep):
    """Matched targets and parameters per entry, residual <= 1e-8."""
    for entry_id, (kind, params) in EXPECTED_TARGETS.items():
        p = prep(entry_id)
        _, samples = verify.check_t_independence(p, n_points=32, seed=42)
        target, resid = verify.match_classical(p.to_paper_frame(samples))
        assert target.kind == kind, entry_id
        assert resid <= 1e-8, entry_id
        for pname, pval in params.items():
            got = getattr(target, pname)
            assert got == pytest.approx(pval, abs=1e-7), (entry_id, pname)
    print("PASS criterion 5 (classical targets): all eight matches with residual <= 1e-8")


def test_criterion_6_cross_validation(prep):
    """On one numeric solution of both systems, w = phi/g is a function of
    tau times a function of t: the spread of mu along one x-leg is at most
    1e-6."""
    worst = 0.0
    for entry_id in POSITIVE_IDS:
        resid = verify.cross_validate(prep(entry_id))
        worst = max(worst, resid)
        assert resid <= 1e-6, entry_id
    print(f"PASS criterion 6 (cross-validation): max residual {worst:.3e} <= 1e-6")


def test_criterion_7_property_suites(prep):
    """Derivative-vs-FD (100 random expressions), quadrature reversal,
    first-integral property, basepoint covariance, CLI determinism."""
    # derivative vs central finite differences
    from test_expr import fd_derivative, random_rational_expr

    rng = random.Random(424242)
    checked = 0
    while checked < 100:
        e = random_rational_expr(rng)
        b = Binding(x=rng.uniform(0.7, 2.0) + 0.1j, t=rng.uniform(0.7, 2.0))
        var = rng.choice(("x", "t"))
        try:
            exact = fe.evaluate(fe.differentiate(e, var), b)
            approx = fd_derivative(e, var, b)
        except fe.SingularEvaluationError:
            continue
        scale = max(abs(exact), abs(approx))
        if scale > 1e4:
            continue
        assert abs(exact - approx) <= 1e-6 * (1 + scale)
        checked += 1

    # quadrature path reversal
    f = compiled(fe.exp(fe.X) / (fe.X + 3))
    fwd = fe.integrate_callable(lambda x: f(x, 0j), [0.0, 2.0 + 0.4j])
    bwd = fe.integrate_callable(lambda x: f(x, 0j), [2.0 + 0.4j, 0.0])
    assert abs(fwd + bwd) <= 1e-11

    # first-integral property of the characteristic flow, 16 points/entry
    for entry_id in POSITIVE_IDS:
        p = prep(entry_id)
        fh = compiled(p.red.dec.f + fe.T * p.red.dec.h)
        pts = list(zip(p.entry.box_x.diagonal(4),
                       reversed(p.entry.box_t.diagonal(4))))
        pts += [(x + 0.13, t - 0.06j) for x, t in pts]
        h = 1e-5
        for x, t in pts[:16]:
            dx = (p.red.tau_at(x + h, t) - p.red.tau_at(x - h, t)) / (2 * h)
            dt = (p.red.tau_at(x, t + h) - p.red.tau_at(x, t - h)) / (2 * h)
            assert abs(dx - fh(x, t) * dt) <= 1e-7 * (1 + abs(dx))

    # basepoint affine covariance to 1e-9 (fit on 3 points, check a 4th)
    import fuchsreduce.reduction as red_mod

    p = prep("PV.y_m1")
    red1 = red_mod.build_reduced(p.red.dec, p.entry.basepoint_x + 0.25)
    pts = [(1.4, 0.8), (1.9, 1.1), (2.3, 0.6), (1.6, 1.3)]
    t0 = [p.red.tau_at(x, t) for x, t in pts]
    t1 = [red1.tau_at(x, t) for x, t in pts]
    c = (t1[1] - t1[0]) / (t0[1] - t0[0])
    d = t1[0] - c * t0[0]
    assert abs(t1[2] - (c * t0[2] + d)) <= 1e-9
    assert abs(t1[3] - (c * t0[3] + d)) <= 1e-9

    # byte-identical CLI output across two runs at seed 42
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        rc = cli.main(["verify", "PIV.y_m2t", "--json", "--seed", "42"], out=buf)
        assert rc == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    for _ in range(2):
        buf = io.StringIO()
        rc = cli.main(["sample", "PII.y0", "--count", "16", "--seed", "42"], out=buf)
        assert rc == 0
        outs.append(buf.getvalue())
    assert outs[2] == outs[3]

    print("PASS criterion 7 (property suites): derivative oracle, quadrature reversal, "
          "first integrals, basepoint covariance, deterministic CLI")
