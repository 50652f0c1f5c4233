"""Numerical certification of the deformation-independence property.

For each catalog entry this module certifies, with explicit tolerances:

1. the closed forms solve the nonlinear flow (flow residuals),
2. the two linear systems are compatible (Frobenius residuals): the Lax
   pair, or the companion system of a scalar pair given directly,
3. the reduced coefficients P, Q depend on tau alone (the actual
   reduction claim), by the invariance identities, with no quadrature
   (``reduction.Decomposition.invariance``),
4. the reduced equation, sampled at one x, is a recognized classical
   target (least-squares identification over {1, tau, 1/tau, 1/tau^2}),
5. on one actual solution of both systems, w = phi / g is a function of
   tau times a function of t (cross-validation, the tau-covariance
   check).

Coefficient samples are reported in the frame of the documented closed-form
tau; the quadrature-defined tau differs from it by an affine map (a, b)
which is fitted from two points and checked on two more, so basepoint
choices never affect pass/fail or matched parameters.

The Frobenius grid, the frame fit, the walk of E and S to x0 (the centre of
the x box, where the samples sit) and cross-validation depend on the entry
alone, so each runs once per entry (``CatalogEntry.certified``), and the
identity reading and the coefficient kernel's x-rows at x0 once per
decomposition.  A warm report runs only what depends on the seed, the flow
stage and the samples match reads, in one pass each: no panel walk and no
compile.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import catalog as cat
from . import expr as fe
from . import reduction as red_mod
from . import scalarize as scal
from .config import DEFAULT_CONFIG, SCHEMA, Config, complex_json
from .targets import ClassicalTarget

__all__ = [
    "Prepared",
    "VerificationReport",
    "VerifyError",
    "MatchError",
    "prepare",
    "check_t_independence",
    "match_classical",
    "cross_validate",
    "full_report",
]


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use: importing
    scipy.integrate costs more than the rest of the package.  Nothing in
    the package calls it.  It is the DOP853 oracle the tests hold the panel
    solves against, and a module attribute, so a tracer can wrap it from
    outside."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


class VerifyError(Exception):
    pass


class MatchError(VerifyError):
    """The classical-target fit is ill-posed (too few or clustered tau)."""


# ---------------------------------------------------------------------------
# Workspace

@dataclass
class Prepared:
    """Everything derived from one entry that later stages share: the
    entry on the run's boxes, which every stage probes, the reduced
    equation ``red`` on its decomposition ``red.dec``, and the frame fit
    (see :func:`prepare`)."""

    entry: cat.CatalogEntry
    red: red_mod.ReducedEquation
    frame_a: complex
    frame_b: complex
    frame_residual: float

    def to_paper_frame(self, samples: Iterable[tuple[complex, complex, complex]]) -> list:
        """The (tau, P, Q) samples in the documented frame: a tau + b, P / a, Q / a^2."""
        a, b, a2 = self.frame_a, self.frame_b, self.frame_a * self.frame_a
        return [(a * tau + b, P / a, Q / a2) for tau, P, Q in samples]


def _tau_frame(entry: cat.CatalogEntry, red: red_mod.ReducedEquation
               ) -> tuple[complex, complex, float]:
    """Affine map from the quadrature tau to the documented closed-form tau.

    Fitted from two points and validated on two more, on the entry's boxes;
    the residual doubles as the basepoint-covariance certificate.  It
    checks tau alone, so it fails a wrong f or h but cannot see R."""
    cf = entry.reduction_closed_forms["tau"]
    xs = entry.box_x.diagonal(9)
    ts = entry.box_t.diagonal(9)
    pts = [(xs[1], ts[5]), (xs[6], ts[2]), (xs[3], ts[7]), (xs[7], ts[1])]
    ours = [red.tau_at(x, t) for x, t in pts]
    paper = fe.Kernel(cf)(*(np.array(v) for v in zip(*pts))).tolist()
    if abs(ours[1] - ours[0]) < 1e-12:
        raise VerifyError("degenerate tau samples for the frame fit")
    a = (paper[1] - paper[0]) / (ours[1] - ours[0])
    b = paper[0] - a * ours[0]
    resid = max(
        abs(paper[k] - (a * ours[k] + b)) / (1 + abs(paper[k]))
        for k in (2, 3)
    )
    return a, b, resid


def _once(entry: cat.CatalogEntry, stage: str, run):
    """The outcome of a stage that depends on the entry alone: ``run()``
    on the first call for this entry and stage, kept in the entry's record
    (``CatalogEntry.certified``) and read from it on every later call.  A
    run that raises keeps nothing, so the next call runs it again and
    raises the same way.  Two threads making the first call at once may
    both run it, which is harmless because the outcome is deterministic."""
    record = entry.certified
    if stage not in record:
        record[stage] = run()
    return record[stage]


# What :func:`prepare` raises for an entry the pipeline cannot reduce: the
# scalarization, the decomposition or the frame fit fails, or a kernel meets
# a singular point.
PREPARE_ERRORS = (scal.ScalarizeError, red_mod.DecompositionError, VerifyError,
                  *fe._SAMPLE_ERRORS)


def prepare(entry: cat.CatalogEntry, config: Config = DEFAULT_CONFIG) -> Prepared:
    """The shared workspace of the verify stages for one entry (look an id
    up with :func:`catalog.lookup` first).

    The entry is taken on the config's probe boxes
    (:meth:`catalog.CatalogEntry.with_boxes`).  The reduced equation, with
    fresh memos, is built on every call, so no call sees another's points.
    The frame fit at the entry's own basepoint runs once per entry
    (:func:`_once`); at any other basepoint it runs on every call.

    An entry the pipeline cannot reduce raises one of ``PREPARE_ERRORS``
    (:class:`scalarize.ScalarizeError`, :class:`reduction.DecompositionError`,
    :class:`VerifyError` or one of ``expr._SAMPLE_ERRORS``); any other
    exception is a defect and propagates as it is."""
    entry = entry.with_boxes(config)
    basepoint = config.basepoint if config.basepoint is not None else entry.basepoint_x
    red = red_mod.build_reduced(entry.decomposition, basepoint)
    if basepoint == entry.basepoint_x:
        a, b, resid = _once(entry, "frame", lambda: _tau_frame(entry, red))
    else:
        a, b, resid = _tau_frame(entry, red)
    return Prepared(entry=entry, red=red, frame_a=a, frame_b=b, frame_residual=resid)


# ---------------------------------------------------------------------------
# Deformation-independence check

# The t-independence stage's budget of draws per sample.
_DRAWS_PER_SAMPLE = 8
# The t-independence stage drops a draw this close to a singular t.
_SINGULAR_T_GAP = 0.15


def check_t_independence(prep: Prepared, n_points: int = 32, seed: int | np.random.Generator = 42
                         ) -> tuple[float, list[tuple[complex, complex, complex]]]:
    """``Decomposition.invariance``, the reading that certifies P and Q
    depend on tau alone, and ``n_points`` samples (tau, P, Q) for match, in
    the quadrature frame, at x0, the centre of the x box: once P and Q
    depend on tau alone, one x sees the whole reduced equation, and there
    tau = E(x0) t + S(x0) is affine in t.  E and S at x0 take one walk, run
    once per entry at the entry's own basepoint (:func:`_once`), and on
    every call at any other or on another decomposition.  The t are drawn
    from ``seed`` (an int, or the generator to draw from) in the t box, in
    order, skipping those within ``_SINGULAR_T_GAP`` of a singular t (each
    draw is tested only against the singular t that near the box: no other
    can reject it); their coefficients come from one ``coefficients_at_x0``
    call, and a t it rejects (by one of ``expr._SAMPLE_ERRORS``) is
    replaced by the next draw.  Raises :class:`VerifyError` when the walk
    to x0 fails (a failed walk records nothing) or ``_DRAWS_PER_SAMPLE *
    n_points`` draws place fewer samples, and ValueError for
    ``n_points < 1``."""
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    entry, red = prep.entry, prep.red
    x0 = entry.box_x.center

    def walk() -> tuple[complex, complex]:
        try:
            return red.E(x0), red.S(x0)
        except fe._SAMPLE_ERRORS as exc:
            raise VerifyError(f"the E/S walk to x0 = {x0:.6g} failed: {exc}") from exc

    if red.dec is entry.decomposition and red.basepoint_x == entry.basepoint_x:
        e0, s0 = _once(entry, "x0", walk)
    else:
        e0, s0 = walk()
    # A draw can lie a rounding outside the box: the margin keeps every
    # singular t that could reject one.
    near = [s for s in entry.singular_t if entry.box_t.distance(s) < _SINGULAR_T_GAP + 1e-9]
    rng = np.random.default_rng(seed)
    budget = _DRAWS_PER_SAMPLE * n_points
    drawn = 0
    samples: list[tuple[complex, complex, complex]] = []
    while len(samples) < n_points and drawn < budget:
        m = min(n_points - len(samples), budget - drawn)
        drawn += m
        (ts,) = cat.random_points(rng, (entry.box_t,), m)
        if near:
            ts = [t for t in ts if all(abs(t - s) >= _SINGULAR_T_GAP for s in near)]
        if ts:
            samples += [(t * e0 + s0, *got)
                        for t, got in zip(ts, red.coefficients_at_x0(ts, e0))
                        if not isinstance(got, Exception)]
    if len(samples) < n_points:
        raise VerifyError(
            f"could only place {len(samples)}/{n_points} samples at x0 = {x0:.6g} "
            f"in {budget} draws for {entry.id}")
    return red.dec.invariance, samples


# ---------------------------------------------------------------------------
# Classical-target identification

def _detect_first_derivative_form(taus, Ps, qscale, tol):
    """Classify the P samples as 0, -A/tau, or -A (constant); returns
    (normalizer, A) where normalizer maps (tau, Q) to the v-equation Q."""
    pmax = max(map(abs, Ps))
    thr = tol * (1.0 + qscale)
    if pmax <= thr * 10:
        return ("zero", 0j)
    for form, a_vals in (("inverse_tau", [-p * tau for p, tau in zip(Ps, taus)]),
                         ("constant", [-p for p in Ps])):
        a_mean = sum(a_vals) / len(a_vals)
        if max(map(abs, [v - a_mean for v in a_vals])) <= 1e-6 * (1 + abs(a_mean)):
            return (form, a_mean)
    return ("unrecognized", 0j)


def _distinct_taus(taus: Sequence[complex]) -> list[complex]:
    """Each tau more than 1e-10 from every tau kept before it, in order.

    The scan keeps every tau when the sorted real parts are each more than
    1e-10 above the one before (|a - b| >= |Re a - Re b|), so that early
    exit keeps the scan's list; an exact repeat (a gap of 0) or a NaN (no
    gap above 1e-10) falls through to the scan.  The scan drops exact
    repeats first, which keeps its list: a repeat is as close to the kept
    values as its first occurrence, which is kept or within 1e-10 of a kept
    value.  Its distances are one array of ``np.hypot`` of the parts,
    Python's ``abs`` bit for bit (numpy's complex ``abs`` is not); only a
    tau within 1e-10 of an earlier one needs the greedy, in order."""
    reals = sorted([tau.real for tau in taus])
    if all(b - a > 1e-10 for a, b in zip(reals, reals[1:])):
        return list(taus)
    uniq = list(dict.fromkeys(taus))
    z = np.array(uniq, dtype=complex)
    # An infinite tau's distances include inf - inf, a NaN: not more than
    # 1e-10, as Python's abs of the difference would have it.
    with np.errstate(invalid="ignore"):
        d = z[:, None] - z[None, :]
    # near[i, j]: tau j, before tau i, is not more than 1e-10 from it.
    near = np.tril(~(np.hypot(d.real, d.imag) > 1e-10), -1)
    kept = np.ones(len(uniq), dtype=bool)
    for i in np.flatnonzero(near.any(axis=1)):
        kept[i] = not near[i, kept].any()
    return [tau for tau, keep in zip(uniq, kept) if keep]


def match_classical(samples: Sequence[tuple[complex, complex, complex]],
                    tol: float = 1e-8) -> tuple[ClassicalTarget, float]:
    """Identify the reduced equation from (tau, P, Q) samples.

    P is first reduced away: P = -A/tau is absorbed by w = tau^(A/2) v and
    P = -A (constant) by w = exp(A tau / 2) v.  -Q of the resulting
    v-equation is then fitted against {1, tau, 1/tau, 1/tau^2} by least
    squares and classified by its active coefficients.  The returned
    residual is the max relative fit error."""
    if len(samples) < 8:
        raise MatchError("need at least 8 coefficient samples")
    taus, Ps, Qs = zip(*samples)
    uniq = _distinct_taus(taus)
    if len(uniq) < 8:
        raise MatchError("need at least 8 distinct tau values")
    tau_abs = list(map(abs, taus))
    mean = sum(uniq) / len(uniq)
    spread = max(map(abs, [t - mean for t in uniq]))
    if spread < 1e-3 * (1 + max(tau_abs)):
        raise MatchError("tau samples are too clustered for a stable fit")
    if min(tau_abs) < 1e-9:
        raise MatchError("tau samples touch the origin; 1/tau basis is singular")

    qscale = max(max(map(abs, Qs)), 1.0)

    form, a_const = _detect_first_derivative_form(taus, Ps, qscale, tol)
    if form == "unrecognized":
        return ClassicalTarget.none(), float("inf")
    qv = Qs
    if form == "inverse_tau":
        qv = [q - (a_const * a_const / 4 + a_const / 2) / (tau * tau)
              for q, tau in zip(Qs, taus)]
    elif form == "constant" and a_const != 0:
        qv = [q - a_const * a_const / 4 for q in Qs]

    t_arr = np.array(taus, dtype=complex)
    rhs = -np.array(qv, dtype=complex)
    basis = np.empty((len(taus), 4), dtype=complex)
    basis[:, 0], basis[:, 1], basis[:, 2], basis[:, 3] = 1, t_arr, 1 / t_arr, 1 / t_arr**2
    coef, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    fit = basis @ coef
    vscale = max(float(np.max(np.abs(rhs))), 1.0)
    residual = float(np.max(np.abs(fit - rhs))) / vscale

    c0, c1, c2, c3 = (complex(c) for c in coef)
    thr = max(tol * vscale, 1e-12)
    active = [abs(c) > 100 * thr for c in (c0, c1, c2, c3)]

    if form == "inverse_tau":
        # EQ2-like equations normalize to Whittaker form.
        if active[1]:
            return ClassicalTarget.none(), residual
        if not (active[2] or active[3] or active[0]):
            return ClassicalTarget.constant(c0), residual
        if abs(c0) < 100 * thr:
            return ClassicalTarget.none(), residual
        lam = 2 * cmath.sqrt(c0)
        return ClassicalTarget.whittaker(-c2 / lam, c3 + 0.25), residual

    if active[2] or active[3]:
        # A pure second-derivative equation with inverse-tau terms is also
        # Whittaker once the constant part is scaled to 1/4.
        if active[1] or not active[0]:
            return ClassicalTarget.none(), residual
        lam = 2 * cmath.sqrt(c0)
        return ClassicalTarget.whittaker(-c2 / lam, c3 + 0.25), residual
    if active[1] and active[0]:
        return ClassicalTarget.linear_potential(c0, c1), residual
    if active[1]:
        s = c1 ** (-1.0 / 3.0)
        return ClassicalTarget.airy(s), residual
    return ClassicalTarget.constant(c0), residual


# ---------------------------------------------------------------------------
# Cross-validation: tau-covariance of one solution

# Phi at the start of the walked leg.
_PHI0 = (1.0 + 0j, 0.4 + 0.1j)
# Interior points of the leg at which cross-validation samples mu.
_MU_POINTS = 9


def _leg_matrix(system: cat.LaxPair, t: complex):
    """The ``matrix`` of a walk of ``system`` at fixed t
    (``expr._walk_panels``): at panel points z, A's entries and then
    A_t's, the values and t-gradients of the jets of ``system.kernel``'s
    view of A (``expr._walked_jets``), so a pole of A on a panel node
    raises the walk's exception."""
    view = system.kernel.view(4)

    def matrix(z):
        jets = fe._walked_jets(view, z, t)
        return [value for value, _, _ in jets] + [a_t for _, _, a_t in jets]

    return matrix


def _walk_leg(prep: Prepared, t: complex, x0: complex, x1: complex
              ) -> fe._PiecewiseChebyshev:
    """One solution of the system the decomposed scalar pair is the first
    component of (``ScalarPair.system`` of ``prep.red.dec.sp``) at fixed t
    along the straight segment [x0, x1], with its t-derivative.

    On the panel walker (``expr._walk_panels``) it solves Phi' = A Phi
    from Phi(x0) = ``_PHI0`` together with the t-variation
    Psi' = A Psi + (dA/dt) Phi from Psi(x0) = B(x0, t) Phi(x0), with A and
    dA/dt from :func:`_leg_matrix` and B from the first four outputs of
    one call of the system's kernel at (x0, t).  So Psi is the exact
    t-derivative of the solutions transported in t; it equals B Phi along
    the segment only where the two systems are compatible.  Returns the
    dense output over the arclength [0, |x1 - x0|], with rows
    (Phi1, Phi2, Psi1, Psi2).  A singular coefficient raises the one-point
    walk's exception (``expr.evaluate``), on a panel as at the start; a
    segment of zero length, an unresolved panel, an exhausted panel budget
    or a non-finite coefficient or solution value raises
    :class:`expr.QuadratureError`."""
    system = prep.red.dec.sp.system
    x0, x1, t = complex(x0), complex(x1), complex(t)
    b11, b12, b21, b22 = (v[0] for v in system.kernel(np.array([x0]), np.array([t]))[:4])
    u, v = _PHI0
    start = (u, v, b11 * u + b12 * v, b21 * u + b22 * v)
    return fe._walk_panels((), x0, x1, fe._ATOL, (_leg_matrix(system, t), start))


def cross_validate(prep: Prepared) -> float:
    """Check the reduction on an actual solution: the tau-covariance of
    w = phi / g.

    If w = c(t) W(tau(x, t)) with g = exp(int G) the gauge and
    tau = t E + S, then tau_t = tau_x / (f + t h), so
    mu = phi_t / phi - (phi_x / phi - G) / (f + t h) equals c'/c and
    depends on t alone.  The stage walks one solution (:func:`_walk_leg`)
    at t the midpoint of the real range of the t box, along the leg from
    the centre of the x box to 1/14 of its real width short of its right
    edge (2.4 on the default box), a leg of nonzero length on every box.
    phi is the first component of the leg's system, the solution
    component the decomposition reduced; phi and phi_x come from the leg's
    Chebyshev series, phi_t from Psi, and G, h and f from one call of the
    coefficient kernel's view of them.  Returns the spread
    max |mu - mean mu| / max(1, |mean mu|) over ``_MU_POINTS`` interior
    points of the leg.

    A wrong f, h or R, or a t-system that is not compatible with the
    x-system, makes mu depend on x.  A change of R by a constant multiple
    of f when h vanishes is the split's gauge freedom (R -> R + c f,
    M -> M - c); it shifts mu by a constant and passes.  Raises
    :class:`VerifyError`, naming the leg and t, when a coefficient is
    singular on the leg or at its start, when the walk fails, or when mu is
    not finite at some point."""
    box_x, box_t = prep.entry.box_x, prep.entry.box_t
    x0 = box_x.center
    x1 = complex(box_x.re_hi - (box_x.re_hi - box_x.re_lo) / 14, x0.imag)
    t = complex(0.5 * (box_t.re_lo + box_t.re_hi))
    where = f"the leg [{x0:.6g}, {x1:.6g}] at t = {t:.6g}"
    dec = prep.red.dec
    try:
        leg = _walk_leg(prep, t, x0, x1)
        length = abs(x1 - x0)
        s = np.linspace(0.0, length, _MU_POINTS + 2)[1:-1]
        xs = x0 + (x1 - x0) / length * s
        G, h, f = dec._coeff_array.view(3)(xs, 0j)
        f_th = f + t * h
    except fe.QuadratureError as exc:
        raise VerifyError(f"the walk on {where} failed: {exc}") from exc
    except fe._SAMPLE_ERRORS as exc:
        raise VerifyError(f"singular coefficient on {where}: {exc}") from exc
    rows = leg(s, derivatives=1)
    phi, psi = rows[0, 0], rows[0, 2]
    phi_x = rows[1, 0] * length / (x1 - x0)
    with np.errstate(all="ignore"):
        mu = psi / phi - (phi_x / phi - G) / f_th
        mean = complex(np.mean(mu))
        spread = float(np.max(np.abs(mu - mean))) / max(1.0, abs(mean))
    finite = np.isfinite(mu)
    if not finite.all():
        raise VerifyError(
            f"non-finite mu at x = {complex(xs[np.argmin(finite)]):.6g} on {where}")
    return spread


# ---------------------------------------------------------------------------
# Aggregated report

# Each gated field of a report, with the key of its tolerance.
_GATES = (("flow_max", "flow"), ("frobenius_max", "frobenius"),
          ("frame_residual", "frame"), ("t_independence_max", "independence"),
          ("match_residual", "match"), ("cross_validation_residual", "crossval"))


@dataclass
class VerificationReport:
    """The record of :func:`full_report`; its verdict follows from it
    alone (see :attr:`passed`)."""

    entry_id: str
    family: str
    expected_target: ClassicalTarget | None
    tolerances: dict
    seed: int
    frobenius_max: float | None = None
    flow_max: float | None = None
    t_independence_max: float | None = None
    match: ClassicalTarget | None = None
    match_residual: float | None = None
    cross_validation_residual: float | None = None
    case_tag: str | None = None
    exponent_a: complex | None = None
    frame: tuple[complex, complex] | None = None
    frame_residual: float | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No stage error, every recorded gate value at most its tolerance
        (NaN fails), and a recorded match agrees with the expected target."""
        tols = self.tolerances
        gated = ((getattr(self, name), tols[key]) for name, key in _GATES)
        return (not self.errors and all(v is None or v <= tol for v, tol in gated)
                and (self.match is None or self.match.agrees_with(
                    self.expected_target, tol=tols["target_param"])))

    def to_json(self) -> dict:
        """The report as strict JSON: a number that is not finite is
        written as null, and ``non_finite`` maps its field (a dotted path)
        to the value's repr, so the verdict stays explained."""
        non_finite: dict[str, str] = {}
        doc = _finite_json({
            "schema": SCHEMA,
            "entry": self.entry_id,
            "family": self.family,
            "passed": self.passed,
            "frobenius_max": self.frobenius_max,
            "flow_max": self.flow_max,
            "t_independence_max": self.t_independence_max,
            "match": None if self.match is None else self.match.to_json(),
            "match_residual": self.match_residual,
            "expected_target": (None if self.expected_target is None
                                else self.expected_target.to_json()),
            "cross_validation_residual": self.cross_validation_residual,
            "case": self.case_tag,
            "exponent_a": None if self.exponent_a is None else complex_json(self.exponent_a),
            "frame": (None if self.frame is None else
                      {"a": complex_json(self.frame[0]), "b": complex_json(self.frame[1])}),
            "frame_residual": self.frame_residual,
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
            "errors": list(self.errors),
        }, "", non_finite)
        doc["non_finite"] = non_finite
        return doc


def _finite_json(doc, path: str, non_finite: dict):
    """``doc`` with every float that is not finite replaced by None, and
    recorded in ``non_finite`` under its dotted path."""
    if isinstance(doc, float) and not math.isfinite(doc):
        non_finite[path] = repr(doc)
        return None
    if isinstance(doc, dict):
        return {k: _finite_json(v, f"{path}.{k}" if path else k, non_finite)
                for k, v in doc.items()}
    if isinstance(doc, list):
        return [_finite_json(v, f"{path}.{i}", non_finite) for i, v in enumerate(doc)]
    return doc


def full_report(entry_id: str, config: Config = DEFAULT_CONFIG,
                overrides=None) -> VerificationReport:
    """Run every stage for one entry, on the config's boxes (applied once, by
    :meth:`catalog.CatalogEntry.with_boxes`); failures are recorded, not raised.
    What depends on the entry alone runs once per entry (:func:`_once`).
    The Frobenius stage checks the entry's system: its Lax pair, or the
    companion system of its direct scalar pair (``ScalarPair.system``)."""
    entry = cat.lookup(entry_id, overrides).with_boxes(config)
    seed = config.entry_seed(entry.id)
    rep = VerificationReport(
        entry_id=entry.id, family=entry.family,
        expected_target=entry.expected_target,
        tolerances=config.tolerances_json(), seed=config.seed,
    )

    def stage(name, run):
        """``run()``, or None with the exception recorded as a stage error."""
        try:
            return run()
        except Exception as exc:  # noqa: BLE001 - reports must never raise
            rep.errors.append(f"{name}: {exc}")
            return None

    # One generator per report: random_points draws row by row, so the
    # flow stage's 16 t are the first 16 of the 32 that t-independence
    # draws first, and the generator is rewound over their 32 doubles.
    rng = np.random.default_rng(seed)
    (flow_ts,) = cat.random_points(rng, (entry.box_t,), 16)
    rng.bit_generator.advance(-32)
    rep.flow_max = stage("flow", lambda: cat.flow_residual(entry, flow_ts))
    system = entry.lax or entry.scalar.system
    rep.frobenius_max = stage("frobenius", lambda: _once(
        entry, "frobenius", lambda: scal.frobenius_residual_grid(system, entry.grid_points())))

    prep = stage("reduction", lambda: prepare(entry, config))
    if prep is None:
        return rep
    rep.case_tag = prep.red.case_tag
    rep.exponent_a = prep.red.dec.exponent_A
    rep.frame = (prep.frame_a, prep.frame_b)
    rep.frame_residual = prep.frame_residual

    def independence():
        # The reading depends on the decomposition alone: a failed draw
        # does not hide it.
        rep.t_independence_max = prep.red.dec.invariance
        _, samples = check_t_independence(prep, seed=rng)
        return prep.to_paper_frame(samples)

    samples_paper = stage("t-independence", independence)
    if samples_paper is not None:
        rep.match, rep.match_residual = stage("match", lambda: match_classical(
            samples_paper, tol=config.tol_match)) or (None, None)
    rep.cross_validation_residual = stage("cross-validation", lambda: _once(
        entry, "cross-validation", lambda: cross_validate(prep)))
    return rep
