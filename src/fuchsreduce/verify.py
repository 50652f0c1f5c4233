"""Numerical certification of the deformation-independence property.

For each catalog entry this module certifies, with explicit tolerances:

1. the closed forms solve the nonlinear flow (flow residuals),
2. the two linear systems are compatible (Frobenius residuals),
3. the reduced coefficients P, Q computed at tau-matched points in
   different deformation states agree (the actual reduction claim),
4. the reduced equation is a recognized classical target (least-squares
   identification over the basis {1, tau, 1/tau, 1/tau^2}),
5. a numerically integrated solution, gauge-stripped and re-parametrized
   by tau, satisfies the reduced equation (cross-validation on a dense
   trace).  The trace solves the x-system and integrates log E, S and
   log g on the Chebyshev panels of ``expr._walk_panels``, the walker
   that also serves E, S, the gauge and :func:`joint_solution`; the
   check differentiates those Chebyshev series exactly, and no function
   here imports ``scipy.integrate``.

Coefficient samples are reported in the frame of the documented closed-form
tau; the quadrature-defined tau differs from it by an affine map (a, b)
which is fitted from three points and checked on a fourth, so basepoint
choices never affect pass/fail or matched parameters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import catalog as cat
from . import expr as fe
from . import reduction as red_mod
from . import scalarize as scal
from .config import DEFAULT_CONFIG, FRAME_TOL, Config
from .expr import Path
from .reduction import Decomposition, ReducedEquation
from .targets import ClassicalTarget

__all__ = [
    "Prepared",
    "SolutionTrace",
    "VerificationReport",
    "VerifyError",
    "MatchError",
    "prepare",
    "check_t_independence",
    "match_classical",
    "joint_solution",
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
    """Everything derived from one entry that later stages share.

    ``dec`` (with its compiled kernels and the scalar pair ``dec.sp`` it
    was recovered from) is shared per entry when the config keeps the
    entry's boxes; ``red`` (with its E/S and gauge memos) and the frame
    fit are built per :func:`prepare` call."""

    entry: cat.CatalogEntry
    dec: Decomposition
    red: ReducedEquation
    frame_a: complex
    frame_b: complex
    frame_residual: float
    box_x: cat.ComplexRect
    box_t: cat.ComplexRect

    def to_paper_frame(self, tau: complex, P: complex, Q: complex
                       ) -> tuple[complex, complex, complex]:
        a = self.frame_a
        return self.frame_a * tau + self.frame_b, P / a, Q / (a * a)


def _tau_frame(entry: cat.CatalogEntry, red: ReducedEquation
               ) -> tuple[complex, complex, float]:
    """Affine map from the quadrature tau to the documented closed-form tau.

    Fitted from two points, validated on two more; the validation residual
    doubles as the basepoint-covariance certificate."""
    cf = entry.reduction_closed_forms["tau"]
    xs = entry.box_x.diagonal(9)
    ts = entry.box_t.diagonal(9)
    pts = [(xs[1], ts[5]), (xs[6], ts[2]), (xs[3], ts[7]), (xs[7], ts[1])]
    ours = [red.tau_at(x, t) for x, t in pts]
    paper = [fe.evaluate(cf, entry.binding(x=x, t=t)) for x, t in pts]
    if abs(ours[1] - ours[0]) < 1e-12:
        raise VerifyError("degenerate tau samples for the frame fit")
    a = (paper[1] - paper[0]) / (ours[1] - ours[0])
    b = paper[0] - a * ours[0]
    resid = max(
        abs(paper[k] - (a * ours[k] + b)) / (1 + abs(paper[k]))
        for k in (2, 3)
    )
    return a, b, resid


def prepare(entry_or_id, config: Config = DEFAULT_CONFIG) -> Prepared:
    """The shared workspace of the verify stages for one entry.

    The scalar pair and, unless the config overrides a probe box, the
    decomposition are the entry's own (``CatalogEntry.scalar_pair`` and
    ``.decomposition``), derived and compiled once per entry; a box
    override decomposes afresh.  The basepoint does not enter the
    decomposition.  The reduced equation, with fresh E/S and gauge memos,
    and the 4-point frame fit are built on every call, so no call sees
    another's points."""
    entry = (entry_or_id if isinstance(entry_or_id, cat.CatalogEntry)
             else cat.lookup(entry_or_id))
    box_x = cat.ComplexRect(*config.box_x) if config.box_x else entry.box_x
    box_t = cat.ComplexRect(*config.box_t) if config.box_t else entry.box_t
    if config.box_x or config.box_t:
        dec = red_mod.decompose(entry.scalar_pair, box_x, box_t)
    else:
        dec = entry.decomposition
    basepoint = config.basepoint if config.basepoint is not None else entry.basepoint_x
    red = red_mod.build_reduced(dec, basepoint)
    a, b, resid = _tau_frame(entry, red)
    return Prepared(entry=entry, dec=dec, red=red,
                    frame_a=a, frame_b=b, frame_residual=resid,
                    box_x=box_x, box_t=box_t)


# ---------------------------------------------------------------------------
# Deformation-independence check

def check_t_independence(prep: Prepared, n_pairs: int = 32, seed: int = 42
                         ) -> tuple[float, list[tuple[complex, complex, complex]]]:
    """Compare P, Q at tau-matched pairs in different deformation states.

    Pairs (x1, t1), (x2, t2) share tau exactly: t2 solves the affine-in-t
    tau formula at x2 and is accepted when it stays within an inflated
    deformation box away from singular values.  Returns the max of
    (|dP| + |dQ|) / scale over the pairs plus the sampled coefficient table
    (in the quadrature frame).

    Candidate triples (x1, t1, x2) are drawn in chunks, never past the
    budget of 200 attempts per pair.  Each chunk is one generator call
    (:func:`catalog.random_points`) that yields exactly the stream, in the
    order, that drawing one coordinate at a time would.  E and S at all x
    of a chunk are integrated in one batch (``ReducedEquation.prefetch``);
    the per-candidate checks then run one at a time on the memoized
    values, so the batch changes the cost, not which pairs are tried or
    accepted.  ``n_pairs < 1`` raises ValueError: a stage that compares no
    pair measures nothing."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    entry = prep.entry
    red = prep.red
    rng = np.random.default_rng(seed)
    region = prep.box_t.inflated(3.0)
    samples: list[tuple[complex, complex, complex]] = []
    max_dev = 0.0
    accepted = 0
    attempts = 0
    max_attempts = 200 * n_pairs
    while accepted < n_pairs and attempts < max_attempts:
        # A quarter more attempts than the acceptance rate so far says the
        # missing pairs need (one per pair before any is seen).
        wanted = 1.25 * (n_pairs - accepted) * (attempts + 1) / (accepted + 1)
        chunk = cat.random_points(rng, (prep.box_x, prep.box_t, prep.box_x),
                                  min(max_attempts - attempts, max(8, math.ceil(wanted))))
        red.prefetch([x for x1, _, x2 in chunk if abs(x2 - x1) >= 0.05
                      for x in (x1, x2)])
        for x1, t1, x2 in chunk:
            if accepted == n_pairs:
                break
            attempts += 1
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
            dev = (abs(p1c - p2c) + abs(q1c - q2c)) / scale
            max_dev = max(max_dev, dev)
            samples.append((tau, p1c, q1c))
            samples.append((tau, p2c, q2c))
            accepted += 1
    if accepted < n_pairs:
        raise VerifyError(
            f"could only place {accepted}/{n_pairs} tau-matched pairs inside "
            f"the probe region for {entry.id}")
    return max_dev, samples


# ---------------------------------------------------------------------------
# Classical-target identification

def _detect_first_derivative_form(taus, Ps, qscale, tol):
    """Classify the P samples as 0, -A/tau, or -A (constant); returns
    (normalizer, A) where normalizer maps (tau, Q) to the v-equation Q."""
    pmax = max(abs(p) for p in Ps)
    thr = tol * (1.0 + qscale)
    if pmax <= thr * 10:
        return ("zero", 0j)
    a_vals = [-p * tau for p, tau in zip(Ps, taus)]
    a_mean = sum(a_vals) / len(a_vals)
    if max(abs(v - a_mean) for v in a_vals) <= 1e-6 * (1 + abs(a_mean)):
        return ("inverse_tau", a_mean)
    a_vals = [-p for p in Ps]
    a_mean = sum(a_vals) / len(a_vals)
    if max(abs(v - a_mean) for v in a_vals) <= 1e-6 * (1 + abs(a_mean)):
        return ("constant", a_mean)
    return ("unrecognized", 0j)


def _distinct_taus(taus: Sequence[complex]) -> list[complex]:
    """Each tau more than 1e-10 from every tau kept before it, in order.

    Exact repeats (every accepted pair adds its tau twice) are dropped
    before the scan, which keeps the same list: a repeat is as close to
    the kept values as its first occurrence, and that is either kept or
    within 1e-10 of a kept value."""
    uniq: list[complex] = []
    for tau in dict.fromkeys(taus):
        if all(abs(tau - u) > 1e-10 for u in uniq):
            uniq.append(tau)
    return uniq


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
    taus = [s[0] for s in samples]
    uniq = _distinct_taus(taus)
    if len(uniq) < 8:
        raise MatchError("need at least 8 distinct tau values")
    tau_scale = max(abs(t) for t in taus)
    spread = max(abs(t - sum(uniq) / len(uniq)) for t in uniq)
    if spread < 1e-3 * (1 + tau_scale):
        raise MatchError("tau samples are too clustered for a stable fit")
    if min(abs(t) for t in taus) < 1e-9:
        raise MatchError("tau samples touch the origin; 1/tau basis is singular")

    Ps = [s[1] for s in samples]
    Qs = [s[2] for s in samples]
    qscale = max(max(abs(q) for q in Qs), 1.0)

    form, a_const = _detect_first_derivative_form(taus, Ps, qscale, tol)
    if form == "unrecognized":
        return ClassicalTarget.none(), float("inf")
    if form == "inverse_tau":
        qv = [q - (a_const * a_const / 4 + a_const / 2) / (tau * tau)
              for q, tau in zip(Qs, taus)]
    elif form == "constant" and a_const != 0:
        qv = [q - a_const * a_const / 4 for q in Qs]
    else:
        qv = list(Qs)

    t_arr = np.asarray(taus, dtype=complex)
    rhs = -np.asarray(qv, dtype=complex)
    basis = np.column_stack([
        np.ones_like(t_arr), t_arr, 1.0 / t_arr, 1.0 / t_arr**2,
    ])
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
# Numerical solution of the linear system (with change-of-variable channels)

@dataclass
class SolutionTrace:
    """Dense solution of the x-system along a straight segment, augmented
    with the running integrals log E = int h, S = int f E and log g = int G,
    so tau, the gauge and the reduced coefficients are available at any
    point of the trace at solver accuracy.

    ``sol(s)`` gives the rows (phi1, phi2, log E, S, log g) at arclength s,
    a float or an array, and ``sol(s, derivatives=d)`` adds their first d
    derivatives in s, from the piecewise-Chebyshev series of the panel
    solve."""

    x_start: complex
    x_end: complex
    sol: object                     # expr._PiecewiseChebyshev over s in [0, L]
    length: float
    observable_index: int = 0        # which state entry the reduction acts on

    def x_of(self, s):
        """x at arclength s; s may be a float or an array."""
        u = (self.x_end - self.x_start) / self.length
        return self.x_start + u * s


def _trace(prep: Prepared, t_fixed: complex, x_path: Path,
           initial: tuple[complex, complex],
           rtol: float = 1e-12, atol: float = 1e-13) -> SolutionTrace:
    """Dense solve of the x-system at fixed deformation along one straight
    segment, with the log E, S and log g channels: a one-segment walk of
    the panel walker (``expr._walk_panels``) with a linear system.

    Each panel solves the collocated integral form of the system (for
    direct scalar entries the companion system of the second-order
    equation, initial = (phi, phi')) and integrates h, f E and G on the
    same nodes, starting from log ``E``, ``S`` and log ``gauge`` at the
    segment's start.  The stages are the reduced equation's own
    (``prep.red._h_rows``, ``_fE_rows``, ``_G_rows``), the ones its E, S
    and gauge maps walk, so the channels and the maps share one kernel.
    A singular coefficient raises the compiled kernel's own exception; a
    segment of zero length, an unresolved panel, an exhausted panel
    budget, a singular h, f E or G sample or a non-finite coefficient or
    solution value raises :class:`VerifyError`."""
    if len(x_path.points) != 2:
        raise VerifyError("solution traces run along one straight segment")
    entry = prep.entry
    x0, x1 = x_path.points
    t_fixed = complex(t_fixed)
    red = prep.red
    totals = (cmath.log(red.E(x0)), red.S(x0), cmath.log(red.gauge(x0)))
    if entry.lax is not None:
        a_entries = entry.lax.a_entries_array
        matrix = lambda z: a_entries(z, t_fixed)
    else:
        p1_q1 = prep.dec.sp.p1_q1_array

        def matrix(z):
            p1, q1 = p1_q1(z, t_fixed)
            return 0, 1, -q1, -p1

    try:
        sol = fe._walk_all((red._h_rows, red._fE_rows, red._G_rows), x0, (x1,),
                           red.quad_tol, (matrix, (*initial, *totals), rtol, atol))[0]
    except fe.QuadratureError as exc:
        raise VerifyError(f"linear-system integration failed: {exc}") from exc
    obs = 1 if entry.lax is not None and prep.dec.sp.component == "second" else 0
    return SolutionTrace(x_start=x0, x_end=x1, sol=sol, length=abs(x1 - x0),
                         observable_index=obs)


def joint_solution(prep: Prepared, x_anchor: complex, t_center: complex,
                   dt: float = 5e-3, span: float = 0.6,
                   rtol: float = 1e-12, atol: float = 1e-13
                   ) -> Callable[[complex, complex], complex]:
    """A sampler phi(x, t) of one joint solution of both linear systems.

    On the panel walker (``expr._walk_panels``), the initial vector is
    transported along y_t = B(x_anchor, t) y on the straight segments of
    the complex t-plane from ``t_center`` to t_k = t_center + k dt,
    |k| <= 2; each slice t_k is then solved along y_x = A(x, t_k) y on the
    horizontal legs from the anchor to x_anchor +- span.  phi takes t = t_k
    and x on a leg, each to 1e-12, raises :class:`VerifyError` elsewhere,
    and returns the solution component the entry's reduction acts on.
    Only available for entries with full matrix data; a zero ``dt`` or
    ``span`` leaves nothing to walk and raises :class:`VerifyError`."""
    entry = prep.entry
    if entry.lax is None:
        raise VerifyError("joint solutions need the full 2x2 system")
    comp = 0 if entry.component == "first" else 1
    b_entries = entry.lax.b_entries_array
    a_entries = entry.lax.a_entries_array
    x_anchor = complex(x_anchor)
    t_center = complex(t_center)

    phi0 = (1.0 + 0j, 0.4 + 0.1j)
    steps = (-2, -1, 1, 2)
    try:
        moved = fe._walk_all((), t_center, [t_center + k * dt for k in steps], atol,
                             (lambda t: b_entries(x_anchor, t), phi0, rtol, atol))
        starts = {0: phi0}
        starts.update((k, sol(sol.edges[-1])) for k, sol in zip(steps, moved))
        slices = {k: fe._walk_all((), x_anchor, (x_anchor + span, x_anchor - span), atol,
                                  (lambda z, tk=t_center + k * dt: a_entries(z, tk),
                                   y0, rtol, atol))
                  for k, y0 in starts.items()}
    except fe.QuadratureError as exc:
        raise VerifyError(f"joint solution failed: {exc}") from exc

    def phi(x: complex, t: complex) -> complex:
        off = complex(t) - t_center
        k = min(slices, key=lambda k: abs(off - k * dt))
        if abs(off - k * dt) > 1e-12:
            raise VerifyError(f"t = {t} is off the transported stencil")
        s = complex(x) - x_anchor
        if abs(s.imag) > 1e-12 or abs(s.real) > span + 1e-12:
            raise VerifyError(f"x = {x} is off the solved legs")
        leg = slices[k][0 if s.real >= 0 else 1]
        return complex(leg(abs(s.real))[comp])

    return phi


# ---------------------------------------------------------------------------
# Cross-validation on a dense trace

# Arclengths at which cross-validation samples its trace.
_TRACE_POINTS = 201


def _default_cross_path(prep: Prepared) -> Path:
    # From the basepoint toward the far edge of the x box: keeps exp(int h)
    # of order one and tau_x bounded away from zero for every entry.
    return Path([prep.red.basepoint_x, complex(prep.box_x.re_hi - 0.05, 0.0)])


def cross_validate(prep_or_entry, t_fixed: complex | None = None,
                   x_path: Path | None = None, config: Config = DEFAULT_CONFIG) -> float:
    """Check the reduced equation on an actual solution.

    Solves the linear system at a fixed deformation value on Chebyshev
    panels (:func:`_trace`) and tests w'' + P w' + Q w = 0 with
    w = phi / g, re-parametrized by tau = t E + S.  Of ``_TRACE_POINTS``
    arclengths uniform over the trace it keeps those where Re tau lies in
    the 2%-interior of its range.  phi, log E, S and log g and their first
    two arclength derivatives are exact derivatives of the trace's
    Chebyshev series, so tau' = t E (log E)' + S', w_tau = w' / tau' and
    w_tautau = (w'' - w_tau tau'') / tau'^2 carry no differencing error.
    phi, p_num and q_num come from one call of the array form of
    ``_coeff_parts`` (``_coeff_parts_array``) on all the points.  Returns
    the max residual relative to max |w|.

    The stage detects a trace that does not solve the system, and S, E or
    gauge channels inconsistent with the coefficients of ``_coeff_parts``.
    It cannot detect a wrong reduction: with P and Q taken from the
    trace's own deformation slice the residual is the scalarized
    x-equation along the solution, whatever f, h and R are.  Raises
    :class:`VerifyError` when w, P, Q or the residual is not finite at some
    point."""
    prep = (prep_or_entry if isinstance(prep_or_entry, Prepared)
            else prepare(prep_or_entry, config))
    t_fixed = complex(0.5 * (prep.box_t.re_lo + prep.box_t.re_hi) if t_fixed is None
                      else t_fixed)
    trace = _trace(prep, t_fixed, x_path or _default_cross_path(prep),
                   initial=(1.0, 0.4 + 0.1j))
    s = np.linspace(0.0, trace.length, _TRACE_POINTS)
    # Rows (phi1, phi2, log E, S, log g), each with its s-derivatives 0..2.
    rows = trace.sol(s, derivatives=2)
    with np.errstate(all="ignore"):
        tau = (t_fixed * np.exp(rows[0, 2]) + rows[0, 3]).real
        # Keep the points whose Re tau lies in the 2%-interior of its range
        # (a NaN is kept, to be reported).  Near a turning point of tau the
        # tau-derivatives divide the series' rounding by tau'^2.
        lo, hi = sorted((tau[0], tau[-1]))
        pad = 0.02 * (hi - lo)
        keep = ~((tau < lo + pad) | (tau > hi - pad))
        s, rows = s[keep], rows[..., keep]
        phi, phi1, phi2 = rows[:, trace.observable_index]
        le, le1, le2 = rows[:, 2]
        _, s1, s2 = rows[:, 3]
        lg, lg1, lg2 = rows[:, 4]
        ph, p_num, q_num = prep.red._coeff_parts_array(trace.x_of(s), t_fixed)
        e = np.exp(le)
        tau1 = t_fixed * e * le1 + s1
        tau2 = t_fixed * e * (le2 + le1 * le1) + s2
        inv_g = np.exp(-lg)
        w = phi * inv_g
        w1 = (phi1 - phi * lg1) * inv_g
        w2 = (phi2 - 2 * phi1 * lg1 + phi * (lg1 * lg1 - lg2)) * inv_g
        w_tau = w1 / tau1
        w_tautau = (w2 - w_tau * tau2) / (tau1 * tau1)
        den = ph * ph * e
        r = w_tautau + p_num / den * w_tau + q_num / (den * e) * w
    finite = np.isfinite(w) & np.isfinite(r)
    if not finite.all():
        first = int(np.argmin(finite))
        raise VerifyError(
            f"non-finite w, P, Q or residual at x = {complex(trace.x_of(s[first])):.6g}")
    return float(np.max(np.abs(r))) / float(np.max(np.abs(w)))


# ---------------------------------------------------------------------------
# Aggregated report

@dataclass
class VerificationReport:
    entry_id: str
    family: str
    passed: bool
    frobenius_max: float | None
    flow_max: float | None
    t_independence_max: float | None
    match: ClassicalTarget | None
    match_residual: float | None
    expected_target: ClassicalTarget | None
    cross_validation_residual: float | None
    case_tag: str | None
    exponent_a: complex | None
    frame: tuple[complex, complex] | None
    frame_residual: float | None
    tolerances: dict = field(default_factory=dict)
    seed: int = 42
    errors: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        def cj(z):
            return None if z is None else {"re": complex(z).real, "im": complex(z).imag}

        return {
            "schema": "fuchs-reduce/1",
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
            "exponent_a": cj(self.exponent_a),
            "frame": (None if self.frame is None
                      else {"a": cj(self.frame[0]), "b": cj(self.frame[1])}),
            "frame_residual": self.frame_residual,
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
            "errors": list(self.errors),
        }


def full_report(entry_id: str, config: Config = DEFAULT_CONFIG,
                overrides=None) -> VerificationReport:
    """Run every stage for one entry; failures are recorded, not raised."""
    entry = cat.lookup(entry_id, overrides)
    seed = config.entry_seed(entry.id)
    rep = VerificationReport(
        entry_id=entry.id, family=entry.family, passed=False,
        frobenius_max=None, flow_max=None, t_independence_max=None,
        match=None, match_residual=None,
        expected_target=entry.expected_target,
        cross_validation_residual=None, case_tag=None, exponent_a=None,
        frame=None, frame_residual=None,
        tolerances=config.tolerances_json(), seed=config.seed,
    )
    ok = True

    rng = np.random.default_rng(seed)
    try:
        rep.flow_max = max(
            cat.flow_residual(entry, t)
            for (t,) in cat.random_points(rng, (entry.box_t,), config.flow_probes)
        )
        ok &= rep.flow_max <= config.tol_flow
    except Exception as exc:  # noqa: BLE001 - reports must never raise
        rep.errors.append(f"flow: {exc}")
        ok = False

    if entry.lax is not None:
        try:
            rep.frobenius_max = scal.frobenius_residual_grid(
                entry.lax, entry.grid_points(config.frobenius_grid))
            ok &= rep.frobenius_max <= config.tol_frobenius
        except Exception as exc:  # noqa: BLE001
            rep.errors.append(f"frobenius: {exc}")
            ok = False

    prep = None
    try:
        prep = prepare(entry, config)
        rep.case_tag = prep.red.case_tag
        rep.exponent_a = prep.dec.exponent_A
        rep.frame = (prep.frame_a, prep.frame_b)
        rep.frame_residual = prep.frame_residual
        ok &= prep.frame_residual <= FRAME_TOL
    except Exception as exc:  # noqa: BLE001
        rep.errors.append(f"reduction: {exc}")
        ok = False

    samples_paper = None
    if prep is not None:
        try:
            dev, samples = check_t_independence(
                prep, n_pairs=config.independence_pairs, seed=seed)
            rep.t_independence_max = dev
            ok &= dev <= config.tol_independence
            samples_paper = [prep.to_paper_frame(*s) for s in samples]
        except Exception as exc:  # noqa: BLE001
            rep.errors.append(f"t-independence: {exc}")
            ok = False

    if samples_paper is not None:
        try:
            target, resid = match_classical(samples_paper, tol=config.tol_match)
            rep.match = target
            rep.match_residual = resid
            ok &= resid <= config.tol_match
            ok &= target.agrees_with(entry.expected_target,
                                     tol=config.target_param_tol)
        except Exception as exc:  # noqa: BLE001
            rep.errors.append(f"match: {exc}")
            ok = False

    if prep is not None:
        try:
            rep.cross_validation_residual = cross_validate(prep, config=config)
            ok &= rep.cross_validation_residual <= config.tol_crossval
        except Exception as exc:  # noqa: BLE001
            rep.errors.append(f"cross-validation: {exc}")
            ok = False

    rep.passed = bool(ok)
    return rep
