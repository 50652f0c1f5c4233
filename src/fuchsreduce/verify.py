"""Numerical certification of the deformation-independence property.

For each catalog entry this module certifies, with explicit tolerances:

1. the closed forms solve the nonlinear flow (flow residuals),
2. the two linear systems are compatible (Frobenius residuals),
3. the reduced coefficients P, Q computed at tau-matched points in
   different deformation states agree (the actual reduction claim),
4. the reduced equation is a recognized classical target (least-squares
   identification over the basis {1, tau, 1/tau, 1/tau^2}),
5. a numerically integrated solution, gauge-stripped and re-parametrized
   by tau, satisfies the reduced equation (cross-validation by finite
   differences on a dense trace).

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
from .scalarize import ScalarPair
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
    scipy.integrate costs more than the rest of the package, and only the
    solution traces need it."""
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

    ``sp`` and ``dec`` (with its compiled kernels) are shared per entry
    when the config keeps the entry's boxes; ``red`` (with its E/S and
    gauge memos) and the frame fit are built per :func:`prepare` call."""

    entry: cat.CatalogEntry
    sp: ScalarPair
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


def prepare(entry_or_id, config: Config = DEFAULT_CONFIG,
            overrides=None) -> Prepared:
    """The shared workspace of the verify stages for one entry.

    The scalar pair and, unless the config overrides a probe box, the
    decomposition are the entry's own (``CatalogEntry.scalar_pair`` and
    ``.decomposition``), derived and compiled once per entry; a box
    override decomposes afresh.  The basepoint does not enter the
    decomposition.  The reduced equation, with fresh E/S and gauge memos,
    and the 4-point frame fit are built on every call, so no call sees
    another's points."""
    entry = (entry_or_id if isinstance(entry_or_id, cat.CatalogEntry)
             else cat.lookup(entry_or_id, overrides))
    box_x = cat.ComplexRect(*config.box_x) if config.box_x else entry.box_x
    box_t = cat.ComplexRect(*config.box_t) if config.box_t else entry.box_t
    sp = entry.scalar_pair
    if config.box_x or config.box_t:
        dec = red_mod.decompose(sp, box_x, box_t)
    else:
        dec = entry.decomposition
    basepoint = config.basepoint if config.basepoint is not None else entry.basepoint_x
    red = red_mod.build_reduced(sp, dec, basepoint)
    a, b, resid = _tau_frame(entry, red)
    return Prepared(entry=entry, sp=sp, dec=dec, red=red,
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

    Candidate triples (x1, t1, x2) are drawn in chunks, in the order and
    from the stream one at a time would use, and never past the budget of
    200 attempts per pair.  E and S at all x of a chunk are integrated in
    one batch (``ReducedEquation.prefetch``); the per-candidate checks then
    run one at a time on the memoized values, so the batch changes the
    cost, not which pairs are tried or accepted."""
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
        chunk = []
        for _ in range(min(max_attempts - attempts, max(8, math.ceil(wanted)))):
            x1 = prep.box_x.random(rng)
            t1 = prep.box_t.random(rng)
            x2 = prep.box_x.random(rng)
            chunk.append((x1, t1, x2))
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
    uniq: list[complex] = []
    for tau in taus:
        if all(abs(tau - u) > 1e-10 for u in uniq):
            uniq.append(tau)
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
    with the running quantities E = exp(int h), S = int f E and the gauge
    factor, so tau, gauge and the reduced coefficients are available at any
    point of the trace at solver accuracy."""

    x_start: complex
    x_end: complex
    t_fixed: complex
    sol: object                     # scipy OdeSolution over s in [0, L]
    length: float
    kind: str                        # "system" | "scalar"
    observable_index: int = 0        # which state entry the reduction acts on

    def state(self, s: float) -> np.ndarray:
        return self.sol(float(s))

    def x_of(self, s):
        """x at arclength s; s may be a float or an array."""
        u = (self.x_end - self.x_start) / self.length
        return self.x_start + u * s

    def phi(self, s: float) -> complex:
        """The solution component the scalar reduction applies to."""
        return complex(self.state(s)[self.observable_index])

    def channels(self, s: float) -> tuple[complex, complex, complex]:
        """(E, S, gauge) at arclength s."""
        st = self.state(s)
        return complex(st[2]), complex(st[3]), complex(st[4])


def _trace(prep: Prepared, t_fixed: complex, x_path: Path,
           initial: tuple[complex, complex],
           rtol: float = 1e-12, atol: float = 1e-13) -> SolutionTrace:
    """Adaptive high-order dense solve of the x-system at fixed deformation.

    For direct scalar entries the companion system of the second-order
    equation is integrated instead (initial = (phi, phi'))."""
    if len(x_path.points) != 2:
        raise VerifyError("solution traces run along a single straight segment")
    entry = prep.entry
    x0, x1 = x_path.points
    length = abs(x1 - x0)
    u = (x1 - x0) / length
    t_fixed = complex(t_fixed)

    vc = prep.red._vc
    hfn, ffn, gfn = vc._h, vc._f, vc._G
    e0 = vc.E(x0)
    s0 = vc.S(x0)
    g0 = vc.gauge(x0)

    if entry.lax is not None:
        a_entries = entry.lax.a_entries

        def rhs(s, y):
            x = x0 + u * s
            a11, a12, a21, a22 = a_entries(x, t_fixed)
            p, q, ee = y[0], y[1], y[2]
            return [
                u * (a11 * p + a12 * q),
                u * (a21 * p + a22 * q),
                u * hfn(x, t_fixed) * ee,
                u * ffn(x, t_fixed) * ee,
                u * gfn(x, t_fixed) * y[4],
            ]

        kind = "system"
    else:
        p1_q1 = prep.sp.p1_q1

        def rhs(s, y):
            x = x0 + u * s
            p, dp, ee = y[0], y[1], y[2]
            p1, q1 = p1_q1(x, t_fixed)
            return [
                u * dp,
                u * (-p1 * dp - q1 * p),
                u * hfn(x, t_fixed) * ee,
                u * ffn(x, t_fixed) * ee,
                u * gfn(x, t_fixed) * y[4],
            ]

        kind = "scalar"

    y0 = np.array([initial[0], initial[1], e0, s0, g0], dtype=complex)
    res = solve_ivp(rhs, (0.0, length), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not res.success:
        raise VerifyError(f"linear-system integration failed: {res.message}")
    obs = 0
    if kind == "system" and prep.sp.component == "second":
        obs = 1
    return SolutionTrace(x_start=x0, x_end=x1, t_fixed=t_fixed,
                         sol=res.sol, length=length, kind=kind,
                         observable_index=obs)


def joint_solution(prep: Prepared, x_anchor: complex, t_center: complex,
                   dt: float = 5e-3, span: float = 0.6,
                   rtol: float = 1e-12, atol: float = 1e-13
                   ) -> Callable[[complex, complex], complex]:
    """A sampler phi(x, t) of one joint solution of both linear systems.

    The initial vector is transported in t along the deformation system at
    the anchor point, then each deformation slice is integrated in x both
    below and above the anchor; valid for t on the stencil
    t_center + k dt, |k| <= 2, and |x - x_anchor| <= span.  The sampler
    returns the solution component the entry's reduction acts on.  Only
    available for entries with full matrix data."""
    entry = prep.entry
    if entry.lax is None:
        raise VerifyError("joint solutions need the full 2x2 system")
    comp = 0 if entry.component == "first" else 1
    b_entries = entry.lax.b_entries
    a_entries = entry.lax.a_entries
    x_anchor = complex(x_anchor)
    t_center = complex(t_center)

    def rhs_t(t, y):
        b11, b12, b21, b22 = b_entries(x_anchor, complex(t))
        return [b11 * y[0] + b12 * y[1], b21 * y[0] + b22 * y[1]]

    phi0 = np.array([1.0 + 0j, 0.4 + 0.1j])
    slices: dict[float, tuple] = {}
    for k in (-2, -1, 0, 1, 2):
        tk = t_center + k * dt
        if k == 0:
            y0 = phi0
        else:
            res = solve_ivp(rhs_t, (t_center.real, tk.real),
                            phi0, method="DOP853", rtol=rtol, atol=atol)
            if not res.success:
                raise VerifyError(f"deformation transport failed: {res.message}")
            y0 = res.y[:, -1]

        def rhs_x(s, y, tk=tk):
            a11, a12, a21, a22 = a_entries(x_anchor + s, tk)
            return [a11 * y[0] + a12 * y[1], a21 * y[0] + a22 * y[1]]

        legs = []
        for direction in (span, -span):
            res = solve_ivp(rhs_x, (0.0, direction),
                            np.asarray(y0, dtype=complex), method="DOP853",
                            rtol=rtol, atol=atol, dense_output=True)
            if not res.success:
                raise VerifyError(f"x-integration failed: {res.message}")
            legs.append(res)
        slices[k * dt] = tuple(legs)

    def phi(x: complex, t: complex) -> complex:
        off = (complex(t) - t_center).real
        key = min(slices, key=lambda d: abs(d - off))
        if abs(key - off) > dt * 0.5 + 1e-12:
            raise VerifyError(f"t = {t} outside the transported stencil")
        s = (complex(x) - x_anchor).real
        if abs(s) > span + 1e-12:
            raise VerifyError(f"x = {x} outside the solved span")
        leg = slices[key][0 if s >= 0 else 1]
        return complex(leg.sol(s)[comp])

    return phi


# ---------------------------------------------------------------------------
# Cross-validation on a dense trace

def _default_cross_path(prep: Prepared) -> Path:
    # From the basepoint toward the far edge of the x box: keeps exp(int h)
    # of order one and tau_x bounded away from zero for every entry.
    return Path([prep.red.basepoint_x, complex(prep.box_x.re_hi - 0.05, 0.0)])


def _invert_tau(trace: SolutionTrace, phi_array: Callable, t_fixed: complex,
                taus: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Arclengths at which Re tau = Re(t E + S) on the trace takes the
    values ``taus``, by Newton from the guesses ``s`` (all targets at once).

    Each target takes at most 8 steps s -= (Re tau - target) / Re(tau_x u),
    clamped to [0, L], until its step falls below 1e-13 (1 + L); tau_x is
    phi(x, t) E.  A step evaluates the dense output once, on the targets
    still moving, and ``phi_array`` (the array form of phi) once on all of
    them.  Raises :class:`VerifyError` when a target is left unconverged,
    by the step budget or by a zero derivative."""
    length = trace.length
    u = (trace.x_end - trace.x_start) / length
    s = np.array(s, dtype=float)
    active = np.arange(len(s))
    converged = np.zeros(len(s), dtype=bool)
    step_tol = 1e-13 * (1 + length)
    for _ in range(8):
        if active.size == 0:
            break
        st = trace.sol(s[active])
        g = (t_fixed * st[2] + st[3]).real - taus[active]
        ph = phi_array(trace.x_of(s[active]), t_fixed)
        dg = (ph * st[2] * u).real
        moving = dg != 0
        active = active[moving]
        step = g[moving] / dg[moving]
        s[active] = np.clip(s[active] - step, 0.0, length)
        small = np.abs(step) < step_tol
        converged[active[small]] = True
        active = active[~small]
    if not converged.all():
        raise VerifyError(
            f"tau inversion did not converge for {len(s) - int(converged.sum())} "
            f"of {len(s)} targets")
    return s


def cross_validate(prep_or_entry, t_fixed: complex | None = None,
                   x_path: Path | None = None, n_points: int | None = None,
                   config: Config = DEFAULT_CONFIG) -> float:
    """Check the reduced equation on an actual solution.

    Integrates the linear system at a fixed deformation value, strips the
    gauge, re-parametrizes the trace by tau and tests w'' + P w' + Q w = 0
    with 5-point finite differences on a uniform tau grid.  Returns the max
    residual relative to max |w|.

    The arclengths of all tau targets are found together by a batched
    Newton (:func:`_invert_tau`) started from linear interpolation on a
    257-point tau table of the trace, and the trace is then read once at
    all of them.  So the dense output is called at most 10 times, however
    many points are asked for.  phi, p_num and q_num come from one call of
    the array form of ``_coeff_parts`` (``_coeff_parts_array``) on all the
    points.  Raises
    :class:`VerifyError` when a target does not converge or when w, P, Q or
    the stencil residual is not finite at some tau."""
    prep = (prep_or_entry if isinstance(prep_or_entry, Prepared)
            else prepare(prep_or_entry, config))
    red = prep.red
    if t_fixed is None:
        t_fixed = complex(0.5 * (prep.box_t.re_lo + prep.box_t.re_hi), 0.0)
    if x_path is None:
        x_path = _default_cross_path(prep)
    n = n_points if n_points is not None else max(config.trace_points, 201)

    trace = _trace(prep, t_fixed, x_path, initial=(1.0, 0.4 + 0.1j))
    t_fixed = complex(t_fixed)

    # Dense-output states are (5, m) arrays; tau = t E + S.
    s_grid = np.linspace(0.0, trace.length, 257)
    grid_states = trace.sol(s_grid)
    tau_grid = (t_fixed * grid_states[2] + grid_states[3]).real
    # tau is monotone along the chosen paths; work on a slightly interior
    # window so Newton never leaves the trace.
    lo, hi = sorted((tau_grid[0], tau_grid[-1]))
    span = hi - lo
    lo += 0.02 * span
    hi -= 0.02 * span
    taus = np.linspace(lo, hi, n)

    order = np.argsort(tau_grid)
    s = _invert_tau(trace, red._phi_array, t_fixed, taus,
                    np.interp(taus, tau_grid[order], s_grid[order]))

    st = trace.sol(s)
    e = st[2]
    ph, p_num, q_num = red._coeff_parts_array(trace.x_of(s), t_fixed)

    h = float(taus[1] - taus[0])
    # Stencil stride balances interpolation/solver noise (~eps/H^2) against
    # truncation (~H^4).
    stride = max(1, round(0.007 / h))
    H = stride * h
    k = np.arange(2 * stride, n - 2 * stride)
    with np.errstate(all="ignore"):
        ws = st[trace.observable_index] / st[4]
        den = ph * ph * e
        Pv = p_num / den
        Qv = q_num / (den * e)
        wm2, wm1, w0, wp1, wp2 = (ws[k - 2 * stride], ws[k - stride], ws[k],
                                  ws[k + stride], ws[k + 2 * stride])
        d1 = (wm2 - 8 * wm1 + 8 * wp1 - wp2) / (12 * H)
        d2 = (-wm2 + 16 * wm1 - 30 * w0 + 16 * wp1 - wp2) / (12 * H * H)
        r = d2 + Pv[k] * d1 + Qv[k] * w0
    finite = np.isfinite(ws) & np.isfinite(Pv) & np.isfinite(Qv)
    finite[k] &= np.isfinite(r)
    if not finite.all():
        first = int(np.argmin(finite))
        raise VerifyError(
            f"non-finite w, P, Q or stencil residual at tau = {taus[first]:.6g}")
    wmax = float(np.max(np.abs(ws)))
    return float(np.max(np.abs(r), initial=0.0)) / wmax


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
            cat.flow_residual(entry, entry.box_t.random(rng))
            for _ in range(config.flow_probes)
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
