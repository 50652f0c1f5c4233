"""Extraction of the reduction data and the change of variables.

Given the scalar pair of a completely integrable system whose off-diagonal
entries factor as

    a_off = g(t) [P1(x) + t P2(x)],      b_off = g(t) P3(x),

the cross-relation coefficient splits as

    q2 = R(x) + M(t) [f(x) + t h(x)],    f = P1/P3,  h = P2/P3,

and the change of variables

    phi = exp(int R dx) w,
    tau = t exp(int h dx) + int f exp(int h dx) dx

turns the second-order equation in x into  w'' + P(tau) w' + Q(tau) w = 0
with coefficients that no longer depend on the deformation parameter.
This module recovers (f, h, R, M) numerically-symbolically from the scalar
pair alone, R and M by one rule in which the case picks only M(t1)
(:func:`decompose`), so pairs that differ by a gauge in t reduce alike.
A scalar pair is always the first component of its system
(``ScalarPair.system``), so the same formulas serve either solution
component.
:func:`decompose` also makes every numeric check of the scalar pair's
hypotheses: that neither off-diagonal entry vanishes, that p2 is affine in
t, that g does not depend on x and that a_off factors as g (P1 + t P2),
all from probe values, so g and the P_i are checked and never built.
One object, :class:`ReducedEquation`, builds the evaluable tau map by
cumulative integration on adaptive Chebyshev panels, with one stage form
(array samples of h and f E on the points of a panel), and forms P and Q
by the chain rule:

    P = (tau_xx + (p1 + 2G) tau_x) / tau_x^2
    Q = (G' + G^2 + p1 G + q1) / tau_x^2,     G = R,

with tau_x = (f + t h) exp(int h) taken symbolically, so the only numerics
in P and Q are the integral defining exp(int h).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import expr as fe
from .expr import Expr, T
from .scalarize import ScalarPair, VanishingOffDiagonalError

__all__ = [
    "Decomposition",
    "ReducedEquation",
    "DecompositionError",
    "DegenerateTauPointError",
    "decompose",
    "classify_case",
    "build_reduced",
]


class DecompositionError(Exception):
    pass


class DegenerateTauPointError(fe.SingularEvaluationError):
    """tau_x vanishes at the requested point; the reduced coefficients are
    undefined there and the point is skipped, as every singular one is."""


def _fh_zero(f, h, p2_t1) -> tuple[bool, bool]:
    """(f_zero, h_zero): whether the values of f and of h at the x probes
    vanish, relative to those of p2 at the x probes and t1."""
    return fe.numerically_zero(f, reference=p2_t1), fe.numerically_zero(h, reference=p2_t1)


def _m_zero(m) -> tuple[bool, bool]:
    """(M_zero, M_constant): whether the values of M at the t probes, and
    those less the first, vanish."""
    m_zero = fe.numerically_zero(m)
    return m_zero, m_zero or fe.numerically_zero(m - m[0], reference=m)


def _quotient(num, den):
    """num / den, raising as the walk of a ``div`` node does where den is
    exactly 0."""
    if np.any(den == 0):
        raise fe.SingularEvaluationError("division by zero")
    return num / den


# Joint probes of the invariance identities (Decomposition.invariance).
_INVARIANCE_PROBES = 24


@dataclass
class Decomposition:
    """The reduction data of a scalar pair.  Immutable by convention.

    ``f``, ``h`` and ``R`` are expressions in x alone and ``M`` one in t
    alone, with q2 = R + M (f + t h); :func:`decompose` checks the factors
    g and P_i of the off-diagonal pair, and no field keeps them.
    ``exponent_A`` is the constant A with ``g = B^-1 exp(-2 M t) t^A`` when
    M is constant (None otherwise).  ``box_x`` and ``box_t`` are the probe
    boxes (``catalog.ComplexRect``) the data was recovered on.  ``sp`` is
    the scalar pair the data was recovered from; it is required, because
    the reduced coefficients are compiled from its p1 and q1.  The gauge
    exponent G of exp(int G dx) is R.

    The case flags ``f_zero``, ``h_zero``, ``M_zero`` and ``M_constant`` are
    those :func:`decompose` measured; a copy (``dataclasses.replace``)
    measures its own from one array call of a kernel of its own (f, h, p2)
    at the 7 x probes and t1, and one of a kernel of its M at the 9 t
    probes, and reads the invariance identities afresh too
    (:attr:`invariance`).  The other underscored cached properties are
    the decomposition's one kernel, of (phi, p_num, q_num), phi = f + t h
    (see :class:`ReducedEquation`), which numbers G, h and f after them
    (``_coeff_array``): its suffix views (``expr.Kernel.view``) are
    ``view(3)``, (G, h, f), which the cross-validation leg reads, and
    ``_hf_array``, (h, f), which the E/S walk reads and which never runs
    G's lines; the kernel on the line x = x0, the centre of the x box
    (``expr.Kernel.on_x``); and its compiled stages (``_coeff_stages``),
    which ``ReducedEquation.coefficients_at`` alone runs.  Each is built
    on first use and kept for the life of the decomposition.  The views
    number nothing: G, h and f are in the coefficients' DAG.
    ``dataclasses.replace`` starts without any cached property."""

    f: Expr
    h: Expr
    R: Expr
    M: Expr
    exponent_A: complex | None
    box_x: object
    box_t: object
    sp: ScalarPair = field(repr=False, compare=False)

    @cached_property
    def _fh_flags(self) -> tuple[bool, bool]:
        xs = np.array(self.box_x.diagonal(7))
        ts = np.full(7, self.box_t.diagonal(7)[1])
        return _fh_zero(*fe.Kernel((self.f, self.h, self.sp.p2))(xs, ts))

    @cached_property
    def _m_flags(self) -> tuple[bool, bool]:
        ts = np.array(self.box_t.diagonal(9))
        return _m_zero(fe.Kernel(self.M)(self.box_x.center, ts))

    @property
    def f_zero(self) -> bool:
        return self._fh_flags[0]

    @property
    def h_zero(self) -> bool:
        return self._fh_flags[1]

    @property
    def M_zero(self) -> bool:
        return self._m_flags[0]

    @property
    def M_constant(self) -> bool:
        return self._m_flags[1]

    @cached_property
    def _coeff_array(self) -> fe.Kernel:
        G = self.R
        p1, q1 = self.sp.p1, self.sp.q1
        f_x, h_x, G_x = fe.differentiate((self.f, self.h, G), "x")
        phi = fe.add(self.f, fe.mul(T, self.h))
        p_num = fe.add(
            fe.add(f_x, fe.mul(T, h_x)),
            fe.mul(phi, fe.add(self.h, fe.add(p1, fe.mul(fe.const(2), G)))),
        )
        q_num = fe.add(
            fe.add(G_x, fe.mul(G, G)),
            fe.add(fe.mul(p1, G), q1),
        )
        return fe.Kernel((phi, p_num, q_num, G, self.h, self.f), 3)

    @cached_property
    def _coeff_stages(self) -> tuple[Callable, Callable, Callable]:
        return fe.compile_expr(self._coeff_array)

    @cached_property
    def invariance(self) -> float:
        """The reading of the invariance identities: how far P and Q are
        from depending on tau alone, with no quadrature.

        With a = p_num / phi^2 and b = q_num / phi^2, P = a / E and
        Q = b / E^2, and tau_t = E, tau_x = phi E, E_x = h E.  So P and Q
        are constant along the level curves of tau exactly when, with
        D = d/dt - (1/phi) d/dx,

            D a + h a / phi = 0   and   D b + 2 h b / phi = 0.

        Each identity is normalized by its own coefficient, |D a + h a/phi|
        / max(1, |a|) and |D b + 2 h b/phi| / max(1, |b|), and the reading
        is the max of both over ``_INVARIANCE_PROBES`` joint probes (x on
        the x box's diagonal, t on the t box's, run in opposite
        directions), from first-order jets of (phi, p_num, q_num), one per
        fused line of the coefficient kernel (``expr._jets``), the lines its
        array form runs; h is d phi / dt.  It depends on the decomposition
        alone, so it is computed once per decomposition.  A point where phi
        vanishes or a value is singular gives a reading that is not
        finite."""
        xs = np.array(self.box_x.diagonal(_INVARIANCE_PROBES))
        ts = np.array(self.box_t.diagonal(_INVARIANCE_PROBES)[::-1])
        (phi, phi_x, h), *nums = fe._jets(self._coeff_array, xs, ts)
        readings = []
        with np.errstate(all="ignore"):
            for k, (num, num_x, num_t) in enumerate(nums, 1):
                a = num / phi ** 2
                a_x = (num_x * phi - 2 * num * phi_x) / phi ** 3
                a_t = (num_t * phi - 2 * num * h) / phi ** 3
                identity = a_t - a_x / phi + k * h * a / phi
                readings.append(np.abs(identity) / np.maximum(1.0, np.abs(a)))
        # np.max, unlike max, keeps a NaN.
        return float(np.max(readings))

    @cached_property
    def _coeff_x0(self):
        return self._coeff_array.on_x(self.box_x.center)

    @cached_property
    def _hf_array(self) -> fe.Kernel:
        return self._coeff_array.view(4)


def decompose(sp: ScalarPair, box_x, box_t) -> Decomposition:
    """Recover (f, h, R, M) and check the off-diagonal pair's factorization.

    f and h come from sampling the ratio p2 = a_off/b_off at two deformation
    values (exact, since p2 is affine in t); a third value is a consistency
    residual.  R and M come from one rule, validated on a joint probe grid:
    with phi = f + t h, xa the x probe of largest |phi(., t1)| and a pin m1,
    R = q2(., t1) - m1 phi(., t1) and M(t) = (q2(xa, t) - R(xa)) / phi(xa, t),
    so that M(t1) = m1.  The case chooses only the pin:

    * h = 0: m1 = 0, which pins the freedom R -> R + c f, M -> M - c as the
      documented closed forms of every shipped entry do;
    * f, h independent: the one M(t1) the split allows, by a 2x2 solve at
      t1, t2 and the two x probes of largest determinant;
    * f = k h: the secant slope (q2(xa, t2) - q2(xa, t1)) / ((t2 - t1) h(xa))
      of M (t + k).  The freedom M -> M + c/(t + k), R -> R - c h moves
      M (t + k) by the constant c, so every admissible M has this slope: the
      pin is a normalization, and as a constant M is its own slope, it
      takes the constant M when there is one.

    A t-only gauge of the Lax pair moves q2 by phi times a function of t,
    which M absorbs.  When f and h both vanish, M = 0; when f = -t1 h,
    phi(., t1) vanishes and the split is refused.
    On the off-diagonal pair (``sp.off_diag``, read as (p2, 1) for a pair
    given directly), with P3 = b_off(., t1), g = b_off / P3 must not depend
    on x, and a_off must factor as g P3 (f + t h).  Before it reads p2, it
    checks the hypothesis of the scalar form for a pair scalarized from
    matrices: the a_off and b_off rows of its first call at the 12 joint
    probes (x on the x box's diagonal, t on the t box's, run in opposite
    directions) must not vanish, else it raises
    :class:`scalarize.VanishingOffDiagonalError` naming the entry.
    ``box_x`` and ``box_t`` are the probe boxes (``catalog.ComplexRect``).

    Every decision reads values of (p2, q2, a_off, b_off) from two array
    calls of their one kernel (``expr._sample``): the 7 x probes at t1, t2
    and t3 and the 12 joint probes' x at their t and at t1, then xa and
    the two x of largest |P3| at the 9 t probes, the joint t's and the two
    t's of the exponent A, where the jets of b_off alone (``expr._jets`` on
    a view of the kernel) give g'/g.  As phi = f + t h is p2, f, h, R, M, g
    and the P_i at the probes are sums and ratios of these; only f, h, R
    and M are built as DAGs.  A value read that is not finite is walked at
    its point (``expr._finite``), so a singular probe raises the walk's
    exception; each call's values are tested for finiteness once, and the
    reads of a call whose values are all finite walk nothing."""
    xs, tdiag = box_x.diagonal(7), box_t.diagonal(7)
    t1, t2, t3 = tdiag[1], tdiag[5], tdiag[3]
    jt = box_t.diagonal(12)[::-1]       # the joint probes' t
    aoff, boff = sp.off_diag or (sp.p2, fe.const(1))
    roots = (sp.p2, sp.q2, aoff, boff)
    kernel = fe.Kernel(roots)

    def reader(vals, px, pt):
        """The values of root i at the points ``at`` of a call, checked: the
        call's values are tested for finiteness once, and only a call that
        holds a value that is not finite walks each read (``expr._finite``)."""
        return ((lambda i, at: vals[i][at]) if np.isfinite(vals).all()
                else lambda i, at: fe._finite(roots[i], vals[i][at], px[at], pt[at]))

    # The first call: rows of x, the 7 x probes at (t1, t2, t3), then the
    # 12 joint probes' at (their t, t1, t1).
    px = np.repeat(xs + box_x.diagonal(12), 3).reshape(19, 3)
    pt = np.array([(t1, t2, t3)] * 7 + [(t, t1, t1) for t in jt])
    first = fe._sample(kernel, px, pt)
    read1 = reader(first, px, pt)
    X7, J, J1 = np.s_[:7], np.s_[7:, 0], np.s_[7:, 1]

    # --- the scalar form's hypothesis: neither off-diagonal entry vanishes
    if sp.off_diag is not None:
        for name, v in zip(("a-offdiag", "b-offdiag"), [read1(2, J), read1(3, J)]):
            if fe.numerically_zero(v):
                raise VanishingOffDiagonalError(
                    f"{name} entry vanishes on the probe set; "
                    f"cannot scalarize the {sp.component} component")

    # --- f and h from the affine-in-t ratio p2
    p2_x7 = read1(0, X7)
    h_x7 = (p2_x7[:, 1] - p2_x7[:, 0]) / (t2 - t1)
    f_x7 = p2_x7[:, 0] - t1 * h_x7
    if not fe.numerically_zero(f_x7 + t3 * h_x7 - p2_x7[:, 2], tol=1e-9,
                               reference=p2_x7[:, 2]):
        raise DecompositionError(
            "the off-diagonal ratio p2 is not affine in the deformation variable")
    f_zero, h_zero = _fh_zero(f_x7, h_x7, p2_x7[:, 0])
    p2_t1 = fe.substitute(sp.p2, t=t1)
    h = fe.div(fe.sub(fe.substitute(sp.p2, t=t2), p2_t1), fe.const(t2 - t1))
    f = fe.sub(p2_t1, fe.mul(fe.const(t1), h))

    # --- R and M from q2 = R + M (f + t h): the case picks only m1
    split, m1 = not (f_zero and h_zero), 0j
    if not split:
        R, M = fe.substitute(sp.q2, t=t1), fe.const(0)
    else:
        # phi at (x, t1) and (x, t2): p2 there.
        phi_x7 = p2_x7.tolist()
        ia = max(range(len(xs)), key=lambda i: abs(phi_x7[i][0]))
        if abs(phi_x7[ia][0]) < 1e-12:
            raise DecompositionError("cannot split q2: f + t h vanishes at all probes")
        if not h_zero:
            # The 2x2 system for (M(t1), M(t2)) at the probe pair with the
            # largest determinant, (t1 - t2) (f(xp) h(xq) - f(xq) h(xp)).
            rows = [(v[0], -v[1]) for v in phi_x7]
            det, ip, iq = max(((rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0], i, j)
                               for i, j in combinations(range(len(xs)), 2)),
                              key=lambda d: abs(d[0]))
            (a11, a12), (a21, a22) = rows[ip], rows[iq]
            scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-30)
            if abs(det) > 1e-8 * scale * scale:
                q11, q12, q21, q22 = read1(1, np.s_[[ip, iq], :2]).ravel().tolist()
                m1 = ((q11 - q12) * a22 - a12 * (q21 - q22)) / det
            else:
                # f = k h: the secant slope of M (t + k), which the
                # freedom M -> M + c/(t + k) leaves unchanged.
                q_t1, q_t2 = read1(1, np.s_[ia, :2]).tolist()
                m1 = (q_t2 - q_t1) / ((t2 - t1) * h_x7[ia].item())
        # phi(., t1) is p2(., t1), and phi(xa, .) is f(xa) + t h(xa).
        R = fe.sub(fe.substitute(sp.q2, t=t1), fe.mul(fe.const(m1), p2_t1))
        r_xa = read1(1, np.s_[ia, :1])[0].item() - m1 * phi_x7[ia][0]
        phi_xa = fe.add(fe.const(f_x7[ia]), fe.mul(T, fe.const(h_x7[ia])))
        M = fe.div(fe.sub(fe.substitute(sp.q2, x=xs[ia]), fe.const(r_xa)), phi_xa)

    # The second call: rows of x, the x of largest |P3|, the next and xa,
    # each at the 9 t probes (T9), the joint t's (TJ) and the two t's of A.
    p3_x7 = list(zip(xs, first[3][:7, 0].tolist()))
    xg, p3_xg = max(p3_x7, key=lambda p: abs(p[1]))
    xb, p3_xb = max((p for p in p3_x7 if p[0] != xg), key=lambda p: abs(p[1]))
    ta = [tdiag[2], tdiag[4]]
    pt2, px2 = np.meshgrid(box_t.diagonal(9) + jt + ta, [xg, xb, xs[ia] if split else xg])
    read2 = reader(fe._sample(kernel, px2, pt2), px2, pt2)
    T9, TJ, TA = np.s_[:9], np.s_[9:21], np.s_[21:]

    def m_at(ts):
        """M at the t's ``ts`` of the second call: (q2(xa, t) - R(xa)) / p2(xa, t)."""
        return _quotient(read2(1, (2, ts)) - r_xa, read2(0, (2, ts))) if split else 0

    # q2 - (R + M phi), with R = q2(., t1) - m1 p2(., t1) and phi = p2.
    q2_j = read1(1, J)
    defect = q2_j - read1(1, J1) + m1 * read1(0, J1) - m_at(TJ) * read1(0, J)
    if not fe.numerically_zero(defect, tol=1e-8, reference=q2_j):
        raise DecompositionError("inconsistent R/M split (residual above 1e-08)")

    m_flags = _m_zero(m_at(T9))

    # --- the factorization of the off-diagonal pair by g(t)
    read1(3, np.s_[:7, 0])      # P3 at the x probes
    g_t9 = _quotient(read2(3, (0, T9)), p3_xg)
    if not fe.numerically_zero(g_t9 - _quotient(read2(3, (1, T9)), p3_xb), tol=1e-9,
                               reference=g_t9):
        raise DecompositionError("the deformation profile g depends on x")
    a_j = read1(2, J)
    # g (P1 + t P2) = g P3 (f + t h) = g P3 p2 at the joint probes.
    factor = a_j - _quotient(read2(3, (0, TJ)), p3_xg) * (read1(3, J1) * read1(0, J))
    if not fe.numerically_zero(factor, tol=1e-9, reference=a_j):
        raise DecompositionError("a_off does not factor as g(t)[P1 + t P2]")

    exponent_a: complex | None = None
    if m_flags[1]:
        # t (g'/g + 2 M) at the two t's, g'/g = (d/dt b_off) / b_off at xg,
        # from the jets of b_off alone (a view of the kernel).
        (_, _, db_ta), = fe._jets(kernel.view(3), px2[0, TA], pt2[0, TA])
        if not np.isfinite(db_ta).all():
            fe._finite(fe.differentiate(boff, "t"), db_ta, px2[0, TA], pt2[0, TA])
        dlog_g = _quotient(db_ta, read2(3, (0, TA)))
        vals = (np.array(ta) * (dlog_g + 2 * m_at(TA))).tolist()
        if abs(vals[0] - vals[1]) <= 1e-7 * (1 + abs(vals[0])):
            exponent_a = vals[0]

    dec = Decomposition(f=f, h=h, R=R, M=M, exponent_A=exponent_a,
                        box_x=box_x, box_t=box_t, sp=sp)
    # The flags measured above, as the properties would measure them.
    dec.__dict__.update(_fh_flags=(f_zero, h_zero), _m_flags=m_flags)
    return dec


def classify_case(dec: Decomposition) -> str:
    """Which particular reduced form applies.

    ``mixed`` marks the combination M = 0 with f and h both nonvanishing,
    which the general theory does not cover but which occurs in the catalog
    and is certified numerically like every other case."""
    if dec.f_zero and dec.h_zero:
        if dec.M_constant:
            return "EQ1"
        raise DecompositionError(
            "f = h = 0 with nonconstant M is outside the reducible class")
    if dec.f_zero:
        return "EQ2"
    if dec.h_zero:
        if dec.M_zero:
            return "EQ3"
        if dec.M_constant:
            return "EQ1"
        return "generic_EQ"
    if dec.M_zero:
        return "mixed"
    return "generic_EQ"


# ---------------------------------------------------------------------------
# Change of variables and reduced equation

# The gates of phi^2 E and of (phi E)^2 against tau_x = 0, in that order.
_DEN_P_MIN, _DEN_Q_MIN = 1e-14, 1e-20


class ReducedEquation:
    """The change of variables and the reduced equation w'' + P w' + Q w = 0
    of one decomposition and basepoint.

    E = exp(int h) and S = int f E (tau = t E + S) are integrated along the
    straight segment from the basepoint on adaptive Chebyshev panels
    (``expr._walk_panels``), h and f sampled by one kernel per panel
    point; when f vanishes S = 0, and when h vanishes E = 1 exactly.
    Values are built-in ``complex`` and memoized per point.  A point whose
    walk fails is not memoized, so asking for it again raises again.

    P = p_num / (phi^2 E) and Q = q_num / (phi E)^2 with phi = f + t h, from
    the decomposition's kernel of (phi, p_num, q_num): many t at the centre
    x0 of the x box in one array call (:meth:`coefficients_at_x0`), or one
    point on the stages of its compiled form (:meth:`coefficients_at`, the
    one caller of compiled code, whose lines read once in their stage run
    inside their readers, ``expr.compile_expr``), which agree to rounding.
    The gates on phi^2 E and (phi E)^2 are the one rule for a degenerate
    point, where tau_x = phi E vanishes; a point where the kernel itself
    raises is rejected in both by the walk's exception there (one of
    ``expr._SAMPLE_ERRORS``).  All memos are keyed on the built-in
    ``complex`` value, so +0 and -0 in a part share an entry, and an int,
    a float or a numpy complex gives the values and keys of the built-in
    complex it equals.  At a point whose x and t are memoized,
    :meth:`tau_at` probes one memo and :meth:`coefficients_at` one per
    coordinate; what a first use computes (the x- or t-stage, E and S) is
    paid once per coordinate.

    Building one compiles nothing.  Its own state is the basepoint and its
    memos, and it holds no reference to itself, so the memos are freed as
    soon as the last reference to it goes.  For a completely integrable
    input P and Q depend on (x, t) only through tau."""

    # Absolute tolerance of every E and S integral.
    quad_tol = 1e-13

    def __init__(self, dec: Decomposition, basepoint_x: complex):
        self.dec = dec
        self.basepoint_x = complex(basepoint_x)
        self.case_tag = classify_case(dec)
        self._hf_array = dec._hf_array
        self._cache_ES: dict[complex, tuple[complex, complex]] = {}
        # x -> (E(x), pre_x(x), post) and t -> pre_t(t), filled by
        # coefficients_at on the stages (pre_x, pre_t, post) of the
        # coefficient kernel's compiled form.
        self._cache_x: dict[complex, tuple[complex, tuple, Callable]] = {}
        self._cache_t: dict[complex, tuple] = {}

    # -- change of variables -------------------------------------------------
    @property
    def _es_stages(self):
        """Stages of one pass of the panel walker: h, then f E; h alone
        when f vanishes, and f alone when h vanishes (E = 1).  Built per
        walk: stored, these bound methods would make a cycle through self."""
        dec = self.dec
        if dec.f_zero:
            return (self._hf_rows,)
        return (self._f_rows,) if dec.h_zero else (self._hf_rows, self._fE_rows)

    def _hf_rows(self, z, prior):
        # The samples of h, and those of f passed on to the f E stage.
        return self._hf_array(z, 0j)

    def _fE_rows(self, z, prior):
        return np.exp(prior[0]) * prior[1]

    def _f_rows(self, z, prior):
        return self._hf_array(z, 0j)[1]

    def _es_value(self, integrals: list[complex]) -> tuple[complex, complex]:
        # The stages of _es_stages: S is 0 when f vanishes, E is 1 when h
        # does, and neither has a stage then.
        dec = self.dec
        if dec.f_zero:
            return cmath.exp(integrals[0]), 0j
        if dec.h_zero:
            return 1 + 0j, integrals[0]
        return cmath.exp(integrals[0]), integrals[1]

    def _ES(self, x: complex) -> tuple[complex, complex]:
        got = self._cache_ES.get(x)
        if got is None:
            got = self._cache_ES[x] = self._es_value(
                fe._walk_panels(self._es_stages, self.basepoint_x, x, self.quad_tol))
        return got

    def E(self, x: complex) -> complex:
        """exp(int_{x0}^{x} h), normalized to 1 at the basepoint."""
        return self._ES(complex(x))[0]

    def S(self, x: complex) -> complex:
        """int_{x0}^{x} f exp(int h); the additive part of tau."""
        return self._ES(complex(x))[1]

    def tau_at(self, x: complex, t: complex) -> complex:
        # An int, float or numpy complex probes the memo as the complex it
        # equals, which is what the memo keys and the arithmetic take.
        e, s = self._cache_ES.get(x) or self._ES(complex(x))
        return (t if type(t) is complex else complex(t)) * e + s

    def solve_t(self, x: complex, tau_target: complex) -> complex:
        """The deformation value carrying (x, .) to a prescribed tau.
        Nothing in the pipeline calls it."""
        e, s = self._ES(complex(x))
        if e == 0:
            raise DegenerateTauPointError(f"exp(int h) vanished at x = {x}")
        return (complex(tau_target) - s) / e

    # -- reduced coefficients ------------------------------------------------
    def coefficients_at(self, x: complex, t: complex) -> tuple[complex, complex]:
        """(P, Q) at one point; raises DegenerateTauPointError where
        tau_x = 0, and where the compiled stages raise, what the coefficient
        kernel's batch raises at the point: the exception of the walk of
        (phi, p_num, q_num) there, as :meth:`coefficients_at_x0` does, or
        the compiled code's own (one of ``expr._SAMPLE_ERRORS``) if the
        batch passes.  A point whose x and
        t are memoized costs one probe of each memo, the (x, t)-stage and
        the gates; the rest is :meth:`_first_use`'s."""
        if type(x) is not complex or type(t) is not complex:
            x, t = complex(x), complex(t)
        try:
            e, xv, post = self._cache_x[x]
            tv = self._cache_t[t]
        except KeyError:
            return self._first_use(x, t)
        try:
            ph, p_num, q_num = post(x, t, xv, tv)
        except fe._SAMPLE_ERRORS:
            self.dec._coeff_array(x, t)
            raise
        # The gates of _reduced, written out: a call per point would cost
        # a lattice of coefficients_at calls a few percent.
        den_p = ph * ph * e
        if abs(den_p) < _DEN_P_MIN or abs(den_q := (ph * e) ** 2) < _DEN_Q_MIN:
            raise DegenerateTauPointError(f"tau_x vanishes at (x, t) = ({x}, {t})")
        return p_num / den_p, q_num / den_q

    def _first_use(self, x: complex, t: complex) -> tuple[complex, complex]:
        """:meth:`coefficients_at` at a point whose x or t is not memoized,
        on the coefficient kernel's compiled stages, compiled once per
        decomposition (``Decomposition._coeff_stages``), in the order
        t-stage, x-stage, (x, t)-stage, E walk, gates: the t-stage values
        are memoized once computed, and E(x) and the x-stage values once
        the point has passed, so a point whose (x, t)-stage, E walk or gate
        raises leaves no x memo."""
        pre_x, pre_t, post = self.dec._coeff_stages
        try:
            tv = self._cache_t.get(t)
            if tv is None:
                tv = self._cache_t[t] = pre_t(t)
            e, xv, post = self._cache_x.get(x) or (None, pre_x(x), post)
            ph, p_num, q_num = post(x, t, xv, tv)
        except fe._SAMPLE_ERRORS:
            self.dec._coeff_array(x, t)
            raise
        if e is None:
            e = self.E(x)
        den_p = ph * ph * e
        if abs(den_p) < _DEN_P_MIN or abs(den_q := (ph * e) ** 2) < _DEN_Q_MIN:
            raise DegenerateTauPointError(f"tau_x vanishes at (x, t) = ({x}, {t})")
        got = p_num / den_p, q_num / den_q
        self._cache_x[x] = (e, xv, post)
        return got

    def coefficients_at_x0(self, ts: Sequence[complex], e0: complex) -> list:
        """Per t in ``ts``, in order, (P, Q) at (x0, t) or the exception
        that rejects it, where x0 is the centre of the decomposition's x box
        and ``e0`` is E(x0).  The coefficients come from one call of the
        coefficient kernel on the line x = x0 (``Decomposition._coeff_x0``,
        whose x-rows at x0 run once per decomposition), the gates from
        one loop of :func:`_reduced`.
        When the call raises, each t runs alone, so a singular point rejects
        only itself.  The values are :meth:`coefficients_at`'s up to the
        rounding of numpy's array arithmetic, and a point's do not depend on
        the other t.  Memoizes nothing."""
        x0 = self.dec.box_x.center
        t_arr = np.array(ts, dtype=complex)
        ts = t_arr.tolist()
        try:
            cols = self.dec._coeff_x0(t_arr)
        except fe._SAMPLE_ERRORS as exc:
            if len(ts) == 1:
                return [exc]
            return [got for t in ts for got in self.coefficients_at_x0([t], e0)]
        return _reduced(x0, ts, *(c.tolist() for c in cols), e0)


def _reduced(x, ts: list, phs: list, p_nums: list, q_nums: list, e: complex) -> list:
    """Per t, P = p_num / (phi^2 E) and Q = q_num / (phi E)^2 at (x, t), or
    the exception that rejects the point: the gates on phi^2 E and (phi E)^2
    (the one rule for a degenerate point), or an overflow of (phi E)**2."""
    out: list = []
    for t, ph, p_num, q_num in zip(ts, phs, p_nums, q_nums):
        try:
            den_p = ph * ph * e
            if abs(den_p) < _DEN_P_MIN or abs(den_q := (ph * e) ** 2) < _DEN_Q_MIN:
                raise DegenerateTauPointError(f"tau_x vanishes at (x, t) = ({x}, {t})")
            out.append((p_num / den_p, q_num / den_q))
        except fe._SAMPLE_ERRORS as exc:
            out.append(exc)
    return out


def build_reduced(dec: Decomposition, basepoint_x: complex) -> ReducedEquation:
    return ReducedEquation(dec, basepoint_x)
