"""Extraction of the reduction data and the change of variables.

Given the scalar pair of a completely integrable system whose off-diagonal
entries factor as

    a_off = g(t) [P1(x) + t P2(x)],      b_off = g(t) P3(x),

the cross-relation coefficient splits as

    q2 = R(x) + M(t) [f(x) + t h(x)],    f = P1/P3,  h = P2/P3,

and the change of variables

    phi = exp(+- int R dx) w,
    tau = t exp(int h dx) + int f exp(int h dx) dx

turns the second-order equation in x into  w'' + P(tau) w' + Q(tau) w = 0
with coefficients that no longer depend on the deformation parameter.
This module recovers (g, P_i, f, h, R, M) numerically-symbolically from the
scalar pair alone, R and M by one rule in which the case picks only M(t1)
(:func:`decompose`), so pairs that differ by a gauge in t reduce alike.
One object, :class:`ReducedEquation`, builds evaluable tau/gauge maps by
cumulative integration on adaptive Chebyshev panels, with one stage form
(array samples of h, f E and G on rows of panel points), and forms P and Q
by the chain rule:

    P = (tau_xx + (p1 + 2G) tau_x) / tau_x^2
    Q = (G' + G^2 + p1 G + q1) / tau_x^2,     G = +-R (by component),

with tau_x = (f + t h) exp(int h) taken symbolically, so the only numerics
in P and Q are the integral defining exp(int h).

The cold path of a fresh entry evaluates each shared subexpression once:
:func:`decompose` decides its identities with ``expr.numerically_zero`` and
reads its pivots from walks of the expression DAGs over fixed point sets
(one memo per set for the whole call, so each node once per set; an
exception the first bad point's); h and f form one kernel called once per
panel point of an E/S walk; and every kernel a report runs is an
``expr.Kernel``, which walks on its first call and compiles on its
second, so a kernel a report calls once (the gauge exponent's, in
cross-validation, and the reduced coefficients', in one batch for the
t-independence stage) compiles only on an entry that serves a second
report.  A fresh entry's report compiles (h, f) alone.  The reduced
coefficients have one kernel, whose one compiled form serves both the
batch and the point API ``coefficients_at``; the point API compiles it on
its first call, if nothing has yet.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from . import expr as fe
from .expr import Binding, Expr, T
from .scalarize import ScalarPair

__all__ = [
    "Decomposition",
    "ReducedEquation",
    "DecompositionError",
    "DegenerateTauPointError",
    "decompose",
    "joint_probes",
    "classify_case",
    "build_reduced",
]


class DecompositionError(Exception):
    pass


class DegenerateTauPointError(fe.SingularEvaluationError):
    """tau_x vanishes at the requested point; the reduced coefficients are
    undefined there and the point is skipped, as every singular one is."""


def joint_probes(box_x, box_t, n: int) -> list[Binding]:
    """n joint (x, t) probes on the box diagonals, run in opposite directions."""
    return [Binding(x=x, t=t) for x, t in zip(box_x.diagonal(n), reversed(box_t.diagonal(n)))]


class _Probes:
    """The probe sets of :func:`decompose` and the case flags: 7 points on each
    box diagonal (t1 = ``ts[1]``), 9 t and 12 joint probes, and p2 at t1.
    The flags are measured on ``points``: the probe set as bindings, or an
    ``expr._ProbeSet`` of it whose memo other walks share (M's always)."""

    def __init__(self, sp: ScalarPair, box_x, box_t):
        self.xs, self.ts = box_x.diagonal(7), box_t.diagonal(7)
        self.x7 = [Binding(x=x) for x in self.xs]
        self.t9 = [Binding(t=t) for t in box_t.diagonal(9)]
        self.joint12 = joint_probes(box_x, box_t, 12)
        self.p2_t1 = fe.substitute(sp.p2, t=self.ts[1])

    def zero_in_x(self, e: Expr, points) -> bool:
        """Whether ``e``, in x alone, vanishes at the x probes (relative to p2)."""
        return fe.numerically_zero(e, points, reference=self.p2_t1)

    @staticmethod
    def m_flags(M: Expr, points: fe._ProbeSet) -> tuple[bool, bool]:
        """(M_zero, M_constant): whether M, and M less its value at the first
        t probe, vanish at the t probes (one walk of M, on their memo)."""
        m_zero = fe.numerically_zero(M, points)
        m_0 = fe.const(points.values(M)[0])
        return m_zero, m_zero or fe.numerically_zero(fe.sub(M, m_0), points, reference=M)


@dataclass
class Decomposition:
    """The factorization data of a scalar pair.  Immutable by convention.

    ``f``, ``h``, ``R``, ``P1``, ``P2``, ``P3`` are expressions in x
    alone; ``M`` and ``g_of_t`` in t alone, with a_off = g (P1 + t P2) and
    b_off = g P3 for the scalar pair's off-diagonal pair (for a pair given
    without one, g = 1, P1 = f, P2 = h and P3 = 1).  ``exponent_A`` is the
    constant A with ``g = B^-1 exp(-2 M t) t^A`` when M is constant (None
    otherwise).  The free constant B is pinned to 1 by normalizing g at a
    reference deformation value.  ``box_x`` and ``box_t`` are the probe
    boxes (``catalog.ComplexRect``) the data was recovered on.  ``sp`` is
    the scalar pair the data was recovered from; it is required, because
    the reduced coefficients are compiled from its p1 and q1, and its
    component signs the gauge exponent.

    The case flags ``f_zero``, ``h_zero``, ``M_zero`` and ``M_constant`` are
    measured from f, h and M on the probe sets ``_probes``, so a copy with
    another f, h or M measures its own.  The other underscored cached
    properties are the kernels of the tau and gauge maps and of the
    reduced coefficients (see :class:`ReducedEquation`), built on first
    use and kept for the life of the decomposition.  ``_hf_array`` is one
    :class:`expr.Kernel` for the pair (h, f), so the lines of h that f
    contains run once per point, ``_G_array`` the kernel of G and
    ``_coeff_array`` that of (phi, p_num, q_num), phi = f + t h; each
    walks on its first call and is compiled on its second.  The coefficient
    kernel's compiled form is also run stage by stage, by
    ``ReducedEquation.coefficients_at``, which compiles it at its first
    call if nothing has yet, so its lines compile once whichever API comes
    first: ``pre_x(x)`` computes the lines that depend on x alone (f', h',
    G, G', G^2 and most of p1 and q1), ``pre_t(t)`` those that depend on t
    alone (the parts of p1 and q1 in t alone), and ``post(x, t, pre_x(x),
    pre_t(t))`` the rest.
    ``dataclasses.replace`` starts without any cached property."""

    f: Expr
    h: Expr
    R: Expr
    M: Expr
    g_of_t: Expr
    P1: Expr
    P2: Expr
    P3: Expr
    exponent_A: complex | None
    box_x: object
    box_t: object
    sp: ScalarPair = field(repr=False, compare=False)

    def gauge_exponent(self) -> Expr:
        """The integrand G of exp(int G dx): R, or -R for the second component."""
        return self.R if self.sp.component == "first" else fe.neg(self.R)

    @cached_property
    def _probes(self) -> _Probes:
        return _Probes(self.sp, self.box_x, self.box_t)

    @cached_property
    def f_zero(self) -> bool:
        return self._probes.zero_in_x(self.f, self._probes.x7)

    @cached_property
    def h_zero(self) -> bool:
        return self._probes.zero_in_x(self.h, self._probes.x7)

    @cached_property
    def _m_flags(self) -> tuple[bool, bool]:
        return self._probes.m_flags(self.M, fe._ProbeSet(self._probes.t9))

    @property
    def M_zero(self) -> bool:
        return self._m_flags[0]

    @property
    def M_constant(self) -> bool:
        return self._m_flags[1]

    @cached_property
    def _coeff_array(self) -> fe.Kernel:
        G = self.gauge_exponent()
        p1, q1 = self.sp.p1, self.sp.q1
        phi = fe.add(self.f, fe.mul(T, self.h))
        p_num = fe.add(
            fe.add(fe.differentiate(self.f, "x"), fe.mul(T, fe.differentiate(self.h, "x"))),
            fe.mul(phi, fe.add(self.h, fe.add(p1, fe.mul(fe.const(2), G)))),
        )
        q_num = fe.add(
            fe.add(fe.differentiate(G, "x"), fe.mul(G, G)),
            fe.add(fe.mul(p1, G), q1),
        )
        return fe.Kernel((phi, p_num, q_num))

    @cached_property
    def _hf_array(self) -> fe.Kernel:
        return fe.Kernel((self.h, self.f))

    @cached_property
    def _G_array(self) -> fe.Kernel:
        return fe.Kernel(self.gauge_exponent())


def decompose(sp: ScalarPair, box_x, box_t) -> Decomposition:
    """Recover (f, h, R, M), the profile g and the factors P_i.

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
    g and P3 come from b_off (``sp.off_diag``) and P1 = f P3, P2 = h P3;
    g must not depend on x, and a_off must factor as g (P1 + t P2).
    ``box_x`` and ``box_t`` are the probe boxes (``catalog.ComplexRect``)."""
    probes = _Probes(sp, box_x, box_t)
    tdiag, xdiag = probes.ts, probes.xs
    t1, t2, t3 = tdiag[1], tdiag[5], tdiag[3]
    # One memo per probe set for the whole call: every walk over the x,
    # t or joint probes below computes each node object once.
    at_x = fe._ProbeSet(probes.x7)
    at_t = fe._ProbeSet(probes.t9)
    joint = fe._ProbeSet(probes.joint12)

    # --- f and h from the affine-in-t ratio p2
    p2_t1 = probes.p2_t1
    p2_t2 = fe.substitute(sp.p2, t=t2)
    p2_t3 = fe.substitute(sp.p2, t=t3)
    h = fe.div(fe.sub(p2_t2, p2_t1), fe.const(t2 - t1))
    f = fe.sub(p2_t1, fe.mul(fe.const(t1), h))

    affine_defect = fe.sub(fe.add(f, fe.mul(fe.const(t3), h)), p2_t3)
    if not fe.numerically_zero(affine_defect, at_x, tol=1e-9, reference=p2_t3):
        raise DecompositionError(
            "the off-diagonal ratio p2 is not affine in the deformation variable")

    f_zero, h_zero = probes.zero_in_x(f, at_x), probes.zero_in_x(h, at_x)

    # --- R and M from q2 = R + M (f + t h): the case picks only m1
    q2d = sp.q2_decomposable()
    phi = fe.add(f, fe.mul(T, h))
    if f_zero and h_zero:
        R, M = fe.substitute(q2d, t=t1), fe.const(0)
    else:
        # phi at (x, t1) and (x, t2), x by x: entries 2i and 2i + 1.
        phi_x7 = fe._values_at(phi, [x for x in xdiag for _ in (t1, t2)],
                               [t1, t2] * len(xdiag), {})
        ia = max(range(len(xdiag)), key=lambda i: abs(phi_x7[2 * i]))
        xa = xdiag[ia]
        if abs(phi_x7[2 * ia]) < 1e-12:
            raise DecompositionError("cannot split q2: f + t h vanishes at all probes")
        m1 = 0j
        if not h_zero:
            # The 2x2 system for (M(t1), M(t2)) at the probe pair with the
            # largest determinant, (t1 - t2) (f(xp) h(xq) - f(xq) h(xp)).
            rows = [(phi_x7[2 * i], -phi_x7[2 * i + 1]) for i in range(len(xdiag))]
            det, ip, iq = max(((rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0], i, j)
                               for i, j in combinations(range(len(xdiag)), 2)),
                              key=lambda d: abs(d[0]))
            (a11, a12), (a21, a22) = rows[ip], rows[iq]
            scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-30)
            if abs(det) > 1e-8 * scale * scale:
                q11, q12, q21, q22 = fe._values_at(q2d, [xdiag[ip]] * 2 + [xdiag[iq]] * 2,
                                                   [t1, t2] * 2, {})
                m1 = ((q11 - q12) * a22 - a12 * (q21 - q22)) / det
            else:
                # f = k h: the secant slope of M (t + k), which the
                # freedom M -> M + c/(t + k) leaves unchanged.
                q_t2, q_t1 = fe._values_at(q2d, [xa, xa], [t2, t1], {})
                m1 = (q_t2 - q_t1) / ((t2 - t1) * at_x.values(h)[ia])
        R = fe.sub(fe.substitute(q2d, t=t1), fe.mul(fe.const(m1), fe.substitute(phi, t=t1)))
        r_xa = fe.evaluate(R, Binding(x=xa))
        M = fe.div(fe.sub(fe.substitute(q2d, x=xa), fe.const(r_xa)), fe.substitute(phi, x=xa))

    split_defect = fe.sub(q2d, fe.add(R, fe.mul(M, phi)))
    if not fe.numerically_zero(split_defect, joint, tol=1e-8, reference=q2d):
        raise DecompositionError("inconsistent R/M split (residual above 1e-08)")

    m_flags = probes.m_flags(M, at_t)

    # --- g and the P_i from the off-diagonal pair
    aoff, boff = sp.off_diag
    P3 = fe.substitute(boff, t=t1)  # normalizes g(t1) = 1, i.e. B = 1
    p3_x7 = list(zip(xdiag, at_x.values(P3)))
    xa, p3_xa = max(p3_x7, key=lambda p: abs(p[1]))
    g = fe.div(fe.substitute(boff, x=xa), fe.const(p3_xa))
    xb, p3_xb = max((p for p in p3_x7 if p[0] != xa), key=lambda p: abs(p[1]))
    g_alt = fe.div(fe.substitute(boff, x=xb), fe.const(p3_xb))
    if not fe.numerically_zero(fe.sub(g, g_alt), at_t, tol=1e-9, reference=g):
        raise DecompositionError("the deformation profile g depends on x")
    P1 = fe.mul(f, P3)
    P2 = fe.mul(h, P3)
    factor_defect = fe.sub(aoff, fe.mul(g, fe.add(P1, fe.mul(T, P2))))
    if not fe.numerically_zero(factor_defect, joint, tol=1e-9, reference=aoff):
        raise DecompositionError("a_off does not factor as g(t)[P1 + t P2]")

    exponent_a: complex | None = None
    if m_flags[1]:
        dlog_g = fe.div(fe.differentiate(g, "t"), g)
        # One walk over both t's; an exception is the one evaluating
        # dlog_g, then M, at each t in turn would raise first.
        tps = [tdiag[2], tdiag[4]]
        dlog_gs, ms = fe._values_at((dlog_g, M), [None, None], tps, {})
        vals = [tp * (dl + 2 * m) for tp, dl, m in zip(tps, dlog_gs, ms)]
        if abs(vals[0] - vals[1]) <= 1e-7 * (1 + abs(vals[0])):
            exponent_a = vals[0]

    dec = Decomposition(
        f=f, h=h, R=R, M=M, g_of_t=g, P1=P1, P2=P2, P3=P3,
        exponent_A=exponent_a, box_x=box_x, box_t=box_t, sp=sp,
    )
    # The flags measured above, as the properties would measure them.
    dec.__dict__.update(_probes=probes, f_zero=f_zero, h_zero=h_zero, _m_flags=m_flags)
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

# Segments per multi-segment integration.  A point's E and S do not depend
# on its batch (``expr._panel_product``); the limit bounds the transient
# arrays, which grow with the batch.
_PREFETCH_BATCH = 128

# The gates of phi^2 E and of (phi E)^2 against tau_x = 0, in that order.
_DEN_P_MIN, _DEN_Q_MIN = 1e-14, 1e-20


class _Stage:
    """One of the staged coefficient functions of a ReducedEquation
    (``_pre_x``, ``_pre_t`` or ``_post``, by index): the first read binds
    all three, the stages of the compiled form of the decomposition's
    ``_coeff_array`` (compiled then if nothing has yet), as plain
    attributes of the instance, which shadow this descriptor from then on.  Unlike
    ``functools.cached_property`` it never reads the instance
    ``__dict__``, which would slow every attribute read of the instance
    after it."""

    def __init__(self, index: int):
        self.index = index

    def __get__(self, red, owner=None):
        if red is None:
            return self
        red._pre_x, red._pre_t, red._post = stages = red.dec._coeff_array._compiled()
        return stages[self.index]


class ReducedEquation:
    """The change of variables and the reduced equation w'' + P w' + Q w = 0
    of one decomposition and basepoint.

    E = exp(int h), S = int f E (tau = t E + S) and the gauge exp(int G)
    are integrated along the straight segment from the basepoint on
    adaptive Chebyshev panels (``expr._walk_panels``), always with the
    array stages ``_hf_rows``, ``_fE_rows`` and ``_G_rows``: one pass per
    point integrates h to log E at the panel points, then f E at the same
    points to S.  ``_hf_rows`` calls the one (h, f) kernel once per panel
    point and passes the f samples on, so ``_fE_rows`` evaluates no kernel:
    it takes f on the rows the h stage accepted.  The samples are those of
    separate h and f kernels bit for bit, except where f's numpy batch
    falls back to the scalar form (``expr.Kernel``): h is then taken
    from the scalar form too, which can move E and S in the last places,
    and a row where f raises fails in the h stage, before h's tail could
    have bisected its panel.  No shipped entry meets either.  When f
    vanishes the pass is h alone (S = 0); when h vanishes it is f alone,
    sampled by the same kernel, and E is 1 exactly.
    A memo miss walks its point alone; :meth:`prefetch` walks
    many at once and leaves out of the memo a point whose segment fails,
    so asking for it later raises as it would have.  A point's E and S
    are the same bits either way, whatever points share its walk
    (``expr._walk_panels``).  Values are built-in
    ``complex``, memoized per point.  The case flags that pick the stages
    are the decomposition's, measured from its own f, h and M, so a
    decomposition built with ``dataclasses.replace`` walks the stages its
    f calls for.

    P = p_num / (phi^2 E) and Q = q_num / (phi E)^2 with phi = f + t h.
    :meth:`coefficients_batch` takes many points in one call of the
    decomposition's array kernel of (phi, p_num, q_num) (a report's
    t-independence stage makes one such call).  :meth:`coefficients_at`
    takes one point, on the stages of the same kernel's compiled form,
    the three expressions compiled together, sharing their common
    subexpressions, and staged on x and on t (compiled at the first
    ``coefficients_at`` call of any ReducedEquation of the decomposition,
    unless a second batch call has compiled it already, and bound to this
    one at its first call, see ``_Stage``): ``_pre_x(x)`` runs the lines
    that depend on x alone, ``_pre_t(t)`` those that depend on t alone and
    ``_post(x, t, xv, tv)`` the rest.  The two forms agree to rounding, not
    bit for bit: the batch runs the same lines in numpy arithmetic.
    :meth:`coefficients_at` memoizes
    ``(E(x), _pre_x(x))`` per x and ``_pre_t(t)`` per t, so on a lattice of
    (x, t) the x-only lines run once per x and the t-only lines once per
    t; a stage that raises stores nothing.  The memos are keyed on the
    built-in ``complex`` value, as the E/S memo is: +0 and -0 in a part
    compare equal, so a point whose part is -0 reuses the stage computed
    at +0 (and vice versa).  The gates on phi^2 E and (phi E)^2
    (:func:`_reduced`, written out in :meth:`coefficients_at`) are the one
    rule for a degenerate point, where tau_x = phi E vanishes; a point
    where the kernel itself raises is rejected by the kernel's own
    exception (``expr._SAMPLE_ERRORS``), as every singular point is.
    All kernels are the decomposition's, and building a ReducedEquation
    compiles nothing: the (h, f) kernel compiles at its second call,
    which the first E/S walk of more than one panel round makes; the
    gauge's G and the array coefficients are walked on their first call
    and compiled on their second.  Its own state is the basepoint
    and the E/S, gauge, x-stage and t-stage memos.  It holds no reference
    to itself (the walker's stages are bound per walk), so its memos are
    freed as soon as the last reference to it goes, without waiting for
    the cyclic collector.
    For a completely integrable input P and Q depend on (x, t) only
    through tau."""

    # Absolute tolerance of every E, S and gauge integral.
    quad_tol = 1e-13

    def __init__(self, dec: Decomposition, basepoint_x: complex):
        self.dec = dec
        self.basepoint_x = complex(basepoint_x)
        self.case_tag = classify_case(dec)
        self._hf_array = dec._hf_array
        self._cache_ES: dict[complex, tuple[complex, complex]] = {}
        self._cache_gauge: dict[complex, complex] = {}
        # x -> (E(x), pre_x(x)) and t -> pre_t(t), filled by coefficients_at.
        self._cache_x: dict[complex, tuple[complex, tuple]] = {}
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

    def _G_rows(self, z, prior):
        return self.dec._G_array(z, 0j)

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
                fe._walk_all(self._es_stages, self.basepoint_x, (x,), self.quad_tol)[0])
        return got

    def prefetch(self, xs) -> None:
        """Memoize E and S at all of ``xs`` by multi-segment integrations,
        ``_PREFETCH_BATCH`` points at a time; points that fail stay
        unmemoized."""
        todo = list(dict.fromkeys(x for x in map(complex, xs) if x not in self._cache_ES))
        for k in range(0, len(todo), _PREFETCH_BATCH):
            batch = todo[k:k + _PREFETCH_BATCH]
            for x, got in zip(batch, fe._walk_panels(self._es_stages, self.basepoint_x,
                                                     batch, self.quad_tol)):
                if not isinstance(got, Exception):
                    self._cache_ES[x] = self._es_value(got)

    def E(self, x: complex) -> complex:
        """exp(int_{x0}^{x} h), normalized to 1 at the basepoint."""
        return self._ES(complex(x))[0]

    def S(self, x: complex) -> complex:
        """int_{x0}^{x} f exp(int h); the additive part of tau."""
        return self._ES(complex(x))[1]

    def gauge(self, x: complex) -> complex:
        """exp(int_{x0}^{x} G) with G = +R (first component) or -R (second)."""
        x = complex(x)
        got = self._cache_gauge.get(x)
        if got is None:
            (val,) = fe._walk_all((self._G_rows,), self.basepoint_x, (x,), self.quad_tol)[0]
            got = self._cache_gauge[x] = cmath.exp(val)
        return got

    def tau_at(self, x: complex, t: complex) -> complex:
        x = complex(x)
        e, s = self._cache_ES.get(x) or self._ES(x)
        return complex(t) * e + s

    def solve_t(self, x: complex, tau_target: complex) -> complex:
        """The deformation value carrying (x, .) to a prescribed tau."""
        e, s = self._ES(complex(x))
        if e == 0:
            raise DegenerateTauPointError(f"exp(int h) vanished at x = {x}")
        return (complex(tau_target) - s) / e

    # -- reduced coefficients ------------------------------------------------
    # The stages of the decomposition's coefficient kernel, bound on first
    # read: only coefficients_at reads them, and no report calls it.
    _pre_x, _pre_t, _post = _Stage(0), _Stage(1), _Stage(2)

    def coefficients_at(self, x: complex, t: complex) -> tuple[complex, complex]:
        """(P, Q) at one point; raises DegenerateTauPointError where
        tau_x = 0, and a kernel's own exception (one of
        ``expr._SAMPLE_ERRORS``) where it is singular.  E and the x-stage
        values are memoized per x once both stages have run there, the
        t-stage values per t once they are computed."""
        x, t = complex(x), complex(t)
        got = self._cache_x.get(x)
        tv = self._cache_t.get(t)
        xv = self._pre_x(x) if got is None else got[1]
        if tv is None:
            tv = self._cache_t[t] = self._pre_t(t)
        ph, p_num, q_num = self._post(x, t, xv, tv)
        if got is None:
            got = self._cache_x[x] = (self.E(x), xv)
        # The gates of _reduced, written out: a call per point would cost
        # a lattice of coefficients_at calls a few percent.
        e = got[0]
        den_p = ph * ph * e
        if abs(den_p) < _DEN_P_MIN or abs(den_q := (ph * e) ** 2) < _DEN_Q_MIN:
            raise DegenerateTauPointError(f"tau_x vanishes at (x, t) = ({x}, {t})")
        return p_num / den_p, q_num / den_q

    def coefficients_batch(self, xs: Sequence[complex], ts: Sequence[complex]) -> list:
        """Per point ``(xs[k], ts[k])``, in order, (P, Q) or the exception
        that rejects it, from one call of the array kernel of (phi, p_num,
        q_num) (``Decomposition._coeff_array``) and the gates of
        :meth:`coefficients_at`.  When the batch raises, each point runs
        alone, so a singular point rejects only itself.  The values are
        :meth:`coefficients_at`'s up to the rounding of numpy's array
        arithmetic, and a point's do not depend on the batch it is in.
        Memoizes nothing but E and S."""
        xs, ts = [complex(x) for x in xs], [complex(t) for t in ts]
        try:
            es = [self.E(x) for x in xs]
            cols = self.dec._coeff_array(np.array(xs, dtype=complex),
                                         np.array(ts, dtype=complex))
        except fe._SAMPLE_ERRORS as exc:
            if len(xs) == 1:
                return [exc]
            return [got for k in range(len(xs))
                    for got in self.coefficients_batch(xs[k:k + 1], ts[k:k + 1])]
        out: list = []
        for x, t, e, ph, p_num, q_num in zip(xs, ts, es, *(c.tolist() for c in cols)):
            try:
                out.append(_reduced(x, t, ph, p_num, q_num, e))
            except fe._SAMPLE_ERRORS as exc:
                out.append(exc)
        return out


def _reduced(x, t, ph: complex, p_num: complex, q_num: complex, e: complex
             ) -> tuple[complex, complex]:
    """P = p_num / (phi^2 E) and Q = q_num / (phi E)^2 at (x, t), with the
    one rule for a degenerate point: the gates on phi^2 E and (phi E)^2."""
    den_p = ph * ph * e
    if abs(den_p) < _DEN_P_MIN or abs(den_q := (ph * e) ** 2) < _DEN_Q_MIN:
        raise DegenerateTauPointError(f"tau_x vanishes at (x, t) = ({x}, {t})")
    return p_num / den_p, q_num / den_q


def build_reduced(dec: Decomposition, basepoint_x: complex) -> ReducedEquation:
    return ReducedEquation(dec, basepoint_x)
