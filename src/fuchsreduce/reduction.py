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
scalar pair alone.  One object, :class:`ReducedEquation`, builds evaluable
tau/gauge maps by cumulative integration on adaptive Chebyshev panels, with
one stage form (array samples of h, f E and G on rows of panel points), and
forms P and Q by the chain rule:

    P = (tau_xx + (p1 + 2G) tau_x) / tau_x^2
    Q = (G' + G^2 + p1 G + q1) / tau_x^2,     G = +-R (by component),

with tau_x = (f + t h) exp(int h) taken symbolically, so the only numerics
in P and Q are the integral defining exp(int h).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

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
    "classify_case",
    "build_reduced",
]


class DecompositionError(Exception):
    pass


class DegenerateTauPointError(Exception):
    """tau_x vanishes at the requested point; the reduced coefficients are
    undefined there and the point should be skipped."""


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

    The case flags ``f_zero``, ``h_zero``, ``M_zero`` and ``M_constant``
    are measured on the probe boxes from f, h and M (:func:`_zero_in_x`,
    :func:`_m_flags`), so a copy with another f, h or M measures its own.
    The underscored cached properties are the compiled kernels of the tau
    and gauge maps and of the reduced coefficients (see
    :class:`ReducedEquation`), compiled on first use and kept for the life
    of the decomposition; h, f and G only in array form, whose per-point
    fallback is the one scalar function.  ``_coeff_parts`` is the staged
    triple ``(pre_x, pre_t, post)`` of :func:`expr.compile_staged` for
    (phi, p_num, q_num): ``pre_x(x)`` computes the lines that depend on x
    alone (f', h', G, G', G^2 and most of p1 and q1), ``pre_t(t)`` those
    that depend on t alone (the parts of p1 and q1 in t alone), and
    ``post(x, t, pre_x(x), pre_t(t))`` the rest.
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
    def _p2_t1(self) -> Expr:
        return fe.substitute(self.sp.p2, t=self.box_t.diagonal(7)[1])

    @cached_property
    def f_zero(self) -> bool:
        return _zero_in_x(self.f, self.box_x, self._p2_t1)

    @cached_property
    def h_zero(self) -> bool:
        return _zero_in_x(self.h, self.box_x, self._p2_t1)

    @cached_property
    def _m_flags(self) -> tuple[bool, bool]:
        return _m_flags(self.M, self.box_t)

    @property
    def M_zero(self) -> bool:
        return self._m_flags[0]

    @property
    def M_constant(self) -> bool:
        return self._m_flags[1]

    @cached_property
    def _phi(self):
        return fe.compile_expr(fe.add(self.f, fe.mul(T, self.h)))

    @cached_property
    def _coeff_parts(self):
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
        return fe.compile_staged((phi, p_num, q_num))

    @cached_property
    def _h_array(self):
        return fe.array_form(fe.compile_expr(self.h))

    @cached_property
    def _f_array(self):
        return fe.array_form(fe.compile_expr(self.f))

    @cached_property
    def _G_array(self):
        return fe.array_form(fe.compile_expr(self.gauge_exponent()))


def _zero_in_x(e: Expr, box_x, p2_t1: Expr) -> bool:
    """Whether ``e``, in x alone, vanishes at 7 points of the diagonal of
    ``box_x``, relative to the size of p2 there at the first probe t."""
    return fe.numerically_zero(e, [Binding(x=x) for x in box_x.diagonal(7)],
                               reference=p2_t1)


def _m_flags(M: Expr, box_t) -> tuple[bool, bool]:
    """(M_zero, M_constant): whether M, in t alone, vanishes, or its t
    derivative does, at 9 points of the diagonal of ``box_t``."""
    t_probes = [Binding(t=t) for t in box_t.diagonal(9)]
    m_zero = fe.numerically_zero(M, t_probes)
    return m_zero, m_zero or fe.numerically_zero(fe.differentiate(M, "t"), t_probes,
                                                  reference=M)


def decompose(sp: ScalarPair, box_x, box_t) -> Decomposition:
    """Recover (f, h, R, M), the profile g and the factors P_i.

    f and h come from sampling the ratio p2 = a_off/b_off at two deformation
    values (exact, since p2 is affine in t); a third value is a consistency
    residual.  R and M come from a 2x2 linear solve of
    q2 = R + M (f + t h) at two x probes, validated on a joint probe grid.
    g and P3 come from b_off (``sp.off_diag``) and P1 = f P3, P2 = h P3;
    g must not depend on x, and a_off must factor as g (P1 + t P2).
    When h vanishes identically the split has a one-parameter gauge freedom
    (R -> R + c f, M -> M - c); it is pinned by M(t_ref) = 0, which
    reproduces the documented closed forms for every shipped entry.
    ``box_x`` and ``box_t`` are the probe boxes (``catalog.ComplexRect``)."""
    tdiag = box_t.diagonal(7)
    xdiag = box_x.diagonal(7)
    t1, t2, t3 = tdiag[1], tdiag[5], tdiag[3]

    # --- f and h from the affine-in-t ratio p2
    p2_t1 = fe.substitute(sp.p2, t=t1)
    p2_t2 = fe.substitute(sp.p2, t=t2)
    p2_t3 = fe.substitute(sp.p2, t=t3)
    h = fe.div(fe.sub(p2_t2, p2_t1), fe.const(t2 - t1))
    f = fe.sub(p2_t1, fe.mul(fe.const(t1), h))

    x_probes = [Binding(x=x) for x in xdiag]
    affine_defect = fe.sub(fe.add(f, fe.mul(fe.const(t3), h)), p2_t3)
    if not fe.numerically_zero(affine_defect, x_probes, tol=1e-9, reference=p2_t3):
        raise DecompositionError(
            "the off-diagonal ratio p2 is not affine in the deformation variable")

    probes12 = [Binding(x=x, t=t)
                for x, t in zip(box_x.diagonal(12), reversed(box_t.diagonal(12)))]
    f_zero = _zero_in_x(f, box_x, p2_t1)
    h_zero = _zero_in_x(h, box_x, p2_t1)

    # --- R and M from q2 = R + M (f + t h)
    q2d = sp.q2_decomposable()
    phi = fe.add(f, fe.mul(T, h))

    # The probes below revisit the same few (expression, x, t); each is
    # walked once.  Keyed on identity: the expressions live for the call.
    evaluated: dict[tuple[int, complex | None, complex | None], complex] = {}

    def _eval(e: Expr, x=None, t=None) -> complex:
        key = (id(e), x, t)
        got = evaluated.get(key)
        if got is None:
            got = evaluated[key] = fe.evaluate(e, Binding(x=x, t=t))
        return got

    if f_zero and h_zero:
        R = fe.substitute(q2d, t=t1)
        M = fe.const(0)
    elif h_zero:
        # Split ambiguity (R -> R + c f, M -> M - c); pin M(t1) = 0.
        R = fe.substitute(q2d, t=t1)
        xa = max(xdiag, key=lambda x: abs(_eval(f, x=x)))
        if abs(_eval(f, x=xa)) < 1e-12:
            raise DecompositionError("cannot split q2: f vanishes at all probes")
        r_xa = _eval(R, x=xa)
        M = fe.div(fe.sub(fe.substitute(q2d, x=xa), fe.const(r_xa)),
                   fe.const(_eval(f, x=xa)))
    else:
        # Generic split: solve for M(t1), M(t2) at two x probes.  The 2x2
        # determinant is (t1 - t2) (f(xa) h(xb) - f(xb) h(xa)), so the solve
        # only works when f and h are not proportional; otherwise the split
        # itself has a one-parameter ambiguity (M -> M + c/(t + f/h),
        # R -> R - c h) and the constant-M representative is taken instead.
        best = None
        for ia in range(len(xdiag)):
            for ib in range(ia + 1, len(xdiag)):
                xa, xb = xdiag[ia], xdiag[ib]
                a11 = _eval(phi, x=xa, t=t1)
                a12 = -_eval(phi, x=xa, t=t2)
                a21 = _eval(phi, x=xb, t=t1)
                a22 = -_eval(phi, x=xb, t=t2)
                det = a11 * a22 - a12 * a21
                if best is None or abs(det) > abs(best[0]):
                    best = (det, xa, xb, a11, a12, a21, a22)
        det, xa, xb, a11, a12, a21, a22 = best
        scale = max(abs(a11), abs(a12), abs(a21), abs(a22), 1e-30)
        if abs(det) > 1e-8 * scale * scale:
            r1 = _eval(q2d, x=xa, t=t1) - _eval(q2d, x=xa, t=t2)
            r2 = _eval(q2d, x=xb, t=t1) - _eval(q2d, x=xb, t=t2)
            m1 = (r1 * a22 - a12 * r2) / det
            R = fe.sub(fe.substitute(q2d, t=t1),
                       fe.mul(fe.const(m1), fe.substitute(phi, t=t1)))
            r_xa = _eval(R, x=xa)
            M = fe.div(fe.sub(fe.substitute(q2d, x=xa), fe.const(r_xa)),
                       fe.substitute(phi, x=xa))
        else:
            xa = max(xdiag, key=lambda x: abs(_eval(h, x=x)))
            h_xa = _eval(h, x=xa)
            if abs(h_xa) < 1e-12:
                raise DecompositionError("cannot split q2: h vanishes at all probes")
            m0 = (_eval(q2d, x=xa, t=t2) - _eval(q2d, x=xa, t=t1)) / ((t2 - t1) * h_xa)
            M = fe.const(m0)
            R = fe.sub(fe.substitute(q2d, t=t1),
                       fe.mul(M, fe.substitute(phi, t=t1)))

    split_defect = fe.sub(q2d, fe.add(R, fe.mul(M, phi)))
    if not fe.numerically_zero(split_defect, probes12, tol=1e-8, reference=q2d):
        raise DecompositionError("inconsistent R/M split (residual above 1e-08)")

    t_probes = [Binding(t=t) for t in box_t.diagonal(9)]
    m_flags = _m_flags(M, box_t)

    # --- g and the P_i from the off-diagonal pair
    aoff, boff = sp.off_diag
    P3 = fe.substitute(boff, t=t1)  # normalizes g(t1) = 1, i.e. B = 1
    xa = max(xdiag, key=lambda x: abs(_eval(P3, x=x)))
    g = fe.div(fe.substitute(boff, x=xa), fe.const(_eval(P3, x=xa)))
    xb = max((x for x in xdiag if x != xa), key=lambda x: abs(_eval(P3, x=x)))
    g_alt = fe.div(fe.substitute(boff, x=xb), fe.const(_eval(P3, x=xb)))
    if not fe.numerically_zero(fe.sub(g, g_alt), t_probes, tol=1e-9, reference=g):
        raise DecompositionError("the deformation profile g depends on x")
    P1 = fe.mul(f, P3)
    P2 = fe.mul(h, P3)
    factor_defect = fe.sub(aoff, fe.mul(g, fe.add(P1, fe.mul(T, P2))))
    if not fe.numerically_zero(factor_defect, probes12, tol=1e-9, reference=aoff):
        raise DecompositionError("a_off does not factor as g(t)[P1 + t P2]")

    exponent_a: complex | None = None
    if m_flags[1]:
        dlog_g = fe.div(fe.differentiate(g, "t"), g)
        vals = []
        for tp in (tdiag[2], tdiag[4]):
            b = Binding(t=tp)
            vals.append(tp * (fe.evaluate(dlog_g, b) + 2 * fe.evaluate(M, b)))
        if abs(vals[0] - vals[1]) <= 1e-7 * (1 + abs(vals[0])):
            exponent_a = vals[0]

    dec = Decomposition(
        f=f, h=h, R=R, M=M, g_of_t=g, P1=P1, P2=P2, P3=P3,
        exponent_A=exponent_a, box_x=box_x, box_t=box_t, sp=sp,
    )
    # The flags measured above, as the properties would measure them.
    dec.__dict__.update(_p2_t1=p2_t1, f_zero=f_zero, h_zero=h_zero, _m_flags=m_flags)
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

# Segments per multi-segment integration.  The transient arrays grow with
# the batch, and from about 100 rows on OpenBLAS (unless pinned to one
# thread) hands the panel products to worker threads, which on 2 cores cost
# far more than the products themselves.
_PREFETCH_BATCH = 64

# The gates of phi^2 E and of (phi E)^2 against tau_x = 0, in that order.
_DEN_P_MIN, _DEN_Q_MIN = 1e-14, 1e-20


class ReducedEquation:
    """The change of variables and the reduced equation w'' + P w' + Q w = 0
    of one decomposition and basepoint.

    E = exp(int h), S = int f E (tau = t E + S) and the gauge exp(int G)
    are integrated along the straight segment from the basepoint on
    adaptive Chebyshev panels (``expr._walk_panels``), always with the
    array stages ``_h_rows``, ``_fE_rows`` and ``_G_rows``: one pass per
    point integrates h to log E at the panel points, then f E at the same
    points to S.  A memo miss walks its point alone; :meth:`prefetch` walks
    many at once and leaves out of the memo a point whose segment fails,
    so asking for it later raises as it would have.  Values are built-in
    ``complex``, memoized per point.  The case flags that pick the stages
    are the decomposition's, measured from its own f, h and M, so a
    decomposition built with ``dataclasses.replace`` walks the stages its
    f calls for.

    P = p_num / (phi^2 E) and Q = q_num / (phi E)^2 with phi = f + t h.
    phi, p_num and q_num are compiled together, sharing their common
    subexpressions, and staged on x and on t
    (``Decomposition._coeff_parts``): ``_pre_x(x)`` runs the lines that
    depend on x alone, ``_pre_t(t)`` those that depend on t alone and
    ``_post(x, t, xv, tv)`` the rest.  :meth:`coefficients_at` memoizes
    ``(E(x), _pre_x(x))`` per x and ``_pre_t(t)`` per t, so on a lattice of
    (x, t) the x-only lines run once per x and the t-only lines once per
    t; a stage that raises stores nothing.  The memos are keyed on the
    built-in ``complex`` value, as the E/S memo is: +0 and -0 in a part
    compare equal, so a point whose part is -0 reuses the stage computed
    at +0 (and vice versa).  ``_phi`` alone serves the degeneracy gates.
    All kernels are the decomposition's, so building a ReducedEquation
    compiles nothing; its own state is the basepoint and the E/S, gauge,
    x-stage and t-stage memos.  It holds no reference to itself (the
    walker's stages are bound per walk), so its memos are freed as soon as
    the last reference to it goes, without waiting for the cyclic
    collector.
    For a completely integrable input P and Q depend on (x, t) only
    through tau."""

    # Absolute tolerance of every E, S and gauge integral.
    quad_tol = 1e-13

    def __init__(self, dec: Decomposition, basepoint_x: complex):
        self.dec = dec
        self.basepoint_x = complex(basepoint_x)
        self.case_tag = classify_case(dec)
        self._h_array, self._f_array, self._G_array = dec._h_array, dec._f_array, dec._G_array
        self._phi = dec._phi
        self._pre_x, self._pre_t, self._post = dec._coeff_parts
        self._cache_ES: dict[complex, tuple[complex, complex]] = {}
        self._cache_gauge: dict[complex, complex] = {}
        # x -> (E(x), pre_x(x)) and t -> pre_t(t), filled by coefficients_at.
        self._cache_x: dict[complex, tuple[complex, tuple]] = {}
        self._cache_t: dict[complex, tuple] = {}

    # -- change of variables -------------------------------------------------
    @property
    def _es_stages(self):
        """Stages of one pass of the panel walker: h, then f E.  Built per
        walk: stored, these bound methods would make a cycle through self."""
        return (self._h_rows,) if self.dec.f_zero else (self._h_rows, self._fE_rows)

    def _h_rows(self, z, prior):
        return self._h_array(z, 0j)

    def _fE_rows(self, z, prior):
        return np.exp(prior[0]) * self._f_array(z, 0j)

    def _G_rows(self, z, prior):
        return self._G_array(z, 0j)

    def _es_value(self, integrals: list[complex]) -> tuple[complex, complex]:
        # S is 0 when f vanishes and there is no second stage.
        log_e, s = (*integrals, 0j)[:2]
        return cmath.exp(log_e), s

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

    def tau_x_at(self, x: complex, t: complex) -> complex:
        x = complex(x)
        return self._phi(x, complex(t)) * self.E(x)

    # -- reduced coefficients ------------------------------------------------
    def coefficients_at(self, x: complex, t: complex) -> tuple[complex, complex]:
        """(P, Q) at one point; raises DegenerateTauPointError where
        tau_x = 0.  E and the x-stage values are memoized per x once both
        stages have run there, the t-stage values per t once they are
        computed."""
        x, t = complex(x), complex(t)
        got = self._cache_x.get(x)
        tv = self._cache_t.get(t)
        try:
            xv = self._pre_x(x) if got is None else got[1]
            if tv is None:
                tv = self._cache_t[t] = self._pre_t(t)
            ph, p_num, q_num = self._post(x, t, xv, tv)
        except fe._SAMPLE_ERRORS:
            # A numerator can fail where tau_x also vanishes.  Such a point
            # is degenerate, as it is when the gates run first.
            self._denominators(self._phi(x, t), self.E(x), x, t)
            raise
        if got is None:
            got = self._cache_x[x] = (self.E(x), xv)
        e = got[0]
        den_p = ph * ph * e
        if abs(den_p) < _DEN_P_MIN or abs(den_q := (ph * e) ** 2) < _DEN_Q_MIN:
            self._denominators(ph, e, x, t)  # raises DegenerateTauPointError
        return p_num / den_p, q_num / den_q

    def _denominators(self, ph: complex, e: complex, x: complex, t: complex
                      ) -> tuple[complex, complex]:
        """phi^2 E and (phi E)^2, gated in that order against tau_x = 0."""
        den_p = ph * ph * e
        if abs(den_p) < _DEN_P_MIN:
            raise DegenerateTauPointError(f"tau_x vanishes at (x, t) = ({x}, {t})")
        den_q = (ph * e) ** 2
        if abs(den_q) < _DEN_Q_MIN:
            raise DegenerateTauPointError(f"tau_x vanishes at (x, t) = ({x}, {t})")
        return den_p, den_q


def build_reduced(dec: Decomposition, basepoint_x: complex) -> ReducedEquation:
    return ReducedEquation(dec, basepoint_x)
