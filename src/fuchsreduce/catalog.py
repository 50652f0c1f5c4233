"""Registry of integrable 2x2 systems at algebraic Painleve solutions.

Each entry specializes a standard isomonodromic linearization (Miwa-Jimbo
for P_II-P_V, Kitaev for the degenerate P_V) at an algebraic solution of
the underlying Painleve flow, with the solution's closed forms and the
family's parameters substituted when the entry is built.  A family
template states only its formulas: from the closed forms, their
t-derivatives and the parameters as constants it returns the entries
(a11, a12, a21) of A and (b11, b12, b21) of B and the flow residuals.
Every matrix entry is built by one constructor, :func:`_matrix_entry`,
which differentiates the closed forms, makes the parameters constants,
applies the template and builds the Lax pair, traceless by construction
(a22 = -a11, b22 = -b11, as scalarization assumes); it fills the flow
residuals, the closed forms and the parameters too.  What a builder passes
besides is what the entry documents, and every one of these fields is
required: the expected target, case and exponent, the basepoint, the
singular points, the closed forms of the reduction data (f, h, R, M, tau,
gauge) and the metadata.  The probe boxes default to ``DEFAULT_X_BOX``
and ``DEFAULT_T_BOX``; the other defaults (None) are for what an entry may
lack: a Lax pair or a direct scalar pair, a target scale, a
pre-substitution.  The documented fields are oracles of the tests and the content of the
manifests (:func:`manifest`, pinned in ``tests/data/manifests/``).

Each entry is declared once, by one line of ``_ENTRIES`` (id, builder,
default parameters, in listing order); an id starting with ``negative.``
is a negative control.  A builder rejects, with a ValueError naming it,
a parameter value at which its family degenerates.

The default entries are built once, at import; :func:`lookup` returns
them, or builds an entry afresh for parameter overrides.  An entry builds
its kernels on first use and keeps them for its lifetime.  Concurrent
reads are safe: a first use racing another may compute a kernel or a
recorded stage twice, with the same result.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr as fe
from . import reduction as red_mod
from . import scalarize as scal
from .config import SCHEMA, complex_json
from .expr import Binding, Expr, T, X
from .scalarize import ScalarPair
from .targets import ClassicalTarget

__all__ = [
    "ComplexRect",
    "random_points",
    "LaxPair",
    "CatalogEntry",
    "EntryNotFoundError",
    "list_entries",
    "list_negative_entries",
    "lookup",
    "flow_residual",
    "manifest",
]

F = Fraction


class EntryNotFoundError(LookupError):
    """No catalog entry, or no parameter of an entry, has the given name."""


@dataclass(frozen=True)
class ComplexRect:
    """Axis-aligned rectangle in the complex plane."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_lo + self.re_hi), 0.5 * (self.im_lo + self.im_hi))

    def distance(self, z: complex) -> float:
        """The distance from z to the rectangle, 0 inside it."""
        return abs(complex(max(self.re_lo - z.real, 0.0, z.real - self.re_hi),
                           max(self.im_lo - z.imag, 0.0, z.imag - self.im_hi)))

    def diagonal(self, n: int) -> list[complex]:
        """n deterministic points from corner to corner."""
        if n == 1:
            return [self.center]
        return [
            complex(
                self.re_lo + (self.re_hi - self.re_lo) * k / (n - 1),
                self.im_lo + (self.im_hi - self.im_lo) * k / (n - 1),
            )
            for k in range(n)
        ]


def random_points(rng, boxes: Sequence[ComplexRect], m: int
                  ) -> list[list[complex]]:
    """m rounds of one point per box, drawn with one generator call, as one
    list of m points per box: ``lo + (hi - lo) * rng.random((m, 2k))`` is
    ``rng.uniform``'s arithmetic, so it yields exactly the doubles, and
    leaves the generator in exactly the state, of m rounds of one
    ``complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))`` per box."""
    lo = np.array([v for b in boxes for v in (b.re_lo, b.im_lo)])
    hi = np.array([v for b in boxes for v in (b.re_hi, b.im_hi)])
    u = lo + (hi - lo) * rng.random((m, len(lo)))
    return u.view(complex).T.tolist()


DEFAULT_X_BOX = ComplexRect(1.1, 2.5, -0.2, 0.2)
DEFAULT_T_BOX = ComplexRect(0.5, 1.5, -0.2, 0.2)


@dataclass(frozen=True)
class LaxPair:
    """Coefficient matrices A(x,t), B(x,t) of the two linear systems.

    A matrix entry's pair is traceless by construction
    (:func:`_matrix_entry`); a direct scalar pair's companion system
    (:func:`_companion_system`) is not.  Its kernel and its swapped system
    are built on first use.

    The kernel numbers the eight entries, B's and then A's, and every
    system is checked and walked through it, from first-order jets
    (``expr._walked_jets``) with no derivative built: a report's Frobenius
    stage reads the jets of all eight (A_t and B_x), and a cross-validation
    leg on the same system those of its ``view(4)`` (A and A_t), whose
    array form runs only the lines A reads, so a pole of B never rejects a
    leg panel."""

    a: tuple[tuple[Expr, Expr], tuple[Expr, Expr]]
    b: tuple[tuple[Expr, Expr], tuple[Expr, Expr]]

    @cached_property
    def kernel(self) -> fe.Kernel:
        """The kernel of (b11, b12, b21, b22, a11, a12, a21, a22)."""
        return fe.Kernel((*self.b[0], *self.b[1], *self.a[0], *self.a[1]))

    @cached_property
    def swapped(self) -> "LaxPair":
        """The system of (phi2, phi1): A and B with both indices swapped,
        compatible exactly when this one is.  Built on first use and kept,
        so every holder of this pair shares it and its kernel."""
        (a11, a12), (a21, a22) = self.a
        (b11, b12), (b21, b22) = self.b
        return LaxPair(((a22, a21), (a12, a11)), ((b22, b21), (b12, b11)))


@dataclass(kw_only=True)
class CatalogEntry:
    """One shipped reduction case.  Immutable after construction, but for
    the kernels it builds on first use and its record ``certified``.

    ``params_exact`` only records the parameters, which every expression
    already holds.  ``singular_x`` and ``singular_t`` list the points every
    probe, path and grid must avoid (poles of entries plus zeros of the
    off-diagonal entries used for scalarization).  ``certified`` records,
    by name, the outcomes a report reads that depend on the entry alone:
    those of the once rows of ``verify.STAGES``, and the sub-records
    ``frame`` (the frame fit of ``verify.prepare``) and ``x0`` (E and S at
    x0, the t-independence stage's walk).  A stage runs until it first
    succeeds, and a run that raises records nothing.
    ``dataclasses.replace`` and :meth:`with_boxes` copies start with an
    empty record."""

    id: str
    family: str
    params_exact: dict[str, Fraction | float | complex]
    closed_forms: dict[str, Expr]       # y, z, u/w as functions of t
    lax: LaxPair | None = None
    scalar: ScalarPair | None = None    # direct scalar pair (Kitaev route)
    flow_exprs: tuple[Expr, ...]
    basepoint_x: complex
    box_x: ComplexRect = DEFAULT_X_BOX
    box_t: ComplexRect = DEFAULT_T_BOX
    singular_x: tuple[complex, ...]
    singular_t: tuple[complex, ...]
    expected_target: ClassicalTarget
    expected_case: str
    expected_exponent_a: complex | None
    reduction_closed_forms: dict[str, Expr]   # f, h, R, M, tau, gauge
    pre_substitution: str | None = None
    metadata: dict[str, str]
    documented_target_scale: str | None = None
    certified: dict[str, object] = field(default_factory=dict, init=False,
                                         compare=False, repr=False)

    @property
    def is_negative(self) -> bool:
        return self.id.startswith("negative.")

    def binding(self, x: complex | None = None, t: complex | None = None) -> Binding:
        return Binding(x=x, t=t)

    def with_boxes(self, config) -> "CatalogEntry":
        """This entry on a run's boxes (``config.box_x``, ``.box_t``): itself if
        the config keeps them, else a copy, which derives its own
        decomposition; applied to its own result it returns it.  The copy
        shares the box-independent ``flow_fns`` this entry has already
        built, and its Lax pair or direct scalar pair, with the systems and
        kernels those hold; it scalarizes again, which is symbolic and
        probes no box."""
        boxes = {name: rect for name in ("box_x", "box_t")
                 if (box := getattr(config, name)) is not None
                 and (rect := ComplexRect(*box)) != getattr(self, name)}
        if not boxes:
            return self
        copy = replace(self, **boxes)
        if "flow_fns" in self.__dict__:
            copy.flow_fns = self.flow_fns
        return copy

    def grid_points(self, n: int = 5) -> list[tuple[complex, complex]]:
        xs, ts = self.box_x.diagonal(n), self.box_t.diagonal(n)
        return [(x, t) for x in xs for t in ts]

    @cached_property
    def flow_fns(self) -> fe.Kernel:
        """The kernel of the flow residual expressions; its array form
        gives, bit for bit, the values of the array forms of one kernel per
        expression."""
        return fe.Kernel(tuple(self.flow_exprs))

    @cached_property
    def decomposition(self) -> red_mod.Decomposition:
        """The decomposition, on the entry's own boxes, of its direct scalar
        pair or of the scalar pair of the first solution component, in the
        order (first, second), that meets the hypotheses ``decompose``
        checks; the second is scalarized only when the first fails them.
        When both fail, it raises the first's exception class with both
        failures in its message.  Any other exception propagates from the
        component that raised it."""
        if self.lax is None:
            return red_mod.decompose(self.scalar, self.box_x, self.box_t)
        try:
            return red_mod.decompose(scal.scalar_coefficients(self.lax, "first"),
                                     self.box_x, self.box_t)
        except (scal.ScalarizeError, red_mod.DecompositionError) as first:
            try:
                return red_mod.decompose(scal.scalar_coefficients(self.lax, "second"),
                                         self.box_x, self.box_t)
            except (scal.ScalarizeError, red_mod.DecompositionError) as second:
                raise type(first)(f"first component: {first}; second component: {second}")


def _c(v) -> Expr:
    return fe.const(complex(v))


def _companion_system(p1: Expr, q1: Expr, p2: Expr, q2: Expr) -> LaxPair:
    """The x- and t-systems whose first component is the scalar pair (p1,
    q1, p2, q2): the companion system of phi'' + p1 phi' + q1 phi = 0 on
    (phi, phi') with the t-system that phi' = p2 phi_t + q2 phi implies.
    That relation reads phi_t = alpha phi + beta phi' with alpha = -q2/p2
    and beta = 1/p2; differentiating it in x and eliminating phi'' gives
    (phi')_t = (alpha' - beta q1) phi + (alpha + beta' - beta p1) phi'.
    It stands for the entry's system: a report's Frobenius stage checks
    it, and the cross-validation leg walks it, through one kernel."""
    alpha, beta = -q2 / p2, 1 / p2
    alpha_x, beta_x = fe.differentiate((alpha, beta), "x")
    a = ((_c(0), _c(1)), (-q1, -p1))
    b = ((alpha, beta), (alpha_x - beta * q1, alpha + beta_x - beta * p1))
    return LaxPair(a, b)


# ---------------------------------------------------------------------------
# Family templates: the formulas of each family's Lax pair and flow.  Each
# takes the closed forms (expressions in t), their t-derivatives and the
# family's parameters (constants) and returns the entries (a11, a12, a21)
# of A and (b11, b12, b21) of B and the flow residual expressions.
# :func:`_matrix_entry` supplies the derivatives and constants and fills in
# a22 = -a11 and b22 = -b11.

def _pii_template(y, z, u, dy, dz, du, th) -> tuple:
    a = (X**2 + z + T / 2, u * X - u * y, -2 * z * X / u - 2 * (th + y * z) / u)
    b = (X / 2, u / 2, fe.neg(z / u))
    flows = (
        dy - (z + y * y + T / 2),
        dz - (-2 * y * z - th),
        du / u + y,
    )
    return a, b, flows


def _piii_template(y, z, w, dy, dz, dw, th0, thi) -> tuple:
    k = (z - T) * y + (thi + th0) / 2 * ((z - T) / z) + (thi - th0) / 2
    a = (T / 2 - thi / (2 * X) + (z - T / 2) / X**2,
         fe.neg(y * w * z / X) - w * z / X**2,
         fe.neg(k / (w * X)) + (z - T) / (w * X**2))
    b = (X / 2 + (T / 2 - z) / (X * T),
         fe.neg(y * w * z / T) + w * z / (X * T),
         fe.neg(k / (w * T)) - (z - T) / (w * X * T))
    flows = (
        T * dy - (4 * z * y**2 - 2 * T * y**2 + (2 * thi - 1) * y + 2 * T),
        T * dz - (-4 * y * z**2 + (4 * T * y - 2 * thi + 1) * z + (th0 + thi) * T),
        T * dw / w - (fe.neg((th0 + thi) * T / z) - 2 * T * y + thi),
    )
    return a, b, flows


def _piv_template(y, z, u, dy, dz, du, th0, thi) -> tuple:
    a = (X + T + (th0 - z) / X,
         u - u * y / (2 * X),
         2 * (z - th0 - thi) / u + 2 * z * (z - 2 * th0) / (u * y * X))
    b = (X, u, 2 * (z - th0 - thi) / u)
    flows = (
        dy - (-4 * z + y**2 + 2 * T * y + 4 * th0),
        dz - (-2 * z**2 / y + (fe.neg(y) + 4 * th0 / y) * z + (th0 + thi) * y),
        du / u + y + 2 * T,
    )
    return a, b, flows


def _pv_template(y, z, u, dy, dz, du, th0, th1, thi) -> tuple:
    s1 = (th0 - th1 + thi) / 2   # coefficient in the (x-1) residue
    s2 = (th0 + th1 + thi) / 2
    a = (T / 2 + (z + th0 / 2) / X - (z + (th0 + thi) / 2) / (X - 1),
         fe.neg(u * (z + th0) / X) + u * y * (z + s1) / (X - 1),
         z / (u * X) - (z + s2) / (u * y * (X - 1)))
    b = (X / 2,
         fe.neg(u * (z + th0 - y * (z + s1)) / T),
         (z - (z + s2) / y) / (u * T))
    flows = (
        T * dy - (T * y - 2 * z * (y - 1) ** 2 - (y - 1) * (s1 * y - (3 * th0 + th1 + thi) / 2)),
        T * dz - (y * z * (z + s1) - ((z + th0) / y) * (z + s2)),
        T * du / u - (-2 * z - th0 + y * (z + s1) + (z + s2) / y),
    )
    return a, b, flows


# ---------------------------------------------------------------------------
# Entry builders

def _merge_params(entry_id: str, overrides: Mapping | None) -> dict:
    """The entry's default parameters with ``overrides`` applied.  An int
    becomes a Fraction, so the builders' arithmetic stays exact on every
    rational; floats and complex values pass through.  A value that is not
    a number (a str, None), is a bool, or is not finite as a complex (nan,
    inf, or a rational too large for a float) raises ValueError naming the
    parameter."""
    params = dict(_ENTRIES[entry_id][1])
    for key, val in (overrides or {}).items():
        if key not in params:
            raise EntryNotFoundError(
                f"entry {entry_id!r} has no parameter {key!r}")
        if not isinstance(val, numbers.Number) or isinstance(val, bool):
            raise ValueError(
                f"parameter {key!r} of entry {entry_id!r} must be a number, not {val!r}")
        try:
            finite = cmath.isfinite(complex(val))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                f"parameter {key!r} of entry {entry_id!r} must be a finite number")
        params[key] = Fraction(val) if isinstance(val, int) else val
    return params


def _matrix_entry(template: Callable, p: Mapping, closed_forms: dict[str, Expr],
                  family_args: tuple, **documented) -> CatalogEntry:
    """The entry of ``template`` applied to ``closed_forms`` (in the
    template's argument order), their t-derivatives and ``family_args`` as
    constants, at parameters ``p``; ``documented`` holds every other field
    the entry requires.  Its Lax pair is traceless by construction: a22 is
    -a11 and b22 is -b11."""
    forms = tuple(closed_forms.values())
    (a11, a12, a21), (b11, b12, b21), flows = template(
        *forms, *fe.differentiate(forms, "t"), *map(_c, family_args))
    lax = LaxPair(((a11, a12), (a21, fe.neg(a11))), ((b11, b12), (b21, fe.neg(b11))))
    return CatalogEntry(lax=lax, flow_exprs=flows, closed_forms=closed_forms,
                        params_exact=dict(p), **documented)


def _pii_entry(p, entry_id: str, y: Expr, u: Expr,
               singular_t: tuple[complex, ...], solution: str) -> CatalogEntry:
    """A PII entry at z = -t/2, reducing to Airy as PII.y0 does."""
    return _matrix_entry(
        _pii_template, p, {"y": y, "z": fe.neg(T / 2), "u": u}, (p["theta"],),
        id=entry_id, family="PII",
        basepoint_x=1.0 + 0j, singular_x=(0j,), singular_t=singular_t,
        expected_target=ClassicalTarget.airy(4 ** (1 / 3)),
        documented_target_scale="4^(1/3)",
        expected_case="EQ3", expected_exponent_a=0j,
        reduction_closed_forms={"f": 2 * X, "h": _c(0), "R": _c(0), "M": _c(0),
                                "tau": X**2 + T, "gauge": _c(1)},
        metadata={"solution": solution},
    )


def _build_pii_y0(p) -> CatalogEntry:
    return _pii_entry(p, "PII.y0", _c(0), _c(1), (), "y = 0 at alpha = 0")


def _build_pii_y_inv_t(p) -> CatalogEntry:
    return _pii_entry(p, "PII.y_inv_t", fe.neg(1 / T), T, (0j,),
                      "y = -1/t at alpha = 1; second component")


def _build_piii_y1(p) -> CatalogEntry:
    thi = p["theta_inf"]
    thi_c = complex(thi)
    return _matrix_entry(
        _piii_template, p,
        {"y": _c(1), "z": _c((1 - 2 * thi) / 4), "w": fe.exp(2 * T) * fe.pow_any(T, thi)},
        (thi - 1, thi),
        id="PIII.y1", family="PIII",
        basepoint_x=2.0 + 0j, singular_x=(0j, 1 + 0j, -1 + 0j), singular_t=(0j,),
        expected_target=ClassicalTarget.whittaker((thi_c - 1) / 2, 1 / 16),
        expected_case="EQ2", expected_exponent_a=thi_c - 1,
        reduction_closed_forms={
            "f": _c(0),
            "h": (X + 1) / (X * (X - 1)),
            "R": _c((thi_c - 1) / 2) / X - _c((2 * thi_c - 1) / 2) / (X - 1),
            "M": _c(-1),
            "tau": (X - 1) ** 2 * T / X,
            "gauge": fe.pow_any(X, (thi - 1) / 2) * fe.pow_any(X - 1, (1 - 2 * thi) / 2),
        },
        metadata={"solution": "y = 1 with theta0 = theta_inf - 1"},
    )


def _build_piv_y_m2t(p) -> CatalogEntry:
    # y = -2t never vanishes on the probe boxes (t is bounded away from 0).
    return _matrix_entry(
        _piv_template, p, {"y": -2 * T, "z": _c(1), "u": _c(1)},
        (p["theta0"], p["theta_inf"]),
        id="PIV.y_m2t", family="PIV",
        basepoint_x=1.0 + 0j, singular_x=(0j,), singular_t=(),
        expected_target=ClassicalTarget.constant(1),
        expected_case="mixed", expected_exponent_a=0j,
        reduction_closed_forms={
            "f": _c(1),
            "h": 1 / X,
            "R": fe.neg(1 / (2 * X)),
            "M": _c(0),
            "tau": T * X + X**2 / 2,
            "gauge": fe.pow_any(X, F(-1, 2)),
        },
        metadata={
            "solution": "y = -2t at theta0 = theta_inf = 1/2",
            "other_variant": "theta0 = -theta_inf = -1/2 (z = 0) yields the same scalar pair",
        },
    )


def _build_piv_y_m2t3(p) -> CatalogEntry:
    return _matrix_entry(
        _piv_template, p,
        {"y": -2 * T / 3, "z": -2 * T**2 / 9, "u": fe.exp(-2 * T**2 / 3)},
        (p["theta0"], p["theta_inf"]),
        id="PIV.y_m2t3", family="PIV",
        basepoint_x=1.0 + 0j, singular_x=(0j,), singular_t=(0j,),
        expected_target=ClassicalTarget.airy((3 / 4) ** (1 / 3)),
        documented_target_scale="(3/4)^(1/3)",
        expected_case="generic_EQ", expected_exponent_a=None,
        reduction_closed_forms={
            "f": _c(1),
            "h": 1 / (3 * X),
            "R": fe.neg(1 / (6 * X)),
            "M": 2 * T / 3,
            "tau": T * fe.pow_any(X, F(1, 3)) + F(3, 4) * fe.pow_any(X, F(4, 3)),
            "gauge": fe.pow_any(X, F(-1, 6)),
        },
        metadata={
            "solution": "y = -2t/3 at theta_inf = 1/2, theta0 = -1/6",
            "other_variant": "theta0 = 1/6 (z = -2t^2/9 + 1/3) yields the same scalar pair",
        },
    )


def _build_pv_y_lin(p) -> CatalogEntry:
    th1 = p["theta1"]
    if complex(th1) == 1:
        raise ValueError("theta1 = 1 degenerates the solution y = 1 - t/(theta1 - 1)")
    thi = 2 - th1
    th1_c = complex(th1)
    # The flow for u forces exp(+t); checked against the integrability
    # condition directly.
    u = fe.pow_any(T, thi) * fe.exp(T) / (_c(th1_c - 1) - T)
    return _matrix_entry(
        _pv_template, p, {"y": 1 - T / _c(th1_c - 1), "z": _c(0), "u": u}, (0, th1, thi),
        id="PV.y_lin", family="PV",
        basepoint_x=2.0 + 0j, singular_x=(0j, 1 + 0j), singular_t=(0j, th1_c - 1),
        expected_target=ClassicalTarget.whittaker((1 - th1_c) / 2, th1_c**2 / 4),
        expected_case="EQ2", expected_exponent_a=1 - th1_c,
        reduction_closed_forms={
            "f": _c(0),
            "h": 1 / (X - 1),
            "R": _c((th1_c - 2) / 2) / (X - 1),
            "M": _c(-0.5),
            "tau": T * (X - 1),
            "gauge": fe.pow_any(X - 1, (th1 - 2) / 2),
        },
        metadata={"solution": "y = 1 - t/(theta1 - 1) at theta0 = 0, theta1 + theta_inf = 2"},
    )


def _build_pv_y_m1(p) -> CatalogEntry:
    thi = p["theta_inf"]
    thi_c = complex(thi)
    return _matrix_entry(
        _pv_template, p,
        {"y": _c(-1), "z": fe.neg((T + 2 + 2 * _c(thi_c)) / 8), "u": fe.exp(T / 2)},
        (F(1, 2), F(1, 2), thi),
        id="PV.y_m1", family="PV",
        basepoint_x=2.0 + 0j, singular_x=(0j, 1 + 0j), singular_t=(0j,),
        expected_target=ClassicalTarget.constant(0.25),
        expected_case="generic_EQ", expected_exponent_a=0j,
        reduction_closed_forms={
            "f": _c(1 - thi_c) / (X * (X - 1)),
            "h": (1 / X + 1 / (X - 1)) / 2,
            "R": fe.neg(1 / (4 * X)) - 1 / (4 * (X - 1)),
            "M": _c(-0.25),
            "tau": T * fe.sqrt(X * (X - 1))
            - _c(1 - thi_c) * fe.log((fe.sqrt(X) - fe.sqrt(X - 1)) / (fe.sqrt(X) + fe.sqrt(X - 1))),
            "gauge": fe.pow_any(X * (X - 1), F(-1, 4)),
        },
        metadata={"solution": "y = -1 at theta0 = theta1 = 1/2, theta_inf free"},
    )


def _build_pvdeg_kitaev(p) -> CatalogEntry:
    """The Kitaev pair at y = 1 + kappa sqrt(t).  kappa = 0 degenerates:
    y = 1 is constant, a2 = -mu kappa/(2t) vanishes, so the flow residual
    is 0 for any pair, and the term 1/(2 kappa x (x - 1)) of p2 and f is
    undefined."""
    kap_c, mu_c = complex(p["kappa"]), complex(p["mu"])
    if kap_c == 0:
        raise ValueError("kappa = 0 degenerates the solution y = 1 + kappa*sqrt(t)")
    k_ = _c(kap_c)
    m_ = _c(mu_c)
    # Scalar pair in the square-root deformation variable z (stored in the
    # t slot; the original deformation parameter is t_orig = z^2).
    p1 = 1 / X + 1 / (X - 1) - k_ * T / (k_ * T * X + 1)
    q1 = (
        m_ / (2 * X**2)
        - 1 / (16 * (X - 1) ** 2)
        + (4 * m_ * k_ * T + 2 * m_ - 1) / (4 * X)
        + k_**2 * T**2 / (4 * (k_ * T + 1) * (1 + k_ * T * X))
        - (2 * m_ * k_**3 * T**3 + 6 * m_ * k_**2 * T**2 + 6 * m_ * k_ * T + 2 * m_ - 1)
        / (4 * (k_ * T + 1) * (X - 1))
    )
    p2 = 1 / (2 * k_ * X * (X - 1)) + T / (2 * (X - 1))
    q2 = fe.neg(1 / (4 * (X - 1))) + (1 / (2 * T)) * p2
    sp = ScalarPair(p1=p1, q1=q1, p2=p2, q2=q2, system=_companion_system(p1, q1, p2, q2))

    # Closed forms of the matrix residue data at y = 1 + kappa*z; the first
    # coefficient ODE certifies them (the a1 relation with the free constant
    # pinned to 0 is definitional).
    theta_inf = -mu_c * kap_c**2
    a2 = fe.neg(m_ * k_ / (2 * T))
    a1 = (fe.neg(2 * T / k_) - T**2) * a2
    ratio = a1 / a2
    dlog_a2 = fe.differentiate(a2, "t") / a2
    term1 = (T / 2) * dlog_a2
    term1_t, ratio_t = fe.differentiate((term1, ratio), "t")
    flow = (
        term1_t / (2 * T)
        - _c(theta_inf) * ratio_t / (2 * T)
        - 2 * a2 - _c(theta_inf)
    )

    return CatalogEntry(
        id="PVdeg.kitaev_sqrt", family="PV_Kitaev",
        params_exact=dict(p),
        closed_forms={"a2": a2, "a1": a1},
        scalar=sp, flow_exprs=(flow,),
        basepoint_x=2.0 + 0j, singular_x=(0j, 1 + 0j), singular_t=(0j,),
        expected_target=ClassicalTarget.constant(2 * mu_c * kap_c**2),
        expected_case="generic_EQ", expected_exponent_a=None,
        reduction_closed_forms={
            "f": 1 / (2 * k_ * X * (X - 1)),
            "h": 1 / (2 * (X - 1)),
            "R": fe.neg(1 / (4 * (X - 1))),
            "M": 1 / (2 * T),
            "tau": T * fe.pow_any(X - 1, F(1, 2))
            - (_c(1j) / (2 * k_)) * fe.log((fe.sqrt(X - 1) - _c(1j)) / (fe.sqrt(X - 1) + _c(1j))),
            "gauge": fe.pow_any(X - 1, F(-1, 4)),
        },
        pre_substitution="t = z^2",
        metadata={"solution": "y = 1 + kappa*sqrt(t), degenerate fifth flow (delta = 0)"},
    )


def _build_negative_pii_bad_y1(p) -> CatalogEntry:
    # Deliberately corrupted: y = 1 is not a valid solution at theta = 1/2,
    # so the integrability condition fails at order one.
    return _matrix_entry(
        _pii_template, p, {"y": _c(1), "z": fe.neg(T / 2), "u": _c(1)}, (p["theta"],),
        id="negative.PII_bad_y1", family="PII",
        basepoint_x=2.0 + 0j, singular_x=(0j, 1 + 0j), singular_t=(),
        expected_target=ClassicalTarget.none(),
        expected_case="EQ3", expected_exponent_a=None,
        reduction_closed_forms={
            "f": 2 * X - 2,
            "h": _c(0),
            "R": X,
            "M": _c(0),
            "tau": X**2 - 2 * X + T,
            "gauge": fe.exp(X**2 / 2),
        },
        metadata={"corrupted": "y = 1 does not solve the flow at theta = 1/2"},
    )


# Each entry id, in listing order, with its builder and default parameters.
_ENTRIES: dict[str, tuple[Callable[[Mapping], CatalogEntry], dict[str, Fraction]]] = {
    "PII.y0": (_build_pii_y0, {"theta": F(1, 2)}),
    "PII.y_inv_t": (_build_pii_y_inv_t, {"theta": F(-1, 2)}),
    "PIII.y1": (_build_piii_y1, {"theta_inf": F(5, 2)}),
    "PIV.y_m2t": (_build_piv_y_m2t, {"theta0": F(1, 2), "theta_inf": F(1, 2)}),
    "PIV.y_m2t3": (_build_piv_y_m2t3, {"theta0": F(-1, 6), "theta_inf": F(1, 2)}),
    "PV.y_lin": (_build_pv_y_lin, {"theta1": F(3)}),
    "PV.y_m1": (_build_pv_y_m1, {"theta_inf": F(1, 2)}),
    "PVdeg.kitaev_sqrt": (_build_pvdeg_kitaev, {"kappa": F(1), "mu": F(1, 2)}),
    "negative.PII_bad_y1": (_build_negative_pii_bad_y1, {"theta": F(1, 2)}),
}

# Every entry at its default parameters, built once at import.
_DEFAULTS: dict[str, CatalogEntry] = {
    entry_id: build(dict(params)) for entry_id, (build, params) in _ENTRIES.items()
}


def list_entries() -> list[str]:
    """The shipped positive entry ids, in stable order."""
    return [i for i, e in _DEFAULTS.items() if not e.is_negative]


def list_negative_entries() -> list[str]:
    return [i for i, e in _DEFAULTS.items() if e.is_negative]


def lookup(entry_id: str, overrides: Mapping | None = None) -> CatalogEntry:
    """Fetch an entry, optionally overriding its exact parameters.  An
    arithmetic error while building it (a parameter so large that a
    closed form overflows) is raised as a ValueError naming the entry and
    the overridden parameters."""
    if entry_id not in _ENTRIES:
        raise EntryNotFoundError(f"no catalog entry named {entry_id!r}")
    if not overrides:
        return _DEFAULTS[entry_id]
    params = _merge_params(entry_id, overrides)
    try:
        return _ENTRIES[entry_id][0](params)
    except ArithmeticError as exc:
        raise ValueError(
            f"entry {entry_id!r} cannot be built at the given {', '.join(sorted(overrides))}: "
            f"{type(exc).__name__}: {exc}") from exc


def flow_residual(entry: CatalogEntry, ts: Sequence[complex]) -> float:
    """Max modulus of the nonlinear flow residuals over the deformation
    values ``ts``, from one array call of ``entry.flow_fns`` (at x = 0: the
    residuals depend on t alone), NaN if one is NaN (``ndarray.max`` keeps
    a NaN wherever it comes, ``max`` only when first).  Vanishes (to
    rounding) when the entry's closed forms really solve the family's
    compatibility flow."""
    return float(np.abs(entry.flow_fns(0j, np.array(ts, dtype=complex))).max())


# ---------------------------------------------------------------------------
# Manifests

def _param_json(v) -> object:
    if isinstance(v, Fraction):
        return str(v)
    return complex_json(v)


def manifest(entry: CatalogEntry) -> dict:
    """Human-readable description of an entry (stable key order)."""
    doc: dict = {
        "schema": SCHEMA,
        "id": entry.id,
        "family": entry.family,
        "negative_control": entry.is_negative,
        "parameters": {k: _param_json(v) for k, v in sorted(entry.params_exact.items())},
        "closed_forms": {k: fe.to_string(v) for k, v in sorted(entry.closed_forms.items())},
        "reduction": {k: fe.to_string(v) for k, v in sorted(entry.reduction_closed_forms.items())},
        "case": entry.expected_case,
        "target": entry.expected_target.to_json(),
        "basepoint_x": complex_json(entry.basepoint_x),
        "box_x": [entry.box_x.re_lo, entry.box_x.re_hi, entry.box_x.im_lo, entry.box_x.im_hi],
        "box_t": [entry.box_t.re_lo, entry.box_t.re_hi, entry.box_t.im_lo, entry.box_t.im_hi],
        "singular_x": [complex_json(z) for z in entry.singular_x],
        "singular_t": [complex_json(z) for z in entry.singular_t],
        "metadata": dict(sorted(entry.metadata.items())),
    }
    if entry.documented_target_scale is not None:
        doc["target"]["scale_closed_form"] = entry.documented_target_scale
    if entry.expected_exponent_a is not None:
        doc["exponent_a"] = complex_json(entry.expected_exponent_a)
    if entry.pre_substitution is not None:
        doc["pre_substitution"] = entry.pre_substitution
    return doc
