"""Registry of integrable 2x2 systems at algebraic Painleve solutions.

Each entry specializes a standard isomonodromic linearization (Miwa-Jimbo
for P_II/P_III/P_IV/P_V, Kitaev for the degenerate P_V) at an algebraic
solution of the underlying Painleve flow, with every time-dependent
coefficient substituted in closed form and the family's parameters
substituted as constants when the entry is built.  Entries record,
alongside the matrices:

* the nonlinear flow system whose residuals certify the closed forms,
* probe boxes and basepoints used by every numeric check downstream,
* the documented closed forms of the reduction data (f, h, R, M, tau,
  gauge) and the expected classical target, used as oracles and for
  human-readable manifests (:func:`manifest`; ``reduce`` and ``list
  --json`` print them, and the tests pin them in
  ``tests/data/manifests/``).

Each entry is declared once, by one line of ``_ENTRIES`` (id, builder,
default parameters, in listing order); an id starting with ``negative.``
is a negative control.  A builder rejects, with a ValueError naming it,
a parameter value at which its family degenerates.

The default entries are built once, at import, and change afterwards
only by what they build or record on first use; :func:`lookup` returns
them, or builds an entry afresh for parameter overrides.  Entries attach
their kernels lazily, on first use, as cached properties: the flow
residual kernel, the scalar pair and the decomposition for the entry's
own boxes (which in turn carries the tau/gauge and coefficient kernels).
An expression kernel (:class:`expr.Kernel`) walks its DAG on its first
call and compiles on its second, so an entry that serves one report
compiles only the kernels that report calls more than once, and one that
serves many runs compiled code from its second report on, except in the
stages that run once per entry (``CatalogEntry.certified``), whose
kernels are walked and never compiled.  Default entries keep their
kernels and records for the life of the process; an entry built with
parameter or box overrides takes them with it when it is collected.  A
copy on other boxes (:meth:`CatalogEntry.with_boxes`) starts with the
flow kernel and linear systems its entry has built, which no box enters,
and an empty record.  Concurrent reads are safe: a first use racing
another may compute a kernel or a recorded stage twice, which is
harmless because the result is deterministic.
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

    def contains(self, z: complex) -> bool:
        return (self.re_lo <= z.real <= self.re_hi
                and self.im_lo <= z.imag <= self.im_hi)

    def inflated(self, factor: float) -> "ComplexRect":
        c = self.center
        hre = 0.5 * (self.re_hi - self.re_lo) * factor
        him = 0.5 * (self.im_hi - self.im_lo) * factor
        return ComplexRect(c.real - hre, c.real + hre, c.imag - him, c.imag + him)

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
                  ) -> list[tuple[complex, ...]]:
    """m rounds of one point per box, drawn with one generator call.

    The bounds (re, im of each box in turn) are tiled m times and passed
    to one ``rng.uniform(lo, hi)``, which yields exactly the doubles, and
    leaves the generator in exactly the state, of m rounds of one draw per
    box, ``complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))``."""
    k = len(boxes)
    lo = np.tile([v for b in boxes for v in (b.re_lo, b.im_lo)], m)
    hi = np.tile([v for b in boxes for v in (b.re_hi, b.im_hi)], m)
    u = rng.uniform(lo, hi).tolist()
    points = [complex(re, im) for re, im in zip(u[::2], u[1::2])]
    return [tuple(points[i:i + k]) for i in range(0, k * m, k)]


DEFAULT_X_BOX = ComplexRect(1.1, 2.5, -0.2, 0.2)
DEFAULT_T_BOX = ComplexRect(0.5, 1.5, -0.2, 0.2)


@dataclass(frozen=True)
class LaxPair:
    """Coefficient matrices A(x,t), B(x,t) of the two linear systems.

    The matrices of the family templates are traceless, and every entry is
    a finite sum of products of one-variable factors (guaranteed by
    construction).  Its two kernels (:class:`expr.Kernel`, each built on
    first use) walk on their first call and are compiled on their second:
    the Frobenius grid calls its kernel once, a linear-system walk its A,
    dA/dt once per panel round.  A report runs the Frobenius grid and the
    cross-validation walk once per entry (``CatalogEntry.certified``), so
    on the shipped entries both kernels are walked and never compiled."""

    a: tuple[tuple[Expr, Expr], tuple[Expr, Expr]]
    b: tuple[tuple[Expr, Expr], tuple[Expr, Expr]]

    @cached_property
    def a_dadt_array(self) -> fe.Kernel:
        """The kernel of (a11, a12, a21, a22) and then the same entries of
        dA/dt, called in array form: the ``matrix`` of a linear-system
        walk (``expr._walk_panels``)."""
        a = (*self.a[0], *self.a[1])
        return fe.Kernel((*a, *(fe.differentiate(e, "t") for e in a)))

    @cached_property
    def frobenius_fns(self) -> fe.Kernel:
        """The kernel of the four entries of dA/dt - dB/dx + [A, B]: one
        tuple, so subexpressions the entries share are computed once (bit
        for bit the values of one kernel per entry)."""
        return fe.Kernel(tuple(scal.frobenius_residual_exprs(self)))


@dataclass
class CatalogEntry:
    """One shipped reduction case.  Immutable after construction, but for
    the kernels it builds on first use and its record ``certified``.

    Its parameters are substituted into every expression when the entry is
    built, so ``params_exact`` only records them.  ``singular_x`` and
    ``singular_t`` list the points every probe, path and grid must avoid
    (poles of entries plus zeros of the off-diagonal entries used for
    scalarization).  Its flow kernel (``flow_fns``, an
    :class:`expr.Kernel` built on first use) is called once per report:
    a report walks it, and a second report on the same entry compiles
    it.

    ``certified`` records the outcomes of the report stages that depend on
    the entry alone, never on the probe seed: the Frobenius grid, the tau
    frame fit at the entry's own basepoint and the cross-validation leg
    (see :func:`verify.full_report`), by stage name, so it holds at most 3
    values.  Each of them runs until it first succeeds, and later reports
    read its outcome; a run that raises records nothing.  The flow and
    t-independence stages draw their points from the seed and run on
    every report.  ``dataclasses.replace`` and :meth:`with_boxes` copies
    start with an empty record."""

    id: str
    family: str
    component: str                      # which solution component scalarizes
    params_exact: dict[str, Fraction | float | complex]
    closed_forms: dict[str, Expr]       # y, z, u/w as functions of t
    lax: LaxPair | None
    scalar: ScalarPair | None           # direct scalar pair (Kitaev route)
    flow_exprs: tuple[Expr, ...]
    basepoint_x: complex
    box_x: ComplexRect
    box_t: ComplexRect
    singular_x: tuple[complex, ...]
    singular_t: tuple[complex, ...]
    expected_target: ClassicalTarget
    expected_case: str
    expected_exponent_a: complex | None
    reduction_closed_forms: dict[str, Expr]   # f, h, R, M, tau, gauge
    pre_substitution: str | None = None
    metadata: dict[str, str] = field(default_factory=dict)
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
        the config keeps them, else a copy, which derives its own scalar pair
        and decomposition (both probe the boxes) and the kernels compiled from
        them; applied to its own result it returns it.  The copy starts with
        the box-independent ``flow_fns`` and ``linear_systems`` (with the
        kernels the systems carry) this entry has already built."""
        boxes = {name: rect for name in ("box_x", "box_t")
                 if (box := getattr(config, name)) is not None
                 and (rect := ComplexRect(*box)) != getattr(self, name)}
        if not boxes:
            return self
        copy = replace(self, **boxes)
        # Saves the flow kernel and a direct pair's companion systems with
        # their compiled A, dA/dt; a matrix entry's systems are its lax,
        # which replace already shares.
        copy.__dict__.update({name: self.__dict__[name]
                              for name in ("flow_fns", "linear_systems")
                              if name in self.__dict__})
        return copy

    def probe_bindings(self, n: int = 12) -> list[Binding]:
        """Deterministic joint (x, t) probes (``reduction.joint_probes``)."""
        return red_mod.joint_probes(self.box_x, self.box_t, n)

    def grid_points(self, n: int = 5) -> list[tuple[complex, complex]]:
        xs, ts = self.box_x.diagonal(n), self.box_t.diagonal(n)
        return [(x, t) for x in xs for t in ts]

    @cached_property
    def flow_fns(self) -> fe.Kernel:
        """The kernel of the flow residual expressions: one tuple (bit for
        bit the values of one kernel per expression)."""
        return fe.Kernel(tuple(self.flow_exprs))

    @cached_property
    def scalar_pair(self) -> ScalarPair:
        """The scalar pair the reduction acts on: scalarized from the
        matrices, or the direct one."""
        if self.lax is None:
            return self.scalar
        return scal.scalar_coefficients(self.lax, self.component,
                                        probes=self.probe_bindings())

    @cached_property
    def linear_systems(self) -> LaxPair:
        """The x- and t-systems the entry's solutions solve: its matrices or,
        for a direct scalar pair, the companion system of phi'' + p1 phi'
        + q1 phi = 0 on (phi, phi') with the t-system that phi' = p2 phi_t
        + q2 phi implies.  That relation reads phi_t = alpha phi + beta phi'
        with alpha = -q2/p2 and beta = 1/p2; differentiating it in x and
        eliminating phi'' gives (phi')_t = (alpha' - beta q1) phi
        + (alpha + beta' - beta p1) phi'."""
        if self.lax is not None:
            return self.lax
        p1, q1, p2, q2 = self.scalar.p1, self.scalar.q1, self.scalar.p2, self.scalar.q2
        alpha, beta = -q2 / p2, 1 / p2
        a = ((_c(0), _c(1)), (-q1, -p1))
        b = ((alpha, beta),
             (fe.differentiate(alpha, "x") - beta * q1,
              alpha + fe.differentiate(beta, "x") - beta * p1))
        return LaxPair(a, b)

    @cached_property
    def decomposition(self) -> red_mod.Decomposition:
        """The decomposition of the scalar pair on the entry's own boxes."""
        return red_mod.decompose(self.scalar_pair, self.box_x, self.box_t)


def _c(v) -> Expr:
    return fe.const(complex(v))


# ---------------------------------------------------------------------------
# Family templates.  Each takes the closed forms (expressions in t) plus the
# exact parameter values and returns (A, B, flow residual expressions).

def _pii_template(y: Expr, z: Expr, u: Expr, theta) -> tuple:
    th = _c(theta)
    a11 = X**2 + z + T / 2
    a12 = u * X - u * y
    a21 = -2 * z * X / u - 2 * (th + y * z) / u
    a = ((a11, a12), (a21, fe.neg(a11)))
    b11 = X / 2
    b12 = u / 2
    b21 = fe.neg(z / u)
    b = ((b11, b12), (b21, fe.neg(b11)))
    dy = fe.differentiate(y, "t")
    dz = fe.differentiate(z, "t")
    du = fe.differentiate(u, "t")
    flows = (
        dy - (z + y * y + T / 2),
        dz - (-2 * y * z - th),
        du / u + y,
    )
    return a, b, flows


def _piii_template(y: Expr, z: Expr, w: Expr, theta0, theta_inf) -> tuple:
    th0 = _c(theta0)
    thi = _c(theta_inf)
    k = (z - T) * y + (thi + th0) / 2 * ((z - T) / z) + (thi - th0) / 2
    a11 = T / 2 - thi / (2 * X) + (z - T / 2) / X**2
    a12 = fe.neg(y * w * z / X) - w * z / X**2
    a21 = fe.neg(k / (w * X)) + (z - T) / (w * X**2)
    a = ((a11, a12), (a21, fe.neg(a11)))
    b11 = X / 2 + (T / 2 - z) / (X * T)
    b12 = fe.neg(y * w * z / T) + w * z / (X * T)
    b21 = fe.neg(k / (w * T)) - (z - T) / (w * X * T)
    b = ((b11, b12), (b21, fe.neg(b11)))
    dy = fe.differentiate(y, "t")
    dz = fe.differentiate(z, "t")
    dw = fe.differentiate(w, "t")
    flows = (
        T * dy - (4 * z * y**2 - 2 * T * y**2 + (2 * thi - 1) * y + 2 * T),
        T * dz - (-4 * y * z**2 + (4 * T * y - 2 * thi + 1) * z + (th0 + thi) * T),
        T * dw / w - (fe.neg((th0 + thi) * T / z) - 2 * T * y + thi),
    )
    return a, b, flows


def _piv_template(y: Expr, z: Expr, u: Expr, theta0, theta_inf) -> tuple:
    th0 = _c(theta0)
    thi = _c(theta_inf)
    a11 = X + T + (th0 - z) / X
    a12 = u - u * y / (2 * X)
    a21 = 2 * (z - th0 - thi) / u + 2 * z * (z - 2 * th0) / (u * y * X)
    a = ((a11, a12), (a21, fe.neg(a11)))
    b11 = X
    b12 = u
    b21 = 2 * (z - th0 - thi) / u
    b = ((b11, b12), (b21, fe.neg(b11)))
    dy = fe.differentiate(y, "t")
    dz = fe.differentiate(z, "t")
    du = fe.differentiate(u, "t")
    flows = (
        dy - (-4 * z + y**2 + 2 * T * y + 4 * th0),
        dz - (-2 * z**2 / y + (fe.neg(y) + 4 * th0 / y) * z + (th0 + thi) * y),
        du / u + y + 2 * T,
    )
    return a, b, flows


def _pv_template(y: Expr, z: Expr, u: Expr, theta0, theta1, theta_inf) -> tuple:
    th0 = _c(theta0)
    th1 = _c(theta1)
    thi = _c(theta_inf)
    s1 = (th0 - th1 + thi) / 2   # coefficient in the (x-1) residue
    s2 = (th0 + th1 + thi) / 2
    a11 = T / 2 + (z + th0 / 2) / X - (z + (th0 + thi) / 2) / (X - 1)
    a12 = fe.neg(u * (z + th0) / X) + u * y * (z + s1) / (X - 1)
    a21 = z / (u * X) - (z + s2) / (u * y * (X - 1))
    a = ((a11, a12), (a21, fe.neg(a11)))
    b11 = X / 2
    b12 = fe.neg(u * (z + th0 - y * (z + s1)) / T)
    b21 = (z - (z + s2) / y) / (u * T)
    b = ((b11, b12), (b21, fe.neg(b11)))
    dy = fe.differentiate(y, "t")
    dz = fe.differentiate(z, "t")
    du = fe.differentiate(u, "t")
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


def _build_pii_y0(p) -> CatalogEntry:
    theta = p["theta"]
    y = _c(0)
    z = fe.neg(T / 2)
    u = _c(1)
    a, b, flows = _pii_template(y, z, u, theta)
    red = {
        "f": 2 * X,
        "h": _c(0),
        "R": _c(0),
        "M": _c(0),
        "tau": X**2 + T,
        "gauge": _c(1),
    }
    return CatalogEntry(
        id="PII.y0", family="PII", component="first",
        params_exact=dict(p),
        closed_forms={"y": y, "z": z, "u": u},
        lax=LaxPair(a, b), scalar=None, flow_exprs=flows,
        basepoint_x=1.0 + 0j, box_x=DEFAULT_X_BOX, box_t=DEFAULT_T_BOX,
        singular_x=(0j,), singular_t=(),
        expected_target=ClassicalTarget.airy(4 ** (1 / 3)),
        documented_target_scale="4^(1/3)",
        expected_case="EQ3", expected_exponent_a=0j,
        reduction_closed_forms=red,
        metadata={"solution": "y = 0 at alpha = 0"},
    )


def _build_pii_y_inv_t(p) -> CatalogEntry:
    theta = p["theta"]
    y = fe.neg(1 / T)
    z = fe.neg(T / 2)
    u = T
    a, b, flows = _pii_template(y, z, u, theta)
    red = {
        "f": 2 * X,
        "h": _c(0),
        "R": _c(0),
        "M": _c(0),
        "tau": X**2 + T,
        "gauge": _c(1),
    }
    return CatalogEntry(
        id="PII.y_inv_t", family="PII", component="second",
        params_exact=dict(p),
        closed_forms={"y": y, "z": z, "u": u},
        lax=LaxPair(a, b), scalar=None, flow_exprs=flows,
        basepoint_x=1.0 + 0j, box_x=DEFAULT_X_BOX, box_t=DEFAULT_T_BOX,
        singular_x=(0j,), singular_t=(0j,),
        expected_target=ClassicalTarget.airy(4 ** (1 / 3)),
        documented_target_scale="4^(1/3)",
        expected_case="EQ3", expected_exponent_a=0j,
        reduction_closed_forms=red,
        metadata={"solution": "y = -1/t at alpha = 1; second component"},
    )


def _build_piii_y1(p) -> CatalogEntry:
    thi = p["theta_inf"]
    th0 = thi - 1
    y = _c(1)
    z = _c((1 - 2 * thi) / 4)
    w = fe.exp(2 * T) * fe.pow_any(T, thi)
    a, b, flows = _piii_template(y, z, w, th0, thi)
    thi_c = complex(thi)
    red = {
        "f": _c(0),
        "h": (X + 1) / (X * (X - 1)),
        "R": _c((thi_c - 1) / 2) / X - _c((2 * thi_c - 1) / 2) / (X - 1),
        "M": _c(-1),
        "tau": (X - 1) ** 2 * T / X,
        "gauge": fe.pow_any(X, (thi - 1) / 2) * fe.pow_any(X - 1, (1 - 2 * thi) / 2),
    }
    return CatalogEntry(
        id="PIII.y1", family="PIII", component="first",
        params_exact=dict(p),
        closed_forms={"y": y, "z": z, "w": w},
        lax=LaxPair(a, b), scalar=None, flow_exprs=flows,
        basepoint_x=2.0 + 0j, box_x=DEFAULT_X_BOX, box_t=DEFAULT_T_BOX,
        singular_x=(0j, 1 + 0j, -1 + 0j), singular_t=(0j,),
        expected_target=ClassicalTarget.whittaker((thi_c - 1) / 2, 1 / 16),
        expected_case="EQ2", expected_exponent_a=thi_c - 1,
        reduction_closed_forms=red,
        metadata={"solution": "y = 1 with theta0 = theta_inf - 1"},
    )


def _build_piv_y_m2t(p) -> CatalogEntry:
    th0, thi = p["theta0"], p["theta_inf"]
    z = _c(1)
    u = _c(1)
    # y = -2t never vanishes on the probe boxes (t is bounded away from 0).
    a, b, flows = _piv_template(-2 * T, z, u, th0, thi)
    red = {
        "f": _c(1),
        "h": 1 / X,
        "R": fe.neg(1 / (2 * X)),
        "M": _c(0),
        "tau": T * X + X**2 / 2,
        "gauge": fe.pow_any(X, F(-1, 2)),
    }
    return CatalogEntry(
        id="PIV.y_m2t", family="PIV", component="first",
        params_exact=dict(p),
        closed_forms={"y": -2 * T, "z": z, "u": u},
        lax=LaxPair(a, b), scalar=None, flow_exprs=flows,
        basepoint_x=1.0 + 0j, box_x=DEFAULT_X_BOX, box_t=DEFAULT_T_BOX,
        singular_x=(0j,), singular_t=(),
        expected_target=ClassicalTarget.constant(1),
        expected_case="mixed", expected_exponent_a=0j,
        reduction_closed_forms=red,
        metadata={
            "solution": "y = -2t at theta0 = theta_inf = 1/2",
            "other_variant": "theta0 = -theta_inf = -1/2 (z = 0) yields the same scalar pair",
        },
    )


def _build_piv_y_m2t3(p) -> CatalogEntry:
    th0, thi = p["theta0"], p["theta_inf"]
    y = -2 * T / 3
    z = -2 * T**2 / 9
    u = fe.exp(-2 * T**2 / 3)
    a, b, flows = _piv_template(y, z, u, th0, thi)
    red = {
        "f": _c(1),
        "h": 1 / (3 * X),
        "R": fe.neg(1 / (6 * X)),
        "M": 2 * T / 3,
        "tau": T * fe.pow_any(X, F(1, 3)) + F(3, 4) * fe.pow_any(X, F(4, 3)),
        "gauge": fe.pow_any(X, F(-1, 6)),
    }
    return CatalogEntry(
        id="PIV.y_m2t3", family="PIV", component="first",
        params_exact=dict(p),
        closed_forms={"y": y, "z": z, "u": u},
        lax=LaxPair(a, b), scalar=None, flow_exprs=flows,
        basepoint_x=1.0 + 0j, box_x=DEFAULT_X_BOX, box_t=DEFAULT_T_BOX,
        singular_x=(0j,), singular_t=(0j,),
        expected_target=ClassicalTarget.airy((3 / 4) ** (1 / 3)),
        documented_target_scale="(3/4)^(1/3)",
        expected_case="generic_EQ", expected_exponent_a=None,
        reduction_closed_forms=red,
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
    y = 1 - T / _c(th1_c - 1)
    z = _c(0)
    # The flow for u forces exp(+t); checked against the integrability
    # condition directly.
    u = fe.pow_any(T, thi) * fe.exp(T) / (_c(th1_c - 1) - T)
    a, b, flows = _pv_template(y, z, u, 0, th1, thi)
    red = {
        "f": _c(0),
        "h": 1 / (X - 1),
        "R": _c((th1_c - 2) / 2) / (X - 1),
        "M": _c(-0.5),
        "tau": T * (X - 1),
        "gauge": fe.pow_any(X - 1, (th1 - 2) / 2),
    }
    return CatalogEntry(
        id="PV.y_lin", family="PV", component="first",
        params_exact=dict(p),
        closed_forms={"y": y, "z": z, "u": u},
        lax=LaxPair(a, b), scalar=None, flow_exprs=flows,
        basepoint_x=2.0 + 0j, box_x=DEFAULT_X_BOX, box_t=DEFAULT_T_BOX,
        singular_x=(0j, 1 + 0j), singular_t=(0j, th1_c - 1),
        expected_target=ClassicalTarget.whittaker((1 - th1_c) / 2, th1_c**2 / 4),
        expected_case="EQ2", expected_exponent_a=1 - th1_c,
        reduction_closed_forms=red,
        metadata={"solution": "y = 1 - t/(theta1 - 1) at theta0 = 0, theta1 + theta_inf = 2"},
    )


def _build_pv_y_m1(p) -> CatalogEntry:
    thi = p["theta_inf"]
    th0 = F(1, 2)
    th1 = F(1, 2)
    thi_c = complex(thi)
    y = _c(-1)
    z = fe.neg((T + 2 + 2 * _c(thi_c)) / 8)
    u = fe.exp(T / 2)
    a, b, flows = _pv_template(y, z, u, th0, th1, thi)
    red = {
        "f": _c(1 - thi_c) / (X * (X - 1)),
        "h": (1 / X + 1 / (X - 1)) / 2,
        "R": fe.neg(1 / (4 * X)) - 1 / (4 * (X - 1)),
        "M": _c(-0.25),
        "tau": T * fe.sqrt(X * (X - 1))
        - _c(1 - thi_c) * fe.log((fe.sqrt(X) - fe.sqrt(X - 1)) / (fe.sqrt(X) + fe.sqrt(X - 1))),
        "gauge": fe.pow_any(X * (X - 1), F(-1, 4)),
    }
    return CatalogEntry(
        id="PV.y_m1", family="PV", component="first",
        params_exact=dict(p),
        closed_forms={"y": y, "z": z, "u": u},
        lax=LaxPair(a, b), scalar=None, flow_exprs=flows,
        basepoint_x=2.0 + 0j, box_x=DEFAULT_X_BOX, box_t=DEFAULT_T_BOX,
        singular_x=(0j, 1 + 0j), singular_t=(0j,),
        expected_target=ClassicalTarget.constant(0.25),
        expected_case="generic_EQ", expected_exponent_a=0j,
        reduction_closed_forms=red,
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
    sp = ScalarPair(p1=p1, q1=q1, p2=p2, q2=q2, component="first")

    # Closed forms of the matrix residue data at y = 1 + kappa*z; the first
    # coefficient ODE certifies them (the a1 relation with the free constant
    # pinned to 0 is definitional).
    theta_inf = -mu_c * kap_c**2
    a2 = fe.neg(m_ * k_ / (2 * T))
    a1 = (fe.neg(2 * T / k_) - T**2) * a2
    ratio = a1 / a2
    dlog_a2 = fe.differentiate(a2, "t") / a2
    term1 = (T / 2) * dlog_a2
    flow = (
        fe.differentiate(term1, "t") / (2 * T)
        - _c(theta_inf) * fe.differentiate(ratio, "t") / (2 * T)
        - 2 * a2 - _c(theta_inf)
    )

    red = {
        "f": 1 / (2 * k_ * X * (X - 1)),
        "h": 1 / (2 * (X - 1)),
        "R": fe.neg(1 / (4 * (X - 1))),
        "M": 1 / (2 * T),
        "tau": T * fe.pow_any(X - 1, F(1, 2))
        - (_c(1j) / (2 * k_)) * fe.log((fe.sqrt(X - 1) - _c(1j)) / (fe.sqrt(X - 1) + _c(1j))),
        "gauge": fe.pow_any(X - 1, F(-1, 4)),
    }
    return CatalogEntry(
        id="PVdeg.kitaev_sqrt", family="PV_Kitaev", component="first",
        params_exact=dict(p),
        closed_forms={"a2": a2, "a1": a1},
        lax=None, scalar=sp, flow_exprs=(flow,),
        basepoint_x=2.0 + 0j, box_x=DEFAULT_X_BOX, box_t=DEFAULT_T_BOX,
        singular_x=(0j, 1 + 0j), singular_t=(0j,),
        expected_target=ClassicalTarget.constant(2 * mu_c * kap_c**2),
        expected_case="generic_EQ", expected_exponent_a=None,
        reduction_closed_forms=red,
        pre_substitution="t = z^2",
        metadata={"solution": "y = 1 + kappa*sqrt(t), degenerate fifth flow (delta = 0)"},
    )


def _build_negative_pii_bad_y1(p) -> CatalogEntry:
    # Deliberately corrupted: y = 1 is not a valid solution at theta = 1/2,
    # so the integrability condition fails at order one.
    theta = p["theta"]
    y = _c(1)
    z = fe.neg(T / 2)
    u = _c(1)
    a, b, flows = _pii_template(y, z, u, theta)
    red = {
        "f": 2 * X - 2,
        "h": _c(0),
        "R": X,
        "M": _c(0),
        "tau": X**2 - 2 * X + T,
        "gauge": fe.exp(X**2 / 2),
    }
    return CatalogEntry(
        id="negative.PII_bad_y1", family="PII", component="first",
        params_exact=dict(p),
        closed_forms={"y": y, "z": z, "u": u},
        lax=LaxPair(a, b), scalar=None, flow_exprs=flows,
        basepoint_x=2.0 + 0j, box_x=DEFAULT_X_BOX, box_t=DEFAULT_T_BOX,
        singular_x=(0j, 1 + 0j), singular_t=(),
        expected_target=ClassicalTarget.none(),
        expected_case="EQ3", expected_exponent_a=None,
        reduction_closed_forms=red,
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
    """Fetch an entry, optionally overriding its exact parameters."""
    if entry_id not in _ENTRIES:
        raise EntryNotFoundError(f"no catalog entry named {entry_id!r}")
    if overrides:
        return _ENTRIES[entry_id][0](_merge_params(entry_id, overrides))
    return _DEFAULTS[entry_id]


def flow_residual(entry: CatalogEntry, ts: Sequence[complex]) -> float:
    """Max modulus of the nonlinear flow residuals over the deformation
    values ``ts``: the max over the residuals at each t, then the max of
    those across the t's, in order.  One call of the flow kernel evaluates
    them all.

    Vanishes (to rounding) when the entry's closed forms really solve the
    family's compatibility flow."""
    rows = entry.flow_fns.at([0j] * len(ts), ts)
    return max(max(abs(v) for v in row) for row in rows)


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
        "component": entry.component,
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
