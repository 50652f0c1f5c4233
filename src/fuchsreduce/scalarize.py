"""Frobenius integrability check and reduction of a 2x2 system to a scalar pair.

A completely integrable system

    dPhi/dx = A(x,t) Phi,    dPhi/dt = B(x,t) Phi

with traceless 2x2 coefficient matrices is rewritten, componentwise, as one
second-order equation in x plus one first-order cross relation tying the
x- and t-derivatives together:

    phi'' + p1 phi' + q1 phi = 0
    phi'  = p2 dphi/dt + q2 phi

For the first component the coefficients are

    p1 = -d/dx log a12
    q1 = det A - d/dx a11 + a11 d/dx log a12
    p2 = a12 / b12
    q2 = a11 - b11 a12 / b12

and the second component uses the mirrored formulas with the (2,1) entries
and flipped signs.  Derivatives are symbolic; only the final comparisons are
numeric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import expr as fe
from .expr import Binding, Expr

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import LaxPair

__all__ = [
    "ScalarPair",
    "ScalarizeError",
    "VanishingOffDiagonalError",
    "frobenius_residual",
    "scalar_coefficients",
    "scalar_residual",
]


class ScalarizeError(Exception):
    pass


class VanishingOffDiagonalError(ScalarizeError):
    """The off-diagonal entry feeding the scalarization vanishes identically
    on the probe set, so the scalar pair is undefined."""


@dataclass(frozen=True)
class ScalarPair:
    """Coefficients of the scalar form of a 2x2 system.

    ``q2`` is stored exactly as it appears in the first-order relation
    ``phi' = p2 dphi/dt + q2 phi``.  For the second component this carries
    an extra sign relative to the combination ``a11 - b11 a21/b21``; use
    :meth:`q2_decomposable` when splitting off the deformation profile.
    """

    p1: Expr
    q1: Expr
    p2: Expr
    q2: Expr
    component: str = "first"
    params: Mapping[str, complex] = field(default_factory=dict)
    off_diag: tuple[Expr, Expr] | None = None  # (a12, b12) or (a21, b21)
    diag: tuple[Expr, Expr] | None = None      # (a11, b11)

    def __post_init__(self):
        if self.component not in ("first", "second"):
            raise ValueError("component must be 'first' or 'second'")

    def q2_decomposable(self) -> Expr:
        """The combination that splits as R(x) + M(t) (f(x) + t h(x))."""
        if self.component == "first":
            return self.q2
        return fe.neg(self.q2)

    @cached_property
    def p1_q1(self) -> Callable[[complex, complex], tuple[complex, complex]]:
        """(x, t) -> (p1, q1), compiled."""
        return fe.compile_expr((self.p1, self.q1), dict(self.params))


def _matmul(a, b):
    return (
        (
            fe.add(fe.mul(a[0][0], b[0][0]), fe.mul(a[0][1], b[1][0])),
            fe.add(fe.mul(a[0][0], b[0][1]), fe.mul(a[0][1], b[1][1])),
        ),
        (
            fe.add(fe.mul(a[1][0], b[0][0]), fe.mul(a[1][1], b[1][0])),
            fe.add(fe.mul(a[1][0], b[0][1]), fe.mul(a[1][1], b[1][1])),
        ),
    )


def frobenius_residual_exprs(lp: "LaxPair") -> list[Expr]:
    """The four entries of dA/dt - dB/dx + AB - BA as expressions."""
    a, b = lp.a, lp.b
    ab = _matmul(a, b)
    ba = _matmul(b, a)
    out = []
    for i in range(2):
        for j in range(2):
            r = fe.add(
                fe.sub(fe.differentiate(a[i][j], "t"), fe.differentiate(b[i][j], "x")),
                fe.sub(ab[i][j], ba[i][j]),
            )
            out.append(r)
    return out


def frobenius_residual(lp: "LaxPair", x: complex, t: complex) -> float:
    """Max-entry modulus of the integrability defect at one point.

    Zero (to rounding) exactly when the two linear systems are jointly
    solvable near (x, t)."""
    return max(abs(f(complex(x), complex(t))) for f in lp.frobenius_fns)


def frobenius_residual_grid(lp: "LaxPair", points: Sequence[tuple[complex, complex]]) -> float:
    fns = lp.frobenius_fns
    return max(
        abs(f(complex(x), complex(t))) for (x, t) in points for f in fns
    )


def scalar_coefficients(lp: "LaxPair", component: str = "first",
                        probes: Sequence[Binding] | None = None,
                        zero_tol: float = 1e-10) -> ScalarPair:
    """Build the scalar pair for one solution component.

    ``probes`` (when given) are used to reject systems whose relevant
    off-diagonal entries vanish identically, in which case the scalar form
    does not exist."""
    if component not in ("first", "second"):
        raise ValueError("component must be 'first' or 'second'")
    a, b = lp.a, lp.b
    a11, b11 = a[0][0], b[0][0]
    if component == "first":
        aoff, boff = a[0][1], b[0][1]
    else:
        aoff, boff = a[1][0], b[1][0]

    if probes is not None:
        for name, entry in (("a-offdiag", aoff), ("b-offdiag", boff)):
            if fe.numerically_zero(entry, probes, tol=zero_tol):
                raise VanishingOffDiagonalError(
                    f"{name} entry vanishes on the probe set; "
                    f"cannot scalarize the {component} component"
                )

    det_a = fe.sub(fe.mul(a[0][0], a[1][1]), fe.mul(a[0][1], a[1][0]))
    dlog_off = fe.div(fe.differentiate(aoff, "x"), aoff)
    p1 = fe.neg(dlog_off)
    if component == "first":
        q1 = fe.add(
            fe.sub(det_a, fe.differentiate(a11, "x")),
            fe.mul(a11, dlog_off),
        )
    else:
        q1 = fe.sub(
            fe.add(det_a, fe.differentiate(a11, "x")),
            fe.mul(a11, dlog_off),
        )
    p2 = fe.div(aoff, boff)
    q2_core = fe.sub(a11, fe.mul(b11, p2))
    q2 = q2_core if component == "first" else fe.neg(q2_core)

    return ScalarPair(
        p1=p1, q1=q1, p2=p2, q2=q2,
        component=component,
        params=dict(lp.params),
        off_diag=(aoff, boff),
        diag=(a11, b11),
    )


def scalar_residual(sp: ScalarPair, phi: Callable[[complex, complex], complex],
                    x: complex, t: complex,
                    hx: float = 2e-2, ht: float = 5e-3) -> float:
    """Check both scalar equations on a numeric joint solution.

    ``phi`` samples a solution component of the 2x2 system near (x, t);
    x-derivatives use 7-point central stencils (width ``hx``), the
    t-derivative a 5-point stencil (width ``ht``).  Returns the larger of
    the two equation residuals, relative to the local solution scale."""
    x = complex(x)
    t = complex(t)
    px = [phi(x + k * hx, t) for k in (-3, -2, -1, 0, 1, 2, 3)]
    pt = [phi(x, t + k * ht) for k in (-2, -1, 1, 2)]
    f = px[3]
    d1 = (-px[0] + 9 * px[1] - 45 * px[2] + 45 * px[4] - 9 * px[5] + px[6]) / (60 * hx)
    d2 = (2 * px[0] - 27 * px[1] + 270 * px[2] - 490 * px[3]
          + 270 * px[4] - 27 * px[5] + 2 * px[6]) / (180 * hx * hx)
    dt1 = (pt[0] - 8 * pt[1] + 8 * pt[2] - pt[3]) / (12 * ht)

    ps = dict(sp.params)
    bnd = Binding(x=x, t=t, params=ps)
    p1 = fe.evaluate(sp.p1, bnd)
    q1 = fe.evaluate(sp.q1, bnd)
    p2 = fe.evaluate(sp.p2, bnd)
    q2 = fe.evaluate(sp.q2, bnd)

    r_second_order = d2 + p1 * d1 + q1 * f
    r_cross = d1 - p2 * dt1 - q2 * f
    scale1 = max(abs(d2), abs(q1 * f), 1.0)
    scale2 = max(abs(d1), abs(p2 * dt1), 1.0)
    return max(abs(r_second_order) / scale1, abs(r_cross) / scale2)
