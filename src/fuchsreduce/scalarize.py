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

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

from . import expr as fe
from .expr import Binding, Expr

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import LaxPair

__all__ = [
    "ScalarPair",
    "ScalarizeError",
    "VanishingOffDiagonalError",
    "scalar_coefficients",
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
    def p1_q1_array(self) -> Callable:
        """(x, t) -> (p1, q1), compiled in array form."""
        return fe.array_form(fe.compile_expr((self.p1, self.q1)))


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


def frobenius_residual_grid(lp: "LaxPair", points: Sequence[tuple[complex, complex]]) -> float:
    """Max-entry modulus of the integrability defect, maximized over
    ``points``.  Zero (to rounding) exactly when the two linear systems are
    jointly solvable near every point.  One call of the fused kernel
    ``lp.frobenius_fns`` per point gives all four entries."""
    fn = lp.frobenius_fns
    return max(abs(v) for (x, t) in points for v in fn(complex(x), complex(t)))


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
        off_diag=(aoff, boff),
        diag=(a11, b11),
    )

