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
and flipped signs.  Scalarizing is symbolic: it evaluates nothing, and the
one numeric check of its hypothesis, that the off-diagonal entries feeding
it do not vanish, is made by ``reduction.decompose`` from its first array
call.  Only the Frobenius residuals are evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import expr as fe
from .expr import Expr

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
    on the probe set, so the scalar pair is undefined.  Raised by
    ``reduction.decompose``, which samples the entries."""


@dataclass(frozen=True)
class ScalarPair:
    """Coefficients of the scalar form of a 2x2 system.

    ``q2`` is stored exactly as it appears in the first-order relation
    ``phi' = p2 dphi/dt + q2 phi``.  For the second component this carries
    an extra sign relative to the combination ``a11 - b11 a21/b21``; use
    :meth:`q2_decomposable` when splitting off the deformation profile.

    ``off_diag`` is the pair (a_off, b_off) it was scalarized from, (a12,
    b12) or (a21, b21), and None for a pair given directly, which
    ``reduction.decompose`` reads as ``(p2, 1)``: the first rows of the x-
    and t-systems on (phi, phi_t), (q2, p2) and (0, 1).
    """

    p1: Expr
    q1: Expr
    p2: Expr
    q2: Expr
    component: str = "first"
    off_diag: tuple[Expr, Expr] | None = None

    def __post_init__(self):
        if self.component not in ("first", "second"):
            raise ValueError("component must be 'first' or 'second'")

    def q2_decomposable(self) -> Expr:
        """The combination that splits as R(x) + M(t) (f(x) + t h(x))."""
        if self.component == "first":
            return self.q2
        return fe.neg(self.q2)


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
    """The four entries of dA/dt - dB/dx + AB - BA, on ``lp.dadt``."""
    a, b = lp.a, lp.b
    ab, ba = _matmul(a, b), _matmul(b, a)
    dbdx = fe.differentiate((*b[0], *b[1]), "x")
    return [fe.add(fe.sub(lp.dadt[k], dbdx[k]), fe.sub(ab[k // 2][k % 2], ba[k // 2][k % 2]))
            for k in range(4)]


def frobenius_residual_grid(lp: "LaxPair", points: Sequence[tuple[complex, complex]]) -> float:
    """Max-entry modulus of the integrability defect over ``points``, from
    one array call of ``lp.frobenius_fns``, NaN if one is NaN (as in
    :func:`catalog.flow_residual`).  Zero (to rounding) exactly when the two
    linear systems are jointly solvable near every point."""
    xs, ts = (np.array(v, dtype=complex) for v in zip(*points))
    return float(np.abs(lp.frobenius_fns(xs, ts)).max())


def scalar_coefficients(lp: "LaxPair", component: str = "first") -> ScalarPair:
    """Build the scalar pair for one solution component, symbolically.

    It assumes the off-diagonal entries it divides by do not vanish;
    ``reduction.decompose`` checks that on its probes and raises
    :class:`VanishingOffDiagonalError` where they do."""
    if component not in ("first", "second"):
        raise ValueError("component must be 'first' or 'second'")
    a, b = lp.a, lp.b
    a11, b11 = a[0][0], b[0][0]
    if component == "first":
        aoff, boff = a[0][1], b[0][1]
    else:
        aoff, boff = a[1][0], b[1][0]

    det_a = fe.sub(fe.mul(a[0][0], a[1][1]), fe.mul(a[0][1], a[1][0]))
    aoff_x, a11_x = fe.differentiate((aoff, a11), "x")
    dlog_off = fe.div(aoff_x, aoff)
    p1 = fe.neg(dlog_off)
    if component == "first":
        q1 = fe.add(
            fe.sub(det_a, a11_x),
            fe.mul(a11, dlog_off),
        )
    else:
        q1 = fe.sub(
            fe.add(det_a, a11_x),
            fe.mul(a11, dlog_off),
        )
    p2 = fe.div(aoff, boff)
    q2_core = fe.sub(a11, fe.mul(b11, p2))
    q2 = q2_core if component == "first" else fe.neg(q2_core)

    return ScalarPair(
        p1=p1, q1=q1, p2=p2, q2=q2,
        component=component,
        off_diag=(aoff, boff),
    )

