"""Frobenius integrability check and reduction of a 2x2 system to a scalar pair.

A completely integrable system

    dPhi/dx = A(x,t) Phi,    dPhi/dt = B(x,t) Phi

with traceless 2x2 coefficient matrices is rewritten, for its first
component, as one second-order equation in x plus one first-order cross
relation tying the x- and t-derivatives together:

    phi'' + p1 phi' + q1 phi = 0
    phi'  = p2 dphi/dt + q2 phi

with the coefficients

    p1 = -d/dx log a12
    q1 = det A - d/dx a11 + a11 d/dx log a12
    p2 = a12 / b12
    q2 = a11 - b11 a12 / b12.

The second component is the first of the swapped system, the system of
(phi2, phi1) (``catalog.LaxPair.swapped``), so one set of formulas serves
both.  Scalarizing is symbolic: it evaluates nothing, and the one numeric
check of its hypothesis, that the off-diagonal entries feeding it do not
vanish, is made by ``reduction.decompose`` from its first array call.
Only the Frobenius defect is evaluated here, numerically, from the
first-order jets of the system's eight entries
(:func:`frobenius_residual_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Coefficients of the scalar form of a 2x2 system, for its first
    component: ``phi'' + p1 phi' + q1 phi = 0`` and ``phi' = p2 dphi/dt + q2
    phi``.

    ``system`` is the system (``catalog.LaxPair``) the pair is the first
    component of: the Lax pair for the first solution component, its
    swapped system for the second (``component`` names which), and the
    companion system for a pair given directly, which a report checks and
    walks; None for a pair no report uses.  ``off_diag`` is the pair
    (a_off, b_off) it was scalarized from, the (1,2) entries of
    ``system``, and None for a pair given directly, which
    ``reduction.decompose`` reads as ``(p2, 1)``: the first rows of the x-
    and t-systems on (phi, phi_t), (q2, p2) and (0, 1).
    """

    p1: Expr
    q1: Expr
    p2: Expr
    q2: Expr
    component: str = "first"
    off_diag: tuple[Expr, Expr] | None = None
    system: "LaxPair | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.component not in ("first", "second"):
            raise ValueError("component must be 'first' or 'second'")


def frobenius_residual_grid(lp: "LaxPair", points: Sequence[tuple[complex, complex]]) -> float:
    """Max-entry modulus of the integrability defect dA/dt - dB/dx + AB - BA
    over ``points``, NaN if one is NaN (as in :func:`catalog.flow_residual`),
    from one run of the jets of ``lp.kernel`` (``expr._walked_jets``): A_t
    and B_x are the jets' gradients, so no derivative is built.  Zero (to
    rounding) exactly when the two linear systems are jointly solvable near
    every point.  A singular entry raises the walk's exception; an entry
    that is finite where its derivative is not gives a reading that is not
    finite (inf for a square root at zero, NaN for a fractional power)."""
    xs, ts = (np.array(v, dtype=complex) for v in zip(*points))
    jets = fe._walked_jets(lp.kernel, xs, ts)
    b, b_x = (np.reshape([jet[k] for jet in jets[:4]], (2, 2, -1)) for k in (0, 1))
    a, a_t = (np.reshape([jet[k] for jet in jets[4:]], (2, 2, -1)) for k in (0, 2))
    with np.errstate(all="ignore"):
        defect = a_t - b_x + np.einsum("ikn,kjn->ijn", a, b) - np.einsum("ikn,kjn->ijn", b, a)
    # np.max, unlike max, keeps a NaN.
    return float(np.abs(defect).max())


def scalar_coefficients(lp: "LaxPair", component: str = "first") -> ScalarPair:
    """Build the scalar pair for one solution component, symbolically: the
    first component's pair of ``lp``, or of ``lp.swapped`` for the second.

    It assumes the off-diagonal entries it divides by do not vanish;
    ``reduction.decompose`` checks that on its probes and raises
    :class:`VanishingOffDiagonalError` where they do."""
    system = lp if component == "first" else lp.swapped
    (a11, aoff), (a21, a22) = system.a
    b11, boff = system.b[0]

    det_a = fe.sub(fe.mul(a11, a22), fe.mul(aoff, a21))
    aoff_x, a11_x = fe.differentiate((aoff, a11), "x")
    dlog_off = fe.div(aoff_x, aoff)
    p2 = fe.div(aoff, boff)
    return ScalarPair(
        p1=fe.neg(dlog_off),
        q1=fe.add(fe.sub(det_a, a11_x), fe.mul(a11, dlog_off)),
        p2=p2,
        q2=fe.sub(a11, fe.mul(b11, p2)),
        component=component,
        off_diag=(aoff, boff),
        system=system,
    )
