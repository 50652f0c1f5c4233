"""Metamorphic relations: transformed Lax pairs that must reduce alike.

Two maps of a matrix entry give an equivalent isomonodromic pair, so
the report on the mapped entry must keep the verdict, the matched target
and the frame of the report on the entry itself, with no oracle for
either:

* a gauge in t alone, Phi -> diag(c^1/2, c^-1/2) Phi or e^{s} Phi (Jimbo
  and Miwa, Physica D 2 (1981) 407).  It moves q2 by a multiple of
  f + t h in t alone, which M absorbs, so ``case``, ``exponent_a`` and M
  may move;
* an affine change of x, Phi'(x, t) = Phi(lam x + mu, t), that is
  A'(x, t) = lam A(lam x + mu, t) and B'(x, t) = B(lam x + mu, t), with
  the x box, the basepoint, the singular points and the documented tau
  mapped the same way.
"""

import dataclasses

import pytest

from fuchsreduce import catalog, expr as fe, verify
from fuchsreduce.catalog import ComplexRect, LaxPair
from fuchsreduce.config import TARGET_PARAM_TOL
from fuchsreduce.expr import T, X

MATRIX_IDS = [i for i in catalog.list_entries() if catalog.lookup(i).lax is not None]

# name -> (kind, c or s as an expression in t)
GAUGES = {
    "c=e^t": ("diag", fe.exp(T)),
    "c=t": ("diag", T),
    "c=1/(t+3)": ("diag", 1 / (T + 3)),
    "c=t^2": ("diag", T**2),
    "s=log(t+3)": ("scalar", fe.log(T + 3)),
    "s=t^2": ("scalar", T**2),
}

AFFINE_MAPS = [(2, 0), (0.5, 0.3), (1, -0.25), (-1, 0)]


def gauged(entry, gauge):
    """``entry`` with Phi -> diag(c^1/2, c^-1/2) Phi or e^{s} Phi: A' = G A G^-1
    and B' = G B G^-1 + G_t G^-1 for the gauge matrix G."""
    kind, c = GAUGES[gauge]
    (a11, a12), (a21, a22) = entry.lax.a
    (b11, b12), (b21, b22) = entry.lax.b
    if kind == "diag":
        k = fe.differentiate(c, "t") / (2 * c)
        a = ((a11, c * a12), (a21 / c, a22))
        b = ((b11 + k, c * b12), (b21 / c, b22 - k))
    else:
        k = fe.differentiate(c, "t")
        a = entry.lax.a
        b = ((b11 + k, b12), (b21, b22 + k))
    return dataclasses.replace(entry, lax=LaxPair(a, b))


def x_affine(entry, lam, mu):
    """``entry`` with Phi'(x, t) = Phi(lam x + mu, t), for real lam and mu."""
    def pulled(e):
        return fe.substitute(e, x=lam * X + mu)

    def back(z):
        return (complex(z) - mu) / lam

    a = tuple(tuple(lam * pulled(e) for e in row) for row in entry.lax.a)
    b = tuple(tuple(pulled(e) for e in row) for row in entry.lax.b)
    bx = entry.box_x
    lo, hi = back(complex(bx.re_lo, bx.im_lo)), back(complex(bx.re_hi, bx.im_hi))
    box = ComplexRect(min(lo.real, hi.real), max(lo.real, hi.real),
                      min(lo.imag, hi.imag), max(lo.imag, hi.imag))
    forms = dict(entry.reduction_closed_forms, tau=pulled(entry.reduction_closed_forms["tau"]))
    return dataclasses.replace(
        entry, lax=LaxPair(a, b), box_x=box, basepoint_x=back(entry.basepoint_x),
        singular_x=tuple(back(z) for z in entry.singular_x), reduction_closed_forms=forms)


def report_on(entry):
    """The report ``verify.full_report`` makes with ``entry`` in its id's place."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(catalog._DEFAULTS, entry.id, entry)
        return verify.full_report(entry.id)


def assert_reduces_alike(got, want):
    """The verdict, the match kind and parameters and the frame agree."""
    assert want.passed
    assert got.passed, got.errors
    assert got.match.agrees_with(want.match, tol=TARGET_PARAM_TOL), (got.match, want.match)
    for ours, theirs in zip(got.frame, want.frame):
        assert abs(ours - theirs) <= 1e-8 * (1 + abs(theirs)), (got.frame, want.frame)


@pytest.mark.parametrize("gauge", GAUGES)
@pytest.mark.parametrize("entry_id", MATRIX_IDS)
def test_t_gauge_reduces_alike(report, entry_id, gauge):
    got = report_on(gauged(catalog.lookup(entry_id), gauge))
    assert_reduces_alike(got, report(entry_id))


@pytest.mark.parametrize("lam, mu", AFFINE_MAPS)
@pytest.mark.parametrize("entry_id", MATRIX_IDS)
def test_x_affine_map_reduces_alike(report, entry_id, lam, mu):
    got = report_on(x_affine(catalog.lookup(entry_id), lam, mu))
    assert_reduces_alike(got, report(entry_id))
