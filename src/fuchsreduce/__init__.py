"""Symbolic-numeric reduction of completely integrable 2x2 linear systems.

The package scalarizes a compatible pair of linear systems in a spectral
variable x and a deformation variable t, extracts the reduction data
(f, h, R, M), checking that the off-diagonal entries factor as the reduction
requires, applies the gauge and tau change of variables,
and certifies numerically that the reduced second-order equation no longer
depends on the deformation parameter.  A built-in catalog covers the
classical algebraic-solution reductions of the Painleve II-V linearizations
down to Airy, Whittaker and constant-coefficient equations.
"""

from . import catalog, cli, expr, reduction, scalarize, targets, verify
from .catalog import (
    CatalogEntry,
    ComplexRect,
    LaxPair,
    flow_residual,
    list_entries,
    list_negative_entries,
    lookup,
    manifest,
)
from .config import Config, DEFAULT_CONFIG
from .expr import Binding, Expr
from .reduction import (
    Decomposition,
    ReducedEquation,
    build_reduced,
    classify_case,
    decompose,
)
from .scalarize import ScalarPair, scalar_coefficients
from .targets import ClassicalTarget
from .verify import (
    VerificationReport,
    check_t_independence,
    cross_validate,
    full_report,
    match_classical,
    prepare,
)

__version__ = "0.1.0"
