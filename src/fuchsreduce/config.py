"""Run configuration shared by the verification pipeline and the CLI.

Tolerances are engineering choices surfaced here; none are prescribed by
the underlying theory.  :data:`GATES` names the gates a run may set: each
name is a ``Config.tol_<name>`` field, a ``--tol-<name>`` flag of
``reduce`` and ``verify`` and a key of the report's ``tolerances``.  The
two fixed gates, :data:`FRAME_TOL` and :data:`TARGET_PARAM_TOL`, are
reported with them.  The seed makes every randomized probe draw, and
therefore every report and CSV byte, reproducible.
"""

from __future__ import annotations

import cmath
import math
import zlib
from dataclasses import dataclass

# The schema tag of every report and manifest.
SCHEMA = "fuchs-reduce/2"


def complex_json(z) -> dict:
    """A complex number as the JSON object {"re": ..., "im": ...}."""
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# The settable gates, in the order of the report's ``tolerances``.
GATES = ("frobenius", "flow", "independence", "match", "crossval")

# full_report gates the least-squares fit of the documented tau frame at
# this residual, and a matched target's parameters against the documented
# ones at this relative distance.  Both are reported with the tolerances
# but not configurable.
FRAME_TOL = 1e-9
TARGET_PARAM_TOL = 1e-6


@dataclass(frozen=True)
class Config:
    """The report's settable gates (one ``tol_<name>`` per name in
    :data:`GATES`), all shown by :meth:`tolerances_json`, and the inputs of
    a run: the probe seed and the basepoint and probe-box overrides (None
    keeps the entry's own).  A gate, box bound or basepoint that is not
    finite, or a gate that is not positive, raises ValueError naming the
    field."""

    tol_frobenius: float = 1e-10
    tol_flow: float = 1e-10
    tol_independence: float = 1e-8
    tol_match: float = 1e-8
    tol_crossval: float = 1e-6

    seed: int = 42
    basepoint: complex | None = None
    # probe-box overrides as (re_lo, re_hi, im_lo, im_hi)
    box_x: tuple[float, float, float, float] | None = None
    box_t: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        for name in GATES:
            # NaN fails both comparisons, so it is rejected along with inf.
            if not 0 < getattr(self, f"tol_{name}") < math.inf:
                raise ValueError(f"tol_{name} must be finite and positive")
        if self.basepoint is not None and not cmath.isfinite(self.basepoint):
            raise ValueError("basepoint must be finite")
        for name in ("box_x", "box_t"):
            box = getattr(self, name)
            if box is not None and (len(box) != 4 or not all(map(math.isfinite, box))
                                    or box[0] >= box[1] or box[2] > box[3]):
                raise ValueError(f"{name} must be finite (re_lo, re_hi, im_lo, im_hi)")

    def entry_seed(self, entry_id: str) -> int:
        """Stable per-entry seed so --all fan-out order cannot matter."""
        return (self.seed ^ zlib.crc32(entry_id.encode())) & 0x7FFFFFFF

    def tolerances_json(self) -> dict:
        return {**{name: getattr(self, f"tol_{name}") for name in GATES},
                "frame": FRAME_TOL, "target_param": TARGET_PARAM_TOL}


DEFAULT_CONFIG = Config()
