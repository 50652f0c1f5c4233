"""Run configuration shared by the verification pipeline and the CLI.

Tolerances are engineering choices surfaced here; none are prescribed by
the underlying theory.  The seed makes every randomized probe draw, and
therefore every report and CSV byte, reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

# full_report gates the least-squares fit of the documented tau frame at
# this residual; it is reported with the tolerances but not configurable.
FRAME_TOL = 1e-9


@dataclass(frozen=True)
class Config:
    tol_frobenius: float = 1e-10
    tol_flow: float = 1e-10
    tol_independence: float = 1e-8
    tol_match: float = 1e-8
    tol_crossval: float = 1e-6
    target_param_tol: float = 1e-6

    frobenius_grid: int = 5
    flow_probes: int = 16
    independence_pairs: int = 32
    trace_points: int = 201
    sample_count: int = 64

    seed: int = 42
    output: str = "text"          # "text" | "json"
    basepoint: complex | None = None
    # probe-box overrides as (re_lo, re_hi, im_lo, im_hi)
    box_x: tuple[float, float, float, float] | None = None
    box_t: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        for name in ("tol_frobenius", "tol_flow", "tol_independence",
                     "tol_match", "tol_crossval", "target_param_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # A zero count would leave a stage that measures nothing: no flow
        # probe or Frobenius point to maximize over, or no tau-matched pair
        # (a t-independence maximum of 0.0 that passes its gate).
        for name in ("frobenius_grid", "flow_probes", "independence_pairs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.sample_count < 0:
            raise ValueError("sample_count must be non-negative")
        if self.output not in ("text", "json"):
            raise ValueError("output must be 'text' or 'json'")
        for name in ("box_x", "box_t"):
            box = getattr(self, name)
            if box is not None and (len(box) != 4 or box[0] >= box[1] or box[2] > box[3]):
                raise ValueError(f"{name} must be (re_lo, re_hi, im_lo, im_hi)")

    def entry_seed(self, entry_id: str) -> int:
        """Stable per-entry seed so --all fan-out order cannot matter."""
        return (self.seed ^ zlib.crc32(entry_id.encode())) & 0x7FFFFFFF

    def tolerances_json(self) -> dict:
        return {
            "frobenius": self.tol_frobenius,
            "flow": self.tol_flow,
            "independence": self.tol_independence,
            "match": self.tol_match,
            "crossval": self.tol_crossval,
            "frame": FRAME_TOL,
            "target_param": self.target_param_tol,
        }


DEFAULT_CONFIG = Config()
