"""The three benchmark workloads: seeded inputs, one op each, known answers.

Every input is drawn from the ``--seed`` argument alone.  Every op is
checked against the catalog's oracles only: the documented verdict (positive
entries pass, the negative control and off-manifold parameters fail), the
documented classical target and the documented closed-form tau.

A workload is a list of *groups*; the timed loop runs a fixed number of whole
groups, so every run has the same mix of entries, families and magnitudes
and, at one seed, the same ops.

* ``catalog-verify``  one op is ``verify.full_report(id, Config(seed=s))`` on
  the 9 shipped entries in catalog order; a group is one pass over the
  catalog with its own probe seed ``s``, drawn from ``--seed``.
* ``param-sweep``     one op is ``cli.main(["verify", id, "--param",
  "name=p/q", "--json"])``; a group is one value in each of 12 signed
  unit-width value strata x 6 families (5 free one-parameter families plus the
  off-manifold ``PII.y0 theta``), in an order drawn from the seed.  The values
  are fixed (the integers in one group, the half-integers in the other), so
  every run meets the same known failures whatever its seed.
* ``coeff-grid``      one op is ``verify.prepare(entry)`` followed by
  ``tau_at`` and ``coefficients_at`` on a 32 x 128 lattice of (x, t) inside
  the entry's probe boxes, Latin-hypercube stratified; a group is one pass
  over the 8 positive entries.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("catalog-verify", "param-sweep", "coeff-grid")

# --- param-sweep grid ------------------------------------------------------

FREE_FAMILIES = (
    ("PIII.y1", "theta_inf"),
    ("PV.y_lin", "theta1"),
    ("PV.y_m1", "theta_inf"),
    ("PVdeg.kitaev_sqrt", "kappa"),
    ("PVdeg.kitaev_sqrt", "mu"),
)
# y = 0 solves PII only at theta = 1/2; every other theta must be rejected.
OFF_MANIFOLD = ("PII.y0", "theta")
ON_MANIFOLD_THETA = Fraction(1, 2)
# The only values the catalog itself rejects, with a documented ValueError.
REJECTED_VALUES = {("PV.y_lin", "theta1"): {Fraction(1)}}

MAX_ABS = 6
# One group per offset: the value lo + offset for each unit stratum
# [lo, lo + 1), lo = -MAX_ABS .. MAX_ABS - 1.  A value the family rejects is
# replaced by lo + SWEEP_FALLBACK.  The grid holds every failing value the
# pipeline is known for (see README.md), and op cost depends strongly on the
# value (PV.y_m1 takes 70 ms at theta_inf = 1 and 1.1 s at -6), so a fixed
# grid keeps both the failure count and the cost mix the same in every run.
SWEEP_OFFSETS = (Fraction(0), Fraction(1, 2))
SWEEP_FALLBACK = Fraction(1, 3)
# The warm-up op is the same at every seed, so set-up time is too.
SWEEP_WARMUP = ("PIII.y1", "theta_inf", Fraction(1))

# --- timed run length ------------------------------------------------------

# Op time of one group at the reference speed (run.py), measured when the
# benchmark was defined; it fixes how many groups a timed run holds.
CATALOG_GROUP_S = 1.25
SWEEP_GROUP_S = 13.0
GRID_GROUP_S = 0.85

# --- catalog-verify probe seeds ---------------------------------------------

# The probe seed changes the t-independence draws and with them an entry's
# cost by up to 30%; a fresh seed per group averages that out within a run.
CATALOG_ROUNDS = 256

# --- coeff-grid lattice ----------------------------------------------------

GRID_X_COLUMNS = 32
GRID_T_ROWS = 128

# Gates of the verification report in pipeline order: (stage, field,
# tolerance key).  Used to name the stage that failed a report.
_GATES = (
    ("flow", "flow_max", "flow"),
    ("frobenius", "frobenius_max", "frobenius"),
    ("t-independence", "t_independence_max", "independence"),
    ("match", "match_residual", "match"),
    ("cross-validation", "cross_validation_residual", "crossval"),
)
# full_report gates the tau frame fit at this residual.
_FRAME_TOL = 1e-9
# Tau rows agree with the documented closed form to the frame-fit gate.
TAU_ROW_TOL = 1e-9

# Stage of a report -> the traced function whose exception it records.
STAGE_SPANS = {
    "flow": "catalog.flow_residual",
    "frobenius": "scalarize.frobenius_residual_grid",
    "reduction": "verify.prepare",
    "t-independence": "verify.check_t_independence",
    "match": "verify.match_classical",
    "cross-validation": "verify.cross_validate",
}


@dataclass
class Failure:
    """One op whose outcome disagrees with the catalog's known answer.

    ``wrong_answer`` marks outcomes that are wrong rather than missing: a
    pass where the catalog says fail, a disagreeing target or tau row, or any
    failure on the catalog's own default entries."""

    stage: str
    detail: str
    wrong_answer: bool
    exception: str | None = None


def _target_from_json(doc, target_cls):
    params = {k: complex(v["re"], v["im"]) for k, v in doc.items() if k != "kind"}
    return target_cls(doc["kind"], **params)


def _report_failure(doc: dict, must_pass: bool, target_cls) -> Failure | None:
    """Compare a verification report (its JSON form) with the known verdict
    and, for a pass, the documented target."""
    if not must_pass:
        if doc["passed"]:
            return Failure("verdict", "passed where the catalog says fail", True)
        return None
    if doc["passed"]:
        match = _target_from_json(doc["match"], target_cls)
        expected = _target_from_json(doc["expected_target"], target_cls)
        if not match.agrees_with(expected, tol=doc["tolerances"]["target_param"]):
            return Failure("match", f"matched {doc['match']} but the catalog "
                                    f"documents {doc['expected_target']}", True)
        return None
    if doc["errors"]:
        stage, _, msg = doc["errors"][0].partition(": ")
        return Failure(stage, msg, False)
    tols = doc["tolerances"]
    for stage, key, tol_key in _GATES[:2]:
        if doc[key] is not None and doc[key] > tols[tol_key]:
            return Failure(stage, f"{key} {doc[key]:.3g} > {tols[tol_key]:g}", False)
    if doc["frame_residual"] is not None and doc["frame_residual"] > _FRAME_TOL:
        return Failure("reduction", f"frame_residual {doc['frame_residual']:.3g} "
                                    f"> {_FRAME_TOL:g}", False)
    for stage, key, tol_key in _GATES[2:]:
        if doc[key] is not None and doc[key] > tols[tol_key]:
            return Failure(stage, f"{key} {doc[key]:.3g} > {tols[tol_key]:g}", False)
    return Failure("match", "matched target disagrees with the catalog", False)


# ---------------------------------------------------------------------------
# Ops

class CatalogVerifyOp:
    def __init__(self, fr, entry_id: str, config):
        self.fr = fr
        self.entry_id = entry_id
        self.config = config

    def label(self) -> dict:
        return {"entry": self.entry_id}

    def run(self):
        return self.fr.verify.full_report(self.entry_id, self.config)

    def check(self, rep) -> Failure | None:
        must_pass = self.entry_id in self.fr.catalog.list_entries()
        failure = _report_failure(rep.to_json(), must_pass, self.fr.ClassicalTarget)
        if failure is not None:
            # Default entries are the catalog's documented guarantees.
            failure.wrong_answer = True
        return failure


class ParamSweepOp:
    def __init__(self, fr, entry_id: str, name: str, value: Fraction):
        self.fr = fr
        self.entry_id = entry_id
        self.name = name
        self.value = value
        self.must_pass = (entry_id, name) != OFF_MANIFOLD

    def label(self) -> dict:
        return {"entry": self.entry_id, "params": {self.name: str(self.value)}}

    def argv(self) -> list[str]:
        return ["verify", self.entry_id, "--param", f"{self.name}={self.value}", "--json"]

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        code = self.fr.cli.main(self.argv(), out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def check(self, result) -> Failure | None:
        code, out, err = result
        if code == 2 or not out:
            return Failure("cli", f"exit {code}: {err.strip()}", False)
        doc = json.loads(out)[0]
        failure = _report_failure(doc, self.must_pass, self.fr.ClassicalTarget)
        expected_code = 0 if self.must_pass else 1
        if failure is None and code != expected_code:
            return Failure("cli", f"exit {code}, expected {expected_code}", True)
        return failure


class CoeffGridOp:
    def __init__(self, fr, entry_id: str, xs: list[complex], ts: list[complex]):
        self.fr = fr
        self.entry_id = entry_id
        self.xs = xs
        self.ts = ts
        self._oracle: np.ndarray | None = None

    def label(self) -> dict:
        return {"entry": self.entry_id}

    def lattice_doc(self) -> dict:
        return {"x": [[z.real, z.imag] for z in self.xs],
                "t": [[z.real, z.imag] for z in self.ts]}

    def run(self):
        entry = self.fr.catalog.lookup(self.entry_id)
        prep = self.fr.verify.prepare(entry)
        red = prep.red
        rows = []
        for x in self.xs:
            for t in self.ts:
                tau = red.tau_at(x, t)
                P, Q = red.coefficients_at(x, t)
                rows.append((tau, P, Q))
        return prep, rows

    def prepare_oracle(self) -> None:
        """Evaluate the documented closed-form tau on the lattice by tree
        walking (not the compiled path the op measures).  Called once,
        before any measurement."""
        entry = self.fr.catalog.lookup(self.entry_id)
        cf = entry.reduction_closed_forms["tau"]
        evaluate = self.fr.expr.evaluate
        self._oracle = np.array([evaluate(cf, entry.binding(x=x, t=t))
                                 for x in self.xs for t in self.ts])

    def check(self, result) -> Failure | None:
        prep, rows = result
        taus = np.fromiter((r[0] for r in rows), dtype=complex, count=len(rows))
        paper = prep.frame_a * taus + prep.frame_b
        err = np.abs(paper - self._oracle) / (1 + np.abs(self._oracle))
        worst = int(np.argmax(err))
        if not err[worst] <= TAU_ROW_TOL:
            x = self.xs[worst // len(self.ts)]
            t = self.ts[worst % len(self.ts)]
            return Failure("tau-row", f"tau row at x={x:.6g}, t={t:.6g} off by "
                                      f"{err[worst]:.3g} > {TAU_ROW_TOL:g}", True)
        return None


# ---------------------------------------------------------------------------
# Inputs

@dataclass
class Workload:
    name: str
    groups: list[list]          # whole groups run back to back, cycling
    traced_groups: int          # groups in the fixed list of a traced run
    group_seconds: float        # op time of one group at the reference speed
    warmup: object              # untimed op run once before any timing

    def timed_groups(self, seconds: float) -> int:
        """Groups in a timed run: as many as fill ``seconds`` at the
        reference speed when the benchmark was defined.  A fixed count, not
        a deadline, so every run at one seed attempts the same ops."""
        return max(1, round(seconds / self.group_seconds))

    def fixed_ops(self) -> list:
        ops = []
        for k in range(self.traced_groups):
            ops.extend(self.groups[k % len(self.groups)])
        return ops


def _rng(seed: int) -> np.random.Generator:
    # Any integer seed is accepted; negative ones wrap to 64 bits.
    return np.random.default_rng(seed & (2**64 - 1))


def sweep_grid(seed: int) -> list[list[tuple[str, str, Fraction]]]:
    """The fixed sweep values, one group per offset, each group in an order
    drawn from the seed."""
    rng = _rng(seed)
    families = (*FREE_FAMILIES, OFF_MANIFOLD)
    groups = []
    for offset in SWEEP_OFFSETS:
        draws = []
        for lo in range(-MAX_ABS, MAX_ABS):
            for fam in families:
                excluded = set(REJECTED_VALUES.get(fam, ()))
                if fam == OFF_MANIFOLD:
                    excluded.add(ON_MANIFOLD_THETA)
                value = lo + offset
                if value in excluded:
                    value = lo + SWEEP_FALLBACK
                draws.append((*fam, value))
        groups.append([draws[k] for k in rng.permutation(len(draws))])
    return groups


def _latin_hypercube(box, n: int, rng) -> list[complex]:
    """n points in a ComplexRect, one in each of n strips of the real and
    of the imaginary range, so each lattice covers its box evenly."""
    re = (np.arange(n) + rng.random(n)) / n
    im = (rng.permutation(n) + rng.random(n)) / n
    return [complex(box.re_lo + (box.re_hi - box.re_lo) * a,
                    box.im_lo + (box.im_hi - box.im_lo) * b) for a, b in zip(re, im)]


def build(name: str, fr, seed: int) -> Workload:
    if name == "catalog-verify":
        rng = _rng(seed)
        ids = [*fr.catalog.list_entries(), *fr.catalog.list_negative_entries()]
        groups = []
        for probe_seed in rng.integers(2**31, size=CATALOG_ROUNDS):
            config = fr.Config(seed=int(probe_seed))
            groups.append([CatalogVerifyOp(fr, i, config) for i in ids])
        return Workload(name, groups, traced_groups=2, group_seconds=CATALOG_GROUP_S,
                        warmup=CatalogVerifyOp(fr, ids[0], fr.Config()))
    if name == "param-sweep":
        groups = [[ParamSweepOp(fr, *draw) for draw in rnd] for rnd in sweep_grid(seed)]
        return Workload(name, groups, traced_groups=1, group_seconds=SWEEP_GROUP_S,
                        warmup=ParamSweepOp(fr, *SWEEP_WARMUP))
    if name == "coeff-grid":
        rng = _rng(seed)
        group = []
        for entry_id in fr.catalog.list_entries():
            entry = fr.catalog.lookup(entry_id)
            xs = _latin_hypercube(entry.box_x, GRID_X_COLUMNS, rng)
            ts = _latin_hypercube(entry.box_t, GRID_T_ROWS, rng)
            group.append(CoeffGridOp(fr, entry_id, xs, ts))
        return Workload(name, [group], traced_groups=2, group_seconds=GRID_GROUP_S,
                        warmup=group[0])
    raise ValueError(f"unknown workload {name!r}")


def inputs_doc(workload: Workload, ops_run: int) -> dict:
    """The drawn inputs of the ops a run attempted."""
    if workload.name == "catalog-verify":
        groups = -(-ops_run // len(workload.groups[0]))
        return {"entries": [op.entry_id for op in workload.groups[0]],
                "probe_seeds": [g[0].config.seed for g in workload.groups[:groups]]}
    if workload.name == "coeff-grid":
        return {"lattice": {op.entry_id: op.lattice_doc() for op in workload.groups[0]}}
    flat = [op for group in workload.groups for op in group]
    return {"draws": [[op.entry_id, op.name, str(op.value)]
                      for op in (flat[k % len(flat)] for k in range(ops_run))]}
