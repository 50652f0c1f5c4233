"""Time the expression kernels, ``differentiate``, ``decompose``, the E/S
panel walks and a report.

The DAGs are, for each of the 8 positive catalog entries at their default
parameters, the three expressions (phi, p_num, q_num) of the kernel of the
reduced coefficients (``reduction.Decomposition._coeff_array``).  Each
reading is the time to do one thing for all 8 entries, taken ``REPEAT``
times; the minimum is the reading, the median and maximum show its spread:

* ``array``: one run of the coefficient kernel's rows (as the array form
  of ``expr.Kernel`` runs them) at 201 joint probes of the entry's boxes
  (x on the x box's diagonal, t on the t box's, run in opposite directions);
* ``tape: build``: the coefficient kernel's tape numbered from its DAGs
  (a new ``expr.Kernel`` of its roots);
* ``tape: jets``: first-order jets of that kernel (``expr._jets``) at the
  24 probes of ``Decomposition.invariance``;
* ``tape: bind``: the binds a fresh entry makes on that kernel
  (``expr.Kernel._bind``, which picks the lines some of its roots read and
  fuses them): of its suffix views from its fourth and fifth roots, (G, h,
  f) and (h, f), and of its own outputs (phi, p_num, q_num);
* ``differentiate (x, t)``: the derivatives of the three DAGs in x and in
  t, one call per DAG;
* ``differentiate (root sets)``: the derivatives a fresh entry takes of
  several expressions in one variable: (f, h, G) in x and, for an entry
  with a Lax pair, (a12, a11) in x, as scalarizing its first component
  takes them; one call per set;
* ``decompose (fresh entries)``: ``reduction.decompose`` of the scalar
  pair of a fresh entry per free family of the bench's param-sweep
  workload, at its default value of the parameter plus n/4096 (as in
  ``fresh report``, on a counter of its own); the entries and the scalar
  pairs they reduce through (``entry.decomposition.sp``, so once
  decomposed) are built outside the timed part;
* ``walk``: E and S (``ReducedEquation._ES``) at 32 x on the diagonal of
  the entry's x box, one panel walk per x from the basepoint, on a fresh
  reduced equation (so no memo hit) whose (h, f) kernel has run before;
* ``lattice (32 x 128)``: the op of the bench's coeff-grid workload, in
  process: ``verify.prepare`` of the entry, then ``tau_at`` and
  ``coefficients_at`` at each point of a 32 x 128 lattice of (x, t) in
  its boxes (Latin-hypercube strata, as the workload draws them, from one
  fixed seed), x by x.  The tool also prints, per stage (pre_x, pre_t,
  post) of each coefficient kernel's compiled form, its statements (the
  assignments, as a line read once inside its stage runs inside its
  reader) and its operations (the kernel's fused lines that stage runs);
* ``batch: flow`` and ``batch: Frobenius``: the calls of the two entry
  checks a report makes, on kernels that have run before: the flow
  kernel's array form at the 16 t of ``entry.box_t.diagonal(16)``, for the
  9 entries with the negative control, and
  ``scalarize.frobenius_residual_grid`` on the 25-point grid
  (``entry.grid_points()``) of the system of each of the 8 entries (its
  Lax pair, or the companion system of its direct scalar pair);
  ``point: flow`` is the same values from the compiled code of the flow
  kernel (``expr.compile_expr``), one staged call per point (the form the
  flow stage called before it ran the array form), and ``point:
  Frobenius`` the same readings from one ``frobenius_residual_grid`` call
  per point;
* ``second report``: one ``verify.full_report`` per entry on a fresh copy
  of the entry (overrides equal to its defaults) that has made exactly one
  report, at another seed: a report that meets each kernel for the second
  time (the slow tail of the bench's catalog-verify workload, while a
  second report compiled its flow kernel);
* ``fresh report``: one ``verify.full_report`` per free family of the
  bench's param-sweep workload (``bench/workloads.py``), at its entry's
  default value of the parameter plus n/4096, n counting up from 1 over
  the rounds, so no round meets a value an earlier one built: the op of
  the param-sweep workload, in process and without the CLI.  The tool
  also prints the kernels such a report numbers (``expr.Kernel.__init__``;
  a view numbers nothing), the lines of those its Frobenius stage
  (``scalarize.frobenius_residual_grid``) numbers, and the binds it makes
  (``expr.Kernel._bind``, one per kernel and one per view), over one
  untimed round;
* ``report``: one ``verify.full_report`` per entry at a seed no earlier
  run used, on entries that have made two reports, so every stage that
  runs once per entry reads its record and every kernel a report calls
  has run before (the op of the bench's catalog-verify workload, without
  the negative entry);
* ``report: flow``, ``report: t-independence`` and ``report: match``: the
  time a further round of such reports spends in the function of each
  stage that depends on the seed (``catalog.flow_residual``,
  ``verify.check_t_independence`` and ``verify.match_classical``), taken
  by wrapping each for that round only, so a change can be traced to its
  stage.  What a report does around them (its draws, the map to the paper
  frame, the records) is in ``report`` alone.

Run it from any directory, on a checkout whose ``expr.Kernel`` numbers its
own DAG and whose ``differentiate`` takes a tuple of roots:

    python tools/expr_timing.py                      # this checkout
    python tools/expr_timing.py --root ../other      # another checkout
    python tools/expr_timing.py --against ../parent  # this one against another

``--against`` runs the tool on both checkouts in ``PAIRS`` pairs of child
interpreters, the other checkout first in the first pair and each later
pair in the other order, so a slow spell of the machine touches both sides
and an effect of running first or second does not read as a change.  Per
reading it prints the median over the children of each checkout's
minimum, and the median and range over the pairs of the change, this
checkout's minimum over the other's: a change that every pair shows,
beyond the range, is resolved.  ``--json`` prints
one run's readings as one JSON object, which is what the children print.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WALK_POINTS = 32
LATTICE = (32, 128)
ARRAY_POINTS = 201
REPEAT = 30
# The pairs of child runs of --against.
PAIRS = 3
# The seed of the first timed report; each later one takes the next.
REPORT_SEED = 1000
# A fresh report's parameter is its default plus a multiple of this step.
FRESH_STEP = Fraction(1, 4096)


def stage_counts(staged, tape) -> list[tuple[int, int]]:
    """Per stage of a compiled form (pre_x, pre_t, post), its statements
    and its operations: the locals of each but its arguments (the values
    ``post`` unpacks from the other two count in theirs alone), and the
    fused lines of ``tape``, the kernel (or tape) it was compiled from,
    whose stage it is (by the line's mask: x, t, or both)."""
    pre_x, pre_t, post = (stage.__code__ for stage in staged)
    xs, ts = (set(code.co_varnames[1:code.co_nlocals]) for code in (pre_x, pre_t))
    statements = len(xs), len(ts), len(set(post.co_varnames[4:post.co_nlocals]) - xs - ts)
    masks = [line[5] for line in tape.fused]
    return [(n, masks.count(mask)) for n, mask in zip(statements, (1, 2, 3))]


def readings() -> tuple[int, tuple[float, float, float], dict[str, list[tuple[int, int]]],
                        dict[str, list[float]]]:
    """The number of distinct DAG nodes, the kernels numbered, the binds
    made and the lines the Frobenius stage numbers per fresh report, the
    statements and operations of each coefficient kernel's compiled
    stages (:func:`stage_counts`), and per reading its times in ms.  A job
    returns None, and is timed whole, or the ms of its timed part."""
    from fuchsreduce import catalog, reduction, scalarize, verify
    from fuchsreduce import expr as fe
    from fuchsreduce.config import Config
    from workloads import FREE_FAMILIES, _latin_hypercube

    cases = []
    walks = []
    jet_cases = []
    root_sets = []
    for entry_id in catalog.list_entries():
        entry = catalog.lookup(entry_id)
        dec = entry.decomposition
        # G, the gauge exponent, is the coefficient kernel's fourth root.
        root_sets.append(((dec.f, dec.h, dec._coeff_array.exprs[3]), "x"))
        if entry.lax is not None:
            (a11, a12), _ = entry.lax.a
            root_sets.append(((a12, a11), "x"))
        dags = dec._coeff_array.expr
        cases.append((dags, np.array(entry.box_x.diagonal(ARRAY_POINTS)),
                      np.array(entry.box_t.diagonal(ARRAY_POINTS)[::-1])))
        walks.append((dec, entry.basepoint_x, entry.box_x.diagonal(WALK_POINTS)))
        n = reduction._INVARIANCE_PROBES
        jet_cases.append((dec._coeff_array.exprs, dec._coeff_array,
                          np.array(dec.box_x.diagonal(n)),
                          np.array(dec.box_t.diagonal(n)[::-1])))
    nodes = sum(fe._tree_sizes(e)[1] for dags, *_ in cases for e in dags)
    rng = np.random.default_rng(1)
    lattices = []
    for entry_id in catalog.list_entries():
        entry = catalog.lookup(entry_id)
        lattices.append((entry, _latin_hypercube(entry.box_x, LATTICE[0], rng),
                         _latin_hypercube(entry.box_t, LATTICE[1], rng)))
    counts = {entry.id: stage_counts(entry.decomposition._coeff_stages,
                                     entry.decomposition._coeff_array)
              for entry, *_ in lattices}
    # Two reports per entry, so every kernel a report calls has run (and,
    # in a checkout whose flow kernel walks and then compiles, compiled).
    for seed in (1, 2):
        for entry_id in catalog.list_entries():
            verify.full_report(entry_id, Config(seed=seed))
    seeds = itertools.count(REPORT_SEED)
    flows = []
    for entry_id in (*catalog.list_entries(), *catalog.list_negative_entries()):
        entry = catalog.lookup(entry_id)
        ts = entry.box_t.diagonal(16)
        flows.append((entry.flow_fns, np.zeros(16, dtype=complex), np.array(ts)))
    grids = []
    for entry_id in catalog.list_entries():
        entry = catalog.lookup(entry_id)
        grids.append((entry.lax or entry.scalar.system, entry.grid_points()))

    def batch(calls):
        def run():
            for kernel, xs, ts in calls:
                kernel(xs, ts)
        return run

    def point(calls):
        staged = [(fe.compile_expr(kernel), xs.tolist(), ts.tolist())
                  for kernel, xs, ts in calls]

        def run():
            for (pre_x, pre_t, post), xs, ts in staged:
                for x, t in zip(xs, ts):
                    post(x, t, pre_x(x), pre_t(t))
        return run

    def frobenius(per_point):
        def run():
            for system, grid in grids:
                for points in ([p] for p in grid) if per_point else (grid,):
                    scalarize.frobenius_residual_grid(system, points)
        return run

    def walk_array():
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for (_, xa, ta), (_, tape, _, _) in zip(cases, jet_cases):
                list(tape.values(tape.x_values(xa), ta))

    def build_tapes():
        for roots, *_ in jet_cases:
            fe.Kernel(roots, 3)

    def jets():
        for roots, tape, xs, ts in jet_cases:
            fe._jets(tape, xs, ts)

    def bind():
        for _, tape, _, _ in jet_cases:
            roots = tape.roots
            # The views of (G, h, f) and of (h, f), then the kernel's own
            # outputs again, which leaves it as it was.
            for outputs in (roots[3:], roots[4:], roots[:3]):
                tape._bind(outputs)

    def derive():
        for dags, *_ in cases:
            for e in dags:
                fe.differentiate(e, "x")
                fe.differentiate(e, "t")

    def derive_sets():
        for roots, var in root_sets:
            fe.differentiate(roots, var)

    fresh_values, decompose_values = itertools.count(1), itertools.count(1)
    defaults = [(entry_id, name, catalog.lookup(entry_id).params_exact[name])
                for entry_id, name in FREE_FAMILIES]

    def decompose_fresh() -> float:
        """``decompose`` on a fresh entry per free family; the ms of the
        decompose calls alone."""
        step, elapsed = next(decompose_values) * FRESH_STEP, 0
        for entry_id, name, default in defaults:
            entry = catalog.lookup(entry_id, {name: default + step})
            sp = entry.decomposition.sp
            start = time.perf_counter_ns()
            reduction.decompose(sp, entry.box_x, entry.box_t)
            elapsed += time.perf_counter_ns() - start
        return elapsed / 1e6

    def fresh_report():
        step = next(fresh_values) * FRESH_STEP
        for entry_id, name, default in defaults:
            verify.full_report(entry_id, Config(seed=1), overrides={name: default + step})

    def walk_es():
        for dec, x0, xs in walks:
            red = reduction.build_reduced(dec, x0)
            for x in xs:
                red._ES(x)

    def lattice():
        for entry, xs, ts in lattices:
            red = verify.prepare(entry).red
            for x in xs:
                for t in ts:
                    red.tau_at(x, t)
                    red.coefficients_at(x, t)

    def report():
        seed = next(seeds)
        for entry_id in catalog.list_entries():
            verify.full_report(entry_id, Config(seed=seed))

    def second_report() -> float:
        """Two reports on fresh copies of the entries, each served as its
        entry by lookup; the ms of the second."""
        fresh = [catalog.lookup(entry_id, dict(catalog.lookup(entry_id).params_exact))
                 for entry_id in catalog.list_entries()]
        lookup, elapsed = catalog.lookup, 0
        try:
            for timed in (False, True):
                seed = next(seeds)
                for entry in fresh:
                    catalog.lookup = lambda *_: entry
                    start = time.perf_counter_ns()
                    verify.full_report(entry.id, Config(seed=seed))
                    if timed:
                        elapsed += time.perf_counter_ns() - start
        finally:
            catalog.lookup = lookup
        return elapsed / 1e6

    stages = {"report: flow": (catalog, "flow_residual"),
              "report: t-independence": (verify, "check_t_independence"),
              "report: match": (verify, "match_classical")}
    stage_ms = dict.fromkeys(stages, 0.0)

    def timed(name, fn):
        def run(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                stage_ms[name] += (time.perf_counter_ns() - start) / 1e6
        return run

    def report_stages():
        """One ``report()`` round with each stage's function wrapped."""
        stage_ms.update(dict.fromkeys(stages, 0.0))
        originals = [getattr(module, attr) for module, attr in stages.values()]
        for (name, (module, attr)), fn in zip(stages.items(), originals):
            setattr(module, attr, timed(name, fn))
        try:
            report()
        finally:
            for (module, attr), fn in zip(stages.values(), originals):
                setattr(module, attr, fn)

    jobs = {f"array ({ARRAY_POINTS} points)": walk_array,
            "tape: build": build_tapes,
            f"tape: jets ({reduction._INVARIANCE_PROBES} points)": jets,
            "tape: bind": bind,
            "differentiate (x, t)": derive,
            "differentiate (root sets)": derive_sets,
            "decompose (fresh entries)": decompose_fresh,
            f"walk (x{WALK_POINTS})": walk_es,
            f"lattice ({LATTICE[0]} x {LATTICE[1]})": lattice,
            f"batch: flow ({len(flows)} x 16 t)": batch(flows),
            f"point: flow ({len(flows)} x 16 t)": point(flows),
            f"batch: Frobenius ({len(grids)} x 25 points)": frobenius(False),
            f"point: Frobenius ({len(grids)} x 25 points)": frobenius(True),
            "fresh report": fresh_report,
            "report (warm)": report,
            "second report": second_report}
    times: dict[str, list[float]] = {name: [] for name in (*jobs, *stages)}
    # One round of fresh reports with the numberings of a DAG, the binds of
    # a kernel's outputs and the lines the Frobenius stage numbers counted.
    builds, binds, frobenius_builds = [], [], []
    real_init, real_bind = fe.Kernel.__init__, fe.Kernel._bind
    real_grid = scalarize.frobenius_residual_grid

    def counted_grid(*args):
        start = len(builds)
        try:
            return real_grid(*args)
        finally:
            frobenius_builds.extend(builds[start:])

    fe.Kernel.__init__ = lambda tape, *args: builds.append(tape) or real_init(tape, *args)
    fe.Kernel._bind = lambda tape, outputs: binds.append(tape) or real_bind(tape, outputs)
    scalarize.frobenius_residual_grid = counted_grid
    try:
        fresh_report()
    finally:
        fe.Kernel.__init__, fe.Kernel._bind = real_init, real_bind
        scalarize.frobenius_residual_grid = real_grid
    numbered, bound = len(builds) / len(defaults), len(binds) / len(defaults)
    frobenius_lines = sum(len(tape.lines) for tape in frobenius_builds) / len(defaults)
    for job in (*jobs.values(), report_stages):
        job()   # warm-up
    gc.disable()
    try:
        # Interleaved, so a slow spell of the machine touches every reading.
        for _ in range(REPEAT):
            for name, job in jobs.items():
                start = time.perf_counter_ns()
                ms = job()
                times[name].append((time.perf_counter_ns() - start) / 1e6 if ms is None else ms)
            report_stages()
            for name, ms in stage_ms.items():
                times[name].append(ms)
    finally:
        gc.enable()
    return nodes, (numbered, bound, frobenius_lines), counts, times


def print_counts(counts: dict[str, list[tuple[int, int]]], label: str = "") -> None:
    """The statements and operations per compiled stage, per entry and in
    total."""
    total = [tuple(map(sum, zip(*per_stage))) for per_stage in zip(*counts.values())]
    print(f"compiled coefficient stages{label}, statements/operations (pre_x / pre_t / post):")
    for entry_id, per_stage in [*counts.items(), ("total", total)]:
        print(f"  {entry_id:<18} {' / '.join(f'{n}/{ops}' for n, ops in per_stage)}")


def child(root: Path) -> dict:
    """One run of this tool on ``root`` in a child interpreter, read from
    the JSON object it prints."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--root", str(root),
                          "--json"], check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def compare(root: Path, against: Path) -> None:
    """``PAIRS`` pairs of child runs, ``against`` first in the even ones and
    ``root`` in the odd ones, and per reading the medians of each side and
    the change."""
    runs: dict[Path, list[dict]] = {root: [], against: []}
    for n in range(PAIRS):
        for side in (against, root) if n % 2 == 0 else (root, against):
            runs[side].append(child(side))
    print(f"{root} against {against}: {PAIRS} pairs of child runs, {REPEAT} runs each")
    print_counts(runs[against][0]["counts"], f" of {against.name}")
    print_counts(runs[root][0]["counts"], f" of {root.name}")
    for key, what in (("numbered", "kernels numbered per fresh report"), ("binds", "binds"),
                      ("frobenius_lines", "lines the Frobenius stage numbers")):
        print(f"{what}: {runs[against][0][key]:.2f} of {against.name}, "
              f"{runs[root][0][key]:.2f} of {root.name}")
    times = runs[root][0]["times"]
    width = max(len(name) for name in times)
    print(f"{'reading':<{width}}  {'other ms':>9}  {'this ms':>9}  {'change':>7}  {'pairs':>15}")
    for name in times:
        this, other = ([min(run["times"][name]) for run in runs[side]] for side in (root, against))
        change = [100 * (a / b - 1) for a, b in zip(this, other)]
        print(f"{name:<{width}}  {statistics.median(other):>9.3f}  {statistics.median(this):>9.3f}"
              f"  {statistics.median(change):>+6.1f}%  {min(change):>+6.1f}%..{max(change):>+5.1f}%")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the checkout to time (default: this one)")
    parser.add_argument("--against", type=Path,
                        help="a second checkout: time both in alternating child runs")
    parser.add_argument("--json", action="store_true",
                        help="print the readings as one JSON object")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.against is not None:
        compare(root, args.against.resolve())
        return
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    nodes, (numbered, bound, frobenius_lines), counts, times = readings()
    if args.json:
        print(json.dumps({"nodes": nodes, "numbered": numbered, "binds": bound,
                          "frobenius_lines": frobenius_lines, "counts": counts,
                          "times": times}))
        return
    print(f"{nodes} distinct DAG nodes over the positive entries, {REPEAT} runs each")
    print(f"{numbered:.2f} kernels numbered per fresh report, {bound:.2f} binds, "
          f"{frobenius_lines:.2f} lines numbered by its Frobenius stage")
    print_counts(counts)
    width = max(len(name) for name in times)
    print(f"{'reading':<{width}}  {'min ms':>9}  {'median ms':>9}  {'max ms':>9}")
    for name, ms in times.items():
        print(f"{name:<{width}}  {min(ms):>9.3f}  {statistics.median(ms):>9.3f}  {max(ms):>9.3f}")


if __name__ == "__main__":
    main()
