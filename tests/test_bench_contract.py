"""What the benchmark under ``bench/`` uses of the package.

The bench traces by replacing the module and class attributes that
``bench/tracing.py`` lists in ``LAYER_FUNCTIONS``, and its ops call the
package through ``bench/workloads.py``.  Both files are loaded here by
path, as the bench worker loads them, so a deleted or renamed function
fails here rather than in a benchmark run.  There it would raise
``KeyError`` in ``Tracer.installed``, which the worker enters for every
failed param-sweep op, and end the run.
"""

import dataclasses
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fuchsreduce
from fuchsreduce import catalog, verify
from fuchsreduce.config import Config
from fuchsreduce.targets import ClassicalTarget

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: dataclasses look their module up while it loads.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestBenchHookPoints:
    """The bench traces by replacing module and class attributes; a
    function that stops being one blinds its per-layer counters."""

    def test_layer_functions_are_owner_attributes(self):
        tracing = _load_bench("tracing")
        for _, owner_path, fn_name in tracing.LAYER_FUNCTIONS:
            owner = fuchsreduce
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            assert callable(owner.__dict__.get(fn_name)), f"{owner_path}.{fn_name}"

    def test_tracer_sees_the_derivation_of_a_fresh_entry(self, monkeypatch):
        # Two reports on one fresh entry, served as the entry by lookup.
        tracing = _load_bench("tracing")
        entry = catalog.lookup("PIII.y1", {"theta_inf": Fraction(9, 2)})
        monkeypatch.setattr(catalog, "lookup", lambda *_: entry)
        tracers = [tracing.Tracer(), tracing.Tracer()]
        for tracer in tracers:
            with tracer.installed(fuchsreduce):
                rep = verify.full_report("PIII.y1")
            assert rep.passed, rep.errors
        first, second = (tracer.call_counts() for tracer in tracers)
        for name in ("scalarize.scalar_coefficients", "reduction.decompose",
                     "reduction.build_reduced", "verify.prepare"):
            assert first[name] >= 1, name
        # Every kernel a report calls runs its tape: neither report reaches
        # the traced compile_expr.
        assert first["expr.compile_expr"] == second["expr.compile_expr"] == 0


@pytest.mark.parametrize("name", ("catalog-verify", "param-sweep", "coeff-grid"))
def test_warmup_op_runs_and_checks_under_the_tracer(name):
    # Each workload's warm-up op reaches what its ops read of the package
    # (for coeff-grid: CatalogEntry.binding and Prepared.frame_a, frame_b
    # and red), run as the worker runs a failed op: under the tracer.
    workloads = _load_bench("workloads")
    workload = workloads.build(name, fuchsreduce, seed=1)
    op = workload.warmup
    if isinstance(op, workloads.CoeffGridOp):
        op.prepare_oracle()
    with _load_bench("tracing").Tracer().installed(fuchsreduce):
        assert op.check(op.run()) is None


def _variants(rep):
    """The report and copies of it that break its verdict one way each."""
    yield rep
    for name, key in verify._GATES:
        if getattr(rep, name) is not None:
            yield dataclasses.replace(rep, **{name: 2 * rep.tolerances[key]})
            yield dataclasses.replace(rep, **{name: float("nan")})
    yield dataclasses.replace(rep, errors=[*rep.errors, "flow: injected"])
    if rep.match is not None:
        yield dataclasses.replace(rep, match=ClassicalTarget.none())


@pytest.mark.parametrize("seed", (42, 7))
def test_bench_reads_the_verdict_the_report_records(seed):
    # The bench decides a failed op from the report's JSON alone
    # (workloads._report_failure).  A report whose recorded values say fail
    # must say so in "passed" too.
    workloads = _load_bench("workloads")
    reports = [verify.full_report(i, Config(seed=seed))
               for i in (*catalog.list_entries(), *catalog.list_negative_entries())]
    docs = [v.to_json() for rep in reports for v in _variants(rep)]
    assert len(docs) == 133
    for doc in docs:
        got = workloads._report_failure(doc, True, ClassicalTarget)
        assert (got is None) == doc["passed"], (doc["entry"], got)
