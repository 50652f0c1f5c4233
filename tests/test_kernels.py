"""Kernels live on the objects they are built from, and a report never
compiles.

A catalog entry owns its scalar pair, its decomposition and their kernels;
a prepare call owns only its memos.  An expression kernel
(``expr.Kernel``) has one batch form, which runs its lines and gives bit
for bit the values of its compiled lines run on the same arrays; a batch
that raises or is not finite is answered by the one-point walk, and
compiled code serves ``coefficients_at`` alone.  Every kernel a report
calls runs in batch form, the flow and Frobenius kernels included, so no
report compiles anything, a fresh entry's or a warm one's; the Frobenius
kernel and the walk matrix (A, dA/dt) share one numbering, the second a
view of the first, as do the kernels of (h, f) and of G.  An override entry takes its kernels with it
when it is collected, and no report depends on what ran before it.
"""

import cmath
import gc
import json
import os
import subprocess
import sys
import threading
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest

import fuchsreduce
from fuchsreduce import catalog, expr as fe, reduction, verify
from fuchsreduce.config import Config
from test_expr import (_compile_text, _n_statements, _single_use_statements, _stage_ops, compiled,
                       frobenius_systems)
from test_bench_contract import _load_bench

ALL_WITH_NEGATIVE = catalog.list_entries() + catalog.list_negative_entries()
FREE_FAMILIES = _load_bench("workloads").FREE_FAMILIES


def _reference_fused(kernel):
    """The fused lines of ``kernel`` by the rule of ``expr.Kernel``'s
    docstring: the lines its outputs read, in order, but for the negs
    read only as an add's negated operand (an add negates its second
    operand if that is a neg, else its first), which run inside those
    adds as ``sub`` lines."""
    line_of = {line[0]: line for line in kernel.lines}
    need, todo = set(), list(kernel.outputs)
    while todo:
        slot = todo.pop()
        if slot in line_of and slot not in need:
            need.add(slot)
            todo += [s for s in line_of[slot][2:4] if s is not None]
    lines = [line for line in kernel.lines if line[0] in need]
    negs = {line[0] for line in lines if line[1] == "neg"}
    stays = set(kernel.outputs)
    for _, kind, a, b, *_ in lines:
        if kind != "add":
            stays.update((a, b))
        elif b in negs:
            stays.add(a)
    fused = []
    for slot, kind, a, b, q, mask in lines:
        if kind == "add" and b in negs - stays:
            fused.append((slot, "sub", a, line_of[b][2], q, mask))
        elif kind == "add" and a in negs - stays:
            fused.append((slot, "sub", b, line_of[a][2], q, mask))
        elif slot not in negs - stays:
            fused.append((slot, kind, a, b, q, mask))
    return fused


class TestKernelLifetime:
    def test_override_entry_is_collected(self, monkeypatch):
        entries = []
        real_lookup = catalog.lookup

        def recording(entry_id, overrides=None):
            entry = real_lookup(entry_id, overrides)
            entries.append((weakref.ref(entry), weakref.ref(entry.lax)))
            return entry

        monkeypatch.setattr(catalog, "lookup", recording)
        rep = verify.full_report("PIII.y1", overrides={"theta_inf": Fraction(7, 2)})
        assert rep.passed, rep.errors
        gc.collect()
        assert entries
        for entry_ref, lax_ref in entries:
            assert entry_ref() is None
            assert lax_ref() is None

    def test_third_report_compiles_nothing(self, monkeypatch):
        # Two reports on every entry, at two seeds, and a third at another:
        # none of them calls compile_expr.
        compiled = []
        real_compile = fe.compile_expr
        monkeypatch.setattr(fe, "compile_expr", lambda kernel: compiled.append(kernel)
                            or real_compile(kernel))
        for seed in (42, 7, 1):
            for entry_id in ALL_WITH_NEGATIVE:
                verify.full_report(entry_id, Config(seed=seed))
        assert compiled == []

    def test_fresh_report_compiles_nothing(self, monkeypatch):
        # A --param report builds a fresh entry.  Its report numbers the
        # kernels it calls: the flow's, the Lax pair's one kernel of the
        # Frobenius residuals, A and dA/dt (the walk matrix on the leg is a
        # view of it) and the decomposition's one kernel of the
        # coefficients, h, f and G, for the t-independence stage's one
        # batch and the invariance jets (the E/S walks and the leg read its
        # views of (h, f) and of G).  It numbers no kernel of A and dA/dt
        # alone, none to scalarize, and compiles nothing.  The other kernels
        # it numbers live for one array call of a decision: decompose's one
        # kernel of (p2, q2, a_off, b_off) and the frame fit's kernel of
        # the documented tau.
        entries, compiled, numbered = [], [], []
        real_lookup, real_compile = catalog.lookup, fe.compile_expr
        real_init = fe.Kernel.__init__

        def recording_lookup(entry_id, overrides=None):
            entries.append(real_lookup(entry_id, overrides))
            return entries[-1]

        def recording_compile(kernel):
            compiled.append(kernel)
            return real_compile(kernel)

        def recording_init(kernel, e, n_out=None):
            real_init(kernel, e, n_out)
            numbered.append(kernel)

        monkeypatch.setattr(catalog, "lookup", recording_lookup)
        monkeypatch.setattr(fe, "compile_expr", recording_compile)
        monkeypatch.setattr(fe.Kernel, "__init__", recording_init)
        rep = verify.full_report("PIII.y1", overrides={"theta_inf": Fraction(5, 2)})
        assert rep.passed, rep.errors
        (entry,) = entries
        dec, lax = entry.decomposition, entry.lax
        assert compiled == []
        kept = [entry.flow_fns, lax.frobenius_fns, dec._coeff_array]
        assert [k for k in numbered if any(k is kk for kk in kept)] == kept
        assert [len(k.outputs) for k in numbered if not any(k is kk for kk in kept)] == [4, 1]
        assert lax.a_dadt_array.lines is lax.frobenius_fns.lines
        assert dec._hf_array.lines is dec._coeff_array.lines
        assert "_coeff_stages" not in dec.__dict__

    @pytest.mark.parametrize("family", FREE_FAMILIES, ids="/".join)
    def test_fresh_report_numbers_five_kernels(self, monkeypatch, family):
        # A fresh report on a family the param-sweep workload varies, at a
        # value no default has, numbers five kernels, one per owner: the
        # flow's, the Frobenius kernel of the entry's system (the Lax pair
        # or the direct pair's companion system), whose view is the leg's
        # walk matrix, decompose's, the frame fit's and the
        # decomposition's.  Scalarizing numbers none.
        entry_id, name = family
        value = catalog.lookup(entry_id).params_exact[name] + Fraction(1, 4096)
        entries, numbered = [], []
        real_lookup, real_init = catalog.lookup, fe.Kernel.__init__

        def recording_lookup(entry_id, overrides=None):
            entries.append(real_lookup(entry_id, overrides))
            return entries[-1]

        def recording_init(kernel, e, n_out=None):
            real_init(kernel, e, n_out)
            numbered.append(kernel)

        monkeypatch.setattr(catalog, "lookup", recording_lookup)
        monkeypatch.setattr(fe.Kernel, "__init__", recording_init)
        rep = verify.full_report(entry_id, Config(seed=1), overrides={name: value})
        assert rep.passed, rep.errors
        (entry,) = entries
        dec = entry.decomposition
        system = entry.lax or entry.scalar.system
        assert dec.sp.system is system
        assert system.a_dadt_array.lines is system.frobenius_fns.lines
        owners = {id(entry.flow_fns): "flow", id(dec._coeff_array): "decomposition",
                  id(system.frobenius_fns): "Frobenius"}

        def owner(kernel):
            if kernel.exprs[0] is dec.sp.p2 and len(kernel.exprs) == 4:
                return "decompose"
            if kernel.exprs == (entry.reduction_closed_forms["tau"],):
                return "frame"
            return owners.get(id(kernel), "other")

        assert sorted(map(owner, numbered)) == sorted(
            ["flow", "Frobenius", "decompose", "frame", "decomposition"])

    def test_second_component_report_numbers_seven_kernels(self, monkeypatch):
        # PII.y_inv_t reduces through its second component: a fresh report
        # numbers decompose's kernel for each component, and the leg walks
        # the swapped system through a Frobenius kernel of its own, which
        # the Lax pair's does not serve.
        entry = catalog.lookup("PII.y_inv_t", dict(catalog.lookup("PII.y_inv_t").params_exact))
        monkeypatch.setattr(catalog, "lookup", lambda *_: entry)
        numbered, real_init = [], fe.Kernel.__init__

        def recording_init(kernel, e, n_out=None):
            real_init(kernel, e, n_out)
            numbered.append(kernel)

        monkeypatch.setattr(fe.Kernel, "__init__", recording_init)
        rep = verify.full_report("PII.y_inv_t", Config(seed=1))
        assert rep.passed, rep.errors
        lax, dec = entry.lax, entry.decomposition
        assert dec.sp.system is lax.swapped
        assert lax.swapped.a_dadt_array.lines is lax.swapped.frobenius_fns.lines
        ids = [id(kernel) for kernel in numbered]
        assert len(ids) == 7
        for kept in (entry.flow_fns, lax.frobenius_fns, lax.swapped.frobenius_fns,
                     dec._coeff_array):
            assert id(kept) in ids

    def test_three_reports_compile_nothing(self, monkeypatch):
        # On a fresh copy of each entry, served as the entry by lookup,
        # three reports call compile_expr zero times: the flow and Frobenius
        # kernels run their array form like every other kernel a report calls.
        compiled = []
        real_compile = fe.compile_expr
        monkeypatch.setattr(fe, "compile_expr", lambda kernel: compiled.append(kernel)
                            or real_compile(kernel))
        real_lookup = catalog.lookup
        for entry_id in ALL_WITH_NEGATIVE:
            entry = real_lookup(entry_id, dict(real_lookup(entry_id).params_exact))
            monkeypatch.setattr(catalog, "lookup", lambda *_: entry)
            for seed in (42, 7, 1):
                verify.full_report(entry_id, Config(seed=seed))
            assert compiled == [], entry_id
            dec, systems = entry.decomposition, entry.decomposition.sp.system
            # Every leg's walk matrix is a view of its system's Frobenius
            # kernel.
            assert systems.a_dadt_array.lines is systems.frobenius_fns.lines
            assert "_coeff_stages" not in dec.__dict__, entry_id

    @pytest.mark.parametrize("entry_id", ALL_WITH_NEGATIVE)
    def test_coefficient_kernel_tiers(self, monkeypatch, entry_id):
        # On a fresh copy of a default entry, served as the entry by
        # lookup: each report calls the coefficient kernel once, on the line
        # x = x0 with its 32 drawn t, and each call runs its one array tier,
        # its rows.  Its x-lines run at x0 once, in the first report's call;
        # no report compiles the kernel.  The three reports are
        # byte-identical.
        entry = catalog.lookup(entry_id, dict(catalog.lookup(entry_id).params_exact))
        monkeypatch.setattr(catalog, "lookup", lambda *_: entry)
        dec = entry.decomposition
        calls, compiled, x_runs = [], [], []
        real_call, real_compile = fe.Kernel.__call__, fe.compile_expr
        real_x_values = fe.Kernel.x_values

        def recording_call(kernel, x, t, held=None):
            if kernel is dec._coeff_array:
                calls.append((np.shape(x), np.shape(t), held is not None))
            return real_call(kernel, x, t, held)

        def recording_x_values(kernel, x):
            if kernel is dec._coeff_array:
                x_runs.append(len(calls))
            return real_x_values(kernel, x)

        def recording_compile(kernel):
            compiled.append(kernel)
            return real_compile(kernel)

        monkeypatch.setattr(fe.Kernel, "__call__", recording_call)
        monkeypatch.setattr(fe.Kernel, "x_values", recording_x_values)
        monkeypatch.setattr(fe, "compile_expr", recording_compile)
        reports = [json.dumps(verify.full_report(entry_id).to_json()) for _ in range(3)]
        assert calls == [((1,), (32,), True)] * 3
        assert x_runs == [1]
        assert dec._coeff_array not in compiled
        assert "_coeff_stages" not in dec.__dict__
        assert len(set(reports)) == 1

    @pytest.mark.parametrize("entry_id", ALL_WITH_NEGATIVE)
    def test_warm_report_walks_and_compiles_nothing(self, monkeypatch, entry_id):
        # On a fresh copy of a default entry, served as the entry by
        # lookup: after two reports, a report at a new seed reads E and S at
        # x0 from the entry's record and runs the x-stage the decomposition
        # holds, so it makes no panel walk and compiles nothing.  It is the
        # report of a fresh entry at that seed.
        params = dict(catalog.lookup(entry_id).params_exact)
        entry = catalog.lookup(entry_id, params)
        monkeypatch.setattr(catalog, "lookup", lambda *_: entry)
        for seed in (42, 7):
            verify.full_report(entry_id, Config(seed=seed))
        walks, compiled = [], []
        real_walk, real_compile = fe._walk_panels, fe.compile_expr
        monkeypatch.setattr(fe, "_walk_panels", lambda *a: walks.append(a[1:3])
                            or real_walk(*a))
        monkeypatch.setattr(fe, "compile_expr", lambda kernel: compiled.append(kernel)
                            or real_compile(kernel))
        warm = json.dumps(verify.full_report(entry_id, Config(seed=1)).to_json())
        assert (walks, compiled) == ([], [])
        monkeypatch.undo()
        fresh = verify.full_report(entry_id, Config(seed=1), overrides=params)
        assert warm == json.dumps(fresh.to_json())

    @pytest.mark.parametrize("config", [Config(box_x=(1.2, 2.4, -0.1, 0.1)),
                                        Config(basepoint=1.7)], ids=["box", "basepoint"])
    def test_box_and_basepoint_reports_walk_their_own_x0(self, monkeypatch, config):
        # A copy on other boxes has its own x0 and record, and a report at
        # another basepoint does not read the entry's record: each report
        # walks from its basepoint to its own x0, and the E and S it uses
        # are those of a fresh reduced equation there.
        entry = catalog.lookup("PIII.y1")
        verify.full_report("PIII.y1")
        record = dict(entry.certified)
        copy = entry.with_boxes(config)
        x0 = copy.box_x.center
        basepoint = 1.7 if config.basepoint is not None else entry.basepoint_x
        walks, used = [], []
        real_walk = fe._walk_panels
        coefficients = reduction.ReducedEquation.coefficients_at_x0

        def recording_walk(*args):
            walks.append(args[1:3])
            return real_walk(*args)

        def recording_coefficients(red, ts, e0):
            used.append((red.basepoint_x, e0))
            return coefficients(red, ts, e0)

        monkeypatch.setattr(fe, "_walk_panels", recording_walk)
        monkeypatch.setattr(reduction.ReducedEquation, "coefficients_at_x0",
                            recording_coefficients)
        for _ in range(2):
            verify.full_report("PIII.y1", config)
        assert walks.count((basepoint, x0)) == 2
        assert entry.certified == record
        want = reduction.build_reduced(copy.decomposition, basepoint).E(x0)
        assert used == [(basepoint, want)] * 2

    def test_prepare_shares_kernels_not_memos(self):
        entry = catalog.lookup("PII.y0")
        first = verify.prepare(entry)
        # Each ReducedEquation has its own memos; the (x, t)-stage an x memo
        # holds is the decomposition's kernel's, compiled once.
        assert first.red._cache_x == {}
        first.red.coefficients_at(1.7 + 0.1j, 0.9)
        assert list(first.red._cache_x) == [1.7 + 0.1j]
        second = verify.prepare(entry)
        assert second.red._cache_x == {}
        assert first.red.dec is second.red.dec is entry.decomposition
        assert first.red is not second.red
        first.red.tau_at(1.7 + 0.1j, 0.9)
        second.red.tau_at(2.1 - 0.05j, 1.1)
        second.red.coefficients_at(2.1 - 0.05j, 1.1)
        assert first.red._cache_x[1.7 + 0.1j][2] is second.red._cache_x[2.1 - 0.05j][2] \
            is entry.decomposition._coeff_stages[2]
        assert 2.1 - 0.05j not in first.red._cache_ES
        assert 1.7 + 0.1j not in second.red._cache_ES
        assert list(first.red._cache_x) == [1.7 + 0.1j]
        assert list(second.red._cache_x) == [2.1 - 0.05j]
        assert list(first.red._cache_t) == [0.9 + 0j]
        assert list(second.red._cache_t) == [1.1 + 0j]
        # The stage memos are the ReducedEquation's own: they go with it.
        red = weakref.ref(first.red)
        del first
        gc.collect()
        assert red() is None

    @pytest.mark.parametrize("batch_first", [True, False])
    def test_coefficient_lines_compile_once(self, monkeypatch, batch_first):
        # coefficients_at_x0 and coefficients_at run one coefficient kernel:
        # two calls on the line x = x0 and a 3 x 4 lattice of point calls,
        # in either order, compile its lines once, and the point API gives
        # the compiled form's values through the one degeneracy rule.
        entry = catalog.lookup("PIII.y1", dict(catalog.lookup("PIII.y1").params_exact))
        dec = entry.decomposition
        red = reduction.build_reduced(dec, entry.basepoint_x)
        xs, ts = entry.box_x.diagonal(3), entry.box_t.diagonal(4)
        points = [(x, t) for x in xs for t in ts]
        x0 = entry.box_x.center
        for x in (*xs, x0):     # E and S, so no (h, f) call is recorded below
            red.E(x)
        compiled = []
        real_compile = fe.compile_expr

        def recording(kernel):
            compiled.append(kernel)
            return real_compile(kernel)

        monkeypatch.setattr(fe, "compile_expr", recording)
        # Every compile() call of the expression engine, whichever function
        # makes it.
        sources = []
        monkeypatch.setattr(fe, "compile", lambda src, *args: sources.append(src)
                            or compile(src, *args), raising=False)

        def batches():
            return [red.coefficients_at_x0(ts, red.E(x0)) for _ in range(2)]

        def lattice():
            return [red.coefficients_at(x, t) for x, t in points]

        if batch_first:
            batched, at = batches(), lattice()
        else:
            at, batched = lattice(), batches()
        assert len(compiled) == 1 and compiled[0] is dec._coeff_array
        assert len(sources) == 1
        assert batched[0] == batched[1]
        assert all(isinstance(pq, tuple) for pq in batched[0])
        pre_x, pre_t, post = dec._coeff_stages
        assert (len(compiled), len(sources)) == (1, 1)
        want = [reduction._reduced(x, [t], *zip(post(x, t, pre_x(x), pre_t(t))), red.E(x))[0]
                for x, t in points]
        assert _reprs(at) == _reprs(want)

    def test_coefficient_tape_is_built_once(self, monkeypatch):
        # The reduced equation numbers the decomposition's one kernel, of
        # the coefficients, h, f and G, for its E walks; an array call on
        # the line x = x0 and the compile that a lattice of point calls
        # then makes read that kernel: one numbering of its roots, not two.
        entry = catalog.lookup("PIII.y1", dict(catalog.lookup("PIII.y1").params_exact))
        dec = entry.decomposition
        xs, ts = entry.box_x.diagonal(3), entry.box_t.diagonal(4)
        x0 = entry.box_x.center
        builds = []
        real_init = fe.Kernel.__init__

        def recording(kernel, e, n_out=None):
            real_init(kernel, e, n_out)
            builds.append(kernel.exprs)

        monkeypatch.setattr(fe.Kernel, "__init__", recording)
        red = reduction.build_reduced(dec, entry.basepoint_x)
        for x in (*xs, x0):
            red.E(x)
        red.coefficients_at_x0(ts, red.E(x0))
        for x in xs:
            for t in ts:
                red.coefficients_at(x, t)
        assert "_coeff_stages" in dec.__dict__
        assert builds == [dec._coeff_array.exprs]
        assert len(builds[0]) == 6

    @pytest.mark.parametrize("entry_id", ALL_WITH_NEGATIVE)
    def test_no_compiled_neg_is_read_by_adds_alone(self, entry_id):
        # Every kernel of an entry runs its fused lines, in its array
        # rows and its compiled text alike, and a neg among them has a
        # reader that is not an add (or is one of the outputs).  A fresh
        # entry, so no other test meets the kernels compiled here.
        entry = catalog.lookup(entry_id, dict(catalog.lookup(entry_id).params_exact))
        dec = entry.decomposition
        kernels = [dec._coeff_array, dec._hf_array, dec._coeff_array.view(3), entry.flow_fns]
        for system in frobenius_systems(entry):
            kernels += [system.frobenius_fns, system.a_dadt_array]
        for kernel in kernels:
            assert [row[0] for row in kernel._x_rows + kernel._xt_rows] == \
                [line[0] for line in sorted(kernel.fused, key=lambda line: line[5] != fe._X_DEP)]
            readers: dict[int, list[str]] = {slot: ["output"] for slot in kernel.outputs}
            for _, kind, a, b, *_ in kernel.fused:
                for slot in {a, b} - {None}:
                    readers.setdefault(slot, []).append(kind)
            for slot, kind, *_ in kernel.fused:
                if kind == "neg":
                    assert set(readers[slot]) != {"add"}, (entry_id, slot)
            # The compiled text runs each fused line once: one operation
            # each, whether an assignment or inside its one reader.
            assert sum(_stage_ops(_compile_text(kernel)[1])) == len(kernel.fused)

    @pytest.mark.parametrize("entry_id", ALL_WITH_NEGATIVE)
    def test_no_compiled_line_is_an_assignment_read_once_in_its_stage(self, entry_id):
        # The coefficient kernel's compiled text writes a line that one
        # later line of its stage alone reads inside that reader, so such a
        # line is an assignment only where the depth bound cut its chain.
        # PIII.y1's has 101 such lines of its 137.
        kernel = catalog.lookup(entry_id).decomposition._coeff_array
        stages, text = _compile_text(kernel)
        assert all(depth > fe._INLINE_DEPTH for _, depth in _single_use_statements(text))
        assert _n_statements(stages) < len(kernel.fused)

    @pytest.mark.parametrize("entry_id", ALL_WITH_NEGATIVE)
    def test_kernels_compile_their_own_tape_to_the_same_text(self, monkeypatch, entry_id):
        # Each kernel of a fresh entry compiles to the text of a kernel of
        # its expressions alone.  A view whose outputs are not the first
        # roots of the kernel it shares (the walk matrix of every system,
        # (G, h, f) and (h, f)) numbers its lines in the shared order: it
        # compiles as many lines as a kernel of its expressions alone, to
        # the same values.
        entry = catalog.lookup(entry_id, dict(catalog.lookup(entry_id).params_exact))
        dec = entry.decomposition
        kernels = [dec._coeff_array, entry.flow_fns]
        views = [dec._coeff_array.view(3), dec._hf_array]
        for system in frobenius_systems(entry):
            kernels.append(system.frobenius_fns)
            views.append(system.a_dadt_array)
        sources = []
        monkeypatch.setattr(fe, "compile", lambda src, *args: sources.append(src)
                            or compile(src, *args), raising=False)
        for kernel in kernels:
            fe.compile_expr(kernel)
            fe.compile_expr(fe.Kernel(kernel.expr))
            assert sources[-2] == sources[-1]
        points = [(x, t) for x in entry.box_x.diagonal(3) for t in entry.box_t.diagonal(3)]
        for view in views:
            own = fe.Kernel(view.expr)
            assert _n_statements(fe.compile_expr(view)) == _n_statements(fe.compile_expr(own))
            viewed, alone = compiled(view), compiled(own)
            assert [_reprs(viewed(x, t)) for x, t in points] == \
                [_reprs(alone(x, t)) for x, t in points]

    @pytest.mark.parametrize("family", FREE_FAMILIES, ids="/".join)
    def test_fresh_report_binds_the_fused_lines_of_the_rule(self, monkeypatch, family):
        # Every kernel and view a fresh report binds, decompose's view of
        # b_off among them, has the fused lines and rows that the rule of
        # Kernel's docstring gives (_reference_fused), re-derived here.
        entry_id, name = family
        value = catalog.lookup(entry_id).params_exact[name] + Fraction(1, 4096)
        bound, real_bind = [], fe.Kernel._bind

        def recording_bind(kernel, outputs):
            real_bind(kernel, outputs)
            bound.append(kernel)

        monkeypatch.setattr(fe.Kernel, "_bind", recording_bind)
        rep = verify.full_report(entry_id, Config(seed=1), overrides={name: value})
        assert rep.passed, rep.errors
        views = [kernel for kernel in bound if kernel.outputs != kernel.roots[:len(kernel.outputs)]]
        assert len(bound) >= 7 and len(views) >= 2
        if catalog.lookup(entry_id).decomposition.M_constant:
            # decompose's kernel is (p2, q2, a_off, b_off); for a constant
            # M it views b_off alone, for the jets of the exponent A.
            assert any(len(kernel.exprs) == 4 and kernel.outputs == kernel.roots[3:]
                       for kernel in views)
        for kernel in bound:
            fused = _reference_fused(kernel)
            assert kernel.fused == fused
            rows = [(slot, fe._KINDS[kind].array, a, b if q is None else slot)
                    for slot, kind, a, b, q, mask in fused]
            masks = [line[5] for line in fused]
            assert kernel._x_rows == [r for r, m in zip(rows, masks) if m == fe._X_DEP]
            assert kernel._xt_rows == [r for r, m in zip(rows, masks) if m != fe._X_DEP]

    def test_also_roots_add_no_compiled_line(self, monkeypatch):
        # A root a kernel also numbers after its outputs, off their DAG, has
        # its lines in the kernel and none in the compiled text.
        outputs = (fe.X * fe.T, fe.exp(fe.T))
        kernel = fe.Kernel((*outputs, fe.log(fe.X + 2)), 2)
        assert [line[1] for line in kernel.lines] == ["mul", "exp", "add", "log"]
        sources = []
        monkeypatch.setattr(fe, "compile", lambda src, *args: sources.append(src)
                            or compile(src, *args), raising=False)
        fe.compile_expr(kernel)
        fe.compile_expr(fe.Kernel(outputs))
        assert sources[0] == sources[1]
        assert "_log" not in sources[0]
        # Nor does the array form run them, and no call returns them.
        log_slot = kernel.lines[-1][0]
        run = [row[0] for row in kernel._x_rows + kernel._xt_rows]
        assert log_slot not in run and len(run) == 2
        got = kernel(np.array([1.5]), 0.5)
        assert len(got) == 2 and _reprs(got[0]) == _reprs(np.array([0.75 + 0j]))
        assert got[1] == pytest.approx([cmath.exp(0.5)], rel=1e-15)

    def test_box_override_decomposes_afresh(self):
        # An override is a copy of the entry on the run's boxes, which
        # decomposes on its own boxes a scalar pair equal to the entry's,
        # of the same system: scalarizing probes no box.
        entry = catalog.lookup("PII.y0")
        sp = entry.decomposition.sp
        prep = verify.prepare(entry, Config(box_x=(1.2, 2.4, -0.1, 0.1)))
        assert prep.entry is not entry
        assert prep.entry.box_x == catalog.ComplexRect(1.2, 2.4, -0.1, 0.1)
        assert prep.red.dec is not entry.decomposition
        assert prep.red.dec is prep.entry.decomposition
        assert prep.red.dec.sp == sp
        assert prep.red.dec.sp.system is sp.system is entry.lax

    @pytest.mark.parametrize("entry_id, box_t", [
        ("PIII.y1", (0.6, 1.6, -0.2, 0.2)), ("PVdeg.kitaev_sqrt", (0.7, 1.7, -0.2, 0.2))])
    def test_box_override_compiles_only_its_decomposition(self, monkeypatch, entry_id, box_t):
        # The copy on the run's boxes keeps the entry's flow kernel and its
        # Lax pair or direct scalar pair, so it reduces an equal scalar
        # pair of the same system, whose Frobenius kernel (the walk
        # matrix's too) it shares; only the decomposition probes the
        # boxes.  Its report is
        # the one of a copy that builds everything afresh.  Two reports on
        # the entry first, each with the entry's record cleared, so that the
        # stages it certifies once (the Frobenius grid and cross-validation)
        # also call their kernels twice.
        entry = catalog.lookup(entry_id)
        for _ in range(2):
            entry.certified.clear()
            verify.full_report(entry_id)
        config = Config(box_t=box_t)
        # Overrides equal to the defaults build a new entry with nothing cached.
        afresh = json.dumps(verify.full_report(
            entry_id, config, overrides=dict(entry.params_exact)).to_json())
        compiled = []
        real_compile = fe.compile_expr

        def recording(kernel):
            compiled.append(kernel)
            return real_compile(kernel)

        monkeypatch.setattr(fe, "compile_expr", recording)
        assert json.dumps(verify.full_report(entry_id, config).to_json()) == afresh
        copy = entry.with_boxes(config)
        assert copy.flow_fns is entry.flow_fns
        assert copy.decomposition.sp == entry.decomposition.sp
        systems = entry.decomposition.sp.system
        assert copy.decomposition.sp.system is systems
        assert copy.decomposition.sp.system.a_dadt_array is systems.a_dadt_array
        assert systems.frobenius_fns is (copy.lax or copy.scalar.system).frobenius_fns
        # Every kernel it calls runs in array form.
        assert compiled == []
        # Nothing is carried that the entry has not built.
        fresh = catalog.lookup(entry_id, dict(entry.params_exact))
        assert "flow_fns" not in fresh.with_boxes(config).__dict__


@pytest.fixture
def gc_disabled():
    """The cyclic collector off, after collecting what earlier code left:
    anything a test then frees must go by reference counting.  A failed
    test's traceback is dropped first: pytest keeps it in
    ``sys.last_traceback`` until the next test's call, where it would be
    freed as cyclic garbage."""
    enabled = gc.isenabled()
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        if hasattr(sys, name):
            delattr(sys, name)
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestNoCyclicGarbage:
    """An op frees what it made when it returns: no reference cycle keeps
    memos, compiled kernels or an override entry alive until the cyclic
    collector runs."""

    @pytest.mark.parametrize("entry_id, overrides, config", [
        ("PIII.y1", None, Config()), ("PIII.y1", {"theta_inf": Fraction(3, 2)}, Config()),
        ("PIII.y1", None, Config(box_t=(0.8, 1.8, -0.1, 0.3)))],
        ids=["default", "override", "box-override"])
    def test_full_report(self, gc_disabled, entry_id, overrides, config):
        verify.full_report(entry_id, config, overrides=overrides)
        assert gc.collect() == 0

    def test_prepare_of_a_fresh_entry(self, gc_disabled):
        prep = verify.prepare(catalog.lookup("PV.y_m1", {"theta_inf": Fraction(5, 2)}))
        del prep
        assert gc.collect() == 0

    def test_memos_go_with_their_op(self, gc_disabled):
        prep = verify.prepare(catalog.lookup("PII.y0"))
        prep.red.tau_at(1.7 + 0.1j, 0.9)
        prep.red.coefficients_at(1.7 + 0.1j, 0.9)
        red = weakref.ref(prep.red)
        del prep
        assert red() is None


class TestStagedKernel:
    def test_x_stage_runs_once_per_x(self, monkeypatch):
        # coefficients_at on a 32 x 128 lattice runs the x-stage of the
        # kernel once per x, the t-stage once per t and the (x, t) stage
        # once per point.
        prep = verify.prepare(catalog.lookup("PIII.y1"))
        red = prep.red
        calls = {"pre_x": 0, "pre_t": 0, "post": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        # The stages coefficients_at runs are the decomposition's compiled
        # form of the coefficient kernel.
        monkeypatch.setitem(red.dec.__dict__, "_coeff_stages", tuple(
            counting(name, stage) for name, stage in zip(calls, red.dec._coeff_stages)))
        box_x, box_t = prep.entry.box_x, prep.entry.box_t
        xs = [complex(box_x.re_lo + (k + 0.5) / 32 * (box_x.re_hi - box_x.re_lo), 0.05)
              for k in range(32)]
        ts = [complex(box_t.re_lo + (k + 0.5) / 128 * (box_t.re_hi - box_t.re_lo), -0.02)
              for k in range(128)]
        for x in xs:
            for t in ts:
                red.tau_at(x, t)
                red.coefficients_at(x, t)
        assert calls == {"pre_x": 32, "pre_t": 128, "post": 4096}
        assert list(red._cache_x) == xs
        assert list(red._cache_t) == ts


class TestConcurrentFirstUse:
    def test_threads_racing_for_kernels_agree(self):
        # Four threads make the first use of one fresh entry's kernels at
        # once; each must get what a serial run on its own entry gets.
        overrides = {"theta_inf": Fraction(11, 2)}

        def run(entry):
            prep = verify.prepare(entry)
            return verify.check_t_independence(prep, n_points=8, seed=1), prep.frame_a

        want = run(catalog.lookup("PIII.y1", overrides))
        shared = catalog.lookup("PIII.y1", overrides)
        results = [None] * 4

        def work(k):
            results[k] = run(shared)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * 4


class TestHistoryIndependence:
    def test_report_bytes_do_not_depend_on_earlier_calls(self):
        # In a fresh interpreter: each report first, then after other
        # entries, other seeds, a box override and a basepoint override.
        src = os.path.dirname(os.path.dirname(fuchsreduce.__file__))
        code = (
            "import json\n"
            "from fuchsreduce import catalog, verify\n"
            "from fuchsreduce.config import Config\n"
            "def run(entry_id, **kw):\n"
            "    return json.dumps(verify.full_report(entry_id, Config(**kw)).to_json())\n"
            "wanted = [('PIII.y1', 7), ('PVdeg.kitaev_sqrt', 42)]\n"
            "first = [run(e, seed=s) for e, s in wanted]\n"
            "for e in catalog.list_entries() + catalog.list_negative_entries():\n"
            "    run(e, seed=3)\n"
            "for e, s in wanted:\n"
            "    run(e, seed=s + 1)\n"
            "    run(e, seed=s, box_x=(1.2, 2.4, -0.1, 0.1))\n"
            "    run(e, seed=s, basepoint=1.7)\n"
            "again = [run(e, seed=s) for e, s in wanted]\n"
            "print(json.dumps([first, again]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        first, again = json.loads(out.stdout)
        assert first == again
        # Reports made here, after the whole suite so far, agree too.
        here = [json.dumps(verify.full_report(e, Config(seed=s)).to_json())
                for e, s in (("PIII.y1", 7), ("PVdeg.kitaev_sqrt", 42))]
        assert here == first


def _reprs(value):
    """The ``repr`` of every value of a kernel's result, with the shapes."""
    if isinstance(value, (tuple, list)):
        return [type(value).__name__, [_reprs(v) for v in value]]
    if isinstance(value, np.ndarray):
        return [value.shape, [repr(complex(v)) for v in value.ravel()]]
    return repr(value)


# The expression kernels of an entry: Frobenius, flow, the walk matrix A,
# dA/dt of the leg's system, and the decomposition's (h, f), G and (phi,
# p_num, q_num).  G's, "_G_array", is the gauge exponent R's own kernel, as
# the tests' gauge walk (test_reduction.gauge_at) builds it; the leg reads G
# from the (G, h, f) view.
_KERNELS = ("frobenius_fns", "flow_fns", "a_dadt_array", "_hf_array", "_G_array",
            "_coeff_array")


def _new_kernel_call(entry, name):
    """A new kernel of the expressions of the entry's kernel ``name``, and
    the arguments of an array call like the one a report makes: the
    report's grid, 16 deformation values, or three rows of panel points in
    the x box (for the coefficients, each with its own t in the t box)."""
    if name == "frobenius_fns":
        # The matrices, or the companion system of a direct scalar pair.
        kernel = fe.Kernel((entry.lax or entry.decomposition.sp.system).frobenius_fns.expr)
        xs, ts = (np.array(v) for v in zip(*entry.grid_points()))
        return kernel, (xs, ts)
    if name == "flow_fns":
        return fe.Kernel(entry.flow_fns.expr), (0j, np.array(entry.box_t.diagonal(16)))
    rows = np.array(entry.box_x.diagonal(3))[:, None] + 0.05 * fe._CHEB_NODES
    if name == "a_dadt_array":
        kernel = fe.Kernel(entry.decomposition.sp.system.a_dadt_array.expr)
        return kernel, (rows, entry.box_t.center)
    dec = entry.decomposition
    kernel = fe.Kernel((dec.R,) if name == "_G_array" else getattr(dec, name).expr)
    if name == "_coeff_array":
        return kernel, (rows, rows[::-1] - entry.box_x.center + entry.box_t.center)
    return kernel, (rows, 0j)


def _compiled_on_arrays(e):
    """The stages of ``compile_expr(Kernel(e))`` run on numpy arrays: their
    code on a namespace of the ``_KINDS`` rows' array functions, under the
    errstate of the array form; the outputs broadcast to the points'
    shape."""
    ns = {"_" + kind: row.array for kind, row in fe._KINDS.items()}
    pre_x, pre_t, post = (types.FunctionType(stage.__code__, ns)
                          for stage in fe.compile_expr(fe.Kernel(e)))

    def call(x, t):
        x, t = np.asarray(x, dtype=complex), np.asarray(t, dtype=complex)
        shape = np.broadcast_shapes(x.shape, t.shape)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = post(x, t, pre_x(x), pre_t(t))
        parts = [np.broadcast_to(np.asarray(v, dtype=complex), shape)
                 for v in (out if isinstance(out, tuple) else (out,))]
        return tuple(parts) if isinstance(out, tuple) else parts[0]

    return call


def _outcome(call, *args):
    """What ``call(*args)`` returns, as ``_reprs``, or the class of the
    sample error it raises."""
    try:
        return _reprs(call(*args))
    except fe._SAMPLE_ERRORS as exc:
        return type(exc)


def _message(call, *args):
    """What ``call(*args)`` returns, as ``_reprs``, or the class and message
    of the sample error it raises."""
    try:
        return _reprs(call(*args))
    except fe._SAMPLE_ERRORS as exc:
        return type(exc), str(exc)


class TestTierEquivalence:
    """A kernel's one batch form runs its rows and gives, bit for bit, the
    values of its compiled lines run on the same arrays; a batch that
    raises is answered by the one-point walk (``expr.evaluate``)."""

    @pytest.mark.parametrize("name", _KERNELS)
    @pytest.mark.parametrize("entry_id", ALL_WITH_NEGATIVE)
    def test_walked_and_compiled_calls_agree(self, entry_id, name):
        # Every kernel of every entry, called as a report calls it: its
        # first call and its second agree with the compiled lines on
        # arrays, and the kernel keeps nothing but its slots (its
        # expressions and their tape), none of them a function.
        kernel, args = _new_kernel_call(catalog.lookup(entry_id), name)
        first = kernel(*args)
        assert _reprs(first) == _reprs(_compiled_on_arrays(kernel.expr)(*args))
        assert _reprs(kernel(*args)) == _reprs(first)
        assert not hasattr(kernel, "__dict__")
        assert not any(callable(getattr(kernel, slot)) for slot in fe.Kernel.__slots__)

    def test_tape_and_compiled_arrays_raise_alike(self):
        # Batches with a pole, a log of zero, an overflowing exp, a zero
        # base to a negative fractional power and a constant line dividing
        # by zero at some point, and a regular batch.  The rows raise, with
        # the same class, exactly where the compiled lines on arrays do, and
        # gives their values elsewhere; the kernel answers each bad batch
        # with the exception the walk raises at its first bad point,
        # expression by expression (class and message).
        pole = fe.div(fe.const(1), fe.sub(fe.X, fe.const(1.5)))
        cases = [
            (fe.add(fe.mul(pole, fe.T), fe.exp(fe.X)), [1.25, 1.5, 1.75], 0.5),
            ((fe.log(fe.sub(fe.X, fe.T)), fe.X), [1.0, 2.0], [1.0, 1.0]),
            (fe.exp(fe.mul(fe.X, fe.T)), [1.0, 2.0], [1.0, 800.0]),
            (fe.fpow(fe.sub(fe.T, fe.const(1)), Fraction(-1, 2)), [1.0, 2.0], [2.0, 1.0]),
            (fe.add(fe.X, fe.div(fe.const(1), fe.const(0))), [1.0], 0j),
            ((fe.mul(fe.X, fe.T), fe.log(fe.X)), [1.0, 2.0], [0.5, 0.25]),
        ]
        raised = []
        for e, xs, ts in cases:
            x, t = np.asarray(xs, dtype=complex), np.asarray(ts, dtype=complex)
            kernel = fe.Kernel(e)
            shape = np.broadcast_shapes(x.shape, t.shape)

            def run():
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    out = kernel.values(kernel.x_values(x), t)
                parts = [np.broadcast_to(np.asarray(v, dtype=complex), shape) for v in out]
                return tuple(parts) if isinstance(e, tuple) else parts[0]

            want = _outcome(_compiled_on_arrays(e), x, t)
            assert _outcome(run) == want, e
            if isinstance(want, type):
                points = list(zip(*(np.broadcast_to(v, shape).tolist() for v in (x, t))))
                walked = _message(lambda: [fe.evaluate(part, fe.Binding(*point))
                                           for part in (e if isinstance(e, tuple) else (e,))
                                           for point in points])
                assert _message(kernel, x, t) == walked
                raised.append((want, walked))
        singular = fe.SingularEvaluationError
        assert raised == [(FloatingPointError, (singular, "division by zero")),
                          (FloatingPointError, (singular, "log of zero")),
                          (FloatingPointError, (OverflowError, "math range error")),
                          (FloatingPointError,
                           (singular, "0 raised to a non-positive fractional power")),
                          (ZeroDivisionError, (singular, "division by zero"))]

    def test_singular_frobenius_grid_raises_alike(self):
        # theta1 = 2 puts a pole of PV.y_lin's matrices on the 5 x 5 grid.
        # The batch raises there, so each call is answered by the walk,
        # which raises its exception; the report records it.
        overrides = {"theta1": Fraction(2)}
        entry = catalog.lookup("PV.y_lin", overrides)
        kernel = entry.lax.frobenius_fns
        xs, ts = (np.array(v) for v in zip(*entry.grid_points()))
        for _ in range(2):
            with pytest.raises(fe.SingularEvaluationError, match="^division by zero$"):
                kernel(xs, ts)
        rep = verify.full_report("PV.y_lin", overrides=overrides)
        assert "frobenius: division by zero" in rep.errors

    def test_singular_report_compiles_nothing(self, monkeypatch):
        # The report of that entry fails its Frobenius and reduction stages,
        # each by the walk's SingularEvaluationError, and compiles nothing.
        compiled, raised = [], {}
        real_compile = fe.compile_expr
        monkeypatch.setattr(fe, "compile_expr", lambda kernel: compiled.append(kernel)
                            or real_compile(kernel))

        def recording(name, run):
            def call(*args):
                try:
                    return run(*args)
                except Exception as exc:  # noqa: BLE001 - recorded and raised again
                    raised[name] = exc
                    raise
            return call

        monkeypatch.setattr(verify.scal, "frobenius_residual_grid",
                            recording("frobenius", verify.scal.frobenius_residual_grid))
        monkeypatch.setattr(verify, "prepare", recording("reduction", verify.prepare))
        rep = verify.full_report("PV.y_lin", overrides={"theta1": Fraction(2)})
        assert rep.errors == ["frobenius: division by zero", "reduction: division by zero"]
        assert {name: type(exc) for name, exc in raised.items()} == \
            {"frobenius": fe.SingularEvaluationError, "reduction": fe.SingularEvaluationError}
        assert compiled == []

    def test_singular_batch_raises_alike(self):
        # A pole on one point of a batch: numpy's batch raises, and every
        # call ends in the walk's exception at that point.
        kernel = fe.Kernel(fe.div(fe.const(1), fe.sub(fe.X, fe.const(1.5))))
        for _ in range(2):
            with pytest.raises(fe.SingularEvaluationError, match="^division by zero$"):
                kernel(np.array([1.25, 1.5, 1.75]), 0j)
