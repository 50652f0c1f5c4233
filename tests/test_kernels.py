"""Compiled kernels live on the objects they are compiled from.

A catalog entry owns its scalar pair, its decomposition and their compiled
functions; a prepare call owns only its memos.  So a second report on an
entry compiles nothing, an override entry takes its kernels with it when
it is collected, and no report depends on what ran before it.
"""

import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from fractions import Fraction

import fuchsreduce
from fuchsreduce import catalog, expr as fe, verify
from fuchsreduce.config import Config

ALL_WITH_NEGATIVE = catalog.list_entries() + catalog.list_negative_entries()


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

    def test_second_report_compiles_nothing(self, monkeypatch):
        for entry_id in ALL_WITH_NEGATIVE:
            verify.full_report(entry_id)
        calls = [0]
        real_compile = fe.compile_expr

        def counting(*args, **kwargs):
            calls[0] += 1
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(fe, "compile_expr", counting)
        for entry_id in ALL_WITH_NEGATIVE:
            verify.full_report(entry_id, Config(seed=7))
        assert calls[0] == 0

    def test_prepare_shares_kernels_not_memos(self):
        entry = catalog.lookup("PII.y0")
        first = verify.prepare(entry)
        first.red.coefficients_at(1.7 + 0.1j, 0.9)
        assert list(first.red._cache_x) == [1.7 + 0.1j]
        second = verify.prepare(entry)
        assert second.red._cache_x == {}
        assert first.dec is second.dec is entry.decomposition
        assert first.red is not second.red
        assert (first.red._pre, first.red._post) == (second.red._pre, second.red._post)
        first.red.tau_at(1.7 + 0.1j, 0.9)
        second.red.tau_at(2.1 - 0.05j, 1.1)
        second.red.coefficients_at(2.1 - 0.05j, 1.1)
        assert 2.1 - 0.05j not in first.red._cache_ES
        assert 1.7 + 0.1j not in second.red._cache_ES
        assert list(first.red._cache_x) == [1.7 + 0.1j]
        assert list(second.red._cache_x) == [2.1 - 0.05j]
        # The x-stage memo is the ReducedEquation's own: it goes with it.
        red = weakref.ref(first.red)
        del first
        gc.collect()
        assert red() is None

    def test_box_override_decomposes_afresh(self):
        entry = catalog.lookup("PII.y0")
        prep = verify.prepare(entry, Config(box_x=(1.2, 2.4, -0.1, 0.1)))
        assert prep.dec is not entry.decomposition
        assert prep.dec.sp is entry.scalar_pair


class TestStagedKernel:
    def test_x_stage_runs_once_per_x(self, monkeypatch):
        # coefficients_at on a 32 x 128 lattice runs the x-stage of the
        # kernel once per x and the (x, t) stage once per point.
        prep = verify.prepare("PIII.y1")
        red = prep.red
        calls = {"pre": 0, "post": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(red, "_pre", counting("pre", red._pre))
        monkeypatch.setattr(red, "_post", counting("post", red._post))
        box_x, box_t = prep.box_x, prep.box_t
        xs = [complex(box_x.re_lo + (k + 0.5) / 32 * (box_x.re_hi - box_x.re_lo), 0.05)
              for k in range(32)]
        ts = [complex(box_t.re_lo + (k + 0.5) / 128 * (box_t.re_hi - box_t.re_lo), -0.02)
              for k in range(128)]
        for x in xs:
            for t in ts:
                red.tau_at(x, t)
                red.coefficients_at(x, t)
        assert calls == {"pre": 32, "post": 4096}
        assert list(red._cache_x) == xs


class TestConcurrentFirstUse:
    def test_threads_racing_for_kernels_agree(self):
        # Four threads make the first use of one fresh entry's kernels at
        # once; each must get what a serial run on its own entry gets.
        overrides = {"theta_inf": Fraction(11, 2)}

        def run(entry):
            prep = verify.prepare(entry)
            return verify.check_t_independence(prep, n_pairs=8, seed=1), prep.frame_a

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
