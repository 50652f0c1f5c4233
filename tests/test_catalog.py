import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path as FsPath

import numpy as np
import pytest

from fuchsreduce import catalog, expr as fe, reduction, scalarize
from fuchsreduce.config import Config
from fuchsreduce.expr import Binding
from fuchsreduce.scalarize import ScalarPair
from test_expr import compiled, joint_probes, read_infix, walked

NAN = float("nan")

DATA = FsPath(__file__).resolve().parent / "data"
MANIFESTS = DATA / "manifests"
OVERRIDE_MANIFESTS = DATA / "override_manifests.json"
# Entry parameters and override values whose manifests are pinned in
# OVERRIDE_MANIFESTS: exact, int, float and complex overrides.
OVERRIDE_PAIRS = (
    ("PIII.y1", "theta_inf"),
    ("PV.y_lin", "theta1"),
    ("PV.y_m1", "theta_inf"),
    ("PVdeg.kitaev_sqrt", "kappa"),
    ("PVdeg.kitaev_sqrt", "mu"),
    ("PII.y0", "theta"),
    ("PIV.y_m2t", "theta0"),
    ("PIV.y_m2t3", "theta_inf"),
    ("PII.y_inv_t", "theta"),
    ("negative.PII_bad_y1", "theta"),
)
OVERRIDE_VALUES = (Fraction(7, 2), 3, 3.0, 2.5, 2.5 + 0j, 2 + 0.5j, -2)


def manifest_json(entry: catalog.CatalogEntry) -> str:
    """The text of an entry's versioned manifest file."""
    return json.dumps(catalog.manifest(entry), indent=2, sort_keys=False) + "\n"

EXPECTED_IDS = [
    "PII.y0",
    "PII.y_inv_t",
    "PIII.y1",
    "PIV.y_m2t",
    "PIV.y_m2t3",
    "PV.y_lin",
    "PV.y_m1",
    "PVdeg.kitaev_sqrt",
]


class TestRegistry:
    def test_list_entries_stable(self):
        assert catalog.list_entries() == EXPECTED_IDS
        assert catalog.list_entries() == EXPECTED_IDS  # stable across calls

    def test_negative_controls_listed_separately(self):
        assert catalog.list_negative_entries() == ["negative.PII_bad_y1"]
        assert "negative.PII_bad_y1" not in catalog.list_entries()

    def test_lookup_theta(self):
        entry = catalog.lookup("PII.y0")
        assert entry.params_exact["theta"] == Fraction(1, 2)

    def test_lookup_unknown(self):
        with pytest.raises(catalog.EntryNotFoundError):
            catalog.lookup("nope")

    def test_unknown_parameter_override(self):
        with pytest.raises(catalog.EntryNotFoundError):
            catalog.lookup("PII.y0", {"bogus": Fraction(1)})

    def test_each_table_key_is_its_entry_id(self):
        for entry_id, (build, params) in catalog._ENTRIES.items():
            assert build(dict(params)).id == entry_id

    def test_listing_follows_the_table(self):
        listed = catalog.list_entries() + catalog.list_negative_entries()
        assert listed == list(catalog._ENTRIES)

    @pytest.mark.parametrize("entry_id, name, value", [
        ("PV.y_lin", "theta1", Fraction(1)),
        ("PVdeg.kitaev_sqrt", "kappa", Fraction(0)),
        ("PVdeg.kitaev_sqrt", "kappa", 0.0),
    ])
    def test_degenerate_parameter_is_rejected_by_name(self, entry_id, name, value):
        with pytest.raises(ValueError, match=f"{name} = .* degenerates"):
            catalog.lookup(entry_id, {name: value})

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), complex(1, float("inf")),
                                       Fraction(10) ** 400],
                             ids=["inf", "nan", "complex-inf", "rational-1e400"])
    def test_non_finite_parameter_is_rejected_by_name(self, value):
        with pytest.raises(ValueError, match="parameter 'theta1' of entry 'PV.y_lin' "
                                             "must be a finite number"):
            catalog.lookup("PV.y_lin", {"theta1": value})


class TestInstantiate:
    """Entries as `lookup` builds them: matrices, closed forms, overrides."""

    def test_pii_y0_matrix_entries(self):
        # Oracle: assemble the matrix by hand from the substituted solution
        # y = 0, z = -t/2, u = 1, theta = 1/2.
        entry = catalog.lookup("PII.y0")
        lp = entry.lax
        for x, t in ((1.3, 0.7), (2.0 + 0.1j, 0.9 - 0.05j)):
            b = Binding(x=x, t=t)
            assert fe.evaluate(lp.a[0][0], b) == pytest.approx(x**2)
            assert fe.evaluate(lp.a[0][1], b) == pytest.approx(x)
            assert fe.evaluate(lp.a[1][0], b) == pytest.approx(t * x - 1)
            assert fe.evaluate(lp.a[1][1], b) == pytest.approx(-(x**2))
            assert fe.evaluate(lp.b[0][0], b) == pytest.approx(x / 2)
            assert fe.evaluate(lp.b[0][1], b) == pytest.approx(0.5)
            assert fe.evaluate(lp.b[1][0], b) == pytest.approx(t / 2)

    def test_piii_default_z(self):
        entry = catalog.lookup("PIII.y1")
        z = entry.closed_forms["z"]
        assert fe.evaluate(z, Binding(t=0.9)) == pytest.approx(-1.0)

    def test_piv_variant_z(self):
        entry = catalog.lookup("PIV.y_m2t")
        assert fe.evaluate(entry.closed_forms["z"], Binding(t=0.7)) == pytest.approx(1.0)

    def test_kitaev_returns_scalar_pair(self):
        entry = catalog.lookup("PVdeg.kitaev_sqrt")
        assert entry.lax is None
        assert isinstance(entry.scalar, ScalarPair)
        assert entry.pre_substitution == "t = z^2"

    def test_parameter_override_rebuilds(self):
        entry = catalog.lookup("PIII.y1", {"theta_inf": Fraction(7, 2)})
        assert fe.evaluate(entry.closed_forms["z"], Binding(t=1.0)) == pytest.approx(-1.5)
        # default instance untouched
        default = catalog.lookup("PIII.y1")
        assert fe.evaluate(default.closed_forms["z"], Binding(t=1.0)) == pytest.approx(-1.0)

    @pytest.mark.parametrize("name", ["basepoint_x", "singular_x", "singular_t",
                                      "expected_target", "expected_case",
                                      "expected_exponent_a", "reduction_closed_forms",
                                      "metadata"])
    def test_documented_fields_are_required(self, name):
        entry = catalog.lookup("PII.y0")
        fields = {f.name: getattr(entry, f.name) for f in dataclasses.fields(entry) if f.init}
        assert catalog.CatalogEntry(**fields) == entry
        with pytest.raises(TypeError, match=name):
            catalog.CatalogEntry(**{k: v for k, v in fields.items() if k != name})

    def test_only_boxes_and_pairs_default(self):
        entry = catalog.lookup("PVdeg.kitaev_sqrt")
        fields = {f.name: getattr(entry, f.name) for f in dataclasses.fields(entry) if f.init}
        with pytest.raises(TypeError):
            catalog.CatalogEntry(*fields.values())
        bare = catalog.CatalogEntry(**{k: v for k, v in fields.items()
                                       if k not in ("box_x", "box_t", "lax")})
        assert (bare.box_x, bare.box_t, bare.lax) == (catalog.DEFAULT_X_BOX,
                                                      catalog.DEFAULT_T_BOX, None)


class TestTraceless:
    @pytest.mark.parametrize("entry_id", EXPECTED_IDS)
    def test_traces_vanish_on_probe_grid(self, entry_id):
        entry = catalog.lookup(entry_id)
        if entry.lax is None:
            pytest.skip("direct scalar entry")
        tr_a = fe.add(entry.lax.a[0][0], entry.lax.a[1][1])
        tr_b = fe.add(entry.lax.b[0][0], entry.lax.b[1][1])
        probes = joint_probes(entry.box_x, entry.box_t, 12)
        ref = walked(entry.lax.a[0][0], probes)
        assert fe.numerically_zero(walked(tr_a, probes), tol=1e-12, reference=ref)
        assert fe.numerically_zero(walked(tr_b, probes), tol=1e-12, reference=ref)


class TestFlow:
    def test_pii_y0_exact_cancellation(self):
        assert catalog.flow_residual(catalog.lookup("PII.y0"), [0.7]) == 0.0

    def test_piii_flow(self):
        assert catalog.flow_residual(catalog.lookup("PIII.y1"), [0.9]) <= 1e-10

    def test_piv_cubic_flow(self):
        assert catalog.flow_residual(catalog.lookup("PIV.y_m2t3"), [1.1]) <= 1e-10

    @pytest.mark.parametrize("entry_id", EXPECTED_IDS)
    def test_sixteen_random_probes(self, entry_id):
        entry = catalog.lookup(entry_id)
        rng = np.random.default_rng(91)
        (ts,) = catalog.random_points(rng, (entry.box_t,), 16)
        worst = catalog.flow_residual(entry, ts)
        assert worst <= 1e-10
        # One call over the 16 t's is the max of one call per t.
        assert repr(worst) == repr(max(catalog.flow_residual(entry, [t]) for t in ts))

    def test_negative_control_breaks_flow(self):
        assert catalog.flow_residual(catalog.lookup("negative.PII_bad_y1"), [0.7]) >= 1e-2

    @pytest.mark.parametrize("rows, want", [
        ([(1.0,), (NAN,), (2.0,)], NAN), ([(NAN,), (1.0,)], NAN),
        ([(1.0, NAN), (0.5, 0.25)], NAN), ([(NAN, 1.0), (3.0, 0.0)], NAN),
        ([(1.0, 0.5), (3.0, NAN)], NAN), ([(1.0, 0.5), (0.25, 3.0)], 3.0)])
    def test_max_per_t_then_across_ts_in_order(self, rows, want):
        # The max over each t's residuals, then across the t's.  A NaN
        # residual is the reading wherever it comes: Python's max keeps a
        # NaN only when it comes first, so one later on would pass the gate.
        class Rows:
            def __call__(self, x, t):
                assert x == 0j and t.shape == (len(rows),)
                return tuple(np.array(col, dtype=complex) for col in zip(*rows))

        entry = dataclasses.replace(catalog.lookup("PII.y0"))
        entry.__dict__["flow_fns"] = Rows()
        got = catalog.flow_residual(entry, [0.5] * len(rows))
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("entry_id", (*EXPECTED_IDS, "negative.PII_bad_y1"))
    def test_fused_kernel_is_bit_identical(self, entry_id):
        # On the 16 probes full_report draws for this entry at three seeds,
        # the one tuple kernel's array form gives the bits of the array
        # forms of one kernel per expression, and agrees with the compiled
        # code to rounding; the reading is the max over the single kernels.
        entry = catalog.lookup(entry_id)
        singles = [fe.Kernel(e) for e in entry.flow_exprs]
        compiled_flows = [compiled(e) for e in entry.flow_exprs]
        kernel = fe.Kernel(entry.flow_fns.expr)
        for seed in (42, 7, 1):
            rng = np.random.default_rng(Config(seed=seed).entry_seed(entry_id))
            (ts,) = catalog.random_points(rng, (entry.box_t,), 16)
            got = kernel(0j, np.array(ts))
            want = [single(0j, np.array(ts)) for single in singles]
            assert [[repr(v) for v in row.tolist()] for row in got] == \
                [[repr(v) for v in row.tolist()] for row in want]
            for row, f in zip(got, compiled_flows):
                ref = np.array([f(0j, t) for t in ts])
                assert np.all(np.abs(row - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
            worst = max(float(np.abs(row).max()) for row in want)
            assert repr(catalog.flow_residual(entry, ts)) == repr(worst)


class TestManifests:
    """The versioned manifests are the catalog's own, byte for byte.
    Regenerate them, with the override manifests, with

        PYTHONPATH=src python tests/test_catalog.py"""

    def test_files_match_regeneration(self):
        for entry_id in (*EXPECTED_IDS, "negative.PII_bad_y1"):
            on_disk = (MANIFESTS / f"{entry_id}.json").read_text()
            assert on_disk == manifest_json(catalog.lookup(entry_id))

    def test_manifest_is_valid_json_with_closed_forms(self):
        doc = json.loads(manifest_json(catalog.lookup("PIV.y_m2t3")))
        assert doc["id"] == "PIV.y_m2t3"
        assert doc["reduction"]["M"] == "2 * t / 3"

    @pytest.mark.parametrize("entry_id", [*EXPECTED_IDS, "negative.PII_bad_y1"])
    def test_closed_forms_read_back_to_the_entry_trees(self, entry_id):
        entry = catalog.lookup(entry_id)
        doc = catalog.manifest(entry)
        for printed, trees in ((doc["closed_forms"], entry.closed_forms),
                               (doc["reduction"], entry.reduction_closed_forms)):
            assert printed.keys() == trees.keys()
            for key, text in printed.items():
                assert read_infix(text) == trees[key], (key, text)

    def test_target_scale_string(self):
        doc = json.loads(manifest_json(catalog.lookup("PII.y0")))
        assert doc["target"]["scale_closed_form"] == "4^(1/3)"


def _override_manifest(entry_id: str, name: str, value) -> dict:
    """The manifest of one override entry, or the exception its lookup
    raises.  The manifest is stored parsed, so the data file stays
    readable; dumping it again gives back its keys, their order and every
    float's repr."""
    doc = {"entry": entry_id, "param": name, "value": repr(value)}
    try:
        doc["manifest"] = json.loads(manifest_json(catalog.lookup(entry_id, {name: value})))
    except Exception as exc:  # noqa: BLE001 - a rejection is pinned too
        doc["error"] = f"{type(exc).__name__}: {exc}"
    return doc


class TestOverrideManifests:
    """Parameters are substituted when an entry is built, from exact, int,
    float and complex overrides alike; the manifests of all of them are
    pinned byte for byte.  Regenerate with

        PYTHONPATH=src python tests/test_catalog.py

    and say in CHANGES.md which strings moved and why."""

    @pytest.mark.parametrize("entry_id, name", OVERRIDE_PAIRS)
    def test_manifests_match_data(self, entry_id, name):
        pinned = {(d["entry"], d["param"], d["value"]): d
                  for d in json.loads(OVERRIDE_MANIFESTS.read_text())}
        for value in OVERRIDE_VALUES:
            got = _override_manifest(entry_id, name, value)
            want = pinned[entry_id, name, repr(value)]
            assert json.dumps(got) == json.dumps(want), value


class TestOverrideValues:
    @pytest.mark.parametrize("value", ["1/2", None, True])
    def test_non_numbers_are_rejected_by_name(self, value):
        with pytest.raises(ValueError, match="'theta_inf'"):
            catalog.lookup("PIII.y1", {"theta_inf": value})


def _padded(box, pad: float):
    return catalog.ComplexRect(box.re_lo - pad, box.re_hi + pad,
                               box.im_lo - pad, box.im_hi + pad)


class TestProbeGeometry:
    @pytest.mark.parametrize("entry_id", (*EXPECTED_IDS, "negative.PII_bad_y1"))
    def test_boxes_avoid_singular_sets(self, entry_id):
        entry = catalog.lookup(entry_id)
        for s in entry.singular_x:
            assert _padded(entry.box_x, 0.05).distance(s) > 0
        for s in entry.singular_t:
            assert _padded(entry.box_t, 0.05).distance(s) > 0
        assert all(abs(complex(entry.basepoint_x) - s) > 0.2 for s in entry.singular_x)


class TestWithBoxes:
    def test_keeping_the_boxes_returns_the_entry(self):
        entry = catalog.lookup("PII.y0")
        assert entry.with_boxes(Config()) is entry
        own = (entry.box_x.re_lo, entry.box_x.re_hi, entry.box_x.im_lo, entry.box_x.im_hi)
        assert entry.with_boxes(Config(box_x=own)) is entry

    def test_override_copy_is_idempotent(self):
        entry = catalog.lookup("PIII.y1")
        cfg = Config(box_x=(1.3, 2.3, 0.0, 0.3), box_t=(0.8, 1.8, -0.1, 0.3))
        copy = entry.with_boxes(cfg)
        assert copy is not entry
        assert copy.box_x == catalog.ComplexRect(1.3, 2.3, 0.0, 0.3)
        assert copy.box_t == catalog.ComplexRect(0.8, 1.8, -0.1, 0.3)
        assert copy.with_boxes(cfg) is copy
        assert (copy.id, copy.lax, copy.params_exact) == (entry.id, entry.lax, entry.params_exact)
        # Only the overridden box changes.
        assert entry.with_boxes(Config(box_t=(0.8, 1.8, -0.1, 0.3))).box_x == entry.box_x

    def test_copy_shares_the_scalar_pair(self, monkeypatch):
        # Scalarizing probes no box, so a copy on other boxes scalarizes
        # the entry's own Lax pair to an equal pair.  The copy shares the
        # pair's swapped system and the kernel of each, and numbers no
        # kernel of a system: only decompose's and the coefficient kernel,
        # on its own boxes.
        entry = catalog.lookup("PIII.y1", dict(catalog.lookup("PIII.y1").params_exact))
        sp = entry.decomposition.sp
        swapped = entry.lax.swapped
        walks = (entry.lax.kernel, swapped.kernel)
        numbered, real_init = [], fe.Kernel.__init__
        monkeypatch.setattr(fe.Kernel, "__init__", lambda kernel, *args: numbered.append(args)
                            or real_init(kernel, *args))
        copy = entry.with_boxes(Config(box_t=(0.8, 1.8, -0.1, 0.3)))
        assert copy is not entry
        assert copy.lax is entry.lax and copy.lax.swapped is swapped
        assert copy.decomposition.sp == sp
        assert copy.decomposition.sp.system is entry.lax
        copy.decomposition._coeff_array
        assert (copy.lax.kernel, copy.lax.swapped.kernel) == walks
        assert [len(args[0]) for args in numbered] == [4, 6]


# The components whose scalar pair ``decompose`` accepts, per matrix entry
# (at its default parameters, or at the overrides given).
COMPONENT_TABLE = [
    ("PII.y0", None, ["first"]),
    ("PII.y_inv_t", None, ["second"]),
    ("PIII.y1", None, ["first"]),
    ("PIV.y_m2t", None, ["first"]),
    ("PIV.y_m2t3", None, ["first"]),
    ("PV.y_lin", None, ["first", "second"]),
    ("PV.y_m1", None, ["first", "second"]),
    ("negative.PII_bad_y1", None, ["first"]),
    ("PIII.y1", {"theta_inf": Fraction(1, 2)}, []),
]


def _fresh(entry_id, overrides=None):
    """A new entry, nothing cached, at its defaults or at ``overrides``."""
    return catalog.lookup(entry_id, overrides or dict(catalog.lookup(entry_id).params_exact))


def _scalarized(monkeypatch) -> list[str]:
    """The components scalarized from here on, in order."""
    done, real = [], scalarize.scalar_coefficients
    monkeypatch.setattr(scalarize, "scalar_coefficients",
                        lambda lp, component: done.append(component) or real(lp, component))
    return done


class TestComponentChoice:
    """An entry reduces through the first component, in the order (first,
    second), whose scalar pair meets the hypotheses ``decompose`` checks;
    the second is scalarized only when the first fails them."""

    @pytest.mark.parametrize("entry_id, overrides, accepted", COMPONENT_TABLE)
    def test_component_table(self, monkeypatch, entry_id, overrides, accepted):
        entry = _fresh(entry_id, overrides)
        scalarized = _scalarized(monkeypatch)
        if accepted:
            chosen = entry.decomposition.sp
        else:
            with pytest.raises(scalarize.VanishingOffDiagonalError) as neither:
                entry.decomposition
        choosing = list(scalarized)
        got = []
        for component in ("first", "second"):
            try:
                reduction.decompose(scalarize.scalar_coefficients(entry.lax, component),
                                    entry.box_x, entry.box_t)
            except (scalarize.ScalarizeError, reduction.DecompositionError):
                continue
            got.append(component)
        assert got == accepted
        if accepted:
            assert chosen == scalarize.scalar_coefficients(entry.lax, accepted[0])
            assert chosen.system is (entry.lax if accepted[0] == "first" else entry.lax.swapped)
            assert chosen.component == accepted[0]
            assert choosing == ["first", "second"][:1 + (accepted[0] == "second")]
        else:
            # Neither: the first's class, with each component's failure once.
            assert str(neither.value) == (
                "first component: a-offdiag entry vanishes on the probe set; cannot scalarize "
                "the first component; second component: the off-diagonal ratio p2 is not "
                "affine in the deformation variable")
            assert choosing == ["first", "second"]

    def test_a_singular_probe_does_not_fall_through(self, monkeypatch):
        # theta1 = 2 puts a 0/0 of the first component's p2 on a probe: the
        # walk's exception is no hypothesis failure, so it propagates from
        # the first component, and the second is never scalarized.
        entry = _fresh("PV.y_lin", {"theta1": Fraction(2)})
        scalarized = _scalarized(monkeypatch)
        with pytest.raises(fe.SingularEvaluationError, match="^division by zero$"):
            entry.decomposition
        assert scalarized == ["first"]


def _random_point(box, rng) -> complex:
    """One point of ``box``, drawn one coordinate at a time: the reference
    stream of :func:`catalog.random_points`."""
    return complex(rng.uniform(box.re_lo, box.re_hi), rng.uniform(box.im_lo, box.im_hi))


class TestRandomPoints:
    BOXES = (
        catalog.ComplexRect(1.1, 2.5, -0.2, 0.2),
        catalog.ComplexRect(0.5, 1.5, -0.2, 0.2),
        catalog.ComplexRect(-0.7, 0.3, 0.25, 0.25),   # im_lo == im_hi
    )

    @pytest.mark.parametrize("m", [1, 8, 40])
    @pytest.mark.parametrize("boxes", [BOXES[:1], BOXES[1:], BOXES,
                                       BOXES[2:], (BOXES[0], BOXES[1], BOXES[0])])
    @pytest.mark.parametrize("seed", [0, 42, 2024])
    def test_same_doubles_and_state_as_one_draw_at_a_time(self, boxes, m, seed):
        ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [tuple(_random_point(box, ref) for box in boxes) for _ in range(m)]
        # One list per box: read across them, a row is one round.
        got = list(zip(*catalog.random_points(new, boxes, m)))
        assert got == want
        assert [repr(z) for row in got for z in row] == [repr(z) for row in want for z in row]
        # The generator is left where the scalar draws leave it.
        assert new.uniform() == ref.uniform()

    def test_degenerate_imaginary_range(self):
        box = self.BOXES[2]
        (zs,) = catalog.random_points(np.random.default_rng(3), (box,), 40)
        assert len(zs) == 40 and all(z.imag == 0.25 and box.distance(z) == 0 for z in zs)


if __name__ == "__main__":
    for entry_id in (*catalog.list_entries(), *catalog.list_negative_entries()):
        path = MANIFESTS / f"{entry_id}.json"
        path.write_text(manifest_json(catalog.lookup(entry_id)))
        sys.stdout.write(f"wrote {path}\n")
    docs = [_override_manifest(entry_id, name, value)
            for entry_id, name in OVERRIDE_PAIRS for value in OVERRIDE_VALUES]
    OVERRIDE_MANIFESTS.write_text(json.dumps(docs, indent=1) + "\n")
    sys.stdout.write(f"wrote {OVERRIDE_MANIFESTS}\n")
