import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuchsreduce import cli, config, reduction
from fuchsreduce.config import Config


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    rc = cli.main(argv, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


class TestList:
    def test_text_listing(self):
        rc, out, _ = run_cli(["list"])
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        positives = [ln for ln in lines if not ln.startswith("negative.")]
        negatives = [ln for ln in lines if ln.startswith("negative.")]
        assert len(positives) == 8
        assert len(negatives) == 1
        assert "NEGATIVE CONTROL" in negatives[0]

    def test_json_listing(self):
        rc, out, _ = run_cli(["list", "--json"])
        assert rc == 0
        docs = json.loads(out)
        ids = [d["id"] for d in docs]
        assert ids[:8] == [
            "PII.y0", "PII.y_inv_t", "PIII.y1", "PIV.y_m2t",
            "PIV.y_m2t3", "PV.y_lin", "PV.y_m1", "PVdeg.kitaev_sqrt",
        ]
        assert docs[0]["schema"] == "fuchs-reduce/2"

    def test_family_filter(self):
        for family, want in (
            # PVdeg's family is PV_Kitaev, a subfamily of PV.
            ("PV", ["PV.y_lin", "PV.y_m1", "PVdeg.kitaev_sqrt"]),
            # A bare prefix is no family: PII is not PIII, PI is none of them.
            ("PII", ["PII.y0", "PII.y_inv_t", "negative.PII_bad_y1"]),
            ("PI", []),
        ):
            rc, out, _ = run_cli(["list", "--family", family])
            assert rc == 0
            ids = [ln.split()[0] for ln in out.splitlines() if ln.strip()]
            assert ids == want, family


class TestReduce:
    def test_flat_entry_document(self):
        rc, out, _ = run_cli(["reduce", "PII.y0"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["documented"]["f"] == "2 * x"
        assert doc["documented"]["h"] == "0"
        assert doc["documented"]["R"] == "0"
        assert doc["documented"]["M"] == "0"
        assert doc["case"] == "EQ3"
        assert doc["passed"] is True
        assert doc["match"]["kind"] == "airy"
        assert doc["match"]["scale"]["re"] == pytest.approx(4 ** (1 / 3), abs=1e-7)

    def test_parameter_override(self):
        rc, out, _ = run_cli(["reduce", "PIII.y1", "--param", "theta_inf=5/2"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["match"]["kind"] == "whittaker"
        assert doc["match"]["kappa"]["re"] == pytest.approx(0.75, abs=1e-7)
        assert doc["match"]["mu_sq"]["re"] == pytest.approx(1 / 16, abs=1e-7)

    def test_negative_control_exits_1(self):
        rc, out, _ = run_cli(["reduce", "negative.PII_bad_y1"])
        assert rc == 1
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("argv", [
        *([entry, "--seed", seed] for entry in (
            "PII.y0", "PII.y_inv_t", "PIII.y1", "PIV.y_m2t", "PIV.y_m2t3",
            "PV.y_lin", "PV.y_m1", "PVdeg.kitaev_sqrt", "negative.PII_bad_y1")
          for seed in ("42", "7")),
        ["PIII.y1", "--param", "theta_inf=5/2"],
        ["PVdeg.kitaev_sqrt", "--param", "kappa=-1"],
    ], ids=" ".join)
    def test_prints_the_report_verify_prints(self, argv):
        # reduce is a view of the one report: the same record and the same
        # exit code as verify, plus the catalog's documented forms.
        rc_red, out_red, _ = run_cli(["reduce", *argv])
        rc_ver, out_ver, _ = run_cli(["verify", *argv, "--json"])
        doc = json.loads(out_red)
        del doc["documented"]
        assert doc == json.loads(out_ver)[0]
        assert rc_red == rc_ver

    def test_a_non_finite_closed_form_constant_prints(self):
        # theta_inf = 1e308 leaves z = 2 theta_inf = inf in a closed form:
        # the report and exit 1, as verify gives, not a printer crash.
        rc, out, err = run_cli(["reduce", "PV.y_m1", "--param", "theta_inf=1e308"])
        assert (rc, err) == (1, "")
        doc = json.loads(out)
        assert doc["passed"] is False and doc["errors"]
        rc_ver, out_ver, _ = run_cli(["verify", "PV.y_m1", "--param", "theta_inf=1e308",
                                      "--json"])
        assert rc_ver == rc
        del doc["documented"]
        assert json.dumps(doc) == json.dumps(json.loads(out_ver)[0])

    def test_missing_entry_exits_2(self):
        rc, out, err = run_cli(["reduce", "missing.id"])
        assert (rc, out, err) == (2, "", "error: no catalog entry named 'missing.id'\n")

    def test_bad_param_exits_2(self):
        rc, _, err = run_cli(["reduce", "PIII.y1", "--param", "theta_inf=1.5x"])
        assert rc == 2


class TestVerify:
    def test_all_positive_entries_pass(self, tmp_path):
        rc, out, _ = run_cli(["verify", "--all", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert out.count("PASS") == 8
        files = sorted(p.name for p in tmp_path.glob("*.json"))
        assert len(files) == 8
        doc = json.loads((tmp_path / "PII.y0.json").read_text())
        assert doc["passed"] is True

    def test_negative_control_exits_1(self):
        rc, out, _ = run_cli(["verify", "negative.PII_bad_y1"])
        assert rc == 1
        assert "FAIL" in out

    def test_unreachable_tolerance_exits_1(self):
        # PII.y0's t-independence deviation is at the rounding level
        # (below 1e-15), so only a gate under double precision is unreachable.
        rc, out, _ = run_cli(["verify", "PII.y0", "--tol-independence", "1e-18"])
        assert rc == 1

    def test_unreachable_crossval_tolerance_exits_1(self):
        # The cross-validation residual is at the rounding level of the
        # trace's series (about 7e-13), so only a gate under double
        # precision is unreachable.
        rc, out, _ = run_cli(["verify", "PII.y0", "--tol-crossval", "1e-16"])
        assert rc == 1

    def test_reduction_failure_prints_the_stage_error(self):
        # theta_inf = 1/2 makes an off-diagonal entry vanish: the report
        # fails at the reduction stage, with the flow and Frobenius
        # residuals still printed.
        rc, out, err = run_cli(["verify", "PIII.y1", "--param", "theta_inf=1/2"])
        assert (rc, err) == (1, "")
        status, error = out.splitlines()
        assert status.startswith("FAIL PIII.y1 ")
        assert "frobenius=" in status and "flow=" in status and "t-indep" not in status
        assert error == ("     PIII.y1: reduction: a-offdiag entry vanishes on the probe "
                         "set; cannot scalarize the first component")

    @pytest.mark.parametrize("argv, fields", [
        (["verify", "PV.y_m1", "--param", "theta_inf=1e308", "--json"],
         {"frobenius_max": "nan", "flow_max": "nan"}),
        (["verify", "--all", "--with-negative", "--json"], {})])
    def test_json_output_is_strict(self, argv, fields):
        # RFC 8259 has no NaN or Infinity: a number that is not finite is
        # written as null and named, with its value, under "non_finite".
        def no_constant(name):
            raise AssertionError(f"non-JSON constant {name}")

        rc, out, err = run_cli(argv)
        assert (rc, err) == (1 if fields else 0, "")
        docs = json.loads(out, parse_constant=no_constant)
        for doc in docs:
            assert all(doc[key] is None for key in doc["non_finite"])
        assert docs[0]["non_finite"] == fields

    def test_unknown_entry_exits_2(self):
        rc, out, err = run_cli(["verify", "missing.id"])
        assert (rc, out, err) == (2, "", "error: no catalog entry named 'missing.id'\n")

    @pytest.mark.parametrize("command", ["reduce", "verify", "sample"])
    def test_unknown_param_exits_2_naming_it(self, command):
        rc, out, err = run_cli([command, "PII.y0", "--param", "nope=1"])
        assert (rc, out, err) == (2, "", "error: entry 'PII.y0' has no parameter 'nope'\n")

    def test_unwritable_out_dir_exits_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc, out, err = run_cli(["verify", "PII.y0", "--out-dir", str(blocker / "reports")])
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, conflict", [
        (["verify", "PII.y0", "--all"], "--all"),
        (["verify", "PII.y0", "--with-negative"], "--with-negative"),
        (["verify", "--with-negative"], "--with-negative"),
    ])
    def test_conflicting_selectors_exit_2(self, argv, conflict):
        rc, out, err = run_cli(argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and conflict in err

    @pytest.mark.parametrize("command", ["reduce", "verify", "sample"])
    def test_repeated_param_exits_2_naming_it(self, command):
        rc, out, err = run_cli([command, "PII.y0", "--param", "theta=1/2",
                                "--param", "theta=3/2"])
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "theta" in err

    @pytest.mark.parametrize("entry_id, param", [
        ("PV.y_lin", "theta1=1"),
        ("PVdeg.kitaev_sqrt", "kappa=0"),
    ])
    def test_degenerate_parameter_exits_2(self, entry_id, param):
        # The builder's rejection is an operational error, the same line
        # for every command; sample's "decomposition failed" is only for
        # a built entry that does not decompose.
        name, _, value = param.partition("=")
        for command in ("reduce", "verify", "sample"):
            rc, out, err = run_cli([command, entry_id, "--param", param])
            assert (rc, out) == (2, ""), command
            assert err.startswith(f"error: {name} = {value} degenerates the solution")

    @pytest.mark.parametrize("entry_id, param", [
        ("PV.y_lin", "theta1=1e400"),
        ("PIII.y1", "theta_inf=1e400"),
        ("PII.y0", "theta=-1e400"),
    ])
    def test_parameter_overflowing_a_float_exits_2(self, entry_id, param):
        name = param.partition("=")[0]
        rc, out, err = run_cli(["verify", entry_id, "--param", param])
        assert (rc, out) == (2, "")
        assert err == (f"error: parameter {name!r} of entry {entry_id!r} "
                       "must be a finite number\n")

    @pytest.mark.parametrize("entry_id, param", [
        ("PV.y_lin", "theta1=1e300"),
        ("PIII.y1", "theta_inf=1e200"),
        ("PVdeg.kitaev_sqrt", "kappa=1e200"),
    ])
    def test_parameter_overflowing_a_closed_form_exits_2(self, entry_id, param):
        # The value is a finite float, but a closed form's constant folding
        # overflows while the entry is built.
        name = param.partition("=")[0]
        for command in ("verify", "sample"):
            rc, out, err = run_cli([command, entry_id, "--param", param])
            assert (rc, out) == (2, ""), command
            assert err == (f"error: entry {entry_id!r} cannot be built at the given "
                           f"{name}: OverflowError: complex exponentiation\n"), command

    @pytest.mark.parametrize("flags, field", [
        (["--tol-match", "nan"], "tol_match"),
        (["--tol-crossval", "inf"], "tol_crossval"),
        (["--box-x", "nan,2.5,-0.2,0.2"], "box_x"),
        (["--box-t", "0.5,1.5,-0.2,inf"], "box_t"),
        (["--basepoint", "nan"], "basepoint"),
    ])
    def test_non_finite_input_exits_2_naming_the_field(self, flags, field):
        for command in ("reduce", "verify"):
            rc, out, err = run_cli([command, "PII.y0", *flags])
            assert (rc, out) == (2, ""), command
            assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("flag, value", [
        ("--box-x", "a,2.5,-0.2,0.2"),
        ("--box-t", "1,2,3"),
        ("--basepoint", "abc"),
    ])
    def test_unparsable_input_exits_2_naming_the_flag(self, flag, value):
        for command in ("reduce", "verify"):
            rc, out, err = run_cli([command, "PII.y0", flag, value])
            assert (rc, out) == (2, ""), command
            assert err.startswith(f"error: {flag} ") and value in err


class TestFlags:
    """Each subcommand accepts exactly the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["verify", "PII.y0", "--box-x=-2.5,-1.1,-0.2,0.2"],
        ["verify", "PII.y0", "--basepoint=-1,0.5"],
        ["sample", "PII.y0", "--count", "3", "--basepoint=-1,0.5"],
    ])
    def test_negative_values_in_the_equals_form(self, argv):
        # Given as a separate argument, a value starting with "-" reads as a
        # flag; joined to its flag by "=" it is a value.
        rc, out, err = run_cli(argv)
        assert (rc, err) == (0, ""), err
        assert out

    @pytest.mark.parametrize("argv", [
        ["reduce", "PII.y0", "--json"],
        ["reduce", "PII.y0", "--all"],
        ["reduce", "PII.y0", "--out-dir", "d"],
        ["sample", "PII.y0", "--json"],
        ["sample", "PII.y0", "--tol-crossval", "1e-3"],
    ])
    def test_unread_flags_are_rejected(self, argv):
        rc, out, _ = run_cli(argv)
        assert (rc, out) == (2, "")

    def test_reduce_rejects_a_non_finite_match_tolerance(self):
        rc, _, err = run_cli(["reduce", "PII.y0", "--tol-match", "nan"])
        assert rc == 2
        assert "tol_match" in err

    def test_each_gate_is_a_field_a_flag_and_a_tolerance(self):
        # config.GATES is the one list: each name is a Config field, a flag
        # of reduce and verify (not of sample) and a reported tolerance, in
        # the same order everywhere.
        fields = [f.name for f in dataclasses.fields(Config)]
        assert [n for n in fields if n.startswith("tol_")] == [
            f"tol_{name}" for name in config.GATES]
        for command in ("reduce", "verify"):
            flags = [arg for name in config.GATES for arg in (f"--tol-{name}", "1e-3")]
            args = vars(cli._PARSER.parse_args([command, "PII.y0", *flags]))
            assert [(k, v) for k, v in args.items() if k.startswith("tol_")] == [
                (f"tol_{name}", 1e-3) for name in config.GATES], command
        for name in config.GATES:
            rc, _, _ = run_cli(["sample", "PII.y0", f"--tol-{name}", "1e-3"])
            assert rc == 2, name
        keys = list(Config().tolerances_json())
        assert keys[:len(config.GATES)] == list(config.GATES)
        assert keys[len(config.GATES):] == ["frame", "target_param"]

    def test_every_config_field_is_a_flag_or_a_reported_gate(self):
        # A field that no flag sets and no report shows is a setting that
        # nothing in the program turns.
        argv = ["verify", "PII.y0", "--seed", "7", "--basepoint", "1.8,0.1",
                "--box-x", "1.3,2.2,-0.1,0.1", "--box-t", "0.6,1.2,-0.1,0.1",
                "--tol-frobenius", "1e-3", "--tol-flow", "1e-3",
                "--tol-independence", "1e-3", "--tol-match", "1e-3",
                "--tol-crossval", "1e-3"]
        from_cli = cli._config_from_args(cli._build_parser().parse_args(argv))
        default = Config()
        for f in dataclasses.fields(Config):
            value = getattr(default, f.name)
            if getattr(from_cli, f.name) != value:
                continue
            try:
                moved = dataclasses.replace(default, **{f.name: 2 * value})
            except (TypeError, ValueError):
                moved = default
            assert moved.tolerances_json() != default.tolerances_json(), f.name


class TestModuleEntry:
    """``python -m fuchsreduce`` and ``python -m fuchsreduce.cli`` run the CLI."""

    @staticmethod
    def run_module(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        return subprocess.run([sys.executable, "-m", *argv], env=env,
                              capture_output=True, text=True)

    def test_package_runs_the_cli(self):
        done = self.run_module("fuchsreduce", "reduce", "negative.PII_bad_y1")
        assert done.returncode == 1
        assert json.loads(done.stdout)["entry"] == "negative.PII_bad_y1"

    def test_cli_module_runs_the_cli(self):
        done = self.run_module("fuchsreduce.cli", "list")
        assert (done.returncode, done.stdout) == (0, run_cli(["list"])[1])


class TestParser:
    def test_consecutive_calls_see_only_their_own_params(self, monkeypatch):
        # main parses with the one parser built at import.  Each call sees
        # only its own --param values, and prints what a fresh parser's
        # call prints.
        argvs = [["reduce", "PIII.y1", "--param", "theta_inf=7/2"],
                 ["reduce", "PIII.y1", "--param", "theta_inf=11/2"],
                 ["reduce", "PIII.y1"]]
        shared = [run_cli(argv) for argv in argvs]
        assert [rc for rc, _, _ in shared] == [0, 0, 0]
        assert len({out for _, out, _ in shared}) == 3
        assert [cli._PARSER.parse_args(argv).param for argv in argvs] == \
            [["theta_inf=7/2"], ["theta_inf=11/2"], None]
        for argv, got in zip(argvs, shared):
            monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
            assert run_cli(argv) == got

    def test_help_goes_to_the_given_out(self, capsys):
        rc, out, err = run_cli(["--help"])
        assert (rc, err) == (0, "")
        assert out.startswith("usage: fuchs-reduce")
        assert capsys.readouterr() == ("", "")

    def test_usage_error_goes_to_the_given_err(self, capsys):
        rc, out, err = run_cli(["bogus"])
        assert (rc, out) == (2, "")
        assert err.startswith("usage: fuchs-reduce") and "invalid choice: 'bogus'" in err
        assert capsys.readouterr() == ("", "")


class TestSample:
    def test_flat_entry_rows_satisfy_target(self, tmp_path):
        path = tmp_path / "s.csv"
        rc, _, _ = run_cli(["sample", "PII.y0", "--out", str(path), "--count", "64"])
        assert rc == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_re,tau_im,P_re,P_im,Q_re,Q_im,x_re,x_im,t_re,t_im"
        assert len(lines) == 65
        for ln in lines[1:]:
            vals = [float(v) for v in ln.split(",")]
            tau = complex(vals[0], vals[1])
            q = complex(vals[4], vals[5])
            assert abs(q - (-tau / 4)) <= 1e-9
            # rows carry the sample point too
            x = complex(vals[6], vals[7])
            t = complex(vals[8], vals[9])
            assert abs((x**2 + t) - tau) <= 1e-9

    def test_constant_entry_rows(self, tmp_path):
        path = tmp_path / "s.csv"
        rc, _, _ = run_cli(["sample", "PIV.y_m2t", "--out", str(path), "--count", "32"])
        assert rc == 0
        for ln in path.read_text().splitlines()[1:]:
            vals = [float(v) for v in ln.split(",")]
            assert abs(complex(vals[4], vals[5]) - (-1.0)) <= 1e-10

    def test_default_count_is_64(self):
        rc, out, _ = run_cli(["sample", "PII.y0"])
        assert rc == 0
        assert len(out.splitlines()) == 65

    def test_negative_count_exits_2(self):
        rc, out, err = run_cli(["sample", "PII.y0", "--count", "-1"])
        assert (rc, out) == (2, "")
        assert "--count" in err

    def test_zero_samples_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        rc, _, _ = run_cli(["sample", "PII.y0", "--out", str(path), "--count", "0"])
        assert rc == 0
        assert path.read_text() == "tau_re,tau_im,P_re,P_im,Q_re,Q_im,x_re,x_im,t_re,t_im\n"

    def test_unwritable_path_exits_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc, _, err = run_cli(["sample", "PII.y0", "--out",
                              str(blocker / "s.csv"), "--count", "4"])
        assert rc == 2
        assert err.startswith("error:")

    def test_unknown_entry_exits_2(self, tmp_path):
        rc, out, err = run_cli(["sample", "missing.id", "--out", str(tmp_path / "x.csv")])
        assert (rc, out, err) == (2, "", "error: no catalog entry named 'missing.id'\n")
        assert not (tmp_path / "x.csv").exists()

    def test_a_defect_in_a_draw_propagates(self, monkeypatch):
        # Only a singular or degenerate point (expr._SAMPLE_ERRORS) skips a
        # draw; any other exception is a defect, not an operational error.
        def broken(self, x, t):
            raise TypeError("broken coefficients")

        monkeypatch.setattr(reduction.ReducedEquation, "coefficients_at", broken)
        with pytest.raises(TypeError, match="broken coefficients"):
            run_cli(["sample", "PII.y0", "--count", "4"])

    def test_a_defect_in_prepare_propagates(self, monkeypatch):
        # "decomposition failed" is for an entry the pipeline cannot
        # reduce; a programming error while preparing is not one.
        def broken(dec, basepoint_x):
            raise TypeError("broken reduction")

        monkeypatch.setattr(reduction, "build_reduced", broken)
        with pytest.raises(TypeError, match="broken reduction"):
            run_cli(["sample", "PII.y0", "--count", "2"])

    def test_an_entry_that_does_not_reduce_exits_2(self):
        rc, out, err = run_cli(["sample", "PIII.y1", "--param", "theta_inf=1/2",
                                "--count", "2"])
        assert (rc, out) == (2, "")
        assert err == ("error: decomposition failed for PIII.y1: a-offdiag entry "
                       "vanishes on the probe set; cannot scalarize the first component\n")

    def test_box_overrides_bound_the_draws(self):
        # Rows are drawn from the boxes the run decomposed on, not from the
        # entry's default boxes.
        rc, out, err = run_cli(["sample", "PII.y0", "--count", "4",
                                "--box-x", "1.3,1.4,-0.01,0.01",
                                "--box-t", "0.8,0.9,-0.02,0.02"])
        assert rc == 0, err
        rows = [[float(v) for v in ln.split(",")] for ln in out.splitlines()[1:]]
        assert len(rows) == 4
        for x_re, x_im, t_re, t_im in (vals[6:] for vals in rows):
            assert 1.3 <= x_re <= 1.4 and -0.01 <= x_im <= 0.01
            assert 0.8 <= t_re <= 0.9 and -0.02 <= t_im <= 0.02


class TestOutputFiles:
    def test_written_files_get_the_umask_mode(self, tmp_path):
        # In a child process, so this process's umask is never changed.
        # The second round overwrites the files of the first.
        script = f"""
import os
from fuchsreduce import cli
os.umask(0o022)
for _ in range(2):
    assert cli.main(["sample", "PII.y0", "--out", {str(tmp_path / "s.csv")!r},
                     "--count", "2"]) == 0
    assert cli.main(["verify", "PII.y0", "--out-dir", {str(tmp_path / "out")!r}]) == 0
    print(oct(os.stat({str(tmp_path / "s.csv")!r}).st_mode & 0o777),
          oct(os.stat({str(tmp_path / "out" / "PII.y0.json")!r}).st_mode & 0o777))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        modes = [ln.split() for ln in done.stdout.splitlines() if ln.startswith("0o")]
        assert modes == [["0o644", "0o644"]] * 2


class TestDeterminism:
    def test_verify_json_byte_identical(self):
        rc1, out1, _ = run_cli(["verify", "PII.y0", "--json", "--seed", "42"])
        rc2, out2, _ = run_cli(["verify", "PII.y0", "--json", "--seed", "42"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_sample_byte_identical(self):
        rc1, out1, _ = run_cli(["sample", "PVdeg.kitaev_sqrt", "--count", "16",
                                "--seed", "42"])
        rc2, out2, _ = run_cli(["sample", "PVdeg.kitaev_sqrt", "--count", "16",
                                "--seed", "42"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_different_seed_changes_samples(self):
        _, out1, _ = run_cli(["sample", "PII.y0", "--count", "8", "--seed", "1"])
        _, out2, _ = run_cli(["sample", "PII.y0", "--count", "8", "--seed", "2"])
        assert out1 != out2
