import functools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from osclab import ode
from osclab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None, err


class TestReportTasks:
    def test_algebra_check_passes(self, capsys):
        code, rep, _ = run_json(capsys, "algebra-check", "--lambda", "1,2",
                                "--samples", "100")
        assert code == 0
        assert all(c["pass"] for c in rep["checks"])

    def test_full_report_condition_a_family(self, capsys):
        code, rep, _ = run_json(
            capsys, "full-report", "--lambda", "1", "--metric",
            '{"kind":"diagonal_sym","eta":[0.3],"eta_check":[0.7]}')
        assert code == 0
        assert rep["metric"]["completeness_verdict"] == "complete_center"
        locsym = [c for c in rep["checks"] if c["name"] == "local_symmetry"][0]
        assert locsym["residual"] <= 1e-10 and locsym["pass"]

    def test_metric_info_reports_signature(self, capsys):
        code, rep, _ = run_json(capsys, "metric-info", "--lambda", "1",
                                "--metric", "u2_dim4")
        assert code == 0
        assert rep["metric"]["index"] == 2
        assert rep["metric"]["signature"] == [2, 2]
        assert rep["metric"]["completeness_verdict"] == "undetermined"

    def test_connection_report(self, capsys):
        code, rep, _ = run_json(capsys, "connection-report", "--lambda", "1,2",
                                "--metric",
                                '{"kind":"diagonal_sym","eta":[0.4,1.1],'
                                '"eta_check":[0.6,1.1]}')
        assert code == 0
        assert rep["report"]["torsion_residual"] <= 1e-10
        assert "curvature_norms" in rep["report"]

    def test_isometry_dim(self, capsys):
        code, rep, _ = run_json(capsys, "isometry-dim", "--lambda", "1,1,2")
        assert code == 0
        assert rep["dim"] == 21

    def test_isometry_verify(self, capsys):
        code, rep, _ = run_json(capsys, "isometry-verify", "--lambda", "1,1,2",
                                "--samples", "5")
        assert code == 0
        assert all(c["pass"] for c in rep["checks"])

    def test_lattice_check_exact_and_float(self, capsys):
        code, rep, _ = run_json(capsys, "lattice-check", "--lambda", "2/3,1,5/3",
                                "--exact")
        assert code == 0
        assert rep["discrete"] is True and rep["generator"] == "1/3"
        code, rep, _ = run_json(capsys, "lattice-check", "--lambda", "1,1.41421")
        assert code == 0
        assert rep["decidable"] is False and rep["discrete"] is None

    def test_locsym_check_measurement_only_for_generic_metric(self, capsys):
        code, rep, _ = run_json(
            capsys, "locsym-check", "--lambda", "1", "--metric",
            '{"kind":"diagonal_sym","eta":[2.0],"eta_check":[5.0]}')
        assert code == 0  # measurement, not an assertion
        assert rep["locsym_residual"] > 1e-3
        assert rep["checks"][0]["pass"] is None


class TestGeodesicTask:
    def test_gamma1_blowup_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "traj.csv"
        code, rep, _ = run_json(capsys, "geodesic-integrate", "--lambda", "1",
                                "--metric", "u1_dim4",
                                "--x0", "gamma1:c=1,rho=1",
                                "--t-max", "3", "--out-csv", str(csv))
        assert code == 0
        assert rep["status"] == "blowup"
        assert 1.56 < rep["t_detected"] < math.pi / 2
        text = csv.read_text()
        assert text.splitlines()[0].startswith("t,x_-1,")
        assert "# status=blowup" in text

    def test_out_flag_with_csv_suffix_writes_the_trajectory(self, capsys, tmp_path):
        csv = tmp_path / "traj.csv"
        code, rep, _ = run_json(capsys, "geodesic-integrate", "--lambda", "1",
                                "--metric", "u1_dim4",
                                "--x0", "gamma1:c=1,rho=1",
                                "--t-max", "3", "--out", str(csv))
        assert code == 0
        assert rep["status"] == "blowup"  # report still lands on stdout
        assert "# status=blowup" in csv.read_text()

    def test_completed_run_checks_drift(self, capsys):
        code, rep, _ = run_json(
            capsys, "geodesic-integrate", "--lambda", "1,2", "--metric",
            '{"kind":"diagonal_sym","eta":[0.3,1.2],"eta_check":[0.7,1.2]}',
            "--x0", "0.3,0.1,1,0,-0.4,0.2", "--t-max", "20")
        assert code == 0
        assert rep["status"] == "completed"
        assert max(rep["integral_drift"].values()) <= 1e-8


class TestIntegrateInputs:
    @pytest.mark.parametrize("extra, message", [
        (["--rtol", "0", "--atol", "0"], "both zero"),
        (["--rtol=-1e-10"], "non-negative"),
        (["--atol", "-1"], "non-negative"),
        (["--t-max", "nan"], "time span"),
        (["--t-max", "inf"], "time span"),
        (["--t-min=-inf"], "time span"),
        (["--x0", "nan,1,-1,0"], "initial state"),
        (["--rtol", "-1e-10"], "non-negative"),
        (["--atol", "-1E-3"], "non-negative"),
        (["--t-min", "-inf"], "time span"),
    ])
    def test_solver_inputs_exit_2_with_one_line(self, capsys, extra, message):
        code, out, err = run(capsys, "geodesic-integrate", "--lambda", "1",
                             "--metric", "u1_dim4", "--x0", "gamma1:c=1,rho=1",
                             *extra)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err


    def test_negative_exponent_start_time_integrates(self, capsys):
        code, rep, _ = run_json(capsys, "geodesic-integrate", "--lambda", "1",
                                "--metric", "u1_dim4", "--x0", "gamma1:c=1,rho=1",
                                "--t-min", "-1e3")
        assert code == 0
        assert rep["t_span"] == [-1000.0, 10.0]
        assert rep["status"] == "blowup"

    def test_negative_first_coordinate_is_a_value(self, capsys):
        code, rep, _ = run_json(capsys, "geodesic-integrate", "--lambda", "1",
                                "--metric", "u1_dim4", "--x0", "-1,0.5,0,0",
                                "--t-max", "1")
        assert code == 0
        assert rep["x0"] == [-1.0, 0.5, 0.0, 0.0]


class TestSamplesContract:
    @pytest.mark.parametrize("argv", [
        ["algebra-check", "--lambda", "1"],
        ["isometry-verify", "--lambda", "1"],
        ["completeness-probe", "--lambda", "1", "--metric", "u1_dim4"],
    ])
    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_fewer_than_one_sample_exits_2_with_one_line(self, capsys, argv, samples):
        code, out, err = run(capsys, *argv, "--samples", samples)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "--samples must be at least 1" in err

    def test_negative_probe_samples_exit_2(self, capsys):
        code, out, err = run(capsys, "full-report", "--lambda", "1", "--metric",
                             "u1_dim4", "--probe-samples", "-3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--probe-samples" in err


class TestSeedContract:
    @pytest.mark.parametrize("argv", [
        ["algebra-check", "--lambda", "1"],
        ["metric-info", "--lambda", "1", "--metric", "u1_dim4"],
        ["connection-report", "--lambda", "1", "--metric", "u1_dim4"],
        ["isometry-verify", "--lambda", "1"],
        ["completeness-probe", "--lambda", "1", "--metric", "u1_dim4"],
        ["full-report", "--lambda", "1", "--metric", "u1_dim4"],
    ])
    def test_negative_seed_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert_one_line_input_error(code, out, err, "--seed must be at least 0, got -1")


class TestArgparseRejections:
    """argparse's own rejections print one ``error:`` line, no usage block."""

    @pytest.mark.parametrize("argv, needle", [
        (["algebra-check", "--lambda", "1", "--samples", "abc"],
         "argument --samples: invalid int value: 'abc'"),
        (["algebra-check", "--lambda", "1", "--seed", "1e3"],
         "argument --seed: invalid int value: '1e3'"),
        (["no-such-task"], "invalid choice: 'no-such-task'"),
        ([], "the following arguments are required: task"),
    ], ids=["bad_int", "bad_seed", "unknown_task", "missing_task"])
    def test_exits_2_with_one_line(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith("error: ")
        assert needle in out.err

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["algebra-check", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: osclab algebra-check")


class TestProbeInputs:
    @pytest.mark.parametrize("argv", [
        ["completeness-probe", "--lambda", "1", "--metric", "u1_dim4",
         "--samples", "1", "--t-max", "inf"],
        ["completeness-probe", "--lambda", "1", "--metric", "u1_dim4",
         "--samples", "1", "--t-max", "nan"],
        ["full-report", "--lambda", "1", "--metric",
         '{"kind":"diagonal_sym","eta":[0.3],"eta_check":[0.7]}',
         "--probe-samples", "1", "--t-max", "nan"],
    ])
    def test_non_finite_horizon_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "time span endpoints must be finite" in err

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["completeness-probe", "--lambda", "1", "--metric", "u1_dim4",
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err


class TestStepBudget:
    """A span the solver's step budget does not cover exits 2 with one line
    naming the time reached.  A 50-step budget keeps the runs short."""

    _METRIC = '{"kind":"diagonal_sym","eta":[0.3],"eta_check":[0.7]}'

    @pytest.mark.parametrize("argv", [
        ["geodesic-integrate", "--x0", "0.5,0.1,0.6,-0.4", "--t-max", "1e300"],
        ["completeness-probe", "--samples", "1", "--t-max", "1e300"],
    ])
    def test_exhausted_budget_exits_2_with_one_line(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(ode, "solve_rk45",
                            functools.partial(ode.solve_rk45, max_steps=50))
        code, out, err = run(capsys, argv[0], "--lambda", "1", "--metric", self._METRIC,
                             *argv[1:])
        assert_one_line_input_error(code, out, err, "step budget 50 exhausted at t=")


_U_OK = {"rho": 1, "blocks": [{"v": [[0.5, -0.3]], "u": [[1, 0], [0, 1]]}]}
_BAD_U = {
    "missing_v": ({"rho": 1, "blocks": [{"u": [[1, 0], [0, 1]]}]},
                  'expected an object with "v" and "u"'),
    "non_orthogonal": ({"rho": 1, "blocks": [{"v": [[0.5, -0.3]],
                                              "u": [[1, 1], [0, 1]]}]},
                       "u is not orthogonal"),
    "rho_2": ({"rho": 2, "blocks": [{"v": [[0.5, -0.3]], "u": [[1, 0], [0, 1]]}]},
              '"rho" must be +1 or -1'),
    "rho_true": ({"rho": True, "blocks": [{"v": [[0.5, -0.3]], "u": [[1, 0], [0, 1]]}]},
                 "non-numeric parameter 'rho'"),
    "v_strings": ({"rho": 1, "blocks": [{"v": [["0.5", "-0.3"]], "u": [[1, 0], [0, 1]]}]},
                  "non-numeric parameter 'v'"),
    "u_true": ({"rho": 1, "blocks": [{"v": [[0.5, -0.3]], "u": [[True, 0], [0, 1]]}]},
               "non-numeric parameter 'u'"),
    "v_huge_int": ({"rho": 1, "blocks": [{"v": [[10**400, 0]], "u": [[1, 0], [0, 1]]}]},
                   "non-numeric parameter 'v'"),
}


def assert_one_line_input_error(code, out, err, needle):
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err


class TestIsometryAndLatticeInputs:
    @pytest.mark.parametrize("case", sorted(_BAD_U))
    @pytest.mark.parametrize("task", [
        ["isometry-polar", "--g", "0.7,0.1,1.0,0.0"],
        ["isometry-verify"],
    ])
    def test_bad_isometry_descriptor_exits_2(self, capsys, task, case):
        desc, needle = _BAD_U[case]
        code, out, err = run(capsys, task[0], "--lambda", "1",
                             "--u", json.dumps(desc), *task[1:])
        assert_one_line_input_error(code, out, err, needle)

    def test_non_numeric_group_element_exits_2(self, capsys):
        code, out, err = run(capsys, "isometry-polar", "--lambda", "1",
                             "--u", json.dumps(_U_OK), "--g", "0.7,x,1,0")
        assert_one_line_input_error(code, out, err, "bad --g '0.7,x,1,0'")

    @pytest.mark.parametrize("g", ["nan,0,1,0", "0.7,0.1,inf,0", "0.7,-inf,1,0"])
    def test_non_finite_group_element_exits_2(self, capsys, g):
        code, out, err = run(capsys, "isometry-polar", "--lambda", "1",
                             "--u", json.dumps(_U_OK), "--g", g)
        assert_one_line_input_error(code, out, err, "coordinates must be finite")

    def test_reflected_component_polar_exits_2(self, capsys):
        desc = dict(_U_OK, rho=-1)
        code, out, err = run(capsys, "isometry-polar", "--lambda", "1",
                             "--u", json.dumps(desc), "--g", "0.7,0.1,1,0")
        assert_one_line_input_error(code, out, err, "identity component (rho = +1)")

    def test_non_numeric_float_lattice_exits_2(self, capsys):
        code, out, err = run(capsys, "lattice-check", "--lambda", "1,x")
        assert_one_line_input_error(code, out, err, "bad --lambda")

    @pytest.mark.parametrize("lam", ["nan", "1,inf", "-1,2", "0,1"])
    def test_non_positive_or_non_finite_float_lattice_exits_2(self, capsys, lam):
        code, out, err = run(capsys, "lattice-check", "--lambda", lam)
        assert_one_line_input_error(code, out, err, "frequencies must be positive reals")

    def test_malformed_gamma1_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "geodesic-integrate", "--lambda", "1",
                             "--metric", "u1_dim4", "--x0", "gamma1:c")
        assert_one_line_input_error(code, out, err, "bad --x0 'gamma1:c'")

    def test_zero_c_gamma1_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "geodesic-integrate", "--lambda", "1",
                             "--metric", "u1_dim4", "--x0", "gamma1:c=0")
        assert_one_line_input_error(code, out, err, "c must be nonzero")

    def test_valid_descriptor_still_runs(self, capsys):
        code, rep, _ = run_json(capsys, "isometry-verify", "--lambda", "1",
                                "--u", json.dumps(_U_OK))
        assert code == 0 and rep["samples"] == 1


class TestRepeatedCalls:
    def test_calls_in_one_process_share_no_parsed_state(self, capsys):
        import osclab.cli as cli

        assert cli._build_parser() is cli._build_parser()
        code, rep, _ = run_json(capsys, "algebra-check", "--lambda", "1",
                                "--samples", "5", "--seed", "3")
        assert code == 0 and (rep["samples"], rep["seed"]) == (5, 3)
        code, rep, _ = run_json(capsys, "isometry-verify", "--lambda", "1,2")
        assert code == 0 and (rep["samples"], rep["seed"]) == (20, 0)
        code, rep, _ = run_json(capsys, "algebra-check", "--lambda", "1,2")
        assert code == 0 and (rep["samples"], rep["seed"]) == (1000, 0)
        assert rep["lambda"] == [1.0, 2.0]


class TestProbeTask:
    def test_probe_report_and_exit(self, capsys):
        code, rep, _ = run_json(
            capsys, "completeness-probe", "--lambda", "1", "--metric",
            '{"kind":"diagonal_sym","eta":[0.4],"eta_check":[0.6]}',
            "--samples", "3", "--t-max", "10")
        assert code == 0
        assert rep["verdict"] == "complete_center"
        assert rep["n_blowup"] == 0
        assert len(rep["per_sample"]) == 6

    def test_same_seed_reports_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["completeness-probe", "--lambda", "1", "--metric",
                '{"kind":"diagonal_sym","eta":[0.4],"eta_check":[0.6]}',
                "--samples", "4", "--t-max", "5", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestScenarioFile:
    def test_run_dispatches(self, capsys, tmp_path):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({"task": "isometry-dim", "lambda": "1,1,2"}))
        code, rep, _ = run_json(capsys, "run", str(scen))
        assert code == 0
        assert rep["dim"] == 21

    @pytest.mark.parametrize("scenario, argv", [
        ({"task": "algebra-check", "lambda": [1, 2], "samples": 50},
         ["algebra-check", "--lambda", "1,2", "--samples", "50"]),
        ({"task": "geodesic-integrate", "lambda": [1],
          "metric": {"kind": "diagonal_sym", "eta": [0.3], "eta_check": [0.7]},
          "x0": [-0.5, 0.1, 0.6, -0.4], "t_max": 1},
         ["geodesic-integrate", "--lambda", "1", "--metric",
          '{"kind": "diagonal_sym", "eta": [0.3], "eta_check": [0.7]}',
          "--x0", "-0.5,0.1,0.6,-0.4", "--t-max", "1"]),
        ({"task": "isometry-polar", "lambda": [1], "u": _U_OK, "g": [0.7, 0.1, 1, 0]},
         ["isometry-polar", "--lambda", "1", "--u", json.dumps(_U_OK),
          "--g", "0.7,0.1,1,0"]),
    ], ids=["lambda", "x0_and_metric", "g_and_u"])
    def test_number_lists_are_comma_lists(self, capsys, tmp_path, scenario, argv):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario))
        code, out, err = run(capsys, "run", str(scen))
        assert (code, err) == (0, "")
        assert (code, out) == run(capsys, *argv)[:2]

    def test_unknown_task_is_an_input_error(self, capsys, tmp_path):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({"task": "prove-everything"}))
        code, _, err = run(capsys, "run", str(scen))
        assert code == 2
        assert "unknown task" in err


class TestErrorPaths:
    def test_malformed_json_reports_location(self, capsys):
        code, _, err = run(capsys, "metric-info", "--lambda", "1",
                           "--metric", '{"kind": "diagonal_sym",')
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_unknown_metric_kind(self, capsys):
        code, _, err = run(capsys, "metric-info", "--lambda", "1",
                           "--metric", '{"kind":"conformal"}')
        assert code == 2
        assert "unknown metric kind" in err

    def test_bad_lambda(self, capsys):
        code, _, err = run(capsys, "algebra-check", "--lambda", "2,1")
        assert code == 2
        assert "non-decreasing" in err

    def test_wrong_x0_length(self, capsys):
        code, _, err = run(capsys, "geodesic-integrate", "--lambda", "1",
                           "--metric", "u1_dim4", "--x0", "1,2,3")
        assert code == 2
        assert "coordinates" in err

    def test_non_symmetric_matrix_metric_rejected(self, capsys):
        rows = np.eye(4)
        rows[0, 2] = 0.4
        code, _, err = run(capsys, "metric-info", "--lambda", "1", "--metric",
                           json.dumps({"kind": "matrix", "rows": rows.tolist()}))
        assert code == 2
        assert "k-symmetric" in err


_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_child(*argv):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    return subprocess.run([sys.executable, "-m", "osclab", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestOutOfRangeMetricEntries:
    """Descriptors whose Gram matrix overflows, whose entries are not finite
    or whose parameters are not numbers exit 2 with one stderr line: no
    numpy warning, no traceback.
    The CLI runs in a child process, because pytest would capture a
    RuntimeWarning before it reached stderr."""

    @pytest.mark.parametrize("desc, needle", [
        ('{"kind":"diagonal_sym","eta":[1e308],"eta_check":[1e308]}', "overflows"),
        ('{"kind":"lattice_dim4","alpha":1e308}', "overflows"),
        ('{"kind":"diagonal_sym","eta":[Infinity],"eta_check":[1]}', "must be finite"),
        ('{"kind":"matrix","rows":[[NaN,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}',
         "must be finite"),
        ('{"kind":"diagonal_sym","eta":[1],"eta_check":[1],"rho":null}', "non-numeric"),
        ('{"kind":"diagonal_sym","eta":[1],"eta_check":[1],"rho":[1]}', "non-numeric"),
        ('{"kind":"diagonal_sym","eta":{"a":1},"eta_check":[1]}', "non-numeric"),
        ('{"kind":"lattice_dim4","alpha":null}', "non-numeric"),
        ('{"kind":"diagonal_sym","eta":[true],"eta_check":[1]}', "non-numeric"),
    ])
    def test_exits_2_with_one_stderr_line(self, desc, needle):
        proc = run_child("locsym-check", "--lambda", "1", "--metric", desc)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: bad metric descriptor") and needle in proc.stderr


def _u12(v1):
    """An identity-component descriptor on lambda = (1, 2) with v_1 = v1."""
    return json.dumps({"rho": 1, "blocks": [
        {"v": [v1], "u": [[1, 0], [0, 1]]}, {"v": [[0, 0]], "u": [[1, 0], [0, 1]]}]})


class TestOutOfRangeIsometryInputs:
    """Isometry inputs whose angles, images or e_0 coefficient leave the
    float range exit 2 with one stderr line: no numpy warning, no traceback,
    no non-finite number in a report.  Child processes, as above."""

    @pytest.mark.parametrize("argv, needle", [
        (["isometry-polar", "--u", _u12([1.5, 1.2]), "--g=1e308,0,1,0,1,0"],
         "t*l_2 is not finite"),
        (["isometry-polar", "--u", _u12([1.5, 1.2]),
          "--g=0.5,0,1e308,1e308,1e308,1e308"], "polar image overflows"),
        (["isometry-polar", "--u", _u12([1e200, 1.2]), "--g=0.5,0,1,0,1,0"],
         "alpha is -inf"),
        (["isometry-verify", "--u", _u12([1e200, 1.2])], "alpha is -inf"),
    ], ids=["angle", "image", "alpha_polar", "alpha_verify"])
    def test_exits_2_with_one_stderr_line(self, argv, needle):
        proc = run_child(argv[0], "--lambda", "1,2", *argv[1:])
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and needle in proc.stderr


def test_failing_check_gives_exit_one(capsys, monkeypatch):
    # exit-code contract: a report with a failing asserted check returns 1
    import osclab.cli as cli

    class FakeArgs:
        out = None
        json = True

    report = {"task": "demo", "checks": [
        {"name": "x", "claim": "demo", "residual": 1.0, "tolerance": 1e-10,
         "pass": False}]}
    assert cli._finish(report, FakeArgs()) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "osclab" in capsys.readouterr().out
