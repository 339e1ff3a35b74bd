import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osclab import ode
from osclab.algebra import LambdaSpec
from osclab.cli import main
from osclab.isometry import random_curv_isometries
from osclab.metrics import k_lambda


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None, err


# Under tolerances of 1e158 a trial's error terms underflow to 0 on this flow.
_DIAG_RHO = '{"kind":"diagonal_sym","eta":[-0.3],"eta_check":[2.7],"rho":0.5}'
_X0_RHO = "--x0=0.10669348670051791,0.00476727312116796,0.09166547888245957,0.03709468350944103"


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

    def test_metric_info_signature_of_a_nearly_degenerate_metric(self, capsys):
        # metric_from_iso accepts an eigenvalue ratio of 2e-11; the signature
        # is the sign count of that same accepted metric.
        code, rep, _ = run_json(capsys, "metric-info", "--lambda", "1", "--metric",
                                '{"kind":"diagonal_sym","eta":[2e-11],"eta_check":[1]}')
        assert code == 0
        assert rep["metric"]["signature"] == [3, 1]

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
        assert abs(rep["t_detected"] - math.pi / 2) <= 1e-9 * math.pi / 2
        text = csv.read_text()
        assert text.splitlines()[0].startswith("t,x_-1,")
        assert "# status=blowup" in text
        # The last row is the stop, short of the located pole.
        assert float(text.splitlines()[-2].split(",")[0]) < rep["t_detected"]

    def test_out_flag_with_csv_suffix_writes_the_trajectory(self, capsys, tmp_path):
        csv = tmp_path / "traj.csv"
        code, rep, _ = run_json(capsys, "geodesic-integrate", "--lambda", "1",
                                "--metric", "u1_dim4",
                                "--x0", "gamma1:c=1,rho=1",
                                "--t-max", "3", "--out", str(csv))
        assert code == 0
        assert rep["status"] == "blowup"  # report still lands on stdout
        assert "# status=blowup" in csv.read_text()

    def test_pole_past_t_max_completes_and_checks_drift(self, capsys, tmp_path):
        # |x| passes 1e2 before t = 1.5; the located pole pi/2 lies past the span.
        csv = tmp_path / "traj.csv"
        code, rep, _ = run_json(capsys, "geodesic-integrate", "--lambda", "1",
                                "--metric", "u1_dim4", "--x0", "gamma1:c=1,rho=1",
                                "--t-max", "1.5", "--out-csv", str(csv))
        assert code == 0
        assert (rep["status"], rep["t_detected"]) == ("completed", None)
        assert [(c["name"], c["pass"]) for c in rep["checks"]] == [("integral_drift", True)]
        assert float(csv.read_text().splitlines()[-2].split(",")[0]) == 1.5

    def test_completed_run_checks_drift(self, capsys):
        code, rep, _ = run_json(
            capsys, "geodesic-integrate", "--lambda", "1,2", "--metric",
            '{"kind":"diagonal_sym","eta":[0.3,1.2],"eta_check":[0.7,1.2]}',
            "--x0", "0.3,0.1,1,0,-0.4,0.2", "--t-max", "20")
        assert code == 0
        assert rep["status"] == "completed"
        assert max(rep["integral_drift"].values()) <= 1e-8

    def test_tolerances_whose_error_terms_underflow(self, capsys):
        code, rep, _ = run_json(capsys, "geodesic-integrate", "--lambda", "1",
                                "--metric", _DIAG_RHO, _X0_RHO, "--t-max=1e6",
                                "--rtol", "1e158", "--atol", "1e158")
        assert code in (0, 1)
        # A complete_center metric: no singularity can be located.
        assert rep["status"] in (ode.COMPLETED, ode.UNBOUNDED_GROWTH, ode.STEP_UNDERFLOW)


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
        # A non-finite tolerance gave a blowup verdict (and, with both
        # infinite, a RuntimeWarning from the first-step guess).
        (["--atol", "inf"], "finite"),
        (["--rtol", "inf", "--atol", "inf"], "finite"),
        (["--rtol", "nan"], "finite"),
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
        assert f"argument --samples: must be at least 1 and at most 10000, got {samples}" in err

    @pytest.mark.parametrize("argv", [
        ["algebra-check", "--lambda", "1"],
        ["isometry-verify", "--lambda", "1"],
        ["completeness-probe", "--lambda", "1", "--metric", "u1_dim4"],
    ])
    def test_more_than_the_maximum_exits_2_before_the_task_runs(self, capsys, monkeypatch,
                                                                argv):
        import osclab.cli as cli
        bodies = []
        body, *rest = cli._TASKS[argv[0]]
        monkeypatch.setitem(cli._TASKS, argv[0],
                            (lambda args, *inputs: bodies.append(args) or ({}, []), *rest))
        code, out, err = run(capsys, *argv, "--samples", str(cli.MAX_SAMPLES + 1))
        assert code == 2 and out == "" and bodies == []
        assert err == f"error: argument --samples: must be at least 1 and at most " \
                      f"{cli.MAX_SAMPLES}, got {cli.MAX_SAMPLES + 1}\n"
        code, _, _ = run(capsys, *argv, "--samples", str(cli.MAX_SAMPLES))
        assert code == 0 and len(bodies) == 1

    def test_negative_probe_samples_exit_2(self, capsys):
        code, out, err = run(capsys, "full-report", "--lambda", "1", "--metric",
                             "u1_dim4", "--probe-samples", "-3")
        assert code == 2 and out == ""
        assert err == "error: argument --probe-samples: must be at least 0, got -3\n"


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
        assert_one_line_input_error(code, out, err, "argument --seed: must be at least 0, got -1")


class TestArgparseRejections:
    """argparse's own rejections print one ``error:`` line, no usage block,
    and ``main`` returns 2 as for every other input error."""

    @pytest.mark.parametrize("argv, needle", [
        (["algebra-check", "--lambda", "1", "--samples", "abc"],
         "argument --samples: invalid int value: 'abc'"),
        (["algebra-check", "--lambda", "1", "--seed", "1e3"],
         "argument --seed: invalid int value: '1e3'"),
        (["no-such-task"], "invalid choice: 'no-such-task'"),
        ([], "the following arguments are required: task"),
    ], ids=["bad_int", "bad_seed", "unknown_task", "missing_task"])
    def test_exits_2_with_one_line(self, capsys, argv, needle):
        assert_one_line_input_error(*run(capsys, *argv), needle)

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
        code, out, err = run(capsys, "completeness-probe", "--lambda", "1", "--metric",
                             "u1_dim4", "--threads", "2")
        assert_one_line_input_error(code, out, err, "unrecognized arguments: --threads")


class TestStepBudget:
    """A span the solver's step budget does not cover exits 2 with one line
    naming the time reached.  A 50-step budget keeps the runs short."""

    _METRIC = '{"kind":"diagonal_sym","eta":[0.3],"eta_check":[0.7]}'

    @pytest.mark.parametrize("argv", [
        ["geodesic-integrate", "--x0", "0.5,0.1,0.6,-0.4", "--t-max", "1e300"],
        ["completeness-probe", "--samples", "1", "--t-max", "1e300"],
    ])
    def test_exhausted_budget_exits_2_with_one_line(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(ode, "MAX_STEPS", 50)
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
              "rho must be +1 or -1, got 2"),
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

    def test_wrong_generator_fails_the_oracle_check(self, capsys, monkeypatch):
        import osclab.isometry as iso_mod
        criterion = iso_mod.lattice_criterion
        monkeypatch.setattr(iso_mod, "lattice_criterion", lambda values: dataclasses.replace(
            criterion(values), generator=Fraction(2, 3)))
        code, rep, _ = run_json(capsys, "lattice-check", "--lambda", "2/3,1,5/3", "--exact")
        assert code == 1 and rep["generator"] == "2/3"
        assert [(c["name"], c["pass"]) for c in rep["checks"]] == [("oracle_agreement", False)]

    def test_non_numeric_float_lattice_exits_2(self, capsys):
        code, out, err = run(capsys, "lattice-check", "--lambda", "1,x")
        assert_one_line_input_error(code, out, err, "bad --lambda")

    @pytest.mark.parametrize("lam", ["nan", "1,inf", "-1,2", "0,1"])
    def test_non_positive_or_non_finite_float_lattice_exits_2(self, capsys, lam):
        code, out, err = run(capsys, "lattice-check", "--lambda", lam)
        assert_one_line_input_error(code, out, err, "frequencies must be positive reals")

    @pytest.mark.parametrize("seed", ["gamma1:c", "gamma1:c=1,rh=2", "gamma1:c=1,c=2"],
                             ids=["no_value", "unknown_key", "repeated_key"])
    def test_malformed_gamma1_seed_exits_2(self, capsys, seed):
        code, out, err = run(capsys, "geodesic-integrate", "--lambda", "1",
                             "--metric", "u1_dim4", "--x0", seed)
        assert_one_line_input_error(code, out, err, f"bad --x0 {seed!r}")

    @pytest.mark.parametrize("argv, needle", [
        (["geodesic-integrate", "--lambda", "1", "--metric", "u1_dim4"],
         "the following arguments are required: --x0"),
        (["geodesic-integrate", "--lambda", "1,2", "--metric",
          '{"kind":"diagonal_sym","eta":[0.3,1.7],"eta_check":[0.7,1.7]}',
          "--x0", "gamma1:c=1"], "gamma1 seeds live on the dim-4 oscillator"),
        (["isometry-polar", "--lambda", "1", "--g", "0.7,0.1,1,0"],
         "the following arguments are required: --u"),
        (["isometry-polar", "--lambda", "1", "--u", json.dumps(_U_OK), "--g", "0.7,0.1,1"],
         "--g needs 4 coordinates"),
        (["metric-info", "--lambda", "1", "--metric",
          '{"kind":"diagonal_sym","eta":[1,2],"eta_check":[1]}'],
         "eta and eta_check must have length 1"),
        (["metric-info", "--lambda", "1,2", "--metric", "lattice_dim4"],
         "lattice_dim4 lives on the dim-4 oscillator, got n=2"),
        (["metric-info", "--lambda", "1", "--metric", '{"kind":"matrix","rows":[[1,0],[0,1]]}'],
         'matrix descriptor needs "rows" of shape 4x4'),
        (["isometry-verify", "--lambda", "1", "--u", "[]"],
         'expected an object with "rho" and a "blocks" list'),
        (["isometry-verify", "--lambda", "1", "--u",
          '{"rho":1,"blocks":[{"v":[0.5,-0.3],"u":[[1,0],[0,1]]}]}'],
         'block 0: "v" must be a list of [re, im] pairs'),
        # The Euclidean block is 5e-8 off symmetric in k's orthonormal frame
        # (5e-11 in the Gram frame): once accepted, its E then drifted 6.3e-6.
        (["geodesic-integrate", "--lambda", "1000", "--metric",
          '{"kind":"matrix","rows":[[1.1,0.7,0,0],[0.3,1.1,0,0],[0,0,0.9,0.5],'
          '[0,0,0.50000005,1.2]]}', "--x0", "0.5,0.1,0.6,-0.4", "--t-max", "1"],
         "not k-symmetric: residual 5.000e-08"),
    ], ids=["no_x0", "gamma1_at_n2", "no_u", "short_g", "eta_length", "lattice_at_n2",
            "matrix_shape", "u_not_an_object", "v_not_pairs", "asymmetric_at_lambda_1e3"])
    def test_missing_or_misplaced_input_exits_2(self, capsys, argv, needle):
        code, out, err = run(capsys, *argv)
        assert_one_line_input_error(code, out, err, needle)

    def test_huge_decimal_exponent_exits_2_before_parsing(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "lattice-check", "--exact", "--lambda", "1e10000000,2")
        assert time.perf_counter() - start < 1.0
        assert_one_line_input_error(code, out, err, "decimal exponents are bounded by 4300")

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
        ({"task": "lattice-check", "lambda": "2/3,1", "exact": True},
         ["lattice-check", "--lambda", "2/3,1", "--exact"]),
    ], ids=["lambda", "x0_and_metric", "g_and_u", "true_is_a_bare_flag"])
    def test_number_lists_are_comma_lists(self, capsys, tmp_path, scenario, argv):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario))
        code, out, err = run(capsys, "run", str(scen))
        assert (code, err) == (0, "")
        assert (code, out) == run(capsys, *argv)[:2]

    @pytest.mark.parametrize("scenario", [[{"task": "isometry-dim"}], {"lambda": [1]}],
                             ids=["not_an_object", "no_task"])
    def test_scenario_without_a_task_field_exits_2(self, capsys, tmp_path, scenario):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(scenario))
        code, out, err = run(capsys, "run", str(scen))
        assert_one_line_input_error(code, out, err, 'must be an object with a "task" field')

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


class TestSolverStops:
    def test_huge_tolerances_on_a_complete_metric_are_no_blowup(self):
        # In a child process, so that a numpy RuntimeWarning would reach stderr.
        proc = run_child("geodesic-integrate", "--lambda", "1", "--metric",
                         '{"kind":"diagonal_sym","eta":[0.3],"eta_check":[0.7]}',
                         "--x0", "0.5,0.1,0.6,-0.4", "--t-max", "100",
                         "--rtol", "1e300", "--atol", "1e300")
        assert proc.returncode == 0 and proc.stderr == ""
        rep = json.loads(proc.stdout)
        assert rep["status"] == ode.UNBOUNDED_GROWTH and rep["t_detected"] is None

    def test_exponential_growth_is_not_counted_as_blowup(self, capsys):
        # A complete_center metric whose linear flow grows past 1e8 in six of
        # the eight runs: the series locates no singularity in any of them.
        code, rep, _ = run_json(
            capsys, "completeness-probe", "--lambda", "1", "--metric",
            '{"kind":"diagonal_sym","eta":[0.5],"eta_check":[2.0]}', "--samples", "4")
        assert code == 0
        assert rep["verdict"] == "complete_center"
        statuses = [s["status"] for s in rep["per_sample"]]
        assert statuses.count(ode.UNBOUNDED_GROWTH) == 6
        assert statuses.count(ode.COMPLETED) == 2
        assert (rep["n_blowup"], rep["earliest_blowup"]) == (0, None)
        assert [(c["name"], c["pass"]) for c in rep["checks"]] == [("no_blowups", True)]


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

    def test_repeated_frequencies_name_the_overflowing_oscillator(self):
        # On lambda = (1, 1, 2), t*l_1 = t*l_2 = 1e308 is finite and t*l_3 is not.
        u = json.dumps({"rho": 1, "blocks": [{"v": [[0, 0], [0, 0]], "u": np.eye(4).tolist()},
                                             {"v": [[0, 0]], "u": np.eye(2).tolist()}]})
        proc = run_child("isometry-polar", "--lambda", "1,1,2", "--u", u,
                         "--g=1e308,0,1,0,1,0,1,0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "t*l_3 is not finite: block 2 rotation" in proc.stderr


class TestMapsBeyondTheChecksPrecision:
    """A true isometry never fails isometry-verify: over |v| from 1 to 1e300
    it exits 0 while the checks resolve the map, and 2 with one line beyond
    (at 1e150 the orthogonality residual read 5.8e283 against 1e-12)."""

    @pytest.mark.parametrize("lam", ["1,2", "0.05,1,1"])
    def test_a_true_isometry_never_exits_1(self, capsys, lam):
        spec = LambdaSpec(tuple(float(v) for v in lam.split(",")))
        maps = random_curv_isometries(spec, np.random.default_rng(3), 1)
        norm = math.sqrt(sum(float(v[0] @ v[0]) for v in maps.vs))
        codes = {}
        for scale in np.concatenate((np.geomspace(1, 1e4, 81), np.geomspace(1e4, 1e300, 75))):
            if lam == "1,2":  # the finding's map, v_1 = (|v|, 1.2)
                u = _u12([scale, 1.2])
            else:  # a random direction
                u = json.dumps({"rho": 1, "blocks": [
                    {"v": (scale / norm * v[0]).reshape(-1, 2).tolist(), "u": w[0].tolist()}
                    for v, w in zip(maps.vs, maps.us)]})
            code, out, err = run(capsys, "isometry-verify", "--lambda", lam, "--u", u)
            if code == 2:
                needle = "float precision" if "alpha" not in err else "alpha is -inf"
                assert_one_line_input_error(code, out, err, needle)
            codes[float(scale)] = code
        assert set(codes.values()) == {0, 2}
        assert all(code == 0 for scale, code in codes.items() if scale <= 10)


def test_initial_state_beyond_the_blowup_threshold_exits_2_with_one_line():
    # The state and its right-hand side are finite, but the solver's first
    # step guess would divide by zero.
    proc = run_child("geodesic-integrate", "--lambda", "1", "--metric", "u1_dim4",
                     "--x0", "1e100,1,1,1", "--t-max", "3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: initial state max-norm 1.000e+100 already exceeds "
                           "the blow-up threshold 1e+08\n")


_DIAG_1E300 = json.dumps({"kind": "matrix", "rows": (1e300 * np.eye(4)).tolist()})


class TestOutOfRangeInitialState:
    """A finite initial state beyond the blow-up threshold, or whose first
    right-hand side overflows, exits 2 with the solver's one stderr line.
    Child processes, as above."""

    @pytest.mark.parametrize("metric, x0, needle", [
        ("u1_dim4", "gamma1:c=1e200", "already exceeds the blow-up threshold"),
        ("u1_dim4", "1e200,1e200,1e200,1e200", "already exceeds the blow-up threshold"),
        (_DIAG_1E300, "1e7,1e7,1e7,1e7", "overflows the float range"),
    ], ids=["gamma1", "coordinates", "rhs_overflow"])
    def test_exits_2_with_one_stderr_line(self, metric, x0, needle):
        proc = run_child("geodesic-integrate", "--lambda", "1", "--metric", metric,
                         "--x0", x0, "--t-max", "3")
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and needle in proc.stderr


@pytest.mark.parametrize("argv, guess", [
    # f(t0, y0) over the tolerance scale overflows (at lambda = 1e100 the run
    # ends as step_underflow): the solver divided by the guess 0.
    (["--lambda", "1e150", "--metric",
      '{"kind":"diagonal_sym","eta":[1e150],"eta_check":[2e150]}', "--x0", "1,0.5,1,0"], 0.0),
    # A zero of the tolerance scale where y0 is 0 gives 0/0: the run never ended.
    (["--lambda", "1", "--metric", "u1_dim4", "--x0", "0,0.5,1,0", "--atol", "0"], math.nan),
], ids=["overflow", "zero_over_zero"])
def test_first_step_guess_of_0_or_nan_exits_2_with_one_line(argv, guess):
    proc = run_child("geodesic-integrate", *argv, "--t-max", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: no first step at t=0.0 (guess {guess}): y0 or f(t0, y0) "
                           "over the tolerance scale atol + rtol |y0| overflows or is 0/0\n")


_DIAG_1E160 = json.dumps({"kind": "matrix", "rows": (1e160 * np.eye(4)).tolist()})


@pytest.mark.parametrize("form", ["body", "euler_u", "lax"])
def test_nan_integral_drift_fails_its_check(form):
    # k(ux, ux) overflows for a 1e160-scaled u, so the drift of A is NaN.
    proc = run_child("geodesic-integrate", "--lambda", "1", "--metric", _DIAG_1E160,
                     "--form", form, "--x0", "0.5,0.1,0.6,-0.4", "--t-max", "1")
    rep = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert proc.returncode == 1 and rep["status"] == ode.COMPLETED
    assert rep["integral_drift"]["A"] is None  # JSON has no NaN: written as null
    check = [c for c in rep["checks"] if c["name"] == "integral_drift"][0]
    assert check["pass"] is False and check["residual"] is None


@pytest.mark.parametrize("form", ["body", "euler_u", "lax"])
def test_overflowing_integral_warns_nothing(capsys, form):
    # k(ux, ux) overflows for a 1e300-scaled u.  In process, so that a numpy
    # RuntimeWarning fails the test.
    code, rep, err = run_json(capsys, "geodesic-integrate", "--lambda", "1", "--metric",
                              _DIAG_1E300, "--form", form, "--x0", "1e-7,1e-7,1e-7,1e-7",
                              "--t-max", "1")
    assert code == 1 and rep["integral_drift"]["A"] is None
    check = [c for c in rep["checks"] if c["name"] == "integral_drift"][0]
    assert check["pass"] is False and check["residual"] is None


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# Output paths that cannot be written: each must exit 2 with one stderr line.
_UNWRITABLE = {
    "out_missing_dir": ["algebra-check", "--samples", "10", "--out", "/nonexistent/x.json"],
    "out_directory": ["algebra-check", "--samples", "10", "--out", str(_SRC)],
    "csv_missing_dir": ["geodesic-integrate", "--metric", "u1_dim4", "--x0", "gamma1:c=1,rho=1",
                        "--t-max", "0.1", "--out-csv", "/nonexistent/t.csv"],
}


@pytest.mark.parametrize("argv", [
    ["geodesic-integrate", "--metric", _DIAG_RHO, _X0_RHO, "--t-max=1e6",
     "--rtol", "1e158", "--atol", "1e158"],
    ["geodesic-integrate", "--metric", _DIAG_RHO, _X0_RHO, "--t-max=1e6",
     "--rtol", "1e300", "--atol", "1e300"],
    ["geodesic-integrate", "--metric", "u2_dim4", "--rtol", "1e52", "--atol", "1e52",
     "--x0=4.13259793472436,-232.50307746388344,-21.87916639325457,-124.59109472530652",
     "--t-max", "10"],
    ["metric-info", "--metric", '{"kind":"diagonal_sym","eta":[2e-11],"eta_check":[1]}'],
    *_UNWRITABLE.values(),
], ids=["error_norm_underflow", "tolerance_1e300", "u2_non_finite_trial", "near_degenerate",
        *_UNWRITABLE])
def test_no_traceback(argv):
    proc = run_child(argv[0], "--lambda", "1", *argv[1:])
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr
    if argv in _UNWRITABLE.values():
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: cannot write ")
    if proc.returncode in (0, 1):
        # Nothing on stderr: rejected overflowing trials warn no more.
        assert proc.stderr == ""
        json.loads(proc.stdout, parse_constant=_reject_constant)


def test_out_dev_null_exits_0(capsys):
    # Not a regular file: written, never cut to length.
    assert main(["isometry-dim", "--lambda", "1", "--out", os.devnull]) == 0
    assert main(["geodesic-integrate", "--lambda", "1", "--metric", "u1_dim4",
                 "--x0", "gamma1:c=1,rho=1", "--t-max", "0.1", "--out-csv", os.devnull]) == 0
    capsys.readouterr()


def test_algebra_check_makes_no_ad_call(capsys, monkeypatch):
    # center, derived_ideal and cartan read ad(e_a) from the cached bracket table.
    import osclab.algebra as alg
    calls = []
    ad = alg.ad
    monkeypatch.setattr(alg, "ad", lambda spec, x: calls.append(x) or ad(spec, x))
    code, rep, _ = run_json(capsys, "algebra-check", "--lambda", "1,2,2,3", "--samples", "10")
    dims = [c for c in rep["checks"] if c["name"] == "subspace_dims"][0]
    assert code == 0 and dims["value"] == [1, 9, 2] and calls == []


def test_isometry_verify_takes_one_triple_bracket_residual_over_the_stack(capsys, monkeypatch):
    # perfbench's isometry.triple_bracket_ms is a per-call time of this
    # function, so one call per run of the task: the stack of all its maps.
    import osclab.isometry as iso_mod
    calls = []
    residual = iso_mod.triple_bracket_residual
    monkeypatch.setattr(iso_mod, "triple_bracket_residual",
                        lambda spec, m: calls.append(np.shape(m)) or residual(spec, m))
    code, rep, _ = run_json(capsys, "isometry-verify", "--lambda", "1,2,2", "--samples", "7")
    assert code == 0 and rep["samples"] == 7 and calls == [(7, 8, 8)]


def test_isometry_verify_draws_and_checks_its_maps_as_one_stack(capsys, monkeypatch):
    # One QR per frequency block, not per sample, and one IsometryRows
    # validation each for the drawn maps and their round trip; the polar rows
    # are taken from the drawn stack without a second one.
    import osclab.isometry as iso_mod
    qr_shapes, validated = [], []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, *args: qr_shapes.append(a.shape) or qr(a, *args))
    post_init = iso_mod.IsometryRows.__post_init__
    monkeypatch.setattr(iso_mod.IsometryRows, "__post_init__",
                        lambda self: validated.append(len(self.rho)) or post_init(self))
    for n in (7, 13):
        qr_shapes.clear()
        validated.clear()
        code, rep, _ = run_json(capsys, "isometry-verify", "--lambda", "1,2,2,3",
                                "--samples", str(n))
        assert code == 0 and rep["samples"] == n
        assert qr_shapes == [(n, 2, 2), (n, 4, 4), (n, 2, 2)]
        assert validated == [n, n]


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


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows it.
    code = "import sys, osclab, osclab.cli; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_submodule():
    # The package holds its docstring and version; callers import submodules.
    code = ("import sys, osclab; "
            "loaded = [m for m in sys.modules if m.startswith('osclab.')]; "
            "assert not loaded, loaded")
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_isometry_verify_does_not_load_numpy_ma():
    # numpy.ma (about 1.3 MB resident) comes in with np.unique, for one.
    code = ("import sys; from osclab.cli import main; "
            "assert main(['isometry-verify', '--lambda', '1,1.5,2,3,3', '--samples', '2', "
            "'--out', sys.argv[1]]) == 0; assert 'numpy.ma' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_residual_of_a_map_reaching_no_row_does_not_load_numpy_ma():
    # The zero map reaches no residual row, and its plan pads the rows to two.
    code = ("import sys, numpy as np; from osclab.algebra import LambdaSpec; "
            "from osclab.isometry import triple_bracket_residual; "
            "assert triple_bracket_residual(LambdaSpec((1.0, 2.0)), np.zeros((6, 6))) == 0; "
            "assert 'numpy.ma' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


# -- one spec per frequency tuple -------------------------------------------------

_REPORT_TASKS = ("algebra-check", "metric-info", "connection-report", "locsym-check",
                 "full-report", "isometry-verify", "isometry-polar", "isometry-dim",
                 "lattice-check")


def _u_descriptor(iso):
    return json.dumps({"rho": int(iso.rho), "blocks": [
        {"v": v.reshape(-1, 2).tolist(), "u": u.tolist()} for v, u in zip(iso.vs, iso.us)]})


def report_argvs(n, rng):
    """One argv for each non-integrating task at n oscillators, all on one
    lambda of small rationals, so repeated frequencies are common."""
    fracs = sorted(((int(rng.integers(1, 5)), int(rng.choice([1, 2]))) for _ in range(n)),
                   key=lambda pq: pq[0] / pq[1])
    lams = [p / q for p, q in fracs]
    lam = ",".join(repr(v) for v in lams)
    u = _u_descriptor(random_curv_isometries(LambdaSpec(tuple(lams)), rng, 1)[0])
    g = ",".join(repr(v) for v in rng.standard_normal(2 * n + 2).tolist())
    diag = json.dumps({"kind": "diagonal_sym", "eta": rng.uniform(0.3, 2.0, n).tolist(),
                       "eta_check": rng.uniform(0.3, 2.0, n).tolist(), "rho": 0.4})
    seed = str(int(rng.integers(2**31)))
    return [["algebra-check", "--lambda", lam, "--seed", seed, "--samples", "20"],
            ["metric-info", "--lambda", lam, "--metric", diag],
            ["connection-report", "--lambda", lam, "--seed", seed, "--metric", diag],
            ["locsym-check", "--lambda", lam, "--metric", diag],
            ["full-report", "--lambda", lam, "--seed", seed, "--metric", diag],
            ["isometry-verify", "--lambda", lam, "--seed", seed, "--samples", "5"],
            ["isometry-polar", "--lambda", lam, "--u", u, "--g=" + g],
            ["isometry-dim", "--lambda", lam],
            ["lattice-check", "--lambda", ",".join(f"{p}/{q}" for p, q in fracs), "--exact"]]


class TestSpecCache:
    def test_equal_frequency_tuples_share_one_spec(self):
        import osclab.cli as cli

        assert cli._parse_lambda("1,2") is cli._parse_lambda("1.0,2")
        assert cli._parse_lambda("1,2") is cli._parse_lambda(" 1, 2.0 ,")
        assert cli._parse_lambda("1,2") is not cli._parse_lambda("1,2,2")

    def test_cache_stays_at_its_bound(self):
        import osclab.cli as cli

        cli._spec_of.cache_clear()
        bound = cli._spec_of.cache_info().maxsize
        assert bound is not None
        specs = [cli._parse_lambda(f"1,{2 + k}") for k in range(bound + 5)]
        assert cli._spec_of.cache_info().currsize == bound
        assert specs[-1] is cli._parse_lambda(f"1,{2 + bound + 4}")
        assert specs[0] is not cli._parse_lambda("1,2") and specs[0] == cli._parse_lambda("1,2")

    @pytest.mark.parametrize("bad, needle", [
        ("1,x", "bad --lambda '1,x': could not convert string to float: 'x'"),
        ("0,1", "bad --lambda '0,1': frequencies must be positive reals, got (0.0, 1.0)"),
        ("2,1", "bad --lambda '2,1': frequencies must be non-decreasing, got (2.0, 1.0)"),
        (",", "bad --lambda ',': need at least one frequency"),
    ])
    def test_bad_lambda_after_a_good_one_exits_2(self, capsys, bad, needle):
        for _ in range(2):  # an error is raised again, not cached
            assert run(capsys, "isometry-dim", "--lambda", "1,2")[0] == 0
            code, out, err = run(capsys, "isometry-dim", "--lambda", bad)
            assert_one_line_input_error(code, out, err, needle)
            assert err == f"error: {needle}\n"

    def test_cleared_and_warm_cache_write_the_same_bytes(self, capsys):
        import osclab.cli as cli

        argvs = [argv for n in range(1, 7)
                 for argv in report_argvs(n, np.random.default_rng([25, n]))]
        assert sorted({argv[0] for argv in argvs}) == sorted(_REPORT_TASKS)

        def outputs(clear):
            got = []
            for argv in argvs:
                if clear:
                    cli._spec_of.cache_clear()
                got.append(run(capsys, *argv))
            return got

        cold = outputs(clear=True)
        assert all(code == 0 and err == "" for code, _, err in cold)
        outputs(clear=False)
        assert outputs(clear=False) == cold

    def test_a_given_map_leaves_no_plan_state_for_random_maps(self, capsys):
        import osclab.cli as cli

        lam, spec = "0.5,1,1,2", LambdaSpec((0.5, 1.0, 1.0, 2.0))
        rng = np.random.default_rng(2025)
        given_maps = [_u_descriptor(random_curv_isometries(spec, rng, 1)[0]),
                      json.dumps({"rho": 1, "blocks": [{"v": [[0, 0]] * r,
                                                        "u": np.eye(2 * r).tolist()}
                                                       for _, r in spec.blocks]})]
        random_maps = ["isometry-verify", "--lambda", lam, "--seed", "7", "--samples", "9"]
        cli._spec_of.cache_clear()
        cold = run(capsys, *random_maps)
        for u in given_maps:
            cli._spec_of.cache_clear()
            assert run(capsys, "isometry-verify", "--lambda", lam, "--u", u)[0] == 0
            assert cli._parse_lambda(lam).__dict__["_residual_plans"]
            assert run(capsys, *random_maps) == cold
            assert run(capsys, *random_maps) == cold


class TestFloatRangeFindings:
    """Cases the argv fuzz found; each gave a traceback or a numpy warning."""

    def test_metric_info_indexes_the_bi_invariant_form_at_a_huge_frequency(self, capsys):
        # The form's own eigenvalues 1/l_j fall under the relative degeneracy
        # rule of metric_from_iso, which once raised here.
        code, rep, err = run_json(capsys, "metric-info", "--lambda", "1e13", "--metric",
                                  '{"kind":"diagonal_sym","eta":[1e13],"eta_check":[1e13]}')
        k_index = [c for c in rep["checks"] if c["name"] == "k_index"][0]
        assert code == 0 and err == "" and k_index["value"] == 1

    def test_overflowing_brackets_fail_their_check_without_a_warning(self, capsys):
        code, out, err = run_in_process(capsys, ["algebra-check", "--lambda", "1e300",
                                                 "--samples", "5"])
        jacobi = [c for c in json.loads(out)["checks"] if c["name"] == "jacobi"][0]
        assert code == 1 and err == "" and jacobi["residual"] is None

    def test_random_maps_beyond_the_float_range_exit_2(self, capsys):
        code, out, err = run(capsys, "isometry-verify", "--lambda", "1e-308")
        assert_one_line_input_error(code, out, err, "maps beyond the float range")

    @pytest.mark.parametrize("task", [["connection-report"], ["geodesic-integrate", "--x0",
                                                              "1,0,0,0", "--t-max", "1"]])
    def test_singular_u_with_a_regular_gram_matrix_exits_2(self, capsys, task):
        # K u is not symmetric, but by less than the tolerance, and its
        # symmetric part is regular while u is singular.
        u = '{"kind":"matrix","rows":[[0,0,0,0],[1e-20,2e-20,0,0],[0,0,1e-20,0],[0,0,0,1e-20]]}'
        code, out, err = run(capsys, task[0], "--lambda", "1", "--metric", u, *task[1:])
        assert_one_line_input_error(code, out, err, "u is singular")


# -- argv fuzz ----------------------------------------------------------------------

# Malformed, non-finite, huge and negative tokens of a number or a comma list.
_BAD_TOKENS = st.one_of(
    st.sampled_from(["-1", "0", "-0", "nan", "inf", "-inf", "1e400", "-1e400", "x", "",
                     " ", "0x10", "1_0", "+2", "1e5000", "2/0", "1/-2", "--1"]),
    st.floats().map(repr), st.integers(-10**30, 10**30).map(str))
_BAD_JSON = st.sampled_from(["{", "[]", "null", "1", '"u1_dim4"', "nope", "@/nonexistent/x.json",
                             '{"kind": "matrix"}', '{"rho": 1}', '{"kind": "diagonal_sym"}'])
_BAD_NUMBER = st.sampled_from([True, None, "1", [], {}, float("nan"), float("inf"), 10**400])
_FREQUENCY = st.one_of(st.sampled_from([1.0, 1.0, 2.0, 0.5, 1 / 3, 1e-150, 1e150, 1e300,
                                        5e-324, 1.7976931348623157e308]),
                       st.floats(min_value=1e-300, max_value=1e300))
_FINITE = st.one_of(st.floats(-10, 10), st.floats(allow_nan=False, allow_infinity=False))
_SCALE = st.one_of(st.just(1.0), _FINITE)
# Times of the integrating tasks: valid ones keep |t| <= 1, bad ones are
# refused before the first step.
_TIME = st.floats(-1, 1).map(repr)
_BAD_TIME = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "x", "", "0x10", "2/0",
                             "--1"])
_TOLERANCE = st.sampled_from(["1e-10", "1e-6", "1e-3", "1", "1e300", "1e-12", "0"])
_BAD_TOLERANCE = st.sampled_from(["-1", "-1e-10", "nan", "inf", "-inf", "1e400", "x", ""])


def _json(obj):
    return json.dumps(obj, allow_nan=True)


def _diagonal_metric(eta, eta_check, rho):
    return _json({"kind": "diagonal_sym", "eta": eta, "eta_check": eta_check, "rho": rho})


def _scaled_curv_isometry(lams, seed, scale, rho):
    """scale * v of a random map of lams' block sizes, drawn at tame frequencies."""
    tame = [float(k) for k, (_, r) in enumerate(LambdaSpec(lams).blocks, 1) for _ in range(r)]
    iso = random_curv_isometries(LambdaSpec(tuple(tame)), np.random.default_rng(seed), 1)[0]
    with np.errstate(over="ignore"):
        return _json({"rho": rho, "blocks": [{"v": (scale * v).reshape(-1, 2).tolist(),
                                              "u": u.tolist()} for v, u in zip(iso.vs, iso.us)]})


def _scaled_matrix_metric(lams, seed, scale):
    """scale * u for the k-symmetric u = K^-1 (S + S^T) with a random S, or the
    identity for seed None."""
    gram = k_lambda(LambdaSpec(lams)).gram
    s = np.random.default_rng(seed).standard_normal(gram.shape)
    with np.errstate(all="ignore"):
        u = np.eye(len(gram)) if seed is None else np.linalg.solve(gram, s + s.T)
        return _json({"kind": "matrix", "rows": (scale * u).tolist()})


def _valid_or_bad(draw, valid, bad, kinds=("valid",) * 5 + ("bad", "missing")):
    """A valid or a bad value, or None to leave the flag out, drawn as one of
    ``kinds``; by default valid most of the time."""
    kind = draw(st.sampled_from(kinds))
    return None if kind == "missing" else draw(valid if kind == "valid" else bad)


@st.composite
def _report_argv(draw, task, probe=False):
    """A command line of ``task``: each flag valid, missing, or malformed,
    non-finite, huge or negative, on 1 to 4 oscillators.  An integrating
    task (or a full-report that probes) always spans |t| <= 1 with at most
    2 probe samples; so that most of its command lines reach the solver, it
    spoils at most one flag and draws tame frequencies and regular metrics
    more often."""
    integrating = probe or task in ("geodesic-integrate", "completeness-probe")
    tame = st.floats(0.1, 10)
    n = draw(st.integers(1, 4))
    lams = st.lists(_FREQUENCY, min_size=n, max_size=n)
    if integrating:
        lams = st.one_of(st.lists(tame, min_size=n, max_size=n), lams)
    lams = tuple(sorted(draw(lams)))
    d, seed = 2 * n + 2, draw(st.integers(0, 2**32))
    bad_list = st.lists(_BAD_TOKENS, min_size=0, max_size=4).map(",".join)
    if task == "lattice-check":
        exact = st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
                         min_size=1, max_size=4).map(lambda pq: ",".join(f"{p}/{q}" for p, q in pq))
        valid_lambda = st.one_of(exact, st.just(",".join(map(repr, lams))))
    else:
        valid_lambda = st.just(",".join(map(repr, lams)))
    flags = {"--lambda": (valid_lambda, bad_list),
             "--seed": (st.integers(0, 2**64).map(str),
                        st.one_of(st.integers(-2**64, -1).map(str), _BAD_TOKENS))}
    if task in ("metric-info", "connection-report", "locsym-check", "full-report",
                "geodesic-integrate", "completeness-probe"):
        entries = st.lists(st.one_of(_FINITE, _BAD_NUMBER), min_size=n, max_size=n)
        families = ["u1_dim4", "u2_dim4", "lattice_dim4"] if n == 1 else ["matrix"]
        regular = st.lists(tame, min_size=n, max_size=n)
        flags["--metric"] = (st.one_of(
            *[st.builds(_diagonal_metric, regular, regular, tame)] * integrating,
            st.sampled_from(families),
            st.builds(_diagonal_metric, st.lists(_FINITE, min_size=n, max_size=n),
                      st.lists(_FINITE, min_size=n, max_size=n), _FINITE),
            st.builds(_scaled_matrix_metric, st.just(lams), st.sampled_from([None, seed]),
                      _SCALE)),
            st.one_of(_BAD_JSON, st.builds(_diagonal_metric, entries, entries,
                                           st.one_of(_FINITE, _BAD_NUMBER))))
    if task in ("algebra-check", "isometry-verify"):
        flags["--samples"] = (st.integers(1, 30).map(str), st.one_of(
            st.sampled_from(["0", "10001", str(10**20), "1e3"]), _BAD_TOKENS))
    if task in ("isometry-verify", "isometry-polar"):
        flags["--u"] = (st.builds(_scaled_curv_isometry, st.just(lams), st.just(seed), _SCALE,
                                  st.sampled_from([1, 1, -1])),
                        st.one_of(_BAD_JSON, st.builds(_scaled_curv_isometry, st.just(lams),
                                                       st.just(seed), _SCALE,
                                                       st.one_of(_BAD_NUMBER, st.just(2)))))
    if task == "isometry-polar":
        flags["--g"] = (st.lists(_FINITE, min_size=d, max_size=d).map(
            lambda v: ",".join(map(repr, v))), bad_list)
    if task == "full-report":
        flags["--probe-samples"] = (st.sampled_from(["1", "2"] if probe else ["0"]),
                                    st.sampled_from(["-1", "-7", "x", "1.5"]))
        flags["--t-max"] = (_TIME, _BAD_TIME) if probe else (_FINITE.map(repr), _BAD_TOKENS)
    if task == "completeness-probe":
        flags["--samples"] = (st.sampled_from(["1", "2"]),
                              st.sampled_from(["0", "-1", "10001", "x", "1.5", "1e3"]))
        flags["--t-max"] = (_TIME, _BAD_TIME)
    if task == "geodesic-integrate":
        coordinates = st.lists(st.floats(-10, 10), min_size=d, max_size=d).map(
            lambda v: ",".join(map(repr, v)))
        gamma1 = st.builds("gamma1:c={!r},rho={!r}".format, _FINITE, st.floats(-10, 10))
        flags["--x0"] = (st.one_of(coordinates, gamma1) if n == 1 else coordinates,
                         st.one_of(bad_list, gamma1, st.sampled_from(
                             ["gamma1:c", "gamma1:c=0", "gamma1:c=1,rh=2", "gamma1:c=1,c=2"])))
        flags["--t-max"] = flags["--t-min"] = (_TIME, _BAD_TIME)
        flags["--form"] = (st.sampled_from(["body", "euler_u", "lax"]), st.just("x"))
        flags["--rtol"] = flags["--atol"] = (_TOLERANCE, _BAD_TOLERANCE)
    # No flag of an integrating task is spoiled in about half its command lines.
    spoiled = draw(st.sampled_from([None] * len(flags) + [*flags])) if integrating else None
    argv = [task, "--json"]
    for flag, (valid, bad) in flags.items():
        if not integrating:
            value = _valid_or_bad(draw, valid, bad)
        else:  # a missing --t-max would take the task's default span
            value = _valid_or_bad(draw, valid, bad, ["valid"] if flag != spoiled else
                                  ["bad"] + ["missing"] * (flag != "--t-max"))
        if value is not None:
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if task == "lattice-check" and draw(st.booleans()):
        argv.append("--exact")
    return argv


def run_in_process(capsys, argv):
    """Exit code, stdout and stderr of one in-process ``main`` call, where a
    numpy warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("task, probe", [
    *((task, False) for task in _REPORT_TASKS),
    ("geodesic-integrate", False), ("completeness-probe", False), ("full-report", True),
], ids=[*_REPORT_TASKS, "geodesic-integrate", "completeness-probe", "full-report-probing"])
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_argv_fuzz_keeps_the_input_contract(capsys, task, probe, data):
    # Many main calls in one process, as the spec cache serves them.
    code, out, err = run_in_process(capsys, data.draw(_report_argv(task, probe)))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
