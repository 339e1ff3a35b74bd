"""Golden outputs: trajectory CSVs with their step counts, and CLI reports.

Each trajectory case integrates one fixed initial state and must reproduce
its CSV under ``tests/golden/`` byte for byte, together with the exact
accepted and rejected step counts in ``tests/golden/counts.json``.  Any
change to the solver's arithmetic, the right-hand sides, the first
integrals or the CSV writer shows here.

Each CLI case runs one README command-line example and must write the JSON
report under ``tests/golden/cli/`` byte for byte (and, for
``geodesic-integrate``, its trajectory CSV), so a change to the bracket, the
form, the connection, the flows or the isometry code that moves any reported
bit shows here.  Every case runs from a fresh working directory, so relative
output paths such as ``--out-csv traj.csv`` are reported as written.

Regenerate (only for an intended change of output) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import pathlib
import shutil
import tempfile

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from osclab import cli, flows
from osclab.algebra import LambdaSpec
from osclab.metrics import k_lambda, metric_from_iso, parse_sym_iso

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CLI_GOLDEN = GOLDEN / "cli"
TOL = {"rtol": 1e-10, "atol": 1e-12}

# n = 2 metric that stabilizes the Cartan subalgebra and moves the center,
# so the adapted-frame quadratic family Q1..Q4 is registered.
_CARTAN_ROWS = [[1.1, 0.7, 0, 0, 0, 0], [0.3, 1.1, 0, 0, 0, 0],
                [0, 0, 0.9, 0, 0, 0], [0, 0, 0, -1.4, 0, 0],
                [0, 0, 0, 0, 2.2, 0], [0, 0, 0, 0, 0, 0.5]]
_SHORT = {
    1: ((1.0,), {"kind": "diagonal_sym", "eta": [0.3], "eta_check": [0.7], "rho": 0.9},
        [0.5, 0.1, 0.6, -0.4]),
    2: ((1.0, 2.0), {"kind": "matrix", "rows": _CARTAN_ROWS},
        [0.3, -0.2, 0.5, 0.1, -0.4, 0.2]),
    # A repeated frequency, and the sizes the benchmark integrates at.
    3: ((1.0, 1.0, 2.0),
        {"kind": "diagonal_sym", "eta": [0.4, 1.3, 0.8], "eta_check": [0.6, 0.9, 1.5],
         "rho": 0.9},
        [0.4, -0.3, 0.2, -0.5, 0.3, 0.1, 0.6, -0.2]),
    6: ((0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
        {"kind": "diagonal_sym", "eta": [0.3, 1.4, 0.8, -0.6, 2.0, 1.2],
         "eta_check": [0.7, -0.4, 0.8, -0.6, -1.0, 1.2], "rho": -0.5},
        [0.3, 0.2, 0.1, -0.2, 0.3, 0.25, -0.1, 0.15, -0.3, 0.2, 0.05, -0.25, 0.1, 0.2]),
}


def _metric(lams, desc):
    spec = LambdaSpec(tuple(lams))
    return metric_from_iso(k_lambda(spec), parse_sym_iso(spec, desc))


def cases():
    """name -> FlowProblem for every pinned run."""
    out = {}
    for n, (lams, desc, x) in _SHORT.items():
        m = _metric(lams, desc)
        for form in (flows.BODY, flows.EULER, flows.LAX):
            x0 = m.iso.matrix @ np.asarray(x) if form == flows.LAX else x
            out[f"{form}_n{n}"] = flows.FlowProblem(m, x0, (0.0, 5.0), form=form, **TOL)
    out["gamma1_blowup"] = flows.FlowProblem(
        _metric((1.0,), {"kind": "u1_dim4"}), flows.analytic_gamma1(1.0, 1.0, 0.0),
        (0.0, 3.0), **TOL)
    # Loose tolerances make the controller reject steps near the pole.
    out["gamma1_loose"] = flows.FlowProblem(
        _metric((1.0,), {"kind": "u1_dim4"}), flows.analytic_gamma1(1.0, 1.0, 0.0),
        (0.0, 3.0), rtol=1e-6, atol=1e-8)
    out["u2_blowup"] = flows.FlowProblem(
        _metric((1.0,), {"kind": "u2_dim4"}), [0.0, 1.0, 0.5, -2.0], (0.0, 5.0), **TOL)
    return out


CASES = cases()
# The twelve short runs, which complete their span.
COMPLETING = sorted(f"{form}_n{n}" for n in _SHORT
                    for form in (flows.BODY, flows.EULER, flows.LAX))


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(name):
    counts = json.loads((GOLDEN / "counts.json").read_text())
    traj = flows.integrate(CASES[name])
    assert flows.trajectory_csv(traj) == (GOLDEN / f"{name}.csv").read_text()
    assert [traj.n_steps, traj.n_rejected] == counts[name]


@pytest.mark.parametrize("name", COMPLETING)
def test_completing_case_matches_a_tight_reference(name):
    # An independent integrator at a thousandfold tighter tolerance: the
    # end state of a run is checked against the flow, not only its golden.
    problem = CASES[name]
    traj = flows.integrate(problem)
    assert traj.completed and traj.ts[-1] == problem.t_span[1] == 5.0
    ref = solve_ivp(problem.rhs, problem.t_span, problem.x0, method="DOP853",
                    rtol=1e-13, atol=1e-15).y[:, -1]
    err = np.max(np.abs(traj.ys[-1] - ref))
    assert err <= 1e-9 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("path", ["gamma1_blowup.csv", "cli/geodesic_integrate.csv"])
def test_blowup_goldens_locate_the_pole(path):
    lines = (GOLDEN / path).read_text().splitlines()
    assert lines[-1].startswith("# status=blowup t_detected=")
    t_detected = float(lines[-1].split("t_detected=")[1])
    assert abs(t_detected - math.pi / 2) <= 1e-9 * math.pi / 2
    # The last row is the stop, the first state past |x| = 1e2.
    stop = [float(v) for v in lines[-2].split(",")]
    assert stop[0] < t_detected and 1e2 < max(map(abs, stop[1:5])) < 1e3


# The goldens a blow-up run writes: the only ones whose bytes depend on the
# blow-up rule.  Every other golden records no blow-up, and so keeps its
# bytes when that rule changes.
BLOWUP_GOLDENS = {"gamma1_blowup.csv", "gamma1_loose.csv", "u2_blowup.csv",
                  "cli/geodesic_integrate.json", "cli/geodesic_integrate.csv"}


def test_only_the_blowup_goldens_record_a_blowup():
    found = set()
    for path in sorted(GOLDEN.rglob("*")):
        text = path.read_text() if path.is_file() else ""
        if "# status=blowup" in text or '"status": "blowup"' in text:
            found.add(path.relative_to(GOLDEN).as_posix())
    assert found == BLOWUP_GOLDENS
    counts = json.loads((GOLDEN / "counts.json").read_text())
    stopped = {f"{name}.csv" for name in counts if name not in COMPLETING}
    assert stopped == {p for p in BLOWUP_GOLDENS if "/" not in p}


# The README examples as written (default seed 0), a larger algebra-check,
# a full-report at n = 2 with a non-default seed, isometry-verify at n = 5
# and n = 6 with a repeated block and on a rho = -1 map, and the integrating
# tasks: a gamma1 blow-up with its CSV, a short probe and a full-report with
# a probe.
_LOCSYM_N1 = '{"kind":"diagonal_sym","eta":[0.3],"eta_check":[0.7]}'
CLI_CASES = {
    "geodesic_integrate": ["geodesic-integrate", "--lambda", "1", "--metric", "u1_dim4",
                           "--x0", "gamma1:c=1,rho=1", "--t-max", "3",
                           "--out-csv", "traj.csv"],
    "completeness_probe": [
        "completeness-probe", "--lambda", "1,2", "--metric",
        '{"kind":"diagonal_sym","eta":[0.4,1.3],"eta_check":[0.6,1.3]}',
        "--samples", "3", "--t-max", "10"],
    "full_report_probe": ["full-report", "--lambda", "1", "--metric", _LOCSYM_N1,
                          "--probe-samples", "2", "--t-max", "5"],
    "algebra_check": ["algebra-check", "--lambda", "1,2"],
    "algebra_check_n4": ["algebra-check", "--lambda", "1,1,2,3", "--samples", "1000"],
    "metric_info": ["metric-info", "--lambda", "1", "--metric", "u2_dim4"],
    "connection_report": [
        "connection-report", "--lambda", "1,2", "--metric",
        '{"kind":"diagonal_sym","eta":[0.4,1.1],"eta_check":[0.6,1.1]}'],
    "locsym_check": ["locsym-check", "--lambda", "1", "--metric",
                     '{"kind":"diagonal_sym","eta":[2.0],"eta_check":[5.0]}'],
    "full_report": ["full-report", "--lambda", "1", "--metric", _LOCSYM_N1],
    "full_report_n2": ["full-report", "--lambda", "1,2", "--seed", "5", "--metric",
                       '{"kind":"diagonal_sym","eta":[0.4,1.3],"eta_check":[0.6,1.3],'
                       '"rho":0.9}'],
    "isometry_dim": ["isometry-dim", "--lambda", "1,1,2"],
    "isometry_verify": ["isometry-verify", "--lambda", "1,1,2"],
    "isometry_verify_n6": ["isometry-verify", "--lambda", "0.5,1,1,2,3,4",
                           "--seed", "3"],
    "isometry_verify_n5": ["isometry-verify", "--lambda", "1,1.5,2,3,3"],
    # rho = -1 (one rotation block, one reflection block): no polar check.
    "isometry_verify_reflected": [
        "isometry-verify", "--lambda", "1,2", "--u",
        '{"rho":-1,"blocks":[{"v":[[0.3,-0.2]],"u":[[0.6,-0.8],[0.8,0.6]]},'
        '{"v":[[-0.5,0.4]],"u":[[1,0],[0,-1]]}]}'],
    "isometry_polar": ["isometry-polar", "--lambda", "1", "--u",
                       '{"rho":1,"blocks":[{"v":[[0.5,-0.3]],"u":[[1,0],[0,1]]}]}',
                       "--g", "0.7,0.1,1.0,0.0"],
    "lattice_check": ["lattice-check", "--lambda", "2/3,1,5/3", "--exact"],
    # isometry-verify on a stack of 50 maps with repeated blocks and on a
    # stack of one; isometry-polar at n = 6 with a repeated block.
    "isometry_verify_stack50": ["isometry-verify", "--lambda", "1,1,2,2,2,3",
                                "--samples", "50", "--seed", "7"],
    "isometry_verify_one": ["isometry-verify", "--lambda", "2", "--samples", "1"],
    # One 12x12 frequency block, the largest set of residual rows a map's
    # zero pattern reaches; and a map with exact zeros inside the support of
    # the parametrization (a zero translation and a sparse rotation).
    "isometry_verify_one_block_n6": ["isometry-verify", "--lambda", "1,1,1,1,1,1",
                                     "--seed", "2"],
    "isometry_verify_sparse_u": [
        "isometry-verify", "--lambda", "1,1,2", "--u",
        '{"rho":1,"blocks":[{"v":[[0,0],[0,0]],"u":[[1,0,0,0],[0,1,0,0],[0,0,1,0],'
        '[0,0,0,1]]},{"v":[[0.7,-0.4]],"u":[[0.6,-0.8],[0.8,0.6]]}]}'],
    "isometry_polar_n6": [
        "isometry-polar", "--lambda", "0.5,1,1,2,3,4", "--u",
        '{"rho":1,"blocks":[{"v":[[0.4,-0.7]],"u":[[0.6,-0.8],[0.8,0.6]]},'
        '{"v":[[0.3,0.2],[-0.5,1.1]],"u":[[0.5,0.5,0.5,0.5],[0.5,-0.5,0.5,-0.5],'
        '[0.5,0.5,-0.5,-0.5],[0.5,-0.5,-0.5,0.5]]},'
        '{"v":[[-0.2,0.9]],"u":[[0,-1],[1,0]]},{"v":[[1.3,-0.4]],"u":[[1,0],[0,1]]},'
        '{"v":[[0.05,0.6]],"u":[[-0.28,-0.96],[0.96,-0.28]]}]}',
        "--g", "0.9,-0.4,0.3,-0.2,1.1,0.5,-0.7,0.4,0.2,0.1,-0.6,-0.9,0.8,0.3"],
    # The local-symmetry residual where its tensors are sparse (n = 5, 6, a
    # locally symmetric and a generic diagonal metric, the second with a
    # nonzero residual) and on a dense literal matrix metric.
    "locsym_check_n6": [
        "locsym-check", "--lambda", "0.5,1,1,2,3,4", "--metric",
        '{"kind":"diagonal_sym","eta":[0.3,1.4,0.8,-0.6,2.0,1.2],'
        '"eta_check":[0.7,-0.4,0.8,-0.6,-1.0,1.2]}'],
    "connection_report_n6": [
        "connection-report", "--lambda", "1,1.5,2,2.5,3,4", "--metric",
        '{"kind":"diagonal_sym","eta":[0.4,1.3,0.7,2.1,0.9,1.6],'
        '"eta_check":[0.6,0.5,1.9,0.8,-1.2,0.3]}'],
    "full_report_n5": [
        "full-report", "--lambda", "1,2,2,3,5", "--seed", "3", "--metric",
        '{"kind":"diagonal_sym","eta":[0.4,1.5,-0.7,2.5,0.9],'
        '"eta_check":[0.6,1.5,-0.7,-1.5,0.9],"rho":0.9}'],
    "connection_report_matrix": [
        "connection-report", "--lambda", "1,2,4", "--metric",
        '{"kind":"matrix","rows":[[-0.3,-2.4,0.1,0.1,0.8,-0.7,-0.4,0.4],'
        '[3.3,-0.3,-0.2,0.6,0.0,0.2,0.2,0.0],[-0.2,0.1,-2.9,0.4,0.6,0.1,-0.5,-0.2],'
        '[1.2,0.2,0.8,-3.2,0.6,-0.6,0.2,0.0],[0.0,3.2,2.4,1.2,11.2,1.6,1.2,0.8],'
        '[0.2,-0.7,0.1,-0.3,0.4,2.9,-0.4,-0.4],[0.4,-0.8,-1.0,0.2,0.6,-0.8,6.0,0.6],'
        '[0.0,1.6,-0.8,0.0,0.8,-1.6,1.2,-8.8]]}'],
    # The heaviest connection shapes of the report workload: a full-report at
    # n = 6 with a repeated frequency on a locally symmetric metric with
    # rho = 0.9, and a connection-report at n = 5 on a dense literal matrix.
    "full_report_n6": [
        "full-report", "--lambda", "1,1.5,1.5,2,3,4", "--seed", "11", "--metric",
        '{"kind":"diagonal_sym","eta":[0.4,1.3,-0.7,2.5,0.8,1.6],'
        '"eta_check":[0.6,1.3,-0.7,-1.5,0.2,1.6],"rho":0.9}'],
    "connection_report_matrix_n5": [
        "connection-report", "--lambda", "1,1,2,3,4", "--metric",
        '{"kind":"matrix","rows":[[-0.6,-1.1,0.5,1.4,1.0,-0.6,0.4,-0.6,1.2,-0.4,-0.6,-0.4],'
        '[-2.3,-0.6,-1.2,0.3,-0.4,-1.2,0.0,1.3,0.1,0.6,0.2,0.3],'
        '[-1.2,0.5,3.2,0.5,0.6,0.2,-0.8,0.6,0.2,0.4,-0.4,1.4],'
        '[0.3,1.4,0.5,3.0,-0.2,-0.6,-0.3,0.4,0.6,-0.4,0.6,-0.2],'
        '[-0.8,2.0,1.2,-0.4,-3.0,1.6,1.8,-0.2,-1.2,0.8,-0.6,-1.2],'
        '[-3.6,-1.8,0.6,-1.8,2.4,10.8,-3.0,-3.6,0.6,1.8,2.7,-1.2],'
        '[0.0,1.6,-3.2,-1.2,3.6,-4.0,0.8,2.0,0.0,-3.2,-1.6,-1.2],'
        '[1.3,-0.6,0.6,0.4,-0.1,-1.2,0.5,-2.3,-0.2,0.7,0.8,-1.0],'
        '[0.1,1.2,0.2,0.6,-0.6,0.2,0.0,-0.2,-3.2,0.8,0.7,-1.0],'
        '[1.2,-0.8,0.8,-0.8,0.8,1.2,-1.6,1.4,1.6,-5.4,-0.8,0.4],'
        '[0.6,-1.8,-1.2,1.8,-0.9,2.7,-1.2,2.4,2.1,-1.2,-4.2,1.8],'
        '[1.2,-1.6,5.6,-0.8,-2.4,-1.6,-1.2,-4.0,-4.0,0.8,2.4,13.6]]}'],
    # direct_sum metrics at n = 3 (a u1 or u2 core and two 2x2 blocks),
    # written as literal matrices: their L is neither diagonal nor dense.
    "locsym_check_direct_sum_u1": [
        "locsym-check", "--lambda", "1,2,3", "--metric",
        '{"kind":"matrix","rows":[[0,1,0,0,0,0,0,0],[0,0,1,0,0,0,0,0],[1,0,0,0,0,0,0,0],'
        '[0,0,0,1.3,0,0,0.4,0],[0,0,0,0,0.7,0,0,-0.2],[0,0,0,0,0,1,0,0],'
        '[0,0,0,0.4,0,0,0.8,0],[0,0,0,0,-0.2,0,0,1.6]]}'],
    "connection_report_direct_sum_u2": [
        "connection-report", "--lambda", "1,1.5,3", "--metric",
        '{"kind":"matrix","rows":[[0,0,1,0,0,0,0,0],[0,0,0,0,0,1,0,0],[0,1,0,0,0,0,0,0],'
        '[0,0,0,1.3,0,0,0.4,0],[0,0,0,0,0.7,0,0,-0.2],[1,0,0,0,0,0,0,0],'
        '[0,0,0,0.4,0,0,0.8,0],[0,0,0,0,-0.2,0,0,1.6]]}'],
}


# Cases that also write a CSV: name -> the path given to --out-csv.
CLI_CSV = {"geodesic_integrate": "traj.csv"}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_report_matches_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(CLI_CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (CLI_GOLDEN / f"{name}.json").read_bytes()
    if name in CLI_CSV:
        assert (tmp_path / CLI_CSV[name]).read_bytes() == \
            (CLI_GOLDEN / f"{name}.csv").read_bytes()


def test_outputs_overwrite_longer_files_exactly(tmp_path, capsys, monkeypatch):
    # Both files are written in place and then cut to length: a longer file
    # left at either path keeps no tail.
    monkeypatch.chdir(tmp_path)
    name = "geodesic_integrate"
    out, csv = tmp_path / "report.json", tmp_path / CLI_CSV[name]
    for path, golden in ((out, f"{name}.json"), (csv, f"{name}.csv")):
        path.write_bytes(b"x" * (2 * len((CLI_GOLDEN / golden).read_bytes())))
    assert cli.main(CLI_CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (CLI_GOLDEN / f"{name}.json").read_bytes()
    assert csv.read_bytes() == (CLI_GOLDEN / f"{name}.csv").read_bytes()


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    counts = {}
    for name, problem in CASES.items():
        traj = flows.integrate(problem)
        (GOLDEN / f"{name}.csv").write_text(flows.trajectory_csv(traj))
        counts[name] = [traj.n_steps, traj.n_rejected]
    (GOLDEN / "counts.json").write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    CLI_GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, argv in CLI_CASES.items():
                cli.main(argv + ["--out", str(CLI_GOLDEN / f"{name}.json")])
                if name in CLI_CSV:
                    shutil.copyfile(CLI_CSV[name], CLI_GOLDEN / f"{name}.csv")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    write_goldens()
