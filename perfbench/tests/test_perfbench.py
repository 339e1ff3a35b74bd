"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run the benchmark at tiny size (``--tiny``: short horizons, small n),
so they check its plumbing and its checks, not its timings.
"""

import dataclasses
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from osclab import cli, connection, flows  # noqa: E402


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_bench(*args):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    info = json.loads(lines[0])
    assert info["env"]["seed"] == 3 and info["env"]["nproc"] >= 1
    if trace:
        # probe never reaches the CLI; report never reaches the solver
        absent = {"probe": "cli.main", "trajectory": "cli.main",
                  "report": "ode.solve_rk45"}[workload]
        assert absent in info["not_reached"]
        assert info["functions"][absent] == tracing.NOT_REACHED


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    for workload in wl.WORKLOADS:
        a = wl.make_pass(workload, 7, 0)
        assert a == wl.make_pass(workload, 7, 0)
        assert a != wl.make_pass(workload, 8, 0)
        assert a != wl.make_pass(workload, 7, 1)


def test_run_fails_without_the_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_text(
            open(os.path.join(BENCH, name), encoding="utf-8").read())
    (tmp_path / "BENCHMARK.json").write_text(
        open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "probe",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the checker ---------------------------------------------------------------

def _tiny_task(workload, kind, **match):
    for task in wl.make_pass(workload, 1, 0, tiny=True):
        if task["kind"] == kind and all(task.get(k) == v for k, v in match.items()):
            return task
    raise LookupError(kind)


def _corruptions(tmp_path):
    """(task, a corrupted copy of its real output) per kind of check."""
    out = []
    probe = _tiny_task("probe", "probe", family="locsym")
    rep = wl.run_task(probe, str(tmp_path))
    blown = dataclasses.replace(rep.samples[0], status="blowup", t_detected=0.5)
    out.append((probe, dataclasses.replace(rep, n_blowup=1,
                                           samples=(blown,) + rep.samples[1:])))
    odd = dataclasses.replace(rep.samples[0], status="exploded")
    out.append((probe, dataclasses.replace(rep, samples=(odd,) + rep.samples[1:])))

    integ = _tiny_task("trajectory", "integrate", form=flows.LAX)
    traj, csv = wl.run_task(integ, str(tmp_path))
    lines = csv.splitlines()
    out.append((integ, (traj, "\n".join(lines[:2] + lines[3:]) + "\n")))
    drifted = dict(traj.invariant_log)
    drifted["E"] = drifted["E"] + np.linspace(0.0, 1e-6, drifted["E"].size)
    out.append((integ, (dataclasses.replace(traj, invariant_log=drifted), csv)))

    g1 = _tiny_task("trajectory", "gamma1")
    res = wl.run_task(g1, str(tmp_path))
    out.append((g1, dataclasses.replace(res, t_detected=res.t_detected * 1.05)))

    scalar = _tiny_task("trajectory", "scalar")
    res = wl.run_task(scalar, str(tmp_path))
    out.append((scalar, dataclasses.replace(res, status="completed")))

    geo = _tiny_task("trajectory", "geodesic_exp", n=2)
    got, want = wl.run_task(geo, str(tmp_path))
    out.append((geo, (dataclasses.replace(got, s=got.s + 1e-6), want)))

    rep_task = _tiny_task("report", "cli", task="connection-report")
    code, path = wl.run_task(rep_task, str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["checks"][0]["pass"] = False
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(report))
    out.append((rep_task, (code, str(bad))))
    out.append((rep_task, (1, path)))
    return out


def test_checker_passes_real_outputs(tmp_path):
    for workload in wl.WORKLOADS:
        for task in wl.make_pass(workload, 1, 0, tiny=True)[:12]:
            assert wl.check_task(task, wl.run_task(task, str(tmp_path))) is None, task


def test_checker_counts_corrupted_results_as_failures(tmp_path):
    for task, corrupted in _corruptions(tmp_path):
        assert wl.check_task(task, corrupted) is not None, task["kind"]


def test_corrupted_outputs_are_counted_in_a_run(tmp_path):
    def corrupting_run_task(task, out_dir):
        out = wl.run_task(task, out_dir)
        if task["kind"] == "integrate":
            traj, csv = out
            return traj, csv + "0,0\n"
        return out

    fake = types.SimpleNamespace(**{k: getattr(wl, k) for k in dir(wl) if not k.startswith("__")})
    fake.run_task = corrupting_run_task
    res = worker.run_passes(fake, "trajectory", 1, str(tmp_path), indices=[0], tiny=True)
    tasks = wl.make_pass("trajectory", 1, 0, tiny=True)
    assert len(res["passes"]) == 1
    assert res["attempted"] == len(res["passes"][0]) == len(tasks)
    assert len(res["failures"]) == sum(t["kind"] == "integrate" for t in tasks)
    assert all("CSV" in f["reason"] for f in res["failures"])
    assert res["refs"] and all(d > 0 for _, d in res["refs"])


# -- the tracer ----------------------------------------------------------------

def test_trace_marks_an_unwrapped_layer_as_not_reached(tmp_path):
    task = _tiny_task("trajectory", "integrate", form=flows.BODY)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert hasattr(cli.levi_civita, "span_name")  # names imported elsewhere too
        tr.unwrap("connection.levi_civita")
        tr.task = (0, task["n"])
        out = wl.run_task(task, str(tmp_path))
    finally:
        tr.uninstall()
    assert not hasattr(connection.levi_civita, "span_name")
    assert not hasattr(cli.levi_civita, "span_name")
    assert not hasattr(flows.integrate, "span_name")
    assert wl.check_task(task, out) is None
    summary = tr.summary()
    assert summary["connection.levi_civita"] == tracing.NOT_REACHED
    assert summary["flows.integrate"]["calls"] == 1
    assert summary["ode.solve_rk45"]["calls"] == 1
    layers = tracing.layer_metrics(tr, 1)
    assert layers["connection.levi_civita_us"][0] is None
    assert layers["ode.steps"][0] == out[0].ts.size - 1
    assert layers["flows.rhs_us"][0] > 0
    assert layers["ode.rhs_per_step"][0] >= 6


def test_self_time_excludes_children(tmp_path):
    task = _tiny_task("trajectory", "integrate", form=flows.EULER)
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.task = (0, task["n"])
        wl.run_task(task, str(tmp_path))
    finally:
        tr.uninstall()
    solve = tr.summary()["ode.solve_rk45"]
    assert 0 < solve["self_s"] < solve["total_s"]
    assert solve["total_s"] - solve["self_s"] == pytest.approx(tr.stats()[1][tracing.RHS], rel=1e-6)
    integrate = [s for s in tr.spans if s[0] == "flows.integrate"]
    assert len(integrate) == 1 and integrate[0][3] is None and integrate[0][4] == 0
    children = [s for s in tr.spans if s[3] is not None and tr.spans[s[3]][0] == "flows.integrate"]
    assert {s[0] for s in children} >= {"ode.solve_rk45", "flows.first_integrals"}
