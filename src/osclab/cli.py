"""Command-line front end.

Builds scenarios from flags or a JSON file, runs verification suites, and
emits JSON reports (plus CSV for trajectories).  Exit codes: 0 when every
asserted check passes, 1 on verification failure, 2 on input errors.

Reports are deterministic: identical scenario and seed give byte-identical
JSON (keys sorted, shortest round-trip float formatting, and any probe
parallelism reduces in sample order).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .algebra import (LambdaSpec, basis_vector, bracket, cartan, center,
                      derived_ideal, jacobi_residual)
from .metrics import (DegenerateMetric, NotKSymmetric, ad_invariance_residual,
                      completeness_criteria, k_lambda, k_symmetry_residual,
                      locsym_conditions, metric_from_iso, parse_sym_iso, signature)
from .connection import (closed_form_L, compatibility_residual, connection_report,
                         levi_civita, local_symmetry_residual, torsion_residual)
from . import flows, ode
from . import isometry as iso_mod


class InputError(Exception):
    """Bad scenario input; maps to exit code 2."""


def _parse_lambda(text) -> LambdaSpec:
    if text is None:
        raise InputError("missing --lambda")
    try:
        values = [float(part) for part in str(text).split(",") if part.strip()]
        return LambdaSpec(tuple(values))
    except ValueError as err:
        raise InputError(f"bad --lambda {text!r}: {err}") from err


def _load_json(text: str, what: str):
    raw = text
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as err:
            raise InputError(f"cannot read {what} file {text[1:]!r}: {err}") from err
    try:
        return json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError(f"malformed {what} JSON at line {err.lineno} "
                         f"column {err.colno}: {err.msg}") from err


def _parse_metric(spec: LambdaSpec, text):
    if text is None:
        raise InputError("missing --metric")
    if text in ("u1_dim4", "u2_dim4", "lattice_dim4"):
        obj = {"kind": text}
    else:
        obj = _load_json(text, "metric")
    try:
        iso = parse_sym_iso(spec, obj)
        return metric_from_iso(k_lambda(spec), iso)
    except (ValueError, NotKSymmetric, DegenerateMetric) as err:
        raise InputError(f"bad metric descriptor: {err}") from err


def _parse_x0(spec: LambdaSpec, text):
    if text is None:
        raise InputError("missing --x0")
    if text.startswith("gamma1:"):
        try:
            params = dict(kv.split("=") for kv in text[len("gamma1:"):].split(","))
            c = float(params.get("c", 1.0))
            rho = float(params.get("rho", 1.0))
        except ValueError as err:
            raise InputError(f'bad --x0 {text!r}: expected "gamma1:c=..,rho=.." '
                             f"({err})") from err
        if spec.n != 1:
            raise InputError("gamma1 seeds live on the dim-4 oscillator")
        return flows.analytic_gamma1(c, rho, 0.0)
    vals = _parse_floats(text, "--x0")
    if len(vals) != spec.dim:
        raise InputError(f"--x0 needs {spec.dim} coordinates, got {len(vals)}")
    return np.asarray(vals)


def _parse_isometry(spec: LambdaSpec, text):
    try:
        return iso_mod.curv_isometry_from_json(spec, _load_json(text, "isometry"))
    except ValueError as err:
        raise InputError(f"bad isometry descriptor: {err}") from err


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as err:
        raise InputError(f"bad {flag} {text!r}: {err}") from err


def _require_samples(args):
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")


def _check(name, claim, residual, tolerance):
    ok = None if tolerance is None else bool(residual <= tolerance)
    return {"name": name, "claim": claim, "residual": float(residual),
            "tolerance": tolerance, "pass": ok}


def _verdict_check(name, claim, value, expected):
    ok = None if expected is None else bool(value == expected)
    return {"name": name, "claim": claim, "value": value,
            "expected": expected, "pass": ok}


def _finish(report: dict, args) -> int:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json or not args.out:
        print(text)
    else:
        failed = [c["name"] for c in report.get("checks", []) if c.get("pass") is False]
        status = "FAIL: " + ", ".join(failed) if failed else "ok"
        print(f"{report.get('task')}: {status} -> {args.out}")
    bad = [c for c in report.get("checks", []) if c.get("pass") is False]
    return 1 if bad else 0


# -- tasks ----------------------------------------------------------------------

def task_algebra_check(args) -> int:
    spec = _parse_lambda(args.lam)
    _require_samples(args)
    rng = np.random.default_rng(args.seed)
    # One (samples, 3, d) draw is the same stream as samples (3, d) draws.
    x, y, z = rng.standard_normal((args.samples, 3, spec.dim)).transpose(1, 0, 2)
    worst_j = jacobi_residual(spec, x, y, z)
    worst_anti = float(np.max(np.abs(bracket(spec, x, y) + bracket(spec, y, x))))
    dims = (center(spec).dim, derived_ideal(spec).dim, cartan(spec).dim)
    checks = [
        _check("jacobi", "jacobi identity residual over random triples",
               worst_j, 1e-12),
        _check("antisymmetry", "bracket antisymmetry at coefficient level",
               worst_anti, 0.0),
        _verdict_check("subspace_dims",
                       "center/derived/cartan dimensions are 1, 2n+1, 2",
                       list(dims), [1, 2 * spec.n + 1, 2]),
    ]
    report = {"task": "algebra-check", "lambda": list(spec.lambdas),
              "samples": args.samples, "seed": args.seed, "checks": checks}
    return _finish(report, args)


def task_metric_info(args) -> int:
    spec = _parse_lambda(args.lam)
    form = k_lambda(spec)
    metric = _parse_metric(spec, args.metric)
    pos, neg = signature(metric)
    checks = [
        _check("k_symmetry", "u is symmetric for the bi-invariant form",
               k_symmetry_residual(form, metric.iso.matrix), 1e-10),
        _check("ad_invariance", "bi-invariant form is ad-invariant",
               ad_invariance_residual(form, seed=args.seed), 1e-12),
        _verdict_check("k_index", "bi-invariant form has index 1",
                       metric_from_iso(form, parse_sym_iso(spec, {"kind": "matrix",
                           "rows": np.eye(spec.dim).tolist()})).index, 1),
    ]
    info = {
        "kind": metric.iso.kind,
        "index": metric.index,
        "signature": [pos, neg],
        "lorentzian": metric.lorentzian,
        "condition_number": metric.iso.cond,
        "completeness_verdict": completeness_criteria(spec, metric.iso),
    }
    if metric.iso.kind == "diagonal_sym":
        info["symmetry_conditions"] = list(locsym_conditions(metric.iso, tol=1e-9))
    report = {"task": "metric-info", "lambda": list(spec.lambdas),
              "metric": info, "seed": args.seed, "checks": checks}
    return _finish(report, args)


def task_connection_report(args) -> int:
    spec = _parse_lambda(args.lam)
    metric = _parse_metric(spec, args.metric)
    table = levi_civita(metric)
    rep = connection_report(table)
    rng = np.random.default_rng(args.seed)
    worst_cf = 0.0
    for _ in range(10):
        x = rng.standard_normal(spec.dim)
        worst_cf = max(worst_cf, float(np.max(np.abs(
            table.left_mult_of(x) - closed_form_L(metric, x)))))
    checks = [
        _check("torsion", "connection is torsion-free", rep["torsion_residual"], 1e-10),
        _check("compatibility", "connection is metric-compatible",
               rep["compat_residual"], 1e-10),
        _check("closed_form", "koszul table matches the closed-form product",
               worst_cf, 1e-11),
    ]
    report = {"task": "connection-report", "lambda": list(spec.lambdas),
              "metric_kind": metric.iso.kind, "seed": args.seed,
              "report": rep, "checks": checks}
    return _finish(report, args)


def task_locsym_check(args) -> int:
    spec = _parse_lambda(args.lam)
    metric = _parse_metric(spec, args.metric)
    res = local_symmetry_residual(levi_civita(metric))
    tol = None
    claim = "local symmetry residual (measurement)"
    if metric.iso.kind == "diagonal_sym":
        conds = locsym_conditions(metric.iso, tol=1e-9)
        if all(c is not None for c in conds):
            tol = 1e-10
            claim = "locally symmetric: every index satisfies condition (a) or (b)"
    checks = [_check("local_symmetry", claim, res, tol)]
    report = {"task": "locsym-check", "lambda": list(spec.lambdas),
              "metric_kind": metric.iso.kind, "locsym_residual": res,
              "checks": checks}
    return _finish(report, args)


def task_geodesic_integrate(args) -> int:
    spec = _parse_lambda(args.lam)
    metric = _parse_metric(spec, args.metric)
    x0 = _parse_x0(spec, args.x0)
    if args.out and args.out.endswith(".csv") and not args.out_csv:
        args.out_csv, args.out = args.out, None
    problem = flows.FlowProblem(metric, x0, (args.t_min, args.t_max), form=args.form,
                                rtol=args.rtol, atol=args.atol)
    try:
        traj = flows.integrate(problem)
    except ode.SolverInputError as err:
        raise InputError(str(err)) from err
    drifts = traj.invariant_drift()
    checks = []
    if traj.completed and drifts:
        checks.append(_check("integral_drift",
                             "registered conserved quantities drift within budget",
                             max(drifts.values()), 1e-8))
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(flows.trajectory_csv(traj))
    report = {"task": "geodesic-integrate", "lambda": list(spec.lambdas),
              "metric_kind": metric.iso.kind, "form": args.form,
              "x0": [float(v) for v in x0], "t_span": [args.t_min, args.t_max],
              "status": traj.status, "t_detected": traj.t_detected,
              "samples": int(traj.ts.size),
              "integral_drift": {k: float(v) for k, v in sorted(drifts.items())},
              "csv": args.out_csv, "checks": checks}
    return _finish(report, args)


def task_completeness_probe(args) -> int:
    spec = _parse_lambda(args.lam)
    metric = _parse_metric(spec, args.metric)
    _require_samples(args)
    threads = args.threads or int(os.environ.get("OSCLAB_THREADS", "1"))
    rep = flows.completeness_probe(metric, args.samples, args.t_max,
                                   seed=args.seed, threads=threads)
    checks = []
    if rep.verdict != "undetermined":
        checks.append(_verdict_check(
            "no_blowups", "sufficient completeness condition implies no blow-ups",
            rep.n_blowup + rep.n_underflow, 0))
    report = {
        "task": "completeness-probe", "lambda": list(spec.lambdas),
        "metric_kind": metric.iso.kind, "seed": args.seed,
        "samples": args.samples, "t_max": args.t_max,
        "verdict": rep.verdict, "n_blowup": rep.n_blowup,
        "n_underflow": rep.n_underflow,
        "blown_fraction": rep.blown_fraction,
        "earliest_blowup": rep.earliest_blowup,
        "per_sample": [{"index": s.index, "orientation": s.orientation,
                        "status": s.status, "t_detected": s.t_detected}
                       for s in rep.samples],
        "checks": checks,
    }
    return _finish(report, args)


def task_isometry_verify(args) -> int:
    spec = _parse_lambda(args.lam)
    _require_samples(args)
    form = k_lambda(spec)
    rng = np.random.default_rng(args.seed)
    if args.u:
        isos = [_parse_isometry(spec, args.u)]
    else:
        isos = [iso_mod.random_curv_isometry(spec, rng) for _ in range(args.samples)]
    worst_orth = worst_triple = worst_round = worst_polar = 0.0
    for u in isos:
        m = u.matrix
        worst_orth = max(worst_orth, iso_mod.orthogonality_residual(form, m))
        worst_triple = max(worst_triple, iso_mod.triple_bracket_residual(spec, m))
        rt = iso_mod.curv_isometry_from_matrix(spec, m)
        worst_round = max(worst_round, float(np.max(np.abs(rt.matrix - m))))
    # Five group elements per identity-component map, drawn in map order,
    # then checked as one stack of rows.
    rows = [u for u in isos if u.rho == 1 for _ in range(5)]
    if rows:
        ts, ss, zs = [], [], []
        for _ in rows:
            ts.append(rng.uniform(-0.9, 0.9) * 2 * np.pi / max(spec.lambdas))
            ss.append(rng.uniform(-2, 2))
            zs.append(rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
        g = iso_mod.GroupRows(np.array(ts), np.array(ss), np.array(zs))
        worst_polar = float(np.max(iso_mod.polar_transport_residuals(spec, rows, g)))
    checks = [
        _check("orthogonality", "induced maps preserve the bi-invariant form",
               worst_orth, 1e-12),
        _check("triple_bracket", "induced maps preserve triple brackets",
               worst_triple, 1e-10),
        _check("roundtrip", "parametrization round-trip is exact",
               worst_round, 1e-12),
        _check("polar", "closed-form polar matches exp-transport-log",
               worst_polar, 1e-9),
    ]
    report = {"task": "isometry-verify", "lambda": list(spec.lambdas),
              "seed": args.seed, "samples": len(isos), "checks": checks}
    return _finish(report, args)


def task_isometry_dim(args) -> int:
    spec = _parse_lambda(args.lam)
    dim = iso_mod.isom_dim(spec)
    checks = [_verdict_check("dim_consistency",
                             "dimension formula matches the parametrization count",
                             iso_mod.isometry_parametrization_dim(spec), dim)]
    report = {"task": "isometry-dim", "lambda": list(spec.lambdas),
              "dim": dim, "blocks": [[v, r] for v, r in spec.blocks],
              "checks": checks}
    return _finish(report, args)


def task_isometry_polar(args) -> int:
    spec = _parse_lambda(args.lam)
    if not args.u:
        raise InputError("missing --u")
    u = _parse_isometry(spec, args.u)
    if args.g is None:
        raise InputError('missing --g "t,s,re1,im1,..."')
    vals = _parse_floats(args.g, "--g")
    if len(vals) != 2 + 2 * spec.n:
        raise InputError(f"--g needs {2 + 2 * spec.n} coordinates")
    g = iso_mod.GroupElem(vals[0], vals[1],
                          tuple(vals[2 + 2 * j] + 1j * vals[3 + 2 * j]
                                for j in range(spec.n)))
    p = iso_mod.polar(spec, u, g)
    report = {"task": "isometry-polar", "lambda": list(spec.lambdas),
              "image": {"t": p.t, "s": p.s,
                        "z": [[w.real, w.imag] for w in p.z]},
              "checks": []}
    return _finish(report, args)


def task_lattice_check(args) -> int:
    if args.lam is None:
        raise InputError("missing --lambda")
    parts = [p.strip() for p in str(args.lam).split(",") if p.strip()]
    values = parts if args.exact else _parse_floats(",".join(parts), "--lambda")
    try:
        verdict = iso_mod.lattice_criterion(values)
    except ValueError as err:
        raise InputError(str(err)) from err
    report = {"task": "lattice-check", "lambda": parts, "exact": bool(args.exact),
              "decidable": verdict.decidable, "discrete": verdict.discrete,
              "generator": str(verdict.generator) if verdict.generator else None,
              "reason": verdict.reason, "checks": []}
    if verdict.decidable:
        oracle = iso_mod.commensurability_oracle(values)
        report["checks"].append(_verdict_check(
            "oracle_agreement", "criterion agrees with the brute-force oracle",
            verdict.discrete, oracle))
    return _finish(report, args)


def task_full_report(args) -> int:
    spec = _parse_lambda(args.lam)
    form = k_lambda(spec)
    metric = _parse_metric(spec, args.metric)
    if args.probe_samples < 0:
        raise InputError(f"--probe-samples must be at least 0, got {args.probe_samples}")
    rng = np.random.default_rng(args.seed)
    checks = []

    x, y, z = rng.standard_normal((200, 3, spec.dim)).transpose(1, 0, 2)
    worst_j = jacobi_residual(spec, x, y, z)
    checks.append(_check("jacobi", "jacobi identity residual", worst_j, 1e-12))
    checks.append(_check("ad_invariance", "bi-invariant form is ad-invariant",
                         ad_invariance_residual(form, seed=args.seed), 1e-12))
    checks.append(_check("k_symmetry", "u is symmetric for the bi-invariant form",
                         k_symmetry_residual(form, metric.iso.matrix), 1e-10))

    rep = connection_report(metric)
    checks.append(_check("torsion", "connection is torsion-free",
                         rep["torsion_residual"], 1e-10))
    checks.append(_check("compatibility", "connection is metric-compatible",
                         rep["compat_residual"], 1e-10))

    locsym_tol = None
    if metric.iso.kind == "diagonal_sym" and \
            all(c is not None for c in locsym_conditions(metric.iso, tol=1e-9)):
        locsym_tol = 1e-10
    checks.append(_check("local_symmetry",
                         "local symmetry identity over basis triples",
                         rep["locsym_residual"], locsym_tol))

    verdict = completeness_criteria(spec, metric.iso)
    report = {"task": "full-report", "lambda": list(spec.lambdas),
              "metric_kind": metric.iso.kind, "seed": args.seed,
              "metric": {"index": metric.index,
                         "completeness_verdict": verdict},
              "connection": rep, "checks": checks}
    if args.probe_samples:
        probe = flows.completeness_probe(metric, args.probe_samples, args.t_max,
                                         seed=args.seed)
        report["probe"] = {"n_blowup": probe.n_blowup,
                           "n_underflow": probe.n_underflow,
                           "earliest_blowup": probe.earliest_blowup}
        if verdict != "undetermined":
            checks.append(_verdict_check(
                "no_blowups", "sufficient completeness condition implies no blow-ups",
                probe.n_blowup + probe.n_underflow, 0))
    return _finish(report, args)


# -- argument wiring --------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args leaves the parser unchanged and
    # returns a fresh namespace on every call.
    top = argparse.ArgumentParser(
        prog="osclab",
        description="Numerical laboratory for the geometry of oscillator Lie groups")
    top.add_argument("--version", action="version", version=f"osclab {__version__}")
    sub = top.add_subparsers(dest="task", required=True)

    def common(p, metric=False):
        p.add_argument("--lambda", dest="lam", help="comma-separated frequencies")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout even with --out")
        if metric:
            p.add_argument("--metric",
                           help="metric descriptor: JSON, @file, or a family name")
        return p

    common(sub.add_parser("algebra-check")).add_argument(
        "--samples", type=int, default=1000)
    common(sub.add_parser("metric-info"), metric=True)
    common(sub.add_parser("connection-report"), metric=True)
    common(sub.add_parser("locsym-check"), metric=True)

    p = common(sub.add_parser("geodesic-integrate"), metric=True)
    p.add_argument("--x0", help='initial state: coordinates or "gamma1:c=1,rho=1"')
    p.add_argument("--t-max", dest="t_max", type=float, default=10.0)
    p.add_argument("--t-min", dest="t_min", type=float, default=0.0)
    p.add_argument("--form", choices=[flows.BODY, flows.EULER, flows.LAX],
                   default=flows.EULER)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--out-csv", dest="out_csv", help="trajectory CSV path")

    p = common(sub.add_parser("completeness-probe"), metric=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--t-max", dest="t_max", type=float, default=100.0)
    p.add_argument("--threads", type=int, default=0,
                   help="worker pool size (default: OSCLAB_THREADS or 1)")

    p = common(sub.add_parser("isometry-verify"))
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--u", help="isometry descriptor JSON or @file")

    common(sub.add_parser("isometry-dim"))

    p = common(sub.add_parser("isometry-polar"))
    p.add_argument("--u", help="isometry descriptor JSON or @file")
    p.add_argument("--g", help='group element "t,s,re1,im1,..."')

    p = common(sub.add_parser("lattice-check"))
    p.add_argument("--exact", action="store_true",
                   help="treat the entries as exact rationals")

    p = common(sub.add_parser("full-report"), metric=True)
    p.add_argument("--probe-samples", dest="probe_samples", type=int, default=0)
    p.add_argument("--t-max", dest="t_max", type=float, default=50.0)

    p = sub.add_parser("run", help="run a scenario JSON file")
    p.add_argument("scenario")
    return top


_HANDLERS = {
    "algebra-check": task_algebra_check,
    "metric-info": task_metric_info,
    "connection-report": task_connection_report,
    "locsym-check": task_locsym_check,
    "geodesic-integrate": task_geodesic_integrate,
    "completeness-probe": task_completeness_probe,
    "isometry-verify": task_isometry_verify,
    "isometry-dim": task_isometry_dim,
    "isometry-polar": task_isometry_polar,
    "lattice-check": task_lattice_check,
    "full-report": task_full_report,
}


def _run_scenario(path: str) -> int:
    obj = _load_json("@" + path, "scenario")
    if not isinstance(obj, dict) or "task" not in obj:
        raise InputError('scenario must be an object with a "task" field')
    task = obj.pop("task")
    if task not in _HANDLERS:
        raise InputError(f"unknown task {task!r}")
    argv = [task]
    for key, val in obj.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        elif isinstance(val, (dict, list)):
            argv += [flag, json.dumps(val)]
        else:
            argv += [flag, str(val)]
    return main(argv)


# A token that starts like a negative number or a comma list of numbers;
# no osclab option does, so it can only be the value of the flag before it.
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1e3`` into ``--flag=-1e3``: argparse takes only
    ``-5``/``-0.5``-style tokens for negative numbers and would read
    ``-1e3``, ``-inf`` or ``-1,0,0,0`` as an unknown option."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_attach_negative_values(argv))
    try:
        if args.task == "run":
            return _run_scenario(args.scenario)
        return _HANDLERS[args.task](args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
