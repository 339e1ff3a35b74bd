"""Command-line front end.

Builds scenarios from flags or a JSON file, runs verification suites, and
emits JSON reports (plus CSV for trajectories).  Exit codes: 0 when every
asserted check passes, 1 on verification failure, 2 on input errors.

Reports are deterministic: identical scenario and seed give byte-identical
JSON (keys sorted, shortest round-trip float formatting).

Each task is declared once with ``@_task``: its body, its extra flags and
whether it takes ``--metric``.  The parser, the input checks and the report
envelope are built from that table.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .algebra import (LambdaSpec, basis_vector, bracket, cartan, center,
                      derived_ideal, jacobi_residual)
from .metrics import (DegenerateMetric, NotKSymmetric, ad_invariance_residual,
                      completeness_criteria, is_json_number, k_lambda,
                      k_symmetry_residual, locsym_conditions, metric_from_iso,
                      parse_sym_iso, signature)
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
        return LambdaSpec(tuple(float(p) for p in str(text).split(",") if p.strip()))
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
        try:
            return flows.analytic_gamma1(c, rho, 0.0)
        except ValueError as err:
            raise InputError(f"bad --x0 {text!r}: {err}") from err
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


def _check(name, claim, residual, tolerance):
    ok = None if tolerance is None else bool(residual <= tolerance)
    return {"name": name, "claim": claim, "residual": float(residual),
            "tolerance": tolerance, "pass": ok}


def _verdict_check(name, claim, value, expected):
    ok = None if expected is None else bool(value == expected)
    return {"name": name, "claim": claim, "value": value,
            "expected": expected, "pass": ok}


def _locsym_tolerance(metric):
    """1e-10 where the diagonal conditions certify local symmetry, else None
    (the residual is only measured)."""
    certified = metric.iso.kind == "diagonal_sym" and all(
        c is not None for c in locsym_conditions(metric.iso, tol=1e-9))
    return 1e-10 if certified else None


def _no_blowups(verdict, probe):
    """A certified-complete metric must show no blow-up or step underflow."""
    return [] if verdict == "undetermined" else [_verdict_check(
        "no_blowups", "sufficient completeness condition implies no blow-ups",
        probe.n_blowup + probe.n_underflow, 0)]


def _finish(report: dict, args) -> int:
    text = json.dumps(report, indent=2, sort_keys=True)
    failed = [c["name"] for c in report.get("checks", []) if c.get("pass") is False]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json or not args.out:
        print(text)
    else:
        status = "FAIL: " + ", ".join(failed) if failed else "ok"
        print(f"{report.get('task')}: {status} -> {args.out}")
    return 1 if failed else 0


# -- tasks ----------------------------------------------------------------------

# name -> (body, extra flags, takes --metric, parses --lambda); the order of
# declaration is the order of the subcommands in --help.
_TASKS: dict[str, tuple] = {}


def _task(name, *flags, metric=False, spec=True):
    """Declare the CLI task ``name``.  Each flag is ``(option, add_argument
    keywords)``.  The body is called as ``body(args, spec, metric)`` with the
    inputs it declared (none with ``spec=False``) and returns ``(fields,
    checks)`` for the report."""
    def register(body):
        _TASKS[name] = (body, flags, metric, spec)
        return body
    return register


@_task("algebra-check", ("--samples", dict(type=int, default=1000)))
def task_algebra_check(args, spec):
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
    return {"samples": args.samples, "seed": args.seed}, checks


@_task("metric-info", metric=True)
def task_metric_info(args, spec, metric):
    form = k_lambda(spec)
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
    return {"metric": info, "seed": args.seed}, checks


@_task("connection-report", metric=True)
def task_connection_report(args, spec, metric):
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
    return {"metric_kind": metric.iso.kind, "seed": args.seed, "report": rep}, checks


@_task("locsym-check", metric=True)
def task_locsym_check(args, spec, metric):
    res = local_symmetry_residual(levi_civita(metric))
    tol = _locsym_tolerance(metric)
    claim = ("locally symmetric: every index satisfies condition (a) or (b)"
             if tol is not None else "local symmetry residual (measurement)")
    return ({"metric_kind": metric.iso.kind, "locsym_residual": res},
            [_check("local_symmetry", claim, res, tol)])


@_task("geodesic-integrate",
       ("--x0", dict(help='initial state: coordinates or "gamma1:c=1,rho=1"')),
       ("--t-max", dict(type=float, default=10.0)),
       ("--t-min", dict(type=float, default=0.0)),
       ("--form", dict(choices=[flows.BODY, flows.EULER, flows.LAX], default=flows.EULER)),
       ("--rtol", dict(type=float, default=1e-10)),
       ("--atol", dict(type=float, default=1e-12)),
       ("--out-csv", dict(help="trajectory CSV path")),
       metric=True)
def task_geodesic_integrate(args, spec, metric):
    x0 = _parse_x0(spec, args.x0)
    if args.out and args.out.endswith(".csv") and not args.out_csv:
        args.out_csv, args.out = args.out, None
    problem = flows.FlowProblem(metric, x0, (args.t_min, args.t_max), form=args.form,
                                rtol=args.rtol, atol=args.atol)
    traj = flows.integrate(problem)
    drifts = traj.invariant_drift()
    checks = []
    if traj.completed and drifts:
        checks.append(_check("integral_drift",
                             "registered conserved quantities drift within budget",
                             max(drifts.values()), 1e-8))
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(flows.trajectory_csv(traj))
    return {"metric_kind": metric.iso.kind, "form": args.form,
            "x0": [float(v) for v in x0], "t_span": [args.t_min, args.t_max],
            "status": traj.status, "t_detected": traj.t_detected,
            "samples": int(traj.ts.size),
            "integral_drift": {k: float(v) for k, v in sorted(drifts.items())},
            "csv": args.out_csv}, checks


@_task("completeness-probe",
       ("--samples", dict(type=int, default=100)),
       ("--t-max", dict(type=float, default=100.0)),
       metric=True)
def task_completeness_probe(args, spec, metric):
    rep = flows.completeness_probe(metric, args.samples, args.t_max, seed=args.seed)
    return {
        "metric_kind": metric.iso.kind, "seed": args.seed,
        "samples": args.samples, "t_max": args.t_max,
        "verdict": rep.verdict, "n_blowup": rep.n_blowup,
        "n_underflow": rep.n_underflow,
        "blown_fraction": rep.blown_fraction,
        "earliest_blowup": rep.earliest_blowup,
        "per_sample": [{"index": s.index, "orientation": s.orientation,
                        "status": s.status, "t_detected": s.t_detected}
                       for s in rep.samples],
    }, _no_blowups(rep.verdict, rep)


@_task("isometry-verify",
       ("--samples", dict(type=int, default=20)),
       ("--u", dict(help="isometry descriptor JSON or @file")))
def task_isometry_verify(args, spec):
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
    return {"seed": args.seed, "samples": len(isos)}, checks


@_task("isometry-dim")
def task_isometry_dim(args, spec):
    dim = iso_mod.isom_dim(spec)
    checks = [_verdict_check("dim_consistency",
                             "dimension formula matches the parametrization count",
                             iso_mod.isometry_parametrization_dim(spec), dim)]
    return {"dim": dim, "blocks": [[v, r] for v, r in spec.blocks]}, checks


@_task("isometry-polar",
       ("--u", dict(help="isometry descriptor JSON or @file")),
       ("--g", dict(help='group element "t,s,re1,im1,..."')))
def task_isometry_polar(args, spec):
    if not args.u:
        raise InputError("missing --u")
    u = _parse_isometry(spec, args.u)
    if args.g is None:
        raise InputError('missing --g "t,s,re1,im1,..."')
    vals = _parse_floats(args.g, "--g")
    if len(vals) != 2 + 2 * spec.n:
        raise InputError(f"--g needs {2 + 2 * spec.n} coordinates")
    if not all(math.isfinite(v) for v in vals):
        raise InputError(f"bad --g {args.g!r}: coordinates must be finite")
    g = iso_mod.GroupElem(vals[0], vals[1],
                          tuple(vals[2 + 2 * j] + 1j * vals[3 + 2 * j]
                                for j in range(spec.n)))
    # Entries near the float range give a non-finite image: it is rejected
    # below instead of warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            p = iso_mod.polar(spec, u, g)
        except ValueError as err:
            raise InputError(str(err)) from err
    if not np.isfinite([p.t, p.s, *p.z]).all():
        raise InputError(f"bad --g {args.g!r}: the polar image overflows the float range")
    return {"image": {"t": p.t, "s": p.s, "z": [[w.real, w.imag] for w in p.z]}}, []


@_task("lattice-check",
       ("--exact", dict(action="store_true", help="treat the entries as exact rationals")),
       spec=False)
def task_lattice_check(args):
    if args.lam is None:
        raise InputError("missing --lambda")
    parts = [p.strip() for p in str(args.lam).split(",") if p.strip()]
    values = parts if args.exact else _parse_floats(",".join(parts), "--lambda")
    if not args.exact and not all(math.isfinite(v) and v > 0 for v in values):
        raise InputError(f"bad --lambda {args.lam!r}: frequencies must be positive reals")
    try:
        verdict = iso_mod.lattice_criterion(values)
    except ValueError as err:
        raise InputError(str(err)) from err
    checks = []
    if verdict.decidable:
        checks.append(_verdict_check(
            "oracle_agreement", "criterion agrees with the brute-force oracle",
            verdict.discrete, iso_mod.commensurability_oracle(values)))
    return {"lambda": parts, "exact": bool(args.exact),
            "decidable": verdict.decidable, "discrete": verdict.discrete,
            "generator": str(verdict.generator) if verdict.generator else None,
            "reason": verdict.reason}, checks


@_task("full-report",
       ("--probe-samples", dict(type=int, default=0)),
       ("--t-max", dict(type=float, default=50.0)),
       metric=True)
def task_full_report(args, spec, metric):
    if args.probe_samples < 0:
        raise InputError(f"--probe-samples must be at least 0, got {args.probe_samples}")
    form = k_lambda(spec)
    rng = np.random.default_rng(args.seed)
    x, y, z = rng.standard_normal((200, 3, spec.dim)).transpose(1, 0, 2)
    rep = connection_report(levi_civita(metric))
    checks = [
        _check("jacobi", "jacobi identity residual", jacobi_residual(spec, x, y, z), 1e-12),
        _check("ad_invariance", "bi-invariant form is ad-invariant",
               ad_invariance_residual(form, seed=args.seed), 1e-12),
        _check("k_symmetry", "u is symmetric for the bi-invariant form",
               k_symmetry_residual(form, metric.iso.matrix), 1e-10),
        _check("torsion", "connection is torsion-free", rep["torsion_residual"], 1e-10),
        _check("compatibility", "connection is metric-compatible",
               rep["compat_residual"], 1e-10),
        _check("local_symmetry", "local symmetry identity over basis triples",
               rep["locsym_residual"], _locsym_tolerance(metric)),
    ]
    verdict = completeness_criteria(spec, metric.iso)
    fields = {"metric_kind": metric.iso.kind, "seed": args.seed,
              "metric": {"index": metric.index, "completeness_verdict": verdict},
              "connection": rep}
    if args.probe_samples:
        probe = flows.completeness_probe(metric, args.probe_samples, args.t_max,
                                         seed=args.seed)
        fields["probe"] = {"n_blowup": probe.n_blowup,
                           "n_underflow": probe.n_underflow,
                           "earliest_blowup": probe.earliest_blowup}
        checks += _no_blowups(verdict, probe)
    return fields, checks


def _run_task(args) -> int:
    """Parse the declared inputs in a fixed order (--lambda, --metric,
    --samples, then --seed), run the body and wrap its result in the report
    envelope."""
    body, _, takes_metric, takes_spec = _TASKS[args.task]
    report = {"task": args.task}
    inputs = []
    if takes_spec:
        spec = _parse_lambda(args.lam)
        report["lambda"] = list(spec.lambdas)
        inputs.append(spec)
        if takes_metric:
            inputs.append(_parse_metric(spec, args.metric))
    if getattr(args, "samples", 1) < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise InputError(f"--seed must be at least 0, got {args.seed}")
    fields, checks = body(args, *inputs)
    report.update(fields, checks=checks)
    return _finish(report, args)


# -- argument wiring --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Rejects a bad command line with one ``error:`` line and exit 2, like
    every other input error; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args leaves the parser unchanged and
    # returns a fresh namespace on every call.
    top = _Parser(
        prog="osclab",
        description="Numerical laboratory for the geometry of oscillator Lie groups")
    top.add_argument("--version", action="version", version=f"osclab {__version__}")
    sub = top.add_subparsers(dest="task", required=True)
    for name, (_, flags, takes_metric, _) in _TASKS.items():
        p = sub.add_parser(name)
        p.add_argument("--lambda", dest="lam", help="comma-separated frequencies")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout even with --out")
        if takes_metric:
            p.add_argument("--metric",
                           help="metric descriptor: JSON, @file, or a family name")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    p = sub.add_parser("run", help="run a scenario JSON file")
    p.add_argument("scenario")
    return top


def _run_scenario(path: str) -> int:
    """Each key but "task" is a flag (t_max -> --t-max); a flat list of
    numbers becomes a comma list, an object or nested list stays JSON."""
    obj = _load_json("@" + path, "scenario")
    if not isinstance(obj, dict) or "task" not in obj:
        raise InputError('scenario must be an object with a "task" field')
    task = obj.pop("task")
    if task not in _TASKS:
        raise InputError(f"unknown task {task!r}")
    argv = [task]
    for key, val in obj.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        elif isinstance(val, list) and all(is_json_number(v) for v in val):
            argv += [flag, ",".join(str(v) for v in val)]
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
        return _run_task(args)
    except (InputError, ode.SolverInputError, ode.StepBudgetExhausted) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
