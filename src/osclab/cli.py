"""Command-line front end.

Builds scenarios from flags or a JSON file, runs verification suites, and
emits JSON reports (plus CSV for trajectories).  Exit codes: 0 when every
asserted check passes, 1 on verification failure, 2 on input errors.

Reports are deterministic: identical scenario and seed give byte-identical
JSON (sorted keys, shortest round-trip floats, non-finite ones as null).

Each task is declared once with ``@_task``: its body, its extra flags and
whether it takes ``--metric``.  The parser, the input checks and the report
envelope are built from that table.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys

import numpy as np

from . import __version__
from .algebra import (LambdaSpec, bracket, cartan, center, derived_ideal,
                      is_json_number, jacobi_residual)
from .metrics import (K_SYMMETRY_TOL, UNDETERMINED, ad_invariance_residual,
                      completeness_criteria, k_lambda, k_symmetry_residual, locsym_conditions,
                      metric_from_iso, parse_sym_iso, signature)
from .connection import closed_form_L, connection_report, levi_civita, local_symmetry_residual
from . import flows, ode
from . import isometry as iso_mod


class InputError(Exception):
    """Bad scenario input; maps to exit code 2."""


MAX_SAMPLES = 10_000  # samples are drawn as one stack: more could exhaust memory
ORTHOGONALITY_CHECK_TOL = 1e-12


def _int_range(low, high=math.inf):
    """An argparse type: an integer from low to high, else the parser's error."""
    def parse(text):
        value = int(text)
        if not low <= value <= high:
            bound = "" if high == math.inf else f" and at most {high}"
            raise argparse.ArgumentTypeError(f"must be at least {low}{bound}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value: 'x'"
    return parse


_SAMPLES = _int_range(1, MAX_SAMPLES)


def _parse_lambda(text) -> LambdaSpec:
    try:
        return _spec_of(tuple(float(p) for p in text.split(",") if p.strip()))
    except ValueError as err:
        raise InputError(f"bad --lambda {text!r}: {err}") from err


@functools.lru_cache(maxsize=16)
def _spec_of(lambdas: tuple[float, ...]) -> LambdaSpec:
    # Like the parser, one per process and frequency tuple, with the tables
    # built from lambda alone; a ValueError is not cached.
    return LambdaSpec(lambdas)


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
    if text in ("u1_dim4", "u2_dim4", "lattice_dim4"):
        obj = {"kind": text}
    else:
        obj = _load_json(text, "metric")
    try:
        iso = parse_sym_iso(spec, obj)
        return metric_from_iso(k_lambda(spec), iso)
    except ValueError as err:
        raise InputError(f"bad metric descriptor: {err}") from err


def _parse_x0(spec: LambdaSpec, text):
    if text.startswith("gamma1:"):
        try:
            pairs = [kv.split("=") for kv in text[len("gamma1:"):].split(",")]
            params = {key: float(value) for key, value in pairs}
            if len(params) < len(pairs) or not params.keys() <= {"c", "rho"}:
                raise ValueError("the keys are c and rho, each at most once")
            c = params.get("c", 1.0)
            rho = params.get("rho", 1.0)
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
        c is not None for c in locsym_conditions(metric.iso))
    return 1e-10 if certified else None


def _no_blowups(probe):
    """A certified-complete metric must show no blow-up or step underflow."""
    return [] if probe.verdict == UNDETERMINED else [_verdict_check(
        "no_blowups", "sufficient completeness condition implies no blow-ups",
        probe.n_blowup + probe.n_underflow, 0)]


def _write(path: str, text: str, what: str) -> None:
    """Overwrite ``path`` in place: opening without O_TRUNC skips ext4's slow
    truncation of a non-empty file.  Only a regular file is cut to length
    afterwards, so pipes and devices such as /dev/null work too."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            size = fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(size)
    except OSError as err:
        raise InputError(f"cannot write {what} file {path!r}: {err}") from err


def _finish(report: dict, args) -> int:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # JSON has no NaN or Infinity: write each as null
        nulled = json.loads(json.dumps(report), parse_constant=lambda _: None)
        text = json.dumps(nulled, indent=2, sort_keys=True)
    failed = [c["name"] for c in report.get("checks", []) if c.get("pass") is False]
    if args.out:
        _write(args.out, text + "\n", "report")
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


@_task("algebra-check", ("--samples", dict(type=_SAMPLES, default=1000)))
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
               k_symmetry_residual(form, metric.iso.matrix), K_SYMMETRY_TOL),
        _check("ad_invariance", "bi-invariant form is ad-invariant",
               ad_invariance_residual(form, seed=args.seed), 1e-12),
        _verdict_check("k_index", "bi-invariant form has index 1",
                       int(np.sum(np.linalg.eigvalsh(form.gram) < 0)), 1),
    ]
    info = {
        "kind": metric.iso.kind,
        "index": metric.index,
        "signature": [pos, neg],
        "lorentzian": metric.lorentzian,
        "condition_number": metric.iso.cond,
        "completeness_verdict": completeness_criteria(metric.iso),
    }
    if metric.iso.kind == "diagonal_sym":
        info["symmetry_conditions"] = list(locsym_conditions(metric.iso))
    return {"metric": info, "seed": args.seed}, checks


@_task("connection-report", metric=True)
def task_connection_report(args, spec, metric):
    table = levi_civita(metric)
    rep = connection_report(table)
    # One (10, d) draw is the same stream as ten d-vector draws.
    x = np.random.default_rng(args.seed).standard_normal((10, spec.dim))
    worst_cf = float(np.max(np.abs(table.left_mult_of(x) - closed_form_L(metric, x))))
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
       ("--x0", dict(required=True, help='initial state: coordinates or "gamma1:c=1,rho=1"')),
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
                             np.max(list(drifts.values())), 1e-8))  # keeps a NaN
    if args.out_csv:
        _write(args.out_csv, flows.trajectory_csv(traj), "CSV")
    return {"metric_kind": metric.iso.kind, "form": args.form,
            "x0": [float(v) for v in x0], "t_span": [args.t_min, args.t_max],
            "status": traj.status, "t_detected": traj.t_detected,
            "samples": int(traj.ts.size),
            "integral_drift": {k: float(v) for k, v in sorted(drifts.items())},
            "csv": args.out_csv}, checks


@_task("completeness-probe",
       ("--samples", dict(type=_SAMPLES, default=100)),
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
    }, _no_blowups(rep)


@_task("isometry-verify",
       ("--samples", dict(type=_SAMPLES, default=20)),
       ("--u", dict(help="isometry descriptor JSON or @file")))
def task_isometry_verify(args, spec):
    form = k_lambda(spec)
    rng = np.random.default_rng(args.seed)
    try:
        isos = (_parse_isometry(spec, args.u)[None] if args.u
                else iso_mod.random_curv_isometries(spec, rng, args.samples))
    except ValueError as err:  # a drawn map's e_0 part overflows where some l_j is near 0
        raise InputError(f"maps beyond the float range: {err}") from err
    m = isos.matrix
    am = np.abs(m)  # eps |m|^T |K| |m|: the rounding unit of the sums orthogonality cancels
    floor = np.finfo(float).eps * np.max(am.swapaxes(1, 2) @ np.abs(form.gram) @ am)
    if not floor <= ORTHOGONALITY_CHECK_TOL:  # also NaN or inf where that sum overflows
        raise InputError(f"maps beyond the checks' float precision: eps |m|^T |K| |m| "
                         f"is {floor:.1e}, above the orthogonality tolerance "
                         f"{ORTHOGONALITY_CHECK_TOL:g}")
    worst_triple = float(np.max(iso_mod.triple_bracket_residual(spec, m)))
    worst_round = float(np.max(np.abs(iso_mod.curv_isometry_from_matrix(spec, m).matrix - m)))
    # Five group elements per identity-component map, drawn in map order,
    # then checked as one stack of rows.  Per row, (t, s) is uniform on
    # [-0.9, 0.9] x [-2, 2] by numpy's own low + (high - low) * u, and z
    # takes one normal draw of 2n values.
    keep = np.repeat(np.flatnonzero(isos.rho == 1), 5)
    worst_polar = 0.0
    if keep.size:
        n, low, high = spec.n, np.array([-0.9, -2.0]), np.array([0.9, 2.0])
        ts_ss, w = map(np.array, zip(*[(low + (high - low) * rng.random(2),
                                        rng.standard_normal(2 * n)) for _ in keep]))
        g = iso_mod.GroupRows(ts_ss[:, 0] * 2 * np.pi / max(spec.lambdas), ts_ss[:, 1],
                              w[:, :n] + 1j * w[:, n:])
        worst_polar = float(np.max(iso_mod.polar_transport_residuals(spec, isos[keep], g)))
    checks = [
        _check("orthogonality", "induced maps preserve the bi-invariant form",
               iso_mod.orthogonality_residual(form, m), ORTHOGONALITY_CHECK_TOL),
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
       ("--u", dict(required=True, help="isometry descriptor JSON or @file")),
       ("--g", dict(required=True, help='group element "t,s,re1,im1,..."')))
def task_isometry_polar(args, spec):
    u = _parse_isometry(spec, args.u)
    vals = _parse_floats(args.g, "--g")
    if len(vals) != 2 + 2 * spec.n:
        raise InputError(f"--g needs {2 + 2 * spec.n} coordinates")
    if not all(math.isfinite(v) for v in vals):
        raise InputError(f"bad --g {args.g!r}: coordinates must be finite")
    g = iso_mod.GroupRows(vals[0], vals[1], np.array(vals[2:]).view(complex))
    # Entries near the float range give a non-finite image: it is rejected below.
    try:
        p = iso_mod.polar(spec, u, g)
    except ValueError as err:
        raise InputError(str(err)) from err
    if not np.isfinite([p.t, p.s, *p.z]).all():
        raise InputError(f"bad --g {args.g!r}: the polar image overflows the float range")
    return {"image": {"t": p.t, "s": p.s, "z": p.z.view(float).reshape(-1, 2).tolist()}}, []


@_task("lattice-check",
       ("--exact", dict(action="store_true", help="treat the entries as exact rationals")),
       spec=False)
def task_lattice_check(args):
    parts = [p.strip() for p in args.lam.split(",") if p.strip()]
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
            verdict.discrete, iso_mod.commensurability_oracle(values, verdict.generator)))
    return {"lambda": parts, "exact": bool(args.exact),
            "decidable": verdict.decidable, "discrete": verdict.discrete,
            "generator": str(verdict.generator) if verdict.generator else None,
            "reason": verdict.reason}, checks


@_task("full-report",
       ("--probe-samples", dict(type=_int_range(0), default=0)),
       ("--t-max", dict(type=float, default=50.0)),
       metric=True)
def task_full_report(args, spec, metric):
    form = k_lambda(spec)
    rng = np.random.default_rng(args.seed)
    x, y, z = rng.standard_normal((200, 3, spec.dim)).transpose(1, 0, 2)
    rep = connection_report(levi_civita(metric))
    checks = [
        _check("jacobi", "jacobi identity residual", jacobi_residual(spec, x, y, z), 1e-12),
        _check("ad_invariance", "bi-invariant form is ad-invariant",
               ad_invariance_residual(form, seed=args.seed), 1e-12),
        _check("k_symmetry", "u is symmetric for the bi-invariant form",
               k_symmetry_residual(form, metric.iso.matrix), K_SYMMETRY_TOL),
        _check("torsion", "connection is torsion-free", rep["torsion_residual"], 1e-10),
        _check("compatibility", "connection is metric-compatible",
               rep["compat_residual"], 1e-10),
        _check("local_symmetry", "local symmetry identity over basis triples",
               rep["locsym_residual"], _locsym_tolerance(metric)),
    ]
    fields = {"metric_kind": metric.iso.kind, "seed": args.seed,
              "metric": {"index": metric.index,
                         "completeness_verdict": completeness_criteria(metric.iso)},
              "connection": rep}
    if args.probe_samples:
        probe = flows.completeness_probe(metric, args.probe_samples, args.t_max,
                                         seed=args.seed)
        fields["probe"] = {"n_blowup": probe.n_blowup,
                           "n_underflow": probe.n_underflow,
                           "earliest_blowup": probe.earliest_blowup}
        checks += _no_blowups(probe)
    return fields, checks


def _run_task(args) -> int:
    """Parse the declared inputs (--lambda, then --metric), run the body and
    wrap its result in the report envelope."""
    body, _, takes_metric, takes_spec = _TASKS[args.task]
    report = {"task": args.task}
    inputs = []
    if takes_spec:
        spec = _parse_lambda(args.lam)
        report["lambda"] = list(spec.lambdas)
        inputs.append(spec)
        if takes_metric:
            inputs.append(_parse_metric(spec, args.metric))
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or inf fails its check
        fields, checks = body(args, *inputs)
    report.update(fields, checks=checks)
    return _finish(report, args)


# -- argument wiring --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Rejects a bad command line as an ``InputError``, like every other input
    error; subparsers inherit it."""

    def error(self, message):
        raise InputError(message)


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
        p.add_argument("--lambda", dest="lam", required=True,
                       help="comma-separated frequencies")
        p.add_argument("--seed", type=_int_range(0), default=0)
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout even with --out")
        if takes_metric:
            p.add_argument("--metric", required=True,
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
    try:
        args = _build_parser().parse_args(_attach_negative_values(argv))
        if args.task == "run":
            return _run_scenario(args.scenario)
        return _run_task(args)
    except (InputError, ode.SolverInputError, ode.SolverRefusal) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
