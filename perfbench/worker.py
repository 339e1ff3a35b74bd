"""The workload process: set up osclab, run passes for a time budget, and
print one JSON line with the raw measurements.

``run.py`` starts this file; it can also be run by hand with the same
arguments (see ``--help``).  The process prints ``ready`` once set-up is
done: importing osclab, numpy and scipy, and one untimed warm-up task.
With ``--setup-only`` it stops there.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# A reference-loop time is taken between tasks once this many seconds passed.
REF_EVERY_S = 0.5


class SetupError(Exception):
    """The checkout cannot be benchmarked; maps to exit code 2."""


def import_osclab():
    """Import osclab from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "osclab", "__init__.py")):
        raise SetupError(f"no osclab sources under {SRC}")
    sys.path.insert(0, SRC)
    import osclab

    if os.path.dirname(os.path.dirname(os.path.abspath(osclab.__file__))) != SRC:
        raise SetupError(f"imported osclab from {osclab.__file__}, not from {SRC}")
    import workloads

    return workloads


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small numpy operations and Python
    arithmetic, shaped like an RK stage loop and independent of osclab.

    A shared machine's speed can drift by 2x within minutes (load on a
    sibling vCPU or from outside); the ratio of osclab work to this loop
    drifts far less, so run.py uses it to report times at a fixed
    reference speed.
    """
    import numpy as np

    t0 = time.perf_counter()
    table = np.linspace(-1.0, 1.0, 216).reshape(36, 6)
    weights = np.full(6, 0.1)
    y = np.ones(6)
    k = np.zeros((7, 6))
    for _ in range(400):
        for j in range(1, 7):
            k[j] = np.outer(y, y).ravel() @ table * 1e-3
            y = y + 0.01 * (k[:j].T @ weights[:j])
        float(np.sqrt(np.mean((y / (1e-12 + 1e-10 * np.abs(y))) ** 2)))
    return time.perf_counter() - t0


def run_passes(wl, workload, seed, out_dir, deadline=None, indices=None,
               tracer=None, tiny=False) -> dict:
    """Run passes in order until ``deadline`` (checked between tasks, after
    at least one whole pass) or over exactly ``indices``.

    Returns, per whole pass, the (latency, end time) of each task, so that
    every run's sample has the same composition; the tasks attempted; the
    failures with their reasons; and (time, duration) of reference-loop
    samples taken about every REF_EVERY_S seconds between tasks.  A task's
    latency covers only its call into osclab; its output is checked after
    the clock stops.
    """
    corpus = {"probe": wl.probe_corpus,
              "trajectory": wl.trajectory_corpus}.get(workload, lambda: None)()
    out = {"passes": [], "attempted": 0, "failures": [], "refs": []}

    def sample_reference():
        duration = reference_loop()
        out["refs"].append((time.perf_counter(), duration))

    sample_reference()
    task_id = 0
    for index in indices if indices is not None else itertools.count():
        done = []
        for task in wl.make_pass(workload, seed, index, corpus=corpus, tiny=tiny):
            if deadline is not None and out["passes"] and time.perf_counter() >= deadline:
                return out
            if tracer is not None:
                tracer.task = (task_id, task["n"])
            t0 = time.perf_counter()
            try:
                result = wl.run_task(task, out_dir)
                reason = None
            except Exception as exc:  # a raising task is a failed task; the run goes on
                reason = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.task = None
            if reason is None:
                try:
                    reason = wl.check_task(task, result)
                except Exception as exc:  # an output the check cannot read is wrong
                    reason = f"check raised {type(exc).__name__}: {exc}"
            out["attempted"] += 1
            task_id += 1
            done.append((t1 - t0, t1))
            if reason is not None:
                out["failures"].append({"pass": index, "task": task["kind"],
                                        "n": task["n"], "reason": reason})
            if time.perf_counter() - out["refs"][-1][0] >= REF_EVERY_S:
                sample_reference()
        out["passes"].append(done)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = None
    config = getattr(numpy, "__config__", None)
    deps = getattr(config, "CONFIG", {}).get("Build Dependencies", {}) if config else {}
    if "blas" in deps:
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every task (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    try:
        wl = import_osclab()
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reports-", dir=OUT)
    try:
        warm = wl.warmup_task(args.workload)
        reason = wl.check_task(warm, wl.run_task(warm, out_dir))
        if reason is not None:
            print(f"error: warm-up task failed: {reason}", file=sys.stderr)
            return 1
        t_ready = time.perf_counter()
        print("ready", flush=True)
        if args.setup_only:
            return 0

        result = {"setup": {"import_s": t_import - T_START, "warmup_s": t_ready - t_import},
                  "env": environment()}
        start = time.perf_counter()
        budget = args.seconds / 2 if args.trace else args.seconds
        result.update(run_passes(wl, args.workload, args.seed, out_dir,
                                 deadline=start + budget, tiny=args.tiny))
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, args.workload, args.seed, out_dir,
                                    indices=range(len(result["passes"])),
                                    tracer=tracer, tiny=args.tiny)
            finally:
                tracer.uninstall()
            result["attempted"] += traced["attempted"]
            result["failures"] += traced["failures"]
            path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.write(path)
            result["trace"] = {
                "layers": tracing.layer_metrics(tracer, len(traced["passes"])),
                "summary": tracer.summary(),
                "passes": traced["passes"], "refs": traced["refs"],
                "spans_file": os.path.relpath(path, ROOT),
            }
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
