"""Run one osclab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  The lines before it record the environment, the
task-tail percentile and, when traced, a per-layer table.  Everything is
also written to ``.perfbench_out/`` in the checkout.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("probe", "trajectory", "report")
# Set-up is measured in this many fresh processes per untraced run; the
# median is reported.
SETUP_SAMPLES = 7
# Every run must end within 180 s; the workload process is killed after this.
RUN_LIMIT_S = 170.0
# One process generates the load, and so that it uses one core the BLAS
# pools are pinned to a single thread (osclab's matrices are at most 14x14).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Task times are reported at a fixed reference speed: a measured time times
# REF_NOMINAL_S over the duration of the worker.reference_loop sample taken
# nearest to the task's end (samples are about half a second apart).  A
# shared machine's speed can drift by 2x within minutes and changes within
# seconds: over ten seeds the nearest sample narrowed the spread of the
# task times more than the median of the nearest 3 to 31 samples did, and
# far more than no scaling (README.md).  The measured values are in the
# first output line.
REF_NOMINAL_S = 0.025
TIME_UNITS = ("s", "ms", "us")
# task_tail_ms is read at this fixed percentile: the highest with at least
# ten tasks beyond it in a run of four passes (220 trajectory or 216 report
# tasks).  A run holds as many passes as fit in --seconds (13 to 33 here),
# so "ten tasks beyond" alone would read a faster program at a higher
# percentile, and a percentile on the edge of a cluster of similar tasks
# would move with the pass count.
TAIL_PERCENTILE = 95.0


class RunError(Exception):
    pass


def _worker_cmd(args, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--tiny"] if args.tiny else []) + list(extra)


def _start(cmd, deadline):
    """Start a worker; return (process, seconds from start to its ready line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **THREAD_ENV))
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if readable else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise RunError("workload process failed during set-up")
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RunError(f"workload process did not finish within {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}")
    return out


def run_workload(args):
    """Returns (setup samples, the workload process's measurements)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        proc, seconds = _start(_worker_cmd(args, "--setup-only"), deadline)
        _finish(proc, deadline)
        setup.append(seconds)
    proc, seconds = _start(_worker_cmd(args), deadline)
    setup.append(seconds)
    lines = [ln for ln in _finish(proc, deadline).splitlines() if ln.strip()]
    if not lines:
        raise RunError("workload process printed no result")
    return setup, json.loads(lines[-1])


def speed_at(refs, t):
    """REF_NOMINAL_S over the reference-loop duration sampled nearest to
    time ``t``."""
    _, duration = min(refs, key=lambda ref: abs(ref[0] - t))
    return REF_NOMINAL_S / duration


def at_reference_speed(passes, refs):
    """Whole-pass times and task latencies, each task scaled by speed_at."""
    scaled = [[dt * speed_at(refs, end) for dt, end in p] for p in passes]
    return [sum(p) for p in scaled], [dt for p in scaled for dt in p]


def tail(latencies):
    """The TAIL_PERCENTILE latency (nearest rank) and the number of tasks
    beyond it."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    """sha256 over the program's sources, which identifies the code measured
    also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args, worker_env):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), **worker_env,
        "thread_env": THREAD_ENV,
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
    }


def declared_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one osclab benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every task (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        declared = declared_metrics(args.trace)
        setup, res = run_workload(args)
    except (RunError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted, failures = res["attempted"], res["failures"]
    pass_times, latencies = at_reference_speed(res["passes"], res["refs"])
    raw_passes = [sum(dt for dt, _ in p) for p in res["passes"]]
    raw_latencies = [dt for p in res["passes"] for dt, _ in p]
    info = {"env": environment(args, res["env"]), "passes": len(res["passes"]),
            "tasks_timed": len(latencies), "failures": failures[:20],
            "reference_loop_s": statistics.median(d for _, d in res["refs"])}
    if args.trace:
        tr = res["trace"]
        traced_times, _ = at_reference_speed(tr["passes"], tr["refs"])
        speed = REF_NOMINAL_S / statistics.median(d for _, d in tr["refs"])
        metrics = {name: (v if v is None or u not in TIME_UNITS else v * speed, u)
                   for name, (v, u) in tr["layers"].items()}
        metrics["setup.import_s"] = (res["setup"]["import_s"], "s")
        metrics["setup.warmup_s"] = (res["setup"]["warmup_s"], "s")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(pass_times) - 1, "ratio")
        not_reached = sorted(k for k, v in tr["summary"].items() if v == "not reached")
        metrics["trace.not_reached"] = (len(not_reached), "count")
        info.update(not_reached=not_reached, spans_file=tr["spans_file"],
                    speed_factor_traced=speed, functions=tr["summary"])
    else:
        tail_value, beyond = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(pass_times), "s"),
            "task_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "task_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "pass_frac": ((attempted - len(failures)) / attempted, "ratio"),
        }
        info.update(measured={"wall_s": statistics.median(raw_passes),
                              "task_p50_ms": statistics.median(raw_latencies) * 1e3,
                              "task_tail_ms": tail(raw_latencies)[0] * 1e3},
                    setup_samples_s=setup,
                    task_tail_percentile=TAIL_PERCENTILE, task_count=len(latencies),
                    tasks_beyond_tail=beyond,
                    pass_times_s=pass_times, fail_frac=len(failures) / attempted)
    metrics["fail_frac"] = (len(failures) / attempted, "ratio")

    missing = sorted(set(declared) - set(metrics))
    wrong_unit = sorted(k for k, u in declared.items() if k in metrics and metrics[k][1] != u)
    if missing or wrong_unit:
        print(f"error: metrics missing {missing}, with other units {wrong_unit}",
              file=sys.stderr)
        return 1

    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": 0 if metrics[k][0] is None else metrics[k][0],
                            "unit": u} for k, u in declared.items()}}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        # The measured (latency, end time) of every task and the reference
        # samples, so that other statistics can be computed from a run.
        json.dump({"info": info, "result": line,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "timings": {"passes": res["passes"], "refs": res["refs"]}}, fh)
    print(json.dumps(info))
    if args.trace:
        for name, (value, unit) in sorted(metrics.items()):
            shown = "not reached" if value is None else f"{value:.6g}"
            print(f"  {name:36s} {shown:>14s} {unit}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
