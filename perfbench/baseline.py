"""Re-measure the ROADMAP Baseline figures on this machine, untraced.

    python3 perfbench/baseline.py

Prints, and writes to .perfbench_out/baseline.json: the accepted steps of
one euler-form trajectory (n = 2, t = 100, rtol 1e-10) and its time per
step, the time of one right-hand-side evaluation, and the local-symmetry
residual time at d = 10, 14, 18.  Each time is the median of repeats.
README.md compares them with the traced benchmark runs.
"""

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from osclab import algebra, connection, flows, metrics, ode  # noqa: E402


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _diagonal_metric(lams, eta, eta_check):
    spec = algebra.LambdaSpec(tuple(lams))
    iso = metrics.named_family(spec, "diagonal_sym", eta=eta, eta_check=eta_check)
    return metrics.metric_from_iso(metrics.k_lambda(spec), iso)


def main() -> int:
    metric = _diagonal_metric((1.0, 2.0), [0.4, 1.3], [0.6, 1.3])
    x0 = flows.random_initial_state(metric.spec, np.random.default_rng(0))
    prob = flows.FlowProblem(metric, x0, (0.0, 100.0), rtol=1e-10, atol=1e-12)
    f = prob.rhs
    res = ode.solve_rk45(f, prob.t_span, prob.x0, rtol=prob.rtol, atol=prob.atol)
    solve_s = _median_time(lambda: ode.solve_rk45(f, prob.t_span, prob.x0,
                                                  rtol=prob.rtol, atol=prob.atol), 3)
    rhs_s = _median_time(lambda: [f(0.0, x0) for _ in range(10_000)], 5) / 10_000
    out = {"trajectory_steps": res.n_steps, "trajectory_rejected": res.n_rejected,
           "us_per_step": solve_s / res.n_steps * 1e6, "us_per_rhs": rhs_s * 1e6,
           "locsym_ms": {}}
    for n in (4, 6, 8):
        lams = [1.0 + 0.5 * j for j in range(n)]
        table = connection.levi_civita(_diagonal_metric(lams, [0.4] * n, [0.6] * n))
        d = 2 * n + 2
        out["locsym_ms"][f"d{d}"] = _median_time(
            lambda: connection.local_symmetry_residual(table), 5) * 1e3
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "baseline.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
