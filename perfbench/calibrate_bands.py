"""Measure the seed-to-seed spread behind ``workloads.BANDS``.

Runs one op of every workload on each of twelve seeds (not timed) and
prints, per workload and key, the mean and standard deviation of
``gl_lower_bound - gl_true`` and the band half-width ``|mean| + 6 sd``.

    python3 perfbench/calibrate_bands.py
"""

import os
import shutil
import statistics

import run

SEEDS = range(1000, 1012)


def main():
    run.prepare()
    from workloads import WORKLOADS

    env = run.child_env()
    for name, cls in WORKLOADS.items():
        deviations = {}
        for seed in SEEDS:
            workdir = os.path.join(run.ROOT, ".perfbench_work", f"bands-{name}-{seed}")
            os.makedirs(workdir)
            try:
                w = cls(seed, run.ROOT, workdir, env)
                w.setup()
                outputs = w.outputs(w.op())
                for key, (lb, gl_true) in w.lower_bounds(outputs).items():
                    deviations.setdefault(key, []).append(lb - gl_true)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        for key, devs in deviations.items():
            mean, sd = statistics.mean(devs), statistics.stdev(devs)
            print(f"{name} {key}: mean {mean:.6f} sd {sd:.6f} "
                  f"half-width {abs(mean) + 6 * sd:.6f}", flush=True)


if __name__ == "__main__":
    main()
