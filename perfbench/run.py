"""Benchmark of the grouploss estimator, end to end and per stage.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --digests

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One run makes the workload's inputs from ``--seed``,
then runs ops one at a time for ``--seconds`` seconds and checks each
op's outputs (see ``workloads.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (ops that raised,
exited non-zero or failed a check) and ``metrics``.  The lines before it
give the environment and each metric by name with its unit.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``setup_s`` is the median of five fresh interpreters importing
``grouploss.cli``, taken between the first ops; ``op_s`` the median op
time after one untimed warm-up op on a small input (none for the CLI
workload, whose users pay start-up on every call); ``rows_per_s`` the op's input rows over ``op_s``; ``peak_rss_mb`` the peak
resident memory of the process doing the work.

``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics: the stage spans of the traced op with the median time
(so they add up within one op) and ``trace.overhead_s``, the median traced
op time minus the median untraced one.

``--workload all`` runs every workload in its own process and prints one
table.  ``--digests`` prints the SHA-256 of ``report.json`` for a fixed
matrix of inputs and configs and compares them with
``perfbench/report_digests.txt``; it is untimed.

``GROUPLOSS_THREADS`` and ``GROUPLOSS_NO_NUMBA`` are cleared, so the
program runs as a user gets it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CLEARED_ENV = ("GROUPLOSS_THREADS", "GROUPLOSS_NO_NUMBA")
SETUP_REPEATS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_sample(env):
    """Seconds for a fresh interpreter to import ``grouploss.cli``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import grouploss.cli"], env=env, check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, check=True)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.CalledProcessError):
        return None


def environment(found_env, workload):
    import importlib.util

    import numpy
    import scipy

    try:
        from grouploss import _backend
    except ImportError:
        _backend = None
    backend = getattr(_backend, "backend_name", lambda: "numpy")()
    threads = getattr(_backend, "thread_count", lambda: 1)()
    numba = getattr(_backend, "HAVE_NUMBA", importlib.util.find_spec("numba") is not None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "llc_bytes": _getconf("LEVEL3_CACHE_SIZE") or _getconf("LEVEL2_CACHE_SIZE"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "numba_imports": bool(numba),
        "env_found": found_env,
        "thread_count": threads,
        "workload": workload.name,
        "input_rows_per_op": workload.rows_per_op,
        "input_bytes": workload.input_bytes,
    }


def run_ops(w, seconds, tracer, between=None):
    """Closed loop for ``seconds``.

    Returns ([(seconds, traced, stages)] of the timed ops, failures, ops
    attempted).  ``between()`` runs before each op, outside the measured
    window.
    """
    ops, failures = [], []

    def one(traced=False, warm_up=False):
        t0 = time.perf_counter()
        stages = None
        try:
            if warm_up:
                w.warm_up()
            elif traced:
                out, stages = w.traced_op(tracer)
            else:
                out = w.op()
            elapsed = time.perf_counter() - t0
            if not warm_up:
                w.check(out)
        except Exception:  # an op failure is counted, and the loop goes on
            elapsed = time.perf_counter() - t0
            failures.append(traceback.format_exc(limit=3))
            print(f"perfbench: op failed\n{failures[-1]}", file=sys.stderr)
        return elapsed, traced, stages

    if w.warm_up is not None:
        one(warm_up=True)
    deadline = time.perf_counter() + seconds
    while True:
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
        ops.append(one(traced=tracer is not None and len(ops) % 2 == 1))
        if time.perf_counter() >= deadline and (tracer is None or len(ops) >= 2):
            break
    return ops, failures, len(ops) + (w.warm_up is not None)


def prepare():
    """Check the checkout, clear the settings in ``CLEARED_ENV``, import from src.

    Returns the cleared settings as found.
    """
    for name in ("src/grouploss/__init__.py", "docs/report_schema.json", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, name)):
            fail(f"{name} not found under {ROOT}: run from a grouploss source checkout")
    found_env = {name: os.environ.pop(name, None) for name in CLEARED_ENV}
    sys.path.insert(0, SRC)
    import grouploss

    if not os.path.abspath(grouploss.__file__).startswith(SRC + os.sep):
        fail(f"grouploss imported from {grouploss.__file__}, not from {SRC}")
    return found_env


def run_workload(args, found_env):
    import tracer as tracing
    from workloads import WORKLOADS, OpError

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)

    env = child_env()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        w = WORKLOADS[args.workload](args.seed, ROOT, workdir, env)
        w.setup()
        setup = []
        if args.trace:
            ops, failures, attempted = run_ops(w, args.seconds, tracing.Tracer())
        else:
            # spread the set-up samples over the run, so that one slow spell
            # of the machine does not hold all of them
            def between():
                if len(setup) < SETUP_REPEATS:
                    setup.append(setup_sample(env))

            ops, failures, attempted = run_ops(w, args.seconds, None, between)
            while len(setup) < SETUP_REPEATS:
                setup.append(setup_sample(env))
        peak_rss_mb = w.peak_rss_kib() / 1024.0
        if w.first is not None:
            try:
                w.check_band()
            except OpError as exc:
                failures.append(f"first op: {exc}")
                print(f"perfbench: {failures[-1]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it

    print("env " + json.dumps(environment(found_env, w), sort_keys=True))
    plain = [s for s, traced, _ in ops if not traced]
    op_s = statistics.median(plain)
    if args.trace:
        traced_ops = [op for op in ops if op[1]]
        stages = tracing.median_op([op for op in traced_ops if op[2] is not None] or
                                   [(0.0, True, {})])[2]
        metrics = tracing.layer_metrics(stages)
        overhead = statistics.median(s for s, _, _ in traced_ops) - op_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for stage, row in sorted(stages.items()):
            print(f"{w.name} stage {stage}: {row['s']:.4f} s wall, {row['self_s']:.4f} s self, "
                  f"{int(row['calls'])} calls on {row['threads']} thread(s)")
        expected = manifest["per_layer"]
    else:
        rows_per_s = w.rows_per_op / op_s
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        expected = manifest["end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        fail("metrics disagree with BENCHMARK.json: " + ", ".join(sorted(metrics)))
    for name, m in metrics.items():
        print(f"{w.name} {name} = {m['value']!r} {m['unit']}")
    print(f"{w.name} op_s is the median of {len(plain)} ops: "
          + " ".join(f"{s:.4f}" for s in plain))
    print(f"{w.name} ops_failed_frac = {len(failures) / attempted!r} "
          f"({len(failures)} of {attempted} ops)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


def run_all(args):
    """Every workload in its own process, then one table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print()
    header = f"{'metric':<32}" + "".join(f"{n:>24}" for n in results)
    print(header)
    for metric in names + ["ops_failed_frac"]:
        row = f"{metric:<32}"
        for r in results.values():
            if metric == "ops_failed_frac":
                cell = f"{r['failed'] / r['attempted']:.4g} ({r['attempted']} ops)"
            else:
                m = r["metrics"][metric]
                cell = f"{m['value']:.4g} {m['unit']}"
            row += f"{cell:>24}"
        print(row)
    if any(not r["correct"] for r in results.values()):
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="print report digests and compare them with the reference")
    args = parser.parse_args()
    if not args.digests and not args.workload:
        parser.error("--workload or --digests is required")
    found_env = prepare()
    if args.digests:
        import digests

        sys.exit(digests.main())
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args, found_env)


if __name__ == "__main__":
    main()
