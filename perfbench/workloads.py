"""The benchmark workloads: inputs made from a seed, one op, its checks.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  An op's outputs are checked after its
time is taken.  The first op of a run is checked in full (exit status,
report schema and the estimator identities); every later op must
reproduce the first op's outputs byte for byte, which carries the full
check over to it.  After the last op, ``check_band`` compares the first
op's lower bound with the simulator's Monte-Carlo oracle; it runs last
so that the oracle's memory stays out of the measured peak.
"""

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading

import jsonschema

from grouploss import cli
from grouploss.data import write_dataset_csv
from grouploss.scoring import BRIER_SCALAR
from grouploss.simulate import (
    RealisticSimulator,
    default_realistic,
    sample_realistic,
    simulator_to_spec,
    true_gl_monte_carlo,
)

# the oracle reference of acceptance criterion 1
ORACLE_N = 400_000
ORACLE_SEED = 12345

# criterion 5's tolerance on explained = plugin - bias
IDENTITY_TOL = 1e-10

CHILD_TIMEOUT_S = 60.0
WARM_UP_ROWS = 10_000

# Half-widths of the band |gl_lower_bound - gl_true| must stay within.
# Each is |mean| + 6 sd of (gl_lower_bound - gl_true) over 12 seeds of the
# workload, measured by ``perfbench/calibrate_bands.py``.
BANDS = {
    "cli-kmeans-1e5": 0.0046,
    "large-n-2e5": 0.0029,
    "fine-regions-d8": 0.0068,
    "sweep-1e4": {10: 0.0063, 30: 0.0084, 100: 0.0082, 1000: 0.0214},
}


class OpError(Exception):
    """An op's outputs failed a check."""


def d8_simulator():
    d = 8
    return RealisticSimulator(
        d=d,
        omega=(1.0,) + (0.0,) * (d - 1),
        omega_perp=(0.0, 1.0) + (0.0,) * (d - 2),
        sigma_eigenvalues=(1.0,) * d,
    )


def run_child(argv, env, stderr_path):
    """Run a subprocess to its end; return (exit code, peak RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _tail(path, limit=400):
    with open(path, "rb") as fh:
        return fh.read()[-limit:].decode("utf-8", "replace").strip()


class Workload:
    """One workload; ``setup`` makes its inputs from the seed."""

    name = ""
    rows_per_op = 0
    # an untimed op on a small input that fills caches and finishes lazy
    # set-up; checked for errors only
    warm_up = None

    def __init__(self, seed, root, workdir, child_env):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.child_env = child_env
        self.first = None
        self.input_bytes = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        raise NotImplementedError

    def op(self):
        """Run one op; return what ``check`` needs."""
        raise NotImplementedError

    def traced_op(self, tracer):
        """Run one op with ``tracer`` installed; return (output, stages)."""
        tracer.install()
        try:
            out = self.op()
        finally:
            tracer.remove()
        return out, tracer.take()

    def outputs(self, out):
        """The op's output bytes, compared across the ops of a run."""
        raise NotImplementedError

    def check_first(self, outputs):
        raise NotImplementedError

    def check(self, out):
        outputs = self.outputs(out)
        if self.first is None:
            self.check_first(outputs)
            self.first = outputs
        elif outputs != self.first:
            raise OpError("outputs differ from the first op on the same input")

    def peak_rss_kib(self):
        """Peak resident memory of the process that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def lower_bounds(self, outputs):
        """``{key: (gl_lower_bound, gl_true)}`` for the oracle band."""
        raise NotImplementedError

    def check_band(self):
        """Check the first op's lower bounds against the oracle band."""
        band = BANDS[self.name]
        for key, (lb, gl_true) in self.lower_bounds(self.first).items():
            width = band[key] if isinstance(band, dict) else band
            if not abs(lb - gl_true) <= width:
                raise OpError(f"gl_lower_bound {lb!r} is outside {gl_true!r} +- {width} ({key})")


class _ReportWorkload(Workload):
    """A workload whose op produces a report JSON and a diagram CSV."""

    sim = None

    def __init__(self, *args):
        super().__init__(*args)
        with open(os.path.join(self.root, "docs", "report_schema.json"), encoding="utf-8") as fh:
            self.schema = jsonschema.Draft7Validator(json.load(fh))

    def check_first(self, outputs):
        report = json.loads(outputs[0])
        errors = sorted(self.schema.iter_errors(report), key=str)
        if errors:
            raise OpError(f"report fails the schema: {errors[0].message}")
        lb, ex, ind = report["gl_lower_bound"], report["gl_explained"], report["gl_induced"]
        if None in (lb, ex, ind) or lb != ex - ind:
            raise OpError(f"gl_lower_bound {lb!r} != gl_explained - gl_induced")
        plugin, bias = report["gl_plugin"], report["gl_bias"]
        if not abs(ex - (plugin - bias)) < IDENTITY_TOL:
            raise OpError(f"gl_explained {ex!r} != gl_plugin - gl_bias")
        if report["n_rows"] != self.rows_per_op:
            raise OpError(f"report covers {report['n_rows']} rows, not {self.rows_per_op}")

    def lower_bounds(self, outputs):
        gl_true = true_gl_monte_carlo(self.sim, BRIER_SCALAR, ORACLE_N, ORACLE_SEED).value
        return {"report": (json.loads(outputs[0])["gl_lower_bound"], gl_true)}


class CliKmeans(_ReportWorkload):
    """``grouploss estimate --partition kmeans:8`` in a fresh interpreter."""

    name = "cli-kmeans-1e5"
    rows_per_op = 100_000
    sim = default_realistic()

    def setup(self):
        ds, _ = sample_realistic(self.sim, self.rows_per_op, self.seed)
        data = self.path("data.csv")
        write_dataset_csv(data, ds)
        self.input_bytes = os.path.getsize(data)
        self.rss_kib = []
        self.args = [
            "estimate", data, "--partition", "kmeans:8", "--seed", str(self.seed),
            "--out", self.path("report.json"), "--diagram-out", self.path("diagram.csv"),
        ]

    def _run(self, argv):
        for name in ("report.json", "diagram.csv"):
            if os.path.exists(self.path(name)):
                os.remove(self.path(name))
        code, rss_kib = run_child(argv, self.child_env, self.path("stderr.txt"))
        self.rss_kib.append(rss_kib)
        return code

    def peak_rss_kib(self):
        return statistics.median(self.rss_kib)

    def op(self):
        return self._run([sys.executable, "-m", "grouploss.cli", *self.args])

    def traced_op(self, tracer):
        spans = self.path("stages.json")
        tracer_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
        out = self._run([sys.executable, tracer_py, spans, *self.args])
        with open(spans, encoding="utf-8") as fh:
            return out, json.load(fh)

    def outputs(self, code):
        if code != 0:
            raise OpError(f"exit code {code}: {_tail(self.path('stderr.txt'))}")
        with open(self.path("report.json"), encoding="utf-8") as fh:
            report = fh.read()
        with open(self.path("diagram.csv"), encoding="utf-8") as fh:
            return report, fh.read()


class _InProcessPipeline(_ReportWorkload):
    """``cli.run_pipeline`` plus the report's JSON and diagram text."""

    config = {}

    def setup(self):
        self.ds, _ = sample_realistic(self.sim, self.rows_per_op, self.seed)
        self.input_bytes = self.ds.features.nbytes + self.ds.scores.nbytes + self.ds.labels.nbytes
        self.cfg = cli.RunConfig(seed=self.seed, **self.config)

    def warm_up(self):
        ds, _ = sample_realistic(self.sim, WARM_UP_ROWS, self.seed)
        cli.run_pipeline(ds, self.cfg).to_json()

    def op(self):
        report = cli.run_pipeline(self.ds, self.cfg)
        return report.to_json(), report.diagram_csv()

    def outputs(self, out):
        return out


class LargeN(_InProcessPipeline):
    """Default config at the largest n a run can time several ops of."""

    name = "large-n-2e5"
    rows_per_op = 200_000
    sim = default_realistic()


class FineRegionsD8(_InProcessPipeline):
    """Eight features and a fine tree: split search dominates."""

    name = "fine-regions-d8"
    rows_per_op = 50_000
    sim = d8_simulator()
    config = {"region_ratio": 10}


class Sweep(Workload):
    """``grouploss sweep`` over the region ratio, in process."""

    name = "sweep-1e4"
    values = (10, 30, 100, 1000)
    n = 10_000
    repeats = 5
    rows_per_op = len(values) * repeats * n

    def setup(self):
        spec = self.path("spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(simulator_to_spec(default_realistic()), fh)
        self.input_bytes = os.path.getsize(spec)
        self.argv = [
            "sweep", spec, "--axis", "region_ratio",
            "--values", ",".join(map(str, self.values)),
            "--n", str(self.n), "--repeats", str(self.repeats),
            "--seed", str(self.seed), "--out", self.path("sweep.csv"),
        ]

    def warm_up(self):
        small = ["--n", str(WARM_UP_ROWS), "--repeats", "1"]
        cli.main(self.argv + small + ["--out", self.path("warm-up.csv")])

    def op(self):
        return cli.main(self.argv)

    def outputs(self, out):
        if out != 0:
            raise OpError(f"sweep exit code {out}")
        with open(self.path("sweep.csv"), encoding="utf-8") as fh:
            return fh.read()

    def _rows(self, outputs):
        lines = outputs.strip().split("\n")
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def check_first(self, outputs):
        rows = self._rows(outputs)
        if [int(r["value"]) for r in rows] != list(self.values):
            raise OpError("sweep rows do not match the swept values")
        for r in rows:
            lb, ex, ind = (float(r[k]) for k in ("gl_lb", "gl_explained", "gl_induced"))
            if not math.isfinite(lb) or int(r["repeats_used"]) != self.repeats:
                raise OpError(f"ratio {r['value']}: {r['repeats_used']} usable repeats")
            if not abs(lb - (ex - ind)) < IDENTITY_TOL:
                raise OpError(f"ratio {r['value']}: gl_lb != gl_explained - gl_induced")

    def lower_bounds(self, outputs):
        return {
            int(r["value"]): (float(r["gl_lb"]), float(r["gl_true"]))
            for r in self._rows(outputs)
        }


WORKLOADS = {w.name: w for w in (CliKmeans, LargeN, FineRegionsD8, Sweep)}
