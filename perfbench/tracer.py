"""Per-stage spans for grouploss, recorded from outside the package.

A traced stage is the function at the name its caller looks up, such as
``grouploss.cli.fit_partition`` or ``grouploss.kernels.best_split``.
``Tracer.install`` replaces each such name with a wrapper that records a
span (stage, thread, start, end, parent span and exact counts) and
``Tracer.remove`` puts the originals back.  Spans are named after the
callee's module, whichever module the name is looked up in.  A name the
program no longer has is skipped, so the stage reads as zero.

Run as a script, this module is the traced form of the ``grouploss``
command: ``python3 perfbench/tracer.py SPANS_JSON ARGS...`` imports
``grouploss.cli``, installs the tracer, calls ``cli.main(ARGS)`` once and
writes the per-op stage summary to ``SPANS_JSON``.
"""

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _support_points(args, result):
    return {"support_points": int(result.support.size)}


def _lowess_work(args, result):
    grid, k = args[2], int(args[3])
    return {"work": int(grid.shape[0]) * k, "window_k": k}


def _split_rows(args, result):
    X = args[0]
    return {"rows": int(X.shape[0]) * int(X.shape[1])}


def _partition_counts(args, result):
    bview, split, strategy, ratio = args[0], args[3], args[4], args[5]
    regions = [int(a.n_regions) for a in result.assigners]
    at_cap = 0
    if type(strategy).__name__ == "Tree":
        n_train = np.bincount(bview.bin_of[split.train_rows], minlength=len(regions))
        for leaves, n in zip(regions, n_train.tolist()):
            if n >= 2 and leaves >= max(n // ratio, 1):
                at_cap += 1
    return {"regions": sum(regions), "bins_at_leaf_cap": at_cap}


def _text_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute path in it, stage name, counter of exact counts)
STAGES = (
    ("grouploss.cli", "run_pipeline", "cli.run_pipeline", None),
    ("grouploss.cli", "reduce_dataset", "cli.reduce_dataset", None),
    ("grouploss.cli", "read_dataset_csv", "data.read_dataset_csv", _file_bytes),
    ("grouploss.cli", "stratified_split", "data.stratified_split", None),
    ("grouploss.cli", "make_bins", "binning.make_bins", None),
    ("grouploss.cli", "fit_calibration_curve", "calibration.fit_calibration_curve",
     _support_points),
    ("grouploss.kernels", "lowess_grid", "kernels.lowess_grid", _lowess_work),
    ("grouploss.cli", "gl_induced_estimate", "glestim.gl_induced_estimate", None),
    ("grouploss.cli", "fit_partition", "partition.fit_partition", _partition_counts),
    ("grouploss.kernels", "best_split", "kernels.best_split", _split_rows),
    ("grouploss.cli", "assign_regions", "partition.assign_regions", None),
    ("grouploss.cli", "region_stats", "glestim.region_stats", None),
    ("grouploss.cli", "gl_explained_debiased", "glestim.gl_explained_debiased", None),
    ("grouploss.cli", "build_report", "glestim.build_report", None),
    ("grouploss.glestim", "clopper_pearson", "glestim.clopper_pearson", None),
    ("grouploss.glestim", "GroupingReport.to_json", "glestim.to_json", _text_bytes),
    ("grouploss.glestim", "GroupingReport.diagram_csv", "glestim.diagram_csv", None),
    ("grouploss.cli", "sample_realistic", "simulate.sample", None),
    ("grouploss.cli", "sample_link_1d", "simulate.sample", None),
    ("grouploss.cli", "true_gl_monte_carlo", "simulate.true_gl_monte_carlo", None),
)

# per-layer metric -> (stage, field); "s" is wall time summed over the
# stage's calls in one op, "self_s" that time minus its direct children,
# "calls" the number of calls, any other field a count summed over calls
LAYER_METRICS = {
    "data.read_dataset_csv.s": ("data.read_dataset_csv", "s"),
    "data.read_dataset_csv.bytes": ("data.read_dataset_csv", "bytes"),
    "data.stratified_split.s": ("data.stratified_split", "s"),
    "cli.reduce_dataset.s": ("cli.reduce_dataset", "s"),
    "binning.make_bins.s": ("binning.make_bins", "s"),
    "calibration.fit_calibration_curve.s": ("calibration.fit_calibration_curve", "s"),
    "calibration.support_points": ("calibration.fit_calibration_curve", "support_points"),
    "calibration.window_k": ("kernels.lowess_grid", "window_k"),
    "kernels.lowess_grid.s": ("kernels.lowess_grid", "s"),
    "kernels.lowess_grid.work": ("kernels.lowess_grid", "work"),
    "kernels.best_split.calls": ("kernels.best_split", "calls"),
    "kernels.best_split.rows": ("kernels.best_split", "rows"),
    "kernels.best_split.busy_s": ("kernels.best_split", "s"),
    "partition.fit_partition.s": ("partition.fit_partition", "s"),
    "partition.assign_regions.s": ("partition.assign_regions", "s"),
    "partition.regions": ("partition.fit_partition", "regions"),
    "partition.bins_at_leaf_cap": ("partition.fit_partition", "bins_at_leaf_cap"),
    "glestim.gl_induced_estimate.s": ("glestim.gl_induced_estimate", "s"),
    "glestim.region_stats.s": ("glestim.region_stats", "s"),
    "glestim.gl_explained_debiased.s": ("glestim.gl_explained_debiased", "s"),
    "glestim.build_report.s": ("glestim.build_report", "s"),
    "glestim.clopper_pearson.calls": ("glestim.clopper_pearson", "calls"),
    "glestim.clopper_pearson.s": ("glestim.clopper_pearson", "s"),
    "glestim.to_json.s": ("glestim.to_json", "s"),
    "glestim.to_json.bytes": ("glestim.to_json", "bytes"),
    "glestim.diagram_csv.s": ("glestim.diagram_csv", "s"),
    "simulate.sample.s": ("simulate.sample", "s"),
    "simulate.true_gl_monte_carlo.s": ("simulate.true_gl_monte_carlo", "s"),
    "cli.run_pipeline.s": ("cli.run_pipeline", "s"),
    "cli.run_pipeline.self_s": ("cli.run_pipeline", "self_s"),
}


def layer_unit(field):
    if field in ("s", "self_s"):
        return "s"
    return "bytes" if field == "bytes" else "count"


class Span:
    __slots__ = ("stage", "thread", "parent", "start", "end", "child_s", "counts")

    def __init__(self, stage, parent):
        self.stage = stage
        self.thread = threading.get_ident()
        self.parent = parent
        self.child_s = 0.0
        self.counts = None


class Tracer:
    """Records spans of the ``STAGES`` while installed."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._installed = []

    def _wrap(self, fn, stage, counter):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(stage, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if span.parent is not None:
                span.parent.child_s += span.end - span.start
            if counter is not None:
                try:
                    span.counts = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the program changed shape; the stage keeps its time
            return result

        return traced

    def install(self):
        for module_name, path, stage, counter in STAGES:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, self._wrap(original, stage, counter))
            self._installed.append((owner, attr, original))

    def remove(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def take(self):
        """Per-stage totals of the spans recorded since the last call."""
        spans = self.spans[:]
        del self.spans[:len(spans)]
        return summarize(spans)


def summarize(spans):
    """``{stage: {"s", "self_s", "calls", count fields...}}`` over spans."""
    out = defaultdict(lambda: defaultdict(float))
    threads = defaultdict(set)
    for span in spans:
        row = out[span.stage]
        duration = span.end - span.start
        row["s"] += duration
        row["self_s"] += duration - span.child_s
        row["calls"] += 1
        threads[span.stage].add(span.thread)
        for field, value in (span.counts or {}).items():
            row[field] += value
    for stage, row in out.items():
        row["threads"] = len(threads[stage])
    return {stage: dict(row) for stage, row in out.items()}


def layer_metrics(stages):
    """The ``LAYER_METRICS`` of one op's stage summary; absent stages read 0."""
    out = {}
    for metric, (stage, field) in LAYER_METRICS.items():
        value = stages.get(stage, {}).get(field, 0)
        unit = layer_unit(field)
        out[metric] = {"value": value if unit == "s" else int(value), "unit": unit}
    return out


def median_op(ops):
    """The op whose duration is the (lower) median, so its spans add up."""
    ranked = sorted(ops, key=lambda op: op[0])
    return ranked[(len(ranked) - 1) // 2]


def _main(argv):
    out_path, args = argv[0], argv[1:]
    from grouploss import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(args)
    finally:
        tracer.remove()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
