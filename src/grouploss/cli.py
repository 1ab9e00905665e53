"""Command-line surface: estimate, simulate, sweep.

Exit codes: 0 on success, 2 on malformed input or configuration, 3 when
every bin is unestimable (a region with fewer than two test samples in
each of them).  All randomness flows from ``--seed``; rerunning a
command with identical inputs yields byte-identical outputs.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .binning import make_bins
from .calibration import (
    calibration_loss_binned,
    fit_calibration_curve,
    isotonic_fit,
)
from .data import (
    BinaryView,
    LabeledDataset,
    classwise_slice,
    read_dataset_csv,
    stratified_split,
    top_label_reduce,
    write_dataset_csv,
)
from .forking import run_tasks
from .glestim import (
    GroupingReport,
    binning_bounds,
    build_report,
    gl_explained_debiased,
    gl_induced_estimate,
    gl_lower_bound,
    load_betaincinv,
    region_stats,
)
from .partition import assign_regions, fit_partition, parse_strategy
from .scoring import BRIER_SCALAR, LOG_LOSS
from .simulate import (
    sample_realistic,
    simulator_from_spec,
    simulator_to_spec,
    true_gl_monte_carlo,
    true_losses_monte_carlo,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNESTIMABLE = 3

RULES = {"brier": BRIER_SCALAR, "logloss": LOG_LOSS}


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline configuration, echoed into every report."""

    rule: str = "brier"
    n_bins: int = 15
    region_ratio: int = 30
    partition: str = "tree"
    recalibrate: str = "none"
    reduction: str = "auto"
    seed: int = 0
    bandwidth_fraction: float = 0.3

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"rule must be brier or logloss, got {self.rule!r}")
        for flag, value in (("bins", self.n_bins), ("region-ratio", self.region_ratio)):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1")
            # numpy takes both as int64
            if value > np.iinfo(np.int64).max:
                raise ValueError(f"{flag} must be < 2**63, got {value}")
        parse_strategy(self.partition)
        if self.recalibrate not in ("none", "isotonic"):
            raise ValueError(f"recalibrate must be none or isotonic, got {self.recalibrate!r}")
        _parse_reduction(self.reduction)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.bandwidth_fraction <= 1.0:
            raise ValueError("bandwidth must lie in (0, 1]")

    def scoring_rule(self):
        return RULES[self.rule]

    def to_dict(self) -> dict:
        # the train/test split is always half and half
        return {**asdict(self), "split_fraction": 0.5}


def _parse_reduction(name: str):
    """The reduction ``name`` as a function from a dataset to its binary view."""
    if name == "auto":
        return lambda ds: (replace(classwise_slice(ds, 1), provenance="native")
                           if ds.n_classes == 2 else top_label_reduce(ds))
    if name == "top-label":
        return top_label_reduce
    if not name.startswith("classwise:"):
        raise ValueError(f"unknown reduction: {name!r}")
    try:
        k = int(name.split(":", 1)[1])
        if k < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"reduction {name!r}: classwise:K needs an integer K >= 0") from None
    return lambda ds: classwise_slice(ds, k)


def reduce_dataset(ds: LabeledDataset, reduction: str) -> BinaryView:
    """Resolve the configured reduction to a binary view."""
    return _parse_reduction(reduction)(ds)


def run_pipeline(ds: LabeledDataset, cfg: RunConfig) -> GroupingReport:
    """Reduction, optional recalibration, binning, partitioning, report.

    The partition and the isotonic map are fitted on the train half;
    region means, the binned calibration loss and the bounds are
    evaluated on the test half.  The induced-grouping-loss term uses the
    calibration curve over all rows.
    """
    rule = cfg.scoring_rule()
    bv, split, bview, stats, glx, induced = _estimate(ds, cfg)
    cl = calibration_loss_binned(bview, rule)
    bounds = binning_bounds(bview, rule) if rule is BRIER_SCALAR else None
    return build_report(
        cfg.to_dict(), stats, glx, induced, cl, bview, bounds,
        n_rows=bv.n, n_train=split.train_rows.size,
        metadata={"provenance": bv.provenance, "gl_induced_rows": "all"},
    )


def _estimate(ds: LabeledDataset, cfg: RunConfig):
    """The estimator's terms without the report: the binary view (its
    scores recalibrated where ``cfg`` asks), its split, the binned view,
    the region table, the explained term and the induced term."""
    bv = reduce_dataset(ds, cfg.reduction)
    split = stratified_split(bv, cfg.n_bins, cfg.seed)
    if cfg.recalibrate == "isotonic":
        iso = isotonic_fit(bv.score[split.train_rows], bv.label[split.train_rows])
        bv = bv.with_scores(iso(bv.score))
    # bin_of covers every row; the per-bin statistics cover the test half
    bview = make_bins(bv, cfg.n_bins, rows=split.test_rows)
    # the two halves do not need each other: a forked child fits the
    # partition while this process fits the curve
    induced, stats = run_tasks([(_induced_stage, (bview, bv.score, bv.label, cfg)),
                                (_partition_stage, (bview, bv.features, bv.label, split, cfg))])
    glx = gl_explained_debiased(stats, cfg.scoring_rule())
    return bv, split, bview, stats, glx, induced


def _induced_stage(bview, scores, labels, cfg):
    """The induced term, from the calibration curve over all rows."""
    curve = fit_calibration_curve(scores, labels, cfg.bandwidth_fraction)
    return gl_induced_estimate(curve, bview, scores, cfg.scoring_rule())


def _partition_stage(bview, features, labels, split, cfg):
    """The region table of the rows ``bview`` covers, under the partition
    fitted on the train half."""
    model = fit_partition(
        bview, features, labels, split,
        parse_strategy(cfg.partition), cfg.region_ratio, cfg.seed,
    )
    return region_stats(assign_regions(model, bview, features), bview, labels)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _flag(name):
    return "--" + name.replace("_", "-")


def _require_out_dirs(args, *names):
    """Reject an empty output path, one in a missing directory, or one
    that is a directory, before any input is read; and an output at the
    path of another output or of the input (``input`` or ``spec``),
    unless that path is an existing file other than a regular one, such
    as ``/dev/null`` or a FIFO, which takes both writes."""
    for name in names:
        path = getattr(args, name)
        if path == "":
            raise ValueError(f"{_flag(name)} '': the path is empty")
        parent = os.path.dirname(path or "") or "."
        if not os.path.isdir(parent):
            raise ValueError(f"{_flag(name)} {path}: No such file or directory: {parent!r}")
        if path and os.path.isdir(path):
            raise ValueError(f"{_flag(name)} {path}: Is a directory")
    claimed = {}  # a resolved path -> the argument that gave it first
    for name in ("input", "spec", *names):
        path = getattr(args, name, None)
        if path is None or (os.path.exists(path) and not os.path.isfile(path)):
            continue
        real = os.path.realpath(path)
        if real in claimed:
            raise ValueError(f"{_flag(name)} {path}: the same file as {claimed[real]}")
        claimed[real] = _flag(name) if name in names else name


def _run_config(args) -> RunConfig:
    """``RunConfig`` from the pipeline flags a command has; the rest default."""
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


def cmd_estimate(args) -> int:
    _require_out_dirs(args, "out", "diagram_out")
    cfg = _run_config(args)
    # the one command whose report needs scipy, for its intervals: it
    # loads here while a forked child parses the CSV
    _, ds = run_tasks([(load_betaincinv, ()), (read_dataset_csv, (args.input,))])
    report = run_pipeline(ds, cfg)
    _write_text(args.out, report.to_json())
    if args.diagram_out is not None:
        _write_text(args.diagram_out, report.diagram_csv())
    if not math.isfinite(report.gl_explained):
        print("error: every bin is unestimable at this region ratio", file=sys.stderr)
        return EXIT_UNESTIMABLE
    return EXIT_OK


def _load_simulator(path):
    with open(path, encoding="utf-8") as fh:
        return simulator_from_spec(json.load(fh))


def _require_positive(args, *names):
    for name in names:
        if getattr(args, name) < 1:
            raise ValueError(f"{_flag(name)} must be >= 1, got {getattr(args, name)}")


def cmd_simulate(args) -> int:
    _require_out_dirs(args, "out", "summary_out")
    _require_positive(args, "n", "oracle_n")
    cfg = _run_config(args)
    sim = _load_simulator(args.spec)
    ds, q_true = sample_realistic(sim, args.n, cfg.seed)
    if args.out is not None:
        write_dataset_csv(args.out, ds, q_true=q_true)
    gl, cl = true_losses_monte_carlo(sim, cfg.scoring_rule(), args.oracle_n, cfg.seed)
    summary = {
        "spec": simulator_to_spec(sim),
        "rule": cfg.rule,
        "n": args.n,
        "seed": cfg.seed,
        "oracle_n": args.oracle_n,
        "gl_true": gl.value,
        "gl_true_se": gl.se,
        "gl_true_refined": gl.value_refined,
        "cl_true": cl.value,
        "cl_true_se": cl.se,
    }
    _write_text(args.summary_out, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _derived_seed(base: int, *key) -> int:
    return int(np.random.SeedSequence(base, spawn_key=tuple(key)).generate_state(1)[0])


def _mean_sd(xs):
    if not xs:
        return float("nan"), float("nan")
    arr = np.asarray(xs)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def _sweep_values(text):
    values = []
    for v in filter(None, text.split(",")):
        try:
            value = int(v)
        except ValueError:
            raise ValueError(f"--values {text!r}: {v!r} is not an integer") from None
        # on one sample per repeat, a value given twice repeats a row's work
        if value in values:
            raise ValueError(f"--values {text!r}: {value} is given twice")
        values.append(value)
    return values


def _sweep_repeat(sim, n, cfgs, seed):
    """One repeat of a sweep: one sample and one calibration curve, shared
    by every config of ``cfgs`` (which differ only in the swept field).

    Each config then runs the calls ``_estimate`` makes on that sample in
    this process, with ``seed`` as its seed, and gives whether it is
    degraded and its lower bound, plug-in, explained and induced terms;
    no report is built.  The curve is over all rows and the sweep has no
    recalibration, so it does not depend on the swept value; the split,
    the bins and the induced term depend on it only through ``n_bins``,
    so they are made once per distinct bin count.
    """
    ds, _ = sample_realistic(sim, n, seed)
    bv = reduce_dataset(ds, cfgs[0].reduction)
    curve = fit_calibration_curve(bv.score, bv.label, cfgs[0].bandwidth_fraction)
    rule = cfgs[0].scoring_rule()
    binned = {}  # n_bins -> (split, bview, induced)
    results = []
    for cfg in cfgs:
        cfg = replace(cfg, seed=seed)
        if cfg.n_bins not in binned:
            split = stratified_split(bv, cfg.n_bins, cfg.seed)
            bview = make_bins(bv, cfg.n_bins, rows=split.test_rows)
            binned[cfg.n_bins] = split, bview, gl_induced_estimate(curve, bview, bv.score, rule)
        split, bview, induced = binned[cfg.n_bins]
        glx = gl_explained_debiased(
            _partition_stage(bview, bv.features, bv.label, split, cfg), rule)
        # a repeat is degraded once regions too small to estimate hold a
        # visible share of the test mass (the ratio-below-2 regime)
        degraded = not glx.estimable.all() or glx.dropped_fraction > 0.03
        results.append((degraded, (gl_lower_bound(glx.explained, induced), glx.plugin,
                                    glx.explained, induced)))
    return results


def cmd_sweep(args) -> int:
    """Each repeat is one task on its own sample, seeded from ``(seed,
    repeat)``, and evaluates every swept value on it, so the rows are
    paired: a difference between two rows comes from their values, not
    from their samples.  Each ``*_sd`` column is the spread across
    repeats."""
    _require_out_dirs(args, "out")
    _require_positive(args, "n", "repeats", "oracle_n")
    sim = _load_simulator(args.spec)
    values = _sweep_values(args.values)
    if not values:
        raise ValueError("no sweep values given")
    base = _run_config(args)
    key = _FLAG_FIELDS.get(args.axis, args.axis)
    cfgs = [replace(base, **{key: value}) for value in values]
    tasks = [(_sweep_repeat, (sim, args.n, cfgs, _derived_seed(base.seed, r)))
             for r in range(args.repeats)]
    # the oracle has its own seed, so it can come last, where a failing
    # repeat's error does not wait for it
    tasks.append((true_gl_monte_carlo, (sim, base.scoring_rule(), args.oracle_n, base.seed)))
    results = run_tasks(tasks, pool=True)  # in forked children, where no pipeline forks
    oracle = results.pop()
    rows = []
    for vi, value in enumerate(values):
        repeats = [result[vi] for result in results]
        used = [terms for _, terms in repeats if math.isfinite(terms[0])]
        moments = ",".join(
            f"{m!r},{sd!r}" for m, sd in (_mean_sd([t[i] for t in used]) for i in range(4))
        )
        degraded = any(d for d, _ in repeats)
        rows.append((f"{args.axis},{value},{moments}", f"{len(used)},{int(degraded)}"))
    lines = [
        "axis,value,gl_lb,gl_lb_sd,gl_plugin,gl_plugin_sd,"
        "gl_explained,gl_explained_sd,gl_induced,gl_induced_sd,"
        "gl_true,gl_true_se,repeats_used,unestimable"
    ]
    lines += [f"{head},{oracle.value!r},{oracle.se!r},{tail}" for head, tail in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# the pipeline flags named otherwise than their RunConfig field
_FLAG_FIELDS = {"bins": "n_bins", "bandwidth": "bandwidth_fraction"}


def _add_pipeline_flags(p, *names):
    """One flag per name, typed and defaulted by its ``RunConfig`` field."""
    by_name = {f.name: f for f in fields(RunConfig)}
    for name in names:
        f = by_name[_FLAG_FIELDS.get(name, name)]
        p.add_argument(_flag(name), dest=f.name, metavar=name.upper(),
                       type=f.type, default=f.default, help="default: %(default)s")


def _add_simulator_flags(p, out_help):
    """The spec and flags ``simulate`` and ``sweep`` share."""
    p.add_argument("spec", help="simulator spec JSON")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--oracle-n", dest="oracle_n", type=int, default=200_000)
    p.add_argument("--out", default=None, help=out_help)
    _add_pipeline_flags(p, "rule", "seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouploss",
        description="Grouping-loss lower bounds and calibration diagnostics",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate losses from a score CSV")
    est.add_argument("input", help="input CSV (see README for the layout)")
    _add_pipeline_flags(est, "rule", "bins", "region_ratio", "partition",
                        "recalibrate", "reduction", "seed", "bandwidth")
    est.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    est.add_argument("--diagram-out", dest="diagram_out", default=None)
    est.set_defaults(func=cmd_estimate)

    simp = sub.add_parser("simulate", help="sample an oracle dataset")
    _add_simulator_flags(simp, "dataset CSV path")
    simp.add_argument("--summary-out", dest="summary_out", default=None)
    simp.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="sweep bins or region ratio on a simulator")
    _add_simulator_flags(sw, "sweep CSV path (default: stdout)")
    sw.add_argument("--axis", required=True, choices=("bins", "region_ratio"))
    sw.add_argument("--values", required=True, help="comma-separated integers")
    sw.add_argument("--repeats", type=int, default=10)
    _add_pipeline_flags(sw, "partition", "bandwidth")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the one place bad input becomes exit 2; a TypeError is a bug and
    # keeps its traceback
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
