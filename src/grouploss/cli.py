"""Command-line surface: estimate, simulate, sweep.

Exit codes: 0 on success, 2 on malformed input or configuration, 3 when
every bin is unestimable (a region with fewer than two test samples in
each of them).  All randomness flows from ``--seed``; rerunning a
command with identical inputs yields byte-identical outputs.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .binning import make_bins
from .calibration import (
    calibration_loss_binned,
    fit_calibration_curve,
    isotonic_apply,
    isotonic_fit,
)
from .data import (
    BinaryView,
    InputFormatError,
    LabeledDataset,
    classwise_slice,
    read_dataset_csv,
    stratified_split,
    top_label_reduce,
    write_dataset_csv,
)
from .glestim import (
    GroupingReport,
    binning_bounds,
    build_report,
    gl_explained_debiased,
    gl_induced_estimate,
    region_stats,
)
from .partition import assign_regions, fit_partition, parse_strategy
from .scoring import BRIER_SCALAR, LOG_LOSS
from .simulate import (
    LinkSimulator1D,
    RealisticSimulator,
    sample_link_1d,
    sample_realistic,
    simulator_from_spec,
    simulator_to_spec,
    true_cl_monte_carlo,
    true_gl_monte_carlo,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNESTIMABLE = 3


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
    split_fraction: float = 0.5

    def __post_init__(self):
        if self.rule not in ("brier", "logloss"):
            raise ValueError(f"rule must be brier or logloss, got {self.rule!r}")
        if self.n_bins < 1:
            raise ValueError("bins must be >= 1")
        if self.region_ratio < 1:
            raise ValueError("region-ratio must be >= 1")
        parse_strategy(self.partition)
        if self.recalibrate not in ("none", "isotonic"):
            raise ValueError(f"recalibrate must be none or isotonic, got {self.recalibrate!r}")
        if self.reduction != "auto" and self.reduction != "top-label":
            if not self.reduction.startswith("classwise:"):
                raise ValueError(f"unknown reduction: {self.reduction!r}")
            int(self.reduction.split(":", 1)[1])
        if not 0.0 < self.bandwidth_fraction <= 1.0:
            raise ValueError("bandwidth must lie in (0, 1]")
        if self.split_fraction != 0.5:
            raise ValueError("the train/test split fraction is fixed at 0.5")

    def scoring_rule(self):
        return BRIER_SCALAR if self.rule == "brier" else LOG_LOSS

    def to_dict(self) -> dict:
        return asdict(self)


def reduce_dataset(ds: LabeledDataset, reduction: str) -> BinaryView:
    """Resolve the configured reduction to a binary view."""
    if reduction == "auto":
        if ds.n_classes == 2:
            bv = classwise_slice(ds, 1)
            return BinaryView(bv.features, bv.score, bv.label, "native")
        return top_label_reduce(ds)
    if reduction == "top-label":
        return top_label_reduce(ds)
    k = int(reduction.split(":", 1)[1])
    return classwise_slice(ds, k)


def run_pipeline(ds: LabeledDataset, cfg: RunConfig) -> GroupingReport:
    """Reduction, optional recalibration, binning, partitioning, report.

    The partition and the isotonic map are fitted on the train half;
    region means, the binned calibration loss and the bounds are
    evaluated on the test half.  The induced-grouping-loss term uses the
    calibration curve over all rows.
    """
    rule = cfg.scoring_rule()
    bv = reduce_dataset(ds, cfg.reduction)
    split = stratified_split(bv, cfg.n_bins, cfg.seed)
    if cfg.recalibrate == "isotonic":
        iso = isotonic_fit(bv.score[split.train_rows], bv.label[split.train_rows])
        bv = bv.with_scores(isotonic_apply(iso, bv.score))
    bview_all = make_bins(bv, cfg.n_bins)
    bview_test = make_bins(bv, cfg.n_bins, rows=split.test_rows)
    curve = fit_calibration_curve(bv.score, bv.label, cfg.bandwidth_fraction)
    induced = gl_induced_estimate(curve, bview_all, bv.score, rule)
    model = fit_partition(
        bview_all, bv.features, bv.label, split,
        parse_strategy(cfg.partition), cfg.region_ratio, cfg.seed,
    )
    assignments = assign_regions(model, bview_all, bv.features)
    stats = region_stats(assignments, bview_all, bv.label, split)
    glx = gl_explained_debiased(stats, rule)
    cl = calibration_loss_binned(bview_test, rule)
    bounds = binning_bounds(bview_test, rule) if rule is BRIER_SCALAR else None
    return build_report(
        cfg.to_dict(), rule, stats, glx, induced, cl, bview_test, bounds,
        n_rows=bv.n, n_train=split.train_rows.size,
        metadata={"provenance": bv.provenance, "gl_induced_rows": "all"},
    )


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_estimate(args) -> int:
    try:
        cfg = RunConfig(
            rule=args.rule,
            n_bins=args.bins,
            region_ratio=args.region_ratio,
            partition=args.partition,
            recalibrate=args.recalibrate,
            reduction=args.reduction,
            seed=args.seed,
            bandwidth_fraction=args.bandwidth,
        )
        ds = read_dataset_csv(args.input)
        report = run_pipeline(ds, cfg)
    except (InputFormatError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _write_text(args.out, report.to_json())
    if args.diagram_out:
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
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be >= 1, got {getattr(args, name)}")


def _sample(sim, n, seed):
    if isinstance(sim, LinkSimulator1D):
        return sample_link_1d(sim, n, seed)
    return sample_realistic(sim, n, seed)


def cmd_simulate(args) -> int:
    try:
        _require_positive(args, "n", "oracle_n")
        sim = _load_simulator(args.spec)
        ds, q_true = _sample(sim, args.n, args.seed)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        write_dataset_csv(args.out, ds, q_true=q_true)
    rule = BRIER_SCALAR if args.rule == "brier" else LOG_LOSS
    gl = true_gl_monte_carlo(sim, rule, args.oracle_n, args.seed)
    cl = true_cl_monte_carlo(sim, rule, args.oracle_n, args.seed)
    summary = {
        "spec": simulator_to_spec(sim),
        "rule": args.rule,
        "n": args.n,
        "seed": args.seed,
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


def cmd_sweep(args) -> int:
    try:
        _require_positive(args, "n", "repeats", "oracle_n")
        sim = _load_simulator(args.spec)
        values = [int(v) for v in args.values.split(",") if v]
        if not values:
            raise ValueError("no sweep values given")
        if args.axis not in ("bins", "region_ratio"):
            raise ValueError(f"unknown sweep axis: {args.axis!r}")
        base = RunConfig(
            rule=args.rule,
            partition=args.partition,
            seed=args.seed,
            bandwidth_fraction=args.bandwidth,
        )
        key = "n_bins" if args.axis == "bins" else "region_ratio"
        cfgs = [replace(base, **{key: value}) for value in values]
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rule = base.scoring_rule()
    oracle = true_gl_monte_carlo(sim, rule, args.oracle_n, args.seed)
    header = (
        "axis,value,gl_lb,gl_lb_sd,gl_plugin,gl_plugin_sd,"
        "gl_explained,gl_explained_sd,gl_induced,gl_induced_sd,"
        "gl_true,gl_true_se,repeats_used,unestimable"
    )
    lines = [header]
    for vi, (value, cfg) in enumerate(zip(values, cfgs)):
        lb, plugin, explained, induced = [], [], [], []
        dropped_any = False
        for r in range(args.repeats):
            seed_r = _derived_seed(args.seed, vi, r)
            ds, _ = _sample(sim, args.n, seed_r)
            try:
                report = run_pipeline(ds, replace(cfg, seed=seed_r))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INPUT
            # a repeat is degraded once regions too small to estimate hold a
            # visible share of the test mass (the ratio-below-2 regime)
            if report.unestimable_bins or report.dropped_test_fraction > 0.03:
                dropped_any = True
            if math.isfinite(report.gl_lower_bound):
                lb.append(report.gl_lower_bound)
                plugin.append(report.gl_plugin)
                explained.append(report.gl_explained)
                induced.append(report.gl_induced)

        def _mean_sd(xs):
            if not xs:
                return float("nan"), float("nan")
            arr = np.asarray(xs)
            sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
            return float(arr.mean()), sd

        (m_lb, s_lb) = _mean_sd(lb)
        (m_pl, s_pl) = _mean_sd(plugin)
        (m_ex, s_ex) = _mean_sd(explained)
        (m_in, s_in) = _mean_sd(induced)
        lines.append(
            f"{args.axis},{value},{m_lb!r},{s_lb!r},{m_pl!r},{s_pl!r},"
            f"{m_ex!r},{s_ex!r},{m_in!r},{s_in!r},"
            f"{oracle.value!r},{oracle.se!r},{len(lb)},{int(dropped_any)}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _add_pipeline_flags(p):
    p.add_argument("--rule", default="brier", choices=("brier", "logloss"))
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--region-ratio", dest="region_ratio", type=int, default=30)
    p.add_argument("--partition", default="tree")
    p.add_argument("--recalibrate", default="none", choices=("none", "isotonic"))
    p.add_argument("--reduction", default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bandwidth", type=float, default=0.3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouploss",
        description="Grouping-loss lower bounds and calibration diagnostics",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate losses from a score CSV")
    est.add_argument("input", help="input CSV (see README for the layout)")
    _add_pipeline_flags(est)
    est.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    est.add_argument("--diagram-out", dest="diagram_out", default=None)
    est.set_defaults(func=cmd_estimate)

    simp = sub.add_parser("simulate", help="sample an oracle dataset")
    simp.add_argument("spec", help="simulator spec JSON")
    simp.add_argument("--n", type=int, default=10_000)
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument("--rule", default="brier", choices=("brier", "logloss"))
    simp.add_argument("--oracle-n", dest="oracle_n", type=int, default=200_000)
    simp.add_argument("--out", default=None, help="dataset CSV path")
    simp.add_argument("--summary-out", dest="summary_out", default=None)
    simp.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="sweep bins or region ratio on a simulator")
    sw.add_argument("spec", help="simulator spec JSON")
    sw.add_argument("--axis", required=True, choices=("bins", "region_ratio"))
    sw.add_argument("--values", required=True, help="comma-separated integers")
    sw.add_argument("--n", type=int, default=10_000)
    sw.add_argument("--repeats", type=int, default=10)
    sw.add_argument("--rule", default="brier", choices=("brier", "logloss"))
    sw.add_argument("--partition", default="tree")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--bandwidth", type=float, default=0.3)
    sw.add_argument("--oracle-n", dest="oracle_n", type=int, default=200_000)
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
