"""Grouping-loss lower bounds and calibration diagnostics.

Estimates how far a probabilistic classifier's confidence scores are
from the true posterior probabilities: the binned calibration loss plus
a debiased, binning-corrected lower bound on the grouping loss, with
oracle simulators for end-to-end validation.
"""

__version__ = "0.1.0"

from .binning import BinnedView, make_bins, within_bin_score_variance
from .calibration import (
    CalibrationCurve,
    IsotonicMap,
    calibration_loss_binned,
    fit_calibration_curve,
    isotonic_fit,
)
from .data import (
    BinaryView,
    LabeledDataset,
    SplitIndex,
    classwise_slice,
    read_dataset_csv,
    stratified_split,
    top_label_reduce,
    write_dataset_csv,
)
from .glestim import (
    BinningBounds,
    GroupingReport,
    RegionStats,
    binning_bounds,
    build_report,
    clopper_pearson,
    gl_explained_debiased,
    gl_induced_estimate,
    gl_lower_bound,
    region_stats,
)
from .partition import (
    BalancedStump,
    KMeans,
    Tree,
    assign_regions,
    fit_partition,
)
from .scoring import (
    BRIER,
    BRIER_SCALAR,
    LOG_LOSS,
    ScoringRule,
    WeightedProbSample,
    divergence,
    finite_decomposition,
    finite_decomposition_classwise,
    h_variance,
    negative_entropy,
)
from .simulate import (
    LinkSimulator1D,
    RealisticSimulator,
    default_realistic,
    sample_link_1d,
    sample_realistic,
    simulator_from_spec,
    simulator_to_spec,
    true_gl_monte_carlo,
    true_losses_monte_carlo,
)

__all__ = [name for name in dir() if not name.startswith("_")]
