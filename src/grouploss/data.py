"""Datasets, binary reductions, and score-stratified splitting.

A :class:`LabeledDataset` holds features, simplex score rows, and class
labels.  Analyses run on binary views of it: the top-label view (is the
argmax prediction correct, scored by the max confidence) or a classwise
slice (is the true class ``k``, scored by ``scores[:, k]``).  Reductions
share the parent's feature matrix; they never copy it.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

SCORE_ROW_ATOL = 1e-6


class InputFormatError(ValueError):
    """Malformed tabular input; message carries the offending line number."""


class DatasetRowError(ValueError):
    """A row breaks the dataset contract; ``row`` is its 0-based index."""

    def __init__(self, row: int, problem: str):
        super().__init__(f"row {row}: {problem}")
        self.row, self.problem = row, problem


@dataclass(frozen=True)
class LabeledDataset:
    """Rows of (feature vector, score vector on the simplex, class label)."""

    features: np.ndarray
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        n = scores.shape[0]
        if features.ndim != 2 or scores.ndim != 2 or labels.shape != (n,):
            raise ValueError("features (n, d), scores (n, K), labels (n,) required")
        if features.shape[0] != n:
            raise ValueError("row count mismatch between features and scores")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        row_sums = scores.sum(axis=1)
        off_simplex = np.abs(row_sums - 1.0) > SCORE_ROW_ATOL
        if off_simplex.any():
            bad = int(np.argmax(off_simplex))
            raise DatasetRowError(bad, f"scores do not sum to 1 (sum {row_sums[bad]:.6g})")
        bad_label = (labels < 0) | (labels >= scores.shape[1])
        if bad_label.any():
            bad = int(np.argmax(bad_label))
            raise DatasetRowError(
                bad, f"label {labels[bad]} out of range for {scores.shape[1]} classes"
            )

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]

    def one_hot(self) -> np.ndarray:
        out = np.zeros((self.n, self.n_classes))
        out[np.arange(self.n), self.labels] = 1.0
        return out


@dataclass(frozen=True)
class BinaryView:
    """Binary reduction: positive-class score in [0, 1] and 0/1 label.

    ``provenance`` is ``"native"``, ``"top_label"`` or ``"classwise:k"``.
    ``features`` is the parent dataset's matrix, shared by reference.
    """

    features: np.ndarray
    score: np.ndarray
    label: np.ndarray
    provenance: str = "native"

    def __post_init__(self):
        score = np.asarray(self.score, dtype=np.float64)
        label = np.asarray(self.label, dtype=np.int64)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "label", label)
        if score.shape != label.shape or score.ndim != 1:
            raise ValueError("score and label must be aligned 1-D arrays")
        if score.size and (score.min() < 0.0 or score.max() > 1.0):
            raise ValueError("scores must lie in [0, 1]")
        if not np.isin(label, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

    @property
    def n(self) -> int:
        return self.score.shape[0]

    def with_scores(self, score: np.ndarray) -> "BinaryView":
        """Same rows with replaced scores (e.g. after recalibration)."""
        return BinaryView(self.features, score, self.label, self.provenance)


@dataclass(frozen=True)
class SplitIndex:
    """Disjoint, exhaustive train/test row partition."""

    train_rows: np.ndarray
    test_rows: np.ndarray
    n_bins: int

    def __post_init__(self):
        object.__setattr__(self, "train_rows", np.asarray(self.train_rows, dtype=np.int64))
        object.__setattr__(self, "test_rows", np.asarray(self.test_rows, dtype=np.int64))

    def train_mask(self, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[self.train_rows] = True
        return mask


def top_label_reduce(ds: LabeledDataset) -> BinaryView:
    """Top-label view: max confidence vs. correctness of the argmax class.

    Argmax ties resolve to the lowest class index.
    """
    if ds.n_classes < 2:
        raise ValueError("top-label reduction needs K >= 2")
    predicted = np.argmax(ds.scores, axis=1)
    score = ds.scores[np.arange(ds.n), predicted]
    label = (predicted == ds.labels).astype(np.int64)
    return BinaryView(ds.features, score, label, "top_label")


def classwise_slice(ds: LabeledDataset, k: int) -> BinaryView:
    """One-vs-rest view of class ``k``."""
    if not 0 <= k < ds.n_classes:
        raise IndexError(f"class index {k} out of range for K={ds.n_classes}")
    score = ds.scores[:, k]
    label = (ds.labels == k).astype(np.int64)
    return BinaryView(ds.features, score, label, f"classwise:{k}")


def bin_index_of(scores: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bin index per score (last bin closed at 1.0)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise ValueError("scores must lie in [0, 1]")
    return np.minimum((scores * n_bins).astype(np.int64), n_bins - 1)


def stratified_split(bv: BinaryView, n_bins: int, seed: int) -> SplitIndex:
    """50-50 split preserving the score distribution.

    Rows are grouped into equal-width score bins; within each bin they
    are shuffled by the seeded generator and alternated between train
    and test, so per-bin counts differ by at most one.
    """
    if bv.n < 2:
        raise ValueError("need at least 2 rows to split")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    rng = np.random.default_rng(seed)
    bins = bin_index_of(bv.score, n_bins)
    train, test = [], []
    for b in range(n_bins):
        rows = np.flatnonzero(bins == b)
        if rows.size == 0:
            continue
        rows = rows[rng.permutation(rows.size)]
        train.append(rows[0::2])
        test.append(rows[1::2])
    train = np.sort(np.concatenate(train)) if train else np.empty(0, np.int64)
    test = np.sort(np.concatenate(test)) if test else np.empty(0, np.int64)
    return SplitIndex(train, test, n_bins)


def _parse_float(text: str, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputFormatError(
            f"line {line_no}: column {column!r} is not a number: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise InputFormatError(
            f"line {line_no}: column {column!r} is not finite: {text!r}"
        )
    return value


def _indexed_columns(names, prefix: str) -> list:
    """Columns ``<prefix><i>`` sorted by their integer index ``i``."""

    def index(name):
        try:
            return int(name[len(prefix):])
        except ValueError:
            raise InputFormatError(
                f"line 1: column {name!r} needs an integer index after {prefix!r}"
            ) from None

    return sorted((name for name in names if name.startswith(prefix)), key=index)


def read_dataset_csv(path) -> LabeledDataset:
    """Load a dataset from CSV.

    Two layouts are accepted (UTF-8, header row):

    * multiclass: ``label, score_0..score_{K-1}[, feature_0..feature_{d-1}]``
    * binary shortcut: ``label, score[, feature_*]`` where ``score`` is
      the positive-class probability.

    Any extra columns are ignored.  Malformed rows, including NaN or
    infinite scores and features, raise :class:`InputFormatError` with
    the line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError("line 1: empty file") from None
        header = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(header)}
        if "label" not in col:
            raise InputFormatError("line 1: missing required column 'label'")
        score_cols = _indexed_columns(col, "score_")
        binary = not score_cols and "score" in col
        if not score_cols and not binary:
            raise InputFormatError("line 1: no score columns found")
        if score_cols:
            expected = [f"score_{i}" for i in range(len(score_cols))]
            if score_cols != expected:
                raise InputFormatError(
                    f"line 1: score columns must be contiguous score_0..score_{{K-1}}, got {score_cols}"
                )
        feature_cols = _indexed_columns(col, "feature_")
        labels, scores, features, blank_lines = [], [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                blank_lines.append(line_no)
                continue
            if len(row) != len(header):
                raise InputFormatError(
                    f"line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                labels.append(int(row[col["label"]]))
            except ValueError:
                raise InputFormatError(
                    f"line {line_no}: column 'label' is not an integer: "
                    f"{row[col['label']]!r}"
                ) from None
            if binary:
                s = _parse_float(row[col["score"]], line_no, "score")
                if not 0.0 <= s <= 1.0:
                    raise InputFormatError(
                        f"line {line_no}: score {s} outside [0, 1]"
                    )
                scores.append((1.0 - s, s))
            else:
                scores.append(
                    tuple(
                        _parse_float(row[col[c]], line_no, c) for c in score_cols
                    )
                )
            features.append(
                tuple(_parse_float(row[col[c]], line_no, c) for c in feature_cols)
            )
    if not labels:
        raise InputFormatError("line 2: no data rows")
    n = len(labels)
    feats = np.array(features, dtype=np.float64).reshape(n, len(feature_cols))
    try:
        return LabeledDataset(feats, np.array(scores), np.array(labels))
    except DatasetRowError as exc:
        line = exc.row + 2
        for blank in blank_lines:  # each skipped line before the row shifts it
            line += blank <= line
        raise InputFormatError(f"line {line}: {exc.problem}") from None


def write_dataset_csv(path, ds: LabeledDataset, q_true=None) -> None:
    """Write a dataset in the multiclass CSV layout (plus optional q_true)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["label"]
        header += [f"score_{k}" for k in range(ds.n_classes)]
        header += [f"feature_{j}" for j in range(ds.d)]
        if q_true is not None:
            header.append("q_true")
        writer.writerow(header)
        for i in range(ds.n):
            row = [str(int(ds.labels[i]))]
            row += [repr(float(v)) for v in ds.scores[i]]
            row += [repr(float(v)) for v in ds.features[i]]
            if q_true is not None:
                row.append(repr(float(q_true[i])))
            writer.writerow(row)
