"""Datasets, binary reductions, and score-stratified splitting.

A :class:`LabeledDataset` holds features, simplex score rows, and class
labels.  Analyses run on binary views of it: the top-label view (is the
argmax prediction correct, scored by the max confidence) or a classwise
slice (is the true class ``k``, scored by ``scores[:, k]``).  Reductions
share the parent's feature matrix; they never copy it.
"""

import csv
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

SCORE_ROW_ATOL = 1e-6
_INT64 = np.iinfo(np.int64)
WRITE_CHUNK_ROWS = 1 << 16
SCAN_CHUNK_BYTES = 1 << 20


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
        negative = (scores < 0.0).any(axis=1)
        if negative.any():
            bad = int(np.argmax(negative))
            raise DatasetRowError(bad, f"negative score entry {scores[bad].min():.6g}")
        # repr: a .6g format prints 1.0000005 as 1
        above_one = (scores > 1.0).any(axis=1)
        if above_one.any():
            bad = int(np.argmax(above_one))
            raise DatasetRowError(bad, f"score entry {float(scores[bad].max())!r} above 1")
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
    order, offsets = group_by_bin(bin_index_of(bv.score, n_bins), n_bins)
    train, test = [], []
    # occupied bins in ascending order, as the permutations are drawn
    for b in np.flatnonzero(np.diff(offsets)).tolist():
        rows = order[offsets[b]:offsets[b + 1]]
        rows = rows[rng.permutation(rows.size)]
        train.append(rows[0::2])
        test.append(rows[1::2])
    train = np.sort(np.concatenate(train)) if train else np.empty(0, np.int64)
    test = np.sort(np.concatenate(test)) if test else np.empty(0, np.int64)
    return SplitIndex(train, test, n_bins)


def group_by_bin(bins: np.ndarray, n_bins: int):
    """The positions of ``bins`` (each in ``[0, n_bins)``) grouped by bin,
    and each bin's offsets: bin ``b`` holds ``order[offsets[b]:offsets[b + 1]]``,
    ascending.

    One stable sort, where a scan per bin would read every row once per
    bin; on 8- or 16-bit keys numpy's stable sort is a radix sort.
    """
    order = np.argsort(bins.astype(np.min_scalar_type(n_bins - 1)), kind="stable")
    return order, np.append(0, np.bincount(bins, minlength=n_bins).cumsum())


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


def _records(fh):
    """Yield ``(first line, last line, row)`` per CSV record.

    A quoted field may span lines, so a record starts on the line after
    the last one ended; a ``csv.Error`` becomes an :class:`InputFormatError`
    naming that line.
    """
    reader = csv.reader(_utf8_lines(fh))
    line_end = 0
    try:
        for row in reader:
            line_no, line_end = line_end + 1, reader.line_num
            yield line_no, line_end, row
    except csv.Error as exc:
        raise InputFormatError(f"line {line_end + 1}: {exc}") from None


def _utf8_lines(fh):
    """The lines of ``fh``, rejecting a byte that is not UTF-8 with its line.

    Files are decoded with ``errors="surrogateescape"``, which turns such
    a byte into a lone surrogate instead of failing somewhere in a chunk
    read ahead of the line being parsed.
    """
    for line_no, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise InputFormatError(f"line {line_no}: byte {byte:#04x} is not UTF-8") from None
        yield line


@dataclass(frozen=True)
class _Header:
    """Where a CSV's columns are: ``col`` maps each name to its field index."""

    end: int
    width: int
    col: dict
    score_cols: list
    binary: bool
    feature_cols: list


def _read_header(records) -> _Header:
    try:
        _, header_end, header = next(records)
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
    return _Header(header_end, len(header), col, score_cols, binary, feature_cols)


def read_dataset_csv(path) -> LabeledDataset:
    """Load a dataset from CSV.

    Two layouts are accepted (UTF-8, with or without a byte-order mark,
    header row):

    * multiclass: ``label, score_0..score_{K-1}[, feature_0..feature_{d-1}]``
    * binary shortcut: ``label, score[, feature_*]`` where ``score`` is
      the positive-class probability.

    Any extra columns are ignored.  Malformed rows, including NaN or
    infinite scores and features, score entries below 0 or above 1 and
    fields the ``csv`` module rejects and bytes that are not UTF-8, raise
    :class:`InputFormatError` with the line number.

    A regular file is parsed column-wise by ``np.loadtxt``.  Wherever
    that fails (a malformed row, a quoted field, a non-numeric extra
    column, a label numpy does not read as an integer), the row-wise
    reader reads the file again from its start and gives the dataset or
    the error.  Any other input (a pipe, a FIFO) is read once, row-wise.
    """
    # "utf-8-sig" drops a byte-order mark, as spreadsheet exports write it
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        if _plain_file(fh, csv.field_size_limit()):
            head = _read_header(_records(fh))
            try:
                return _read_columns(fh, head)
            except (ValueError, Warning):  # every parse and validation failure
                fh.seek(0)
        return _read_rows(fh)


def _plain_file(fh, limit: int) -> bool:
    """Whether ``fh`` is a regular file with no line longer than ``limit``
    bytes and no byte 0x1C-0x1F; a regular ``fh`` is left at its start.

    numpy strips those ASCII separators around a number as whitespace,
    and Python's ``int`` and ``float`` do not.  numpy has no field size
    limit, and a field longer than the ``csv`` module's needs a line
    longer than it.  Only a regular file can be read twice.
    """
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return False
    try:
        run = 0  # bytes of the line that reaches into this chunk
        while chunk := fh.buffer.read(SCAN_CHUNK_BYTES):
            if any(sep in chunk for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                return False
            start = 0
            while (end := chunk.rfind(b"\n", start, start + limit + 1 - run)) >= 0:
                start, run = end + 1, 0
            run += len(chunk) - start
            if run > limit:
                return False
        return True
    finally:
        fh.seek(0)


def _read_columns(fh, head: _Header) -> LabeledDataset:
    """Parse the CSV body after ``head`` with numpy, on a file ``_plain_file`` accepts.

    On such text numpy reads a number only where Python's ``int`` or
    ``float`` reads the same value.  It splits lines and fields as the
    ``csv`` module does, except inside quotes; no number parses with a
    quote in it, so a quoted field raises.  Rows of the wrong width
    raise.  ``comments=None`` keeps ``#`` lines, which the row-wise
    reader rejects.  Warnings (an empty body, a deprecated integer
    parse) raise too.
    """
    label = head.col["label"]
    dtype = [(f"c{i}", np.int64 if i == label else np.float64) for i in range(head.width)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    n = table.shape[0]
    if n == 0:
        raise ValueError("no data rows")

    def columns(names):
        out = np.empty((n, len(names)))
        for j, name in enumerate(names):
            out[:, j] = table[f"c{head.col[name]}"]
        return out

    if head.binary:
        s = table[f"c{head.col['score']}"]
        # a score outside [0, 1] leaves a negative entry, which LabeledDataset rejects
        scores = np.column_stack((1.0 - s, s))
    else:
        scores = columns(head.score_cols)
    # finiteness, the simplex and the label range are LabeledDataset's checks
    labels = np.ascontiguousarray(table[f"c{label}"])
    return LabeledDataset(columns(head.feature_cols), scores, labels)


def _read_rows(fh) -> LabeledDataset:
    """Row-wise reader of the open CSV ``fh``: the only source of the CSV error messages."""
    records = _records(fh)
    head = _read_header(records)
    col, binary = head.col, head.binary
    n_classes = 2 if binary else len(head.score_cols)
    labels, scores, features, skipped_lines = [], [], [], []
    for line_no, line_end, row in records:
        if line_end > line_no:
            skipped_lines.extend(range(line_no + 1, line_end + 1))
        if not row:
            skipped_lines.append(line_no)
            continue
        if len(row) != head.width:
            raise InputFormatError(
                f"line {line_no}: expected {head.width} fields, got {len(row)}"
            )
        try:
            label = int(row[col["label"]])
        except ValueError:
            raise InputFormatError(
                f"line {line_no}: column 'label' is not an integer: "
                f"{row[col['label']]!r}"
            ) from None
        if not _INT64.min <= label <= _INT64.max:
            raise InputFormatError(
                f"line {line_no}: label {label} out of range for {n_classes} classes"
            )
        labels.append(label)
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
                    _parse_float(row[col[c]], line_no, c) for c in head.score_cols
                )
            )
        features.append(
            tuple(_parse_float(row[col[c]], line_no, c) for c in head.feature_cols)
        )
    if not labels:
        raise InputFormatError("line 2: no data rows")
    n = len(labels)
    feats = np.array(features, dtype=np.float64).reshape(n, len(head.feature_cols))
    try:
        return LabeledDataset(feats, np.array(scores), np.array(labels))
    except DatasetRowError as exc:
        line = head.end + 1 + exc.row
        for skipped in skipped_lines:  # each line starting no record shifts it
            line += skipped <= line
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
        if q_true is not None:
            q_true = np.asarray(q_true, dtype=np.float64)
        # csv writes a float as its repr, the shortest text that reads back;
        # chunks bound how many Python floats exist at once
        for start in range(0, ds.n, WRITE_CHUNK_ROWS):
            rows = slice(start, start + WRITE_CHUNK_ROWS)
            columns = [ds.labels[rows].tolist(), *ds.scores[rows].T.tolist(),
                       *ds.features[rows].T.tolist()]
            if q_true is not None:
                columns.append(q_true[rows].tolist())
            writer.writerows(zip(*columns))
