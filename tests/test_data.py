"""Dataset construction, binary reductions, splitting, CSV round-trips."""

import numpy as np
import pytest

from grouploss.data import (
    BinaryView,
    InputFormatError,
    LabeledDataset,
    classwise_slice,
    read_dataset_csv,
    stratified_split,
    top_label_reduce,
    write_dataset_csv,
)


def _toy_dataset():
    scores = np.array(
        [
            [0.2, 0.5, 0.3],
            [0.2, 0.5, 0.3],
            [0.5, 0.5, 0.0],
            [0.1, 0.2, 0.7],
        ]
    )
    labels = np.array([1, 0, 1, 2])
    features = np.arange(8, dtype=float).reshape(4, 2)
    return LabeledDataset(features, scores, labels)


class TestLabeledDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            LabeledDataset(np.zeros((1, 1)), np.array([[0.5, 0.6]]), np.array([0]))
        with pytest.raises(ValueError, match="out of range"):
            LabeledDataset(np.zeros((1, 1)), np.array([[0.5, 0.5]]), np.array([2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="features must be finite"):
            LabeledDataset(np.array([[bad]]), np.array([[0.5, 0.5]]), np.array([0]))
        with pytest.raises(ValueError, match="scores must be finite"):
            LabeledDataset(np.zeros((1, 1)), np.array([[bad, 0.5]]), np.array([0]))

    def test_one_hot(self):
        ds = _toy_dataset()
        oh = ds.one_hot()
        assert oh.sum() == ds.n
        assert (oh[np.arange(ds.n), ds.labels] == 1).all()


class TestTopLabelReduce:
    def test_correct_and_incorrect(self):
        ds = _toy_dataset()
        bv = top_label_reduce(ds)
        assert bv.score[0] == 0.5 and bv.label[0] == 1
        assert bv.score[1] == 0.5 and bv.label[1] == 0

    def test_tie_breaks_to_lowest_index(self):
        ds = _toy_dataset()
        bv = top_label_reduce(ds)
        # row 2 ties between classes 0 and 1; predicted class is 0
        assert bv.score[2] == 0.5 and bv.label[2] == 0

    def test_features_shared_not_copied(self):
        ds = _toy_dataset()
        assert top_label_reduce(ds).features is ds.features
        assert classwise_slice(ds, 1).features is ds.features


class TestClasswiseSlice:
    def test_matches_native_binary(self):
        rng = np.random.default_rng(0)
        s1 = rng.uniform(size=10)
        ds = LabeledDataset(
            np.zeros((10, 1)),
            np.column_stack([1 - s1, s1]),
            rng.integers(0, 2, size=10),
        )
        bv = classwise_slice(ds, 1)
        np.testing.assert_array_equal(bv.score, s1)
        np.testing.assert_array_equal(bv.label, (ds.labels == 1).astype(int))

    def test_slice_values(self):
        ds = _toy_dataset()
        bv = classwise_slice(ds, 2)
        assert bv.score[3] == pytest.approx(0.7)
        assert bv.label[3] == 1

    def test_each_row_positive_in_exactly_one_slice(self):
        ds = _toy_dataset()
        total = sum(classwise_slice(ds, k).label.sum() for k in range(ds.n_classes))
        assert total == ds.n

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            classwise_slice(_toy_dataset(), 3)


class TestStratifiedSplit:
    def test_exact_halving_single_bin(self):
        bv = BinaryView(np.zeros((4, 1)), np.full(4, 0.5), np.zeros(4, dtype=int))
        split = stratified_split(bv, 1, seed=0)
        assert split.train_rows.size == 2 and split.test_rows.size == 2

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        bv = BinaryView(
            np.zeros((100, 1)), rng.uniform(size=100), rng.integers(0, 2, 100)
        )
        a = stratified_split(bv, 15, seed=42)
        b = stratified_split(bv, 15, seed=42)
        np.testing.assert_array_equal(a.train_rows, b.train_rows)
        np.testing.assert_array_equal(a.test_rows, b.test_rows)

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        bv = BinaryView(
            np.zeros((501, 1)), rng.uniform(size=501), rng.integers(0, 2, 501)
        )
        split = stratified_split(bv, 15, seed=3)
        merged = np.sort(np.concatenate([split.train_rows, split.test_rows]))
        np.testing.assert_array_equal(merged, np.arange(501))

    def test_per_bin_balance(self):
        rng = np.random.default_rng(4)
        n = 10_000
        bv = BinaryView(np.zeros((n, 1)), rng.uniform(size=n), np.zeros(n, dtype=int))
        split = stratified_split(bv, 15, seed=5)
        bins = np.minimum((bv.score * 15).astype(int), 14)
        train_mask = split.train_mask(n)
        for b in range(15):
            in_bin = bins == b
            n_train = int(np.count_nonzero(in_bin & train_mask))
            n_test = int(np.count_nonzero(in_bin & ~train_mask))
            assert abs(n_train - n_test) <= 1


class TestCsvIO:
    def test_round_trip_with_q_true(self, tmp_path):
        ds = _toy_dataset()
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ds, q_true=np.array([0.1, 0.2, 0.3, 0.4]))
        back = read_dataset_csv(path)
        np.testing.assert_allclose(back.scores, ds.scores)
        np.testing.assert_allclose(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_binary_shortcut(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_text("label,score,feature_0\n1,0.75,2.5\n0,0.25,-1.0\n")
        ds = read_dataset_csv(path)
        assert ds.n_classes == 2
        np.testing.assert_allclose(ds.scores[:, 1], [0.75, 0.25])
        np.testing.assert_allclose(ds.features[:, 0], [2.5, -1.0])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,score\n1,0.5\noops,0.5\n")
        with pytest.raises(InputFormatError, match="line 3"):
            read_dataset_csv(path)

    def test_bad_score_value(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("label,score\n1,1.5\n")
        with pytest.raises(InputFormatError, match="line 2"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, text):
        path = tmp_path / "bad4.csv"
        path.write_text(f"label,score,feature_0\n1,0.5,0.0\n0,0.5,{text}\n")
        with pytest.raises(InputFormatError, match="line 3: column 'feature_0' is not finite"):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("label,score_x,score_1\n1,0.5,0.5\n",
             "line 1: column 'score_x' needs an integer index"),
            ("label,score,feature_0\n1,0.5,0.1\n\n2,0.5,0.2\n",
             "line 4: label 2 out of range"),
            ("label,score_0,score_1\n1,0.5,0.5\n\n\n0,0.5,0.6\n",
             "line 5: scores do not sum to 1"),
        ],
        ids=["bad-header-index", "label-out-of-range", "off-simplex-row"],
    )
    def test_rejected_row_reports_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad5.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError, match=message):
            read_dataset_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("score\n0.5\n")
        with pytest.raises(InputFormatError, match="label"):
            read_dataset_csv(path)
