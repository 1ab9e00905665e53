"""Dataset construction, binary reductions, splitting, CSV round-trips."""

import csv
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouploss.data import (
    BinaryView,
    InputFormatError,
    LabeledDataset,
    bin_index_of,
    classwise_slice,
    group_by_bin,
    read_dataset_csv,
    stratified_split,
    top_label_reduce,
    write_dataset_csv,
)


def _outcome(path):
    try:
        ds = read_dataset_csv(path)
    except InputFormatError as exc:
        return type(exc), str(exc)
    return ds.features, ds.scores, ds.labels


def _pipe_outcome(data: bytes):
    # as `estimate <(zcat data.csv.gz)`: a pipe can be read only once
    r, w = os.pipe()

    def write():
        with os.fdopen(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return _outcome(f"/dev/fd/{r}")
    finally:
        writer.join()
        os.close(r)


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


class TestBinaryView:
    @pytest.mark.parametrize("score", [-0.1, 1.1, np.nan])
    def test_score_out_of_range_rejected(self, score):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            BinaryView(np.zeros((2, 1)), np.array([0.5, score]), np.array([0, 1]))


def _split_reference(bv, n_bins, seed):
    # one permutation per occupied bin, ascending, its even positions to train
    rng = np.random.default_rng(seed)
    _, order, offsets = group_by_bin(bin_index_of(bv.score, n_bins), n_bins)
    train, test = [], []
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        rows = order[lo:hi]
        rows = rows[rng.permutation(rows.size)]
        train.append(rows[0::2])
        test.append(rows[1::2])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


class _CountingGenerator:
    """A generator that records the length of each array it shuffles."""

    def __init__(self, rng):
        self.rng, self.shuffled = rng, []

    def shuffle(self, x):
        self.shuffled.append(len(x))
        self.rng.shuffle(x)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestStratifiedSplit:
    @settings(max_examples=200, deadline=None)
    @given(
        # drawn from a few values, scores tie and bins hold one row or many
        scores=st.lists(st.sampled_from([0.0, 0.1, 0.1 + 1e-12, 0.5, 0.73, 0.99, 1.0])
                        | st.floats(0.0, 1.0), min_size=2, max_size=300),
        n_bins=st.integers(1, 2**63 - 1) | st.integers(1, 40),
        seed=st.integers(0, 2**128),
    )
    def test_matches_one_permutation_per_bin(self, scores, n_bins, seed):
        n = len(scores)
        bv = BinaryView(np.zeros((n, 1)), np.array(scores), np.zeros(n, dtype=int))
        split = stratified_split(bv, n_bins, seed)
        train, test = _split_reference(bv, n_bins, seed)
        np.testing.assert_array_equal(split.train_rows, train)
        np.testing.assert_array_equal(split.test_rows, test)

    def test_shuffles_only_bins_of_two_rows_or_more(self, monkeypatch):
        # bins 0..4 of 5 hold 1, 3, 1, 0 and 2 rows
        bv = BinaryView(np.zeros((7, 1)), np.array([0.5, 0.1, 0.3, 0.9, 0.3, 0.3, 0.9]),
                        np.zeros(7, dtype=int))
        made = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            made.append(_CountingGenerator(default_rng(seed)))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        split = stratified_split(bv, 5, seed=3)
        assert [rng.shuffled for rng in made] == [[3, 2]]
        monkeypatch.undo()
        train, test = _split_reference(bv, 5, 3)
        np.testing.assert_array_equal(split.train_rows, train)
        np.testing.assert_array_equal(split.test_rows, test)

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
        train_mask = np.zeros(n, dtype=bool)
        train_mask[split.train_rows] = True
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

    def test_written_text_is_pinned(self, tmp_path):
        # floats are written as their repr: shortest round-trip text, sign of
        # zero kept, subnormals and large exponents in Python's own notation
        ds = LabeledDataset(
            np.array([[-0.0, 1e-300], [1e20, 5e-324]]),
            np.array([[0.1, 0.9], [0.7, 0.3]]),
            np.array([1, 0]),
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ds, q_true=np.array([1 / 3, 0.0]))
        assert path.read_bytes() == (
            b"label,score_0,score_1,feature_0,feature_1,q_true\n"
            b"1,0.1,0.9,-0.0,1e-300,0.3333333333333333\n"
            b"0,0.7,0.3,1e+20,5e-324,0.0\n"
        )

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
            # a quoted field holding a newline: later records start a line lower
            ('label,score,feature_0,note\n1,0.5,0.1,"a\nb"\n0,0.4,nan,c\n',
             "line 4: column 'feature_0' is not finite"),
            ('label,score,feature_0,note\n1,0.5,0.1,"a\n\nb"\n\n2,0.5,0.2,c\n',
             "line 6: label 2 out of range"),
            # sums to 1, but a simplex row has no negative entry
            ("label,score_0,score_1,feature_0\n1,0.5,0.5,0.1\n0,-0.5,1.5,0.2\n",
             "line 3: negative score entry -0.5"),
            # sums to 1 within the tolerance, but an entry lies above 1
            ("label,score_0,score_1,score_2,feature_0\n"
             + "1,0.2,0.3,0.5,0.1\n" * 5 + "0,1.0000005,0,0,0.1\n",
             "line 7: score entry 1.0000005 above 1"),
            # the csv module's field size limit, in a record after a multi-line one
            ('label,score,note\n1,0.5,"a\nb"\n0,0.5,"' + "x" * 200_000 + '"\n',
             "line 4: field larger than field limit"),
            # beyond int64: rejected before LabeledDataset converts it
            ("label,score\n1,0.5\n99999999999999999999,0.5\n",
             "line 3: label 99999999999999999999 out of range for 2 classes"),
            # a name read twice would be read from its last column alone
            ("label,score,feature_0,feature_0\n1,0.5,0.1,0.2\n",
             "line 1: column 'feature_0' appears more than once"),
            ("label,score,label\n1,0.5,0\n",
             "line 1: column 'label' appears more than once"),
        ],
        ids=["bad-header-index", "label-out-of-range", "off-simplex-row",
             "after-multiline-record", "label-after-multiline-record",
             "negative-score-entry", "score-entry-above-one", "oversized-field",
             "label-beyond-int64", "repeated-feature", "repeated-label"],
    )
    def test_rejected_row_reports_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad5.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError, match=message):
            read_dataset_csv(path)

    def test_plain_body_is_read_column_wise(self, tmp_path, monkeypatch):
        def row_wise(fh):
            raise AssertionError("row-wise reader called")

        monkeypatch.setattr("grouploss.data._read_rows", row_wise)
        path = tmp_path / "plain.csv"
        path.write_bytes(b"label,score,feature_0,q_true\r\n1, 0.75,2.5,0\r\n\r\n+0,1,-1e3,1\r\n")
        ds = read_dataset_csv(path)
        np.testing.assert_array_equal(ds.scores, [[0.25, 0.75], [0.0, 1.0]])
        np.testing.assert_array_equal(ds.features, [[2.5], [-1000.0]])
        np.testing.assert_array_equal(ds.labels, [1, 0])
        # a quoted field, even a number, goes to the row-wise reader
        path.write_text('label,score\n1,"0.5"\n')
        with pytest.raises(AssertionError, match="row-wise"):
            read_dataset_csv(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("tail", ["", '9,0.5,"1.5"\n'], ids=["valid", "bad-last-row"])
    def test_pipe_gives_what_the_regular_file_gives(self, tmp_path, tail):
        # the text is far longer than one read-ahead chunk
        text = "label,score,feature_0\n" + "1,0.25,1.5\n0,0.75,-2.5\n" * 2000 + tail
        path = tmp_path / "data.csv"
        path.write_text(text)
        piped = _pipe_outcome(text.encode())
        regular = _outcome(path)
        if tail:
            assert piped == regular == (InputFormatError, "line 4002: label 9 out of range for 2 classes")
        else:
            assert piped[0].shape == (4000, 1)
            for a, b in zip(piped, regular):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("tail", ["", '1,0.5,"2.5"\n'], ids=["column-wise", "row-wise"])
    def test_byte_order_mark_is_dropped(self, tmp_path, monkeypatch, tail):
        # spreadsheet "CSV UTF-8" exports start with the mark
        text = ("label,score,feature_0\n" + "1,0.25,1.5\n0,0.75,-2.5\n" * 2000 + tail).encode()
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        want = _outcome(plain)
        assert want[0].shape == (4000 + bool(tail), 1)
        for got in (_outcome(marked), _pipe_outcome(b"\xef\xbb\xbf" + text)):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        if not tail:
            def row_wise(fh):
                raise AssertionError("row-wise reader called")

            monkeypatch.setattr("grouploss.data._read_rows", row_wise)
            np.testing.assert_array_equal(_outcome(marked)[0], want[0])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"label,score,feature_0\n1,0.5,0.1\n0,0.4,0.2\xff\n", "line 3: byte 0xff is not UTF-8"),
            # the physical line inside a quoted field that spans lines
            (b'label,score,feature_0,note\n1,0.5,0.1,"a\r\nb\xfe"\n0,0.4,0.2,x\n',
             "line 3: byte 0xfe is not UTF-8"),
            # a multi-byte sequence cut short, in the header
            (b"label,sc\xc3ore\n1,0.5\n", "line 1: byte 0xc3 is not UTF-8"),
        ],
        ids=["last-line", "inside-quoted-field", "header"],
    )
    def test_byte_not_utf8_names_its_line(self, tmp_path, data, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert _outcome(path) == _pipe_outcome(data) == (InputFormatError, message)

    @pytest.mark.parametrize("text", ["1,0.5,0.00000000000000001\n",
                                      "1,0.5,1\n" + "0" * 20 + ",0.5,1\n"])
    def test_field_limit_holds_on_the_column_path(self, tmp_path, text):
        # numpy has no field limit; a line longer than it takes the row-wise path
        path = tmp_path / "long.csv"
        path.write_text("label,score,feature_0\n" + text)
        limit = csv.field_size_limit(16)
        try:
            with pytest.raises(InputFormatError, match=r"line \d: field larger than field limit \(16\)"):
                read_dataset_csv(path)
        finally:
            csv.field_size_limit(limit)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("score\n0.5\n")
        with pytest.raises(InputFormatError, match="label"):
            read_dataset_csv(path)
