"""End-to-end command-line behaviour: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from grouploss.cli import EXIT_INPUT, EXIT_OK, EXIT_UNESTIMABLE, RunConfig, main, run_pipeline
from grouploss.data import LabeledDataset, write_dataset_csv
from grouploss.simulate import default_realistic, sample_realistic


def _two_region_csv(path, n=10_000, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    q = np.where(x < 0, 0.6, 0.8)
    labels = (rng.uniform(size=n) < q).astype(int)
    scores = np.full(n, 0.7)
    ds = LabeledDataset(x[:, None], np.column_stack([1 - scores, scores]), labels)
    write_dataset_csv(path, ds)
    return ds


class TestEstimate:
    def test_two_region_oracle_with_stump(self, tmp_path):
        csv = tmp_path / "data.csv"
        _two_region_csv(csv)
        out = tmp_path / "report.json"
        diagram = tmp_path / "diagram.csv"
        code = main([
            "estimate", str(csv), "--partition", "stump", "--seed", "3",
            "--out", str(out), "--diagram-out", str(diagram),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["gl_lower_bound"] > 0.005
        assert report["debiased"] is True
        rows = diagram.read_text().strip().split("\n")[1:]
        grayed = [line.split(",")[-1] for line in rows]
        assert grayed == ["0", "0"]

    def test_byte_identical_reruns(self, tmp_path):
        csv = tmp_path / "data.csv"
        _two_region_csv(csv, n=2000)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"report_{run}.json"
            diagram = tmp_path / f"diagram_{run}.csv"
            code = main([
                "estimate", str(csv), "--seed", "7",
                "--out", str(out), "--diagram-out", str(diagram),
            ])
            assert code == EXIT_OK
            outs.append((out.read_bytes(), diagram.read_bytes()))
        assert outs[0] == outs[1]

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,score\n1,0.5\n1,not-a-number\n")
        assert main(["estimate", str(bad)]) == EXIT_INPUT
        assert "line 3" in capsys.readouterr().err

    def test_nan_score_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "label,score_0,score_1,feature_0\n"
            "1,0.3,0.7,0.5\n"
            "0,0.6,0.4,1.5\n"
            "1,nan,0.5,2.5\n"
        )
        assert main(["estimate", str(bad)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 4" in err and "score_0" in err

    def test_nan_feature_exits_2_with_line(self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        _two_region_csv(csv, n=200)
        lines = csv.read_text().split("\n")
        fields = lines[5].split(",")
        fields[-1] = "nan"
        lines[5] = ",".join(fields)
        csv.write_text("\n".join(lines))
        assert main(["estimate", str(csv)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 6" in err and "feature_0" in err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        _two_region_csv(csv, n=200)
        assert main(["estimate", str(csv), "--bins", "0"]) == EXIT_INPUT
        assert main(["estimate", str(csv), "--reduction", "sideways"]) == EXIT_INPUT

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == EXIT_INPUT

    def test_every_bin_unestimable_exits_3(self, tmp_path):
        n = 12
        scores = np.full(n, 0.5)
        feats = (np.arange(n, dtype=float)[:, None]) ** 2 * 13
        labels = np.array([1, 0] * (n // 2))
        ds = LabeledDataset(feats, np.column_stack([1 - scores, scores]), labels)
        csv = tmp_path / "tiny.csv"
        write_dataset_csv(csv, ds)
        out = tmp_path / "report.json"
        code = main([
            "estimate", str(csv), "--partition", "kmeans:12", "--bins", "1",
            "--seed", "41", "--out", str(out),
        ])
        assert code == EXIT_UNESTIMABLE
        report = json.loads(out.read_text())
        assert report["gl_lower_bound"] is None

    def test_recalibration_reduces_binned_calibration_loss(self):
        sim = default_realistic(distortion="overconfident")
        ds, _ = sample_realistic(sim, 8000, seed=11)
        plain = run_pipeline(ds, RunConfig(seed=11))
        fixed = run_pipeline(ds, RunConfig(seed=11, recalibrate="isotonic"))
        assert fixed.cl_binned < plain.cl_binned

    def test_recalibrated_loss_small_at_scale(self):
        # train-half isotonic brings the test-half binned loss near zero
        sim = default_realistic(distortion="overconfident")
        ds, _ = sample_realistic(sim, 100_000, seed=12)
        fixed = run_pipeline(ds, RunConfig(seed=12, recalibrate="isotonic"))
        assert fixed.cl_binned < 1e-3

    def test_logloss_rule(self, tmp_path):
        csv = tmp_path / "data.csv"
        _two_region_csv(csv, n=4000)
        out = tmp_path / "report.json"
        code = main([
            "estimate", str(csv), "--rule", "logloss", "--partition", "stump",
            "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["debiased"] is False
        assert report["bounds"] is None
        assert report["gl_plugin"] > 0

    def test_report_validates_against_published_schema(self, tmp_path):
        import pathlib

        import jsonschema

        schema = json.loads(
            (pathlib.Path(__file__).resolve().parents[1] / "docs" / "report_schema.json")
            .read_text()
        )
        sim = default_realistic()
        ds, _ = sample_realistic(sim, 3000, seed=21)
        report = run_pipeline(ds, RunConfig(seed=21))
        jsonschema.validate(json.loads(report.to_json()), schema)
        # the degenerate all-unestimable report must validate too
        n = 12
        scores = np.full(n, 0.5)
        feats = (np.arange(n, dtype=float)[:, None]) ** 2 * 13
        labels = np.array([1, 0] * (n // 2))
        tiny = LabeledDataset(feats, np.column_stack([1 - scores, scores]), labels)
        degenerate = run_pipeline(tiny, RunConfig(seed=41, partition="kmeans:12", n_bins=1))
        jsonschema.validate(json.loads(degenerate.to_json()), schema)

    def test_top_label_reduction_on_multiclass(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 400
        logits = rng.normal(size=(n, 3))
        scores = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(3, p=p) for p in scores])
        ds = LabeledDataset(rng.normal(size=(n, 2)), scores, labels)
        csv = tmp_path / "multi.csv"
        write_dataset_csv(csv, ds)
        out = tmp_path / "report.json"
        code = main(["estimate", str(csv), "--bins", "5", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["metadata"]["provenance"] == "top_label"

    def test_classwise_reduction_flag(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 400
        logits = rng.normal(size=(n, 3))
        scores = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(3, p=p) for p in scores])
        ds = LabeledDataset(rng.normal(size=(n, 2)), scores, labels)
        csv = tmp_path / "multi.csv"
        write_dataset_csv(csv, ds)
        out = tmp_path / "report.json"
        code = main([
            "estimate", str(csv), "--bins", "5", "--reduction", "classwise:1",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["metadata"]["provenance"] == "classwise:1"
        assert main(["estimate", str(csv), "--reduction", "classwise:9"]) == EXIT_INPUT


class TestSimulate:
    def _spec(self, tmp_path, **overrides):
        spec = {"kind": "realistic"}
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_emits_dataset_and_summary(self, tmp_path):
        spec = self._spec(tmp_path)
        out = tmp_path / "data.csv"
        summary = tmp_path / "summary.json"
        code = main([
            "simulate", str(spec), "--n", "500", "--seed", "2",
            "--oracle-n", "50000", "--out", str(out), "--summary-out", str(summary),
        ])
        assert code == EXIT_OK
        header = out.read_text().split("\n", 1)[0]
        assert header == "label,score_0,score_1,feature_0,feature_1,q_true"
        payload = json.loads(summary.read_text())
        assert payload["gl_true"] > 0
        assert payload["cl_true"] < 5e-3

    def test_zero_perturbation_oracle(self, tmp_path):
        spec = self._spec(tmp_path, psi="zero")
        summary = tmp_path / "summary.json"
        code = main([
            "simulate", str(spec), "--n", "100", "--seed", "1",
            "--oracle-n", "50000", "--summary-out", str(summary),
        ])
        assert code == EXIT_OK
        payload = json.loads(summary.read_text())
        assert abs(payload["gl_true"]) < 3 * payload["gl_true_se"] + 1e-6

    def test_identical_reruns(self, tmp_path):
        spec = self._spec(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code = main([
                "simulate", str(spec), "--n", "300", "--seed", "9",
                "--oracle-n", "20000", "--out", str(out),
            ])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_estimate_consumes_simulated_csv(self, tmp_path):
        spec = self._spec(tmp_path)
        data = tmp_path / "data.csv"
        main(["simulate", str(spec), "--n", "4000", "--seed", "4",
              "--oracle-n", "20000", "--out", str(data)])
        out = tmp_path / "report.json"
        assert main(["estimate", str(data), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["n_rows"] == 4000

    def test_invalid_spec_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "mystery"}))
        assert main(["simulate", str(bad)]) == EXIT_INPUT
        notjson = tmp_path / "notjson.json"
        notjson.write_text("{")
        assert main(["simulate", str(notjson)]) == EXIT_INPUT


class TestSweep:
    def test_region_ratio_sweep(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(spec), "--axis", "region_ratio", "--values", "10,2000",
            "--n", "4000", "--repeats", "2", "--seed", "5",
            "--oracle-n", "50000", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("axis,value,gl_lb,gl_lb_sd")
        assert len(lines) == 3
        fine = dict(zip(lines[0].split(","), lines[1].split(",")))
        coarse = dict(zip(lines[0].split(","), lines[2].split(",")))
        # a single giant region explains nothing: the bound collapses
        assert float(coarse["gl_explained"]) < 0.25 * float(fine["gl_explained"])
        assert float(fine["gl_true"]) == float(coarse["gl_true"])

    def test_bins_sweep_shrinks_induced_term(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(spec), "--axis", "bins", "--values", "2,50",
            "--n", "4000", "--repeats", "2", "--seed", "8",
            "--oracle-n", "20000", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        coarse = dict(zip(header, lines[1].split(",")))
        fine = dict(zip(header, lines[2].split(",")))
        assert float(fine["gl_induced"]) < float(coarse["gl_induced"])

    def test_tiny_ratio_flagged_unestimable(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(spec), "--axis", "region_ratio", "--values", "1",
            "--n", "2000", "--repeats", "2", "--seed", "6",
            "--oracle-n", "20000", "--out", str(out),
        ])
        assert code == EXIT_OK
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[-1] == "1"

    def test_bad_axis_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        with pytest.raises(SystemExit):
            main(["sweep", str(spec), "--axis", "banana", "--values", "1"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--axis", "bins", "--values", "0"], "bins must be >= 1"),
        (["sweep", "--axis", "region_ratio", "--values", "10", "--n", "5",
          "--repeats", "1", "--oracle-n", "1000"], "at least 10 points"),
        (["sweep", "--axis", "bins", "--values", "5", "--repeats", "0"], "--repeats"),
        (["sweep", "--axis", "bins", "--values", "5", "--oracle-n", "0"], "--oracle-n"),
        (["simulate", "--oracle-n", "0"], "--oracle-n"),
        (["simulate", "--n", "-5"], "--n"),
    ],
    ids=["sweep-bins-0", "sweep-n-5", "sweep-repeats-0", "sweep-oracle-n-0",
         "simulate-oracle-n-0", "simulate-n-negative"],
)
def test_bad_numbers_exit_2(tmp_path, capsys, argv, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "realistic"}))
    assert main([argv[0], str(spec), *argv[1:]]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "grouploss" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
