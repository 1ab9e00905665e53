"""End-to-end command-line behaviour: outputs, determinism, exit codes."""

import functools
import json
import multiprocessing
import os
import re
import resource
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from grouploss import cli, forking
from grouploss.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNESTIMABLE,
    RunConfig,
    _run_config,
    build_parser,
    main,
    run_pipeline,
)
from grouploss.binning import make_bins
from grouploss.data import LabeledDataset, stratified_split, write_dataset_csv
from grouploss.glestim import RegionStats
from grouploss.simulate import RealisticSimulator, default_realistic, sample_realistic


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

    def test_a_negative_class_index_exits_2_before_the_read(self, tmp_path, capsys, monkeypatch):
        def no_read(*args):
            raise AssertionError("the input was read before the reduction was checked")

        monkeypatch.setattr(cli, "read_dataset_csv", no_read)
        # a missing file, whose read error would otherwise be the one reported
        code = main(["estimate", str(tmp_path / "nope.csv"), "--reduction", "classwise:-1"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "classwise:K needs an integer K >= 0" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == EXIT_INPUT

    @pytest.mark.parametrize("flag", ["--out", "--diagram-out"])
    def test_output_into_missing_directory_exits_2(self, tmp_path, capsys, flag):
        csv = tmp_path / "data.csv"
        _two_region_csv(csv, n=400)
        missing = tmp_path / "missing" / "dir" / "r.json"
        code = main(["estimate", str(csv), "--partition", "stump", flag, str(missing)])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "No such file or directory" in err
        # checked before any work: no report reaches stdout either
        assert f"{flag} {missing}" in err and out == ""

    def test_output_onto_a_directory_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        _two_region_csv(csv, n=400)
        adir = tmp_path / "adir"
        adir.mkdir()
        assert main(["estimate", str(csv), "--diagram-out", str(adir)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert err.startswith("error:") and f"--diagram-out {adir}: Is a directory" in err
        assert out == ""

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--partition", "kmeans:x"], "'kmeans:x'"),
            (["--reduction", "classwise:x"], "'classwise:x'"),
            (["--seed", "-1"], "seed must be >= 0"),
            (["--rule", "x"], "rule must be brier or logloss, got 'x'"),
            (["--recalibrate", "x"], "recalibrate must be none or isotonic, got 'x'"),
            (["--out", ""], "--out '': the path is empty"),
            (["--diagram-out", ""], "--diagram-out '': the path is empty"),
        ],
        ids=["kmeans-x", "classwise-x", "seed-negative", "rule-x", "recalibrate-x",
             "out-empty", "diagram-out-empty"],
    )
    def test_bad_option_value_names_itself(self, tmp_path, capsys, option, message):
        csv = tmp_path / "data.csv"
        _two_region_csv(csv, n=200)
        assert main(["estimate", str(csv), *option]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert err.startswith("error:") and message in err
        assert "invalid literal" not in err
        assert out == ""

    def test_pipeline_bins_once(self, monkeypatch):
        calls = []
        make_bins = cli.make_bins

        def counted(*args, **kwargs):
            calls.append(kwargs.get("rows"))
            return make_bins(*args, **kwargs)

        monkeypatch.setattr(cli, "make_bins", counted)
        ds, _ = sample_realistic(default_realistic(), 2000, seed=3)
        report = run_pipeline(ds, RunConfig(seed=3))
        assert len(calls) == 1 and calls[0].size == report.n_test

    def test_split_curve_gives_the_same_bytes(self, monkeypatch, forks):
        # a window of 12,600 rows: one process and the curve split over a
        # forked child (beside the partition's) write the same report
        ds, _ = sample_realistic(default_realistic(), 42_000, seed=4)
        outputs, forked = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
            before = len(forks())
            report = run_pipeline(ds, RunConfig(seed=4))
            forked.append(len(forks()) - before)
            outputs.append((report.to_json(), report.diagram_csv()))
        if "fork" in multiprocessing.get_all_start_methods():
            assert forked == [0, 2]
        assert outputs[0] == outputs[1]

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

    def test_one_oracle_draw(self, tmp_path, monkeypatch):
        draws = []
        sample_sq = RealisticSimulator.sample_sq

        def counted(sim, n, seed):
            draws.append((n, seed))
            return sample_sq(sim, n, seed)

        monkeypatch.setattr(RealisticSimulator, "sample_sq", counted)
        summary = tmp_path / "summary.json"
        code = main([
            "simulate", str(self._spec(tmp_path)), "--n", "200", "--seed", "5",
            "--oracle-n", "20000", "--summary-out", str(summary),
        ])
        assert code == EXIT_OK
        assert draws == [(20000, 5)]
        payload = json.loads(summary.read_text())
        assert payload["gl_true"] > 0 and payload["cl_true"] < 5e-3

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "mystery"}))
        assert main(["simulate", str(bad)]) == EXIT_INPUT
        notjson = tmp_path / "notjson.json"
        notjson.write_text("{")
        assert main(["simulate", str(notjson)]) == EXIT_INPUT
        # a value of the wrong JSON type is bad input, not a TypeError
        capsys.readouterr()
        assert main(["simulate", str(self._spec(tmp_path, psi=["sign"]))]) == EXIT_INPUT
        assert "'psi' must be a string" in capsys.readouterr().err


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

    def test_failed_pipeline_skips_the_oracle(self, tmp_path, capsys, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the oracle ran before any pipeline succeeded")

        monkeypatch.setattr("grouploss.cli.true_gl_monte_carlo", no_oracle)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        code = main([
            "sweep", str(spec), "--axis", "region_ratio", "--values", "10",
            "--n", "5", "--repeats", "1",
        ])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least 10 points" in err

    def test_missing_output_directory_skips_the_pipelines(self, tmp_path, capsys, monkeypatch):
        def no_pipeline(*args):
            raise AssertionError("a pipeline ran before the output path was checked")

        monkeypatch.setattr("grouploss.cli._sweep_repeat", no_pipeline)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        missing = tmp_path / "missing" / "dir" / "s.csv"
        code = main(["sweep", str(spec), "--axis", "bins", "--values", "5",
                     "--n", "1000", "--repeats", "1", "--out", str(missing)])
        assert code == EXIT_INPUT
        assert f"--out {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["brier", "logloss"])
    @pytest.mark.parametrize("partition", ["tree", "stump", "kmeans:4"])
    @pytest.mark.parametrize("ratio", [1, 2000])
    def test_a_repeat_reads_the_terms_of_the_report(self, rule, partition, ratio):
        # each value of a paired repeat against _estimate on the same sample
        # and seed, on both axes: the degraded flag and the four terms, bit
        # for bit
        sim = default_realistic()
        for n, seed, bins in ((1500, 3, 15), (4000, 17, 15), (600, 5, 40)):
            base = RunConfig(rule=rule, n_bins=bins, partition=partition, region_ratio=ratio)
            ds, _ = sample_realistic(sim, n, seed)
            for key, values in (("region_ratio", (ratio, 30)), ("n_bins", (5, bins))):
                cfgs = [replace(base, **{key: value}) for value in values]
                got = cli._sweep_repeat(sim, n, cfgs, seed)
                assert len(got) == len(cfgs)
                for cfg, (got_degraded, got_terms) in zip(cfgs, got):
                    *_, glx, induced = cli._estimate(ds, replace(cfg, seed=seed))
                    degraded = not glx.estimable.all() or glx.dropped_fraction > 0.03
                    terms = (glx.explained - induced, glx.plugin, glx.explained, induced)
                    assert got_degraded == degraded
                    assert np.array(got_terms).tobytes() == np.array(terms).tobytes()
        # at 40 bins some bins hold one test row: unestimable at any ratio
        assert not glx.estimable.all()

    def test_one_sample_and_one_curve_per_repeat(self, tmp_path, monkeypatch):
        # and one split, one binning and one induced term per distinct bin
        # count: three a repeat on the bins axis, one on the region ratio's
        monkeypatch.setattr(forking, "usable_cpus", lambda: 1)
        calls = []
        for name in ("sample_realistic", "fit_calibration_curve", "stratified_split",
                     "make_bins", "gl_induced_estimate"):
            def counted(*args, fn=getattr(cli, name), name=name, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        out = tmp_path / "sweep.csv"
        for axis, values, binnings in (("bins", "5,10,15", 3), ("region_ratio", "10,30,100", 1)):
            calls.clear()
            assert main(["sweep", str(spec), "--axis", axis, "--values", values,
                         "--n", "2000", "--repeats", "3", "--seed", "4", "--oracle-n", "1000",
                         "--out", str(out)]) == EXIT_OK
            assert {name: calls.count(name) for name in set(calls)} == {
                "sample_realistic": 3, "fit_calibration_curve": 3, "stratified_split": 3 * binnings,
                "make_bins": 3 * binnings, "gl_induced_estimate": 3 * binnings}
        # the split, the bins and the curve do not depend on the ratio
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 3
        assert len({(r["gl_induced"], r["gl_induced_sd"]) for r in rows}) == 1
        assert len({r["gl_explained"] for r in rows}) == 3

    def test_a_value_given_twice_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sample(*args):
            raise AssertionError("a sample was drawn before the values were checked")

        monkeypatch.setattr("grouploss.cli.sample_realistic", no_sample)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        for values, given in (("30,30", "30"), ("5,10,05", "5")):
            code = main(["sweep", str(spec), "--axis", "region_ratio", "--values", values,
                         "--n", "1000", "--repeats", "1", "--out", str(tmp_path / "s.csv")])
            assert code == EXIT_INPUT
            assert capsys.readouterr().err == (
                f"error: --values {values!r}: {given} is given twice\n")
        assert not (tmp_path / "s.csv").exists()

    def test_bad_axis_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        with pytest.raises(SystemExit):
            main(["sweep", str(spec), "--axis", "banana", "--values", "1"])


class TestSweepWorkers:
    """The sweep's repeats and oracle on 1, 2 or 3 forked workers."""

    run_tasks = staticmethod(forking.run_tasks)

    def _sweep(self, tmp_path, monkeypatch, workers, name="sweep.csv", values="10,30"):
        """Exit code and CSV text of a sweep run on ``workers`` workers."""
        used = []

        def counted(tasks, pool=False):
            if tasks[-1][0] is cli.true_gl_monte_carlo:  # not a pipeline's own call
                used.append(forking.workers(len(tasks)))
            return self.run_tasks(tasks, pool)

        monkeypatch.setattr(cli, "run_tasks", counted)
        monkeypatch.setattr(forking, "usable_cpus", lambda: workers)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        out = tmp_path / name
        code = main(["sweep", str(spec), "--axis", "region_ratio", "--values", values,
                     "--n", "2000", "--repeats", "2", "--seed", "3", "--oracle-n", "20000",
                     "--out", str(out)])
        assert used == [workers]
        return code, out.read_text() if out.exists() else None

    def test_worker_counts_give_the_same_bytes(self, tmp_path, monkeypatch):
        outputs = [self._sweep(tmp_path, monkeypatch, w, f"{w}.csv") for w in (1, 2, 3)]
        assert outputs[0][0] == EXIT_OK
        assert outputs[0] == outputs[1] == outputs[2]
        assert multiprocessing.active_children() == []

    def test_worker_count_is_capped(self, tmp_path, monkeypatch):
        counts = []

        def counted(tasks, pool=False):
            if tasks[-1][0] is cli.true_gl_monte_carlo:  # not a pipeline's own call
                counts.append((len(tasks), forking.workers(len(tasks))))
            return [fn(*args) for fn, args in tasks]

        monkeypatch.setattr(cli, "run_tasks", counted)
        monkeypatch.setattr(forking, "usable_cpus", lambda: 64)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        for repeats in ("1", "3"):
            assert main(["sweep", str(spec), "--axis", "bins", "--values", "5",
                         "--n", "1000", "--repeats", repeats, "--oracle-n", "1000",
                         "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        # one repeat and the oracle, then three repeats and the oracle
        assert counts == [(2, 2), (4, forking.MAX_WORKERS)]

    def test_failing_repeat_gives_the_serial_message(self, tmp_path, monkeypatch, capsys):
        # repeat 0 fails at ratio 100 and repeat 1 at ratio 30, sooner within
        # its task; repeat 0 is first in task order, so its message is the
        # one every worker count reports
        partition_stage = cli._partition_stage
        fails = {(cli._derived_seed(3, 0), 100), (cli._derived_seed(3, 1), 30)}

        def failing(bview, features, labels, split, cfg):
            if (cfg.seed, cfg.region_ratio) in fails:
                raise ValueError(f"ratio {cfg.region_ratio} fails")
            return partition_stage(bview, features, labels, split, cfg)

        monkeypatch.setattr(cli, "_partition_stage", failing)
        errors = []
        for workers in (1, 2, 3):
            capsys.readouterr()
            result = self._sweep(tmp_path, monkeypatch, workers, values="10,30,100")
            assert result == (EXIT_INPUT, None)
            errors.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == []
        assert errors == ["error: ratio 100 fails\n"] * 3

    def test_wrapped_names_still_run(self, tmp_path, monkeypatch):
        # a wrapper with the wrapped function's name, as a tracer installs,
        # cannot be pickled by that name; the workers must look it up instead
        _, plain = self._sweep(tmp_path, monkeypatch, 2, "plain.csv")
        calls = tmp_path / "calls.txt"

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args):
                with open(calls, "a", encoding="utf-8") as fh:
                    fh.write(fn.__name__ + "\n")
                return fn(*args)
            return wrapper

        for name in ("_sweep_repeat", "fit_calibration_curve", "_partition_stage",
                     "true_gl_monte_carlo"):
            monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
        assert self._sweep(tmp_path, monkeypatch, 2, "wrapped.csv") == (EXIT_OK, plain)
        # two repeats of two values each, and the oracle
        assert sorted(calls.read_text().split()) == (
            ["_partition_stage"] * 4 + ["_sweep_repeat"] * 2 + ["fit_calibration_curve"] * 2
            + ["true_gl_monte_carlo"])


    def test_a_sweep_in_a_daemonic_worker_runs_its_tasks_there(self, tmp_path, monkeypatch):
        # a daemonic worker may not start processes: the sweep runs its
        # tasks one after another in that worker, to the same bytes
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform cannot fork")
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        argv = ["sweep", str(spec), "--axis", "region_ratio", "--values", "10,30", "--n", "2000",
                "--repeats", "2", "--seed", "3", "--oracle-n", "20000", "--out"]
        assert main(argv + [str(tmp_path / "here.csv")]) == EXIT_OK
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(main, (argv + [str(tmp_path / "daemon.csv")],)) == EXIT_OK
        assert (tmp_path / "daemon.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()

    def test_back_to_back_sweeps_both_fork(self, tmp_path, monkeypatch):
        # a thread left over from the first sweep's pool would keep the
        # second one in this process
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform cannot fork")
        pids = []

        def with_pid(tasks, pool=False):
            *results, pid = self.run_tasks(tasks + [(os.getpid, ())], pool)
            pids.append(pid)
            return results

        monkeypatch.setattr(cli, "run_tasks", with_pid)
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        outputs = []
        for name in ("first.csv", "second.csv"):
            assert main(["sweep", str(spec), "--axis", "bins", "--values", "5,15", "--n", "1000",
                         "--repeats", "1", "--oracle-n", "1000", "--out",
                         str(tmp_path / name)]) == EXIT_OK
            outputs.append((tmp_path / name).read_bytes())
        assert len(pids) == 2 and os.getpid() not in pids
        assert outputs[0] == outputs[1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, values", [(2, "10"), (4, "10,30")])
    def test_one_worker_per_task_forks_nothing_more(self, tmp_path, monkeypatch, forks, cpus,
                                                    values):
        # as many tasks as processes: each runs in a pool worker, where its
        # pipeline forks nothing, rather than the first here, forking its
        # partition and curve children beside the others
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform cannot fork")
        monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        assert main(["sweep", str(spec), "--axis", "region_ratio", "--values", values,
                     "--n", "2000", "--repeats", "1", "--oracle-n", "20000",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        # one repeat, whatever its values, and the oracle
        assert forks() == [os.getpid()] * 2
        assert multiprocessing.active_children() == []

    def test_the_oracle_and_each_repeat_run_in_children(self, tmp_path, monkeypatch, forks):
        # three repeats and the oracle on four CPUs, as many tasks as
        # processes: each task runs in a child of its own, so neither a
        # repeat's curve nor the oracle's 2e5 draws land in this process
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform cannot fork")
        pids = tmp_path / "pids.txt"

        def logged(fn):
            def task(*args):
                with open(pids, "a", encoding="utf-8") as fh:
                    fh.write(f"{fn.__name__} {os.getpid()}\n")
                return fn(*args)
            return task

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        outputs = []
        for cpus in (1, 4):
            monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
            out = tmp_path / f"{cpus}.csv"
            assert main(["sweep", str(spec), "--axis", "region_ratio", "--values", "10,30",
                         "--n", "2000", "--repeats", "3", "--seed", "3", "--oracle-n", "20000",
                         "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
            if cpus == 1:
                assert forks() == []
                for name in ("_sweep_repeat", "true_gl_monte_carlo"):
                    monkeypatch.setattr(cli, name, logged(getattr(cli, name)))
        ran = sorted(line.split() for line in pids.read_text().splitlines())
        assert [name for name, _ in ran] == ["_sweep_repeat"] * 3 + ["true_gl_monte_carlo"]
        children = {pid for _, pid in ran}
        assert len(children) == 4 and str(os.getpid()) not in children
        assert forks() == [os.getpid()] * 4
        assert outputs[0] == outputs[1]
        assert multiprocessing.active_children() == []


def _stage_pids():
    """Run in a sweep worker: the pids two ``run_tasks`` tasks ran in, and
    this process's pid."""
    return forking.run_tasks([(os.getpid, ())] * 2), os.getpid()


def _no_curve(*args):
    raise ValueError("the curve fails")


class TestPartitionChild:
    """The partition stage in a forked child while the curve runs here."""

    D4 = RealisticSimulator(d=4, omega=(1.0, 0.0, 0.0, 0.0), omega_perp=(0.0, 1.0, 0.0, 0.0),
                            sigma_eigenvalues=(1.0,) * 4)

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform cannot fork")
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)

    def _errors(self, monkeypatch, ds, cfg):
        """The type and message ``run_pipeline`` raises on one CPU, then on two."""
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
            with pytest.raises(Exception) as info:
                run_pipeline(ds, cfg)
            errors.append((type(info.value), str(info.value)))
            assert multiprocessing.active_children() == []
        return errors

    @pytest.mark.parametrize("partition", ["tree", "stump", "kmeans:4"])
    @pytest.mark.parametrize("d", [2, 4])
    def test_cpu_counts_give_the_same_bytes(self, two_cpus, monkeypatch, forks, partition, d):
        ds, _ = sample_realistic(default_realistic() if d == 2 else self.D4, 3000, seed=5)
        outputs, forked = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
            before = len(forks())
            report = run_pipeline(ds, RunConfig(partition=partition, seed=5))
            forked.append(len(forks()) - before)
            outputs.append(report.to_json() + report.diagram_csv())
        # two CPUs: the partition's child and the curve's second run
        assert forked == [0, 2]
        assert outputs[0] == outputs[1]
        assert multiprocessing.active_children() == []

    def test_the_child_returns_the_region_table(self, two_cpus, forks):
        # a table sized by regions, not rows, the same as in this process
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        cfg = RunConfig(seed=6)
        bv = cli.reduce_dataset(ds, cfg.reduction)
        split = stratified_split(bv, cfg.n_bins, cfg.seed)
        bview = make_bins(bv, cfg.n_bins, rows=split.test_rows)
        args = (bview, bv.features, bv.label, split, cfg)
        here = cli._partition_stage(*args)
        pid, child = forking.run_tasks([(os.getpid, ()), (cli._partition_stage, args)])
        assert pid == os.getpid() and len(forks()) == 1 and type(child) is RegionStats
        n = child.region_ids.size
        assert 0 < n < split.test_rows.size // 10
        sizes = {f.name: getattr(child, f.name).size for f in fields(child)}
        assert sizes == {"offsets": bview.bins.size + 1, "region_ids": n,
                         "region_counts": n, "region_pos": n}
        for f in fields(child):
            np.testing.assert_array_equal(getattr(child, f.name), getattr(here, f.name))

    @pytest.mark.parametrize("scale, message", [
        (1e160, r"k-means: features up to [\d.]+e\+160 overflow squared distances"),
        (None, "partitioning requires a nonempty feature matrix"),
    ], ids=["kmeans-overflow", "no-features"])
    def test_a_child_error_keeps_its_type_and_message(self, two_cpus, monkeypatch, forks, scale,
                                                       message):
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        features = ds.features[:, :0] if scale is None else ds.features * scale
        ds = LabeledDataset(features, ds.scores, ds.labels)
        errors = self._errors(monkeypatch, ds, RunConfig(partition="kmeans:4"))
        assert len(forks()) == 2
        assert errors[0] == errors[1]
        assert errors[0][0] is ValueError and re.fullmatch(message, errors[0][1])

    def test_estimate_exits_2_on_a_child_error(self, two_cpus, tmp_path, capsys, forks):
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        csv = tmp_path / "huge.csv"
        write_dataset_csv(csv, LabeledDataset(ds.features * 1e160, ds.scores, ds.labels))
        code = main(["estimate", str(csv), "--partition", "kmeans:4",
                     "--out", str(tmp_path / "r.json")])
        # the reader's child, then the partition's and the curve's
        assert code == EXIT_INPUT and len(forks()) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: k-means") and "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_the_curve_error_is_reported_first(self, two_cpus, monkeypatch):
        # both stages fail; the serial order fits the curve first
        monkeypatch.setattr(cli, "fit_calibration_curve", _no_curve)
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        ds = LabeledDataset(ds.features[:, :0], ds.scores, ds.labels)
        assert self._errors(monkeypatch, ds, RunConfig()) == [(ValueError, "the curve fails")] * 2

    def test_a_failing_curve_terminates_the_child(self, two_cpus, monkeypatch):
        monkeypatch.setattr(cli, "fit_calibration_curve", _no_curve)
        monkeypatch.setattr(cli, "fit_partition", lambda *args: time.sleep(60))
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        start = time.monotonic()
        with pytest.raises(ValueError, match="the curve fails"):
            run_pipeline(ds, RunConfig())
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_raises_runtime_error(self, two_cpus, monkeypatch):
        def die(*args):
            # only ever called in the child: in this process it would end the tests
            assert multiprocessing.parent_process() is not None
            os._exit(7)

        monkeypatch.setattr(cli, "fit_partition", die)
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        with pytest.raises(RuntimeError, match="exited with code 7 without a result"):
            run_pipeline(ds, RunConfig())
        assert multiprocessing.active_children() == []

    def test_the_child_is_forked_before_the_curve_starts(self, two_cpus, monkeypatch, forks):
        forked = []
        fit = cli.fit_calibration_curve

        def curve(*args):
            forked.append(len(forks()))
            return fit(*args)

        monkeypatch.setattr(cli, "fit_calibration_curve", curve)
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        run_pipeline(ds, RunConfig())
        assert forked == [1]

    def test_another_thread_keeps_the_stage_in_process(self, two_cpus, forks):
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            alone = run_pipeline(ds, RunConfig(seed=6)).to_json()
            assert forks() == []
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert run_pipeline(ds, RunConfig(seed=6)).to_json() == alone
        assert len(forks()) == 2

    def test_a_sweep_worker_runs_the_stage_in_process(self, two_cpus, forks):
        for pids, worker in forking.run_tasks([(_stage_pids, ())] * 2, pool=True):
            assert pids == [worker] * 2 and worker != os.getpid()
        assert forks() == [os.getpid()] * 2
        assert multiprocessing.active_children() == []


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
        (["sweep", "--axis", "bins", "--values", "5", "--partition", "kmeans:0"], "kmeans:0"),
        (["sweep", "--axis", "bins", "--values", "5", "--seed", "-1"], "seed must be >= 0"),
        (["simulate", "--seed", "-1"], "seed must be >= 0"),
        (["sweep", "--axis", "bins", "--values", "5", "--n", "1000", "--repeats", "1",
          "--oracle-n", "1000", "--out", "missing/sweep.csv"], "No such file or directory"),
        (["simulate", "--n", "100", "--oracle-n", "1000", "--out", "missing/data.csv"],
         "No such file or directory"),
        (["simulate", "--n", "100", "--oracle-n", "1000", "--summary-out", "missing/s.json"],
         "No such file or directory"),
        (["sweep", "--axis", "bins", "--values", "5,x"], "--values '5,x': 'x' is not an integer"),
        (["sweep", "--axis", "bins", "--values", "5", "--n", "1000", "--repeats", "1",
          "--oracle-n", "1000", "--out", "adir"], "--out adir: Is a directory"),
        (["simulate", "--n", "100", "--oracle-n", "1000", "--out", "adir"],
         "--out adir: Is a directory"),
        (["simulate", "--n", "100", "--oracle-n", "1000", "--summary-out", "adir"],
         "--summary-out adir: Is a directory"),
        (["simulate", "--rule", "x"], "rule must be brier or logloss, got 'x'"),
        (["sweep", "--axis", "bins", "--values", "5", "--rule", "x"],
         "rule must be brier or logloss, got 'x'"),
        (["simulate", "--out", ""], "--out '': the path is empty"),
        (["simulate", "--summary-out", ""], "--summary-out '': the path is empty"),
        (["sweep", "--axis", "bins", "--values", "5", "--out", ""],
         "--out '': the path is empty"),
        # beyond int64, which numpy takes them as
        (["estimate", "--bins", "100000000000000000000000"], "bins must be < 2**63"),
        (["estimate", "--region-ratio", "100000000000000000000000000000"],
         "region-ratio must be < 2**63"),
        (["sweep", "--axis", "region_ratio", "--values", "10,100000000000000000000000000000"],
         "region-ratio must be < 2**63"),
    ],
    ids=["sweep-bins-0", "sweep-n-5", "sweep-repeats-0", "sweep-oracle-n-0",
         "simulate-oracle-n-0", "simulate-n-negative", "sweep-kmeans-0",
         "sweep-seed-negative", "simulate-seed-negative", "sweep-out-missing-dir",
         "simulate-out-missing-dir", "simulate-summary-out-missing-dir", "sweep-values-x",
         "sweep-out-is-dir", "simulate-out-is-dir", "simulate-summary-out-is-dir",
         "simulate-rule-x", "sweep-rule-x", "simulate-out-empty",
         "simulate-summary-out-empty", "sweep-out-empty", "estimate-bins-beyond-int64",
         "estimate-region-ratio-beyond-int64", "sweep-region-ratio-beyond-int64"],
)
def test_bad_numbers_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    # relative output paths land under tmp_path, where "missing/" does not
    # exist and "adir/" is a directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "realistic"}))
    assert main([argv[0], str(spec), *argv[1:]]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, existing, message", [
    (["estimate", "data.csv", "--out", "r.json", "--diagram-out", "r.json"], "r.json",
     "--diagram-out r.json: the same file as --out"),
    (["simulate", "spec.json", "--n", "100", "--oracle-n", "1000", "--out", "same.csv",
      "--summary-out", "same.csv"], "same.csv", "--summary-out same.csv: the same file as --out"),
    (["estimate", "data.csv", "--out", "./data.csv"], "data.csv",
     "--out ./data.csv: the same file as input"),
    (["sweep", "spec.json", "--axis", "bins", "--values", "5", "--out", "spec.json"],
     "spec.json", "--out spec.json: the same file as spec"),
], ids=["estimate-out-diagram-out", "simulate-out-summary-out", "estimate-out-input",
        "sweep-out-spec"])
def test_colliding_paths_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys, argv, existing,
                                                  message):
    # two outputs at one file, or an output at the input: one write
    # would replace the other, or the input itself
    monkeypatch.chdir(tmp_path)
    _two_region_csv(tmp_path / "data.csv", n=300)
    (tmp_path / "spec.json").write_text(json.dumps({"kind": "realistic"}))
    if not (tmp_path / existing).exists():
        (tmp_path / existing).write_text("already here\n")
    before = (tmp_path / existing).read_bytes()
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (tmp_path / existing).read_bytes() == before


def test_a_special_file_takes_two_outputs(tmp_path):
    csv = tmp_path / "data.csv"
    _two_region_csv(csv, n=2000)
    assert main(["estimate", str(csv), "--out", os.devnull, "--diagram-out", os.devnull]) == EXIT_OK


def _src_env():
    """The environment of a fresh interpreter that imports this ``grouploss``."""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, grouploss, grouploss.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


class TestForkedReader:
    """``estimate`` reads its CSV in a forked child while scipy loads here:
    the same bytes, exit code and message as on one CPU."""

    @pytest.fixture(autouse=True)
    def can_fork(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("this platform cannot fork")

    def _estimate(self, monkeypatch, capsys, forks, path, out, cpus, writer=None):
        """Exit code, stderr, report bytes and forks of ``estimate`` on ``cpus`` CPUs."""
        monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
        before = len(forks())
        code = main(["estimate", str(path), "--out", str(out)])
        if writer is not None:
            assert writer.wait(timeout=60) == 0
        assert multiprocessing.active_children() == []
        report = out.read_bytes() if out.exists() else None
        return code, capsys.readouterr().err, report, len(forks()) - before

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "malformed"])
    def test_an_input_error_is_the_same_on_every_cpu_count(self, tmp_path, monkeypatch, capsys,
                                                           forks, case):
        path = tmp_path / "input.csv"
        if case == "directory":
            path.mkdir()
        elif case != "missing":
            _two_region_csv(path, n=300)
            lines = path.read_bytes().split(b"\n")
            lines[3] += b"\xff" if case == "not-utf8" else b",1"
            path.write_bytes(b"\n".join(lines))
        runs = [self._estimate(monkeypatch, capsys, forks, path, tmp_path / f"{cpus}.json", cpus)
                for cpus in (1, 2)]
        assert runs[0][:3] == runs[1][:3]
        code, err, report, _ = runs[0]
        assert code == EXIT_INPUT and report is None
        assert err.startswith("error:") and "Traceback" not in err
        if case in ("not-utf8", "malformed"):
            assert "line 4" in err
        # on two CPUs the reader was a forked child, and nothing came after it
        assert [forked for *_, forked in runs] == [0, 1]

    def test_a_fifo_fed_by_another_process(self, tmp_path, monkeypatch, capsys, forks):
        if not hasattr(os, "mkfifo"):
            pytest.skip("this platform has no FIFOs")
        data = tmp_path / "data.csv"
        _two_region_csv(data, n=2000)
        fifo = tmp_path / "input.fifo"
        os.mkfifo(fifo)
        runs = []
        for cpus in (1, 2):
            # a process, not a thread: another live thread keeps the reader here
            writer = subprocess.Popen([sys.executable, "-c",
                                       "import shutil, sys; shutil.copyfileobj("
                                       "open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))",
                                       str(data), str(fifo)])
            try:
                runs.append(self._estimate(monkeypatch, capsys, forks, fifo,
                                           tmp_path / f"{cpus}.json", cpus, writer))
            finally:
                writer.kill()
                writer.wait()
        assert runs[0][:3] == runs[1][:3]
        assert runs[0][0] == EXIT_OK and runs[0][2] is not None
        assert main(["estimate", str(data), "--out", str(tmp_path / "file.json")]) == EXIT_OK
        assert (tmp_path / "file.json").read_bytes() == runs[0][2]
        # the reader's child, then the partition's (one score: the curve is one run)
        assert [forked for *_, forked in runs] == [0, 2]


_SWEEP_WORKERS_SEE_SCIPY = """
import os, sys
from grouploss import cli, forking
forking.usable_cpus = lambda: 2

def report():
    # one write per line: under PYTHONUNBUFFERED, print writes each piece
    # apart, and two children's lines interleave
    os.write(1, f"{os.getpid()} {'scipy.special' in sys.modules}\\n".encode())

def checked(fn):
    def task(*args):
        try:
            return fn(*args)
        finally:
            report()
    return task

cli._sweep_repeat = checked(cli._sweep_repeat)
cli.true_gl_monte_carlo = checked(cli.true_gl_monte_carlo)
report()
code = cli.main(sys.argv[1:])
report()
sys.exit(code)
"""


def test_a_sweep_loads_no_scipy(tmp_path):
    # a repeat builds no report, so nothing needs the intervals' scipy:
    # not a task's child once it has run, nor this process after main
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("this platform cannot fork")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "realistic"}))
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_WORKERS_SEE_SCIPY, "sweep", str(spec),
         "--axis", "region_ratio", "--values", "10,30", "--n", "2000", "--repeats", "2",
         "--oracle-n", "1000", "--out", str(tmp_path / "sweep.csv")],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    (parent, before), *tasks, (last, after) = [line.split() for line in proc.stdout.split("\n")
                                               if line]
    assert last == parent and before == after == "False"
    # two repeats and the oracle
    assert len(tasks) == 3
    assert all(pid != parent and seen == "False" for pid, seen in tasks)


# the per-bin tables hold the bins the rows occupy, so any bin count runs
# in the memory of the rows; the cap turns a table sized by the bin count
# into a quick MemoryError rather than a machine out of memory
_ADDRESS_SPACE_CAP = 2 << 30


@pytest.mark.parametrize("bins", [10**8, 10**12, 2**63 - 1])
def test_huge_bin_counts_run_in_the_memory_of_the_rows(tmp_path, bins):
    ds, _ = sample_realistic(default_realistic(), 400, 1)
    csv = tmp_path / "data.csv"
    write_dataset_csv(csv, ds)
    proc = subprocess.run(
        [sys.executable, "-m", "grouploss.cli", "estimate", str(csv), "--bins", str(bins),
         "--out", str(tmp_path / "report.json")],
        env=_src_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP, _ADDRESS_SPACE_CAP)))
    assert proc.returncode in (EXIT_OK, EXIT_UNESTIMABLE), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == EXIT_UNESTIMABLE:
        assert proc.stderr.startswith("error:")
    assert json.loads((tmp_path / "report.json").read_text())["config"]["n_bins"] == bins


def test_split_fraction_is_echoed_but_not_settable():
    assert RunConfig().to_dict()["split_fraction"] == 0.5
    with pytest.raises(TypeError):
        RunConfig(split_fraction=0.5)


class TestParser:
    def test_no_flags_give_the_default_config(self):
        args = build_parser().parse_args(["estimate", "x.csv"])
        assert _run_config(args) == RunConfig()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "grouploss" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
