"""End-to-end command-line behaviour: outputs, determinism, exit codes."""

import functools
import json
import multiprocessing
import os
import re
import threading
import time

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
from grouploss.data import LabeledDataset, write_dataset_csv
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

    def test_split_curve_gives_the_same_bytes(self, monkeypatch):
        # a window of 12,600 rows: one process and the curve split over a
        # forked child (beside the partition's) write the same report
        ds, _ = sample_realistic(default_realistic(), 42_000, seed=4)
        outputs, forks = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
            before = forking.in_child.forks
            report = run_pipeline(ds, RunConfig(seed=4))
            forks.append(forking.in_child.forks - before)
            outputs.append((report.to_json(), report.diagram_csv()))
        if "fork" in multiprocessing.get_all_start_methods():
            assert forks == [0, 2]
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

        monkeypatch.setattr("grouploss.cli.run_pipeline", no_pipeline)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "realistic"}))
        missing = tmp_path / "missing" / "dir" / "s.csv"
        code = main(["sweep", str(spec), "--axis", "bins", "--values", "5",
                     "--n", "1000", "--repeats", "1", "--out", str(missing)])
        assert code == EXIT_INPUT
        assert f"--out {missing}" in capsys.readouterr().err

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

        def forced(tasks, _workers):
            used.append(workers)
            return self.run_tasks(tasks, workers)

        monkeypatch.setattr(cli, "run_tasks", forced)
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

        def counted(tasks, workers):
            counts.append((len(tasks), workers))
            return self.run_tasks(tasks, 1)

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
        # ratios 30 and 100 fail with different messages; 30 is first in task
        # order, so its message is the one every worker count reports
        pipeline = cli.run_pipeline

        def failing(ds, cfg):
            if cfg.region_ratio > 10:
                raise ValueError(f"ratio {cfg.region_ratio} fails")
            return pipeline(ds, cfg)

        monkeypatch.setattr(cli, "run_pipeline", failing)
        errors = []
        for workers in (1, 2, 3):
            capsys.readouterr()
            result = self._sweep(tmp_path, monkeypatch, workers, values="10,30,100")
            assert result == (EXIT_INPUT, None)
            errors.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == []
        assert errors == ["error: ratio 30 fails\n"] * 3

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

        for name in ("run_pipeline", "true_gl_monte_carlo"):
            monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
        assert self._sweep(tmp_path, monkeypatch, 2, "wrapped.csv") == (EXIT_OK, plain)
        assert sorted(calls.read_text().split()) == ["run_pipeline"] * 4 + ["true_gl_monte_carlo"]


def _stage_pids():
    """Run in a sweep worker: the pid an ``in_child`` stage ran in, this
    process's pid, and how many children the stage forked."""
    forks = forking.in_child.forks
    with forking.in_child(os.getpid) as stage:
        pid = stage()
    return pid, os.getpid(), forking.in_child.forks - forks


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
    def test_cpu_counts_give_the_same_bytes(self, two_cpus, monkeypatch, partition, d):
        ds, _ = sample_realistic(default_realistic() if d == 2 else self.D4, 3000, seed=5)
        outputs, forks = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
            before = forking.in_child.forks
            report = run_pipeline(ds, RunConfig(partition=partition, seed=5))
            forks.append(forking.in_child.forks - before)
            outputs.append(report.to_json() + report.diagram_csv())
        # two CPUs: the partition's child and the curve's second run
        assert forks == [0, 2]
        assert outputs[0] == outputs[1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("scale, message", [
        (1e160, r"k-means: features up to [\d.]+e\+160 overflow squared distances"),
        (None, "partitioning requires a nonempty feature matrix"),
    ], ids=["kmeans-overflow", "no-features"])
    def test_a_child_error_keeps_its_type_and_message(self, two_cpus, monkeypatch, scale,
                                                       message):
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        features = ds.features[:, :0] if scale is None else ds.features * scale
        ds = LabeledDataset(features, ds.scores, ds.labels)
        before = forking.in_child.forks
        errors = self._errors(monkeypatch, ds, RunConfig(partition="kmeans:4"))
        assert forking.in_child.forks == before + 2
        assert errors[0] == errors[1]
        assert errors[0][0] is ValueError and re.fullmatch(message, errors[0][1])

    def test_estimate_exits_2_on_a_child_error(self, two_cpus, tmp_path, capsys):
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        csv = tmp_path / "huge.csv"
        write_dataset_csv(csv, LabeledDataset(ds.features * 1e160, ds.scores, ds.labels))
        before = forking.in_child.forks
        code = main(["estimate", str(csv), "--partition", "kmeans:4",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT and forking.in_child.forks == before + 2
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

    def test_the_child_is_forked_before_the_curve_starts(self, two_cpus, monkeypatch):
        forks = []
        fit = cli.fit_calibration_curve

        def curve(*args):
            forks.append(forking.in_child.forks)
            return fit(*args)

        monkeypatch.setattr(cli, "fit_calibration_curve", curve)
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        before = forking.in_child.forks
        run_pipeline(ds, RunConfig())
        assert forks == [before + 1]

    def test_another_thread_keeps_the_stage_in_process(self, two_cpus):
        ds, _ = sample_realistic(default_realistic(), 2000, seed=6)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            before = forking.in_child.forks
            alone = run_pipeline(ds, RunConfig(seed=6)).to_json()
            assert forking.in_child.forks == before
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert run_pipeline(ds, RunConfig(seed=6)).to_json() == alone
        assert forking.in_child.forks == before + 2

    def test_a_sweep_worker_runs_the_stage_in_process(self, two_cpus):
        [(pid, worker, forks)] = forking.run_tasks([(_stage_pids, ())], 2)
        assert pid == worker != os.getpid()
        assert forks == 0
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
