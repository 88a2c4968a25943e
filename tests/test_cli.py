"""Command-line contract: flags, exit codes, file outputs, determinism."""

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhp import io_utils, network
from mhp.cli import main
from mhp.datagen import load_dataset, write_dataset
from mhp.losses import L2, LossKind
from mhp.metrics import oracle_min_loss
from mhp.network import forward_batch, load_checkpoint

TRAIN_CFG = {
    "M": 2,
    "epsilon": 0.05,
    "dropout_prob": 0.01,
    "base_loss": "l2",
    "epochs": 3,
    "batch_size": 64,
    "optimizer": "sgd_momentum",
    "learning_rate": 0.02,
    "momentum": 0.9,
    "seed": 11,
    "hidden_layers": [16, 16],
    "dataset": {"task": "temporal2d", "n": 1500},
}


def usage_error(capsys, argv, *names):
    """``main(argv)`` exits 2 with an error line naming each of ``names``, no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and all(n in err for n in names)


def write_cfg(tmp_path, **overrides):
    cfg = dict(TRAIN_CFG)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGen:
    def test_temporal2d_rows_and_columns(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "1000",
                     "--seed", "7", "--out", str(out)]) == 0
        lines = (out / "data.csv").read_text().splitlines()
        assert lines[0] == "t,y1,y2"
        assert len(lines) == 1001
        assert all(len(l.split(",")) == 3 for l in lines[1:])
        assert (out / "data.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        for name in manifest["outputs"]:
            assert (out / name).exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["gen", "--task", "temporal2d", "--n", "500", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a/data.csv").read_bytes()
                == (tmp_path / "b/data.csv").read_bytes())

    def test_zero_samples_is_usage_error(self, tmp_path):
        assert main(["gen", "--task", "temporal2d", "--n", "0",
                     "--out", str(tmp_path / "d")]) == 2

    def test_bad_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--task", "nosuch", "--n", "5",
                     "--out", str(tmp_path / "d")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("task", ["multilabel", "gridframe", "gmm"])
    def test_other_tasks_produce_datasets(self, tmp_path, task):
        out = tmp_path / task
        assert main(["gen", "--task", task, "--n", "200", "--seed", "1",
                     "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert len(ds.Y) == 200

    # SHA-256 of data.csv and data.json for 1000 samples at seed 5. The multilabel
    # CSV digest is the file the per-sample label loop wrote; the one-draw sampler
    # keeps its stream. The sidecars were pinned before datagen encoded the specs.
    @pytest.mark.parametrize("task, flags, csv_sha, json_sha", [
        ("temporal2d", [],
         "675f9876823c4074810146d3c1b8239249802789b7c9d71188e8593214ae2708",
         "8e80c9a294cd5b4b97ca7b152def2e88e6fede749e73876e0d76e001ed729653"),
        ("temporal2d", ["--t", "0.3"],
         "d83f24fe48b9c69a953375a7a9cd9f532d1ff36aa8e53927a4b1b856bbbfcaaf",
         "408b178753df94a5bc7dc7880bd923f12b237c13c527a8cea509c9d77d255d4f"),
        ("multilabel", ["--classes", "5", "--set-size", "3"],
         "8709c8a350725ec435c85abfbc68245cd9ac12e157c0a8163034c846b09327ec",
         "3c63c48a368eb0055c145d8ec8e987b5a7273dde150a645296f6a16128745577"),
        ("gridframe", ["--terminals", "12"],
         "4d6956633bf86f257bc36db96758daf8cecb9679848be706405498034c720263",
         "40e9bd118bc0be2f9f0105f138b427e8748a17337833346ade1fa160c716217f"),
        ("gridframe", ["--terminals", "4", "--grid-size", "10"],
         "789373bddfa3237147627e128511c6026557e02465d282749bd76a3d4680ef51",
         "851ba725c0c1a96797016377955580955f3234a985421e37fe92b9a76c83efce"),
        ("gmm", [],
         "b926fd6e2bc64d6e751dd55440d8f974bcb2ef9f2854ce0b56dc3fb657b0704e",
         "bf45eb15016469adcfc6b59af5ef48c27ab8d7e4a9516e134234c0db2ca59fe9"),
    ], ids=["temporal2d", "temporal2d_t", "multilabel", "gridframe", "gridframe_10", "gmm"])
    def test_dataset_bytes_are_pinned(self, tmp_path, task, flags, csv_sha, json_sha):
        out = tmp_path / "d"
        assert main(["gen", "--task", task, "--n", "1000", "--seed", "5", *flags,
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "data.csv").read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256((out / "data.json").read_bytes()).hexdigest() == json_sha

    # SHA-256 of data.npz for the same runs: the table and the digest of the data.csv
    # pinned above. zipfile dates each member 1980-01-01, so no clock reaches the bytes.
    @pytest.mark.parametrize("task, flags, npz_sha", [
        ("temporal2d", [], "759d302fe7aba54a1a8e918e6dc5dddbb65bd3f372a3a4937665e5ff74b0afd4"),
        ("temporal2d", ["--t", "0.3"],
         "26ac19279976e45b86023e945b03b0eeeddae50a3ee86f3d22cd3bcee7062d98"),
        ("multilabel", ["--classes", "5", "--set-size", "3"],
         "3c1607d0e6f29039efe67280c76b09bc46901828721b1339ef93f5d43bdd9e38"),
        ("gridframe", ["--terminals", "12"],
         "cab879fdfdfec9f1652be3e39c472e49c6d94df14f159edbee12aa3224361d12"),
        ("gridframe", ["--terminals", "4", "--grid-size", "10"],
         "e3e8c122a9899b0a33d769c132c9b8c4af5d84c54355b22daa80a5d6d651c5c9"),
        ("gmm", [], "70f2c859e9c3de3c868982e49d395a18a82daafd7189d0bf3e188f2f7c8354bf"),
    ], ids=["temporal2d", "temporal2d_t", "multilabel", "gridframe", "gridframe_10", "gmm"])
    def test_dataset_cache_bytes_are_pinned(self, tmp_path, task, flags, npz_sha):
        runs = []
        for name in ("a", "b"):
            assert main(["gen", "--task", task, "--n", "1000", "--seed", "5", *flags,
                         "--out", str(tmp_path / name)]) == 0
            runs.append((tmp_path / name / "data.npz").read_bytes())
        assert runs[0] == runs[1]
        assert hashlib.sha256(runs[0]).hexdigest() == npz_sha

    @pytest.mark.parametrize("flags, message", [
        (["--task", "multilabel", "--classes", "1", "--set-size", "1"], "at least 2 classes"),
        (["--task", "multilabel", "--set-size", "0"], "set_size must lie in [1, num_classes]"),
        (["--task", "gridframe", "--terminals", "13"], "num_terminals must lie in [1, 12]"),
        (["--task", "gridframe", "--grid-size", "2"], "at least 3x3"),
    ], ids=["classes_1", "set_size_0", "terminals_13", "grid_size_2"])
    def test_spec_its_task_refuses_is_usage_error(self, tmp_path, capsys, flags, message):
        usage_error(capsys, ["gen", *flags, "--n", "10", "--out", str(tmp_path / "d")], message)
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("task, flags, flag", [
        ("temporal2d", ["--terminals", "5"], "--terminals"),
        ("temporal2d", ["--classes", "9"], "--classes"),
        ("multilabel", ["--grid-size", "10"], "--grid-size"),
        ("gridframe", ["--set-size", "3"], "--set-size"),
        ("gmm", ["--t", "0.5"], "--t"),
    ], ids=["temporal2d_terminals", "temporal2d_classes", "multilabel_grid_size",
            "gridframe_set_size", "gmm_t"])
    def test_flag_its_task_does_not_read_is_usage_error(self, tmp_path, capsys, task, flags,
                                                        flag):
        usage_error(capsys, ["gen", "--task", task, *flags, "--n", "10",
                             "--out", str(tmp_path / "d")], f"does not read {flag}")
        assert not (tmp_path / "d").exists()

    def test_fixed_t_flag(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "400", "--seed", "5",
                     "--t", "0.0", "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert (ds.X == 0.0).all()


class TestTrain:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        model, opt = load_checkpoint(out / "checkpoint.json")
        assert model.num_hypotheses == 2
        assert opt is not None
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[0])
        assert set(rec) == {"epoch", "mean_meta_loss", "oracle_min_loss"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["M"] == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        for name in ("a", "b"):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "a/metrics.jsonl").read_bytes()
                == (tmp_path / "b/metrics.jsonl").read_bytes())
        assert ((tmp_path / "a/checkpoint.json").read_bytes()
                == (tmp_path / "b/checkpoint.json").read_bytes())

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        monkeypatch.setenv("MHP_SEED", "99")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        model, _ = load_checkpoint(out / "checkpoint.json")
        assert model.seed == 99

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, learning_rate=1e12, epochs=4)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, cause", [
        ({"learning_rate": 1e12, "epochs": 4}, "non-finite loss at epoch 0, batch 7"),
        ({"optimizer": "rmsprop", "learning_rate": 1e308, "epochs": 1,
          "dataset": {"task": "temporal2d", "n": 64}},
         "non-finite update in layer 0 at epoch 0, batch 0"),
    ], ids=["loss", "step"])
    def test_divergence_names_its_epoch_and_batch(self, tmp_path, capsys, overrides, cause):
        cfg = write_cfg(tmp_path, **overrides)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert capsys.readouterr().err == f"error: training diverged: {cause}\n"

    def test_decay_is_the_momentum_field(self, tmp_path):
        for key in ("decay", "momentum"):
            cfg = {**TRAIN_CFG, "optimizer": "rmsprop", "epochs": 1}
            del cfg["momentum"]
            cfg[key] = 0.8
            (tmp_path / f"{key}.json").write_text(json.dumps(cfg))
            assert main(["train", "--config", str(tmp_path / f"{key}.json"),
                         "--out", str(tmp_path / key)]) == 0
        assert ((tmp_path / "decay/checkpoint.json").read_bytes()
                == (tmp_path / "momentum/checkpoint.json").read_bytes())

    def test_overflow_in_forward_and_backward_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, M=4, learning_rate=1e50, hidden_layers=[50, 50],
                        dataset={"task": "temporal2d", "n": 256})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged") and "Traceback" not in err

    def test_overflow_on_the_last_step_writes_no_checkpoint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, optimizer="rmsprop", learning_rate=1e308, epochs=1,
                        dataset={"task": "temporal2d", "n": 64})  # one batch, one step
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    def test_train_from_data_path(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "600", "--seed", "2",
                     "--out", str(data)]) == 0
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.json").exists()

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "run")]) == 3


class TestEval:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = write_cfg(tmp_path, M=1, epochs=4)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "800", "--seed", "21",
                     "--out", str(data)]) == 0
        return run / "checkpoint.json", data

    def test_oracle_min_single_head_equals_mean_loss(self, trained, capsys):
        ckpt, data = trained
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--metrics", "oracle_min"]) == 0
        report = json.loads(capsys.readouterr().out)
        model, _ = load_checkpoint(ckpt)
        ds = load_dataset(data)
        assert report["oracle_min_loss"] == pytest.approx(
            oracle_min_loss(model, ds.X, ds.Y, L2), rel=1e-12)

    def test_sharpness_on_non_grid_model_is_usage_error(self, trained, capsys):
        ckpt, data = trained
        usage_error(capsys, ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                             "--metrics", "sharpness"], "grid")

    def test_unknown_metric_rejected(self, trained, capsys):
        ckpt, data = trained
        usage_error(capsys, ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                             "--metrics", "psnr"], "psnr")

    @pytest.mark.parametrize("metrics", [",", "", " , "])
    def test_empty_metric_list_is_usage_error(self, trained, tmp_path, capsys, metrics):
        ckpt, data = trained
        usage_error(capsys, ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                             "--metrics", metrics, "--out", str(tmp_path / "r")], "no metric")
        assert not (tmp_path / "r").exists()

    def test_report_written_with_manifest(self, trained, tmp_path, capsys):
        ckpt, data = trained
        out = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--metrics", "oracle_min", "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("flagged", [False, True], ids=["defaults", "given"])
    def test_manifest_records_loss_and_baseline_checkpoint(self, trained, tmp_path, capsys,
                                                           flagged):
        ckpt, data = trained
        flags = ["--loss", "tukey:1.5", "--baseline-checkpoint", str(ckpt)] if flagged else []
        out = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), *flags,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {"checkpoint": str(ckpt), "data": str(data), "metrics": ["oracle_min"],
                          "loss": "tukey:1.5" if flagged else None,
                          "baseline_checkpoint": str(ckpt) if flagged else None}

    def test_variance_on_single_hypothesis_is_usage_error(self, trained, capsys):
        ckpt, data = trained
        usage_error(capsys, ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                             "--metrics", "hypothesis_variance"])

    def test_multilabel_scores_from_sidecar_items(self, tmp_path, capsys):
        data = tmp_path / "ml"
        assert main(["gen", "--task", "multilabel", "--classes", "6", "--n", "500",
                     "--seed", "6", "--out", str(data)]) == 0
        cfg = write_cfg(tmp_path, M=3, base_loss="cross_entropy", epochs=5,
                        learning_rate=0.1,
                        dataset={"task": "multilabel", "num_classes": 6, "n": 1000})
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--data", str(data), "--metrics", "multilabel"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["label_recall_at_M"] <= 1.0
        assert 0.0 <= report["label_precision"] <= 1.0

    def test_variance_exports_hypothesis_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, M=3, epochs=3)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "300", "--seed", "8",
                     "--out", str(data)]) == 0
        out = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--data", str(data), "--metrics", "hypothesis_variance",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        grid = np.loadtxt(out / "hypotheses.csv", delimiter=",", ndmin=2)
        assert grid.shape == (3, 2)

    def test_baseline_loss_is_the_baselines_own_oracle_min(self, trained, tmp_path, capsys):
        ckpt, data = trained
        cfg = write_cfg(tmp_path, M=2, epochs=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "mhp")]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / "mhp" / "checkpoint.json"),
                     "--data", str(data), "--baseline-checkpoint", str(ckpt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
        alone = json.loads(capsys.readouterr().out)
        assert report["shp_baseline_loss"] == alone["oracle_min_loss"]

    @pytest.mark.parametrize("task, metrics", [
        ("multilabel", "oracle_min"), ("multilabel", "multilabel"),
        ("gridframe", "oracle_min"), ("gridframe", "hypothesis_variance"),
    ])
    def test_checkpoint_that_does_not_fit_the_data_is_named(self, trained, two_heads, tmp_path,
                                                            capsys, task, metrics):
        # a temporal2d model reads (n, 1) inputs and gives (n, 2) targets; these sets differ
        data = tmp_path / task
        assert main(["gen", "--task", task, "--n", "300", "--seed", "3", "--out", str(data)]) == 0
        usage_error(capsys, ["eval", "--checkpoint", str(two_heads), "--data", str(data),
                             "--metrics", metrics, "--out", str(tmp_path / "r")],
                    f"{two_heads} on {data}: ")
        assert not (tmp_path / "r").exists()

    def test_baseline_checkpoint_that_does_not_fit_the_data_is_named(self, trained, two_heads,
                                                                     tmp_path, capsys):
        _, data = trained
        cfg = write_cfg(tmp_path, epochs=1, hidden_layers=[8],
                        dataset={"task": "gridframe", "n": 64})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "grid")]) == 0
        baseline = tmp_path / "grid" / "checkpoint.json"
        usage_error(capsys, ["eval", "--checkpoint", str(two_heads), "--data", str(data),
                             "--baseline-checkpoint", str(baseline)],
                    f"{baseline} on {data}: ", "targets must have shape")
        assert main(["eval", "--checkpoint", str(two_heads), "--data", str(data)]) == 0

    def test_loss_flag_overrides_the_checkpoints_base_loss(self, trained, capsys):
        ckpt, data = trained
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--loss", "tukey:1.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        model, _ = load_checkpoint(ckpt)
        ds = load_dataset(data)
        assert report["oracle_min_loss"] == oracle_min_loss(model, ds.X, ds.Y,
                                                            LossKind.parse("tukey:1.5"))

    @pytest.fixture()
    def two_heads(self, tmp_path):
        cfg = write_cfg(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "mhp")]) == 0
        return tmp_path / "mhp" / "checkpoint.json"

    @pytest.mark.parametrize("flags, name", [
        (["--loss", "cross_entropy"], "--loss"),
        (["--baseline-checkpoint", "missing.json"], "--baseline-checkpoint"),
        (["--baseline-checkpoint", "missing.json", "--loss", "cross_entropy"], "--loss"),
    ], ids=["loss", "baseline", "both"])
    def test_oracle_min_flag_without_oracle_min_is_usage_error(self, trained, two_heads,
                                                               tmp_path, capsys, flags, name):
        _, data = trained
        argv = ["eval", "--checkpoint", str(two_heads), "--data", str(data),
                "--metrics", "hypothesis_variance", "--out", str(tmp_path / "r")]
        usage_error(capsys, [*argv, *flags], name, "oracle_min")
        assert not (tmp_path / "r").exists()
        assert main(argv) == 0

    @pytest.mark.parametrize("metrics", ["oracle_min,oracle_min",
                                         "oracle_min, hypothesis_variance,oracle_min"])
    def test_repeated_metric_is_usage_error(self, trained, two_heads, tmp_path, capsys, metrics):
        _, data = trained
        usage_error(capsys, ["eval", "--checkpoint", str(two_heads), "--data", str(data),
                             "--metrics", metrics, "--out", str(tmp_path / "r")],
                    "'oracle_min'", "more than once")
        assert not (tmp_path / "r").exists()

    def test_metric_list_is_read_before_any_file(self, tmp_path, capsys):
        usage_error(capsys, ["eval", "--checkpoint", str(tmp_path / "missing.json"),
                             "--data", str(tmp_path / "missing"),
                             "--metrics", "oracle_min,oracle_min"], "more than once")

    def test_metric_order_does_not_change_the_report(self, trained, two_heads, tmp_path, capsys):
        _, data = trained
        reports = []
        for metrics in ("oracle_min,hypothesis_variance", "hypothesis_variance,oracle_min"):
            out = tmp_path / metrics.replace(",", "_")
            assert main(["eval", "--checkpoint", str(two_heads), "--data", str(data),
                         "--metrics", metrics, "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_one_forward_pass_per_row_tile_serves_every_metric(self, tmp_path, capsys,
                                                               monkeypatch):
        cfg = write_cfg(tmp_path, epochs=1, hidden_layers=[8],
                        dataset={"task": "gridframe", "n": 256})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        data = tmp_path / "grid"
        assert main(["gen", "--task", "gridframe", "--n", "5000", "--seed", "4",
                     "--out", str(data)]) == 0
        rows = []

        def counted(model, X):
            rows.append(len(X))
            return forward_batch(model, X)

        monkeypatch.setattr("mhp.metrics.forward_batch", counted)
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data", str(data),
                     "--metrics", "oracle_min,hypothesis_variance,sharpness"]) == 0
        capsys.readouterr()
        assert rows == [tile.stop - tile.start for tile in network._row_tiles(5000)]


class TestLloyd:
    def test_single_cell_is_data_mean(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "3000", "--seed", "4",
                     "--t", "0.5", "--out", str(data)]) == 0
        out = tmp_path / "l"
        assert main(["lloyd", "--data", str(data), "--m", "1",
                     "--seed", "0", "--out", str(out)]) == 0
        doc = json.loads((out / "lloyd.json").read_text())
        ds = load_dataset(data)
        np.testing.assert_allclose(doc["generators"][0], ds.Y.mean(axis=0), atol=1e-9)

    def test_quadrant_recovery_on_uniform_square(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "60000", "--seed", "9",
                     "--t", "0.5", "--out", str(data)]) == 0
        out = tmp_path / "l"
        assert main(["lloyd", "--data", str(data), "--m", "4", "--restarts", "5",
                     "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads((out / "lloyd.json").read_text())
        gens = np.array(sorted(map(tuple, doc["generators"])))
        found = {tuple(np.round(g / 0.5).astype(int)) for g in gens}
        assert found == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
        assert np.abs(np.abs(gens) - 0.5).max() < 0.05

    def test_m_exceeding_distinct_samples(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "10", "--seed", "2",
                     "--out", str(data)]) == 0
        assert main(["lloyd", "--data", str(data), "--m", "11",
                     "--out", str(tmp_path / "l")]) == 2

    # an infinite tol, also 1e400 as argparse reads it, has no strict JSON form
    @pytest.mark.parametrize("flag, value", [("tol", "nan"), ("tol", "-1"), ("tol", "inf"),
                                             ("tol", "1e400"), ("max_iters", "-1"),
                                             ("m", "0"), ("restarts", "0")],
                             ids=["nan", "-1", "inf", "1e400", "max_iters_-1", "m_0",
                                  "restarts_0"])
    def test_nan_or_negative_tol_is_usage_error(self, tmp_path, capsys, flag, value):
        data = gen(tmp_path, "temporal2d", n=50)
        out = tmp_path / "l"
        capsys.readouterr()
        usage_error(capsys, ["lloyd", "--data", str(data), "--m", "2",
                             "--" + flag.replace("_", "-"), value, "--out", str(out)], flag)
        assert not out.exists()

    # a 200-row gmm-style dataset scaled by 1e150 converges; by 1e160 its squared distances
    # overflow float64 and lloyd is refused, with no warning
    @pytest.mark.parametrize("scale, sha", [
        (1e150, "c29bcf46bac28843da51db649d77a0c7f87f035df716f6e40426e0d709e904e6"),
        (1e160, None)], ids=["1e150", "1e160"])
    def test_samples_whose_squared_distances_overflow(self, tmp_path, capsys, scale, sha):
        Y = np.random.default_rng(0).normal(size=(200, 2)) * scale
        write_dataset(tmp_path / "d", np.zeros((200, 0)), Y, task="gmm", spec=None, seed=0,
                      input_names=[], target_names=["y1", "y2"])
        argv = ["lloyd", "--data", str(tmp_path / "d"), "--m", "3", "--seed", "3",
                "--out", str(tmp_path / "l")]
        if sha is None:
            usage_error(capsys, argv, "samples too far apart", "overflow float64")
            assert not (tmp_path / "l").exists()
        else:
            assert main(argv) == 0
            assert hashlib.sha256((tmp_path / "l" / "lloyd.json").read_bytes()).hexdigest() == sha

    def test_samples_whose_squared_distances_underflow(self, tmp_path, capsys):
        Y = np.random.default_rng(0).normal(size=(200, 2)) * 1e-170
        write_dataset(tmp_path / "d", np.zeros((200, 0)), Y, task="gmm", spec=None, seed=0,
                      input_names=[], target_names=["y1", "y2"])
        usage_error(capsys, ["lloyd", "--data", str(tmp_path / "d"), "--m", "3",
                             "--out", str(tmp_path / "l")],
                    "samples too close together", "underflow to 0")
        assert not (tmp_path / "l").exists()

    @pytest.mark.parametrize("flags, iterations, converged", [
        (["--max-iters", "0"], 0, False),
        (["--max-iters", "1"], 1, None),
        (["--tol", "10"], 0, True),
    ], ids=["max_iters_0", "max_iters_1", "tol_10"])
    def test_iteration_flags(self, tmp_path, flags, iterations, converged):
        data = gen(tmp_path, "temporal2d", "--t", "0.5", n=5000)
        out = tmp_path / "l"
        assert main(["lloyd", "--data", str(data), "--m", "4", *flags, "--out", str(out)]) == 0
        doc = json.loads((out / "lloyd.json").read_text())
        assert doc["iterations"] == iterations
        if converged is not None:
            assert doc["converged"] is converged

    @pytest.mark.parametrize("flags, max_iters", [([], 200), (["--max-iters", "7"], 7)],
                             ids=["default", "given"])
    def test_manifest_records_max_iters(self, tmp_path, flags, max_iters):
        data = gen(tmp_path, "temporal2d", "--t", "0.5", n=500)
        out = tmp_path / "l"
        assert main(["lloyd", "--data", str(data), "--m", "2", "--restarts", "1", *flags,
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {"data": str(data), "m": 2, "restarts": 1, "tol": 1e-4,
                          "max_iters": max_iters}


class TestOracleBytes:
    """SHA-256 of seeded ``lloyd`` and ``tessellate`` outputs: a change to the oracle keeps
    every byte of them."""

    DATASETS = {
        "square": ["--task", "temporal2d", "--n", "100000", "--t", "0.5", "--seed", "7"],
        # more samples than one voronoi._CHUNK
        "variable_t": ["--task", "temporal2d", "--n", "150000", "--seed", "8"],
        "grid": ["--task", "gridframe", "--terminals", "12", "--n", "3000", "--seed", "9"],
        "gmm": ["--task", "gmm", "--n", "5000", "--seed", "10"],
    }

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("oracle")

        def made(name):
            if not (root / name).exists():
                assert main(["gen", *self.DATASETS[name], "--out", str(root / name)]) == 0
            return root / name
        return made

    @pytest.mark.parametrize("name, flags, iterations, sha", [
        ("square", ["--m", "4"], 18,
         "42ca17b775ab1d8911648143b5a948876afb5e5eed7f45fd0e933be6a12f58ca"),
        ("square", ["--m", "4", "--max-iters", "5"], 5,
         "dc8480e2eeec6e2d7714c51bc08f5bd767575584985308b9c03f986cef5ef240"),
        ("square", ["--m", "4", "--max-iters", "0"], 0,
         "33f2719e2775ad91c613d915932262d85efa3ef9dc30477c7720082778b0f053"),
        ("variable_t", ["--m", "4", "--restarts", "2"], 15,
         "491589ebd12a55590e942307d54c5c67c66d793b24c213ac840a409ef49df620"),
        ("grid", ["--m", "10"], 1,
         "b788b1797f940744f70614a9e3488b8a5e7a1edb404d89021cfea8aac737c568"),
        ("grid", ["--m", "12"], 0,
         "1d411ac7a7dd412591bf3068b7b272f950a2f6f6dfbc50ea633b5b84e39be032"),
        ("gmm", ["--m", "3"], 11,
         "84120fa6709b70f4038b5dd9e589b51a394fb3d738c72a4f0b7f419dad343457"),
    ], ids=["square", "square_max_iters_5", "square_max_iters_0", "variable_t_two_chunks",
            "grid_m10", "grid_m12", "gmm"])
    def test_lloyd_bytes_are_pinned(self, dataset, tmp_path, name, flags, iterations, sha):
        out = tmp_path / "l"
        assert main(["lloyd", "--data", str(dataset(name)), *flags, "--seed", "3",
                     "--out", str(out)]) == 0
        assert json.loads((out / "lloyd.json").read_text())["iterations"] == iterations
        assert hashlib.sha256((out / "lloyd.json").read_bytes()).hexdigest() == sha

    def test_tessellate_bytes_are_pinned(self, tmp_path):
        gens = tmp_path / "generators.json"
        gens.write_text(json.dumps({"generators": [[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5],
                                                   [-0.4, -0.6], [0.1, 0.0]], "loss": "l2"}))
        out = tmp_path / "tess"
        assert main(["tessellate", "--generators", str(gens), "--t", "0.3", "--samples", "5000",
                     "--seed", "4", "--out", str(out)]) == 0
        digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in ("cells.csv", "generators.json")}
        assert digest == {
            "cells.csv": "5b969e7a00a1f274190d2ca48ad0ccd4f22fd2a223c988c6a1880a0d0e864086",
            "generators.json": "1feaa950bc438ee404dd92ee40ba5521937f40b1cf3e8a0ea12a2ef021faf6f8"}


class TestLargeCsvBytes:
    """SHA-256 of CSV tables large enough to be formatted in parts by helper processes,
    taken when one process wrote every row."""

    @pytest.mark.parametrize("workers", [None, 3], ids=["machine", "three_workers"])
    def test_large_csv_bytes_are_pinned(self, tmp_path, monkeypatch, workers):
        if workers is not None:
            monkeypatch.setattr(io_utils, "worker_count", lambda jobs: min(jobs, workers))
        gens = tmp_path / "generators.json"
        gens.write_text(json.dumps({"generators": [[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5],
                                                   [-0.4, -0.6], [0.1, 0.0]], "loss": "l2"}))
        for task in ("temporal2d", "multilabel"):
            assert main(["gen", "--task", task, "--n", "40000", "--seed", "5",
                         "--out", str(tmp_path / task)]) == 0
        assert main(["tessellate", "--generators", str(gens), "--t", "0.3",
                     "--samples", "40000", "--seed", "4", "--out", str(tmp_path / "tess")]) == 0
        digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("temporal2d/data.csv", "multilabel/data.csv", "tess/cells.csv")}
        assert digest == {
            "temporal2d/data.csv":
                "cad1e2a9d8286fd084e566a9ffa792ab7a357473915040c2139c5b5a81cd9095",
            "multilabel/data.csv":
                "3bec913180ead142118e4a3afb684cb97313ff03803d47c3e48f1d81a5df4aa4",
            "tess/cells.csv": "905f20638a9e1c0d38b9a382ff5d2d59886511cbe93624f3036c33213a0e1208"}


class TestRunBytes:
    """SHA-256 of seeded ``train`` outputs and of ``eval --out`` files: a change to how they
    are computed or written keeps every byte of them. The digests were taken before JSON
    documents were encoded in one ``json.dumps`` call."""

    RUNS = {
        "temporal2d": {"M": 4, "epochs": 2, "dataset": {"task": "temporal2d", "n": 1000}},
        # the acceptance grid net: 64 inputs, two hidden layers of 50, a 640-wide head
        # (38,440 parameters), for one short epoch
        "gridframe": {"M": 10, "epochs": 1, "hidden_layers": [50, 50],
                      "dataset": {"task": "gridframe", "terminals": 12, "n": 256}},
        "multilabel": {"M": 3, "base_loss": "cross_entropy", "optimizer": "rmsprop",
                       "learning_rate": 0.01, "dataset": {"task": "multilabel", "n": 500}},
    }
    EVALS = {
        "temporal2d": (["--task", "temporal2d"], "oracle_min,hypothesis_variance"),
        "gridframe": (["--task", "gridframe", "--terminals", "12"],
                      "oracle_min,hypothesis_variance,sharpness"),
    }

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("runs")

        def trained(name):
            out = root / name
            if not out.exists():
                cfg = write_cfg(root, **self.RUNS[name])
                assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            return out
        return trained

    @staticmethod
    def digests(out, names):
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}

    @pytest.mark.parametrize("name, checkpoint_sha, metrics_sha", [
        ("temporal2d", "e434f50fb9b02dd6d78228e6cbbd08fdc179c1224036c2de2a7ead527d523d8e",
         "797843d412053a69a889ca2347ff9f0bfa30fe166c8f2148a918d6b643d54f4d"),
        ("gridframe", "e8995235afdf5f22d5fe7af2626248db24b8b8b3c4a8db374730a8369d00a71c",
         "8b04b9c7e4a9f4abd9d36c9145613748ad1d8ed4a78b61277051d846c25a7688"),
        ("multilabel", "c2eb559841315a13f70becd1fd3a87a71c6e2096e77e7f65e6a33c84a3744473",
         "fe56fe3f6d9d262feffa1bbf0bbe02988819a14a2221b023f44a34fae4614bd3"),
    ])
    def test_train_bytes_are_pinned(self, run, name, checkpoint_sha, metrics_sha):
        assert self.digests(run(name), ["checkpoint.json", "metrics.jsonl"]) == {
            "checkpoint.json": checkpoint_sha, "metrics.jsonl": metrics_sha}

    @pytest.mark.parametrize("name, shas", [
        ("temporal2d", {
            "report.json": "6f8100e8e1c0d37c51e624b227bd556dfabdd34ca61f192d99a4b21be025be84",
            "hypotheses.csv": "d7446f6ef1fadea99e1ab40c6bbf076262c6cb090bb2f6e3619b610c80cc4ecd"}),
        ("gridframe", {
            "report.json": "f6badd31b60032bc603b9849e2f67bdf32aef7810dfe2198cfcf6e07a615332a",
            "hypotheses.csv": "c02189d38ba1d60091e332fd3c094e73f9df16a9d978debb072d31629c8b68d7",
            "variance_map.csv":
                "e8c8538c2f17b12563c57feb57a9f00157d39da50bc69629973eb80a707f5d7f"}),
    ])
    def test_eval_bytes_are_pinned(self, run, tmp_path, capsys, name, shas):
        flags, metrics = self.EVALS[name]
        data = tmp_path / "d"
        assert main(["gen", *flags, "--n", "300", "--seed", "5", "--out", str(data)]) == 0
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(run(name) / "checkpoint.json"),
                     "--data", str(data), "--metrics", metrics, "--out", str(out)]) == 0
        capsys.readouterr()
        assert self.digests(out, shas) == shas

    @pytest.mark.parametrize("name, shas", [
        ("temporal2d", {
            "report.json": "20ef3ed1281862994fdaa5cb817e6e8ba1311d1992a830807b86670a070674e1",
            "hypotheses.csv": "d7446f6ef1fadea99e1ab40c6bbf076262c6cb090bb2f6e3619b610c80cc4ecd"}),
        ("gridframe", {
            "report.json": "632172a8f3613b51465b6e6106de8716899b9d2d00ec764ad19f003261921b22",
            "hypotheses.csv": "c02189d38ba1d60091e332fd3c094e73f9df16a9d978debb072d31629c8b68d7",
            "variance_map.csv":
                "41b1354d120e6e21e28fa7d762df6f56220049ebfc3ff0b866f06e3dc503e8df"}),
    ])
    def test_tiled_eval_bytes_are_pinned(self, run, tmp_path, capsys, name, shas):
        """10,000 rows: more than two row tiles, so each metric runs tile by tile. The
        digests were taken when every metric ran one whole-dataset forward pass."""
        flags, metrics = self.EVALS[name]
        data = tmp_path / "d"
        assert main(["gen", *flags, "--n", "10000", "--seed", "5", "--out", str(data)]) == 0
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(run(name) / "checkpoint.json"),
                     "--data", str(data), "--metrics", metrics, "--out", str(out)]) == 0
        capsys.readouterr()
        assert self.digests(out, shas) == shas


class TestManifest:
    """Each command's manifest lists exactly the files it wrote, in the order it wrote them,
    and is written last; a command that fails writes no manifest and no run directory."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        for task in ("temporal2d", "gridframe"):
            data = gen(root, task, n=100, name=task)
            cfg = write_cfg(root, epochs=1)
            assert main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(root / f"{task}_run")]) == 0
        write_cfg(root, epochs=1, dataset={"task": "temporal2d", "n": 64})
        (root / "generators.json").write_text(json.dumps(GENERATORS_DOC))
        (root / "diverges.json").write_text(json.dumps({
            **TRAIN_CFG, "optimizer": "rmsprop", "learning_rate": 1e308, "epochs": 1,
            "dataset": {"task": "temporal2d", "n": 64}}))
        return root

    @pytest.mark.parametrize("argv, outputs", [
        (["gen", "--task", "temporal2d", "--n", "50"], ["data.csv", "data.npz", "data.json"]),
        (["train", "--config", "{in}/config.json"], ["checkpoint.json", "metrics.jsonl"]),
        (["eval", "--checkpoint", "{in}/gridframe_run/checkpoint.json", "--data", "{in}/gridframe",
          "--metrics", "oracle_min,hypothesis_variance"],
         ["report.json", "hypotheses.csv", "variance_map.csv"]),
        (["lloyd", "--data", "{in}/temporal2d", "--m", "2", "--restarts", "1"], ["lloyd.json"]),
        (["tessellate", "--checkpoint", "{in}/temporal2d_run/checkpoint.json", "--t", "0.5",
          "--samples", "50"], ["cells.csv", "generators.json"]),
        (["tessellate", "--generators", "{in}/generators.json", "--t", "0.5",
          "--samples", "50"], ["cells.csv", "generators.json"]),
    ], ids=["gen", "train", "eval", "lloyd", "tessellate_checkpoint", "tessellate_generators"])
    def test_outputs_are_the_files_written_in_order(self, inputs, tmp_path, capsys, monkeypatch,
                                                    argv, outputs):
        written, replace = [], os.replace
        # every file a command writes lands with one os.replace of its temp sibling
        monkeypatch.setattr(os, "replace", lambda src, dst: (written.append(Path(dst).name),
                                                             replace(src, dst)))
        out = tmp_path / "out"
        assert main([a.format(**{"in": inputs}) for a in argv] + ["--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["command", "config", "seed", "code_version",
                                  "started_at", "finished_at", "outputs"]
        assert manifest["command"] == argv[0]
        assert manifest["started_at"] <= manifest["finished_at"]
        assert manifest["outputs"] == outputs
        assert written == [*outputs, "manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted(written)

    @pytest.mark.parametrize("argv, code", [
        (["train", "--config", "{in}/diverges.json"], 4),
        (["eval", "--checkpoint", "{in}/gridframe_run/checkpoint.json", "--data", "{in}/gridframe",
          "--metrics", "oracle_min,psnr"], 2),
    ], ids=["train_diverges", "eval_unknown_metric"])
    def test_failed_command_writes_no_run_directory(self, inputs, tmp_path, capsys, argv, code):
        out = tmp_path / "out"
        assert main([a.format(**{"in": inputs}) for a in argv] + ["--out", str(out)]) == code
        capsys.readouterr()
        assert not out.exists()


class TestTessellate:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        cfg = write_cfg(tmp_path, M=4, epochs=4)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        return run / "checkpoint.json"

    def test_every_sample_assigned(self, checkpoint, tmp_path):
        out = tmp_path / "tess"
        assert main(["tessellate", "--checkpoint", str(checkpoint), "--t", "0.0",
                     "--samples", "2000", "--seed", "3", "--out", str(out)]) == 0
        lines = (out / "cells.csv").read_text().splitlines()
        assert lines[0] == "y1,y2,cell_index"
        assert len(lines) == 2001
        cells = np.array([int(l.rsplit(",", 1)[1]) for l in lines[1:]])
        assert ((cells >= 0) & (cells < 4)).all()
        doc = json.loads((out / "generators.json").read_text())
        assert len(doc["generators"]) == 4
        assert sum(doc["cell_counts"]) == 2000

    def test_roundtrip_on_exported_generators(self, checkpoint, tmp_path):
        a = tmp_path / "a"
        assert main(["tessellate", "--checkpoint", str(checkpoint), "--t", "0.5",
                     "--samples", "1000", "--seed", "5", "--out", str(a)]) == 0
        b = tmp_path / "b"
        assert main(["tessellate", "--generators", str(a / "generators.json"),
                     "--t", "0.5", "--samples", "1000", "--seed", "5",
                     "--out", str(b)]) == 0
        assert (a / "cells.csv").read_bytes() == (b / "cells.csv").read_bytes()

    @pytest.mark.parametrize("source", ["checkpoint", "generators"])
    def test_nan_t_is_named_for_either_source(self, checkpoint, tmp_path, capsys, source):
        gens = tmp_path / "generators.json"
        gens.write_text(json.dumps(GENERATORS_DOC))
        path = checkpoint if source == "checkpoint" else gens
        usage_error(capsys, ["tessellate", f"--{source}", str(path), "--t", "nan",
                             "--samples", "10", "--out", str(tmp_path / "x")],
                    "t must lie in [0, 1], got nan")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_below_one_names_its_flag(self, tmp_path, capsys, samples):
        gens = tmp_path / "generators.json"
        gens.write_text(json.dumps(GENERATORS_DOC))
        assert main(["tessellate", "--generators", str(gens), "--t", "0.5",
                     "--samples", samples, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: --samples must be >= 1, got {samples}\n"
        assert not (tmp_path / "x").exists()

    def test_requires_exactly_one_source(self, checkpoint, tmp_path, capsys):
        usage_error(capsys, ["tessellate", "--t", "0.5", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("doc, reason", [
        ({"generators": [[0.5, 0.5, 0.0], [-0.5, -0.5, 0.0]]}, "got shape (2, 3)"),
        ({"generators": []}, "got shape (0,)"),
        ({"generators": [[0.5, 0.5], [-0.5, -0.5]], "loss": "cross_entropy"}, "cross_entropy"),
        ({"generators": [[math.nan, 0.5], [0.5, 0.5]]}, "non-finite generators"),
    ], ids=["three_numbers", "empty", "cross_entropy", "nan"])
    def test_generators_that_cannot_tessellate_name_their_file(self, tmp_path, capsys, doc,
                                                               reason):
        path = tmp_path / "generators.json"
        path.write_text(json.dumps(doc))
        assert main(["tessellate", "--generators", str(path), "--t", "0.5",
                     "--samples", "50", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and reason in err
        assert not (tmp_path / "x").exists()

    def test_cross_entropy_checkpoint_names_its_file(self, checkpoint, tmp_path, capsys):
        doc = json.loads(checkpoint.read_text())
        doc["extras"]["base_loss"] = "cross_entropy"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["tessellate", "--checkpoint", str(edited), "--t", "0.5",
                     "--samples", "50", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited}: ") and "cross_entropy" in err
        assert not (tmp_path / "x").exists()

    def test_generator_too_far_to_square_wins_no_sample(self, tmp_path, capsys):
        # its losses overflow to inf, silently: an infinite loss never wins
        path = tmp_path / "generators.json"
        path.write_text(json.dumps({"generators": [[1e308, 0.5], [0.5, 0.5]]}))
        out = tmp_path / "tess"
        assert main(["tessellate", "--generators", str(path), "--t", "0.5",
                     "--samples", "500", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "generators.json").read_text())["cell_counts"] == [0, 500]
        cells = np.loadtxt(out / "cells.csv", delimiter=",", skiprows=1)[:, 2]
        assert (cells == 1).all()

    def test_bytes_past_one_search_tile_are_pinned(self, tmp_path):
        # 16385 samples: one full search tile, then the last sample as a tile of its own.
        # The digests were taken before the exact search and lloyd's passes shared a search
        gens = tmp_path / "generators.json"
        gens.write_text(json.dumps({"generators": [[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5],
                                                   [-0.4, -0.6], [0.1, 0.0]], "loss": "l2"}))
        out = tmp_path / "tess"
        assert main(["tessellate", "--generators", str(gens), "--t", "0.3", "--samples", "16385",
                     "--seed", "4", "--out", str(out)]) == 0
        digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in ("cells.csv", "generators.json")}
        assert digest == {
            "cells.csv": "d4b86b2c89a9804e4931acf1ed79103a2518507c6fc27c4176649d160ceea16c",
            "generators.json": "773af6d8613d8637d384f01b0139de3d088b1593a152f3952501b1515becf6a4"}

    @pytest.mark.parametrize("doc", [{"loss": "l2"}, [[0.0, 0.0]]])
    def test_generators_file_without_generators_is_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "generators.json"
        path.write_text(json.dumps(doc))
        usage_error(capsys, ["tessellate", "--generators", str(path), "--t", "0.5",
                             "--samples", "10", "--out", str(tmp_path / "x")], "generators")


class TestCorruptCheckpoint:
    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("corrupt")
        cfg = write_cfg(tmp, M=2, epochs=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp / "run")]) == 0
        return json.loads((tmp / "run/checkpoint.json").read_text())

    def corrupt_kind(doc):
        doc["optimizer"]["kind"] = "adam"

    def truncate_buffers(doc):
        doc["optimizer"]["buffers"] = doc["optimizer"]["buffers"][:1]

    def drop_output_dim(doc):
        del doc["output_dim"]

    def extras_not_an_object(doc):
        doc["extras"] = [1]

    def future_schema(doc):
        doc["schema_version"] = 2

    def oversized_layer_dims(doc):
        # claims about 4e10 parameters (298 GiB) that the file does not store
        doc["layer_dims"] = [[1, 200000], [200000, 200000], [200000, doc["layer_dims"][-1][1]]]

    @pytest.mark.parametrize("corrupt", [corrupt_kind, truncate_buffers, drop_output_dim,
                                         extras_not_an_object, future_schema,
                                         oversized_layer_dims])
    @pytest.mark.parametrize("command", ["eval", "tessellate"])
    def test_usage_error_without_traceback(self, good, corrupt, command, tmp_path, capsys):
        doc = json.loads(json.dumps(good))
        corrupt(doc)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        if command == "eval":
            data = tmp_path / "d"
            assert main(["gen", "--task", "temporal2d", "--n", "50", "--out", str(data)]) == 0
            argv = ["eval", "--checkpoint", str(path), "--data", str(data)]
        else:
            argv = ["tessellate", "--checkpoint", str(path), "--t", "0.0",
                    "--samples", "50", "--out", str(tmp_path / "cells")]
        usage_error(capsys, argv)

    @pytest.mark.parametrize("field, value, name", [
        ("M", "2", "'M'"),
        ("seed", "abc", "'seed'"),
        ("optimizer.learning_rate", "0.05", "'learning_rate'"),
        ("optimizer.momentum", False, "'momentum'"),
        ("optimizer.buffers.0.weights.0", math.nan, "buffer"),
    ], ids=["M_str", "seed_str", "learning_rate_str", "momentum_false", "buffer_nan"])
    @pytest.mark.parametrize("command", ["eval", "tessellate"])
    def test_field_that_does_not_read_is_named(self, good, field, value, name, command,
                                               tmp_path, capsys):
        doc = json.loads(json.dumps(good))
        set_field(doc, field, value)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        if command == "eval":
            argv = ["eval", "--checkpoint", str(path), "--data", str(gen(tmp_path, "temporal2d"))]
        else:
            argv = ["tessellate", "--checkpoint", str(path), "--t", "0.0",
                    "--samples", "50", "--out", str(tmp_path / "cells")]
        capsys.readouterr()
        usage_error(capsys, argv, name)

    def nested_weights(doc):
        weights = doc["parameters"][1]["weights"]
        return [weights[:len(weights) // 2], weights[len(weights) // 2:]]

    @pytest.mark.parametrize("field, value, name", [
        ("parameters.1.weights.0", True, "'weights'"),
        ("parameters.1.biases.0", "1.5", "'biases'"),
        ("parameters.1.weights", nested_weights, "'weights'"),
        ("activations", [1, 2], "'activations'"),
        ("activations", ["relu", "identity"], "expected 3 entries"),
        ("activations", ["relu"] * 3 + ["identity"], "expected 3 entries"),
        ("optimizer.kind", 5, "'kind'"),
        ("optimizer", {}, "'kind'"),
        ("extras.task", [1], "'task'"),
    ], ids=["weight_true", "bias_str", "nested_weights", "activations_ints",
            "activations_too_few", "activations_too_many", "kind_int", "optimizer_empty",
            "extras_task_list"])
    @pytest.mark.parametrize("command", ["eval", "tessellate"])
    def test_array_activation_optimizer_and_extras_fields_are_named(
            self, good, field, value, name, command, tmp_path, capsys):
        doc = json.loads(json.dumps(good))
        set_field(doc, field, value(doc) if callable(value) else value)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        if command == "eval":
            argv = ["eval", "--checkpoint", str(path), "--data", str(gen(tmp_path, "temporal2d"))]
        else:
            argv = ["tessellate", "--checkpoint", str(path), "--t", "0.0",
                    "--samples", "50", "--out", str(tmp_path / "cells")]
        capsys.readouterr()
        usage_error(capsys, argv, name)

    def test_refused_baseline_checkpoint_is_named(self, good, tmp_path, capsys):
        ckpt, bad = tmp_path / "checkpoint.json", tmp_path / "bad.json"
        ckpt.write_text(json.dumps(good))
        doc = json.loads(json.dumps(good))
        doc["activations"][-1] = "relu"
        bad.write_text(json.dumps(doc))
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(gen(tmp_path, "temporal2d")),
                "--baseline-checkpoint", str(bad)]
        capsys.readouterr()
        usage_error(capsys, argv, f"error: {bad}: final layer activation must be identity")

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "adam", "unknown optimizer 'adam'"),
        ("learning_rate", 0.0, "learning_rate must be positive and finite"),
        ("momentum", 1.0, "momentum/decay must lie in [0, 1)"),
    ], ids=["kind", "learning_rate", "momentum"])
    def test_refused_optimizer_is_named(self, good, field, value, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(json.dumps(good))
        doc["optimizer"][field] = value
        bad.write_text(json.dumps(doc))
        argv = ["eval", "--checkpoint", str(bad), "--data", str(gen(tmp_path, "temporal2d"))]
        capsys.readouterr()
        usage_error(capsys, argv, f"error: {bad}: {message}")

    def test_nested_weights_message_is_one_short_line(self, good, tmp_path, capsys):
        doc = json.loads(json.dumps(good))
        set_field(doc, "parameters.1.weights", TestCorruptCheckpoint.nested_weights(doc))
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        argv = ["eval", "--checkpoint", str(path), "--data", str(gen(tmp_path, "temporal2d"))]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'weights'" in err
        assert len(err.splitlines()) == 1 and len(err) < 250

    @pytest.mark.parametrize("layer_dims, parameters", [
        ([[1, 0], [0, 4]], [{"weights": [], "biases": []},
                            {"weights": [], "biases": [0.1, 0.2, 0.3, 0.4]}]),
        ([[0, 4]], [{"weights": [], "biases": [0.1, 0.2, 0.3, 0.4]}]),
    ], ids=["zero_width_hidden_layer", "zero_width_input"])
    def test_zero_width_layer_is_refused(self, good, layer_dims, parameters, tmp_path, capsys):
        doc = json.loads(json.dumps(good))
        doc.update(layer_dims=layer_dims, parameters=parameters, optimizer=None,
                   activations=["relu"] * (len(layer_dims) - 1) + ["identity"])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="layer 0: .* zero dimension"):
            load_checkpoint(path)
        usage_error(capsys, ["tessellate", "--checkpoint", str(path), "--t", "0.0",
                             "--samples", "50", "--out", str(tmp_path / "cells")], "layer 0")
        assert not (tmp_path / "cells").exists()

    @pytest.fixture(scope="class")
    def grid_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("grid")
        cfg = write_cfg(tmp, M=2, epochs=1, dataset={"task": "gridframe", "n": 50})
        assert main(["train", "--config", str(cfg), "--out", str(tmp / "run")]) == 0
        return json.loads((tmp / "run/checkpoint.json").read_text()), gen(tmp, "gridframe", n=50)

    # tessellate has no dataset, so only a shape that does not hold the 64
    # outputs fails there on the shape; [4, 16, 1] fails on the task
    @pytest.mark.parametrize("shape, tessellate_error", [
        ([4, 16, 1], "gridframe"), ([8, 4, 1], "'output_shape'"), ([8, 8, 2], "'output_shape'"),
    ], ids=["other_grid", "too_few_outputs", "too_many_outputs"])
    def test_output_shape_must_fit_the_model_and_the_data(self, grid_run, shape,
                                                          tessellate_error, tmp_path, capsys):
        doc, data = grid_run
        doc = json.loads(json.dumps(doc))
        doc["extras"]["output_shape"] = shape
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "report"
        capsys.readouterr()
        usage_error(capsys, ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                             "--metrics", "sharpness,hypothesis_variance", "--out", str(out)],
                    "'output_shape'", "64")
        assert not (out / "variance_map.csv").exists()
        usage_error(capsys, ["tessellate", "--checkpoint", str(ckpt), "--t", "0.0",
                             "--samples", "50", "--out", str(tmp_path / "cells")], tessellate_error)

    def test_output_shape_of_its_own_grid_is_accepted(self, grid_run, tmp_path, capsys):
        doc, data = grid_run
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--metrics", "sharpness,hypothesis_variance", "--out", str(out)]) == 0
        capsys.readouterr()
        assert len((out / "variance_map.csv").read_text().splitlines()) == 8

    @pytest.mark.parametrize("shape", [["8", "8", 1], [8, 8]], ids=["strings", "two_entries"])
    def test_gridframe_output_shape_is_read(self, tmp_path, capsys, shape):
        cfg = write_cfg(tmp_path, M=2, epochs=1, dataset={"task": "gridframe", "n": 50})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        ckpt = tmp_path / "run" / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        doc["extras"]["output_shape"] = shape
        ckpt.write_text(json.dumps(doc))
        data = gen(tmp_path, "gridframe", n=50)
        capsys.readouterr()
        usage_error(capsys, ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                             "--metrics", "sharpness"], "'output_shape'")


class TestNonFiniteData:
    @pytest.mark.parametrize("command", ["train", "eval", "lloyd"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_csv_value_is_usage_error(self, command, value, tmp_path, capsys):
        data = gen(tmp_path, "temporal2d", n=50)
        lines = (data / "data.csv").read_text().splitlines()
        lines[7] = lines[7].rsplit(",", 1)[0] + "," + value
        (data / "data.csv").write_text("\n".join(lines) + "\n")
        cfg = write_cfg(tmp_path, epochs=1)
        out = str(tmp_path / "out")
        if command == "eval":
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        argv = {"lloyd": ["lloyd", "--data", str(data), "--m", "2", "--out", out],
                "train": ["train", "--config", str(cfg), "--data", str(data), "--out", out],
                "eval": ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                         "--data", str(data)]}[command]
        capsys.readouterr()
        usage_error(capsys, argv, "data.csv")
        assert not (tmp_path / "out").exists()


class TestCsvHeader:
    @pytest.mark.parametrize("command", ["train", "eval", "lloyd"])
    def test_columns_other_than_the_sidecars_are_usage_error(self, command, tmp_path, capsys):
        # t and y1 swap places, header included: every row still parses
        data = gen(tmp_path, "temporal2d", n=50)
        rows = [line.split(",") for line in (data / "data.csv").read_text().splitlines()]
        (data / "data.csv").write_text("".join(f"{y1},{t},{y2}\n" for t, y1, y2 in rows))
        cfg = write_cfg(tmp_path, epochs=1)
        out = tmp_path / "out"
        if command == "eval":
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        argv = {"lloyd": ["lloyd", "--data", str(data), "--m", "2", "--out", str(out)],
                "train": ["train", "--config", str(cfg), "--data", str(data), "--out", str(out)],
                "eval": ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                         "--data", str(data), "--out", str(out)]}[command]
        capsys.readouterr()
        usage_error(capsys, argv, f"error: {data / 'data.csv'}: ", "'y1,t,y2'", "'t,y1,y2'",
                    str(data / "data.json"))
        assert not out.exists()


class TestMalformedCsv:
    @pytest.mark.parametrize("damage, names", [
        ("cut", ["7 rows", "n = 20"]),
        ("header_only", ["no rows"]),
        ("bad_cell", ["could not convert string 'abc'"]),
        ("short_row", ["number of columns changed"]),
        ("extra_column", ["expected 3 columns, found 4"])])
    def test_refused_with_the_csv_path(self, damage, names, tmp_path, capsys):
        data = gen(tmp_path, "temporal2d", n=20)
        lines = (data / "data.csv").read_text().splitlines()
        if damage == "bad_cell":
            lines[1] = "abc," + lines[1].split(",", 1)[1]
        elif damage == "short_row":
            lines[4] = lines[4].rsplit(",", 1)[0]
        elif damage == "extra_column":  # under the sidecar's three-column header
            lines[1:] = [line + ",0.5" for line in lines[1:]]
        lines = {"cut": lines[:8], "header_only": lines[:1]}.get(damage, lines)
        (data / "data.csv").write_text("\n".join(lines) + "\n")
        argv = ["train", "--config", str(write_cfg(tmp_path, epochs=1)), "--data", str(data),
                "--out", str(tmp_path / "out")]
        capsys.readouterr()
        usage_error(capsys, argv, f"error: {data / 'data.csv'}: ", *names)
        assert not (tmp_path / "out").exists()


class TestCsvPath:
    @pytest.mark.parametrize("command", ["train", "eval", "lloyd"])
    def test_data_csv_path_reads_as_its_directory(self, command, tmp_path, capsys):
        data = gen(tmp_path, "temporal2d", n=100)
        cfg = write_cfg(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        results = []
        for name, path in (("dir", data), ("csv", data / "data.csv")):
            out = tmp_path / name
            argv = {"train": ["train", "--config", str(cfg), "--data", str(path),
                              "--out", str(out)],
                    "eval": ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                             "--data", str(path), "--out", str(out)],
                    "lloyd": ["lloyd", "--data", str(path), "--m", "2", "--out", str(out)]}
            assert main(argv[command]) == 0
            results.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"})
        capsys.readouterr()
        assert results[0] == results[1]


class TestMalformedJson:
    @pytest.mark.parametrize("document", ["config", "checkpoint", "sidecar", "generators"])
    @pytest.mark.parametrize("damage", ["truncated", "not_utf8"])
    def test_error_names_the_file(self, document, damage, tmp_path, capsys):
        data = gen(tmp_path, "temporal2d", n=50)
        cfg = write_cfg(tmp_path, epochs=1)
        ckpt = tmp_path / "run" / "checkpoint.json"
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        gens = tmp_path / "generators.json"
        gens.write_text(json.dumps(GENERATORS_DOC))
        out = tmp_path / "out"
        path, argv = {
            "config": (cfg, ["train", "--config", cfg, "--out", out]),
            "checkpoint": (ckpt, ["eval", "--checkpoint", ckpt, "--data", data]),
            "sidecar": (data / "data.json", ["lloyd", "--data", data, "--m", "2", "--out", out]),
            "generators": (gens, ["tessellate", "--generators", gens, "--t", "0.5",
                                  "--samples", "20", "--out", out]),
        }[document]
        text = path.read_bytes()
        path.write_bytes(text[:8] if damage == "truncated" else b"\xff" + text)
        capsys.readouterr()
        usage_error(capsys, [str(a) for a in argv], f"error: {path}: ")
        assert not out.exists()


class TestMalformedSidecar:
    @pytest.mark.parametrize("command, field, value", [("lloyd", "input_columns", 5),
                                                       ("eval", "input_columns", 5),
                                                       ("train", "input_columns", 5),
                                                       ("train", "target_columns", "yz")])
    def test_column_field_not_a_name_list_is_usage_error(self, command, field, value,
                                                         tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "50", "--out", str(data)]) == 0
        cfg = write_cfg(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        sidecar = json.loads((data / "data.json").read_text())
        sidecar[field] = value
        (data / "data.json").write_text(json.dumps(sidecar))
        out = str(tmp_path / "out")
        argv = {"lloyd": ["lloyd", "--data", str(data), "--m", "2", "--out", out],
                "train": ["train", "--config", str(cfg), "--data", str(data), "--out", out],
                "eval": ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                         "--data", str(data)]}[command]
        capsys.readouterr()
        usage_error(capsys, argv, field)

    @pytest.mark.parametrize("command, field", [("lloyd", "input_columns"),
                                                ("eval", "target_columns"),
                                                ("train", "task")])
    def test_missing_field_is_usage_error(self, command, field, tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "50", "--out", str(data)]) == 0
        sidecar = json.loads((data / "data.json").read_text())
        del sidecar[field]
        (data / "data.json").write_text(json.dumps(sidecar))
        out = str(tmp_path / "out")
        if command == "lloyd":
            argv = ["lloyd", "--data", str(data), "--m", "2", "--out", out]
        elif command == "train":
            argv = ["train", "--config", str(write_cfg(tmp_path, epochs=1)),
                    "--data", str(data), "--out", out]
        else:
            cfg = write_cfg(tmp_path, epochs=1)
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
            argv = ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                    "--data", str(data)]
        capsys.readouterr()
        usage_error(capsys, argv, field)


def gen(tmp_path, task, *flags, n=200, name="d"):
    out = tmp_path / name
    assert main(["gen", "--task", task, "--n", str(n), "--seed", "3", *flags,
                 "--out", str(out)]) == 0
    return out


class TestSidecarSpec:
    def drop_spec(spec):
        return None

    def drop(field):
        def edit(spec):
            del spec[field]
            return spec
        return edit

    def not_int(spec):
        spec["width"] = "wide"
        return spec

    @pytest.mark.parametrize("task, edit, field", [
        ("multilabel", drop_spec, "num_classes"),
        ("multilabel", drop("num_classes"), "num_classes"),
        ("gridframe", drop_spec, "height"),
        ("gridframe", drop("height"), "height"),
        ("gridframe", drop("width"), "width"),
        ("gridframe", not_int, "width"),
    ])
    def test_train_data_with_broken_spec_is_usage_error(self, tmp_path, capsys,
                                                        task, edit, field):
        data = gen(tmp_path, task)
        sidecar = json.loads((data / "data.json").read_text())
        spec = edit(sidecar["spec"])
        if spec is None:
            del sidecar["spec"]
        (data / "data.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        usage_error(capsys, ["train", "--config", str(write_cfg(tmp_path, epochs=1)),
                             "--data", str(data), "--out", str(tmp_path / "run")], field)

    @pytest.mark.parametrize("field", ["features", "labels"])
    def test_eval_multilabel_item_without_field_is_usage_error(self, tmp_path, capsys, field):
        data = gen(tmp_path, "multilabel", "--classes", "4")
        cfg = write_cfg(tmp_path, M=2, base_loss="cross_entropy", epochs=1,
                        dataset={"task": "multilabel", "num_classes": 4, "n": 100})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        sidecar = json.loads((data / "data.json").read_text())
        del sidecar["spec"]["items"][1][field]
        (data / "data.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        usage_error(capsys, ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                             "--data", str(data), "--metrics", "multilabel"], field)

    def test_eval_multilabel_spec_not_an_object_is_usage_error(self, tmp_path, capsys):
        data = gen(tmp_path, "multilabel", "--classes", "4")
        cfg = write_cfg(tmp_path, M=2, base_loss="cross_entropy", epochs=1,
                        dataset={"task": "multilabel", "num_classes": 4, "n": 100})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        sidecar = json.loads((data / "data.json").read_text())
        sidecar["spec"] = [1]
        (data / "data.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        usage_error(capsys, ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                             "--data", str(data), "--metrics", "multilabel"], "spec")


class TestGridSpecDecoding:
    """Every command that loads a gridframe dataset decodes its spec whole."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("grid")
        cfg = write_cfg(tmp, M=2, epochs=1, dataset={"task": "gridframe", "n": 50})
        assert main(["train", "--config", str(cfg), "--out", str(tmp / "run")]) == 0
        return tmp / "run" / "checkpoint.json"

    def without_height(spec):
        del spec["height"]

    def ten_by_ten(spec):  # 100 pixels over the 64 target columns of an 8x8 dataset
        spec["width"] = spec["height"] = 10

    def four_by_sixteen(spec):  # 64 pixels, but the start (4, 4) lies outside 4 columns
        spec["width"], spec["height"] = 4, 16

    def terminal_on_the_border(spec):
        spec["terminals"][0] = [7, 3]

    @pytest.mark.parametrize("edit, names", [
        (without_height, ["'spec'", "'height'", "missing"]),
        (ten_by_ten, ["'spec'", "10x10", "64 target columns"]),
        (four_by_sixteen, ["'spec'", "(4, 4)", "16x4"]),
        (terminal_on_the_border, ["'spec'", "(7, 3)"]),
    ], ids=["without_height", "10x10", "4x16", "terminal_on_the_border"])
    @pytest.mark.parametrize("command", ["train", "eval", "lloyd"])
    def test_spec_its_dataclass_refuses_is_usage_error(self, checkpoint, tmp_path, capsys,
                                                       edit, names, command):
        data = gen(tmp_path, "gridframe", n=50)
        sidecar = json.loads((data / "data.json").read_text())
        edit(sidecar["spec"])
        (data / "data.json").write_text(json.dumps(sidecar))
        out = tmp_path / "out"
        argv = {"train": ["train", "--config", str(write_cfg(tmp_path, epochs=1)),
                          "--data", str(data), "--out", str(out)],
                "eval": ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                         "--metrics", "sharpness", "--out", str(out)],
                "lloyd": ["lloyd", "--data", str(data), "--m", "2", "--out", str(out)]}[command]
        capsys.readouterr()
        usage_error(capsys, argv, f"{data / 'data.json'}: field", *names)
        assert not out.exists()

    def test_multilabel_scores_need_a_multilabel_dataset(self, checkpoint, tmp_path, capsys):
        data = gen(tmp_path, "gridframe", n=50)
        capsys.readouterr()
        usage_error(capsys, ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                             "--metrics", "multilabel"], "multilabel dataset", "gridframe")


class TestTaskTable:
    @pytest.mark.parametrize("dataset, flags", [
        ({"task": "gridframe", "terminals": 4, "width": 10, "height": 10},
         ["--terminals", "4", "--grid-size", "10"]),
        ({"task": "multilabel", "num_classes": 5, "set_size": 3},
         ["--classes", "5", "--set-size", "3"]),
    ])
    def test_config_and_data_path_build_the_same_model(self, tmp_path, dataset, flags):
        loss = "cross_entropy" if dataset["task"] == "multilabel" else "l2"
        cfg = write_cfg(tmp_path, M=3, epochs=1, base_loss=loss,
                        dataset={**dataset, "n": 100})
        data = gen(tmp_path, dataset["task"], *flags, n=100)
        models = []
        for name, extra in (("cfg", []), ("data", ["--data", str(data)])):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name),
                         *extra]) == 0
            models.append(load_checkpoint(tmp_path / name / "checkpoint.json")[0])
        from_cfg, from_data = models
        assert from_cfg.extras == from_data.extras
        assert from_cfg.extras["task"] == dataset["task"]
        assert from_cfg.shapes == from_data.shapes


class TestTessellateTask:
    @pytest.mark.parametrize("task, loss", [("gridframe", "l2"),
                                            ("multilabel", "cross_entropy")])
    def test_non_temporal2d_checkpoint_is_usage_error(self, tmp_path, capsys, task, loss):
        cfg = write_cfg(tmp_path, M=2, epochs=1, base_loss=loss,
                        dataset={"task": task, "n": 50})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        usage_error(capsys, ["tessellate", "--checkpoint", str(tmp_path / "run/checkpoint.json"),
                             "--t", "0.5", "--samples", "10", "--out", str(tmp_path / "x")], task)
        assert not (tmp_path / "x" / "cells.csv").exists()


class TestMalformedConfig:
    @pytest.mark.parametrize("config, field", [
        ([TRAIN_CFG], "JSON object"),
        ({**TRAIN_CFG, "M": [2]}, "'M'"),
        ({**TRAIN_CFG, "epochs": None}, "'epochs'"),
        ({**TRAIN_CFG, "base_loss": 3}, "'base_loss'"),
        ({**TRAIN_CFG, "hidden_layers": 5}, "'hidden_layers'"),
        ({**TRAIN_CFG, "dataset": 5}, "'dataset'"),
        ({**TRAIN_CFG, "dataset": {"task": "gridframe", "width": None}}, "'width'"),
        ({**TRAIN_CFG, "dataset": {"task": "temporal2d", "t": "x"}}, "'t'"),
        ({**TRAIN_CFG, "hidden_layers": [0]}, "hidden layer widths"),
        ({**TRAIN_CFG, "epochs": float("inf")}, "'epochs'"),
        ({**TRAIN_CFG, "batch_size": float("-inf")}, "'batch_size'"),
        ({**TRAIN_CFG, "M": float("inf")}, "'M'"),
        ({**TRAIN_CFG, "seed": float("-inf")}, "'seed'"),
        ({**TRAIN_CFG, "hidden_layers": [16, float("inf")]}, "'hidden_layers'"),
        ({**TRAIN_CFG, "dataset": {"task": "temporal2d", "n": float("inf")}}, "'n'"),
        ({**TRAIN_CFG, "dataset": {"task": "gridframe", "width": float("-inf")}}, "'width'"),
        ({**TRAIN_CFG, "learning_rte": 5.0}, "'learning_rte'"),
        ({**TRAIN_CFG, "decay": 0.5}, "'decay'"),
        ({**TRAIN_CFG, "learning_rate": float("inf")}, "learning_rate"),
        ({**TRAIN_CFG, "base_loss": "tukey:inf"}, "tukey cutoff"),
        ({**TRAIN_CFG, "epochs": 2.5}, "'epochs'"),
        ({**TRAIN_CFG, "M": 2.5}, "'M'"),
        ({**TRAIN_CFG, "hidden_layers": [8.5]}, "'hidden_layers'"),
        ({**TRAIN_CFG, "dataset": {"task": "temporal2d", "n": 200.7}}, "'n'"),
        ({**TRAIN_CFG, "epochs": True}, "'epochs'"),
        ({**TRAIN_CFG, "learning_rate": "0.05"}, "'learning_rate'"),
        ({**TRAIN_CFG, "momentum": False}, "'momentum'"),
        ({**TRAIN_CFG, "epsilon": "0.05"}, "'epsilon'"),
        ({**TRAIN_CFG, "dataset": {"path": 5}}, "'path'"),
        ({**TRAIN_CFG, "seed": -3}, "'seed'"),
        ({**TRAIN_CFG, "dataset": {"task": "multilabel", "n": 64, "item_seed": -1}},
         "'item_seed'"),
    ], ids=["list", "M", "epochs", "base_loss", "hidden_layers", "dataset", "dataset_width",
            "dataset_t", "hidden_width_0", "epochs_inf", "batch_size_-inf", "M_inf",
            "seed_-inf", "hidden_width_inf", "dataset_n_inf", "dataset_width_-inf",
            "unknown_key", "decay_and_momentum", "learning_rate_inf", "tukey_cutoff_inf",
            "epochs_2.5", "M_2.5", "hidden_width_8.5", "dataset_n_200.7", "epochs_true",
            "learning_rate_str", "momentum_false", "epsilon_str", "dataset_path_5", "seed_-3",
            "dataset_item_seed_-1"])
    def test_usage_error_names_the_field(self, tmp_path, capsys, config, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        usage_error(capsys, ["train", "--config", str(path), "--out", str(tmp_path / "run")], field)

    @pytest.mark.parametrize("dataset, source, unused", [
        ({"task": "temporal2d", "n": 64, "tt": 0.5}, "'temporal2d'", "['tt']"),
        ({"task": "gridframe", "num_classes": 3}, "'gridframe'", "['num_classes']"),
        ({"task": "multilabel", "t": 0.5, "width": 4}, "'multilabel'", "['t', 'width']"),
        ({"path": "d", "task": "gridframe", "n": 7}, "'path'", "['n', 'task']"),
    ], ids=["temporal2d_tt", "gridframe_num_classes", "multilabel_t_width", "path_task_n"])
    def test_dataset_key_its_source_does_not_read_is_usage_error(self, tmp_path, capsys,
                                                                   dataset, source, unused):
        if "path" in dataset:
            dataset = {**dataset, "path": str(gen(tmp_path, "gridframe", n=50))}
        capsys.readouterr()
        usage_error(capsys, ["train", "--config", str(write_cfg(tmp_path, dataset=dataset)),
                             "--out", str(tmp_path / "run")], "'dataset'", source, unused)
        assert not (tmp_path / "run").exists()

    def test_non_integer_mhp_seed_names_the_variable(self, tmp_path, capsys, monkeypatch):
        for value in ("x", "-5"):
            monkeypatch.setenv("MHP_SEED", value)
            usage_error(capsys, ["train", "--config", str(write_cfg(tmp_path, epochs=1)),
                                 "--out", str(tmp_path / "run")], "MHP_SEED")


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ["gen", "--task", "temporal2d", "--n", "10"],
        ["lloyd", "--data", "d", "--m", "2"],
        ["tessellate", "--generators", "generators.json", "--t", "0.5"],
    ], ids=["gen", "lloyd", "tessellate"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, argv):
        assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got -1" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()


# One drawn value for one field. Counts stay small: integers and floats lie in
# [-2, 3], and text is at most three characters.
SCALARS = st.one_of(st.none(), st.text(max_size=3), st.booleans(), st.integers(-2, 3),
                    st.floats(-2, 3), st.sampled_from([math.nan, math.inf, -math.inf]))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
SMALL_CFG = {**TRAIN_CFG, "epochs": 1, "batch_size": 16, "hidden_layers": [4],
             "dataset": {"task": "temporal2d", "n": 40}}
CONFIG_FIELDS = [*SMALL_CFG, "decay", "dataset.n", "dataset.t", "dataset.task"]
SIDECAR_FIELDS = ["task", "spec", "seed", "n", "input_columns", "target_columns",
                  "int_targets"]
# top-level keys, then the layer dims, head pairs and optimizer of a SMALL_CFG run
CHECKPOINT_FIELDS = ["schema_version", "layer_dims", "activations", "M", "output_dim", "seed",
                     "parameters", "optimizer", "extras", "optimizer.kind",
                     "optimizer.learning_rate", "optimizer.momentum",
                     *(f"layer_dims.{i}.{j}" for i in (0, 1) for j in (0, 1)),
                     *(f"{pairs}.1.{key}" for pairs in ("parameters", "optimizer.buffers")
                       for key in ("weights", "biases")),
                     "extras.task", "extras.base_loss", "activations.0",
                     "parameters.1.weights.0", "optimizer.buffers.1.biases.0"]
# a tessellate --generators file: its keys, its two generators and the first one's coordinates
GENERATORS_DOC = {"generators": [[0.5, 0.5], [-0.5, -0.5]], "loss": "l2"}
GENERATORS_FIELDS = ["generators", "loss", "generators.0", "generators.1",
                     "generators.0.0", "generators.0.1"]


def set_field(doc, field, value):
    """Sets the entry of ``doc`` at a dotted path such as ``parameters.1.weights``."""
    *parents, key = field.split(".")
    for part in parents:
        doc = doc[int(part) if isinstance(doc, list) else part]
    doc[int(key) if isinstance(doc, list) else key] = value


class TestCorruptionProperty:
    @given(where=st.one_of(st.tuples(st.just("config"), st.sampled_from(CONFIG_FIELDS)),
                           st.tuples(st.just("sidecar"), st.sampled_from(SIDECAR_FIELDS)),
                           st.tuples(st.just("checkpoint"), st.sampled_from(CHECKPOINT_FIELDS)),
                           st.tuples(st.just("generators"), st.sampled_from(GENERATORS_FIELDS))),
           value=VALUES)
    @settings(max_examples=150, deadline=None)
    def test_corrupt_field_ends_in_an_exit_code(self, where, value):
        kind, field = where
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg, data = json.loads(json.dumps(SMALL_CFG)), tmp / "d"
            ckpt = tmp / "run" / "checkpoint.json"
            train = ["train", "--config", tmp / "config.json", "--out", tmp / "run"]
            evaluate = ["eval", "--checkpoint", ckpt, "--data", data,
                        "--metrics", "oracle_min,hypothesis_variance"]
            if kind == "config":
                set_field(cfg, field, value)
                runs = [train]
            else:
                assert main(["gen", "--task", "temporal2d", "--n", "30", "--out", str(data)]) == 0
            if kind == "sidecar":
                sidecar = json.loads((data / "data.json").read_text())
                set_field(sidecar, field, value)
                (data / "data.json").write_text(json.dumps(sidecar))
                runs = [["lloyd", "--data", data, "--m", "2", "--restarts", "1",
                         "--out", tmp / "l"], train + ["--data", data], evaluate]
            (tmp / "config.json").write_text(json.dumps(cfg))
            if kind == "checkpoint":
                assert main([str(a) for a in train]) == 0
                doc = json.loads(ckpt.read_text())
                set_field(doc, field, value)
                ckpt.write_text(json.dumps(doc))
                runs = [evaluate, ["tessellate", "--checkpoint", ckpt, "--t", "0.5",
                                   "--samples", "20", "--out", tmp / "cells"]]
            if kind == "generators":
                doc = json.loads(json.dumps(GENERATORS_DOC))
                set_field(doc, field, value)
                (tmp / "generators.json").write_text(json.dumps(doc))
                runs = [["tessellate", "--generators", tmp / "generators.json", "--t", "0.5",
                         "--samples", "20", "--out", tmp / "cells"]]
            for argv in runs:  # only training can diverge (exit 4)
                assert main([str(a) for a in argv]) in ((0, 2, 3, 4) if argv[0] == "train"
                                                        else (0, 2, 3))
